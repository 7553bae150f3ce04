"""Child processes of the benchmark: start, find, measure and stop.

Every program process is started as the leader of a new process group,
so its whole tree (a server and its pool workers) shares that group,
which is how the tree is found for memory figures and for teardown.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"


def program_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` on the
    path, and none of the program's tuning variables."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def start(argv: list[str], log_name: str, stdin: bool = False) -> subprocess.Popen:
    """Start a program process in a new process group; stderr goes to a log."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / log_name, "wb") as log:
        return subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
            bufsize=0,
            start_new_session=True,
        )


def read_line(proc: subprocess.Popen, prefix: str, timeout: float) -> str:
    """The rest of the next stdout line starting with ``prefix``."""
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no {prefix!r} line within {timeout:.0f}s")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if not ready:
            continue
        line = proc.stdout.readline().decode("utf-8", "replace")
        if not line:
            raise RuntimeError(
                f"process {proc.pid} exited (code {proc.wait()}) before "
                f"printing {prefix!r}"
            )
        if line.startswith(prefix):
            return line[len(prefix) :].strip()


def read_json(proc: subprocess.Popen, timeout: float) -> dict:
    return json.loads(read_line(proc, "PERFBENCH ", timeout))


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return sorted(pids)


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> list[int]:
    """Interrupt ``proc``, wait for its whole tree, return what survived.

    The process gets SIGINT (the program's own clean shutdown); whatever
    of its group is still alive after ``timeout`` is killed.  Returns the
    pids that were still alive after the clean shutdown.
    """
    pgid = proc.pid
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + timeout
    survivors = group_pids(pgid)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = group_pids(pgid)
    if survivors or proc.poll() is None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + timeout
        while group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
    if proc.stdout is not None:
        proc.stdout.close()
    if proc.stdin is not None:
        proc.stdin.close()
    return survivors
