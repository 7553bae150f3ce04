"""Drive a real ``repro serve`` process from outside.

The load is a closed loop with zero think time: each of ``conns``
threads holds one keep-alive connection and sends its next /analyse
request as soon as the previous reply is read.  The mix is an assumed
one, not taken from a caller (see README.md).  Every body is compared
byte for byte with the object engine's.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass, field

import procs

HEADERS = {"Content-Type": "application/json"}
LISTENING = "repro serve listening on http://"


@dataclass
class Phase:
    """What one closed-loop phase saw."""

    start: float = 0.0  # time.monotonic() at the first send
    seconds: float = 0.0  # first send to last reply
    latencies: list = field(default_factory=list)  # seconds, every reply
    ok: int = 0
    failed: int = 0
    batch_sizes: list = field(default_factory=list)  # X-Repro-Batch sizes
    outcomes: dict = field(default_factory=dict)  # X-Repro-Cache counts

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


class Server:
    """One ``repro serve`` process (plain, or under the traced launcher)."""

    def __init__(self, serve_args: list[str], spans: str | None = None):
        argv = ["-m", "repro"]
        if spans is not None:
            argv = ["perfbench/launch_serve.py", "--spans", spans]
        argv += ["serve", "--port", "0", *serve_args]
        self.proc = procs.start(argv, "serve.log")
        address = procs.read_line(self.proc, LISTENING, timeout=120.0)
        self.host, port = address.split()[0].rsplit(":", 1)
        self.port = int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120.0)

    def metrics(self) -> str:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def tree(self) -> list[int]:
        return procs.group_pids(self.proc.pid)

    def stop(self) -> list[int]:
        return procs.stop(self.proc)


def _send(conn, request, phase: Phase) -> bool:
    """One /analyse round trip, checked and recorded; False on failure."""
    start = time.monotonic()
    try:
        conn.request("POST", "/analyse", body=request.body, headers=HEADERS)
        response = conn.getresponse()
        data = response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        phase.failed += 1
        return False
    phase.latencies.append(time.monotonic() - start)
    outcome = response.getheader("X-Repro-Cache", "")
    phase.outcomes[outcome] = phase.outcomes.get(outcome, 0) + 1
    batch = response.getheader("X-Repro-Batch", "1/0")
    phase.batch_sizes.append(int(batch.split("/")[0]))
    if response.status == 200 and data == request.expected:
        phase.ok += 1
        return True
    phase.failed += 1
    return False


def warm(server: Server, pool, kernels) -> Phase:
    """Send each kernel's first pooled request until it answers as replay."""
    phase = Phase()
    conn = server.connect()
    try:
        for kernel in kernels:
            request = next(r for r in pool if r.kernel == kernel)
            for _ in range(50):
                before = phase.outcomes.get("replay", 0)
                _send(conn, request, phase)
                if phase.outcomes.get("replay", 0) > before:
                    break
            else:
                raise RuntimeError(f"{kernel} never answered as a replay")
    finally:
        conn.close()
    return phase


def closed_loop(
    server: Server, pool, conns: int, seed: int, seconds: float
) -> Phase:
    """Run ``conns`` closed-loop clients for ``seconds``; merge what they saw.

    Each client draws requests from ``pool`` with its own generator,
    seeded from ``seed``, and stops sending at the deadline; replies to
    requests in flight at the deadline are still awaited and counted.
    """
    phases = [Phase() for _ in range(conns)]
    ends = [0.0] * conns
    barrier = threading.Barrier(conns + 1)
    deadline = [0.0]

    def client(index: int) -> None:
        rng = random.Random(seed * 1_000_003 + index)
        conn = server.connect()
        phase = phases[index]
        try:
            barrier.wait()
            while time.monotonic() < deadline[0]:
                _send(conn, pool[rng.randrange(len(pool))], phase)
            ends[index] = time.monotonic()
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(conns)
    ]
    for thread in threads:
        thread.start()
    start = time.monotonic()
    deadline[0] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    merged = Phase(start=start, seconds=max(ends) - start)
    for phase in phases:
        merged.latencies += phase.latencies
        merged.ok += phase.ok
        merged.failed += phase.failed
        merged.batch_sizes += phase.batch_sizes
        for key, count in phase.outcomes.items():
            merged.outcomes[key] = merged.outcomes.get(key, 0) + count
    return merged
