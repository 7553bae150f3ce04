"""Self-test of the benchmark (about two minutes on two cores).

    python3 -m pytest perfbench -q

Runs every workload briefly through the command the benchmark is driven
with, in both modes, and checks the benchmark's own contract: every
metric named in BENCHMARK.json is printed with its unit, a wrong body
counts as failed, per-layer self times never add up to more than the
time they are part of, and every serve run leaves no process behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import procs  # noqa: E402
import serve_load  # noqa: E402
from inputs import Request, serve_pool  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    """(workload, trace) -> (result line, results file)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _bench(workload, trace)
            assert done.returncode == 0, done.stderr[-3000:]
            line = json.loads(done.stdout.strip().splitlines()[-1])
            saved = procs.OUT / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
            out[workload, trace] = (line, json.loads(saved.read_text()))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(runs, workload, trace):
    line, _ = runs[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_within_wall_time(runs, workload):
    line, _ = runs[workload, 1]
    values = {k: m["value"] for k, m in line["metrics"].items()}
    per_op = sum(v for k, v in values.items() if k.endswith("_ms"))
    for name, value in values.items():
        if name.endswith("_ms"):
            assert value >= -0.01 * per_op, (name, value)
    layers = per_op - values["unattributed_ms"]
    assert layers <= per_op * 1.01


@pytest.mark.parametrize(
    "workload", [w for w in WORKLOADS if w.startswith("serve")]
)
@pytest.mark.parametrize("trace", [0, 1])
def test_server_tree_gone_after_run(runs, workload, trace):
    _, saved = runs[workload, trace]
    tree = saved["details"]["process_tree"]
    assert tree, "the server's process tree was never seen"
    if workload.endswith("_proc"):
        assert len(tree) >= 3, "expected the server and its pool workers"
    assert saved["stamp"]["leftover_processes"] == []
    for pid in tree:
        stat = Path(f"/proc/{pid}/stat")
        assert not stat.exists() or stat.read_text().split(")")[-1].split()[0] == "Z"


def test_corrupted_body_counted_as_failed():
    pool = serve_pool(("sobel",), SEED)[:2]
    good = pool[0]
    bad = Request(good.kernel, good.body, good.expected[:-2] + b"!}")
    server = serve_load.Server([])
    try:
        phase = serve_load.Phase()
        conn = server.connect()
        try:
            assert serve_load._send(conn, good, phase)
            assert not serve_load._send(conn, bad, phase)
        finally:
            conn.close()
        assert (phase.ok, phase.failed) == (1, 1)
        loop = serve_load.closed_loop(server, [bad], 2, SEED, 0.5)
        assert loop.attempted > 0 and loop.failed == loop.attempted
    finally:
        assert server.stop() == []


def test_refuses_to_run_without_the_program():
    bare = procs.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _bench("serve_small", 0, cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
