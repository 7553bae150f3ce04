"""The repo benchmark: three workloads driven from outside the program.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 30

A run builds its inputs and the object engine's expected outputs from the
seed, sets the program up ``SETUPS`` times (``setup_s`` is the median),
warms it, measures it for ``--seconds`` and checks every output.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the program runs under the benchmark's layer wrappers and
the line carries the per-layer metrics.  ``--report`` runs every
workload both ways and prints them side by side.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program under {ROOT / 'src'}; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import procs  # noqa: E402
import serve_load  # noqa: E402
from inputs import lane_checks, serve_pool  # noqa: E402

CONNS = len(os.sched_getaffinity(0))
WARM_SECONDS = 2.0
# Set-ups per run; setup_s is their median.
SETUPS = 9
SMALL = ("sobel", "blackscholes", "fisheye", "nbody")


@dataclass(frozen=True)
class Workload:
    kernels: tuple[str, ...]  # served kernels; empty for lane_maps
    serve_args: tuple[str, ...]
    # The highest of p50/p75/p90/p99 with at least ten samples beyond it
    # at the benchmark's run length.
    tail: int


WORKLOADS = {
    "serve_small": Workload(SMALL, (), 99),
    "serve_small_proc": Workload(
        SMALL, ("--executor", "process", "--workers", str(CONNS)), 99
    ),
    "lane_maps": Workload((), (), 75),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Result:
    end_to_end: dict
    per_layer: dict | None
    attempted: int
    failed: int
    leftovers: list
    details: dict


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _timings(setup: list, latencies: list, tail: int) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "p50_ms": 1000.0 * percentile(latencies, 50),
        "tail_ms": 1000.0 * percentile(latencies, tail),
    }


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> Result:
    workload = WORKLOADS[name]
    pool = serve_pool(workload.kernels, seed)
    spans = str(procs.OUT / f"spans-{name}.json") if trace else None
    setup, leftovers, checked = [], [], serve_load.Phase()
    server = None
    try:
        for i in range(SETUPS):
            start = time.monotonic()
            server = serve_load.Server(list(workload.serve_args), spans)
            warmup = serve_load.warm(server, pool, workload.kernels)
            setup.append(time.monotonic() - start)
            checked.ok += warmup.ok
            checked.failed += warmup.failed
            if i < SETUPS - 1:
                leftovers += server.stop()
                server = None
        warm = serve_load.closed_loop(server, pool, CONNS, 2 * seed, WARM_SECONDS)
        before = layers.parse_prometheus(server.metrics()) if trace else {}
        phase = serve_load.closed_loop(server, pool, CONNS, 2 * seed + 1, seconds)
        after = layers.parse_prometheus(server.metrics()) if trace else {}
        tree = server.tree()
        rss = procs.peak_rss_mb(tree)
    finally:
        if server is not None:
            leftovers += server.stop()
    served = len(phase.latencies)
    metrics = _timings(setup, phase.latencies, workload.tail)
    metrics["req_per_s"] = phase.ok / phase.seconds
    # Each request analyses one input set: one lane.
    metrics["lanes_per_s"] = metrics["req_per_s"]
    metrics["peak_rss_mb"] = rss
    details = {
        "samples": served,
        "outcomes": phase.outcomes,
        "process_tree": tree,
    }
    per = None
    if trace:
        spans_list = layers.load_spans(spans)
        window = layers.totals(spans_list, phase.start, phase.start + phase.seconds)
        per = layers.per_layer(
            window,
            layers.worker_totals(before, after),
            served,
            sum(phase.latencies),
            transport=True,
        )
        per["serve.batching.lanes_per_sweep"] = len(phase.batch_sizes) / sum(
            1.0 / size for size in phase.batch_sizes
        )
        per["scorpio.trace_cache.replay_share"] = (
            phase.outcomes.get("replay", 0) / served
        )
        fallbacks = "repro_mp_fallbacks_total"
        per["mp.executor.fallbacks"] = after.get(fallbacks, 0.0) - before.get(
            fallbacks, 0.0
        )
        setup_layers = layers.totals(spans_list, 0.0, phase.start)
        details["setup_layers_ms"] = {
            layer: 1000.0 * setup_layers.get(layer, [0.0])[0]
            for layer in layers.SETUP_LAYERS
        }
    attempted = checked.attempted + warm.attempted + phase.attempted
    failed = checked.failed + warm.failed + phase.failed
    return Result(metrics, per, attempted, failed, leftovers, details)


def _tell(proc, command: dict) -> None:
    proc.stdin.write((json.dumps(command) + "\n").encode("utf-8"))


def _quit(proc) -> list:
    try:
        _tell(proc, {"cmd": "quit"})
        proc.wait(30.0)
    except (OSError, subprocess.TimeoutExpired):
        pass
    return procs.stop(proc)


def run_lanes(seed: int, seconds: float, trace: bool) -> Result:
    checks = lane_checks(seed)
    spans = str(procs.OUT / "spans-lane_maps.json")
    argv = ["perfbench/lane_runner.py", "--seed", str(seed)]
    if trace:
        argv += ["--spans", spans]
    setup, leftovers = [], []
    proc = None
    try:
        for i in range(SETUPS):
            start = time.monotonic()
            proc = procs.start(argv, "lane_runner.log", stdin=True)
            procs.read_json(proc, 120.0)
            setup.append(time.monotonic() - start)
            if i < SETUPS - 1:
                leftovers += _quit(proc)
                proc = None
        _tell(proc, {"cmd": "run", "seconds": seconds, "checks": checks})
        run = procs.read_json(proc, 170.0)
        tree = procs.group_pids(proc.pid)
        rss = procs.peak_rss_mb(tree)
    finally:
        if proc is not None:
            leftovers += _quit(proc)
    jobs = run["job_seconds"]
    metrics = _timings(setup, jobs, WORKLOADS["lane_maps"].tail)
    metrics["req_per_s"] = len(jobs) / sum(jobs)
    metrics["lanes_per_s"] = metrics["req_per_s"] * run["lanes_per_job"]
    metrics["peak_rss_mb"] = rss
    per = None
    if trace:
        window = layers.totals(
            layers.load_spans(spans), run["start"], run["start"] + run["seconds"]
        )
        per = layers.per_layer(window, {}, len(jobs), sum(jobs))
        per["serve.batching.lanes_per_sweep"] = 0.0
        per["scorpio.trace_cache.replay_share"] = 0.0
        per["mp.executor.fallbacks"] = 0.0
    details = {"samples": len(jobs), "process_tree": tree}
    return Result(metrics, per, run["attempted"], run["failed"], leftovers, details)


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if name == "lane_maps":
        return run_lanes(seed, seconds, trace)
    return run_serve(name, seed, seconds, trace)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def stamp(name: str, seed: int, seconds: float, trace: bool, result: Result) -> dict:
    import numpy

    samples = result.details["samples"]
    tail = WORKLOADS[name].tail
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "connections": CONNS if name != "lane_maps" else 0,
        "nproc": CONNS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "tail_percentile": tail,
        "samples": samples,
        "tail_samples_beyond": samples - max(1, math.ceil(tail / 100.0 * samples)),
        "attempted": result.attempted,
        "succeeded": result.attempted - result.failed,
        "failed": result.failed,
        "failed_share": result.failed / max(1, result.attempted),
        "leftover_processes": result.leftovers,
    }


def line(result: Result, trace: bool) -> dict:
    """The benchmark's result object (the last line of stdout)."""
    kind, values = (
        ("per_layer", result.per_layer) if trace else ("end_to_end", result.end_to_end)
    )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in SPEC[kind]
    }
    return {
        "correct": result.failed == 0 and not result.leftovers,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _save(name: str, seed: int, trace: bool, result: Result, info: dict) -> None:
    out = procs.OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "stamp": info,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "details": result.details,
    }
    path = out / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2))


def _warn_unattributed(name: str, per: dict) -> str | None:
    op_ms = sum(value for key, value in per.items() if key.endswith("_ms"))
    if per["unattributed_ms"] <= op_ms / 5.0:
        return None
    unit = "job" if name == "lane_maps" else "request"
    return (
        f"WARNING {name}: unattributed_ms {per['unattributed_ms']:.3f} is more "
        f"than a fifth of the {op_ms:.3f} ms per {unit}; a layer is missing"
    )


def report(seed: int, seconds: float) -> None:
    """Every workload untraced and traced, side by side."""
    for name in WORKLOADS:
        plain = run(name, seed, seconds, False)
        traced = run(name, seed, seconds, True)
        info = stamp(name, seed, seconds, False, plain)
        _save(name, seed, False, plain, info)
        _save(name, seed, True, traced, stamp(name, seed, seconds, True, traced))
        print(f"== {name} ==")
        print("stamp " + json.dumps(info))
        print(f"{'metric':<16}{'untraced':>14}{'traced':>14}{'overhead':>10}")
        for key, a in plain.end_to_end.items():
            b = traced.end_to_end[key]
            print(f"{key:<16}{a:>14.4f}{b:>14.4f}{(b - a) / a:>+10.1%}  {UNITS[key]}")
        print("per-layer, per " + ("job" if name == "lane_maps" else "request"))
        for key, value in traced.per_layer.items():
            print(f"  {key:<40}{value:>14.4f}  {UNITS[key]}")
        if "setup_layers_ms" in traced.details:
            print("set-up layers, ms in all (last launch)")
            for key, value in traced.details["setup_layers_ms"].items():
                print(f"  {key:<40}{value:>14.4f}")
        warning = _warn_unattributed(name, traced.per_layer)
        if warning:
            print(warning)
        print(
            f"checked: attempted {plain.attempted + traced.attempted}, "
            f"failed {plain.failed + traced.failed}",
            flush=True,
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", action="store_true", help="every workload, both ways"
    )
    args = parser.parse_args(argv)
    if args.report:
        report(args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload or --report is required")
    trace = bool(args.trace)
    result = run(args.workload, args.seed, args.seconds, trace)
    info = stamp(args.workload, args.seed, args.seconds, trace, result)
    _save(args.workload, args.seed, trace, result, info)
    print("stamp " + json.dumps(info))
    if trace:
        warning = _warn_unattributed(args.workload, result.per_layer)
        if warning:
            print(warning)
    print(json.dumps(line(result, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
