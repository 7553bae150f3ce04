"""Record headline benchmark numbers to ``BENCH_core.json``.

The pytest-benchmark harness measures everything, but its JSON output is
per-run and machine-relative.  This module keeps a small, curated set of
*headline* numbers — the speedups and costs the README quotes — in a
stable file at the repo root, written incrementally by the benchmarks as
they run::

    from record import record_value
    record_value("analysis.tree_dot_speedup", 8.3, unit="x")

and compared against a committed baseline in CI::

    python benchmarks/record.py --compare benchmarks/BENCH_baseline.json \
        --tolerance 2.0

The comparison is directional per unit: ``seconds``, ``ms`` and
``ratio`` (overhead factor) entries fail when the current value is more
than ``tolerance`` times *larger* than baseline; ``x`` (speedup) and
``req/s`` (throughput) entries fail when more than ``tolerance`` times
*smaller*.  A baseline entry with any other unit fails the run, so no
entry goes ungated.
Entries present on only one side are reported but never fail the run, so
adding a new benchmark doesn't require touching the baseline first.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

__all__ = ["record_value", "load_results", "compare", "write_metrics_sidecar"]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = REPO_ROOT / "BENCH_core.json"


def load_results(path: Path = DEFAULT_PATH) -> dict[str, dict[str, Any]]:
    """The ``name -> entry`` mapping of a results file ({} if absent)."""
    if not Path(path).exists():
        return {}
    with open(path) as fh:
        data = json.load(fh)
    return data.get("results", {})


def record_value(
    name: str,
    value: float,
    *,
    unit: str = "seconds",
    path: Path = DEFAULT_PATH,
    **meta: Any,
) -> None:
    """Insert/overwrite one named result in the results file."""
    results = load_results(path)
    entry: dict[str, Any] = {"value": round(float(value), 6), "unit": unit}
    entry.update(meta)
    results[name] = entry
    with open(path, "w") as fh:
        json.dump({"results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_metrics_sidecar(path)


def write_metrics_sidecar(path: Path = DEFAULT_PATH) -> Path | None:
    """Dump the live :mod:`repro.obs` metrics next to the results file.

    Benchmarks exercise the instrumented pipeline, so the always-on
    counters (tapes recorded, sweeps run, cache hits, ...) describe what a
    headline number actually measured.  The snapshot lands in
    ``<results stem>.metrics.json``; returns its path, or ``None`` when
    ``repro.obs`` is not importable or no metric has been touched yet.
    """
    try:
        from repro.obs import metrics as obs_metrics
    except ImportError:  # pragma: no cover - repro not on sys.path
        return None
    snap = obs_metrics.snapshot()
    if not snap:
        return None
    sidecar = Path(path).with_suffix(".metrics.json")
    with open(sidecar, "w") as fh:
        json.dump({"metrics": snap}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def compare(
    current: dict[str, dict[str, Any]],
    baseline: dict[str, dict[str, Any]],
    tolerance: float,
) -> list[str]:
    """Regression messages (empty when everything is within tolerance)."""
    failures: list[str] = []
    for name in sorted(set(current) & set(baseline)):
        cur = float(current[name]["value"])
        base = float(baseline[name]["value"])
        unit = baseline[name].get("unit", "seconds")
        if unit == "seconds":
            ok = cur <= base * tolerance
            verdict = f"{cur:.4f}s vs baseline {base:.4f}s"
        elif unit == "ms":
            ok = cur <= base * tolerance
            verdict = f"{cur:.2f}ms vs baseline {base:.2f}ms"
        elif unit == "x":
            ok = cur >= base / tolerance
            verdict = f"{cur:.2f}x vs baseline {base:.2f}x"
        elif unit == "req/s":
            ok = cur >= base / tolerance
            verdict = f"{cur:.1f} req/s vs baseline {base:.1f} req/s"
        elif unit == "ratio":
            ok = cur <= base * tolerance
            verdict = f"{cur:.3f} vs baseline ratio {base:.3f}"
        else:
            ok = False
            verdict = f"unknown unit {unit!r}, cannot gate"
        status = "ok" if ok else "REGRESSION"
        print(f"  {name}: {verdict} [{status}]")
        if not ok:
            failures.append(f"{name}: {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name}: {current[name]['value']} (no baseline)")
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name}: not measured this run")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=DEFAULT_PATH,
        help="results file written by the benchmarks",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        required=True,
        metavar="BASELINE",
        help="committed baseline results file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed slowdown factor before failing (default 2.0)",
    )
    args = parser.parse_args(argv)
    current = load_results(args.current)
    baseline = load_results(args.compare)
    if not current:
        print(f"no results found at {args.current}", file=sys.stderr)
        return 2
    print(f"comparing {args.current} against {args.compare} "
          f"(tolerance {args.tolerance}x):")
    failures = compare(current, baseline, args.tolerance)
    if failures:
        print(f"{len(failures)} regression(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("all tracked benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
