"""Analysis-cost benchmark: what does a dco/scorpio profile run cost?

Not a paper figure — the engineering number behind the paper's "single
analysis run" pitch: the slowdown of an interval-adjoint taped run over a
plain float evaluation, and of the full ANALYSE pipeline on the Maclaurin
example.  The absolute factor is large in pure Python (every elementary
op becomes an object + tape node), but it is paid once offline per
kernel, not at execution time.

The ``test_compiled_*`` benchmarks size the compiled fast path
(``analyse(compiled=True)`` / the batched lane machinery) against the
object pipeline on the same recordings, and record the headline speedups
to ``BENCH_core.json`` via :mod:`record`.
"""

import statistics
import time

import numpy as np
import pytest
from record import record_value

from repro.kernels.maclaurin import analyse_maclaurin, maclaurin_series
from repro.scorpio import Analysis
from repro.scorpio.serialize import report_to_json

N = 24
TREE_N = 8192
TREE_ROUNDS = 5
SOBEL_HW = 16


def test_plain_float_evaluation(benchmark):
    value = benchmark(maclaurin_series, 0.49, N)
    assert value == pytest.approx((1 - 0.49**N) / (1 - 0.49))


def test_full_analysis_pipeline(benchmark):
    result = benchmark(analyse_maclaurin, 0.49, 1.0, N)
    assert result.partition_level == 1
    benchmark.extra_info["note"] = (
        "profile run + reverse sweep + simplify + variance scan, "
        f"n={N} terms"
    )
    t0 = time.perf_counter()
    analyse_maclaurin(0.49, 1.0, N)
    record_value(
        "analysis.maclaurin_pipeline_seconds",
        time.perf_counter() - t0,
        terms=N,
    )


# ----------------------------------------------------------------------
# Compiled fast path vs the object pipeline
# ----------------------------------------------------------------------


def _record_tree_dot(n):
    """A balanced dot-product reduction tree: 2n inputs, ~4n nodes.

    Deterministic pseudo-random midpoints so the recording is stable
    across runs without seeding numpy.
    """
    an = Analysis()
    with an:
        xs = [
            an.input(
                0.1 + 0.8 * ((i * 37) % 97) / 97.0, width=0.01, name=f"x{i}"
            )
            for i in range(n)
        ]
        ws = [
            an.input(
                -0.5 + ((i * 53) % 89) / 89.0, width=0.01, name=f"w{i}"
            )
            for i in range(n)
        ]
        terms = [x * w for x, w in zip(xs, ws)]
        while len(terms) > 1:
            nxt = [a + b for a, b in zip(terms[::2], terms[1::2])]
            if len(terms) % 2:
                nxt.append(terms[-1])
            terms = nxt
        an.output(terms[0], name="dot")
    return an


def test_compiled_tree_dot_speedup(benchmark):
    """analyse(compiled=True) >= 5x on a wide reduction tree, same report."""
    # Warm both paths: first-call module imports and numpy one-time costs
    # must not land inside either measurement.
    _record_tree_dot(64).analyse()
    _record_tree_dot(64).analyse(compiled=True)

    # The two sides alternate on fresh recordings (analyse() caches per
    # instance), one of each per round, so a host slowdown lands on both
    # sides of a round's ratio; the median ratio over the rounds is the
    # speedup.
    obj_times, cmp_times = [], []
    rep_obj = rep_cmp = None
    for _ in range(TREE_ROUNDS):
        an_obj = _record_tree_dot(TREE_N)
        t0 = time.perf_counter()
        rep_obj = an_obj.analyse()
        obj_times.append(time.perf_counter() - t0)
        an_cmp = _record_tree_dot(TREE_N)
        t0 = time.perf_counter()
        rep_cmp = an_cmp.analyse(compiled=True)
        cmp_times.append(time.perf_counter() - t0)
    t_obj, t_cmp = statistics.median(obj_times), statistics.median(cmp_times)

    assert report_to_json(rep_obj) == report_to_json(rep_cmp)

    def setup():
        return (_record_tree_dot(TREE_N),), {}

    benchmark.pedantic(
        lambda an: an.analyse(compiled=True), setup=setup, rounds=3
    )

    speedup = statistics.median(
        [o / c for o, c in zip(obj_times, cmp_times)]
    )
    benchmark.extra_info["object_seconds"] = round(t_obj, 3)
    benchmark.extra_info["compiled_seconds"] = round(t_cmp, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    record_value(
        "analysis.tree_dot_speedup",
        speedup,
        unit="x",
        nodes=len(an_obj.tape),
    )
    assert speedup >= 5.0, (
        f"compiled analyse only {speedup:.1f}x faster "
        f"({t_obj:.3f}s object vs {t_cmp:.3f}s compiled)"
    )


def test_compiled_sobel_map_speedup(benchmark):
    """Batched per-pixel Sobel maps >= 5x over the per-pixel object loop."""
    from repro.kernels.sobel.analysis import (
        analyse_sobel_pixel,
        analyse_sobel_scan_map,
    )

    rng = np.random.default_rng(5)
    image = rng.uniform(0.0, 255.0, (SOBEL_HW, SOBEL_HW))
    padded = np.pad(image, 1, mode="edge")

    # Warmup (numpy one-time costs).
    analyse_sobel_scan_map(image[:4, :4])
    analyse_sobel_pixel(padded[0:3, 0:3])

    t0 = time.perf_counter()
    obj = [
        analyse_sobel_pixel(padded[y : y + 3, x : x + 3])
        for y in range(SOBEL_HW)
        for x in range(SOBEL_HW)
    ]
    t_obj = time.perf_counter() - t0

    t0 = time.perf_counter()
    maps = analyse_sobel_scan_map(image)
    t_cmp = time.perf_counter() - t0

    a_obj = np.array([p["A"] for p in obj]).reshape(SOBEL_HW, SOBEL_HW)
    assert np.allclose(a_obj, maps["A"], rtol=1e-12)

    benchmark.pedantic(
        analyse_sobel_scan_map, args=(image,), rounds=3, iterations=1
    )

    speedup = t_obj / t_cmp
    benchmark.extra_info["object_seconds"] = round(t_obj, 3)
    benchmark.extra_info["compiled_seconds"] = round(t_cmp, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    record_value(
        "analysis.sobel_map_speedup",
        speedup,
        unit="x",
        pixels=SOBEL_HW * SOBEL_HW,
    )
    assert speedup >= 5.0, (
        f"batched sobel map only {speedup:.1f}x faster "
        f"({t_obj:.3f}s object loop vs {t_cmp:.3f}s batched)"
    )


def test_compiled_dct_block_speedup(benchmark):
    """Compiled DCT block maps: modest win (recording dominates both)."""
    from repro.kernels.dct.analysis import analyse_dct_block

    rng = np.random.default_rng(7)
    block = rng.uniform(0.0, 255.0, (8, 8))

    analyse_dct_block(rng.uniform(0.0, 255.0, (8, 8)), compiled=True)  # warmup

    t0 = time.perf_counter()
    obj = analyse_dct_block(block)
    t_obj = time.perf_counter() - t0

    t0 = time.perf_counter()
    cmp_map = analyse_dct_block(block, compiled=True)
    t_cmp = time.perf_counter() - t0

    assert np.array_equal(obj, cmp_map)

    benchmark.pedantic(
        analyse_dct_block,
        args=(block,),
        kwargs={"compiled": True},
        rounds=3,
        iterations=1,
    )

    speedup = t_obj / t_cmp
    benchmark.extra_info["speedup"] = round(speedup, 1)
    record_value("analysis.dct_block_speedup", speedup, unit="x")
    assert speedup >= 1.5, (
        f"compiled DCT maps only {speedup:.1f}x faster "
        f"({t_obj:.3f}s vs {t_cmp:.3f}s; recording is shared cost)"
    )
