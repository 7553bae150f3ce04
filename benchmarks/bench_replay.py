"""Record-vs-replay benchmarks: the trace cache against re-recording.

The per-item analysis loops (every DCT block, every Sobel window, every
BlackScholes option) re-run identical straight-line traces; the trace
cache records each trace once and replays the rest as vectorized forward
sweeps (:mod:`repro.scorpio.trace_cache`).  These benchmarks time the
replayed path against the object pipeline on the same inputs, assert the
results are bit-identical, and record the headline speedups to
``BENCH_core.json`` via :mod:`record`.
"""

import time

import numpy as np
from record import record_value

from repro.scorpio import TraceCache
from repro.scorpio.serialize import report_to_json

DCT_BLOCKS = 6
BS_OPTIONS = 64
SOBEL_HW = 24


def _timed(fn):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_dct_replay_speedup(benchmark):
    """Replaying the shared DCT trace >= 6x over re-recording per block."""
    from repro.kernels.dct.analysis import analyse_dct_block

    rng = np.random.default_rng(11)
    blocks = [rng.uniform(0.0, 255.0, (8, 8)) for _ in range(DCT_BLOCKS)]

    cache = TraceCache()
    # Record the trace (and warm both paths) outside the measurements.
    analyse_dct_block(blocks[0], cache=cache)
    analyse_dct_block(blocks[0])

    t_obj, obj = _timed(lambda: [analyse_dct_block(b) for b in blocks])
    t_rep = min(
        _timed(lambda: [analyse_dct_block(b, cache=cache) for b in blocks])[0]
        for _ in range(3)
    )
    rep = [analyse_dct_block(b, cache=cache) for b in blocks]

    for m_obj, m_rep in zip(obj, rep):
        assert np.array_equal(m_obj, m_rep)
    assert cache.stats()["divergences"] == 0

    benchmark.pedantic(
        analyse_dct_block,
        args=(blocks[0],),
        kwargs={"cache": cache},
        rounds=3,
        iterations=1,
    )

    speedup = t_obj / t_rep
    benchmark.extra_info["record_seconds"] = round(t_obj, 3)
    benchmark.extra_info["replay_seconds"] = round(t_rep, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    record_value(
        "analysis.dct_replay_speedup", speedup, unit="x", blocks=DCT_BLOCKS
    )
    assert speedup >= 6.0, (
        f"DCT replay only {speedup:.1f}x faster "
        f"({t_obj:.3f}s record vs {t_rep:.3f}s replay)"
    )


def test_blackscholes_replay_speedup(benchmark):
    """One lane-replayed sweep across the sampled options vs recording a
    scalar tape per option (the trace is ~40 nodes, so the win comes from
    batching every option into one vectorized forward + adjoint)."""
    from repro.kernels.blackscholes.analysis import analyse_blackscholes

    kwargs = {"samples": BS_OPTIONS, "seed": 2}
    # Warm both paths.
    analyse_blackscholes(replay=True, **kwargs)
    analyse_blackscholes(replay=False, **kwargs)

    t_obj = min(
        _timed(lambda: analyse_blackscholes(replay=False, **kwargs))[0]
        for _ in range(3)
    )
    obj = analyse_blackscholes(replay=False, **kwargs)

    t_rep = min(
        _timed(lambda: analyse_blackscholes(replay=True, **kwargs))[0]
        for _ in range(3)
    )
    rep = analyse_blackscholes(replay=True, **kwargs)

    assert rep.per_option == obj.per_option
    assert rep.block_significance == obj.block_significance

    benchmark.pedantic(
        analyse_blackscholes,
        kwargs={"replay": True, **kwargs},
        rounds=3,
        iterations=1,
    )

    speedup = t_obj / t_rep
    benchmark.extra_info["record_seconds"] = round(t_obj, 3)
    benchmark.extra_info["replay_seconds"] = round(t_rep, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    record_value(
        "analysis.blackscholes_replay_speedup",
        speedup,
        unit="x",
        options=BS_OPTIONS,
    )
    assert speedup >= 2.0, (
        f"BlackScholes replay only {speedup:.1f}x faster "
        f"({t_obj:.3f}s record vs {t_rep:.3f}s replay)"
    )


def test_sobel_map_replay_speedup(benchmark):
    """Whole-image maps: one replayed trace vs one recording per pixel.

    The per-pixel scalar loop is the bitwise reference for the replay.
    """
    from repro.kernels.sobel.analysis import (
        analyse_sobel_map,
        analyse_sobel_pixel,
    )

    rng = np.random.default_rng(5)
    image = rng.uniform(0.0, 255.0, (SOBEL_HW, SOBEL_HW))

    # Warm both paths.
    analyse_sobel_map(image[:4, :4])
    analyse_sobel_pixel(image[:3, :3])

    def scalar_maps():
        padded = np.pad(image, 1, mode="edge")
        h, w = image.shape
        maps = {key: np.empty((h, w)) for key in ("A", "B", "C")}
        for y in range(h):
            for x in range(w):
                sigs = analyse_sobel_pixel(padded[y : y + 3, x : x + 3])
                for key in maps:
                    maps[key][y, x] = sigs[key]
        return maps

    t_obj, recorded = _timed(scalar_maps)
    t_rep = min(_timed(lambda: analyse_sobel_map(image))[0] for _ in range(3))
    replayed = analyse_sobel_map(image)

    for key in ("A", "B", "C"):
        assert recorded[key].tobytes() == replayed[key].tobytes()

    benchmark.pedantic(
        analyse_sobel_map, args=(image,), rounds=3, iterations=1
    )

    speedup = t_obj / t_rep
    benchmark.extra_info["scalar_record_seconds"] = round(t_obj, 3)
    benchmark.extra_info["replay_seconds"] = round(t_rep, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    record_value(
        "analysis.sobel_map_replay_speedup",
        speedup,
        unit="x",
        pixels=SOBEL_HW * SOBEL_HW,
    )
    assert speedup >= 20.0, (
        f"sobel map replay only {speedup:.1f}x faster "
        f"({t_obj:.3f}s scalar record vs {t_rep:.3f}s replay)"
    )


def test_replay_report_byte_identity():
    """Replayed kernel reports serialize byte-for-byte like recorded ones.

    Not a timing benchmark — the acceptance gate for the replay engine on
    real kernel traces, kept next to the speedup numbers it justifies.
    """
    from repro.kernels.dct.analysis import _record_dct_block
    from repro.intervals import Interval

    rng = np.random.default_rng(3)
    cache = TraceCache(validate=True)
    for _ in range(3):
        block = rng.uniform(0.0, 255.0, (8, 8))
        ivs = [Interval.centered(float(v), 0.5) for v in block.ravel()]
        rep = cache.analyse(("dct",), _record_dct_block, ivs, simplify=False)
        ref = _record_dct_block(ivs).analyse(simplify=False, compiled=True)
        assert report_to_json(rep) == report_to_json(ref)
