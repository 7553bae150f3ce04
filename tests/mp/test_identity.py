"""Bitwise identity of process-parallel sweeps on all five paper kernels.

The contract under test: fanning a lane sweep out over worker processes
(shared frozen tape, chunked lanes) returns exactly the bytes of the
sequential full-batch replay — for every kernel, every chunking, every
worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import Interval, rounding
from repro.mp import lane_chunks, live_segments, parallel_lane_significances
from repro.scorpio import Analysis, CachedTrace


def _record_dct_pixel(ivs):
    """Single-output variant of the DCT round-trip recorder: the full
    8x8 DCT -> quantise -> dequantise -> IDCT graph, analysed against
    one reconstructed pixel (the lane sweep seeds exactly one output)."""
    from repro.kernels.dct.sequential import (
        BLOCK,
        dct_block,
        dequantise_block,
        idct_block,
        quantise_block,
    )

    an = Analysis()
    with an:
        it = iter(ivs)
        pixels = [
            [an.input(next(it), name=f"p_{y}_{x}") for x in range(BLOCK)]
            for y in range(BLOCK)
        ]
        coeffs = dct_block(pixels)
        reconstructed = idct_block(dequantise_block(quantise_block(coeffs)))
        an.output(reconstructed[4][4], name="out_4_4")
    return an


def _record_nbody_fx(ivs):
    """Single-output (fx) variant of the served n-body recorder — the
    lane sweep seeds exactly one output, so the shared trace must too."""
    from repro.kernels.nbody import lj_pair_force

    an = Analysis()
    with an:
        it = iter(ivs)
        taped = [
            [an.input(next(it), name=f"atom{i}_{axis}") for axis in "xyz"]
            for i in range(1, 4)
        ]
        fx = None
        for sx, sy, sz in taped:
            dfx, _dfy, _dfz = lj_pair_force(0.0 - sx, 0.0 - sy, 0.0 - sz)
            fx = dfx if fx is None else fx + dfx
        an.output(fx, name="fx")
    return an


def _kernel_case(name):
    """(recorder, default intervals) for one kernel's replayable trace."""
    from repro.serve import kernels as sk

    if name == "nbody":
        return _record_nbody_fx, sk._nbody_defaults()
    if name == "dct":
        return _record_dct_pixel, sk._dct_defaults()
    registry = sk.default_registry()
    entry = registry[name]
    return entry.recorder, entry.defaults()


def _lane_bounds(ivs, L, seed):
    """Jitter the default intervals into (n_inputs, L) lane bounds.

    Centres move by up to 20% of each input's own width (small enough
    that every recorded guard keeps its outcome); widths are preserved.
    """
    rng = np.random.default_rng(seed)
    centre = np.array([(iv.lo + iv.hi) / 2.0 for iv in ivs])[:, None]
    radius = np.array([(iv.hi - iv.lo) / 2.0 for iv in ivs])[:, None]
    scale = np.where(radius > 0, radius, 0.01)
    jitter = scale * rng.uniform(-0.2, 0.2, size=(len(ivs), L))
    return centre + jitter - radius, centre + jitter + radius


KERNELS = ["dct", "sobel", "blackscholes", "fisheye", "nbody"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_process_sweep_bitwise_identical(kernel):
    recorder, ivs = _kernel_case(kernel)
    trace = CachedTrace(recorder(ivs), simplify=False)
    lo, hi = _lane_bounds(ivs, L=300, seed=7)
    sequential = trace.lane_significances(trace.forward_lanes(lo, hi))
    parallel = parallel_lane_significances(
        trace, lo, hi, workers=2, min_parallel_lanes=1
    )
    assert parallel.tobytes() == sequential.tobytes()
    assert live_segments() == []


def test_small_batches_skip_the_pool():
    recorder, ivs = _kernel_case("blackscholes")
    trace = CachedTrace(recorder(ivs), simplify=False)
    lo, hi = _lane_bounds(ivs, L=16, seed=3)
    sequential = trace.lane_significances(trace.forward_lanes(lo, hi))
    # Below min_parallel_lanes the driver must not freeze a tape or
    # spawn anything — and must still return identical bytes.
    parallel = parallel_lane_significances(
        trace, lo, hi, workers=4, min_parallel_lanes=256
    )
    assert parallel.tobytes() == sequential.tobytes()
    assert live_segments() == []


def test_single_worker_skips_the_pool():
    recorder, ivs = _kernel_case("sobel")
    trace = CachedTrace(recorder(ivs), simplify=False)
    lo, hi = _lane_bounds(ivs, L=400, seed=4)
    sequential = trace.lane_significances(trace.forward_lanes(lo, hi))
    parallel = parallel_lane_significances(
        trace, lo, hi, workers=1, min_parallel_lanes=1
    )
    assert parallel.tobytes() == sequential.tobytes()


def test_multi_output_trace_rejected():
    from repro.ad.replay import ReplayError
    from repro.serve.kernels import _nbody_defaults, _record_nbody

    trace = CachedTrace(_record_nbody(_nbody_defaults()), simplify=False)
    lo, hi = _lane_bounds(_nbody_defaults(), L=8, seed=1)
    with pytest.raises(ReplayError):
        parallel_lane_significances(trace, lo, hi, workers=2)


def test_shape_mismatch_rejected():
    recorder, ivs = _kernel_case("sobel")
    trace = CachedTrace(recorder(ivs), simplify=False)
    with pytest.raises(ValueError):
        parallel_lane_significances(
            trace, np.zeros((9, 4)), np.zeros((9, 5)), workers=2
        )


# ----------------------------------------------------------------------
# Entry-point identity: the wired analyse_* knobs
# ----------------------------------------------------------------------
class TestWiredEntryPoints:
    def test_blackscholes_replay(self):
        from repro.kernels.blackscholes.analysis import _replay_options

        params = np.array(
            [
                (100.0 + 0.4 * i, 105.0, 0.03, 0.2 + 0.0005 * i, 1.0)
                for i in range(280)
            ]
        ).T
        seq = _replay_options(params)
        par = _replay_options(params, executor="process", workers=2)
        assert seq.shape == (4, 280)
        assert par.tobytes() == seq.tobytes()

    def test_sobel_map(self):
        from repro.images import natural_image
        from repro.kernels.sobel.analysis import analyse_sobel_map

        image = natural_image(20, 24, seed=5)
        seq = analyse_sobel_map(image)
        par = analyse_sobel_map(image, executor="process", workers=2)
        for key in ("A", "B", "C"):
            assert par[key].tobytes() == seq[key].tobytes()

    def test_sobel_scan_map(self):
        from repro.images import natural_image
        from repro.kernels.sobel.analysis import analyse_sobel_scan_map

        image = natural_image(18, 22, seed=9)
        seq = analyse_sobel_scan_map(image)
        par = analyse_sobel_scan_map(image, executor="process", workers=2)
        for key in ("A", "B", "C"):
            assert par[key].tobytes() == seq[key].tobytes()
        assert np.array_equal(
            par["scan"].found_level, seq["scan"].found_level
        )

    def test_fisheye_coordinate_map(self):
        from repro.images import radial_scene
        from repro.kernels.fisheye import (
            coordinate_significance_map,
            default_config,
            make_fisheye_input,
        )

        config = default_config(64, 48)
        image = make_fisheye_input(radial_scene(64, 48, seed=11), config)
        rng = np.random.default_rng(2)
        xs = rng.uniform(2, 61, size=300)
        ys = rng.uniform(2, 45, size=300)
        seq = coordinate_significance_map(config, image, xs, ys)
        par = coordinate_significance_map(
            config, image, xs, ys, executor="process", workers=2
        )
        assert par.tobytes() == seq.tobytes()

    def test_segments_cleaned_after_entry_points(self):
        assert live_segments() == []


# ----------------------------------------------------------------------
# Row selection: Eq. 11 on the rows a caller reads
# ----------------------------------------------------------------------
ROW_KERNELS = ["sobel", "blackscholes", "fisheye", "dct"]
_ROW_TRACES = {}


def _row_case(data, kernel):
    """A kernel's trace, hypothesis-drawn lane bounds and a drawn row
    list (any order, repeats allowed)."""
    if kernel not in _ROW_TRACES:
        recorder, ivs = _kernel_case(kernel)
        _ROW_TRACES[kernel] = (
            CachedTrace(recorder(ivs), simplify=False),
            ivs,
        )
    trace, ivs = _ROW_TRACES[kernel]
    lanes = data.draw(st.integers(min_value=1, max_value=40), label="lanes")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    lo, hi = _lane_bounds(ivs, L=lanes, seed=seed)
    rows = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=trace.ct.n - 1),
            max_size=12,
        ),
        label="rows",
    )
    return trace, lo, hi, rows


@pytest.fixture(scope="module")
def pool():
    from repro.mp import ProcessExecutor

    with ProcessExecutor(max_workers=2) as ex:
        yield ex


@pytest.mark.parametrize("kernel", ROW_KERNELS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_requested_rows_are_full_matrix_rows(kernel, data):
    trace, lo, hi, rows = _row_case(data, kernel)
    lanes = trace.forward_lanes(lo, hi)
    full = trace.lane_significances(lanes)
    got = trace.lane_significances(lanes, rows=rows)
    assert got.shape == (len(rows), lo.shape[1])
    assert got.tobytes() == full[rows].tobytes()
    # These 1-40 lanes round below the gate, through np.nextafter; with
    # the gate at 0 every array rounding takes the integer step, and the
    # matrix and its rows keep their bits.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounding, "INT_STEP_MIN_SIZE", 0)
        lanes = trace.forward_lanes(lo, hi)
        stepped = trace.lane_significances(lanes)
        got = trace.lane_significances(lanes, rows=rows)
    assert stepped.tobytes() == full.tobytes()
    assert got.tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("kernel", ROW_KERNELS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_process_rows_are_full_matrix_rows(kernel, data, pool):
    trace, lo, hi, rows = _row_case(data, kernel)
    full = trace.lane_significances(trace.forward_lanes(lo, hi))
    parallel = parallel_lane_significances(
        trace,
        lo,
        hi,
        rows=rows,
        workers=2,
        min_parallel_lanes=1,
        executor=pool,
    )
    assert parallel.shape == (len(rows), lo.shape[1])
    assert parallel.tobytes() == full[rows].tobytes()
    assert live_segments() == []


# ----------------------------------------------------------------------
# Chunk-invariance: scheduling never affects bits
# ----------------------------------------------------------------------
_CASE = {}


def _bs_case():
    if not _CASE:
        recorder, ivs = _kernel_case("blackscholes")
        trace = CachedTrace(recorder(ivs), simplify=False)
        lo, hi = _lane_bounds(ivs, L=120, seed=11)
        full = trace.lane_significances(trace.forward_lanes(lo, hi))
        _CASE["value"] = (trace, lo, hi, full)
    return _CASE["value"]


class TestLaneChunks:
    def test_exact_cover(self):
        chunks = lane_chunks(100, 4)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 100
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start

    def test_alignment(self):
        chunks = lane_chunks(100, 3, align=10)
        for start, stop in chunks[:-1]:
            assert (stop - start) % 10 == 0

    def test_empty(self):
        assert lane_chunks(0, 4) == []

    def test_explicit_chunk_size(self):
        assert lane_chunks(10, 2, chunk_lanes=4) == [(0, 4), (4, 8), (8, 10)]


class TestChunkPolicy:
    def test_default_targets_four_chunks_per_worker(self):
        from repro.mp import default_chunk_lanes

        # 4096 lanes / 4 workers -> 16 chunks of 256.
        assert default_chunk_lanes(4096, 4) == 256
        chunks = lane_chunks(4096, 4)
        assert len(chunks) == 16

    def test_default_floors_at_min_chunk(self):
        from repro.mp import default_chunk_lanes
        from repro.mp.drivers import MIN_CHUNK_LANES

        # 4-chunks-per-worker would want 300/16 ~ 19-lane chunks; the
        # floor keeps per-task overhead bounded instead.
        assert default_chunk_lanes(300, 4) == MIN_CHUNK_LANES

    def test_tiny_batches_still_spread_across_workers(self):
        from repro.mp import default_chunk_lanes

        # 8 lanes, 4 workers: the MIN_CHUNK floor must not serialise
        # everything onto one worker.
        assert default_chunk_lanes(8, 4) == 2
        assert len(lane_chunks(8, 4)) == 4

    def test_env_override(self, monkeypatch):
        from repro.mp import default_chunk_lanes

        monkeypatch.setenv("REPRO_MP_CHUNK", "17")
        assert default_chunk_lanes(4096, 4) == 17
        assert lane_chunks(100, 4)[0] == (0, 17)

    def test_env_override_invalid_ignored(self, monkeypatch):
        from repro.mp import default_chunk_lanes

        for bad in ("zero", "-3", "0", ""):
            monkeypatch.setenv("REPRO_MP_CHUNK", bad)
            assert default_chunk_lanes(4096, 4) == 256

    def test_explicit_chunk_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CHUNK", "17")
        assert lane_chunks(10, 2, chunk_lanes=4) == [(0, 4), (4, 8), (8, 10)]


@given(
    chunk_lanes=st.integers(min_value=1, max_value=120),
    align=st.integers(min_value=1, max_value=16),
    workers=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_chunked_sweep_is_order_insensitive(chunk_lanes, align, workers):
    """Any partition of the lane axis replays to the full batch's bytes.

    This is the property that makes the process fan-out safe; it is
    checked here without processes (the chunks are computed in-process,
    in arbitrary order) so hypothesis can afford many schedules.
    """
    trace, lo, hi, full = _bs_case()
    L = lo.shape[1]
    chunks = lane_chunks(L, workers, chunk_lanes=chunk_lanes, align=align)
    assert chunks[0][0] == 0 and chunks[-1][1] == L
    got = np.empty_like(full)
    # Deterministically shuffled completion order: chunk results may
    # land in any order without changing the assembled bytes.
    order = sorted(range(len(chunks)), key=lambda i: (i * 7919) % len(chunks))
    for idx in order:
        start, stop = chunks[idx]
        sig = trace.lane_significances(
            trace.forward_lanes(lo[:, start:stop], hi[:, start:stop])
        )
        got[:, start:stop] = sig
    assert got.tobytes() == full.tobytes()
