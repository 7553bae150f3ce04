"""Shared-memory arrays and frozen tapes: lifecycle, pickling, cleanup."""

import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.intervals import Interval
from repro.mp import SharedArray, SharedTape, live_segments
from repro.scorpio import CachedTrace


def make_trace():
    from repro.kernels.blackscholes.analysis import _record_option

    ivs = [
        Interval.centered(p, 0.02 * p)
        for p in (100.0, 105.0, 0.03, 0.25, 1.0)
    ]
    return CachedTrace(_record_option(ivs), simplify=False)


class TestSharedArray:
    def test_roundtrip_bitwise(self):
        data = np.random.default_rng(0).normal(size=(7, 13))
        with SharedArray.create(data) as handle:
            view = handle.view()
            assert view.tobytes() == data.tobytes()
            assert view.shape == data.shape
            assert view.dtype == data.dtype

    def test_readonly_view(self):
        with SharedArray.create(np.zeros(4)) as handle:
            view = handle.view()
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_writable_empty_buffer(self):
        with SharedArray.empty((3, 5)) as handle:
            handle.view()[:] = 7.0
            assert np.all(handle.copy() == 7.0)

    def test_pickle_reattaches_same_segment(self):
        data = np.arange(12, dtype=np.float64)
        with SharedArray.create(data) as handle:
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.name == handle.name
            assert clone.view().tobytes() == data.tobytes()
            clone.close()

    def test_copy_survives_close(self):
        handle = SharedArray.create(np.ones(5))
        copy = handle.copy()
        handle.close()
        assert np.all(copy == 1.0)

    def test_close_unlinks_owned_segment(self):
        handle = SharedArray.create(np.ones(3))
        name = handle.name
        assert name in live_segments()
        handle.close()
        assert name not in live_segments()


class TestSharedTape:
    def test_freeze_attach_bitwise(self):
        trace = make_trace()
        ct = trace.ct
        rng = np.random.default_rng(1)
        L = 32
        centre = np.array([100.0, 105.0, 0.03, 0.25, 1.0])[:, None]
        jitter = 1.0 + 0.01 * rng.normal(size=(5, L))
        lo = centre * jitter * 0.98
        hi = centre * jitter * 1.02
        want = ct.forward_lanes(lo, hi)
        with SharedTape.freeze(ct) as shared:
            attached = shared.attach()
            got = attached.forward_lanes(lo, hi)
            assert got.value_lo.tobytes() == want.value_lo.tobytes()
            assert got.value_hi.tobytes() == want.value_hi.tobytes()
            a_want = want.adjoint({trace.output_ids[0]: 1.0})
            a_got = got.adjoint({trace.output_ids[0]: 1.0})
            assert a_got[0].tobytes() == a_want[0].tobytes()
            assert a_got[1].tobytes() == a_want[1].tobytes()

    def test_attached_tape_replays_one_input(self):
        """An attached tape's columns are read-only views, and that is
        all a one-input replay needs."""
        trace = make_trace()
        ivs = [
            Interval.centered(p, 0.02 * p)
            for p in (98.0, 101.0, 0.04, 0.2, 0.5)
        ]
        want = trace.ct.forward(ivs)
        with SharedTape.freeze(trace.ct) as shared:
            got = shared.attach().forward(ivs)
            for col in ("value_lo", "value_hi", "partial_lo", "partial_hi"):
                assert (
                    getattr(got, col).tobytes() == getattr(want, col).tobytes()
                )
            out = {trace.output_ids[0]: 1.0}
            for a, b in zip(got.adjoint(out), want.adjoint(out)):
                assert a.tobytes() == b.tobytes()

    def test_pickle_ships_handles_not_arrays(self):
        trace = make_trace()
        with SharedTape.freeze(trace.ct) as shared:
            blob = pickle.dumps(shared)
            # The frozen tape travels by segment name, not by value: the
            # pickle must stay far below the raw column payload.
            payload = sum(a.view().nbytes for a in shared.arrays.values())
            assert len(blob) < max(2048, payload)
            clone = pickle.loads(blob)
            assert clone.arrays["opcodes"].name == shared.arrays["opcodes"].name
            clone.close()

    def test_close_releases_all_segments(self):
        trace = make_trace()
        shared = SharedTape.freeze(trace.ct)
        assert live_segments()
        shared.close()
        assert live_segments() == []

    def test_meta_passthrough(self):
        trace = make_trace()
        with SharedTape.freeze(trace.ct, flavour="test") as shared:
            assert shared.meta["flavour"] == "test"


class TestCachedTraceShare:
    def test_share_carries_trace_identity(self):
        trace = make_trace()
        with trace.share() as shared:
            assert tuple(shared.meta["output_ids"]) == tuple(trace.output_ids)
            assert tuple(shared.meta["input_ids"]) == tuple(trace.input_ids)

    def test_cached_trace_pickle_refuses(self):
        trace = make_trace()
        with pytest.raises(TypeError, match="share"):
            pickle.dumps(trace)

    def test_trace_cache_pickle_refuses(self):
        from repro.scorpio import TraceCache

        with pytest.raises(TypeError):
            pickle.dumps(TraceCache())


class TestInterpreterExitCleanup:
    def test_atexit_unlinks_leaked_segments(self):
        """A process that exits without closing its segments must still
        unlink them (the atexit hook), so nothing leaks into /dev/shm."""
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "import numpy as np;"
            "from repro.mp import SharedArray;"
            "h = SharedArray.create(np.ones(64));"
            "print(h.name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd="/root/repo",
        )
        name = out.stdout.strip()
        assert name
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_unlink_all_is_idempotent(self):
        from repro.mp import unlink_all

        SharedArray.create(np.ones(3))
        unlink_all()
        unlink_all()
        assert live_segments() == []
