"""Record-or-replay trace cache (:mod:`repro.scorpio.trace_cache`).

The cache's contract is *bit-identity*: an analysis served from a cached
trace must serialize byte-for-byte equal to re-recording the kernel on
the same inputs.  The tests drive small kernels through
:class:`CachedTrace` / :class:`TraceCache` and compare
:func:`report_to_json` output against the direct ``Analysis`` path, then
exercise every fallback: branch divergence, unreplayable structure and
the ``validate=True`` re-record check.
"""

import numpy as np
import pytest

from repro.ad import intrinsics as op
from repro.intervals import Interval
from repro.scorpio import (
    Analysis,
    CachedTrace,
    TraceCache,
    replay_enabled,
    set_replay_default,
)
from repro.ad.replay import ReplayError
from repro.scorpio.serialize import report_to_json
from repro.scorpio.trace_cache import TraceDivergenceError, op_sequence_hash


def _record_poly(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        t = an.intermediate(op.sin(x * y) + x, "t")
        an.output(t * t + y / 4.0, name="out")
    return an


def _record_branchy(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        z = x * y if x < y else x + y
        an.output(z, name="out")
    return an


def _ivs(cx, cy, r=0.1):
    return [Interval.centered(cx, r), Interval.centered(cy, r)]


def _direct(recorder, ivs, simplify=True):
    return recorder(ivs).analyse(simplify=simplify, compiled=True)


class TestCachedTrace:
    @pytest.mark.parametrize("simplify", [True, False])
    def test_reports_byte_identical_to_recording(self, simplify):
        trace = CachedTrace(_record_poly(_ivs(0.7, 1.2)), simplify=simplify)
        rng = np.random.default_rng(7)
        for _ in range(4):
            ivs = _ivs(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            rep = trace.analyse(ivs)
            ref = _direct(_record_poly, ivs, simplify=simplify)
            assert report_to_json(rep) == report_to_json(ref)
        assert trace.replays == 4

    def test_label_index(self):
        trace = CachedTrace(_record_poly(_ivs(0.7, 1.2)))
        assert trace.label_index("x") == 0
        assert trace.label_index("y") == 1
        with pytest.raises(KeyError):
            trace.label_index("nope")

    def test_lane_significances_match_scalar_replay(self):
        trace = CachedTrace(_record_poly(_ivs(0.7, 1.2)), simplify=False)
        rng = np.random.default_rng(3)
        centres = rng.uniform(0.2, 2.0, (2, 5))
        lanes = trace.forward_lanes(centres - 0.1, centres + 0.1)
        sig = trace.lane_significances(lanes)
        for j in range(centres.shape[1]):
            ref = trace.analyse(
                _ivs(centres[0, j], centres[1, j])
            ).labelled_significances()
            for name in ("x", "y", "t"):
                assert sig[trace.label_index(name), j] == ref[name]

    def test_lane_report_byte_identical(self):
        trace = CachedTrace(_record_poly(_ivs(0.7, 1.2)), simplify=False)
        centres = np.array([[0.5, 1.5], [1.0, 0.4]])
        lanes = trace.forward_lanes(centres - 0.05, centres + 0.05)
        for j in range(2):
            rep = trace.lane_report(lanes, j)
            ref = _direct(
                _record_poly,
                _ivs(centres[0, j], centres[1, j], r=0.05),
                simplify=False,
            )
            assert report_to_json(rep) == report_to_json(ref)

    def test_lane_significances_require_single_output(self):
        def two_outputs(ivs):
            an = Analysis()
            with an:
                x = an.input(ivs[0], name="x")
                y = an.input(ivs[1], name="y")
                an.output(x * y, name="p")
                an.output(x + y, name="s")
            return an

        trace = CachedTrace(two_outputs(_ivs(0.7, 1.2)))
        lanes = trace.forward_lanes(
            np.full((2, 3), 0.5), np.full((2, 3), 0.6)
        )
        with pytest.raises(ReplayError, match="single-output"):
            trace.lane_significances(lanes)


class TestTraceCache:
    def test_record_then_replay(self):
        cache = TraceCache()
        ivs_list = [_ivs(0.7, 1.2), _ivs(0.3, 0.9), _ivs(1.4, 0.5)]
        reports = [
            cache.analyse(("poly",), _record_poly, ivs) for ivs in ivs_list
        ]
        stats = cache.stats()
        assert stats == {
            "records": 1,
            "replays": 2,
            "divergences": 0,
            "validations": 0,
            "traces": 1,
        }
        for ivs, rep in zip(ivs_list, reports):
            ref = _direct(_record_poly, ivs)
            assert report_to_json(rep) == report_to_json(ref)

    def test_keys_are_independent(self):
        cache = TraceCache()
        cache.analyse(("a",), _record_poly, _ivs(0.7, 1.2))
        cache.analyse(("b",), _record_poly, _ivs(0.7, 1.2))
        assert cache.stats()["records"] == 2
        assert cache.stats()["traces"] == 2

    def test_divergent_branch_falls_back_to_recording(self):
        cache = TraceCache()
        same = _ivs(1.0, 3.0)  # records the x < y branch
        flipped = _ivs(5.0, 3.0)  # decides x < y the other way
        cache.analyse(("br",), _record_branchy, same)
        rep = cache.analyse(("br",), _record_branchy, flipped)
        assert report_to_json(rep) == report_to_json(
            _direct(_record_branchy, flipped)
        )
        stats = cache.stats()
        # The fallback recording counts as a divergence, not a record:
        # the causes are disjoint in stats().
        assert stats["divergences"] == 1
        assert stats["records"] == 1
        # The cached trace survives for inputs on the recorded branch.
        rep = cache.analyse(("br",), _record_branchy, _ivs(0.5, 2.0))
        assert cache.stats()["replays"] == 1
        assert report_to_json(rep) == report_to_json(
            _direct(_record_branchy, _ivs(0.5, 2.0))
        )

    def test_unreplayable_trace_records_forever(self):
        def tampered(ivs):
            an = _record_poly(ivs)
            an.tape.nodes[-1].op = "mystery"
            return an

        cache = TraceCache()
        for _ in range(3):
            cache.analyse(("bad",), tampered, _ivs(0.7, 1.2))
        stats = cache.stats()
        assert stats == {
            "records": 3,
            "replays": 0,
            "divergences": 0,
            "validations": 0,
            "traces": 0,
        }

    def test_validate_passes_straight_line_kernel(self):
        cache = TraceCache(validate=True)
        cache.analyse(("poly",), _record_poly, _ivs(0.7, 1.2))
        rep = cache.analyse(("poly",), _record_poly, _ivs(0.4, 0.8))
        assert report_to_json(rep) == report_to_json(
            _direct(_record_poly, _ivs(0.4, 0.8))
        )
        assert cache.stats()["replays"] == 1
        # The validate-mode re-record is counted on its own, apart from
        # plain misses and divergence fallbacks.
        assert cache.stats()["validations"] == 1
        assert cache.stats()["records"] == 1

    def test_validate_catches_unguarded_control_flow(self):
        calls = {"n": 0}

        def flaky(ivs):
            # Branches on Python state the tape never compares: the
            # straight-line assumption breaks without tripping a guard.
            calls["n"] += 1
            an = Analysis()
            with an:
                x = an.input(ivs[0], name="x")
                y = an.input(ivs[1], name="y")
                z = x * y if calls["n"] == 1 else x + y
                an.output(z, name="out")
            return an

        cache = TraceCache(validate=True)
        cache.analyse(("flaky",), flaky, _ivs(0.7, 1.2))
        with pytest.raises(TraceDivergenceError, match="op sequence"):
            cache.analyse(("flaky",), flaky, _ivs(0.4, 0.8))
        # The rejected trace is never replayed: the key records from now
        # on, giving what a fresh recording gives.
        report, outcome = cache.analyse_outcome(
            ("flaky",), flaky, _ivs(0.3, 0.9)
        )
        assert outcome == "record"
        assert not cache.has(("flaky",))
        assert report_to_json(report) == report_to_json(
            flaky(_ivs(0.3, 0.9)).analyse()
        )


class TestAnalyseOutcome:
    def test_outcomes_record_then_replay(self):
        cache = TraceCache()
        _, first = cache.analyse_outcome(("poly",), _record_poly, _ivs(0.7, 1.2))
        _, second = cache.analyse_outcome(("poly",), _record_poly, _ivs(0.3, 0.9))
        assert (first, second) == ("record", "replay")

    def test_outcome_divergence(self):
        cache = TraceCache()
        cache.analyse_outcome(("br",), _record_branchy, _ivs(1.0, 3.0))
        _, outcome = cache.analyse_outcome(("br",), _record_branchy, _ivs(5.0, 3.0))
        assert outcome == "divergence"


class TestConcurrency:
    def test_cold_race_records_once(self):
        """N threads race a cold key: one recording, the rest replay.

        Repeated over fresh caches because the recorder's first analysis
        and the racers' replays interleave differently every round; every
        thread must get the byte-identical report for its own inputs.
        """
        import sys
        import threading

        n = 8
        inputs = [_ivs(0.5 + seed / 100.0, 1.2) for seed in range(n)]
        expected = [
            report_to_json(_direct(_record_poly, ivs)) for ivs in inputs
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rounds = [self._cold_race_round(n, inputs) for _ in range(50)]
        finally:
            sys.setswitchinterval(switch)
        for cache, served in rounds:
            outcomes = [outcome for outcome, _ in served]
            assert outcomes.count("record") == 1
            assert outcomes.count("replay") == n - 1
            stats = cache.stats()
            assert stats["records"] == 1
            assert stats["replays"] == n - 1
            assert stats["traces"] == 1
            assert [body for _, body in served] == expected

    @staticmethod
    def _cold_race_round(n, inputs):
        """One race of ``n`` threads on a fresh cache's cold key; returns
        the cache and each thread's ``(outcome, report JSON)``."""
        import threading

        cache = TraceCache()
        barrier = threading.Barrier(n)
        served: list[tuple[str, str]] = [None] * n

        def worker(i: int) -> None:
            barrier.wait(timeout=30)
            report, outcome = cache.analyse_outcome(
                ("poly",), _record_poly, inputs[i]
            )
            served[i] = (outcome, report_to_json(report))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        return cache, served

    def test_threads_replay_byte_identical(self):
        import threading

        cache = TraceCache()
        cache.analyse(("poly",), _record_poly, _ivs(0.7, 1.2))
        inputs = [_ivs(0.4 + i / 50.0, 0.9) for i in range(6)]
        served: dict[int, str] = {}
        lock = threading.Lock()

        def worker(i: int) -> None:
            report = cache.analyse(("poly",), _record_poly, inputs[i])
            with lock:
                served[i] = report_to_json(report)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(inputs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i, ivs in enumerate(inputs):
            assert served[i] == report_to_json(_direct(_record_poly, ivs))
        assert cache.stats()["replays"] == len(inputs)


class TestOpSequenceHash:
    def test_same_code_same_hash_across_inputs(self):
        h1 = op_sequence_hash(_record_poly(_ivs(0.7, 1.2)).tape)
        h2 = op_sequence_hash(_record_poly(_ivs(2.0, 0.1)).tape)
        assert h1 == h2

    def test_divergent_branch_changes_hash(self):
        h1 = op_sequence_hash(_record_branchy(_ivs(1.0, 3.0)).tape)
        h2 = op_sequence_hash(_record_branchy(_ivs(5.0, 3.0)).tape)
        assert h1 != h2


class TestReplayDefault:
    def test_round_trip(self):
        initial = replay_enabled()
        try:
            previous = set_replay_default(False)
            assert previous == initial
            assert replay_enabled() is False
            assert replay_enabled(True) is True
            set_replay_default(True)
            assert replay_enabled() is True
            assert replay_enabled(False) is False
        finally:
            set_replay_default(initial)
