"""Persistent tape store (:mod:`repro.scorpio.tape_store`).

The store's contract: a save→load round-trip yields a trace whose
replays are *bitwise identical* to the live trace's — same reports byte
for byte, same guard divergences — and every failure mode (missing,
version-mismatched, truncated, corrupt files) degrades to an ordinary
cache miss, never an exception.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ad import intrinsics as op
from repro.ad.replay import GuardDivergenceError
from repro.intervals import AmbiguousComparisonError, Interval
from repro.scorpio import Analysis, CachedTrace, TapeStore, TraceCache
from repro.scorpio.serialize import report_to_json
from repro.scorpio.tape_store import STORE_VERSION, store_key_digest


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


def _record_clip(ivs) -> Analysis:
    # clip carries an aux payload; constants fold aux too — both must
    # survive serialization.
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        an.output(op.clip(x * 2.0 + y, 0.25, 3.5), name="out")
    return an


def _ivs(cx, cy, r=0.1):
    return [Interval.centered(cx, r), Interval.centered(cy, r)]


KEY = ("poly",)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "recorder", [_record_poly, _record_branchy, _record_clip]
    )
    @pytest.mark.parametrize("simplify", [True, False])
    def test_replays_bitwise_identical(self, tmp_path, recorder, simplify):
        live = CachedTrace(recorder(_ivs(0.7, 1.2)), simplify=simplify)
        store = TapeStore(tmp_path)
        assert store.save(KEY, live)
        loaded = store.load(KEY)
        assert loaded is not None
        assert loaded.op_hash == live.op_hash
        assert loaded.input_ids == live.input_ids
        assert loaded.output_ids == live.output_ids
        rng = np.random.default_rng(11)
        for _ in range(4):
            # x strictly below y so the branchy kernel's recorded x < y
            # guard stays decidable (and taken) on every replay.
            ivs = _ivs(rng.uniform(0.3, 0.7), rng.uniform(1.1, 1.5))
            assert report_to_json(loaded.analyse(ivs)) == report_to_json(
                live.analyse(ivs)
            )

    @settings(max_examples=20, deadline=None)
    @given(
        cx=st.floats(0.2, 2.0),
        cy=st.floats(0.2, 2.0),
        r=st.floats(0.01, 0.3),
    )
    def test_forward_bitwise_identical_property(self, cx, cy, r):
        import tempfile

        live = CachedTrace(_record_poly(_ivs(0.7, 1.2)), simplify=False)
        with tempfile.TemporaryDirectory() as root:
            store = TapeStore(root)
            store.save(KEY, live)
            loaded = store.load(KEY)
            ivs = [Interval.centered(cx, r), Interval.centered(cy, r)]
            live_lanes = live.ct.forward(ivs)
            loaded_lanes = loaded.ct.forward(ivs)
            for col in ("value_lo", "value_hi"):
                a = getattr(live_lanes, col)
                b = getattr(loaded_lanes, col)
                assert np.array_equal(a, b), col  # bitwise: same floats

    def test_save_after_replays_writes_the_recording(self, tmp_path):
        """Replays never write the tape, so a save after them writes the
        bytes a save before any replay wrote."""
        live = CachedTrace(_record_poly(_ivs(0.7, 1.2)))
        before, after = TapeStore(tmp_path / "a"), TapeStore(tmp_path / "b")
        assert before.save(KEY, live)
        live.ct.forward(_ivs(1.5, 0.3))
        live.analyse(_ivs(0.4, 1.9))
        live.analyse_batch([_ivs(0.9, 0.9), _ivs(1.1, 0.6)])
        assert after.save(KEY, live)
        for a, b in zip(before.paths_for(KEY), after.paths_for(KEY)):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()

    def test_loaded_columns_are_read_only_and_replay(self, tmp_path):
        live = CachedTrace(_record_poly(_ivs(0.7, 1.2)))
        store = TapeStore(tmp_path)
        store.save(KEY, live)
        loaded = store.load(KEY)
        for col in (
            "opcodes", "value_is_interval", "row_ptr", "parent_idx",
            "depth", "value_lo", "value_hi", "partial_lo", "partial_hi",
        ):
            assert not getattr(loaded.ct, col).flags.writeable, col
        ivs = _ivs(0.45, 1.3)
        got, want = loaded.ct.forward(ivs), live.ct.forward(ivs)
        for col in ("value_lo", "value_hi", "partial_lo", "partial_hi"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
        assert report_to_json(loaded.analyse(ivs)) == report_to_json(
            live.analyse(ivs)
        )

    def test_guard_divergence_still_raises(self, tmp_path):
        live = CachedTrace(_record_branchy(_ivs(0.5, 1.5)))  # x < y taken
        store = TapeStore(tmp_path)
        store.save(KEY, live)
        loaded = store.load(KEY)
        # Same branch replays fine; the flipped branch must still trip
        # the deserialized guard.
        loaded.analyse(_ivs(0.6, 1.4))
        with pytest.raises(GuardDivergenceError):
            loaded.analyse(_ivs(1.8, 0.4))


class TestFailureModes:
    def test_missing_is_a_miss(self, tmp_path):
        assert TapeStore(tmp_path).load(KEY) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, _ = store.paths_for(KEY)
        header = json.loads(open(header_path).read())
        header["store_version"] = STORE_VERSION + 1
        with open(header_path, "w") as f:
            json.dump(header, f)
        assert store.load(KEY) is None

    def test_truncated_blob_is_a_miss(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        _, blob_path = store.paths_for(KEY)
        with open(blob_path, "r+b") as f:
            f.truncate(os.path.getsize(blob_path) // 2)
        assert store.load(KEY) is None

    def test_corrupt_structure_rejected_by_hash(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, blob_path = store.paths_for(KEY)
        spec = json.loads(open(header_path).read())["arrays"]["opcodes"]
        with open(blob_path, "r+b") as f:
            f.seek(spec["offset"])
            f.write(b"\xff" * 4)  # scribble on the opcode column
        assert store.load(KEY) is None

    def test_corrupt_header_is_soft(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, _ = store.paths_for(KEY)
        with open(header_path, "w") as f:
            f.write("{not json")
        assert store.load(KEY) is None

    def test_digest_is_stable_and_filenamesafe(self):
        d = store_key_digest(("sobel",))
        assert d == store_key_digest(("sobel",))
        assert d != store_key_digest(("dct",))
        assert d.isalnum()


class TestTraceCacheIntegration:
    def test_restart_serves_first_request_as_replay(self, tmp_path):
        ivs = _ivs(0.7, 1.2)
        warm = TraceCache(store_dir=tmp_path)
        report, outcome = warm.analyse_outcome(KEY, _record_poly, ivs)
        assert outcome == "record"
        expect = report_to_json(report)

        # "Restart": a brand-new cache over the same store directory.
        cold = TraceCache(store_dir=tmp_path)
        report, outcome = cold.analyse_outcome(KEY, _record_poly, ivs)
        assert outcome == "replay"
        assert report_to_json(report) == expect
        assert cold.stats()["records"] == 0

    def test_store_errors_fall_back_to_recording(self, tmp_path):
        # A store rooted at a *file* path cannot write; analysis must
        # still succeed as plain record.
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = TraceCache(store_dir=blocker / "sub")
        report, outcome = cache.analyse_outcome(KEY, _record_poly, _ivs(0.7, 1.2))
        assert outcome == "record"
        assert report is not None

    def test_no_store_dir_means_no_store(self):
        assert TraceCache().store is None


class TestBatchOutcome:
    def test_batch_matches_scalar_byte_for_byte(self):
        rng = np.random.default_rng(5)
        batches = [
            _ivs(rng.uniform(0.4, 1.4), rng.uniform(0.6, 1.6))
            for _ in range(5)
        ]
        scalar = TraceCache()
        expect = [
            report_to_json(
                scalar.analyse_outcome(KEY, _record_poly, ivs)[0]
            )
            for ivs in batches
        ]
        batched = TraceCache()
        outs = batched.analyse_batch_outcome(KEY, _record_poly, batches)
        assert [o for _, o in outs] == ["record"] + ["replay"] * 4
        assert [report_to_json(r) for r, _ in outs] == expect
        # All four warm lanes shared one sweep.
        assert batched.stats()["replays"] == 4

    def test_divergent_lane_falls_back_per_item(self):
        cache = TraceCache()
        cache.analyse_outcome(KEY, _record_branchy, _ivs(0.5, 1.5))
        outs = cache.analyse_batch_outcome(
            KEY,
            _record_branchy,
            [_ivs(0.6, 1.4), _ivs(1.8, 0.4), _ivs(0.4, 1.6)],
        )
        assert [o for _, o in outs] == ["replay", "divergence", "replay"]
        for (report, _), ivs in zip(
            outs, [_ivs(0.6, 1.4), _ivs(1.8, 0.4), _ivs(0.4, 1.6)]
        ):
            ref = _record_branchy(ivs).analyse(compiled=True)
            assert report_to_json(report) == report_to_json(ref)

    def test_ambiguous_lane_ends_as_its_own_call(self):
        cache = TraceCache()
        cache.analyse_outcome(KEY, _record_branchy, _ivs(0.5, 1.5))
        ambiguous = [Interval(0.0, 4.0), Interval(2.0, 3.0)]
        with pytest.raises(AmbiguousComparisonError) as alone:
            cache.analyse_outcome(KEY, _record_branchy, ambiguous)
        with pytest.raises(AmbiguousComparisonError) as batched:
            cache.analyse_batch_outcome(
                KEY, _record_branchy, [_ivs(0.6, 1.4), ambiguous]
            )
        assert str(batched.value) == str(alone.value)

    def test_empty_and_single(self):
        cache = TraceCache()
        assert cache.analyse_batch_outcome(KEY, _record_poly, []) == []
        outs = cache.analyse_batch_outcome(
            KEY, _record_poly, [_ivs(0.7, 1.2)]
        )
        assert len(outs) == 1 and outs[0][1] == "record"
