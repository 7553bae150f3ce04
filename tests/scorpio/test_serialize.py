"""Tests for JSON serialisation of analysis results."""

import json
import math

import pytest

from repro.ad.compiled import ReplayLanes
from repro.intervals import Interval
from repro.intervals.rounding import rounded_mode
from repro.kernels.maclaurin import analyse_maclaurin
from repro.scorpio import Analysis, TraceCache
from repro.scorpio.serialize import (
    _write_compiled,
    graph_from_dict,
    graph_to_dict,
    interval_to_json,
    report_to_dict,
    report_to_json,
)
from repro.serve import default_registry

KERNELS = ("dct", "sobel", "blackscholes", "fisheye", "nbody")


@pytest.fixture(scope="module")
def report():
    return analyse_maclaurin().report


class TestIntervalJson:
    def test_interval(self):
        assert interval_to_json(Interval(1, 2)) == {"lo": 1.0, "hi": 2.0}

    def test_scalars_pass_through(self):
        assert interval_to_json(3.5) == 3.5
        assert interval_to_json(None) is None

    def test_unknown_types_reprd(self):
        assert isinstance(interval_to_json(object()), str)


class TestGraphRoundtrip:
    def test_roundtrip_structure(self, report):
        data = graph_to_dict(report.simplified_graph)
        restored = graph_from_dict(data)
        assert len(restored) == len(report.simplified_graph)
        for node in report.simplified_graph:
            clone = restored[node.id]
            assert clone.op == node.op
            assert clone.label == node.label
            assert clone.parents == node.parents
            assert clone.significance == node.significance

    def test_levels_recomputed(self, report):
        restored = graph_from_dict(graph_to_dict(report.simplified_graph))
        for node in report.simplified_graph:
            assert restored[node.id].level == node.level

    def test_interval_values_restored(self, report):
        restored = graph_from_dict(graph_to_dict(report.raw_graph))
        original = report.raw_graph
        node = original.labelled("term1")[0]
        assert restored[node.id].value == node.value

    def test_json_serialisable(self, report):
        text = json.dumps(graph_to_dict(report.raw_graph))
        assert "term1" in text


class TestReportJson:
    def test_dict_fields(self, report):
        data = report_to_dict(report)
        assert data["partition_level"] == 1
        assert "term1" in data["labelled_significances"]
        assert data["raw_graph_size"] >= data["simplified_graph_size"]

    def test_json_parses(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed["normalised_significances"]["term0"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_graph_embedded(self, report):
        data = report_to_dict(report)
        restored = graph_from_dict(data["graph"])
        assert restored.outputs == list(report.graph.outputs)


def _reference(report) -> str:
    """The oracle every report_to_json output is held to."""
    return json.dumps(report_to_dict(report), indent=2)


def _written(report) -> str:
    """The columnar writer's text; None would mean it deferred."""
    text = _write_compiled(report)
    assert text is not None, "the writer deferred to the reference path"
    assert report_to_json(report) == text
    return text


def _edge_case_recording():
    """Infinite and signed-zero bounds, labels that need escaping, and a
    NaN variance (inf - inf) in the level scan."""
    an = Analysis()
    with an:
        wide = an.input(Interval(-math.inf, math.inf), name='wide "q"')
        zero = an.input(Interval(-0.0, 0.0), name="zero\\back")
        unit = an.input(Interval(1.0, 2.0), name="naïve→")
        an.output(wide + zero * 3.0 + unit * unit, name="y")
    return an


def _flat_recording():
    """Two equally significant inputs: no level has variance."""
    an = Analysis()
    with an:
        a = an.input(Interval(1.0, 2.0), name="a")
        b = an.input(Interval(1.0, 2.0), name="b")
        an.output(a + b, name="y")
    return an


class TestColumnarWriter:
    """report_to_json writes compiled reports from their columns; the
    text must be exactly the json.dumps reference."""

    @pytest.mark.parametrize("simplify", [True, False])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_served_kernels(self, kernel, simplify):
        entry = default_registry()[kernel]
        report = entry.recorder(entry.defaults()).analyse(
            simplify=simplify, compiled=True
        )
        oracle = entry.recorder(entry.defaults()).analyse(
            simplify=simplify, compiled=False
        )
        assert _written(report) == _reference(oracle)

    def test_replayed_reports(self):
        entry = default_registry()["sobel"]
        cache = TraceCache()
        for _ in range(2):
            report = cache.analyse(
                entry.cache_key, entry.recorder, entry.defaults()
            )
            assert _written(report) == _reference(report)

    def test_found_and_missing_partition_level(self):
        entry = default_registry()["sobel"]
        found = entry.recorder(entry.defaults()).analyse(compiled=True)
        flat = _flat_recording().analyse(compiled=True)
        assert found.partition_level is not None
        assert flat.partition_level is None
        for report in (found, flat):
            assert _written(report) == _reference(report)

    def test_multi_output_hulls_and_batch_lanes(self):
        entry = default_registry()["nbody"]
        cache = TraceCache()
        cache.analyse(entry.cache_key, entry.recorder, entry.defaults())
        trace = cache._traces[entry.cache_key]
        assert len(trace.output_ids) > 1
        base = entry.defaults()
        batch = [
            [Interval(iv.lo - 0.01 * k, iv.hi + 0.01 * k) for iv in base]
            for k in range(3)
        ]
        lanes = trace.analyse_batch(batch)
        for inputs, report in zip(batch, lanes):
            oracle = entry.recorder(inputs).analyse(compiled=False)
            assert _written(report) == _reference(oracle)

    def test_rounding_disabled(self):
        with rounded_mode(False):
            for kernel in ("sobel", "nbody"):
                entry = default_registry()[kernel]
                report = entry.recorder(entry.defaults()).analyse(
                    compiled=True
                )
                oracle = entry.recorder(entry.defaults()).analyse()
                assert _written(report) == _reference(oracle)

    def test_infinities_signed_zero_and_escaped_labels(self):
        report = _edge_case_recording().analyse(compiled=True)
        text = _written(report)
        assert text == _reference(_edge_case_recording().analyse())
        for fragment in ("-Infinity", "NaN", "-0.0", '\\"q\\"', "\\u2192"):
            assert fragment in text

    def test_materialized_graph(self):
        report = _flat_recording().analyse(compiled=True)
        assert len(report.graph) == 3  # builds the node objects
        assert report_to_json(report) == _reference(report)

    def test_nan_adjoint_raises_like_the_reference(self, monkeypatch):
        # The compiled report's adjoints come from the lane sweep, which
        # analyse(compiled=True) runs on one lane.
        adjoint = ReplayLanes.adjoint

        def poisoned(self, seeds):
            lo, hi = adjoint(self, seeds)
            lo = lo.copy()
            lo[0] = math.nan
            return lo, hi

        monkeypatch.setattr(ReplayLanes, "adjoint", poisoned)
        errors = []
        for encode in (_reference, report_to_json):
            report = _flat_recording().analyse(compiled=True)
            with pytest.raises(Exception) as info:
                encode(report)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is ValueError and "NaN" in errors[0][1]

    def test_other_indents_use_json_dumps(self):
        report = _flat_recording().analyse(compiled=True)
        assert report_to_json(report, indent=None) == json.dumps(
            report_to_dict(report)
        )
