"""analyse(compiled=True) must be byte-identical to the object pipeline.

The compiled path replaces the reverse sweep, Eq. 11, simplify and the
variance scan with array code, but keeps the object pipeline as its
oracle: for every bundled kernel the serialized report (JSON, including
graph structure, adjoints, significances, levels and variances) must
match exactly.
"""

import json

import numpy as np
import pytest

from repro.ad import ADouble, CompiledTape, ReplayError
from repro.ad import compiled
from repro.ad import intrinsics as op
from repro.intervals import Interval, rounding
from repro.intervals.rounding import rounded_mode
from repro.kernels.blackscholes.analysis import analyse_option
from repro.kernels.dct.analysis import analyse_dct_block
from repro.kernels.maclaurin import analyse_maclaurin
from repro.kernels.sobel.analysis import analyse_sobel_pixel
from repro.scorpio import Analysis, TraceCache, analyse_compiled
from repro.scorpio.serialize import report_to_dict, report_to_json


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


class TestKernelEquivalence:
    def test_maclaurin_report_json(self):
        obj = analyse_maclaurin(n=9)
        cmp = analyse_maclaurin(n=9, compiled=True)
        assert report_to_json(obj.report) == report_to_json(cmp.report)

    def test_maclaurin_rounding_disabled(self):
        with rounded_mode(False):
            obj = analyse_maclaurin(n=9)
            cmp = analyse_maclaurin(n=9, compiled=True)
        assert report_to_json(obj.report) == report_to_json(cmp.report)

    def test_sobel_pixel(self, rng):
        window = rng.uniform(0, 255, (3, 3))
        assert analyse_sobel_pixel(window) == analyse_sobel_pixel(
            window, compiled=True
        )

    def test_blackscholes_option(self):
        obj = analyse_option(100.0, 105.0, 0.02, 0.3, 1.5)
        cmp = analyse_option(100.0, 105.0, 0.02, 0.3, 1.5, compiled=True)
        assert obj == cmp

    def test_dct_block_maps_bitwise(self, rng):
        block = rng.uniform(0, 255, (8, 8))
        obj = analyse_dct_block(block)
        cmp = analyse_dct_block(block, compiled=True)
        assert np.array_equal(obj, cmp)


class TestKernelEquivalenceArrayPath(TestKernelEquivalence):
    """The same identities with the float gate at 0, so the one-lane
    sweeps of the small kernels run on arrays (at the default gate they
    run on Python floats; dct's is above it either way)."""

    @pytest.fixture(autouse=True)
    def _array_path(self, monkeypatch):
        monkeypatch.setattr(compiled, "FLOAT_MAX_WORK", 0)


class TestKernelEquivalenceIntegerPath(TestKernelEquivalenceArrayPath):
    """The same identities on the array path with the rounding gate
    lowered to 0, so every array rounding of the compiled sweep and
    Eq. 11 takes the integer step (at the default gate only dct's widest
    levels do)."""

    @pytest.fixture(autouse=True)
    def _integer_step(self, monkeypatch):
        monkeypatch.setattr(rounding, "INT_STEP_MIN_SIZE", 0)


class TestApiBehaviour:
    def _analysis(self):
        an = Analysis()
        with an:
            x = an.input(2.0, width=0.5, name="x")
            z = an.intermediate(x * x, "z")
            an.output(z + x, name="y")
        return an

    def test_full_report_json(self):
        obj = self._analysis().analyse()
        cmp = self._analysis().analyse(compiled=True)
        assert report_to_json(obj) == report_to_json(cmp)

    def test_report_outlives_later_analyses(self):
        # The report's adjoint columns are written lazily, after other
        # analyses have swept on the same thread.
        report = self._analysis().analyse(compiled=True)
        expected = json.dumps(report_to_dict(self._analysis().analyse()), indent=2)
        other = Analysis()
        with other:
            x = other.input(-3.0, width=0.25, name="x")
            other.output(x * x - x, name="y")
        other.analyse(compiled=True)
        assert report_to_json(report) == expected

    def test_first_call_wins_cache(self):
        an = self._analysis()
        first = an.analyse(compiled=True)
        assert an.analyse() is first

    def test_report_views_match(self):
        obj = self._analysis().analyse()
        cmp = self._analysis().analyse(compiled=True)
        assert obj.labelled_significances() == cmp.labelled_significances()
        assert obj.input_significances() == cmp.input_significances()
        assert obj.significance_of("z") == cmp.significance_of("z")
        with pytest.raises(KeyError):
            cmp.significance_of("nope")

    def test_needs_an_output(self):
        an = Analysis()
        with an:
            an.input(1.0, width=0.1, name="x")
        with pytest.raises(Exception):
            an.analyse(compiled=True)

    def test_analyse_compiled_rejects_no_outputs(self):
        an = self._analysis()
        with pytest.raises(ValueError):
            analyse_compiled(an.tape, [])

    def test_simplify_false_identity(self):
        rep = self._analysis().analyse(compiled=True)
        # found-or-not, the graph triple keeps the object pipeline's
        # instance-sharing behaviour on serialization-relevant sizes
        obj = self._analysis().analyse()
        assert len(rep.raw_graph) == len(obj.raw_graph)
        assert len(rep.simplified_graph) == len(obj.simplified_graph)


def _refused_recording(kind: str, mixed: bool, ivs) -> Analysis:
    """A recording the replay refuses.

    With interval operands ``hypot``, ``atan2`` and ``pow`` compose from
    primitives the replay knows; here each also runs on float constants
    (``hypot``'s ``c * c``, ``atan2(c, d)``, ``pow``'s ``log(d)``), and
    a float-valued node that is not a constant is what the structure
    guard refuses.  ``mixed`` adds replayable interval operations.
    """
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        c = ADouble.constant(0.75)
        d = ADouble.constant(1.5)
        if kind == "hypot":
            z = op.hypot(x, c)
        elif kind == "atan2":
            z = op.atan2(c, d) * x
        else:
            z = d ** x
        if mixed:
            t = an.intermediate(op.sin(x * y) + x / y, "t")
            z = op.hypot(z, t) - op.atan2(y, x) * t + t ** y
        an.output(z, name="out")
    return an


@pytest.mark.parametrize("gate", [None, 0])
@pytest.mark.parametrize("rounding_on", [True, False])
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("kind", ["hypot", "atan2", "pow"])
def test_traces_the_replay_refuses(monkeypatch, kind, mixed, rounding_on, gate):
    """analyse(compiled=True) on a trace without a forward plan (no
    point-partial edges: every edge takes four products) writes the
    object engine's bytes, directly and through the trace cache's
    record-forever path."""
    if gate is not None:
        monkeypatch.setattr(rounding, "INT_STEP_MIN_SIZE", gate)
    first = [Interval(0.5, 0.75), Interval(1.0, 1.25)]
    second = [Interval(0.25, 0.5), Interval(1.5, 2.0)]
    with rounded_mode(rounding_on):
        with pytest.raises(ReplayError):
            CompiledTape(_refused_recording(kind, mixed, first).tape)._forward_plan()
        cache = TraceCache()
        for ivs in (first, second):
            reference = json.dumps(
                report_to_dict(_refused_recording(kind, mixed, ivs).analyse()),
                indent=2,
            )
            compiled = _refused_recording(kind, mixed, ivs).analyse(compiled=True)
            assert report_to_json(compiled) == reference
            report, outcome = cache.analyse_outcome(
                ("refused", kind, mixed),
                lambda v: _refused_recording(kind, mixed, v),
                ivs,
            )
            assert outcome == "record"
            assert report_to_json(report) == reference
