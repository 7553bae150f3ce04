"""analyse(compiled=True) must be byte-identical to the object pipeline.

The compiled path replaces the reverse sweep, Eq. 11, simplify and the
variance scan with array code, but keeps the object pipeline as its
oracle: for every bundled kernel the serialized report (JSON, including
graph structure, adjoints, significances, levels and variances) must
match exactly.
"""

import numpy as np
import pytest

from repro.intervals import rounding
from repro.intervals.rounding import rounded_mode
from repro.kernels.blackscholes.analysis import analyse_option
from repro.kernels.dct.analysis import analyse_dct_block
from repro.kernels.maclaurin import analyse_maclaurin
from repro.kernels.sobel.analysis import analyse_sobel_pixel
from repro.scorpio import Analysis, analyse_compiled
from repro.scorpio.serialize import report_to_json


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


class TestKernelEquivalenceIntegerPath(TestKernelEquivalence):
    """The same identities with the rounding gate lowered to 0, so every
    array rounding of the compiled sweep and Eq. 11 takes the integer
    step (at the default gate only dct's widest levels do)."""

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
