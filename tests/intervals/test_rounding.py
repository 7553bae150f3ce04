"""Tests for directed-rounding helpers."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import rounding as rnd


class TestDown:
    def test_strictly_decreases_finite(self):
        assert rnd.down(1.0) < 1.0

    def test_one_ulp(self):
        assert rnd.down(1.0) == math.nextafter(1.0, -math.inf)

    def test_zero(self):
        assert rnd.down(0.0) < 0.0

    def test_negative(self):
        assert rnd.down(-3.5) < -3.5

    def test_neg_inf_fixed_point(self):
        assert rnd.down(-math.inf) == -math.inf

    def test_pos_inf_moves_down(self):
        assert rnd.down(math.inf) < math.inf

    def test_nan_passthrough(self):
        assert math.isnan(rnd.down(math.nan))


class TestUp:
    def test_strictly_increases_finite(self):
        assert rnd.up(1.0) > 1.0

    def test_one_ulp(self):
        assert rnd.up(1.0) == math.nextafter(1.0, math.inf)

    def test_pos_inf_fixed_point(self):
        assert rnd.up(math.inf) == math.inf

    def test_nan_passthrough(self):
        assert math.isnan(rnd.up(math.nan))


class TestOutward:
    def test_widens_both_sides(self):
        lo, hi = rnd.outward(1.0, 2.0)
        assert lo < 1.0 < 2.0 < hi

    def test_degenerate_becomes_proper(self):
        lo, hi = rnd.outward(5.0, 5.0)
        assert lo < 5.0 < hi


class TestModeSwitch:
    def test_disabled_is_identity(self):
        with rnd.rounded_mode(False):
            assert rnd.down(1.0) == 1.0
            assert rnd.up(1.0) == 1.0

    def test_mode_restored_after_context(self):
        assert rnd.rounding_enabled()
        with rnd.rounded_mode(False):
            assert not rnd.rounding_enabled()
        assert rnd.rounding_enabled()

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with rnd.rounded_mode(False):
                raise RuntimeError("boom")
        assert rnd.rounding_enabled()

    def test_set_rounding_explicit(self):
        rnd.set_rounding(False)
        try:
            assert not rnd.rounding_enabled()
        finally:
            rnd.set_rounding(True)

    def test_nested_contexts(self):
        with rnd.rounded_mode(False):
            with rnd.rounded_mode(True):
                assert rnd.rounding_enabled()
            assert not rnd.rounding_enabled()


# ----------------------------------------------------------------------
# The array twins: bit for bit np.nextafter (and so math.nextafter)
# ----------------------------------------------------------------------
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_SPECIAL_BITS = [
    0x0000000000000000,  # +0
    -0x8000000000000000,  # -0
    0x7FF0000000000000,  # +inf
    -0x0010000000000000,  # -inf (0xFFF0...)
    0x7FF8000000000000,  # quiet NaN
    0x7FF0000000000001,  # signalling NaN, smallest payload
    0x7FFFFFFFFFFFFFFF,  # NaN, all payload bits (steps to -0 if stepped)
    -1,  # negative NaN, all payload bits
    0x0000000000000001,  # smallest subnormal
    -0x7FFFFFFFFFFFFFFF,  # its negative
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # +max
    -0x0010000000000001,  # -max (0xFFEF...)
]
_DIRECTIONS = ((rnd.down_array, -math.inf), (rnd.up_array, math.inf))


@st.composite
def float_arrays(draw):
    """Arbitrary 64-bit patterns viewed as float64, specials mixed in,
    at sizes below and above the integer-step gate."""
    gate = rnd.INT_STEP_MIN_SIZE
    size = draw(
        st.one_of(st.integers(0, 40), st.integers(gate, gate + 700)),
        label="size",
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(_I64_MIN, _I64_MAX, size=size, endpoint=True)
    if size:
        drawn = draw(
            st.lists(
                st.one_of(
                    st.sampled_from(_SPECIAL_BITS),
                    st.integers(_I64_MIN, _I64_MAX),
                ),
                max_size=min(size, 48),
            )
        )
        where = rng.choice(size, size=len(drawn), replace=False)
        bits[where] = drawn
        if draw(st.booleans(), label="many zeros"):
            bits[rng.random(size) < 0.35] = 0
    return bits.astype(np.int64).view(np.float64)


def _nextafter_bits(x, target):
    with np.errstate(all="ignore"):
        return np.nextafter(x, target).tobytes()


@given(float_arrays())
@settings(max_examples=80, deadline=None)
def test_array_twins_are_nextafter_bitwise(x):
    with np.errstate(all="ignore"):
        for fn, target in _DIRECTIONS:
            expected = _nextafter_bits(x, target)
            assert fn(x).tobytes() == expected
            out = np.empty_like(x)
            assert fn(x, out=out) is out
            assert out.tobytes() == expected
            alias = x.copy()
            fn(alias, out=alias)
            assert alias.tobytes() == expected


@given(float_arrays())
@settings(max_examples=30, deadline=None)
def test_array_twins_match_math_nextafter(x):
    with np.errstate(all="ignore"):
        for fn, target in _DIRECTIONS:
            got = fn(x)
            for value, result in zip(x.tolist(), got.tolist()):
                if value == value:  # NaN payloads are libm's; skip them
                    expected = math.nextafter(value, target)
                    assert struct.pack("<d", result) == struct.pack(
                        "<d", expected
                    )


class TestArrayTwins:
    def test_gate_splits_the_paths(self, monkeypatch):
        x = np.linspace(-2.0, 2.0, 9)
        x[4] = -0.0
        expected = np.nextafter(x, -math.inf).tobytes()
        assert rnd.down_array(x).tobytes() == expected  # below the gate
        monkeypatch.setattr(rnd, "INT_STEP_MIN_SIZE", 0)
        assert rnd.down_array(x).tobytes() == expected  # integer step

    def test_zeros_step_to_tiny(self, monkeypatch):
        monkeypatch.setattr(rnd, "INT_STEP_MIN_SIZE", 0)
        zeros = np.array([0.0, -0.0])
        tiny = 5e-324
        assert rnd.down_array(zeros).tolist() == [-tiny, -tiny]
        assert rnd.up_array(zeros).tolist() == [tiny, tiny]
        assert np.signbit(rnd.down_array(np.array([tiny, tiny]))).tolist() == [
            False,
            False,
        ]

    def test_strided_and_2d_views(self, monkeypatch):
        monkeypatch.setattr(rnd, "INT_STEP_MIN_SIZE", 0)
        base = np.random.default_rng(3).standard_normal((6, 40))
        base[:, ::5] = 0.0
        for view in (base[:, ::3], base.T, base[1:4]):
            for fn, target in _DIRECTIONS:
                got = fn(view)
                assert got.shape == view.shape
                assert got.tobytes() == np.nextafter(view, target).tobytes()
        before = base.copy()
        rnd.up_array(base[:, ::2], out=base[:, ::2])
        assert base[:, 1::2].tobytes() == before[:, 1::2].tobytes()
        assert (
            base[:, ::2].tobytes()
            == np.nextafter(before[:, ::2], math.inf).tobytes()
        )

    def test_ignores_the_rounding_flag(self):
        x = np.full(rnd.INT_STEP_MIN_SIZE + 1, 1.0)
        with rnd.rounded_mode(False):
            assert (rnd.up_array(x) > 1.0).all()
            assert (rnd.down_array(x[:3]) < 1.0).all()
