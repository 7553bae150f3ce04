"""Interval squares are IEEE products, enclosing the exact square.

``Interval._int_pow(2)`` (behind ``x ** 2``, same-object ``x * x`` and the
partials that square) multiplies each endpoint by itself: IEEE rounds a
product correctly, libm ``pow(x, 2.0)`` does not.  The enclosure is
checked against an exact :class:`fractions.Fraction` reference, including
arguments where glibc 2.36's ``pow`` misrounds.  A finite endpoint whose
square overflows raises ``OverflowError`` as ``x ** 2`` does.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.intervals import Interval
from repro.intervals.rounding import rounded_mode

# glibc 2.36's pow(x, 2.0) differs from the correctly rounded x * x here.
POW_MISROUNDED = (
    -458.7228991098864,
    78.48650741311735,
    816.6283851054695,
    -476.64932314208033,
)

endpoints = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)


def exact_square_range(lo: float, hi: float) -> tuple[Fraction, Fraction]:
    a, b = Fraction(lo), Fraction(hi)
    if lo >= 0:
        return a * a, b * b
    if hi <= 0:
        return b * b, a * a
    return Fraction(0), max(a * a, b * b)


def assert_encloses_exact(sq: Interval, lo: float, hi: float) -> None:
    exact_lo, exact_hi = exact_square_range(lo, hi)
    assert Fraction(sq.lo) <= exact_lo
    assert exact_hi <= Fraction(sq.hi)


@given(endpoints, endpoints)
def test_square_encloses_exact_square(a, b):
    lo, hi = min(a, b), max(a, b)
    x = Interval(lo, hi)
    for sq in (x._int_pow(2), x**2, x * x):
        assert_encloses_exact(sq, lo, hi)


@pytest.mark.parametrize("x", POW_MISROUNDED)
def test_square_is_the_rounded_product(x):
    """One ULP either side of the correctly rounded square."""
    sq = Interval(x, x) ** 2
    assert_encloses_exact(sq, x, x)
    assert sq.lo == math.nextafter(x * x, -math.inf)
    assert sq.hi == math.nextafter(x * x, math.inf)
    exact = Fraction(x) ** 2
    assert abs(Fraction(x * x) - exact) <= Fraction(math.ulp(x * x)) / 2
    with rounded_mode(False):
        assert Interval(x, x) ** 2 == Interval(x * x, x * x)


def test_overflowing_square_raises():
    with pytest.raises(OverflowError):
        Interval(1e200, 1e200) ** 2
    with pytest.raises(OverflowError):
        Interval(-1e200, 1.0) ** 2
    x = Interval(1.0, 1e200)
    with pytest.raises(OverflowError):
        x * x


def test_infinite_endpoints_square_without_error():
    down = math.nextafter
    assert Interval(-math.inf, math.inf) ** 2 == Interval(
        down(0.0, -math.inf), math.inf
    )
    assert Interval(-math.inf, -1.0) ** 2 == Interval(
        down(1.0, -math.inf), math.inf
    )
