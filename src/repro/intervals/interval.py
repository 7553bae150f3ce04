"""Core interval type for significance analysis.

An :class:`Interval` ``[a, b]`` represents the set ``{x : a <= x <= b}``.
All arithmetic is *inclusion isotonic*: the result interval encloses every
real result obtainable from points of the operand intervals.  With outward
rounding enabled (the default, see :mod:`repro.intervals.rounding`) the
enclosures are rigorous with respect to IEEE-754 double arithmetic.

The paper evaluates C++ code on intervals via the ``dco::ia1s::type``
overloading type (Section 2.3).  This module provides the interval *base*
layer of that type; the AD/tape layer lives in :mod:`repro.ad`.

Comparison semantics follow Section 2.2 of the paper: when a comparison
between intervals (or an interval and a scalar) is *ambiguous* — i.e. the
answer is true for some points of the intervals and false for others — the
analysis cannot proceed with a fixed control flow, so an
:class:`AmbiguousComparisonError` is raised, carrying the operands so the
caller can report the offending condition (or split the interval, see
:mod:`repro.intervals.splitting`).
"""

from __future__ import annotations

import errno
import math
import os
from typing import Iterator, Union

from . import rounding as _rnd

__all__ = ["Interval", "AmbiguousComparisonError", "EmptyIntervalError", "as_interval"]

_IntervalLike = Union["Interval", int, float]


class AmbiguousComparisonError(ValueError):
    """A relational operator on intervals had no unique truth value.

    Mirrors the paper's Section 2.2: interval evaluation requires a fixed
    control flow; an ambiguous branch condition terminates the analysis and
    is reported to the user.  The offending operands and operator are kept
    so tooling can point at the condition (and optionally bisect, see
    :func:`repro.intervals.splitting.split_until_decidable`).
    """

    def __init__(self, op: str, left: "Interval", right: "Interval"):
        self.op = op
        self.left = left
        self.right = right
        super().__init__(
            f"ambiguous interval comparison: {left!r} {op} {right!r}; "
            "the branch condition is not uniquely decidable over the given "
            "input ranges (see paper Section 2.2)"
        )


class EmptyIntervalError(ValueError):
    """Raised when an operation would produce an empty interval."""


def square_overflow() -> OverflowError:
    """The error ``x ** 2`` raises when a finite ``x`` squares past the
    largest double (CPython reports libm ``pow``'s ``ERANGE``).

    Squares are IEEE products here, which overflow to ``inf`` silently;
    every engine raises this instead, so both engines fail where
    ``x ** 2`` does.
    """
    return OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))


def square(x: float) -> float:
    """``x * x``, raising where ``x ** 2`` does (see :func:`square_overflow`)."""
    sq = x * x
    if sq == math.inf and x - x == 0.0:
        raise square_overflow()
    return sq


def _validate(lo: float, hi: float) -> tuple[float, float]:
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"interval bounds must not be NaN: [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"invalid interval: lower bound {lo} > upper bound {hi}")
    return float(lo), float(hi)


class Interval:
    """A closed real interval ``[lo, hi]`` with inclusion-isotonic arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo, hi = _validate(float(lo), float(hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interval is immutable")

    def __reduce__(self):
        # Immutability breaks the default slot-setting unpickle path;
        # rebuild through the constructor so intervals can cross process
        # boundaries (repro.mp ships guard/aux intervals to workers).
        return (Interval, (self.lo, self.hi))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: float) -> "Interval":
        """Degenerate interval ``[value, value]``."""
        return cls(value, value)

    @classmethod
    def centered(cls, mid: float, radius: float) -> "Interval":
        """Interval ``[mid - radius, mid + radius]`` (radius >= 0)."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        return cls(mid - radius, mid + radius)

    @classmethod
    def hull_of(cls, *values: float) -> "Interval":
        """Smallest interval containing all given scalar values."""
        if not values:
            raise EmptyIntervalError("hull of no values is empty")
        return cls(min(values), max(values))

    @classmethod
    def entire(cls) -> "Interval":
        """The interval ``[-inf, +inf]``."""
        return cls(-math.inf, math.inf)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """Width ``w([a,b]) = b - a`` (the paper's influence measure)."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """Midpoint of the interval; finite bounds assumed."""
        if math.isinf(self.lo) or math.isinf(self.hi):
            if self.lo == -math.inf and self.hi == math.inf:
                return 0.0
            return self.lo if math.isinf(self.hi) else self.hi
        # Written to avoid overflow of lo + hi.
        return self.lo + 0.5 * (self.hi - self.lo)

    @property
    def radius(self) -> float:
        """Half the width."""
        return 0.5 * self.width

    @property
    def mag(self) -> float:
        """Magnitude: ``max{|x| : x in [a,b]}``."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """Mignitude: ``min{|x| : x in [a,b]}`` (0 if the interval spans 0)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def is_point(self) -> bool:
        """True for a degenerate interval ``[a, a]``."""
        return self.lo == self.hi

    def is_finite(self) -> bool:
        """True when both bounds are finite."""
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, value: float) -> bool:
        """Membership test for a scalar."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other: "Interval") -> bool:
        """True when ``other`` lies in the interior of this interval."""
        return self.lo < other.lo and other.hi < self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when the intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def __contains__(self, value: object) -> bool:
        if isinstance(value, Interval):
            return self.contains_interval(value)
        return self.contains(float(value))  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        """Intersection; raises :class:`EmptyIntervalError` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise EmptyIntervalError(f"{self!r} and {other!r} are disjoint")
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands (interval union hull)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def split(self, at: float | None = None) -> tuple["Interval", "Interval"]:
        """Bisect at ``at`` (default: midpoint) into two sub-intervals."""
        if at is None:
            at = self.midpoint
        if not self.contains(at):
            raise ValueError(f"split point {at} not inside {self!r}")
        return Interval(self.lo, at), Interval(at, self.hi)

    def widened(self, amount: float) -> "Interval":
        """Interval widened outward by ``amount`` on each side."""
        if amount < 0:
            raise ValueError("widening amount must be non-negative")
        return Interval(self.lo - amount, self.hi + amount)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __pos__(self) -> "Interval":
        return self

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def __add__(self, other: _IntervalLike) -> "Interval":
        other = as_interval(other)
        lo, hi = _rnd.outward(self.lo + other.lo, self.hi + other.hi)
        return Interval(lo, hi)

    __radd__ = __add__

    def __sub__(self, other: _IntervalLike) -> "Interval":
        other = as_interval(other)
        lo, hi = _rnd.outward(self.lo - other.hi, self.hi - other.lo)
        return Interval(lo, hi)

    def __rsub__(self, other: _IntervalLike) -> "Interval":
        return as_interval(other).__sub__(self)

    def __mul__(self, other: _IntervalLike) -> "Interval":
        if other is self:
            # x * x with the *same* interval object is a square; the naive
            # product rule would lose the sign correlation ([-1,2]*[-1,2]
            # = [-2,4] instead of the true range [0,4]).
            return self._int_pow(2)
        other = as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        # 0 * inf produces NaN under IEEE; treat such products as 0, the
        # correct limit for interval endpoints (e.g. [0,0] * [-inf,inf] = 0).
        cleaned = [0.0 if p != p else p for p in products]
        lo, hi = _rnd.outward(min(cleaned), max(cleaned))
        return Interval(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other: _IntervalLike) -> "Interval":
        other = as_interval(other)
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError(
                f"interval division by {other!r} which contains zero"
            )
        return self * Interval(
            _rnd.down(1.0 / other.hi), _rnd.up(1.0 / other.lo)
        )

    def __rtruediv__(self, other: _IntervalLike) -> "Interval":
        return as_interval(other).__truediv__(self)

    def __pow__(self, exponent: _IntervalLike) -> "Interval":
        # Integer powers get the sharp, sign-aware evaluation; everything
        # else goes through exp(y * log(x)) in functions.py.
        if isinstance(exponent, (int, float)) and float(exponent).is_integer():
            return self._int_pow(int(exponent))
        from .functions import pow as _ipow  # local import avoids a cycle

        return _ipow(self, exponent)

    def _int_pow(self, n: int) -> "Interval":
        if n == 0:
            return Interval(1.0, 1.0)
        if n < 0:
            return Interval(1.0, 1.0) / self._int_pow(-n)
        if n == 2:
            # IEEE rounds a product correctly; libm ``pow`` does not.
            lo_p, hi_p = square(self.lo), square(self.hi)
        else:
            lo_p, hi_p = self.lo**n, self.hi**n
        if n % 2 == 1:
            lo, hi = lo_p, hi_p
        elif self.lo >= 0:
            lo, hi = lo_p, hi_p
        elif self.hi <= 0:
            lo, hi = hi_p, lo_p
        else:  # interval spans zero, even power
            lo, hi = 0.0, max(lo_p, hi_p)
        lo, hi = _rnd.outward(lo, hi)
        return Interval(lo, hi)

    # ------------------------------------------------------------------
    # Comparisons (paper Section 2.2 semantics)
    # ------------------------------------------------------------------
    def _compare(self, other: _IntervalLike, op: str) -> bool:
        other = as_interval(other)
        if op == "<":
            if self.hi < other.lo:
                return True
            if self.lo >= other.hi:
                return False
        elif op == "<=":
            if self.hi <= other.lo:
                return True
            if self.lo > other.hi:
                return False
        elif op == ">":
            if self.lo > other.hi:
                return True
            if self.hi <= other.lo:
                return False
        elif op == ">=":
            if self.lo >= other.hi:
                return True
            if self.hi < other.lo:
                return False
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown comparison {op}")
        raise AmbiguousComparisonError(op, self, other)

    def __lt__(self, other: _IntervalLike) -> bool:
        return self._compare(other, "<")

    def __le__(self, other: _IntervalLike) -> bool:
        return self._compare(other, "<=")

    def __gt__(self, other: _IntervalLike) -> bool:
        return self._compare(other, ">")

    def __ge__(self, other: _IntervalLike) -> bool:
        return self._compare(other, ">=")

    def __eq__(self, other: object) -> bool:
        """Set equality of bounds (not the ambiguous pointwise relation)."""
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        if isinstance(other, (int, float)):
            return self.is_point() and self.lo == float(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- certainty predicates (explicit, never ambiguous) ---------------
    def certainly_lt(self, other: _IntervalLike) -> bool:
        """True iff every pair of points satisfies ``self < other``."""
        other = as_interval(other)
        return self.hi < other.lo

    def certainly_gt(self, other: _IntervalLike) -> bool:
        """True iff every pair of points satisfies ``self > other``."""
        other = as_interval(other)
        return self.lo > other.hi

    def possibly_lt(self, other: _IntervalLike) -> bool:
        """True iff some pair of points satisfies ``self < other``."""
        other = as_interval(other)
        return self.lo < other.hi

    def possibly_gt(self, other: _IntervalLike) -> bool:
        """True iff some pair of points satisfies ``self > other``."""
        other = as_interval(other)
        return self.hi > other.lo

    # ------------------------------------------------------------------
    # Conversions / display
    # ------------------------------------------------------------------
    def to_float(self) -> float:
        """Midpoint as a plain double (``toDouble()`` in the paper's API)."""
        return self.midpoint

    def __float__(self) -> float:
        if not self.is_point():
            raise TypeError(
                f"cannot convert non-degenerate interval {self!r} to float; "
                "use .midpoint or .to_float() explicitly"
            )
        return self.lo

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


def as_interval(value: _IntervalLike) -> Interval:
    """Coerce a scalar (or interval) to an :class:`Interval`."""
    if isinstance(value, Interval):
        return value
    if isinstance(value, (int, float)):
        return Interval(float(value), float(value))
    raise TypeError(f"cannot interpret {value!r} as an interval")
