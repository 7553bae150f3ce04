"""Generic intrinsic functions over all evaluation modes.

The paper's kernels call ``sin``, ``exp``, ``sqrt`` ... on whatever numeric
type is active: plain ``double`` for production runs, ``dco::ia1s::type``
for significance analysis.  This module is the Python counterpart of that
overload set.  Every function dispatches on its argument type:

* :class:`~repro.ad.adouble.ADouble` — record the elementary operation on
  the tape with its local partial derivative (in the value's algebra);
* :class:`~repro.ad.tangent.Tangent`  — propagate value and derivative
  forward;
* :class:`~repro.intervals.Interval` / ``float`` — evaluate directly via
  :mod:`repro.intervals.functions` (which itself falls back to :mod:`math`
  for scalars).

Kernels written against this module therefore run unchanged in accurate,
interval, tangent, and interval-adjoint (significance) modes.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.intervals import Interval
from repro.intervals import functions as ifn

from .adouble import ADouble
from .tangent import Tangent

__all__ = [
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "exp",
    "expm1",
    "log",
    "log1p",
    "log2",
    "log10",
    "sqrt",
    "cbrt",
    "erf",
    "erfc",
    "pow",
    "hypot",
    "round_st",
    "floor",
    "minimum",
    "maximum",
    "clip",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_LN2 = math.log(2.0)
_LN10 = math.log(10.0)


def _make_unary(
    name: str,
    value_fn: Callable[[Any], Any],
    partial_fn: Callable[[Any, Any], Any],
) -> Callable[[Any], Any]:
    """Build a dispatching unary intrinsic.

    ``partial_fn(x_value, result_value)`` returns the local derivative; it
    receives the already-computed result so derivatives like ``exp' = exp``
    reuse it.
    """

    def intrinsic(x: Any) -> Any:
        if isinstance(x, ADouble):
            # Recursive dispatch on the wrapped value: plain floats and
            # Intervals go through value_fn, while Tangent values (the
            # second-order tangent-over-adjoint composition, see
            # repro.ad.hessian) re-enter this intrinsic so both lanes
            # propagate.
            value = intrinsic(x.value)
            return x.record_unary(name, value, partial_fn(x.value, value))
        if isinstance(x, Tangent):
            value = value_fn(x.value)
            return Tangent(value, partial_fn(x.value, value) * x.dot)
        return value_fn(x)

    intrinsic.__name__ = name
    intrinsic.__qualname__ = name
    intrinsic.__doc__ = (
        f"Dispatching `{name}` intrinsic (float / Interval / Tangent / "
        f"ADouble)."
    )
    return intrinsic


# Partial-derivative lambdas reference the module-level dispatchers (they
# resolve at call time), so partials themselves propagate through Tangent
# operands in second-order mode.
sin = _make_unary("sin", ifn.sin, lambda v, r: cos(v))
cos = _make_unary("cos", ifn.cos, lambda v, r: -sin(v))
tan = _make_unary("tan", ifn.tan, lambda v, r: 1.0 + r * r)
asin = _make_unary("asin", ifn.asin, lambda v, r: 1.0 / sqrt(1.0 - v * v))
acos = _make_unary("acos", ifn.acos, lambda v, r: -1.0 / sqrt(1.0 - v * v))
atan = _make_unary("atan", ifn.atan, lambda v, r: 1.0 / (1.0 + v * v))
sinh = _make_unary("sinh", ifn.sinh, lambda v, r: cosh(v))
cosh = _make_unary("cosh", ifn.cosh, lambda v, r: sinh(v))
tanh = _make_unary("tanh", ifn.tanh, lambda v, r: 1.0 - r * r)
exp = _make_unary("exp", ifn.exp, lambda v, r: r)
expm1 = _make_unary("expm1", ifn.expm1, lambda v, r: r + 1.0)
log = _make_unary("log", ifn.log, lambda v, r: 1.0 / v)
log1p = _make_unary("log1p", ifn.log1p, lambda v, r: 1.0 / (1.0 + v))
log2 = _make_unary("log2", ifn.log2, lambda v, r: 1.0 / (v * _LN2))
log10 = _make_unary("log10", ifn.log10, lambda v, r: 1.0 / (v * _LN10))
sqrt = _make_unary("sqrt", ifn.sqrt, lambda v, r: 0.5 / r)
cbrt = _make_unary("cbrt", ifn.cbrt, lambda v, r: 1.0 / (3.0 * r * r))
erf = _make_unary(
    "erf", ifn.erf, lambda v, r: _TWO_OVER_SQRT_PI * exp(-(v * v))
)
erfc = _make_unary(
    "erfc", ifn.erfc, lambda v, r: -_TWO_OVER_SQRT_PI * exp(-(v * v))
)


def _round_partial(value: Any) -> Any:
    # Straight-through derivative enclosure, see DESIGN.md §4: [0, 1] in
    # interval mode, 1.0 (plain straight-through estimator) for scalars.
    return Interval(0.0, 1.0) if isinstance(value, Interval) else 1.0


def round_st(x: Any) -> Any:
    """Straight-through rounding (used by DCT quantisation)."""
    if isinstance(x, ADouble):
        value = ifn.round_st(x.value)
        return x.record_unary("round_st", value, _round_partial(x.value))
    if isinstance(x, Tangent):
        return Tangent(ifn.round_st(x.value), _round_partial(x.value) * x.dot)
    return ifn.round_st(x)


def floor(x: Any) -> Any:
    """Floor with zero derivative (piecewise constant a.e.)."""
    if isinstance(x, ADouble):
        value = ifn.floor(x.value)
        return x.record_unary("floor", value, 0.0)
    if isinstance(x, Tangent):
        zero = Interval(0.0) if isinstance(x.value, Interval) else 0.0
        return Tangent(ifn.floor(x.value), zero)
    return ifn.floor(x)


def pow(x: Any, y: Any) -> Any:
    """Dispatching power (see :meth:`ADouble.__pow__` for taped semantics)."""
    if isinstance(x, (ADouble, Tangent)):
        return x**y
    if isinstance(y, (ADouble, Tangent)):
        return y.__rpow__(x)
    return ifn.pow(x, y)


def hypot(x: Any, y: Any) -> Any:
    """``sqrt(x^2 + y^2)`` in any mode (composed from taped primitives)."""
    if isinstance(x, (ADouble, Tangent)) or isinstance(y, (ADouble, Tangent)):
        return sqrt(x * x + y * y)
    return ifn.hypot(x, y)


def atan2(y: Any, x: Any) -> Any:
    """Two-argument arctangent restricted to ``x > 0`` (see intervals)."""
    if isinstance(y, (ADouble, Tangent)) or isinstance(x, (ADouble, Tangent)):
        return atan(y / x)
    return ifn.atan2(y, x)


def _select_partials(a_val: Any, b_val: Any, picking_min: bool) -> tuple:
    """Subgradient enclosures for min/max in any algebra."""
    if isinstance(a_val, Interval) or isinstance(b_val, Interval):
        from repro.intervals import as_interval

        ia, ib = as_interval(a_val), as_interval(b_val)
        if picking_min:
            if ia.hi <= ib.lo:
                return 1.0, 0.0
            if ib.hi <= ia.lo:
                return 0.0, 1.0
        else:
            if ia.lo >= ib.hi:
                return 1.0, 0.0
            if ib.lo >= ia.hi:
                return 0.0, 1.0
        amb = Interval(0.0, 1.0)
        return amb, amb
    if picking_min:
        return (1.0, 0.0) if a_val <= b_val else (0.0, 1.0)
    return (1.0, 0.0) if a_val >= b_val else (0.0, 1.0)


def _min_max(x: Any, y: Any, picking_min: bool) -> Any:
    op = "min" if picking_min else "max"
    value_fn = ifn.minimum if picking_min else ifn.maximum
    if isinstance(x, ADouble) or isinstance(y, ADouble):
        a = x if isinstance(x, ADouble) else ADouble.constant(
            x, tape=y.tape  # type: ignore[union-attr]
        )
        b = y if isinstance(y, ADouble) else ADouble.constant(y, tape=a.tape)
        value = value_fn(a.value, b.value)
        pa, pb = _select_partials(a.value, b.value, picking_min)
        node = a.tape.record(
            op, value, (a.node.index, b.node.index), (pa, pb)
        )
        return ADouble(value, node, a.tape)
    if isinstance(x, Tangent) or isinstance(y, Tangent):
        a = x if isinstance(x, Tangent) else Tangent.lift(x)
        b = y if isinstance(y, Tangent) else Tangent.lift(y)
        value = value_fn(a.value, b.value)
        pa, pb = _select_partials(a.value, b.value, picking_min)
        return Tangent(value, pa * a.dot + pb * b.dot)
    return value_fn(x, y)


def minimum(x: Any, y: Any) -> Any:
    """Pointwise minimum in any mode."""
    return _min_max(x, y, picking_min=True)


def maximum(x: Any, y: Any) -> Any:
    """Pointwise maximum in any mode."""
    return _min_max(x, y, picking_min=False)


def clip(x: Any, lo: float, hi: float) -> Any:
    """Clamp to ``[lo, hi]`` in any mode (e.g. Sobel's pixel clipping)."""
    if isinstance(x, ADouble):
        value = ifn.clip(x.value, lo, hi)
        if isinstance(x.value, Interval):
            iv = x.value
            if lo <= iv.lo and iv.hi <= hi:
                partial: Any = 1.0
            elif iv.hi < lo or iv.lo > hi:
                partial = 0.0
            else:
                partial = Interval(0.0, 1.0)
        else:
            partial = 1.0 if lo <= x.value <= hi else 0.0
        # Clamp bounds are not recoverable from value/partial; the replay
        # engine needs them to recompute the node on fresh inputs.
        return x.record_unary("clip", value, partial, aux=(lo, hi))
    if isinstance(x, Tangent):
        inner = minimum(maximum(x, lo), hi)
        return inner
    return ifn.clip(x, lo, hi)
