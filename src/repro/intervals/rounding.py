"""Directed (outward) rounding support for rigorous interval arithmetic.

IEEE-754 binary64 arithmetic in CPython rounds to nearest.  Interval
arithmetic needs *outward* rounding: lower bounds rounded toward -inf and
upper bounds toward +inf, so that the computed interval always encloses the
exact real-valued result.  CPython offers no portable access to the FPU
rounding mode, so we emulate directed rounding by nudging each bound one ULP
outward with :func:`math.nextafter`.  The resulting enclosures are slightly
wider than optimal (by at most one ULP per bound per operation) but are
guaranteed to contain the exact result, which is the property significance
analysis relies on.

Outward rounding costs roughly 2x per elementary operation.  For profile
runs where rigour is not required (e.g. quick significance sketches) it can
be disabled process-wide or within a scope::

    with rounded_mode(False):
        ...  # fast, round-to-nearest interval arithmetic

The flag is intentionally a module-level global rather than thread-local:
analysis profile runs are single-threaded by construction (the DynDFG tape
is a sequential recording).

The array engines (forward replay, compiled reverse sweeps, Eq. 11 on
arrays) round with :func:`down_array` / :func:`up_array`, the array twins
of :func:`down` / :func:`up`.  They return exactly the bits of
``np.nextafter(x, -inf)`` / ``np.nextafter(x, +inf)`` — and so of the
object engine's :func:`math.nextafter` — without a libm call per element:
a finite float64 is one integer step away from its neighbour in its int64
view.  Below :data:`INT_STEP_MIN_SIZE` elements they call ``np.nextafter``
directly, where a handful of NumPy calls would cost more than the libm
loop.  Unlike :func:`down` / :func:`up` they do not read the rounding
flag: the sweeps read it once per call and skip rounding themselves.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "down",
    "up",
    "down_array",
    "up_array",
    "INT_STEP_MIN_SIZE",
    "outward",
    "rounding_enabled",
    "set_rounding",
    "rounded_mode",
]

_INF = math.inf

# Arrays with fewer elements than this round through ``np.nextafter``: the
# integer step's fixed cost of some eight NumPy calls (3-4 us) beats the
# per-element libm call (8-15 ns) only from about 512 elements on a
# 2-vCPU Xeon VM (Python 3.11, NumPy 2.4).  A served request for a small
# kernel rounds 50-160 arrays of under 100 elements, all below it.
INT_STEP_MIN_SIZE = 512

# Process-wide switch; see module docstring for why this is not thread-local.
_ROUNDING_ENABLED = True


def rounding_enabled() -> bool:
    """Return ``True`` when outward rounding is active."""
    return _ROUNDING_ENABLED


def set_rounding(enabled: bool) -> None:
    """Globally enable or disable outward rounding."""
    global _ROUNDING_ENABLED
    _ROUNDING_ENABLED = bool(enabled)


@contextmanager
def rounded_mode(enabled: bool) -> Iterator[None]:
    """Temporarily enable/disable outward rounding within a ``with`` block."""
    previous = _ROUNDING_ENABLED
    set_rounding(enabled)
    try:
        yield
    finally:
        set_rounding(previous)


def down(value: float) -> float:
    """Round ``value`` one ULP toward -infinity (when rounding is enabled).

    NaN is passed through unchanged; -inf is already the lowest bound.
    """
    if not _ROUNDING_ENABLED:
        return value
    if value != value or value == -_INF:  # NaN or -inf
        return value
    return math.nextafter(value, -_INF)


def up(value: float) -> float:
    """Round ``value`` one ULP toward +infinity (when rounding is enabled)."""
    if not _ROUNDING_ENABLED:
        return value
    if value != value or value == _INF:  # NaN or +inf
        return value
    return math.nextafter(value, _INF)


def outward(lo: float, hi: float) -> tuple[float, float]:
    """Round the pair ``(lo, hi)`` outward, returning the widened bounds."""
    return down(lo), up(hi)


def down_array(x, out=None):
    """``np.nextafter(x, -inf)`` elementwise, bit for bit, without libm.

    Finite elements step their int64 view: ``x`` is negated with zeros
    folded to ``+0`` (``0.0 - x``), stepped up as in :func:`up_array` and
    negated back, so both zeros become ``-tiny`` exactly as libm does.
    ``±inf`` and NaN elements go through ``np.nextafter`` itself.  ``out``
    may alias ``x``.  Arrays below :data:`INT_STEP_MIN_SIZE` elements (and
    non-float64 input) take ``np.nextafter`` directly.
    """
    x = np.asarray(x)
    if x.size < INT_STEP_MIN_SIZE or x.dtype != np.float64:
        return np.nextafter(x, -_INF, out=out)
    special, saved = _non_finite(x)
    result = np.subtract(0.0, x, out=out)
    _step_up(result)
    np.negative(result, out=result)
    if special is not None:
        result[special] = np.nextafter(saved, -_INF)
    return result


def up_array(x, out=None):
    """``np.nextafter(x, +inf)`` elementwise, bit for bit, without libm.

    Finite elements step their int64 view after ``x + 0.0`` folds ``-0``
    to ``+0``, so both zeros become ``+tiny``; see :func:`down_array` for
    the non-finite elements, ``out`` and the size gate.
    """
    x = np.asarray(x)
    if x.size < INT_STEP_MIN_SIZE or x.dtype != np.float64:
        return np.nextafter(x, _INF, out=out)
    special, saved = _non_finite(x)
    result = np.add(x, 0.0, out=out)
    _step_up(result)
    if special is not None:
        result[special] = np.nextafter(saved, _INF)
    return result


def _non_finite(x):
    """The mask of ``x``'s ±inf/NaN elements and their values, or Nones.

    Read before the result is written, since ``out`` may alias ``x``.
    """
    finite = np.isfinite(x)
    if finite.all():
        return None, None
    special = ~finite
    return special, x[special]


def _step_up(values) -> None:
    """Step every finite float64 in ``values`` one ULP toward +inf, in place.

    For an int64 view ``i`` of a value other than ``-0``, the next float
    up is ``i + 1`` when the sign bit is clear and ``i - 1`` when it is set
    (the magnitude shrinks), i.e. ``i + ((i >> 63) | 1)``; ``+0`` steps to
    the smallest subnormal.  Callers fold ``-0`` to ``+0`` first.
    """
    bits = values.view(np.int64)
    step = np.right_shift(bits, 63)
    step |= 1
    bits += step
