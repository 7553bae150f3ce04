"""Small replays on Python floats: the float twins of the array rules.

A served ``/analyse`` replays a trace of a few dozen edges on one lane.
On arrays that is a few hundred NumPy calls on one-element rows, each
costing far more than the arithmetic it does; the same arithmetic on
Python floats costs a tenth of it.  This module holds the float path of
the compiled engine:

* :class:`FloatTable`, one float rule per :class:`~repro.ad.replay.
  ForwardPlan` step, the twin of :meth:`ForwardPlan._exec
  <repro.ad.replay.ForwardPlan._exec>`, which
  :meth:`ForwardPlan.run_floats <repro.ad.replay.ForwardPlan.run_floats>`
  builds once per plan and runs lane by lane;
* :func:`sweep` and :func:`sweep_vector`, the twins of
  :meth:`CompiledTape._sweep_lanes <repro.ad.compiled.CompiledTape.
  _sweep_lanes>` on one lane: the scalar-seed sweep (rounded or not) and
  the unrounded vector sweep.

:data:`repro.ad.compiled.FLOAT_MAX_WORK` decides, per replay step, which
path runs.  Both give the same bits and raise the same errors, by
construction:

* each rule mirrors its array rule statement by statement: the same
  endpoint products in the same order, the same NaN → 0 cleanup and
  keep-first fold as :func:`repro.ad.replay.hull` (Python's ``min`` /
  ``max`` keep the first of equal operands), the same rounding points
  through :func:`math.nextafter` (whose bits ``down_array`` /
  ``up_array`` reproduce), squares through
  :func:`repro.intervals.interval.square`, and the same :mod:`math` and
  :mod:`repro.intervals.functions` calls;
* where Python floats and NumPy differ, the rules take NumPy's result:
  ``1.0 / 0.0`` is ``inf`` (:func:`_recip`), ``floor`` keeps ``±inf``,
  NaN and ``-0.0`` (:func:`_floor`), and the square root of a negative
  is NaN (:func:`_sqrt`);
* a rule visits its nodes, and each node its lanes, in the row-major
  order of the array rule's ``(k, L)`` operands, and runs one loop per
  array statement that can raise, so the first failure is the array
  rule's.  The messages come from :func:`repro.ad.replay.domain_error`
  and :func:`~repro.ad.replay.division_error`, the NaN check after the
  whole forward is :func:`~repro.ad.replay.check_no_nan` on the result
  arrays, and guards are checked on them as on any replay.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.intervals import Interval
from repro.intervals import functions as ifn
from repro.intervals.interval import square

from .replay import (
    _LN10,
    _LN2,
    _MONO_DEC,
    _MONO_INC,
    _PER_INTERVAL,
    _TWO_OVER_SQRT_PI,
    DOMAINS,
    division_error,
    domain_error,
)

__all__ = ["FloatTable", "sweep", "sweep_vector"]

_nextafter = math.nextafter
_INF = math.inf
_NINF = -math.inf
# The NaN NumPy's square root returns for a negative operand: the
# platform's default NaN, which ``inf - inf`` also produces.
_NAN = _INF - _INF


# ----------------------------------------------------------------------
# Float interval primitives (twins of the array primitives in replay)
# ----------------------------------------------------------------------
def _recip(x: float) -> float:
    """``1.0 / x`` as NumPy divides: ``±inf`` for a zero divisor."""
    return 1.0 / x if x else math.copysign(_INF, x)


def _floor(x: float) -> float:
    """``np.floor``: ``±inf``, NaN and integral values (``-0.0`` too)
    are their own floor, where :func:`math.floor` raises or returns an
    ``int``."""
    if x - x != 0.0:
        return x
    f = float(math.floor(x))
    return x if f == x else f


def _sqrt(x: float) -> float:
    """``np.sqrt``: NaN for a negative operand, where :func:`math.sqrt`
    raises."""
    return _NAN if x < 0.0 else math.sqrt(x)


def _mul(alo, ahi, blo, bhi, rnd):
    """``_imul``: four products in recorded order, NaN → 0, keep-first
    min/max, outward rounding."""
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    if p1 != p1:
        p1 = 0.0
    if p2 != p2:
        p2 = 0.0
    if p3 != p3:
        p3 = 0.0
    if p4 != p4:
        p4 = 0.0
    if rnd:
        return (
            _nextafter(min(p1, p2, p3, p4), _NINF),
            _nextafter(max(p1, p2, p3, p4), _INF),
        )
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def _div(alo, ahi, blo, bhi, rnd, what):
    """``_idiv``: zero check, rounded reciprocal, then the product rule."""
    if blo <= 0.0 and bhi >= 0.0:
        raise division_error(what)
    rlo = _recip(bhi)
    rhi = _recip(blo)
    if rnd:
        rlo = _nextafter(rlo, _NINF)
        rhi = _nextafter(rhi, _INF)
    return _mul(alo, ahi, rlo, rhi, rnd)


def _sq(alo, ahi, rnd):
    """``_ipown(·, 2)``: IEEE squares, sign-aware bounds, rounding."""
    lo_p = square(alo)
    hi_p = square(ahi)
    if alo >= 0.0:
        lo, hi = lo_p, hi_p
    elif ahi <= 0.0:
        lo, hi = hi_p, lo_p
    else:
        lo, hi = 0.0, (hi_p if hi_p > lo_p else lo_p)
    if rnd:
        return _nextafter(lo, _NINF), _nextafter(hi, _INF)
    return lo, hi


def _round(lo: list, hi: list, rnd) -> tuple[list, list]:
    """``_dnr`` / ``_upr`` over lists of bounds."""
    if not rnd:
        return lo, hi
    return (
        [_nextafter(x, _NINF) for x in lo],
        [_nextafter(x, _INF) for x in hi],
    )


def _pown(alo: list, ahi: list, n: int, rnd, what: str):
    """``_ipown`` over lists: each array statement is one pass, so a
    failing power raises before a failing reciprocal, as on arrays."""
    if n == 0:
        return [1.0] * len(alo), [1.0] * len(alo)
    if n < 0:
        dlo, dhi = _pown(alo, ahi, -n, rnd, what)
        out = [_div(1.0, 1.0, l, h, rnd, what) for l, h in zip(dlo, dhi)]
        return [r[0] for r in out], [r[1] for r in out]
    if n == 2:
        lo_p = [square(x) for x in alo]
        hi_p = [square(x) for x in ahi]
    else:
        f = float(n)
        lo_p = [pow(x, f) for x in alo]
        hi_p = [pow(x, f) for x in ahi]
    if n % 2 == 1:
        return _round(lo_p, hi_p, rnd)
    lo, hi = [], []
    for a, b, lp, hp in zip(alo, ahi, lo_p, hi_p):
        if a >= 0.0:
            lo.append(lp)
            hi.append(hp)
        elif b <= 0.0:
            lo.append(hp)
            hi.append(lp)
        else:
            lo.append(0.0)
            hi.append(hp if hp > lp else lp)
    return _round(lo, hi, rnd)


# ----------------------------------------------------------------------
# Step rules.  ``nodes`` holds one tuple per node of the step (node id,
# operand ids, first edge id, constants); ``lanes`` one
# ``(value lo, value hi, partial lo, partial hi)`` list quadruple per lane.
# ----------------------------------------------------------------------
def _bin2_add(nodes, lanes, rnd):
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            lo = vlo[a] + vlo[b]
            hi = vhi[a] + vhi[b]
            if rnd:
                lo = _nextafter(lo, _NINF)
                hi = _nextafter(hi, _INF)
            vlo[j] = lo
            vhi[j] = hi
            plo[e] = phi[e] = plo[e1] = phi[e1] = 1.0


def _bin2_sub(nodes, lanes, rnd):
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            lo = vlo[a] - vhi[b]
            hi = vhi[a] - vlo[b]
            if rnd:
                lo = _nextafter(lo, _NINF)
                hi = _nextafter(hi, _INF)
            vlo[j] = lo
            vhi[j] = hi
            plo[e] = phi[e] = 1.0
            plo[e1] = phi[e1] = -1.0


def _bin2_mul(nodes, lanes, rnd):
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            alo, ahi, blo, bhi = vlo[a], vhi[a], vlo[b], vhi[b]
            vlo[j], vhi[j] = _mul(alo, ahi, blo, bhi, rnd)
            plo[e] = blo
            phi[e] = bhi
            plo[e1] = alo
            phi[e1] = ahi


def _bin2_div(nodes, lanes, rnd):
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j], vhi[j] = _div(vlo[a], vhi[a], vlo[b], vhi[b], rnd, "div")
    squares = []
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            blo, bhi = vlo[b], vhi[b]
            plo[e], phi[e] = _div(1.0, 1.0, blo, bhi, rnd, "the div partial")
            squares.append(_sq(blo, bhi, rnd))
    b2 = iter(squares)
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            b2lo, b2hi = next(b2)
            plo[e1], phi[e1] = _div(
                -vhi[a], -vlo[a], b2lo, b2hi, rnd, "the div partial"
            )


def _select_partials(plo, phi, e, e1, a_wins, b_wins):
    """``ForwardPlan._select_partials`` for one node."""
    plo[e] = 1.0 if a_wins else 0.0
    phi[e] = 1.0 if a_wins else (0.0 if b_wins else 1.0)
    plo[e1] = 1.0 if (not a_wins and b_wins) else 0.0
    phi[e1] = 0.0 if a_wins else 1.0


def _bin2_min(nodes, lanes, rnd):
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            alo, ahi, blo, bhi = vlo[a], vhi[a], vlo[b], vhi[b]
            vlo[j] = blo if blo < alo else alo
            vhi[j] = bhi if bhi < ahi else ahi
            _select_partials(plo, phi, e, e1, ahi <= blo, bhi <= alo)


def _bin2_max(nodes, lanes, rnd):
    for j, a, b, e, e1 in nodes:
        for vlo, vhi, plo, phi in lanes:
            alo, ahi, blo, bhi = vlo[a], vhi[a], vlo[b], vhi[b]
            vlo[j] = blo if blo > alo else alo
            vhi[j] = bhi if bhi > ahi else ahi
            _select_partials(plo, phi, e, e1, alo >= bhi, blo >= ahi)


def _cbin_add(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            lo = vlo[a] + clo
            hi = vhi[a] + chi
            if rnd:
                lo = _nextafter(lo, _NINF)
                hi = _nextafter(hi, _INF)
            vlo[j] = lo
            vhi[j] = hi
            plo[e] = phi[e] = 1.0


def _cbin_sub(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            lo = vlo[a] - chi
            hi = vhi[a] - clo
            if rnd:
                lo = _nextafter(lo, _NINF)
                hi = _nextafter(hi, _INF)
            vlo[j] = lo
            vhi[j] = hi
            plo[e] = phi[e] = 1.0


def _cbin_rsub(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            lo = clo - vhi[a]
            hi = chi - vlo[a]
            if rnd:
                lo = _nextafter(lo, _NINF)
                hi = _nextafter(hi, _INF)
            vlo[j] = lo
            vhi[j] = hi
            plo[e] = phi[e] = -1.0


def _cbin_mul(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j], vhi[j] = _mul(vlo[a], vhi[a], clo, chi, rnd)
            plo[e] = clo
            phi[e] = chi


def _cbin_rmul(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j], vhi[j] = _mul(clo, chi, vlo[a], vhi[a], rnd)
            plo[e] = clo
            phi[e] = chi


def _cbin_div(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j], vhi[j] = _div(vlo[a], vhi[a], clo, chi, rnd, "div")
            plo[e], phi[e] = _div(1.0, 1.0, clo, chi, rnd, "the div partial")


def _cbin_rdiv(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j], vhi[j] = _div(clo, chi, vlo[a], vhi[a], rnd, "div")
    squares = [
        _sq(vlo[a], vhi[a], rnd)
        for j, a, e, clo, chi in nodes
        for vlo, vhi, plo, phi in lanes
    ]
    v2 = iter(squares)
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            v2lo, v2hi = next(v2)
            plo[e], phi[e] = _div(-chi, -clo, v2lo, v2hi, rnd, "the div partial")


def _clip(nodes, lanes, rnd):
    for j, a, e, clo, chi in nodes:
        for vlo, vhi, plo, phi in lanes:
            alo, ahi = vlo[a], vhi[a]
            t = clo if clo > alo else alo
            vlo[j] = chi if chi < t else t
            t = clo if clo > ahi else ahi
            vhi[j] = chi if chi < t else t
            plo[e] = 1.0 if (clo <= alo and ahi <= chi) else 0.0
            phi[e] = 0.0 if (ahi < clo or alo > chi) else 1.0


def _pow_rule(nexp: int) -> Callable:
    """The rule of ``pow<nexp>``: ``_ipown`` for the value, then for the
    partial, each over the whole step."""
    if nexp == 0:

        def pow0(nodes, lanes, rnd):
            for j, a, e in nodes:
                for vlo, vhi, plo, phi in lanes:
                    vlo[j] = vhi[j] = 1.0
                    plo[e] = phi[e] = 0.0

        return pow0
    factor = float(nexp)

    def pow_n(nodes, lanes, rnd):
        alo = [vlo[a] for j, a, e in nodes for vlo, vhi, plo, phi in lanes]
        ahi = [vhi[a] for j, a, e in nodes for vlo, vhi, plo, phi in lanes]
        rlo, rhi = _pown(alo, ahi, nexp, rnd, f"pow{nexp}")
        ilo, ihi = _pown(alo, ahi, nexp - 1, rnd, f"pow{nexp - 1}")
        k = 0
        for j, a, e in nodes:
            for vlo, vhi, plo, phi in lanes:
                plo[e], phi[e] = _mul(ilo[k], ihi[k], factor, factor, rnd)
                vlo[j] = rlo[k]
                vhi[j] = rhi[k]
                k += 1

    return pow_n


def _un_neg(nodes, lanes, rnd):
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j] = -vhi[a]
            vhi[j] = -vlo[a]
            plo[e] = phi[e] = -1.0


def _un_abs(nodes, lanes, rnd):
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            alo, ahi = vlo[a], vhi[a]
            if alo >= 0.0:
                vlo[j], vhi[j] = alo, ahi
                plo[e] = phi[e] = 1.0
            elif ahi <= 0.0:
                vlo[j], vhi[j] = -ahi, -alo
                plo[e] = phi[e] = -1.0
            else:
                t = -alo
                vlo[j], vhi[j] = 0.0, (ahi if ahi > t else t)
                plo[e] = -1.0
                phi[e] = 1.0


def _un_sqr(nodes, lanes, rnd):
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            alo, ahi = vlo[a], vhi[a]
            vlo[j], vhi[j] = _sq(alo, ahi, rnd)
            plo[e], phi[e] = _mul(alo, ahi, 2.0, 2.0, rnd)


def _un_sqrt(nodes, lanes, rnd):
    below = DOMAINS["sqrt"][0]
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            if below(vlo[a], vhi[a]):
                raise domain_error("sqrt")
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            lo = _sqrt(vlo[a])
            hi = _sqrt(vhi[a])
            if rnd:
                lo = _nextafter(lo, _NINF)
                hi = _nextafter(hi, _INF)
            vlo[j] = lo
            vhi[j] = hi
            plo[e], phi[e] = _div(0.5, 0.5, lo, hi, rnd, "the sqrt partial")


def _un_round_st(nodes, lanes, rnd):
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j] = vlo[a] - 0.5
            vhi[j] = vhi[a] + 0.5
            plo[e] = 0.0
            phi[e] = 1.0


def _un_floor(nodes, lanes, rnd):
    for j, a, e in nodes:
        for vlo, vhi, plo, phi in lanes:
            vlo[j] = _floor(vlo[a])
            vhi[j] = _floor(vhi[a])
            plo[e] = phi[e] = 0.0


def _per_interval_rule(name: str) -> Callable:
    """``sin`` / ``cos`` / ``tan`` / ``cosh``: values through the scalar
    interval function, then the partials, each over the whole step."""
    fn = _PER_INTERVAL[name]

    def rule(nodes, lanes, rnd):
        for j, a, e in nodes:
            for vlo, vhi, plo, phi in lanes:
                r = fn(Interval(vlo[a], vhi[a]))
                vlo[j] = r.lo
                vhi[j] = r.hi
        if name == "cosh":
            alo = [vlo[a] for j, a, e in nodes for vlo, vhi, plo, phi in lanes]
            ahi = [vhi[a] for j, a, e in nodes for vlo, vhi, plo, phi in lanes]
            p_lo, p_hi = _mono_inc(math.sinh, alo, ahi, rnd)
            k = 0
            for j, a, e in nodes:
                for vlo, vhi, plo, phi in lanes:
                    plo[e] = p_lo[k]
                    phi[e] = p_hi[k]
                    k += 1
            return
        for j, a, e in nodes:
            for vlo, vhi, plo, phi in lanes:
                if name == "sin":
                    p = ifn.cos(Interval(vlo[a], vhi[a]))
                    plo[e], phi[e] = p.lo, p.hi
                elif name == "cos":
                    p = ifn.sin(Interval(vlo[a], vhi[a]))
                    plo[e], phi[e] = -p.hi, -p.lo
                else:  # tan
                    r2lo, r2hi = _sq(vlo[j], vhi[j], rnd)
                    lo = r2lo + 1.0
                    hi = r2hi + 1.0
                    if rnd:
                        lo = _nextafter(lo, _NINF)
                        hi = _nextafter(hi, _INF)
                    plo[e] = lo
                    phi[e] = hi

    return rule


def _mono_inc(fn, alo: list, ahi: list, rnd):
    """``_mono_inc`` over lists: every lower bound, then every upper."""
    return _round([fn(x) for x in alo], [fn(x) for x in ahi], rnd)


def _mono_dec(fn, alo: list, ahi: list, rnd):
    """``_mono_dec`` over lists: every upper bound, then every lower."""
    lo = [fn(x) for x in ahi]
    return _round(lo, [fn(x) for x in alo], rnd)


def _monotone_partial(name, alo, ahi, rlo, rhi, rnd):
    """``ForwardPlan._monotone_partial`` over lists, one pass per array
    statement."""
    if name == "exp":
        return rlo, rhi
    if name == "expm1":
        return _round([x + 1.0 for x in rlo], [x + 1.0 for x in rhi], rnd)
    if name == "sinh":
        out = [ifn.cosh(Interval(l, h)) for l, h in zip(alo, ahi)]
        return [r.lo for r in out], [r.hi for r in out]
    if name in ("log", "log1p", "log2", "log10"):
        if name == "log1p":
            tlo, thi = _round([x + 1.0 for x in alo], [x + 1.0 for x in ahi], rnd)
        elif name == "log":
            tlo, thi = alo, ahi
        else:
            c = _LN2 if name == "log2" else _LN10
            t = [_mul(l, h, c, c, rnd) for l, h in zip(alo, ahi)]
            tlo, thi = [r[0] for r in t], [r[1] for r in t]
        what = f"the {name} partial"
        out = [_div(1.0, 1.0, l, h, rnd, what) for l, h in zip(tlo, thi)]
        return [r[0] for r in out], [r[1] for r in out]
    if name == "tanh":
        sq = [_sq(l, h, rnd) for l, h in zip(rlo, rhi)]
        return _round([1.0 - h for l, h in sq], [1.0 - l for l, h in sq], rnd)
    if name == "cbrt":
        t = [_mul(l, h, 3.0, 3.0, rnd) for l, h in zip(rlo, rhi)]
        t = [_mul(tl, th, l, h, rnd) for (tl, th), l, h in zip(t, rlo, rhi)]
        out = [_div(1.0, 1.0, l, h, rnd, "the cbrt partial") for l, h in t]
        return [r[0] for r in out], [r[1] for r in out]
    # asin, acos, atan, erf, erfc: functions of the operand's square.
    sq = [_sq(l, h, rnd) for l, h in zip(alo, ahi)]
    if name == "atan":
        tlo, thi = _round([l + 1.0 for l, h in sq], [h + 1.0 for l, h in sq], rnd)
        what = "the atan partial"
        out = [_div(1.0, 1.0, l, h, rnd, what) for l, h in zip(tlo, thi)]
        return [r[0] for r in out], [r[1] for r in out]
    if name in ("erf", "erfc"):
        elo, ehi = _mono_inc(math.exp, [-h for l, h in sq], [-l for l, h in sq], rnd)
        c = _TWO_OVER_SQRT_PI if name == "erf" else -_TWO_OVER_SQRT_PI
        out = [_mul(l, h, c, c, rnd) for l, h in zip(elo, ehi)]
        return [r[0] for r in out], [r[1] for r in out]
    # asin, acos
    tlo, thi = _round([1.0 - h for l, h in sq], [1.0 - l for l, h in sq], rnd)
    if any(x < 0.0 for x in tlo):
        raise domain_error("sqrt")
    slo, shi = _round([_sqrt(x) for x in tlo], [_sqrt(x) for x in thi], rnd)
    one = 1.0 if name == "asin" else -1.0
    what = f"the {name} partial"
    out = [_div(one, one, l, h, rnd, what) for l, h in zip(slo, shi)]
    return [r[0] for r in out], [r[1] for r in out]


def _monotone_rule(name: str) -> Callable:
    """A monotone intrinsic: domain check, values, partials, each over
    the whole step."""
    domain = DOMAINS.get(name)
    inc = _MONO_INC.get(name)

    def rule(nodes, lanes, rnd):
        alo = [vlo[a] for j, a, e in nodes for vlo, vhi, plo, phi in lanes]
        ahi = [vhi[a] for j, a, e in nodes for vlo, vhi, plo, phi in lanes]
        if domain is not None and any(map(domain[0], alo, ahi)):
            raise domain_error(name)
        if inc is not None:
            rlo, rhi = _mono_inc(inc, alo, ahi, rnd)
        else:
            rlo, rhi = _mono_dec(_MONO_DEC[name], alo, ahi, rnd)
        p_lo, p_hi = _monotone_partial(name, alo, ahi, rlo, rhi, rnd)
        k = 0
        for j, a, e in nodes:
            for vlo, vhi, plo, phi in lanes:
                vlo[j] = rlo[k]
                vhi[j] = rhi[k]
                plo[e] = p_lo[k]
                phi[e] = p_hi[k]
                k += 1

    return rule


_BIN2 = {
    "add": _bin2_add,
    "sub": _bin2_sub,
    "mul": _bin2_mul,
    "div": _bin2_div,
    "min": _bin2_min,
    "max": _bin2_max,
}
# (op, reflected) -> rule of a binary with one folded constant.
_CBIN = {
    ("add", False): _cbin_add,
    ("add", True): _cbin_add,  # bitwise commutative
    ("sub", False): _cbin_sub,
    ("sub", True): _cbin_rsub,
    ("mul", False): _cbin_mul,
    ("mul", True): _cbin_rmul,
    ("div", False): _cbin_div,
    ("div", True): _cbin_rdiv,
}
_UN = {
    "neg": _un_neg,
    "abs": _un_abs,
    "sqr": _un_sqr,
    "sqrt": _un_sqrt,
    "round_st": _un_round_st,
    "floor": _un_floor,
}


def _rule(key: tuple) -> Callable:
    """The float rule of one :class:`~repro.ad.replay.ForwardPlan` step key."""
    kind = key[0]
    if kind == "bin2":
        return _BIN2[key[1]]
    if kind == "cbin":
        return _CBIN[key[1], key[2]]
    if kind == "clip":
        return _clip
    if kind == "pow":
        return _pow_rule(key[1])
    name = key[1]
    if name in _UN:
        return _UN[name]
    if name in _PER_INTERVAL:
        return _per_interval_rule(name)
    return _monotone_rule(name)


class FloatTable:
    """One plan's float rules, with the recorded columns each lane starts
    from.  Built once per :class:`~repro.ad.replay.ForwardPlan` and only
    read after that, so concurrent replays share it."""

    __slots__ = ("rules", "input_nodes", "columns")

    def __init__(self, plan: Any):
        ct = plan.ct
        rules: list[tuple[Callable, list[tuple]]] = []
        for key, st in plan._steps:
            ids = st.idx.tolist()
            e0 = st.e0.tolist()
            p0 = st.p0.tolist()
            if key[0] == "bin2":
                nodes = list(
                    zip(ids, p0, st.p1.tolist(), e0, [e + 1 for e in e0])
                )
            elif st.c_lo is not None:
                nodes = list(zip(ids, p0, e0, st.c_lo.tolist(), st.c_hi.tolist()))
            else:
                nodes = list(zip(ids, p0, e0))
            rules.append((_rule(key), nodes))
        self.rules = rules
        self.input_nodes = plan.input_nodes
        self.columns = (
            ct.value_lo.tolist(),
            ct.value_hi.tolist(),
            ct.partial_lo.tolist(),
            ct.partial_hi.tolist(),
        )

    def run(self, inputs_lo: list, inputs_hi: list, rnd: bool) -> list[tuple]:
        """Replay each lane's inputs (one list of bounds per lane) and
        return one ``(value lo, value hi, partial lo, partial hi)`` list
        quadruple per lane."""
        vlo0, vhi0, plo0, phi0 = self.columns
        lanes = []
        for ins_lo, ins_hi in zip(inputs_lo, inputs_hi):
            vlo = vlo0.copy()
            vhi = vhi0.copy()
            for j, lo, hi in zip(self.input_nodes, ins_lo, ins_hi):
                vlo[j] = lo
                vhi[j] = hi
            lanes.append((vlo, vhi, plo0.copy(), phi0.copy()))
        for rule, nodes in self.rules:
            rule(nodes, lanes, rnd)
        return lanes


# ----------------------------------------------------------------------
# The reverse sweep on one lane
# ----------------------------------------------------------------------
def sweep(order, parents, plo, phi, alo, ahi, rnd) -> None:
    """The scalar-seed sweep of one lane, in place on ``alo`` / ``ahi``.

    ``order`` lists ``(node, first edge, end edge)`` for every node with
    parents, in descending node order; ``parents`` and ``plo`` / ``phi``
    are per edge.  A node whose adjoint is exactly zero contributes
    nothing, and each parent accumulates in descending consumer order,
    then parent position: the order the lane sweep keeps.  Products put
    the partial first.  When both partial bounds are equal the other two
    products repeat the first two, and the keep-first fold never picks a
    repeat, so two products suffice.
    """
    nextafter, inf, ninf, lowest, highest = _nextafter, _INF, _NINF, min, max
    for j, k0, k1 in order:
        al = alo[j]
        ah = ahi[j]
        if al == 0.0 and ah == 0.0:
            continue
        for k in range(k0, k1):
            pl = plo[k]
            ph = phi[k]
            p1 = pl * al
            p2 = pl * ah
            if p1 != p1:
                p1 = 0.0
            if p2 != p2:
                p2 = 0.0
            if pl == ph:
                if p2 < p1:
                    lo, hi = p2, p1
                else:
                    lo = p1
                    hi = p2 if p2 > p1 else p1
            else:
                p3 = ph * al
                p4 = ph * ah
                if p3 != p3:
                    p3 = 0.0
                if p4 != p4:
                    p4 = 0.0
                lo = lowest(p1, p2, p3, p4)
                hi = highest(p1, p2, p3, p4)
            d = parents[k]
            if rnd:
                alo[d] = nextafter(alo[d] + nextafter(lo, ninf), ninf)
                ahi[d] = nextafter(ahi[d] + nextafter(hi, inf), inf)
            else:
                alo[d] += lo
                ahi[d] += hi


def sweep_vector(order, parents, plo, phi, alo, ahi, m: int) -> None:
    """The vector sweep of one lane, in place on flat ``(n * m)`` lists
    (node ``j``'s components at ``j * m`` on).

    Unrounded, NaN kept, with the lane sweep's fold: ``min(min(p1, p2),
    min(p3, p4))`` and the same for ``max``, where ``np.minimum`` /
    ``np.maximum`` return a NaN operand (the first of two) and, on ties,
    including ``±0``, the second operand.  When both partial bounds are
    the same nonzero float, ``p3`` and ``p4`` are ``p1`` and ``p2`` bit
    for bit, and so is their fold.  A node is skipped only when every
    component of its adjoint is zero.
    """
    for j, k0, k1 in order:
        base = j * m
        al_j = alo[base : base + m]
        ah_j = ahi[base : base + m]
        if not (any(al_j) or any(ah_j)):
            continue
        for k in range(k0, k1):
            pl = plo[k]
            ph = phi[k]
            d = parents[k] * m
            point = pl == ph and pl != 0.0
            for i in range(m):
                al = al_j[i]
                ah = ah_j[i]
                p1 = pl * al
                p2 = pl * ah
                lo = p1 if (p1 < p2 or p1 != p1) else p2
                hi = p1 if (p1 > p2 or p1 != p1) else p2
                if not point:
                    p3 = ph * al
                    p4 = ph * ah
                    t = p3 if (p3 < p4 or p3 != p3) else p4
                    lo = lo if (lo < t or lo != lo) else t
                    t = p3 if (p3 > p4 or p3 != p3) else p4
                    hi = hi if (hi > t or hi != hi) else t
                alo[d + i] += lo
                ahi[d + i] += hi
