"""Forward replay of a frozen trace: record once, re-evaluate many times.

:class:`ForwardPlan` compiles a :class:`~repro.ad.compiled.CompiledTape`'s
structure into a level-parallel *forward* schedule so the trace can be
re-evaluated on fresh input intervals as vectorized array sweeps — no
Python operator overloading, no tape appends, no ``Interval`` objects per
node.  This is the engine behind :meth:`CompiledTape.forward` /
:meth:`CompiledTape.forward_lanes` and the scorpio trace cache.

Replayed values and partials are **bit-identical** to re-recording the
same program on the object tape.  That constraint drives every rule here:

* ``+ - * /``, ``sqrt`` and ``floor`` are IEEE-exact and correctly
  rounded, so NumPy array ops match Python ``float`` ops bit for bit and
  can be vectorized directly;
* every outward-rounding point goes through
  :func:`repro.intervals.rounding.down_array` /
  :func:`~repro.intervals.rounding.up_array`, which return exactly the
  bits of ``math.nextafter`` (an int64 step per finite element, libm only
  for ±inf/NaN and for arrays below the primitive's size gate);
* transcendentals (``exp``, ``log``, ``sin`` ...) are *not* guaranteed to
  match libm across NumPy's SIMD paths, so endpoints go through the very
  same :mod:`math` functions the object path calls, element by element
  (:func:`_apply_math`) — still far cheaper than recording because the
  per-node object machinery is gone;
* non-monotone intrinsics with data-dependent control flow in their range
  rule (``sin``/``cos``'s critical-point walk, ``tan``'s pole check,
  ``cosh``) are evaluated per element through the exact scalar functions
  in :mod:`repro.intervals.functions`;
* ``min``/``max`` tie-breaking follows Python's fold-left keep-first
  semantics (strict compares with ``np.where`` or, in :func:`hull`,
  ``np.copyto``).  Where the result is rounded outward next, :func:`hull`
  folds with ``np.minimum``/``np.maximum`` instead: the only ties
  keep-first decides, ``+0`` against ``-0``, round to the same bits;
* squares (``sqr``, ``x ** 2``, the squares inside partials) are IEEE
  products, as in ``Interval._int_pow``; other integer powers go through
  per-element ``float.__pow__``.  Every outward-rounding point of the
  object evaluation is replicated (including the double rounding in
  interval division's reciprocal-then-multiply composition);
* local partials are recomputed as the exact interval-arithmetic
  compositions the intrinsic partial lambdas evaluate during recording
  (e.g. ``tan`` re-derives ``1.0 + r*r`` through the same-object square
  rule and constant-add rounding).

A replay never writes the compiled tape: it evaluates into ``(n, L)``
lane arrays of its own, one lane per input set.  A small replay (see
:data:`repro.ad.compiled.FLOAT_MAX_WORK`) runs the float twins of these
rules instead (:meth:`ForwardPlan.run_floats`, :mod:`repro.ad.floats`);
a large one-lane replay runs :meth:`ForwardPlan.run` on its 1-D columns.
The error messages are defined here once (:func:`domain_error`,
:func:`division_error`, :func:`check_no_nan`) and raised by both.

Replay is only valid for *straight-line* traces: the structure guard
(:class:`ReplayError` at plan build) rejects tapes replay cannot
re-evaluate, and recorded comparison outcomes (``Tape.guards``) are
re-checked on the replayed values (:func:`check_guards`), one rule for any
lane count, so input-dependent control flow surfaces as
:class:`GuardDivergenceError` (or, where a lane cannot decide a recorded
comparison, the :class:`~repro.intervals.AmbiguousComparisonError`
recording raises) instead of a wrong answer.

Error semantics during replay are batch-level: a domain violation (e.g.
``sqrt`` of an interval dipping below zero, division by an interval
containing zero) raises for the whole sweep even when only one lane is
affected, with the same exception type the object recording would raise.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from typing import Any

import numpy as np

from repro.intervals import AmbiguousComparisonError, Interval, as_interval
from repro.intervals import functions as ifn
from repro.intervals.interval import square_overflow
from repro.intervals.rounding import down_array, up_array
from repro.obs import metrics as _metrics

__all__ = ["ForwardPlan", "ReplayError", "GuardDivergenceError", "check_guards"]

_C_GUARD_CHECKS = _metrics.counter("replay.guard_rechecks")
_C_GUARD_DIVERGENCES = _metrics.counter("replay.guard_divergences")

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

_POW_RE = re.compile(r"^pow(-?\d+)$")

_BINARY2 = frozenset(("add", "sub", "mul", "div", "min", "max"))
_MONO_INC = {
    "exp": math.exp,
    "expm1": math.expm1,
    "log": math.log,
    "log1p": math.log1p,
    "log2": math.log2,
    "log10": math.log10,
    "cbrt": math.cbrt,
    "asin": math.asin,
    "atan": math.atan,
    "sinh": math.sinh,
    "tanh": math.tanh,
    "erf": math.erf,
}
_MONO_DEC = {"acos": math.acos, "erfc": math.erfc}
_PER_INTERVAL = {"sin": ifn.sin, "cos": ifn.cos, "tan": ifn.tan, "cosh": ifn.cosh}
_UNARY = (
    frozenset(("neg", "abs", "sqr", "sqrt", "round_st", "floor"))
    | frozenset(_MONO_INC)
    | frozenset(_MONO_DEC)
    | frozenset(_PER_INTERVAL)
)

_GUARD_OPS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}

# The domain of each intrinsic that has one: its failing condition on an
# operand's bounds, written with operators that hold for floats and for
# arrays alike (the array rules reduce it with ``np.any``), and the tail
# of its error message.
DOMAINS = {
    "sqrt": (lambda lo, hi: lo < 0.0, "extends below zero"),
    "log": (lambda lo, hi: lo <= 0.0, "reaches zero or below"),
    "log2": (lambda lo, hi: lo <= 0.0, "reaches zero or below"),
    "log10": (lambda lo, hi: lo <= 0.0, "reaches zero or below"),
    "log1p": (lambda lo, hi: lo <= -1.0, "reaches -1 or below"),
    "asin": (lambda lo, hi: (lo < -1.0) | (hi > 1.0), "leaves [-1, 1]"),
    "acos": (lambda lo, hi: (lo < -1.0) | (hi > 1.0), "leaves [-1, 1]"),
}


class ReplayError(RuntimeError):
    """The recorded trace cannot be replayed on fresh inputs.

    Raised by the structure guard when a tape is not a replayable
    straight-line interval trace: unsupported operations, float-valued
    computed nodes (scalar arithmetic inside an interval trace), or
    constant-operand binaries recorded without their folded-constant
    metadata.  (Float tapes never get here: ``CompiledTape`` refuses
    them.)
    """


class GuardDivergenceError(RuntimeError):
    """A comparison recorded on the tape decided differently on replay.

    The recorded trace is one straight-line branch of the kernel; fresh
    inputs that flip any recorded branch condition would execute
    different code, so replaying the cached trace would silently compute
    the wrong program.  Callers should fall back to re-recording.  (A
    condition the inputs cannot decide raises
    :class:`~repro.intervals.AmbiguousComparisonError`, as recording
    does.)
    """


# ----------------------------------------------------------------------
# Replay errors, raised alike by the array rules and their float twins
# ----------------------------------------------------------------------
def domain_error(name: str) -> ValueError:
    """``name``'s operand left its domain (see :data:`DOMAINS`)."""
    return ValueError(
        f"{name} domain error during replay: an interval {DOMAINS[name][1]}"
    )


def division_error(what: str) -> ZeroDivisionError:
    """A divisor of ``what`` contains zero."""
    return ZeroDivisionError(
        f"interval division by a divisor containing zero while replaying {what}"
    )


def check_no_nan(vlo: np.ndarray, vhi: np.ndarray) -> None:
    """The check after a whole forward replay: no value bound is NaN."""
    if np.isnan(vlo).any() or np.isnan(vhi).any():
        raise ValueError(
            "replay produced NaN interval bounds (an operation is "
            "undefined on these inputs); re-record to locate it"
        )


# ----------------------------------------------------------------------
# Array interval primitives (bit-identical twins of Interval methods)
# ----------------------------------------------------------------------
def _dnr(x: np.ndarray, rnd: bool) -> np.ndarray:
    """Outward-round a lower bound in place (``rounding.down`` on arrays).

    ``x`` must be a fresh temporary the caller owns: every call site
    passes the array an expression just produced.  ``down_array`` matches
    ``math.nextafter`` bitwise for every input, including the NaN / -inf
    pass-through cases ``down`` special-cases.
    """
    return down_array(x, out=x) if rnd else x


def _upr(x: np.ndarray, rnd: bool) -> np.ndarray:
    return up_array(x, out=x) if rnd else x


def hull(
    p1: np.ndarray,
    *rest: np.ndarray,
    rounded: bool = False,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``Interval.__mul__``'s bound rule over endpoint products, in place.

    NaN products (``0·inf``) become 0, then Python's fold-left ``min`` /
    ``max`` over ``p1, *rest`` in order: a later product replaces the
    running bound only when strictly smaller (larger), so ties keep the
    earlier product's bits.  Every product must be an array the caller
    owns.  Returns ``(lo, hi)``: ``lo`` is ``p1``, ``hi`` is ``out`` (a
    new array when None).

    ``rounded=True`` says the caller rounds both bounds outward next.
    The only ties keep-first decides are ``+0`` against ``-0``, and both
    round to the same ``∓tiny``, so the fold is plain ``np.minimum`` /
    ``np.maximum``.  NaN propagates through both, so one check of the
    max fold finds any ``0·inf``; only then are the products cleaned
    and folded again.
    """
    if out is None:
        out = np.empty_like(p1)
    if rounded:
        hi = np.maximum(p1, rest[0], out=out)
        for p in rest[1:]:
            np.maximum(hi, p, out=hi)
        if hi.size and np.isnan(hi.max()):
            for p in (p1, *rest):
                np.copyto(p, 0.0, where=np.isnan(p))
            np.maximum(p1, rest[0], out=hi)
            for p in rest[1:]:
                np.maximum(hi, p, out=hi)
        for p in rest:
            np.minimum(p1, p, out=p1)
        return p1, hi
    for p in (p1, *rest):
        np.copyto(p, 0.0, where=np.isnan(p))
    hi = out
    np.copyto(hi, p1)
    for p in rest:
        np.copyto(hi, p, where=p > hi)
    for p in rest:
        np.copyto(p1, p, where=p < p1)
    return p1, hi


def _keep_first_min(a, b):
    """Python's ``min(a, b)`` (returns ``a`` on ties) as an array op."""
    return np.where(b < a, b, a)


def _keep_first_max(a, b):
    return np.where(b > a, b, a)


def _iadd(alo, ahi, blo, bhi, rnd):
    return _dnr(alo + blo, rnd), _upr(ahi + bhi, rnd)


def _isub(alo, ahi, blo, bhi, rnd):
    return _dnr(alo - bhi, rnd), _upr(ahi - blo, rnd)


def _imul(alo, ahi, blo, bhi, rnd):
    """``Interval.__mul__``: four products in recorded order, NaN → 0,
    fold-left min/max, outward rounding."""
    lo, hi = hull(
        np.asarray(alo * blo),
        np.asarray(alo * bhi),
        np.asarray(ahi * blo),
        np.asarray(ahi * bhi),
        rounded=rnd,
    )
    return _dnr(lo, rnd), _upr(hi, rnd)


def _idiv(alo, ahi, blo, bhi, rnd, what: str):
    """``Interval.__truediv__``: zero check, rounded reciprocal, then the
    full product rule (the double rounding is part of the contract)."""
    if np.any((blo <= 0.0) & (bhi >= 0.0)):
        raise division_error(what)
    rlo = _dnr(1.0 / bhi, rnd)
    rhi = _upr(1.0 / blo, rnd)
    return _imul(alo, ahi, rlo, rhi, rnd)


def _pow_elem(alo, ahi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``x ** n`` of both endpoint arrays, as ``Interval._int_pow`` does.

    Squares are IEEE products, which round correctly; a finite element
    whose square overflows raises ``OverflowError`` like the object
    engine.  Other exponents go element by element through the builtin
    ``pow(x, float(n))``: NumPy's pow is not bit-guaranteed, and CPython
    converts an int exponent to a float before calling libm ``pow``, so
    this is the very call (and the very exceptions) of ``x ** n`` in the
    object engine.
    """
    if n == 2:
        return square_array(alo), square_array(ahi)
    both = np.concatenate((np.ravel(alo), np.ravel(ahi)))
    out = np.fromiter(
        map(pow, both.tolist(), repeat(float(n))), np.float64, both.size
    )
    half = both.size // 2
    return out[:half].reshape(np.shape(alo)), out[half:].reshape(np.shape(ahi))


def square_array(x: np.ndarray) -> np.ndarray:
    """``x * x`` elementwise, raising where ``x ** 2`` would on an element
    (see :func:`repro.intervals.interval.square_overflow`)."""
    sq = np.multiply(x, x)
    # A square is never negative, so only a non-finite maximum can hide an
    # overflow (NaN propagates through ``max``).
    if sq.size and not np.isfinite(sq.max()):
        if (np.isinf(sq) & np.isfinite(x)).any():
            raise square_overflow()
    return sq


def _ipown(alo, ahi, n: int, rnd, what: str = "pow"):
    """``Interval._int_pow``: sign-aware integer power."""
    if n == 0:
        one = np.ones(np.shape(alo), dtype=np.float64)
        return one, one.copy()
    if n < 0:
        dlo, dhi = _ipown(alo, ahi, -n, rnd, what)
        return _idiv(1.0, 1.0, dlo, dhi, rnd, what)
    lo_p, hi_p = _pow_elem(alo, ahi, n)
    if n % 2 == 1:
        lo, hi = lo_p, hi_p
    else:
        pos = alo >= 0.0
        neg = (~pos) & (ahi <= 0.0)
        lo = np.where(pos, lo_p, np.where(neg, hi_p, 0.0))
        hi = np.where(pos, hi_p, np.where(neg, lo_p, _keep_first_max(lo_p, hi_p)))
    return _dnr(lo, rnd), _upr(hi, rnd)


def _apply_math(fn, arr) -> np.ndarray:
    """Map a :mod:`math` function over an array element by element.

    Exceptions (``ValueError`` domain errors, ``OverflowError``) propagate
    exactly as the object recording would raise them.
    """
    arr = np.asarray(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    out = np.fromiter(map(fn, flat.tolist()), np.float64, flat.size)
    return out.reshape(arr.shape)


def _mono_inc(fn, alo, ahi, rnd):
    return _dnr(_apply_math(fn, alo), rnd), _upr(_apply_math(fn, ahi), rnd)


def _mono_dec(fn, alo, ahi, rnd):
    return _dnr(_apply_math(fn, ahi), rnd), _upr(_apply_math(fn, alo), rnd)


def _per_interval(fn, alo, ahi):
    """Element-wise evaluation through the exact scalar interval function.

    Used for the intrinsics whose range rule has data-dependent control
    flow (trig critical points, tan poles, cosh's minimum at zero); the
    scalar function already honours the global rounding flag itself.
    """
    arr_lo = np.asarray(alo, dtype=np.float64)
    shape = arr_lo.shape
    flo = arr_lo.reshape(-1).tolist()
    fhi = np.asarray(ahi, dtype=np.float64).reshape(-1).tolist()
    out_lo = np.empty(len(flo), dtype=np.float64)
    out_hi = np.empty(len(flo), dtype=np.float64)
    for i, (l, h) in enumerate(zip(flo, fhi)):
        r = fn(Interval(l, h))
        out_lo[i] = r.lo
        out_hi[i] = r.hi
    return out_lo.reshape(shape), out_hi.reshape(shape)


# ----------------------------------------------------------------------
# Guard re-checking (straight-line branch validation)
# ----------------------------------------------------------------------
def check_guards(guards, value_lo, value_hi) -> None:
    """Re-evaluate recorded comparison outcomes on replayed ``(n, L)``
    value bounds.

    Each guard, in recorded order, applies the paper's Section 2.2
    decision table per lane.  Decided as recorded in every lane, it
    passes.  Decided the other way in any lane, it raises
    :class:`GuardDivergenceError`: one replay cannot split its lanes
    across branches.  Otherwise some lane cannot decide it, and it raises
    :class:`~repro.intervals.AmbiguousComparisonError` with the operands
    of the first such lane, as recording that lane would.
    """
    _C_GUARD_CHECKS.inc(len(guards))
    for op, left, rhs, outcome in guards:
        llo, lhi = value_lo[left], value_hi[left]
        if isinstance(rhs, Interval):
            rlo, rhi = rhs.lo, rhs.hi
        else:
            rlo, rhi = value_lo[rhs], value_hi[rhs]
        if op == "lt":
            true_m, false_m = lhi < rlo, llo >= rhi
        elif op == "le":
            true_m, false_m = lhi <= rlo, llo > rhi
        elif op == "gt":
            true_m, false_m = llo > rhi, lhi <= rlo
        else:  # ge
            true_m, false_m = llo >= rhi, lhi < rlo
        taken, other = (true_m, false_m) if outcome else (false_m, true_m)
        if taken.all():
            continue
        if other.any():
            _C_GUARD_DIVERGENCES.inc()
            raise GuardDivergenceError(
                f"recorded comparison ({_GUARD_OPS[op]}, outcome {outcome}) "
                f"decided differently on replay inputs; the cached trace is "
                f"one straight-line branch and these inputs take another — "
                f"re-record instead of replaying"
            )
        lane = int(np.argmin(taken))
        right = (
            rhs
            if isinstance(rhs, Interval)
            else Interval(float(rlo[lane]), float(rhi[lane]))
        )
        raise AmbiguousComparisonError(
            _GUARD_OPS[op],
            Interval(float(llo[lane]), float(lhi[lane])),
            right,
        )


# ----------------------------------------------------------------------
# The forward plan
# ----------------------------------------------------------------------
class _Step:
    """One vectorized batch: all same-rule nodes of one forward level."""

    __slots__ = ("idx", "e0", "p0", "p1", "c_lo", "c_hi")

    def __init__(self, idx, e0, p0, p1=None, c_lo=None, c_hi=None):
        self.idx = idx
        self.e0 = e0
        self.p0 = p0
        self.p1 = p1
        self.c_lo = c_lo
        self.c_hi = c_hi


def _point_partials(steps) -> tuple[np.ndarray, np.ndarray]:
    """The edges whose replayed partial is one point constant in every lane.

    These are the edges of ``add``, ``sub`` and ``neg``, of constant
    ``add``/``sub``, and of multiplication by a point constant (bitwise
    ``lo == hi``): :meth:`ForwardPlan._exec` writes the same constant
    into their partial rows on every replay.  Returns ``(edge ids,
    constants)``.
    """
    edges: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def add(ids: np.ndarray, value) -> None:
        edges.append(ids)
        values.append(np.broadcast_to(np.asarray(value, np.float64), ids.shape))

    for key, st in steps:
        if key in (("bin2", "add"), ("bin2", "sub")):
            add(st.e0, 1.0)
            add(st.e0 + 1, 1.0 if key[1] == "add" else -1.0)
        elif key[:2] in (("cbin", "add"), ("cbin", "sub")):
            add(st.e0, -1.0 if key[1] == "sub" and key[2] else 1.0)
        elif key[:2] == ("cbin", "mul"):
            point = st.c_lo.view(np.int64) == st.c_hi.view(np.int64)
            add(st.e0[point], st.c_lo[point])
        elif key == ("un", "neg"):
            add(st.e0, -1.0)
    if not edges:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    return np.concatenate(edges), np.concatenate(values)


class ForwardPlan:
    """Forward-level schedule + per-op recompute rules for one trace.

    Built once per :class:`CompiledTape` (lazily) and reused by every
    replay.  Construction runs the structure guard: it raises
    :class:`ReplayError` if the trace is not replayable.

    ``point_edges`` / ``point_values`` list the edges whose replayed
    partial is one point constant in every lane, with that constant
    (see :func:`_point_partials`); the lane adjoint sweep multiplies by
    them directly instead of gathering their partial rows.

    ``kept_nodes`` / ``kept_edges`` are the value and partial rows that
    neither a step nor the inputs write (recorded constants): an array
    replay fills only those from the recording, and scatters the inputs
    through ``input_rows``, the int64 twin of ``input_nodes``.

    :meth:`run` evaluates the steps on arrays; :meth:`run_floats` runs
    their float twins (:mod:`repro.ad.floats`) lane by lane, from a rule
    table built on its first call and only read after that.
    """

    def __init__(self, ct):
        self.ct = ct
        nodes = ct.tape.nodes
        n = ct.n
        ptr = ct.row_ptr.tolist()
        pidx = ct.parent_idx.tolist()
        op_names = ct.op_names
        opcodes = ct.opcodes.tolist()
        is_iv = ct.value_is_interval

        input_nodes: list[int] = []
        fdepth = [0] * n
        groups: dict[tuple, list[int]] = {}

        for j in range(n):
            op = op_names[opcodes[j]]
            k0, k1 = ptr[j], ptr[j + 1]
            arity = k1 - k0
            if op == "input":
                if not is_iv[j]:
                    raise ReplayError(
                        f"input node #{j} holds a non-interval value; "
                        "replay substitutes interval inputs only"
                    )
                input_nodes.append(j)
                continue
            if op == "const":
                # Recorded constants keep their values; floats act as
                # point intervals downstream, exactly as in recording.
                continue
            if not is_iv[j]:
                raise ReplayError(
                    f"node #{j} ({op!r}) computed a non-interval value; "
                    "the trace mixes scalar arithmetic and cannot be "
                    "replayed on interval inputs"
                )
            d = 0
            for k in range(k0, k1):
                dp = fdepth[pidx[k]]
                if dp > d:
                    d = dp
            fdepth[j] = d + 1

            if arity == 2:
                if op not in _BINARY2:
                    raise ReplayError(
                        f"unsupported two-operand operation {op!r} "
                        f"(node #{j}); replay does not know its rule"
                    )
                key: tuple = ("bin2", op)
            elif arity == 1:
                if op in ("add", "sub", "mul", "div"):
                    aux = nodes[j].aux
                    if not (isinstance(aux, tuple) and len(aux) == 2):
                        raise ReplayError(
                            f"constant-operand {op!r} (node #{j}) was "
                            "recorded without its folded constant (aux); "
                            "re-record the trace with the current tape "
                            "version to enable replay"
                        )
                    key = ("cbin", op, bool(aux[1]))
                elif op == "clip":
                    if nodes[j].aux is None:
                        raise ReplayError(
                            f"clip (node #{j}) recorded without its clamp "
                            "bounds (aux); re-record to enable replay"
                        )
                    key = ("clip",)
                else:
                    m = _POW_RE.match(op)
                    if m:
                        key = ("pow", int(m.group(1)))
                    elif op in _UNARY:
                        key = ("un", op)
                    else:
                        raise ReplayError(
                            f"unsupported operation {op!r} (node #{j}); "
                            "replay does not know its rule"
                        )
            else:
                raise ReplayError(
                    f"operation {op!r} (node #{j}) has {arity} operands; "
                    "replay supports unary and binary nodes only"
                )
            groups.setdefault((fdepth[j], key), []).append(j)

        self.input_nodes = input_nodes
        self.input_rows = np.asarray(input_nodes, dtype=np.int64)
        row_ptr = ct.row_ptr
        parent_idx = ct.parent_idx
        steps: list[tuple[tuple, _Step]] = []
        for (_, key), ids in sorted(groups.items(), key=lambda kv: kv[0][0]):
            idx = np.asarray(ids, dtype=np.int64)
            e0 = row_ptr[idx]
            p0 = parent_idx[e0]
            p1 = parent_idx[e0 + 1] if key[0] == "bin2" else None
            c_lo = c_hi = None
            if key[0] == "cbin":
                consts = [as_interval(nodes[j].aux[0]) for j in ids]
                c_lo = np.fromiter((c.lo for c in consts), np.float64, len(ids))
                c_hi = np.fromiter((c.hi for c in consts), np.float64, len(ids))
            elif key[0] == "clip":
                c_lo = np.fromiter(
                    (float(nodes[j].aux[0]) for j in ids), np.float64, len(ids)
                )
                c_hi = np.fromiter(
                    (float(nodes[j].aux[1]) for j in ids), np.float64, len(ids)
                )
            steps.append((key, _Step(idx, e0, p0, p1, c_lo, c_hi)))
        self._steps = steps
        self.point_edges, self.point_values = _point_partials(steps)
        node_written = np.zeros(n, dtype=bool)
        node_written[self.input_rows] = True
        edge_written = np.zeros(ct.n_edges, dtype=bool)
        for key, st in steps:
            node_written[st.idx] = True
            edge_written[st.e0] = True
            if key[0] == "bin2":
                edge_written[st.e0 + 1] = True
        self.kept_nodes = np.flatnonzero(~node_written)
        self.kept_edges = np.flatnonzero(~edge_written)
        self._float_table: Any = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, vlo, vhi, plo, phi, rnd: bool) -> None:
        """Re-evaluate all non-input nodes in place.

        ``vlo``/``vhi`` are the ``(n,)`` or ``(n, L)`` value bounds with
        input (and recorded constant) rows already filled; ``plo``/``phi``
        the matching ``(e,)`` / ``(e, L)`` edge-partial arrays.
        """
        with np.errstate(all="ignore"):
            for key, st in self._steps:
                self._exec(key, st, vlo, vhi, plo, phi, rnd)
        check_no_nan(vlo, vhi)

    def run_floats(self, inputs_lo, inputs_hi, vlo, vhi, plo, phi, rnd) -> None:
        """:meth:`run` on Python floats, with the inputs scattered too.

        ``inputs_lo`` / ``inputs_hi`` are ``(n_inputs, L)`` bounds and the
        other arrays ``(n, L)`` / ``(e, L)``, written in full.  Each lane
        starts from the recorded columns as lists; the steps run in plan
        order, each over every lane.  Bit for bit, and failure for
        failure, this is :meth:`run` (see :mod:`repro.ad.floats`).
        """
        table = self._float_table
        if table is None:
            from .floats import FloatTable

            table = self._float_table = FloatTable(self)
        lanes = table.run(inputs_lo.T.tolist(), inputs_hi.T.tolist(), rnd)
        for lane, columns in enumerate(lanes):
            for array, column in zip((vlo, vhi, plo, phi), columns):
                array[:, lane] = column
        check_no_nan(vlo, vhi)

    def _exec(self, key, st, vlo, vhi, plo, phi, rnd) -> None:
        kind = key[0]
        idx, e0, p0 = st.idx, st.e0, st.p0
        alo, ahi = vlo[p0], vhi[p0]
        lanes = vlo.ndim > 1

        if kind == "bin2":
            op = key[1]
            e1 = e0 + 1
            blo, bhi = vlo[st.p1], vhi[st.p1]
            if op == "add":
                rlo, rhi = _iadd(alo, ahi, blo, bhi, rnd)
                plo[e0] = 1.0
                phi[e0] = 1.0
                plo[e1] = 1.0
                phi[e1] = 1.0
            elif op == "sub":
                rlo, rhi = _isub(alo, ahi, blo, bhi, rnd)
                plo[e0] = 1.0
                phi[e0] = 1.0
                plo[e1] = -1.0
                phi[e1] = -1.0
            elif op == "mul":
                rlo, rhi = _imul(alo, ahi, blo, bhi, rnd)
                plo[e0] = blo
                phi[e0] = bhi
                plo[e1] = alo
                phi[e1] = ahi
            elif op == "div":
                rlo, rhi = _idiv(alo, ahi, blo, bhi, rnd, "div")
                pa_lo, pa_hi = _idiv(1.0, 1.0, blo, bhi, rnd, "the div partial")
                b2lo, b2hi = _ipown(blo, bhi, 2, rnd)
                pb_lo, pb_hi = _idiv(-ahi, -alo, b2lo, b2hi, rnd, "the div partial")
                plo[e0] = pa_lo
                phi[e0] = pa_hi
                plo[e1] = pb_lo
                phi[e1] = pb_hi
            elif op == "min":
                rlo = _keep_first_min(alo, blo)
                rhi = _keep_first_min(ahi, bhi)
                a_wins = ahi <= blo
                b_wins = bhi <= alo
                self._select_partials(
                    plo, phi, e0, e1, a_wins, b_wins
                )
            else:  # max
                rlo = _keep_first_max(alo, blo)
                rhi = _keep_first_max(ahi, bhi)
                a_wins = alo >= bhi
                b_wins = blo >= ahi
                self._select_partials(
                    plo, phi, e0, e1, a_wins, b_wins
                )
            vlo[idx] = rlo
            vhi[idx] = rhi
            return

        if kind == "cbin":
            op, refl = key[1], key[2]
            clo, chi = st.c_lo, st.c_hi
            if lanes:
                clo = clo[:, None]
                chi = chi[:, None]
            if op == "add":
                # Bitwise commutative: both orders add lo+lo / hi+hi.
                rlo, rhi = _iadd(alo, ahi, clo, chi, rnd)
                plo[e0] = 1.0
                phi[e0] = 1.0
            elif op == "sub":
                if refl:
                    rlo, rhi = _isub(clo, chi, alo, ahi, rnd)
                    plo[e0] = -1.0
                    phi[e0] = -1.0
                else:
                    rlo, rhi = _isub(alo, ahi, clo, chi, rnd)
                    plo[e0] = 1.0
                    phi[e0] = 1.0
            elif op == "mul":
                if refl:
                    rlo, rhi = _imul(clo, chi, alo, ahi, rnd)
                else:
                    rlo, rhi = _imul(alo, ahi, clo, chi, rnd)
                plo[e0] = np.broadcast_to(clo, alo.shape)
                phi[e0] = np.broadcast_to(chi, ahi.shape)
            else:  # div
                if refl:
                    rlo, rhi = _idiv(clo, chi, alo, ahi, rnd, "div")
                    v2lo, v2hi = _ipown(alo, ahi, 2, rnd)
                    pb_lo, pb_hi = _idiv(
                        -chi, -clo, v2lo, v2hi, rnd, "the div partial"
                    )
                    plo[e0] = pb_lo
                    phi[e0] = pb_hi
                else:
                    rlo, rhi = _idiv(alo, ahi, clo, chi, rnd, "div")
                    pa_lo, pa_hi = _idiv(
                        1.0, 1.0, clo, chi, rnd, "the div partial"
                    )
                    plo[e0] = np.broadcast_to(pa_lo, alo.shape)
                    phi[e0] = np.broadcast_to(pa_hi, ahi.shape)
            vlo[idx] = rlo
            vhi[idx] = rhi
            return

        if kind == "clip":
            clo, chi = st.c_lo, st.c_hi
            if lanes:
                clo = clo[:, None]
                chi = chi[:, None]
            t = _keep_first_max(alo, clo)
            rlo = _keep_first_min(t, chi)
            t = _keep_first_max(ahi, clo)
            rhi = _keep_first_min(t, chi)
            inside = (clo <= alo) & (ahi <= chi)
            outside = (ahi < clo) | (alo > chi)
            plo[e0] = np.where(inside, 1.0, 0.0)
            phi[e0] = np.where(outside, 0.0, 1.0)
            vlo[idx] = rlo
            vhi[idx] = rhi
            return

        if kind == "pow":
            nexp = key[1]
            if nexp == 0:
                vlo[idx] = 1.0
                vhi[idx] = 1.0
                plo[e0] = 0.0
                phi[e0] = 0.0
                return
            rlo, rhi = _ipown(alo, ahi, nexp, rnd, f"pow{nexp}")
            ilo, ihi = _ipown(alo, ahi, nexp - 1, rnd, f"pow{nexp - 1}")
            p_lo, p_hi = _imul(ilo, ihi, float(nexp), float(nexp), rnd)
            plo[e0] = p_lo
            phi[e0] = p_hi
            vlo[idx] = rlo
            vhi[idx] = rhi
            return

        # Unary intrinsics.
        name = key[1]
        if name == "neg":
            rlo, rhi = -ahi, -alo
            plo[e0] = -1.0
            phi[e0] = -1.0
        elif name == "abs":
            pos = alo >= 0.0
            neg = (~pos) & (ahi <= 0.0)
            rlo = np.where(pos, alo, np.where(neg, -ahi, 0.0))
            rhi = np.where(
                pos, ahi, np.where(neg, -alo, _keep_first_max(-alo, ahi))
            )
            plo[e0] = np.where(pos, 1.0, -1.0)
            phi[e0] = np.where(pos, 1.0, np.where(neg, -1.0, 1.0))
        elif name == "sqr":
            rlo, rhi = _ipown(alo, ahi, 2, rnd, "sqr")
            p_lo, p_hi = _imul(alo, ahi, 2.0, 2.0, rnd)
            plo[e0] = p_lo
            phi[e0] = p_hi
        elif name == "sqrt":
            if np.any(alo < 0.0):
                raise domain_error("sqrt")
            rlo = _dnr(np.sqrt(alo), rnd)
            rhi = _upr(np.sqrt(ahi), rnd)
            p_lo, p_hi = _idiv(0.5, 0.5, rlo, rhi, rnd, "the sqrt partial")
            plo[e0] = p_lo
            phi[e0] = p_hi
        elif name == "round_st":
            rlo = alo - 0.5
            rhi = ahi + 0.5
            plo[e0] = 0.0
            phi[e0] = 1.0
        elif name == "floor":
            rlo = np.floor(alo)
            rhi = np.floor(ahi)
            plo[e0] = 0.0
            phi[e0] = 0.0
        elif name in _PER_INTERVAL:
            rlo, rhi = _per_interval(_PER_INTERVAL[name], alo, ahi)
            p_lo, p_hi = self._per_interval_partial(name, alo, ahi, rlo, rhi, rnd)
            plo[e0] = p_lo
            phi[e0] = p_hi
        else:
            rlo, rhi = self._monotone_value(name, alo, ahi, rnd)
            p_lo, p_hi = self._monotone_partial(name, alo, ahi, rlo, rhi, rnd)
            plo[e0] = p_lo
            phi[e0] = p_hi
        vlo[idx] = rlo
        vhi[idx] = rhi

    @staticmethod
    def _select_partials(plo, phi, e0, e1, a_wins, b_wins):
        """min/max subgradients with the scalar branch priority.

        ``a_wins`` is checked first (point partial 1.0), then ``b_wins``
        (0.0/1.0), else both operands get the enclosure ``[0, 1]`` —
        including the both-decided tie, where the scalar rule returns the
        first branch.
        """
        plo[e0] = np.where(a_wins, 1.0, 0.0)
        phi[e0] = np.where(a_wins, 1.0, np.where(b_wins, 0.0, 1.0))
        plo[e1] = np.where(~a_wins & b_wins, 1.0, 0.0)
        phi[e1] = np.where(a_wins, 0.0, 1.0)

    @staticmethod
    def _monotone_value(name, alo, ahi, rnd):
        domain = DOMAINS.get(name)
        if domain is not None and np.any(domain[0](alo, ahi)):
            raise domain_error(name)
        fn = _MONO_INC.get(name)
        if fn is not None:
            return _mono_inc(fn, alo, ahi, rnd)
        return _mono_dec(_MONO_DEC[name], alo, ahi, rnd)

    @staticmethod
    def _monotone_partial(name, alo, ahi, rlo, rhi, rnd):
        """The exact interval composition each intrinsic partial records."""
        if name == "exp":
            return rlo.copy(), rhi.copy()
        if name == "expm1":
            return _iadd(rlo, rhi, 1.0, 1.0, rnd)
        if name == "log":
            return _idiv(1.0, 1.0, alo, ahi, rnd, "the log partial")
        if name == "log1p":
            tlo, thi = _iadd(alo, ahi, 1.0, 1.0, rnd)
            return _idiv(1.0, 1.0, tlo, thi, rnd, "the log1p partial")
        if name == "log2" or name == "log10":
            c = _LN2 if name == "log2" else _LN10
            tlo, thi = _imul(alo, ahi, c, c, rnd)
            return _idiv(1.0, 1.0, tlo, thi, rnd, f"the {name} partial")
        if name == "cbrt":
            # 1.0 / (3.0 * r * r): a product by r, not a square.
            tlo, thi = _imul(rlo, rhi, 3.0, 3.0, rnd)
            tlo, thi = _imul(tlo, thi, rlo, rhi, rnd)
            return _idiv(1.0, 1.0, tlo, thi, rnd, "the cbrt partial")
        if name == "asin" or name == "acos":
            v2lo, v2hi = _ipown(alo, ahi, 2, rnd)
            tlo, thi = _isub(1.0, 1.0, v2lo, v2hi, rnd)
            if np.any(tlo < 0.0):
                raise domain_error("sqrt")
            slo = _dnr(np.sqrt(tlo), rnd)
            shi = _upr(np.sqrt(thi), rnd)
            if name == "asin":
                return _idiv(1.0, 1.0, slo, shi, rnd, "the asin partial")
            return _idiv(-1.0, -1.0, slo, shi, rnd, "the acos partial")
        if name == "atan":
            v2lo, v2hi = _ipown(alo, ahi, 2, rnd)
            tlo, thi = _iadd(v2lo, v2hi, 1.0, 1.0, rnd)
            return _idiv(1.0, 1.0, tlo, thi, rnd, "the atan partial")
        if name == "sinh":
            return _per_interval(ifn.cosh, alo, ahi)
        if name == "tanh":
            r2lo, r2hi = _ipown(rlo, rhi, 2, rnd)
            return _isub(1.0, 1.0, r2lo, r2hi, rnd)
        if name == "erf" or name == "erfc":
            v2lo, v2hi = _ipown(alo, ahi, 2, rnd)
            elo, ehi = _mono_inc(math.exp, -v2hi, -v2lo, rnd)
            c = _TWO_OVER_SQRT_PI if name == "erf" else -_TWO_OVER_SQRT_PI
            return _imul(elo, ehi, c, c, rnd)
        raise AssertionError(f"no partial rule for {name!r}")  # pragma: no cover

    def _per_interval_partial(self, name, alo, ahi, rlo, rhi, rnd):
        if name == "sin":
            return _per_interval(ifn.cos, alo, ahi)
        if name == "cos":
            slo, shi = _per_interval(ifn.sin, alo, ahi)
            return -shi, -slo
        if name == "tan":
            r2lo, r2hi = _ipown(rlo, rhi, 2, rnd)
            return _iadd(r2lo, r2hi, 1.0, 1.0, rnd)
        # cosh
        return _mono_inc(math.sinh, alo, ahi, rnd)
