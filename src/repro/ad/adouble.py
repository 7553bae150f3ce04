"""Overloaded adjoint type — the Python analogue of ``dco::ia1s::type``.

:class:`ADouble` wraps a value and records every elementary operation on
the active :class:`~repro.ad.tape.Tape`.  The wrapped value may be

* an :class:`~repro.intervals.Interval` — interval-adjoint mode, the
  paper's ``dco::ia1s::type`` used for significance analysis, or
* a plain ``float`` — classic scalar adjoint mode (``dco::a1s::type``),
  used in this repository to validate interval derivatives against exact
  gradients and finite differences.

Local partial derivatives are evaluated in the same algebra as the value,
so in interval mode each recorded edge carries an *enclosure* of the
partial derivative over the operand ranges (Eq. 10 of the paper).

Relational operators delegate to the interval comparison semantics: an
ambiguous comparison raises
:class:`~repro.intervals.AmbiguousComparisonError`, mirroring the paper's
Section 2.2 (analysis terminates and the condition is reported).
"""

from __future__ import annotations

from typing import Any, Union

from repro.intervals import Interval, as_interval
from repro.intervals import functions as ifn

from .tape import Node, Tape, require_tape

__all__ = ["ADouble", "IntervalAdjoint"]

_Operand = Union["ADouble", Interval, int, float]


def _coerce_const(value: Any, interval_mode: bool) -> Any:
    """Coerce a passive operand to the algebra of the active computation."""
    if isinstance(value, Interval):
        return value
    value = float(value)
    return Interval(value) if interval_mode else value


class ADouble:
    """A taped (interval-)adjoint scalar.

    Instances are immutable value wrappers; arithmetic produces new
    instances and appends nodes to the tape.  Construct inputs with
    :meth:`input` (registers an input node) and constants either through
    :meth:`constant` or by combining an :class:`ADouble` with plain
    numbers/intervals (which are folded into the operation without creating
    extra nodes, as a compiler folds literals into instructions).
    """

    __slots__ = ("value", "node", "tape")

    def __init__(self, value: Any, node: Node, tape: Tape):
        self.value = value
        self.node = node
        self.tape = tape

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def input(
        cls,
        value: Interval | float,
        label: str | None = None,
        tape: Tape | None = None,
    ) -> "ADouble":
        """Register an input variable (paper macro ``INPUT``, Eq. 1)."""
        tape = require_tape(tape)
        node = tape.record_input(value, label=label)
        return cls(value, node, tape)

    @classmethod
    def constant(
        cls, value: Interval | float, tape: Tape | None = None
    ) -> "ADouble":
        """Record an explicit constant node (e.g. an accumulator init)."""
        tape = require_tape(tape)
        node = tape.record("const", value, (), ())
        return cls(value, node, tape)

    @property
    def interval_mode(self) -> bool:
        """True when this value computes in interval arithmetic."""
        return isinstance(self.value, Interval)

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------
    def _make(
        self,
        op: str,
        value: Any,
        parents: tuple,
        partials: tuple,
        aux: Any = None,
    ) -> "ADouble":
        node = self.tape.record(op, value, parents, partials, aux=aux)
        return type(self)(value, node, self.tape)

    def record_unary(
        self, op: str, value: Any, partial: Any, aux: Any = None
    ) -> "ADouble":
        """Append a unary elementary function node (used by intrinsics)."""
        return self._make(op, value, (self.node.index,), (partial,), aux=aux)

    def _binary(
        self,
        op: str,
        other: _Operand,
        value_fn,
        partial_self_fn,
        partial_other_fn,
        reflected: bool = False,
    ) -> "ADouble":
        if isinstance(other, ADouble):
            if other.tape is not self.tape:
                raise ValueError("operands recorded on different tapes")
            a, b = (other, self) if reflected else (self, other)
            value = value_fn(a.value, b.value)
            return self._make(
                op,
                value,
                (a.node.index, b.node.index),
                (partial_self_fn(a.value, b.value), partial_other_fn(a.value, b.value)),
            )
        const = _coerce_const(other, self.interval_mode)
        if reflected:
            value = value_fn(const, self.value)
            partial = partial_other_fn(const, self.value)
        else:
            value = value_fn(self.value, const)
            partial = partial_self_fn(self.value, const)
        # The folded constant is not always recoverable from value/partial
        # (add/sub/div); stash it so the replay engine can recompute the
        # node on fresh inputs.
        return self._make(
            op, value, (self.node.index,), (partial,), aux=(const, reflected)
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: _Operand) -> "ADouble":
        return self._binary(
            "add", other, lambda a, b: a + b, lambda a, b: 1.0, lambda a, b: 1.0
        )

    def __radd__(self, other: _Operand) -> "ADouble":
        return self.__add__(other)

    def __sub__(self, other: _Operand) -> "ADouble":
        return self._binary(
            "sub", other, lambda a, b: a - b, lambda a, b: 1.0, lambda a, b: -1.0
        )

    def __rsub__(self, other: _Operand) -> "ADouble":
        return self._binary(
            "sub",
            other,
            lambda a, b: a - b,
            lambda a, b: 1.0,
            lambda a, b: -1.0,
            reflected=True,
        )

    def __mul__(self, other: _Operand) -> "ADouble":
        if other is self:
            # Same-node square: each algebra's same-object product applies
            # its sharp square rule (Interval and Tangent both special-case
            # `x * x` on identity), avoiding the dependency-losing generic
            # product.
            value = self.value * self.value
            return self.record_unary("sqr", value, 2.0 * self.value)
        return self._binary(
            "mul", other, lambda a, b: a * b, lambda a, b: b, lambda a, b: a
        )

    def __rmul__(self, other: _Operand) -> "ADouble":
        return self.__mul__(other)

    def __truediv__(self, other: _Operand) -> "ADouble":
        return self._binary(
            "div",
            other,
            lambda a, b: a / b,
            lambda a, b: 1.0 / b,
            lambda a, b: -a / (b * b),
        )

    def __rtruediv__(self, other: _Operand) -> "ADouble":
        return self._binary(
            "div",
            other,
            lambda a, b: a / b,
            lambda a, b: 1.0 / b,
            lambda a, b: -a / (b * b),
            reflected=True,
        )

    def __neg__(self) -> "ADouble":
        return self.record_unary("neg", -self.value, -1.0)

    def __pos__(self) -> "ADouble":
        return self

    def __abs__(self) -> "ADouble":
        value = abs(self.value)
        if self.interval_mode:
            iv: Interval = self.value
            if iv.lo >= 0:
                partial: Any = 1.0
            elif iv.hi <= 0:
                partial = -1.0
            else:
                # |.| is not differentiable at 0; the enclosure of its
                # slopes over an interval spanning 0 is [-1, 1].
                partial = Interval(-1.0, 1.0)
        else:
            partial = 1.0 if self.value >= 0 else -1.0
        return self.record_unary("abs", value, partial)

    def __pow__(self, exponent: _Operand) -> "ADouble":
        if isinstance(exponent, ADouble):
            # General power via exp(e * log(b)) to keep partials elementary.
            from . import intrinsics as _in

            return _in.exp(exponent * _in.log(self))
        if isinstance(exponent, (int, float)) and float(exponent).is_integer():
            n = int(exponent)
            if n == 0:
                one = _coerce_const(1.0, self.interval_mode)
                # x**0 == 1 with zero sensitivity to x; keep the data-flow
                # edge so the DynDFG still shows the dependence (Fig. 3).
                return self.record_unary("pow0", one, 0.0)
            # value ** n dispatches through each algebra's own __pow__
            # (sharp interval rule, Tangent second-order lane, floats).
            value = self.value**n
            partial = float(n) * self.value ** (n - 1)
            return self.record_unary(f"pow{n}", value, partial)
        from . import intrinsics as _in

        return _in.exp(float(exponent) * _in.log(self))

    def __rpow__(self, base: _Operand) -> "ADouble":
        from . import intrinsics as _in

        base = _coerce_const(base, self.interval_mode)
        return _in.exp(self * _in.log(base))

    # ------------------------------------------------------------------
    # Comparisons (interval semantics; ambiguous -> error)
    # ------------------------------------------------------------------
    def _cmp_operand(self, other: _Operand) -> Any:
        if isinstance(other, ADouble):
            return other.value
        return other

    def _guarded_cmp(self, op: str, other: _Operand, outcome: bool) -> bool:
        """Log a decided comparison on the tape (replay divergence check).

        Each guard pins one branch of the recorded straight-line trace:
        ``(op, left_index, right_index | Interval, outcome)``.  Replay
        re-evaluates the same comparison on fresh values and rejects the
        trace if the outcome flips (or turns ambiguous).
        """
        rhs: Any = (
            other.node.index
            if isinstance(other, ADouble)
            else as_interval(other)
        )
        self.tape.guards.append((op, self.node.index, rhs, outcome))
        return outcome

    def __lt__(self, other: _Operand) -> bool:
        if self.interval_mode:
            outcome = self.value < as_interval(self._cmp_operand(other))
            return self._guarded_cmp("lt", other, outcome)
        return self.value < self._cmp_operand(other)

    def __le__(self, other: _Operand) -> bool:
        if self.interval_mode:
            outcome = self.value <= as_interval(self._cmp_operand(other))
            return self._guarded_cmp("le", other, outcome)
        return self.value <= self._cmp_operand(other)

    def __gt__(self, other: _Operand) -> bool:
        if self.interval_mode:
            outcome = self.value > as_interval(self._cmp_operand(other))
            return self._guarded_cmp("gt", other, outcome)
        return self.value > self._cmp_operand(other)

    def __ge__(self, other: _Operand) -> bool:
        if self.interval_mode:
            outcome = self.value >= as_interval(self._cmp_operand(other))
            return self._guarded_cmp("ge", other, outcome)
        return self.value >= self._cmp_operand(other)

    # ------------------------------------------------------------------
    # Conversion / display
    # ------------------------------------------------------------------
    def to_double(self) -> float:
        """Midpoint (interval mode) or value — paper's ``toDouble()``."""
        if isinstance(self.value, Interval):
            return self.value.midpoint
        return float(self.value)

    def __repr__(self) -> str:
        return f"ADouble({self.value}, node=#{self.node.index})"


# Paper-facing alias: ADouble over Interval values *is* dco::ia1s::type.
IntervalAdjoint = ADouble
