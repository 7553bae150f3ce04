"""CompiledTape vs the object tape, bit for bit.

The compiled sweep (:class:`repro.ad.compiled.CompiledTape`) promises to
be a pure speedup: identical floating-point results to
:meth:`repro.ad.tape.Tape.adjoint` / ``adjoint_vector`` on any recording,
including the outward-rounding points and the endpoint-rule product
order.  Hypothesis generates random straight-line DAG programs (with
shared subexpressions, so fan-out exercises the adjoint accumulation
order) and we compare every adjoint of every node bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ad import ADouble, CompiledTape, Tape
from repro.ad import intrinsics as op
from repro.intervals import Interval
from repro.intervals.rounding import rounded_mode
from repro.kernels.dct.analysis import _record_dct_block

N_INPUTS = 3


@st.composite
def program(draw):
    """A straight-line program over registers; reuse makes it a DAG."""
    n_steps = draw(st.integers(min_value=1, max_value=24))
    steps = []
    for k in range(n_steps):
        nregs = N_INPUTS + k
        kind = draw(
            st.sampled_from(
                ["add", "sub", "mul", "sin", "tanh", "sqr", "axpc"]
            )
        )
        i = draw(st.integers(0, nregs - 1))
        j = draw(st.integers(0, nregs - 1))
        c = draw(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
        )
        steps.append((kind, i, j, c))
    return steps


def run_program(steps, xs):
    regs = list(xs)
    for kind, i, j, c in steps:
        a, b = regs[i], regs[j]
        if kind == "add":
            regs.append(a + b)
        elif kind == "sub":
            regs.append(a - b)
        elif kind == "mul":
            regs.append(a * b)
        elif kind == "sin":
            regs.append(op.sin(a))
        elif kind == "tanh":
            regs.append(op.tanh(a))
        elif kind == "sqr":
            regs.append(a * a)
        else:  # a*c + c: exercises constant partials
            regs.append(a * c + c)
    return regs


def record(steps, values):
    tape = Tape()
    with tape:
        xs = [
            ADouble.input(v, label=f"x{i}") for i, v in enumerate(values)
        ]
        regs = run_program(steps, xs)
    return tape, regs


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_scalar_sweep_matches(tape, out_index):
    ref = Tape.adjoint(tape, {out_index: 1.0})
    ct = CompiledTape(tape)
    lo, hi = ct.adjoint({out_index: 1.0})
    assert len(ct) == len(tape)
    for k, r in enumerate(ref):
        assert bits(lo[k]) == bits(r.lo), f"node {k} lo"
        assert bits(hi[k]) == bits(r.hi), f"node {k} hi"


points = st.lists(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    min_size=N_INPUTS,
    max_size=N_INPUTS,
)
radii = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


@given(program(), points, radii, st.booleans())
@settings(max_examples=60, deadline=None)
def test_scalar_sweep_interval_bitwise(steps, point, radius, rounding):
    with rounded_mode(rounding):
        tape, regs = record(
            steps, [Interval.centered(p, radius) for p in point]
        )
        assert_scalar_sweep_matches(tape, regs[-1].node.index)


@given(program(), points, radii)
@settings(max_examples=40, deadline=None)
def test_vector_sweep_bitwise(steps, point, radius):
    tape, regs = record(
        steps, [Interval.centered(p, radius) for p in point]
    )
    outs = sorted({regs[-1].node.index, regs[len(regs) // 2].node.index})
    ref_lo, ref_hi = Tape.adjoint_vector(tape, outs)
    lo, hi = CompiledTape(tape).adjoint_vector(outs)
    assert np.array_equal(lo, np.asarray(ref_lo))
    assert np.array_equal(hi, np.asarray(ref_hi))


class TestStructure:
    def _tape(self):
        tape = Tape()
        with tape:
            a = ADouble.input(Interval.centered(2.0, 0.1), label="a")
            b = ADouble.input(Interval.centered(3.0, 0.1), label="b")
            y = a * b + a
        return tape, y

    def test_columns_and_labels(self):
        tape, y = self._tape()
        ct = CompiledTape(tape)
        assert ct.n == len(tape)
        assert ct.interval_mode
        assert ct.labels[0] == "a" and ct.labels[1] == "b"
        assert ct.op_name(y.node.index) == tape[y.node.index].op
        assert ct.parents_of(y.node.index).tolist() == list(
            tape[y.node.index].parents
        )

    def test_from_tape_roundtrip(self):
        tape, y = self._tape()
        ct = CompiledTape.from_tape(tape)
        lo, hi = ct.adjoint({y.node.index: 1.0})
        ref = Tape.adjoint(tape, {y.node.index: 1.0})
        assert lo[0] == ref[0].lo and hi[0] == ref[0].hi

    def test_adjoints_are_fresh_arrays(self):
        """Compiled reports close over the returned bounds, so no later
        sweep may write them: each call returns its own arrays."""
        tape, y = self._tape()
        ct = CompiledTape(tape)
        first = ct.adjoint({y.node.index: 1.0})
        again = ct.adjoint({y.node.index: 2.0})
        columns = (ct.value_lo, ct.value_hi, ct.partial_lo, ct.partial_hi)
        for a in first:
            assert not any(np.shares_memory(a, b) for b in again + columns)
        assert first[0][0] != again[0][0]

    def test_seed_validation(self):
        tape, _ = self._tape()
        ct = CompiledTape(tape)
        with pytest.raises(ValueError):
            ct.adjoint({})
        with pytest.raises(IndexError):
            ct.adjoint({len(tape) + 3: 1.0})

    def test_empty_tape(self):
        ct = CompiledTape(Tape())
        assert ct.n == 0 and len(ct) == 0

    def test_float_tape_refused(self):
        """The sweep implements the interval rule only: a tape with no
        interval value is refused, by both constructors."""
        tape = Tape()
        with tape:
            a = ADouble.input(2.0, label="a")
            _ = a * 3.0 + a
        with pytest.raises(ValueError, match="interval tapes only"):
            CompiledTape(tape)
        ct = CompiledTape(self._tape()[0])
        columns = {
            name: getattr(ct, name)
            for name in (
                "opcodes", "op_names", "value_lo", "value_hi", "row_ptr",
                "parent_idx", "partial_lo", "partial_hi",
            )
        }
        rebuilt = CompiledTape.from_arrays(
            value_is_interval=ct.value_is_interval, **columns
        )
        assert rebuilt.interval_mode
        with pytest.raises(ValueError, match="interval tapes only"):
            CompiledTape.from_arrays(
                value_is_interval=np.zeros_like(ct.value_is_interval),
                **columns,
            )


def _held_bytes(obj, seen=None) -> int:
    """Bytes of the NumPy arrays reachable from ``obj`` through attributes
    and containers, the object tape excluded."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, Tape):
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        for slot in getattr(type(obj), "__slots__", ()):
            children.append(getattr(obj, slot, None))
    return sum(_held_bytes(child, seen) for child in children)


def test_warm_vector_sweep_keeps_no_buffer_on_the_tape():
    """A warm dct vector sweep (64 outputs) leaves the tape as it was:
    its work rows live in the thread's lane workspace, not on the tape."""
    an = _record_dct_block(
        [Interval.centered(float(v), 0.5) for v in range(64)]
    )
    outs = [o.node.index for o in an._outputs]
    ct = CompiledTape(an.tape)
    first = ct.adjoint_vector(outs)
    held = _held_bytes(ct)
    second = ct.adjoint_vector(outs)
    assert _held_bytes(ct) == held
    assert held < ct.n_edges * len(outs) * 8
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(a, b)
