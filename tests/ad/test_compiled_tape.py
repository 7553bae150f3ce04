"""CompiledTape vs the object tape, bit for bit.

The compiled sweep (:class:`repro.ad.compiled.CompiledTape`) promises to
be a pure speedup: identical floating-point results to
:meth:`repro.ad.tape.Tape.adjoint` / ``adjoint_vector`` on any recording,
including the outward-rounding points and the endpoint-rule product
order.  Hypothesis generates random straight-line DAG programs (with
shared subexpressions, so fan-out exercises the adjoint accumulation
order) and we compare every adjoint of every node bitwise.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ad import ADouble, CompiledTape, Tape
from repro.ad import compiled as compiled_module
from repro.ad import intrinsics as op
from repro.intervals import Interval
from repro.intervals.rounding import rounded_mode
from repro.kernels.dct.analysis import _record_dct_block

N_INPUTS = 3

# FLOAT_MAX_WORK values a harness runs at, drawn with the rounding mode:
# None keeps the default, under which these small programs replay and
# sweep on Python floats; 0 sends every step to the array path.
GATES = [None, 0]


@contextmanager
def float_gate(gate):
    """Run the block with ``FLOAT_MAX_WORK`` at ``gate`` (None: default)."""
    with pytest.MonkeyPatch.context() as patch:
        if gate is not None:
            patch.setattr(compiled_module, "FLOAT_MAX_WORK", gate)
        yield

# What each step kind records, operands kept inside the op's domain:
# squares plus a positive constant under roots, logs and division, tanh
# (a range inside [-1, 1]) under exp, cosh, tan and the powers.
# Together they reach every step kind the forward replay has a rule for
# but asin / acos, whose unrounded recording of a near-point operand can
# come out inverted by an ulp (libm is not monotone there), so the
# recording itself refuses it.
KINDS = {
    "add": lambda a, b, c: a + b,
    "sub": lambda a, b, c: a - b,
    "mul": lambda a, b, c: a * b,
    "div": lambda a, b, c: a / (b * b + 1.0),
    "cdiv": lambda a, b, c: a / (abs(c) + 0.5),
    "rdiv": lambda a, b, c: c / (a * a + 0.5),
    "rsub": lambda a, b, c: c - a,
    "neg": lambda a, b, c: -a,
    "abs": lambda a, b, c: abs(a),
    "min": lambda a, b, c: op.minimum(a, b),
    "max": lambda a, b, c: op.maximum(a, b),
    "clip": lambda a, b, c: op.clip(a, -abs(c), abs(c)),
    "sin": lambda a, b, c: op.sin(a),
    "tanh": lambda a, b, c: op.tanh(a),
    "sqr": lambda a, b, c: a * a,
    "sqrt": lambda a, b, c: op.sqrt(a * a + 0.25),
    "exp": lambda a, b, c: op.exp(op.tanh(a)),
    "log": lambda a, b, c: op.log(a * a + 0.5),
    "erf": lambda a, b, c: op.erf(a),
    "erfc": lambda a, b, c: op.erfc(a),
    "cosh": lambda a, b, c: op.cosh(op.tanh(a)),
    "pow3": lambda a, b, c: op.tanh(a) ** 3,
    "floor": lambda a, b, c: op.floor(a),
    "round_st": lambda a, b, c: op.round_st(a),
    "axpc": lambda a, b, c: a * c + c,  # constant partials
    "csub": lambda a, b, c: a - c,
    "cos": lambda a, b, c: op.cos(a),
    "tan": lambda a, b, c: op.tan(op.tanh(a)),
    "sinh": lambda a, b, c: op.sinh(op.tanh(a)),
    "expm1": lambda a, b, c: op.expm1(op.tanh(a)),
    "log1p": lambda a, b, c: op.log1p(a * a),
    "log2": lambda a, b, c: op.log2(a * a + 0.5),
    "log10": lambda a, b, c: op.log10(a * a + 0.5),
    "cbrt": lambda a, b, c: op.cbrt(a * a + 0.5),
    "atan": lambda a, b, c: op.atan(a),
    "pow0": lambda a, b, c: a**0,
    "pow4": lambda a, b, c: op.tanh(a) ** 4,
    "pow-2": lambda a, b, c: (a * a + 0.5) ** -2,
}


@st.composite
def program(draw):
    """A straight-line program over registers; reuse makes it a DAG."""
    n_steps = draw(st.integers(min_value=1, max_value=24))
    steps = []
    for k in range(n_steps):
        nregs = N_INPUTS + k
        kind = draw(st.sampled_from(sorted(KINDS)))
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
        regs.append(KINDS[kind](regs[i], regs[j], c))
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


@given(program(), points, radii, st.booleans(), st.sampled_from(GATES))
@settings(max_examples=80, deadline=None)
def test_scalar_sweep_interval_bitwise(steps, point, radius, rounding, gate):
    with rounded_mode(rounding), float_gate(gate):
        tape, regs = record(
            steps, [Interval.centered(p, radius) for p in point]
        )
        assert_scalar_sweep_matches(tape, regs[-1].node.index)


@given(program(), points, radii, st.booleans(), st.sampled_from(GATES))
@settings(max_examples=60, deadline=None)
def test_vector_sweep_bitwise(steps, point, radius, rounding, gate):
    with rounded_mode(rounding), float_gate(gate):
        tape, regs = record(
            steps, [Interval.centered(p, radius) for p in point]
        )
        outs = sorted({regs[-1].node.index, regs[len(regs) // 2].node.index})
        ref_lo, ref_hi = Tape.adjoint_vector(tape, outs)
        lo, hi = CompiledTape(tape).adjoint_vector(outs)
    assert lo.tobytes() == np.asarray(ref_lo).tobytes()
    assert hi.tobytes() == np.asarray(ref_hi).tobytes()


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
