"""Microbenchmarks of the analysis substrate itself.

Not a paper figure — engineering numbers for the README: cost of interval
arithmetic, of taping, and of the reverse sweeps, so users can size their
profile runs.
"""

import statistics
import time

import pytest
from record import record_value

from repro.ad import ADouble, CompiledTape, Tape
from repro.ad import intrinsics as op
from repro.intervals import Interval, rounded_mode


def paper_fn(x):
    return op.cos(op.exp(op.sin(x) + x) - x)


def test_interval_arithmetic_kernel(benchmark):
    a = Interval(1.0, 2.0)
    b = Interval(-0.5, 0.7)

    def body():
        total = a
        for _ in range(100):
            total = total * b + a / 3.0 - b
        return total

    result = benchmark(body)
    assert result.lo <= result.hi
    t0 = time.perf_counter()
    body()
    record_value(
        "core.interval_kernel_seconds", time.perf_counter() - t0, ops=300
    )


def test_interval_arithmetic_unrounded(benchmark):
    a = Interval(1.0, 2.0)
    b = Interval(-0.5, 0.7)

    def body():
        with rounded_mode(False):
            total = a
            for _ in range(100):
                total = total * b + a / 3.0 - b
            return total

    result = benchmark(body)
    assert result.lo <= result.hi


def test_tape_recording(benchmark):
    def record():
        with Tape() as tape:
            x = ADouble.input(Interval(0.2, 0.4), tape=tape)
            y = x
            for _ in range(50):
                y = paper_fn(y)
        return tape

    tape = benchmark(record)
    assert len(tape) == 1 + 50 * 5


def test_adjoint_sweep(benchmark):
    with Tape() as tape:
        x = ADouble.input(Interval(0.2, 0.4), tape=tape)
        y = x
        for _ in range(50):
            y = paper_fn(y)

    def sweep():
        return tape.adjoint({y.node.index: Interval(1.0)})

    adjoints = benchmark(sweep)
    assert isinstance(adjoints[x.node.index], Interval)


def test_compiled_adjoint_sweep(benchmark):
    """The frozen-tape sweep on the same 251-node chain as above."""
    with Tape() as tape:
        x = ADouble.input(Interval(0.2, 0.4), tape=tape)
        y = x
        for _ in range(50):
            y = paper_fn(y)

    ct = CompiledTape(tape)

    def sweep():
        return ct.adjoint({y.node.index: 1.0})

    lo, hi = benchmark(sweep)
    assert lo.shape == (len(tape),)
    ref = tape.adjoint({y.node.index: Interval(1.0)})
    assert lo[x.node.index] == ref[x.node.index].lo


def test_vector_adjoint_sweep(benchmark):
    with Tape() as tape:
        x = ADouble.input(Interval(0.2, 0.4), tape=tape)
        outputs = [paper_fn(x * float(k)) for k in range(1, 17)]

    indices = [o.node.index for o in outputs]

    def sweep():
        return tape.adjoint_vector(indices)

    lo, hi = benchmark(sweep)
    assert lo.shape == (len(tape), 16)


FORWARD_CALLS = 200


def test_forward_replay(benchmark):
    """Re-evaluating the frozen trace on new inputs vs re-recording it.

    Recording cost is the number `Tape.record`'s hot-path cleanup (bound
    locals, no tuple re-wrapping) shaves a few percent off — see
    ``test_tape_recording`` above for the recording side.  Replay removes
    that cost class entirely: the same 251-node chain re-evaluates as a
    handful of NumPy sweeps, typically an order of magnitude faster than
    re-recording, while staying bit-identical to it.
    """
    with Tape() as tape:
        x = ADouble.input(Interval(0.2, 0.4), tape=tape)
        y = x
        for _ in range(50):
            y = paper_fn(y)

    ct = CompiledTape(tape)
    new_input = Interval(0.25, 0.35)

    lanes = benchmark(ct.forward, [new_input])

    with Tape() as fresh:
        x2 = ADouble.input(new_input, tape=fresh)
        y2 = x2
        for _ in range(50):
            y2 = paper_fn(y2)
    out = y2.node.index
    assert lanes.value_lo[out, 0] == fresh.nodes[out].value.lo
    assert lanes.value_hi[out, 0] == fresh.nodes[out].value.hi

    # One call's time moves with the host by 2x; the median of many
    # calls does not.
    times = []
    for _ in range(FORWARD_CALLS):
        t0 = time.perf_counter()
        ct.forward([new_input])
        times.append(time.perf_counter() - t0)
    record_value(
        "core.forward_replay_seconds",
        statistics.median(times),
        nodes=len(tape),
        calls=FORWARD_CALLS,
    )
