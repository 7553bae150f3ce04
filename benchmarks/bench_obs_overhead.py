"""Cost of the observability layer on the analysis hot path.

The :mod:`repro.obs` contract is that *disabled* tracing is free: a
``span()`` call is one global attribute check returning a shared no-op
object, and the hot recording loop is not instrumented per-op at all
(`Tape` counts ops in bulk at deactivation).  This benchmark measures the
record+sweep pipeline with tracing off and with tracing on, records the
ratio to ``BENCH_core.json``, and asserts the disabled path stays within
the ISSUE's 2% budget (with slack for timer noise on shared CI runners —
the strict statistical bound lives in ``tests/obs/test_overhead.py``).
The two sides run alternately and compare medians, so a host slowdown
between runs cannot read as overhead.
"""

import statistics
import time

from record import record_value

from repro.ad import ADouble, Tape
from repro.ad import intrinsics as op
from repro.intervals import Interval
from repro.obs import clear, context, set_enabled


def paper_fn(x):
    return op.cos(op.exp(op.sin(x) + x) - x)


def _pipeline():
    with Tape() as tape:
        x = ADouble.input(Interval(0.2, 0.4), tape=tape)
        y = x
        for _ in range(50):
            y = paper_fn(y)
    tape.adjoint({y.node.index: Interval(1.0)})
    return tape


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired_medians(base, other, pairs=7):
    """Median seconds of the timed runs ``base()`` and ``other()``.

    The two sides alternate run by run, so a host slowdown lands on both
    of them instead of reading as overhead.
    """
    base_times, other_times = [], []
    for _ in range(pairs):
        base_times.append(base())
        other_times.append(other())
    return statistics.median(base_times), statistics.median(other_times)


def _traced_run(enabled: bool) -> float:
    set_enabled(enabled)
    return _timed(_pipeline)


def test_disabled_tracing_overhead(benchmark):
    previous = set_enabled(False)
    try:
        disabled, enabled = _paired_medians(
            lambda: _traced_run(False), lambda: _traced_run(True)
        )
    finally:
        set_enabled(previous)
        clear()
    ratio = enabled / disabled
    benchmark(_pipeline)
    record_value(
        "obs.enabled_overhead_ratio",
        ratio,
        unit="ratio",
        disabled_seconds=round(disabled, 6),
        enabled_seconds=round(enabled, 6),
    )
    # Enabled tracing adds a handful of spans around whole sweeps, never
    # per-op work, so even the *enabled* run should stay close to the
    # untraced one.  Generous bound: timer noise dominates at this scale.
    assert ratio < 1.5, f"tracing overhead ratio {ratio:.3f} out of bounds"


def test_context_propagation_overhead():
    """Cost of trace-context stamping on top of enabled tracing.

    With a :class:`~repro.obs.context.TraceContext` active, every span
    additionally mints a child id (one ``os.urandom`` call) and
    sets/resets one contextvar.  That work happens per *span* — a handful
    per sweep — so the traced-with-context pipeline should be
    indistinguishable from the traced-without-context one.
    """
    def in_context() -> float:
        with context.use(context.new_trace()):
            return _timed(_pipeline)

    previous = set_enabled(True)
    try:
        uncontexted, contexted = _paired_medians(
            lambda: _timed(_pipeline), in_context
        )
    finally:
        set_enabled(previous)
        clear()
    ratio = contexted / uncontexted
    record_value(
        "obs.context_overhead_ratio",
        ratio,
        unit="ratio",
        uncontexted_seconds=round(uncontexted, 6),
        contexted_seconds=round(contexted, 6),
    )
    assert ratio < 1.5, f"context overhead ratio {ratio:.3f} out of bounds"
