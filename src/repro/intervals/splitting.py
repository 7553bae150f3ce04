"""Automatic interval splitting for ambiguous branch conditions.

Section 2.2 of the paper: when a comparison such as ``c < [x]`` is
ambiguous, the analysis terminates and reports the condition; circumventing
this "by an automatic interval splitting approach is part of ongoing
research".  This module implements that ongoing-research feature: it
re-runs an interval computation on recursively bisected sub-boxes until
every branch condition is decidable on each sub-box, then hulls the
partial results.

This turns programs with data-dependent control flow (e.g. the clipping
branch of Sobel) into analysable ones at the cost of multiple profile runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .boxes import Box
from .interval import AmbiguousComparisonError, Interval, as_interval

__all__ = [
    "SplitResult",
    "ReplayEvaluator",
    "split_until_decidable",
    "evaluate_with_splitting",
]


@dataclass
class SplitResult:
    """Outcome of a splitting evaluation.

    Attributes:
        value: hull of the per-sub-box result intervals.
        boxes: the decidable sub-boxes actually evaluated.
        splits: number of bisections performed.
        point_sampled: slivers thinner than the point tolerance whose
            branch condition stayed ambiguous (ties at a comparison
            boundary, e.g. ``x >= 0`` on ``[-ε, 0]``); these were
            evaluated at their midpoint trace — a non-rigorous but
            measure-tiny contribution to ``value``.
        failures: sub-boxes abandoned entirely (ambiguous even as points);
            non-empty means ``value`` under-covers the true range.
        replay_stats: record/replay counters when the evaluation ran
            through a :class:`ReplayEvaluator`, else ``None``.
    """

    value: Interval
    boxes: list[Box] = field(default_factory=list)
    splits: int = 0
    point_sampled: list[Box] = field(default_factory=list)
    failures: list[Box] = field(default_factory=list)
    replay_stats: dict[str, int] | None = None

    @property
    def complete(self) -> bool:
        """True when no sub-box was abandoned."""
        return not self.failures


class ReplayEvaluator:
    """Record ``fn`` once per branch signature, replay it per sub-box.

    A splitting evaluation calls the same expression on hundreds of
    sub-boxes, and on every decidable sub-box the expression runs the same
    straight-line trace for that branch combination.  This wrapper tapes
    ``fn`` (an args-style ``fn(*intervals) -> Interval``) the first time
    each branch signature is seen and afterwards re-evaluates sub-boxes
    with the vectorized forward sweep
    (:meth:`repro.ad.CompiledTape.forward`) — no Python re-execution.

    Semantics are preserved exactly:

    * a replayed value is bit-identical to calling ``fn`` directly (the
      forward sweep reproduces every rounding point of the recording);
    * a sub-box whose recorded comparisons decide *differently* raises
      ``GuardDivergenceError`` internally and falls through to the next
      cached trace, or to a fresh recording of that branch;
    * a sub-box on which a recorded comparison is *ambiguous* propagates
      :class:`AmbiguousComparisonError` — exactly what direct evaluation
      would raise — so :func:`split_until_decidable` bisects as usual;
    * domain errors during replay are treated as divergence (the forward
      sweep runs every op before re-checking the comparisons, so a
      diverged branch can fault on operations direct evaluation never
      reaches); re-recording reproduces genuine errors in program order.

    Instances are ``Box -> Interval`` callables, directly usable as the
    ``fn`` of :func:`split_until_decidable`.
    """

    def __init__(self, fn: Callable[..., Interval], max_traces: int = 32):
        self.fn = fn
        self.max_traces = max_traces
        self._traces: list[tuple] = []  # (CompiledTape, output index)
        self._disabled = False
        self.records = 0
        self.replays = 0
        self.divergences = 0

    def stats(self) -> dict[str, int]:
        return {
            "records": self.records,
            "replays": self.replays,
            "divergences": self.divergences,
            "traces": len(self._traces),
        }

    def __call__(self, box: Box) -> Interval:
        intervals = list(box)
        if self._traces:
            from repro.ad.replay import GuardDivergenceError

            for ct, out_idx in self._traces:
                try:
                    lanes = ct.forward(intervals)
                except GuardDivergenceError:
                    self.divergences += 1
                    continue
                except (ValueError, ZeroDivisionError, OverflowError):
                    # Spurious fault on a diverged branch (see class
                    # docstring); a genuine one re-raises from _record.
                    continue
                self.replays += 1
                return lanes.value(out_idx, 0)
        return self._record(intervals)

    def _record(self, intervals: list[Interval]) -> Interval:
        self.records += 1
        if self._disabled:
            return as_interval(self.fn(*intervals))
        from repro.ad.adouble import ADouble
        from repro.ad.compiled import CompiledTape
        from repro.ad.replay import ReplayError
        from repro.ad.tape import Tape

        tape = Tape()
        with tape:
            args = [ADouble.input(iv, tape=tape) for iv in intervals]
            out = self.fn(*args)
        if not isinstance(out, ADouble) or out.tape is not tape:
            # fn ignored the taped arguments; nothing to replay.
            self._disabled = True
            return as_interval(out)
        value = out.value
        try:
            ct = CompiledTape(tape)
            ct._forward_plan()
        except ReplayError:
            self._disabled = True
            return as_interval(value)
        if len(self._traces) < self.max_traces:
            self._traces.append((ct, out.node.index))
        return as_interval(value)


def split_until_decidable(
    fn: Callable[[Box], Interval],
    box: Box,
    max_depth: int = 12,
    point_tolerance: float = 1e-6,
) -> SplitResult:
    """Evaluate ``fn`` over ``box``, bisecting on ambiguous comparisons.

    ``fn`` receives a :class:`Box` and returns an :class:`Interval`; if it
    raises :class:`AmbiguousComparisonError` the box is bisected along its
    widest dimension and both halves are retried, up to ``max_depth``
    levels of recursion per branch of the split tree.

    Bisection alone cannot resolve a condition whose tie point lies *on* a
    sub-box boundary (``x >= 0`` over ``[-ε, 0]`` is ambiguous at every
    depth).  Sub-boxes thinner than ``point_tolerance`` in every dimension
    are therefore evaluated at their midpoint — fixing the control flow
    from a point trace, exactly what a profile run does — and recorded in
    ``point_sampled``.
    """
    result_hull: Interval | None = None
    evaluated: list[Box] = []
    point_sampled: list[Box] = []
    failures: list[Box] = []
    splits = 0

    stack: list[tuple[Box, int]] = [(box, 0)]
    while stack:
        current, depth = stack.pop()
        try:
            value = fn(current)
        except AmbiguousComparisonError:
            if current.max_width <= point_tolerance or depth >= max_depth:
                # Sliver (or depth exhausted): sample the midpoint trace.
                point_box = Box.from_point(current.midpoint)
                try:
                    value = fn(point_box)
                except AmbiguousComparisonError:
                    failures.append(current)
                    continue
                point_sampled.append(current)
                result_hull = (
                    value if result_hull is None else result_hull.hull(value)
                )
                continue
            left, right = current.split()
            splits += 1
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
            continue
        evaluated.append(current)
        result_hull = value if result_hull is None else result_hull.hull(value)

    if result_hull is None:
        raise AmbiguousComparisonError(
            "<unresolved>", Interval.entire(), Interval.entire()
        )
    return SplitResult(
        value=result_hull,
        boxes=evaluated,
        splits=splits,
        point_sampled=point_sampled,
        failures=failures,
    )


def evaluate_with_splitting(
    fn: Callable[..., Interval],
    inputs: Sequence[Interval],
    max_depth: int = 12,
    replay: bool | None = None,
) -> SplitResult:
    """Convenience wrapper: ``fn`` takes one interval per input component.

    ``replay`` (default: the module replay setting,
    :func:`repro.scorpio.trace_cache.replay_enabled`) routes the sub-box
    evaluations through a :class:`ReplayEvaluator` — ``fn`` is recorded
    once per branch signature and every further sub-box of that branch is
    a vectorized forward replay instead of a Python re-execution.  The
    result is identical either way; replay counters land in
    ``SplitResult.replay_stats``.
    """
    from repro.scorpio.trace_cache import replay_enabled

    box = Box(inputs)
    if replay_enabled(replay):
        evaluator = ReplayEvaluator(fn)
        result = split_until_decidable(evaluator, box, max_depth=max_depth)
        result.replay_stats = evaluator.stats()
        return result

    def on_box(b: Box) -> Interval:
        return fn(*list(b))

    return split_until_decidable(on_box, box, max_depth=max_depth)
