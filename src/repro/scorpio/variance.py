"""Step S5 of Algorithm 1: find the first level with significance variance.

Starting at level 1 (level 0 is the outputs) and moving toward the inputs,
compute the statistical variance of node significances per BFS level; the
first level whose variance exceeds the threshold ``δ`` is where the code
can be partitioned into tasks of *different* significance.  The analysis
result keeps the graph up to level ``L + 1`` (``removeAbove``).

If no level exceeds ``δ`` the scan reaches the inputs: nodes on the same
level are then (almost) equally important, and the whole (simplified)
graph is returned with ``found_level = None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.intervals.interval import square

from .dyndfg import DynDFG

__all__ = ["VarianceScan", "level_variance", "find_significance_variance"]


def squared_deviations(values: Sequence[float], mean: float) -> float:
    """``sum((v - mean) ** 2 for v in values)`` with IEEE-product squares.

    ``d * d`` is correctly rounded and libm's ``pow(d, 2)`` is not.  A
    finite deviation whose square overflows raises ``OverflowError``, as
    ``d ** 2`` does; only a non-finite total needs that check.
    """
    total = sum((v - mean) * (v - mean) for v in values)
    if not math.isfinite(total):
        for v in values:
            square(v - mean)
    return total


def level_variance(graph: DynDFG, level: int) -> float:
    """Population variance of node significances at ``level``.

    Unscored nodes (no significance computed) count as 0, matching the
    treatment of unregistered helper nodes.  Levels with fewer than two
    nodes have variance 0 by definition.
    """
    sigs = [
        n.significance if n.significance is not None else 0.0
        for n in graph.level(level)
    ]
    if len(sigs) < 2:
        return 0.0
    mean = sum(sigs) / len(sigs)
    return squared_deviations(sigs, mean) / len(sigs)


@dataclass
class VarianceScan:
    """Result of :func:`find_significance_variance`.

    Attributes:
        graph: ``Gout`` — the input graph truncated above ``found_level+1``
            (or the untruncated graph when no variance was found).
        found_level: the first level with variance > δ, or ``None``.
        delta: the threshold used.
        variances: per-level variance actually computed (levels visited by
            the scan, in order).
    """

    graph: DynDFG
    found_level: int | None
    delta: float
    variances: dict[int, float] = field(default_factory=dict)

    @property
    def task_nodes(self):
        """Nodes at the partitioning level (task outputs, Section 3.2)."""
        if self.found_level is None:
            return self.graph.inputs()
        return self.graph.level(self.found_level)


def find_significance_variance(
    graph: DynDFG, delta: float = 1e-6
) -> VarianceScan:
    """Algorithm 1's ``findSgnfVariance`` on a (simplified) DynDFG."""
    variances: dict[int, float] = {}
    for level in range(1, graph.height):
        var = level_variance(graph, level)
        variances[level] = var
        if var > delta:
            return VarianceScan(
                graph=graph.remove_above(level + 1),
                found_level=level,
                delta=delta,
                variances=variances,
            )
    return VarianceScan(
        graph=graph, found_level=None, delta=delta, variances=variances
    )
