"""Shared plumbing for the benchmark kernels.

Every benchmark exposes the same trio the Figure-7 harness consumes:

* ``run_significance(ratio, ...) -> KernelRun`` — the task-based,
  significance-driven version executed through
  :class:`~repro.runtime.TaskRuntime`;
* ``run_perforated(ratio, ...) -> KernelRun`` — the loop-perforation
  baseline at the same accurate-computation ratio;
* a quality function comparing a run's output against the fully accurate
  output (PSNR for the image kernels, relative error otherwise).

:class:`KernelRun` carries the output plus the modelled energy so the
sweep driver (:mod:`repro.experiments.sweep`) can assemble the plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ad.compiled import lane_workspace
from repro.runtime import EnergyBreakdown, GroupStats

__all__ = [
    "KernelRun",
    "QUALITY_PSNR",
    "QUALITY_REL_ERR",
    "replay_lane_significances",
]

QUALITY_PSNR = "psnr_db"
QUALITY_REL_ERR = "relative_error"


@dataclass
class KernelRun:
    """Output and cost of one benchmark execution.

    Attributes:
        output: whatever the kernel produces (image array, prices, ...).
        energy: modelled energy breakdown (Joules).
        stats: aggregated task counts (empty for perforated runs, which
            have no tasks).
        ratio: the requested accurate ratio.
        variant: ``"significance"`` or ``"perforation"``.
    """

    output: Any
    energy: EnergyBreakdown
    ratio: float
    variant: str
    stats: GroupStats = field(default_factory=GroupStats)

    @property
    def joules(self) -> float:
        """Total modelled energy in Joules."""
        return self.energy.total


def replay_lane_significances(
    trace: Any,
    lanes_lo: np.ndarray,
    lanes_hi: np.ndarray,
    *,
    rows: Any = None,
    executor: Any = None,
    workers: int | None = None,
    align: int = 1,
    chunk_lanes: int | None = None,
) -> np.ndarray:
    """Eq. 11 rows of a :class:`~repro.scorpio.CachedTrace` replayed on
    ``(n_inputs, L)`` lane bounds — the lane path of every ``analyse_*``
    map.

    ``rows`` names the node rows the caller reads (``None``: all nodes);
    the result is ``(len(rows), L)`` in that order.  ``executor="process"``
    (or a :class:`~repro.mp.ProcessExecutor`) chunks the lanes across
    ``workers`` processes (:func:`repro.mp.parallel_lane_significances`,
    chunks rounded to multiples of ``align`` lanes); any other value runs
    the sequential replay, in this thread's lane workspace
    (:func:`repro.ad.compiled.lane_workspace`).  Both paths return the
    same bytes.
    """
    if executor is not None:
        from repro.mp import parallel_lane_significances, process_requested

        if process_requested(executor):
            return parallel_lane_significances(
                trace,
                lanes_lo,
                lanes_hi,
                rows=rows,
                workers=workers,
                align=align,
                chunk_lanes=chunk_lanes,
                executor=None if isinstance(executor, str) else executor,
            )
    return trace.lane_significances(
        trace.forward_lanes(lanes_lo, lanes_hi, workspace=lane_workspace()),
        rows=rows,
    )
