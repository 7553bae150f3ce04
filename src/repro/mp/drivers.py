"""Parallel drivers for the hot lane sweeps, on top of shared tapes.

The replay-many fast path — ``forward_lanes`` + a lane-batched adjoint
sweep + Eq. 11 — is embarrassingly parallel across lanes: each lane is an
independent replay of the same frozen trace, and the sweeps are
engineered so that computing a *chunk* of lanes produces bit-identical
results to computing the full batch (per-lane zero-adjoint shortcuts are
honoured per lane; the cross-lane ``edge_any`` shortcut only skips edges
inactive in every lane of a batch, which never changes an active lane's
bits).  That chunk-invariance is what makes process-parallel maps safe:
fan the lane axis out over workers, let each worker replay its slice
against a zero-copy :class:`~repro.mp.shared.SharedTape` view, and write
its significance columns into a shared output buffer — concatenation
equals the sequential full-batch result, bit for bit (pinned by
``tests/mp``, including a hypothesis chunking property test).

Scheduling, crash/timeout recovery and worker-metric merging are
delegated to :class:`~repro.mp.executor.ProcessExecutor`: each chunk is
one value-returning task, so a dying or hung worker degrades to the
parent replaying the missing chunks sequentially — same bits, no lost
work.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

import numpy as np

from repro.ad.compiled import CompiledTape, lane_workspace
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _obs_span
from repro.runtime.task import ExecutionMode, Task

from .executor import ProcessExecutor, default_workers
from .shared import SharedArray, SharedTape

__all__ = [
    "parallel_lane_significances",
    "lane_chunks",
    "process_requested",
]

_C_CHUNKS = _metrics.counter("mp.lane_chunks")
_H_CHUNK_LANES = _metrics.histogram("mp.chunk_lanes")

# Per-worker-process cache of attached tapes, keyed by the opcodes
# segment name (unique per frozen tape).  Bounded: drivers are called
# with a handful of distinct tapes per process lifetime.
_TAPE_CACHE: dict[str, CompiledTape] = {}
_TAPE_CACHE_MAX = 8


def _attached_tape(shared: SharedTape) -> CompiledTape:
    key = shared.arrays["opcodes"].name
    ct = _TAPE_CACHE.get(key)
    if ct is None:
        if len(_TAPE_CACHE) >= _TAPE_CACHE_MAX:
            _TAPE_CACHE.clear()
        ct = shared.attach()
        _TAPE_CACHE[key] = ct
    return ct


def _sig_chunk(
    shared: SharedTape,
    in_lo: SharedArray,
    in_hi: SharedArray,
    out: SharedArray,
    start: int,
    stop: int,
    output_id: int,
    rows: tuple[int, ...] | None = None,
) -> int:
    """Replay lanes ``[start:stop)`` and write their Eq. 11 columns.

    Runs inside a worker (or in the parent on fallback).  Reads the input
    bound slices zero-copy, writes the ``(len(rows), stop-start)``
    significance block (every node when ``rows`` is None) into the shared
    output buffer, returns the lane count.  Guard divergence raises
    exactly as the sequential replay would.
    """
    from repro.scorpio.compiled import lane_eq11

    _C_CHUNKS.inc()
    _H_CHUNK_LANES.observe(stop - start)
    ct = _attached_tape(shared)
    with _obs_span("mp.sig_chunk") as sp:
        sp.set(start=start, stop=stop, nodes=ct.n)
        lanes = ct.forward_lanes(
            in_lo.view()[:, start:stop],
            in_hi.view()[:, start:stop],
            workspace=lane_workspace(),
        )
        out.view()[:, start:stop] = lane_eq11(lanes, output_id, rows=rows)
    return stop - start


def process_requested(executor: Any) -> bool:
    """Does an ``executor`` knob value select the process backend?

    The ``analyse_*`` entry points accept ``executor="seq" | "thread" |
    "process"`` (or an executor instance); only ``"process"`` — or an
    actual :class:`ProcessExecutor` — routes lane sweeps through the
    shared-tape drivers.  Threads cannot speed a lane sweep up (the
    replay is one GIL-holding NumPy pipeline), so every other value runs
    the plain sequential replay.
    """
    if isinstance(executor, str):
        return executor.strip().lower() == "process"
    return isinstance(executor, ProcessExecutor)


#: Environment override for the default chunk size (lanes per task).
CHUNK_ENV = "REPRO_MP_CHUNK"

#: Below this many lanes a chunk's sweep is dominated by per-task
#: dispatch overhead, so the default policy never goes finer (callers
#: can still force smaller chunks explicitly).
MIN_CHUNK_LANES = 32


def default_chunk_lanes(n_lanes: int, workers: int) -> int:
    """The workers-aware default chunk size for ``lane_chunks``.

    Resolution order:

    1. ``$REPRO_MP_CHUNK`` (a positive integer; anything else ignored) —
       the deploy-time escape hatch for machines whose sweet spot the
       heuristic misses;
    2. otherwise target **four chunks per worker** — enough slack for the
       executor to rebalance when chunks finish unevenly — but never
       below :data:`MIN_CHUNK_LANES` lanes per chunk (clamped so tiny
       batches still spread across all workers rather than landing on
       one).
    """
    env = os.environ.get(CHUNK_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value > 0:
            return value
    workers = max(workers, 1)
    target = -(-n_lanes // (4 * workers))
    if target < MIN_CHUNK_LANES:
        # Don't let the balancing target shatter small batches: floor at
        # MIN_CHUNK_LANES, unless even one-chunk-per-worker is finer.
        per_worker = -(-n_lanes // workers)
        target = min(MIN_CHUNK_LANES, per_worker)
    return max(1, target)


def lane_chunks(
    n_lanes: int,
    workers: int,
    *,
    chunk_lanes: int | None = None,
    align: int = 1,
) -> list[tuple[int, int]]:
    """Split a lane axis into contiguous ``(start, stop)`` chunks.

    With ``chunk_lanes=None`` the size comes from
    :func:`default_chunk_lanes` (``$REPRO_MP_CHUNK`` override, else a
    four-chunks-per-worker heuristic floored at
    :data:`MIN_CHUNK_LANES`), rounded up to a multiple of ``align`` —
    image drivers pass the row width so chunks are whole rows/tiles.
    The chunking never affects results (the sweeps are chunk-invariant);
    it only shapes the schedule.
    """
    if n_lanes <= 0:
        return []
    if chunk_lanes is None:
        chunk_lanes = default_chunk_lanes(n_lanes, workers)
    chunk_lanes = max(1, chunk_lanes)
    if align > 1:
        chunk_lanes = -(-chunk_lanes // align) * align
    return [
        (start, min(start + chunk_lanes, n_lanes))
        for start in range(0, n_lanes, chunk_lanes)
    ]


def parallel_lane_significances(
    trace: Any,
    inputs_lo: np.ndarray,
    inputs_hi: np.ndarray,
    *,
    workers: int | None = None,
    chunk_lanes: int | None = None,
    align: int = 1,
    executor: ProcessExecutor | None = None,
    min_parallel_lanes: int = 256,
    rows: Sequence[int] | None = None,
) -> np.ndarray:
    """Process-parallel twin of ``CachedTrace.lane_significances``.

    ``trace`` is a single-output :class:`~repro.scorpio.trace_cache.CachedTrace`
    (or any object with ``.ct`` and ``.output_ids``); ``inputs_lo``/
    ``inputs_hi`` the ``(n_inputs, L)`` lane bounds.  Returns the
    ``(n_nodes, L)`` Eq. 11 matrix — or, with ``rows``, only those node
    rows as ``(len(rows), L)`` in the order given (workers then compute
    and write only those rows) — **bitwise identical** to the sequential
    ``trace.lane_significances(trace.forward_lanes(...), rows=rows)``.

    The tape is frozen into shared memory once; lane chunks run as
    value-returning tasks on a :class:`ProcessExecutor` (created ad hoc
    from ``workers`` when no ``executor`` is passed), with crash/timeout
    fallback to sequential replay in the parent.  Small batches
    (``L < min_parallel_lanes``) or ``workers=1`` skip the pool entirely
    and run the sequential path — same bits, no process overhead.

    Raises :class:`~repro.ad.replay.GuardDivergenceError` /
    :class:`~repro.intervals.AmbiguousComparisonError` exactly as the
    sequential replay would (a chunk's lanes must all reproduce the
    recorded branch outcomes).
    """
    ct: CompiledTape = trace.ct
    output_ids = trace.output_ids
    if len(output_ids) != 1:
        from repro.ad.replay import ReplayError

        raise ReplayError(
            "lane significance replay supports single-output traces"
        )
    inputs_lo = np.ascontiguousarray(inputs_lo, dtype=np.float64)
    inputs_hi = np.ascontiguousarray(inputs_hi, dtype=np.float64)
    if inputs_lo.ndim != 2 or inputs_lo.shape != inputs_hi.shape:
        raise ValueError(
            "parallel_lane_significances expects matching (n_inputs, L) "
            "bound arrays"
        )
    L = inputs_lo.shape[1]
    n_workers = workers if workers is not None else (
        executor.max_workers if executor is not None else default_workers()
    )
    if rows is not None:
        rows = tuple(int(r) for r in rows)
    if n_workers <= 1 or L < min_parallel_lanes:
        from repro.scorpio.compiled import lane_eq11

        lanes = ct.forward_lanes(
            inputs_lo, inputs_hi, workspace=lane_workspace()
        )
        return lane_eq11(lanes, output_ids[0], rows=rows)

    chunks = lane_chunks(L, n_workers, chunk_lanes=chunk_lanes, align=align)
    shared = SharedTape.freeze(ct)
    lo_h = SharedArray.create(inputs_lo)
    hi_h = SharedArray.create(inputs_hi)
    out_h = SharedArray.empty((ct.n if rows is None else len(rows), L))
    own_executor = executor is None
    ex = executor or ProcessExecutor(max_workers=n_workers)
    try:
        with _obs_span("mp.lane_significances") as sp:
            sp.set(lanes=L, chunks=len(chunks), workers=n_workers)
            tasks = [
                Task(
                    fn=_sig_chunk,
                    args=(shared, lo_h, hi_h, out_h, start, stop,
                          output_ids[0], rows),
                    label="mp.sig_chunk",
                    task_id=idx,
                )
                for idx, (start, stop) in enumerate(chunks)
            ]
            ex.run(tasks, [ExecutionMode.ACCURATE] * len(tasks))
            sig = out_h.copy()
    finally:
        if own_executor:
            ex.close()
        out_h.close()
        hi_h.close()
        lo_h.close()
        shared.close()
    return sig
