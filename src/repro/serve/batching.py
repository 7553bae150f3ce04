"""Dynamic micro-batching: coalesce concurrent /analyse calls per kernel.

A warm ``/analyse`` request is one vectorized replay — a forward sweep,
an adjoint sweep and Eq. 11 over the kernel's cached trace.  Those
sweeps are *lane-batched* all the way down
(:meth:`~repro.ad.compiled.CompiledTape.forward_lanes` →
:func:`~repro.scorpio.compiled.analyse_replay_lanes`), so L concurrent
requests for the same kernel can share ONE sweep at marginal cost per
extra lane instead of L sweeps.  This module is the service-side
coalescer that finds those L requests.

:class:`KernelBatcher` lives on the event loop (one per kernel).  Each
arriving request parks a future on the batcher; the first request of a
quiet period starts the collection task.  The task does not wait for
companions on a timer: after one bare loop turn it takes every request
queued by then, up to ``--max-batch``, and ships them as one batch to
the service's dispatch (thread or process executor — the same pools the
unbatched path uses, so lane fan-out still composes with
:mod:`repro.mp`).  Requests that arrive while a batch is in flight queue
up and form the next batch, so a saturated service coalesces by itself
and a quiet one adds no delay.

Responses are byte-identical to the unbatched path — that is the pinned
contract of :meth:`TraceCache.analyse_batch_outcome
<repro.scorpio.trace_cache.TraceCache.analyse_batch_outcome>` — and each
carries ``X-Repro-Batch: <size>/<index>`` so callers (and the tests) can
see the coalescing.  Batch sizes are observed in the ``serve.batch.size``
histogram.

Error isolation: the dispatch returns one *tagged item* per request —
``("ok", body, outcome)`` or ``("err", detail)`` — so one bad request
in a batch fails alone while its companions answer normally, exactly as
if each had been dispatched by itself.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Sequence

from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["KernelBatcher", "BATCH_SIZE_HISTOGRAM"]

#: Lanes per dispatched sweep; scraped via GET /metrics.
BATCH_SIZE_HISTOGRAM = obs_metrics.histogram("serve.batch.size")

# One tagged item per request, in submission order.
DispatchFn = Callable[[Sequence[Any]], Awaitable[list]]


class KernelBatcher:
    """Coalesce concurrent submissions into batched dispatch calls.

    Single-threaded by construction: every method runs on the event
    loop, so the pending list needs no lock.  ``submit`` resolves to
    ``(item, batch_size, lane_index)`` where ``item`` is the dispatch's
    tagged result for this request.
    """

    def __init__(
        self,
        *,
        max_batch: int,
        dispatch: DispatchFn,
        name: str = "",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.name = name
        self._dispatch = dispatch
        # (request, future, submitter's TraceContext or None)
        self._pending: list[
            tuple[Any, asyncio.Future, "obs_context.TraceContext | None"]
        ] = []
        self._task: asyncio.Task | None = None

    async def submit(self, request: Any) -> tuple[Any, int, int]:
        """Queue one request; await its slice of a batched dispatch.

        The submitter's trace context is captured here — the collection
        task is long-lived and must not inherit whichever request
        happened to start it, so each batch re-derives its identity from
        its *members'* contexts at dispatch time.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future, obs_context.current()))
        if self._task is None or self._task.done():
            self._task = loop.create_task(self._run())
        return await future

    async def _run(self) -> None:
        # Drain until quiet; the task dies when no requests are waiting
        # and the next submission starts a fresh one.
        while self._pending:
            # One bare loop turn, no timer: a request read in the same
            # turn as the first one reaches submit() a turn later, and
            # this lets it join this sweep instead of waiting for the
            # next one.
            await asyncio.sleep(0)
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            size = len(batch)
            BATCH_SIZE_HISTOGRAM.observe(float(size))
            requests = [request for request, _, _ in batch]
            # One shared span for the whole coalesced sweep.  It joins
            # the *head* member's trace (its context parents the span)
            # and carries every member's trace id in ``links``/``lanes``,
            # so GET /debug/trace/<id> resolves the batch for each of
            # the requests that rode it, not just the first.
            contexts = [ctx for _, _, ctx in batch]
            head_ctx = next((c for c in contexts if c is not None), None)
            batch_ctx = head_ctx.child() if head_ctx is not None else None
            sp = obs_trace.manual_span("serve.batch", batch_ctx)
            sp.set(
                kernel=self.name,
                size=size,
                links=[c.trace_id for c in contexts if c is not None],
                lanes=[
                    c.to_header() if c is not None else None
                    for c in contexts
                ],
            )
            try:
                with obs_context.use(batch_ctx):
                    items = await self._dispatch(requests)
                if len(items) != size:
                    raise RuntimeError(
                        f"batch dispatch returned {len(items)} items "
                        f"for {size} requests"
                    )
            except BaseException as exc:  # noqa: BLE001 - fanned out
                sp.set(error=f"{type(exc).__name__}: {exc}")
                obs_trace.adopt([sp.finish()])
                for _, future, _ in batch:
                    if not future.done():
                        future.set_exception(exc)
                if isinstance(exc, (asyncio.CancelledError, SystemExit)):
                    raise
                continue
            obs_trace.adopt([sp.finish()])
            for index, ((_, future, _), item) in enumerate(zip(batch, items)):
                if not future.done():
                    future.set_result((item, size, index))

    def close(self) -> None:
        """Cancel the collection loop and fail anything still queued."""
        if self._task is not None and not self._task.done():
            self._task.cancel()
        pending, self._pending = self._pending, []
        for _, future, _ in pending:
            if not future.done():
                future.set_exception(
                    RuntimeError("service shut down with requests queued")
                )
