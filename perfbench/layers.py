"""Per-layer self times for the traced benchmark run.

The wrappers live here, so nothing under ``src/`` changes: :func:`install`
replaces each layer's functions with a timing wrapper in every loaded
``repro`` module and class that refers to them.

A layer's self time is the duration of its call minus the part its
wrapped callees cover.  Each thread keeps a stack of open calls, and a
finished call becomes one span ``(id, parent id, layer, start, end, self,
weight, request id)``, kept in memory until :meth:`Recorder.dump` writes
it out.  The weight is the number of requests waiting on the call: the
size of the batch it serves, 1 outside a batch.  Weighted self times
therefore add up to the requests' own latencies.  Times are
``time.monotonic()``, one clock for every process on the host, so spans
can be matched with the load generator's measured window.

Pool workers are forked from the traced server, and the benchmark does
not own their lifetimes.  After a fork the recorder therefore feeds
``repro.obs.metrics`` histograms named ``perfbench.<layer>`` (weighted self
time in ms) instead.  ``ProcessExecutor`` merges worker metrics into the
server after every task, and ``GET /metrics`` exposes them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# Layer -> the functions its calls are made of ("module:qualname").
LAYERS = {
    "scorpio.api.record": (
        "repro.kernels.dct.analysis:_record_dct_block",
        "repro.kernels.sobel.analysis:_record_sobel_pixel",
        "repro.kernels.blackscholes.analysis:_record_option",
        "repro.serve.kernels:_record_fisheye",
        "repro.serve.kernels:_record_nbody",
    ),
    "ad.compiled.compile": ("repro.ad.compiled:CompiledTape.__init__",),
    "scorpio.compiled.structure": (
        "repro.scorpio.compiled:TraceStructure.__init__",
    ),
    "scorpio.trace_cache.lock_wait": (
        "repro.scorpio.trace_cache:TraceCache.analyse_outcome",
        "repro.scorpio.trace_cache:TraceCache.analyse_batch_outcome",
    ),
    "ad.replay.forward": (
        "repro.ad.compiled:CompiledTape.forward",
        "repro.ad.compiled:CompiledTape.forward_lanes",
    ),
    "ad.compiled.adjoint": (
        "repro.ad.compiled:CompiledTape.adjoint",
        "repro.ad.compiled:CompiledTape.adjoint_vector",
        "repro.ad.compiled:ReplayLanes.adjoint",
        "repro.ad.compiled:ReplayLanes.adjoint_vector",
    ),
    "scorpio.compiled.eq11": (
        "repro.scorpio.compiled:eq11_from_sweep",
        "repro.scorpio.compiled:eq11_vector",
    ),
    "scorpio.compiled.assemble": (
        "repro.scorpio.compiled:analyse_compiled_tape",
        "repro.scorpio.compiled:analyse_replay_lanes",
    ),
    "scorpio.trace_cache.lane_scan": (
        "repro.scorpio.trace_cache:CachedTrace.lane_scan_map",
    ),
    "scorpio.serialize.encode": ("repro.scorpio.serialize:report_to_json",),
    "kernels.analysis_self": (
        "repro.kernels.sobel.analysis:analyse_sobel_scan_map",
        "repro.kernels.blackscholes.analysis:analyse_blackscholes",
    ),
    "mp.executor.hop": ("repro.mp.executor:ProcessExecutor.run",),
    # Envelopes.  They are timed so that their callees' time is not
    # charged to an outer layer; their own self time is unattributed.
    # The replay envelope leaves lock_wait with only the time its two
    # entry points spend outside the trace's own replay.
    "scorpio.trace_cache.replay": (
        "repro.scorpio.trace_cache:CachedTrace.analyse",
        "repro.scorpio.trace_cache:CachedTrace.analyse_batch",
    ),
    "serve.dispatch": (
        "repro.serve.app:SignificanceService._batch_analyse_entry",
        "repro.serve.app:SignificanceService._mp_batch_analyse_entry",
    ),
    "mp.worker.task": (
        "repro.serve.app:_analyse_in_worker_process",
        "repro.serve.app:_analyse_batch_in_worker_process",
    ),
}

# Targets that serve a batch -> the position of the batch argument.
BATCH_ARG = {
    "repro.serve.app:SignificanceService._batch_analyse_entry": 2,
    "repro.serve.app:SignificanceService._mp_batch_analyse_entry": 2,
    "repro.serve.app:_analyse_batch_in_worker_process": 1,
}

# Layers reported per request or job, in report order.  Transport and
# hop are derived in per_layer(); the rest are summed self times.
REPORTED = (
    "serve.transport",
    "serve.batching.wait",
    "mp.executor.hop",
    "scorpio.trace_cache.lock_wait",
    "ad.replay.forward",
    "ad.compiled.adjoint",
    "scorpio.compiled.eq11",
    "scorpio.compiled.assemble",
    "scorpio.trace_cache.lane_scan",
    "scorpio.serialize.encode",
    "scorpio.api.record",
    "ad.compiled.compile",
    "scorpio.compiled.structure",
    "kernels.analysis_self",
)

# Layers whose work is set-up on the serve workloads.
SETUP_LAYERS = (
    "scorpio.api.record",
    "ad.compiled.compile",
    "scorpio.compiled.structure",
)

HANDLER = "serve.handler"
WAIT = "serve.batching.wait"
HOP = "mp.executor.hop"


class Recorder:
    """Thread-safe in-memory span store with per-thread call stacks."""

    def __init__(self) -> None:
        from repro.obs.context import current

        self._context = current
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._histogram = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        from repro.obs import metrics

        self.spans = []
        self._local = threading.local()
        self._histogram = metrics.histogram

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, ident, parent, layer, start, end, self_s, weight) -> None:
        if self._histogram is not None:
            self._histogram(f"perfbench.{layer}").observe(
                self_s * weight * 1000.0
            )
            return
        ctx = self._context()
        rid = ctx.trace_id if ctx is not None else None
        self.spans.append((ident, parent, layer, start, end, self_s, weight, rid))

    def span(self, layer: str, start: float, end: float) -> None:
        """Record one request's call timed outside any stack (async code)."""
        self._emit(next(self._ids), 0, layer, start, end, end - start, 1)

    def wrap(self, layer: str, fn, batch_arg: int | None = None):
        """``fn`` timed as ``layer``; a call's weight is the length of its
        ``batch_arg`` argument, else its caller's weight."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            if batch_arg is not None:
                weight = len(args[batch_arg])
            else:
                weight = stack[-1][3] if stack else 1
            frame = [next(self._ids), time.monotonic(), 0.0, weight]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - frame[1]
                parent = 0
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                self._emit(
                    frame[0],
                    parent,
                    layer,
                    frame[1],
                    end,
                    duration - frame[2],
                    weight,
                )

        return timed

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans}, out)


def _patch(target: str, make) -> None:
    """Replace ``target`` by ``make(original)`` wherever it is bound."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, make(cls.__dict__[attr]))
        return
    original = getattr(module, qualname)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every layer in :data:`LAYERS`."""
    for layer, targets in LAYERS.items():
        for target in targets:
            _patch(
                target,
                functools.partial(
                    recorder.wrap, layer, batch_arg=BATCH_ARG.get(target)
                ),
            )


def install_serve(recorder: Recorder) -> None:
    """Time the service's handlers and its batch gather window.

    Call after :func:`install`.  A request's batching wait runs from
    ``KernelBatcher.submit`` until its batch starts analysis on the
    executor thread.
    """
    from repro.serve.app import SignificanceService
    from repro.serve.batching import KernelBatcher
    from repro.serve.http import Router

    submitted: dict[int, float] = {}
    submit = KernelBatcher.submit

    async def timed_submit(self, request):
        submitted[id(request)] = time.monotonic()
        return await submit(self, request)

    KernelBatcher.submit = timed_submit

    def started(envelope):
        @functools.wraps(envelope)
        def dispatch(self, entry, batch):
            now = time.monotonic()
            for request in batch:
                start = submitted.pop(id(request), None)
                if start is not None:
                    recorder.span(WAIT, start, now)
            return envelope(self, entry, batch)

        return dispatch

    for target in LAYERS["serve.dispatch"]:
        attr = target.split(".")[-1]
        setattr(
            SignificanceService,
            attr,
            started(SignificanceService.__dict__[attr]),
        )

    resolve = Router.resolve

    def timed_resolve(self, method, path):
        handler = resolve(self, method, path)
        if path != "/analyse":
            return handler

        async def timed(request):
            start = time.monotonic()
            try:
                return await handler(request)
            finally:
                recorder.span(HANDLER, start, time.monotonic())

        return timed

    Router.resolve = timed_resolve


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as src:
        return [tuple(span) for span in json.load(src)["spans"]]


def totals(spans, start: float, end: float) -> dict[str, list]:
    """``{layer: [weighted self seconds, calls]}`` of spans starting in
    the window."""
    acc: dict[str, list] = {}
    for _ident, _parent, layer, s0, _s1, self_s, weight, _rid in spans:
        if start <= s0 <= end:
            entry = acc.setdefault(layer, [0.0, 0])
            entry[0] += self_s * weight
            entry[1] += 1
    return acc


def parse_prometheus(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def worker_totals(before: dict, after: dict) -> dict[str, list]:
    """``{layer: [weighted self seconds, calls]}`` the pool workers added
    between two ``GET /metrics`` scrapes."""
    acc = {}
    for layer in LAYERS:
        base = "repro_perfbench_" + layer.replace(".", "_")
        calls = after.get(base + "_count", 0.0) - before.get(base + "_count", 0.0)
        if calls:
            total_ms = after[base + "_sum"] - before.get(base + "_sum", 0.0)
            acc[layer] = [total_ms / 1000.0, int(calls)]
    return acc


def per_layer(
    spans_totals: dict,
    workers: dict,
    ops: int,
    op_seconds: float,
    transport: bool = False,
) -> dict[str, float]:
    """Per-operation layer metrics (ms and calls) for one measured window.

    ``ops`` requests or jobs took ``op_seconds`` in all, as their callers
    saw them.  With ``transport``, the time outside the /analyse handler
    is the transport layer.  A pool's hop is ``ProcessExecutor.run`` time
    minus everything the workers timed.  The ``_ms`` values sum to the
    time per operation; what no layer covers is ``unattributed_ms``.
    """
    merged: dict[str, list] = {}
    for source in (spans_totals, workers):
        for layer, (seconds, calls) in source.items():
            entry = merged.setdefault(layer, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
    if HOP in merged:
        merged[HOP][0] -= sum(seconds for seconds, _ in workers.values())
    if transport:
        handler = merged.get(HANDLER, [0.0, 0])[0]
        merged["serve.transport"] = [op_seconds - handler, ops]
    out: dict[str, float] = {}
    attributed = 0.0
    for layer in REPORTED:
        seconds, calls = merged.get(layer, (0.0, 0))
        attributed += seconds
        out[f"{layer}_ms"] = 1000.0 * seconds / ops
        out[f"{layer}_calls"] = calls
    out["unattributed_ms"] = 1000.0 * (op_seconds - attributed) / ops
    out["unattributed_calls"] = ops
    return out
