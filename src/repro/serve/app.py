"""The significance-analysis service: routes, handlers, caches, workers.

:class:`SignificanceService` wires the kernel registry
(:mod:`repro.serve.kernels`) to the asyncio HTTP layer
(:mod:`repro.serve.http`):

* ``POST /analyse`` — kernel id + input ranges -> the full
  :class:`~repro.scorpio.report.SignificanceReport` as JSON.  The body is
  exactly ``repro.scorpio.serialize.report_to_json`` output, so a service
  response is byte-identical to an in-process analysis; the
  ``X-Repro-Cache`` header says whether it was served by recording,
  replay or divergence fallback.
* ``POST /advise`` — same analysis, answered with fastmath substitution
  advice from :mod:`repro.scorpio.advisor`.
* ``POST /tune`` — ratio-knob search via :mod:`repro.runtime.tuning`;
  answers a ready-to-use ``taskwait(ratio=...)`` recommendation.
* ``GET /metrics`` — Prometheus text exposition of the process-global
  :mod:`repro.obs` registry (per-endpoint latency, cache hit/divergence
  counters, and everything the pipeline itself counts).
* ``GET /healthz`` / ``GET /kernels`` — liveness and discovery.

Each endpoint's work is written once, as a module-level request
function that builds the response body: ``_analyse_in_worker_process``
(with ``_analyse_batch_in_worker_process`` for coalesced batches),
``_advise_in_worker_process`` and ``_tune_in_worker_process``.  None of
them runs on the event loop: every request's function is shipped to a
serve thread, so a cold recording (tens of milliseconds of
operator-overloaded taping) does not stall concurrently arriving warm
requests, which are pure vectorized replay.  On that thread the
configured executor is the only switch: the thread backend calls the
function in place, the process backend runs it as one task on a
:class:`repro.mp.ProcessExecutor` worker.  Replaying warm batches of
the small kernels on the loop itself was measured and dropped: it saves
the pool hop's interpreter-lock hand-offs, about 1 ms of server CPU per
request, but puts all serving on one core, and on a shared 2-vCPU host
the throughput then swung with that one core's speed from run to run
(``docs/BENCHMARKS.md``).

The functions analyse against a serving state: the registry plus one
:class:`~repro.scorpio.TraceCache` per kernel — kernel identity is the
cache key — whose per-key record lock guarantees two racing cold
requests record exactly once.  The thread backend passes the service's
own state; each pool worker keeps one of its own per process, so
``GET /kernels`` reports cache stats on the thread backend only, and
the ``trace_cache_*`` totals in ``GET /metrics`` add up the workers'.

Every analysis failure, on ``/analyse``, ``/advise`` or ``/tune``,
answers 500 with the detail ``"<Type>: <message>"``, on either backend
and batch setting.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import __version__ as _VERSION
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder, RequestRecord
from repro.runtime.task import ExecutionMode, Task
from repro.scorpio import TraceCache
from repro.scorpio.serialize import report_to_json

from .batching import KernelBatcher
from .http import HttpError, HttpServer, Request, Response, Router, json_response
from .kernels import KernelEntry, default_registry, parse_intervals, tune_setup

__all__ = ["ServiceConfig", "SignificanceService", "ServiceThread"]


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8077
    request_timeout: float = 30.0
    max_body: int = 4 * 1024 * 1024
    workers: int = 4  # analysis thread / process pool size
    validate: bool = False  # TraceCache re-record validation
    # Analysis backend, where every endpoint's request function runs:
    # "thread" (the default) calls it on the serve thread pool against
    # the service's own TraceCaches; "process" runs it as a task on a
    # :class:`repro.mp.ProcessExecutor` whose long-lived workers each
    # keep their own per-process TraceCaches (record once per worker,
    # replay after — responses are byte-identical either way, which is
    # the cache's pinned invariant).
    executor: str = "thread"
    # Dynamic micro-batching of POST /analyse: concurrent requests for
    # one kernel that queue while the previous batch runs are coalesced
    # into one lane-batched replay sweep of up to max_batch lanes
    # (responses stay byte-identical to the unbatched path).
    # max_batch=1 disables coalescing entirely.
    max_batch: int = 16
    # Persistent tape store directory (None -> $REPRO_TAPE_DIR if set).
    # With a store, a restarted service loads recorded tapes from disk
    # and serves its very first request per kernel as a replay.
    store_dir: str | None = None
    # Span recording for the service's lifetime.  The service enables the
    # process-global obs tracing flag on construction; the last such
    # service to close() restores the value the first one found, in any
    # close order, so embedding services (tests, examples) never leaks
    # the flag.  The flight recorder below is independent of this and
    # always on.
    tracing: bool = True
    # Per-request flight recorder: ring size of retained request
    # summaries served at GET /debug/requests and /debug/trace/<id>.
    flight_capacity: int = 256
    # Blanket per-kernel latency SLO in ms applied to every kernel whose
    # KernelEntry does not pin its own slo_ms (None = no objective).  A
    # kernel whose most recent request exceeded its SLO turns /healthz
    # "degraded".
    default_slo_ms: float | None = None


# Per-endpoint observability: one latency histogram per route plus
# request/error totals, all in the process-global obs registry so
# GET /metrics exposes them alongside the pipeline's own counters.
_H_LATENCY = {
    name: obs_metrics.histogram(f"serve.latency_ms.{name}")
    for name in (
        "analyse", "advise", "tune", "metrics", "healthz", "kernels", "debug",
    )
}
_C_REQUESTS = obs_metrics.counter("serve.requests")
_C_ERRORS = obs_metrics.counter("serve.errors")
_C_HITS = obs_metrics.counter("serve.analyse.cache_hits")
_C_MISSES = obs_metrics.counter("serve.analyse.cache_misses")
_C_DIVERGENCES = obs_metrics.counter("serve.analyse.divergences")

_OUTCOME_COUNTER = {
    "replay": _C_HITS,
    "record": _C_MISSES,
    "divergence": _C_DIVERGENCES,
}

# Per-request flight-record scratch, set by _timed() for the duration of
# one handler invocation.  A contextvar (not an attribute on the request)
# because handlers fan work out through closures; anything running in the
# request's asyncio context can annotate the record via _request_info().
_REQ_INFO: ContextVar["dict[str, Any] | None"] = ContextVar(
    "repro_serve_request_info", default=None
)


def _request_info() -> "dict[str, Any] | None":
    """The in-flight request's flight-record scratch dict (or None)."""
    return _REQ_INFO.get()


class _TracingHolds:
    """The services that turned span recording on, counted under a lock.

    The first to start remembers the caller's flag and the last to close
    restores it, so services may close in any order without leaving the
    process-global flag on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._saved = False

    def acquire(self) -> None:
        with self._lock:
            previous = obs_trace.set_enabled(True)
            if self._count == 0:
                self._saved = previous
            self._count += 1

    def release(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count == 0:
                obs_trace.set_enabled(self._saved)


_TRACING_HOLDS = _TracingHolds()


def _require_number(name: str, value: Any) -> None:
    """400 unless ``value`` is a JSON number (``true``/``false`` are not)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise HttpError(400, f"'{name}' must be a number")


def _error_detail(exc: BaseException) -> str:
    """How the service reports a failed analysis: ``"<Type>: <message>"``.

    Coalesced batches ship per-request failures home in this form
    because some exceptions (``AmbiguousComparisonError`` among them) do
    not survive a pickle round trip, so every endpoint and backend
    renders them this way.
    """
    return f"{type(exc).__name__}: {exc}"


def _assemble_trace(trace_id: str) -> list[dict[str, Any]]:
    """One trace's span forest, re-linked across recording boundaries.

    Root spans reach the ring separately (the request's manual span, the
    batch span, spans adopted from pool workers); each still carries its
    context's ``parent_id``, so any root whose parent is present in the
    same trace is re-attached as a child — the returned forest shows the
    HTTP handling, the batch and the worker-side replay as one tree
    whenever the ids connect.
    """
    dicts = obs_profile.spans_to_dicts(obs_trace.spans_for_trace(trace_id))
    by_id: dict[str, dict[str, Any]] = {}

    def index(node: dict[str, Any]) -> None:
        span_id = node.get("span_id")
        if span_id:
            by_id[span_id] = node
        for child in node["children"]:
            index(child)

    for node in dicts:
        index(node)
    forest: list[dict[str, Any]] = []
    for node in dicts:
        parent = by_id.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            forest.append(node)
    forest.sort(key=lambda node: node.get("start_epoch") or 0.0)
    return forest


class _ServeState:
    """What the request functions analyse against: the kernel registry
    plus one :class:`TraceCache` per kernel.

    A TraceCache is per-process, so the state pickles as its two cache
    settings, and unpickling gives the receiving process its own state
    (:func:`_process_state`).  The thread backend hands the service's
    state to the request functions; the process backend ships the same
    argument to its pool workers, and a task the executor falls back to
    running in the parent keeps the service's state.
    """

    def __init__(
        self,
        registry: dict[str, KernelEntry],
        validate: bool,
        store_dir: "str | None",
    ):
        self.registry = registry
        self.validate = validate
        self.store_dir = store_dir
        self.caches = {
            kid: TraceCache(validate=validate, store_dir=store_dir)
            for kid in registry
        }

    def __reduce__(self):
        return _process_state, (self.validate, self.store_dir)

    def __getitem__(self, kernel_id: str) -> tuple[KernelEntry, TraceCache]:
        return self.registry[kernel_id], self.caches[kernel_id]


@functools.cache
def _process_state(validate: bool, store_dir: "str | None") -> _ServeState:
    """This process's serving state for one pair of cache settings.

    Built once per pool worker over the default registry, the only one
    the process backend serves, so each worker records a kernel's trace
    once and replays it for every later request it handles.  With a
    ``store_dir`` every worker attaches the *persisted* tape instead of
    re-recording its own copy: the first worker to record a kernel saves
    the tape, and every other worker (and every restart) warm-starts
    from disk.
    """
    return _ServeState(default_registry(), validate, store_dir)


# The request functions: each endpoint's work, written once.  The service
# runs them on whichever executor is configured (SignificanceService._call),
# so "worker" means a serve pool thread or a pool worker process.


def _count(outcome: str) -> None:
    """Count one analysed request under its cache outcome."""
    counter = _OUTCOME_COUNTER.get(outcome)
    if counter is not None:
        counter.inc()


def _analysed(
    kernel_id: str, intervals: list, state: _ServeState
) -> tuple[Any, str]:
    """(report, cache outcome) of one request, counted."""
    entry, cache = state[kernel_id]
    report, outcome = cache.analyse_outcome(
        entry.cache_key, entry.recorder, intervals, simplify=entry.simplify
    )
    _count(outcome)
    return report, outcome


def _analyse_in_worker_process(
    kernel_id: str, intervals: list, state: _ServeState
) -> tuple[bytes, str]:
    """One /analyse request: the response body and the cache outcome.

    The body is ``report_to_json`` of the report, byte-identical to an
    in-process analysis of the same ranges whichever backend, worker or
    cache state answers: recording and replay serialize identically.
    """
    report, outcome = _analysed(kernel_id, intervals, state)
    return report_to_json(report).encode("utf-8"), outcome


def _analyse_batch_in_worker_process(
    kernel_id: str, intervals_batch: list, state: _ServeState
) -> list:
    """One coalesced /analyse batch, replayed as ONE lane-batched sweep.

    Returns one picklable tagged item per request, ``("ok", body,
    outcome)`` or ``("err", detail)``, each exactly what the request
    answers unbatched.
    """
    entry, cache = state[kernel_id]
    try:
        outcomes = cache.analyse_batch_outcome(
            entry.cache_key,
            entry.recorder,
            intervals_batch,
            simplify=entry.simplify,
        )
    except Exception as exc:  # noqa: BLE001 - answered per request
        if len(intervals_batch) == 1:
            # A batch of one ran as its unbatched analysis already, so
            # its failure is its answer.
            return [("err", _error_detail(exc))]
        # Batch-level failure (e.g. an ambiguous comparison poisoning
        # the shared sweep): retry each request alone so only the
        # culprits fail, exactly as if they had never been batched.
        items: list = []
        for intervals in intervals_batch:
            try:
                body, outcome = _analyse_in_worker_process(
                    kernel_id, intervals, state
                )
                items.append(("ok", body, outcome))
            except Exception as err:  # noqa: BLE001 - per-request isolation
                items.append(("err", _error_detail(err)))
        return items
    items = []
    for report, outcome in outcomes:
        _count(outcome)
        items.append(("ok", report_to_json(report).encode("utf-8"), outcome))
    return items


def _advise_in_worker_process(
    kernel_id: str, intervals: list, threshold: float, state: _ServeState
) -> Response:
    """One /advise request: fastmath substitution advice for the report."""
    from repro.scorpio.advisor import render_advice, suggest_approximations

    report, outcome = _analysed(kernel_id, intervals, state)
    suggestions = suggest_approximations(report, float(threshold))
    return json_response(
        {
            "kernel": kernel_id,
            "threshold": float(threshold),
            "suggestions": [
                {
                    "node_id": s.node_id,
                    "op": s.op,
                    "replacement": s.replacement,
                    "significance": s.significance,
                    "cost_saving": s.cost_saving,
                    "score": s.score,
                }
                for s in suggestions
            ],
            "advice": render_advice(suggestions),
        },
        headers={"X-Repro-Cache": outcome},
    )


def _tune_in_worker_process(
    kernel_id: str,
    size: "int | None",
    target_quality: "float | None",
    energy_budget: "float | None",
) -> Response:
    """One /tune request: the ratio-knob search's recommendation."""
    from repro.runtime.tuning import (
        best_quality_under_energy,
        min_ratio_for_quality,
    )

    setup = tune_setup(kernel_id, size)
    if target_quality is not None:
        result = min_ratio_for_quality(
            setup.evaluate,
            float(target_quality),
            higher_is_better=setup.higher_is_better,
        )
        mode = "target_quality"
    else:
        result = best_quality_under_energy(
            setup.evaluate,
            float(energy_budget),
            higher_is_better=setup.higher_is_better,
        )
        mode = "energy_budget"
    return json_response(
        {
            "kernel": kernel_id,
            "mode": mode,
            "taskwait": {"ratio": result.ratio},
            "ratio": result.ratio,
            "quality": result.quality,
            "quality_metric": setup.quality_metric,
            "energy": result.energy,
            "satisfied": result.satisfied,
            "workload": setup.workload,
            "probes": {
                f"{ratio:.6g}": {"quality": q, "energy": e}
                for ratio, (q, e) in sorted(result.probes.items())
            },
        }
    )


class SignificanceService:
    """Significance-analysis-as-a-service over a kernel registry."""

    def __init__(
        self,
        registry: dict[str, KernelEntry] | None = None,
        config: ServiceConfig | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.config = config or ServiceConfig()
        backend = (self.config.executor or "thread").strip().lower()
        if backend not in ("thread", "process"):
            raise ValueError(
                f"unknown serve executor {self.config.executor!r}; "
                "expected 'thread' or 'process'"
            )
        self.config.executor = backend
        self._mp = None
        if backend == "process":
            if registry is not None:
                raise ValueError(
                    "executor='process' serves the default registry only "
                    "(pool workers rebuild it; a custom registry would "
                    "not reach them)"
                )
            from repro.mp import ProcessExecutor

            self._mp = ProcessExecutor(
                max_workers=self.config.workers
            ).warm()
        # Resolve the persistent tape store once so /healthz (and the
        # pool workers) see the effective directory, env var included.
        if self.config.store_dir is None:
            self.config.store_dir = os.environ.get("REPRO_TAPE_DIR") or None
        self._state = _ServeState(
            self.registry, self.config.validate, self.config.store_dir
        )
        self.caches: dict[str, TraceCache] = self._state.caches
        # GET /kernels reports the caches that answer requests.  Pool
        # workers keep their own, which only /metrics adds up; the
        # service's caches then serve just the executor's fallbacks.
        self._reported_caches = self.caches if self._mp is None else {}
        if self.config.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # One request coalescer per kernel (max_batch=1 -> none; the
        # unbatched dispatch path is used verbatim).
        self._batchers: dict[str, KernelBatcher] | None = None
        if self.config.max_batch > 1:
            self._batchers = {
                kid: KernelBatcher(
                    max_batch=self.config.max_batch,
                    # The whole coalesced batch goes to one serve thread.
                    dispatch=functools.partial(
                        self._in_worker, self._batch_analyse_entry, entry
                    ),
                    name=kid,
                )
                for kid, entry in self.registry.items()
            }
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        # The always-on flight recorder behind GET /debug/requests and
        # /debug/trace/<id>, with the per-kernel latency SLOs.
        self.flight = FlightRecorder(capacity=self.config.flight_capacity)
        for kid, entry in self.registry.items():
            slo = (
                entry.slo_ms
                if entry.slo_ms is not None
                else self.config.default_slo_ms
            )
            if slo is not None:
                self.flight.set_slo(kid, slo)
        self._started = time.time()
        self.server = HttpServer(
            self._build_router(),
            host=self.config.host,
            port=self.config.port,
            request_timeout=self.config.request_timeout,
            max_body=self.config.max_body,
        )
        # Last: turn on span recording for the service's lifetime (the
        # pool, if any, was warmed above, so fork-started workers do not
        # inherit the flag — _worker_run carries it per task instead).
        # The last service to close restores the caller's flag.
        self._holds_tracing = False
        if self.config.tracing:
            _TRACING_HOLDS.acquire()
            self._holds_tracing = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listening socket; returns the bound (host, port)."""
        return await self.server.start()

    async def serve_forever(self) -> None:
        await self.server.serve_forever()

    async def close(self) -> None:
        await self.server.close()
        if self._batchers is not None:
            for batcher in self._batchers.values():
                batcher.close()
        self._executor.shutdown(wait=False)
        if self._mp is not None:
            self._mp.close()
        if self._holds_tracing:
            self._holds_tracing = False
            _TRACING_HOLDS.release()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _build_router(self) -> Router:
        router = Router()
        router.get("/healthz", self._timed("healthz", self._handle_healthz))
        router.get("/kernels", self._timed("kernels", self._handle_kernels))
        router.get("/metrics", self._timed("metrics", self._handle_metrics))
        router.post("/analyse", self._timed("analyse", self._handle_analyse))
        router.post("/advise", self._timed("advise", self._handle_advise))
        router.post("/tune", self._timed("tune", self._handle_tune))
        router.get(
            "/debug/requests",
            self._timed("debug", self._handle_debug_requests),
        )
        router.get_prefix(
            "/debug/trace/",
            self._timed("debug", self._handle_debug_trace),
        )
        return router

    def _timed(
        self,
        name: str,
        handler: Callable[[Request], Any],
    ) -> Callable[[Request], Any]:
        """Wrap a handler with latency metrics, trace context and the
        flight recorder.

        Each request's ``X-Repro-Trace`` header is parsed (or a fresh
        trace minted), a manual request span is opened under it — manual
        because the handler awaits, so a stack-based span would mis-nest
        concurrently interleaving requests — and the span's own context
        is made current for the handler, parenting everything downstream
        (batcher, thread pool, process workers).  The span's context is
        stamped back onto the response so callers can fetch
        ``/debug/trace/<id>``; one :class:`RequestRecord` lands in the
        flight recorder whatever the outcome.
        """
        histogram = _H_LATENCY[name]

        async def wrapped(request: Request) -> Response:
            _C_REQUESTS.inc()
            ctx_in = obs_context.parse_header(
                request.headers.get("x-repro-trace")
            )
            if ctx_in is None:
                ctx_in = obs_context.new_trace()
            own = ctx_in.child()
            sp = obs_trace.manual_span(
                f"serve.{name}", own, method=request.method, path=request.path
            )
            info: dict[str, Any] = {"stages": {}}
            info_token = _REQ_INFO.set(info)
            status = 200
            error = ""
            t0 = time.perf_counter()
            try:
                with obs_context.use(own):
                    response = await handler(request)
                status = response.status
                response.headers.setdefault(
                    obs_context.HEADER, own.to_header()
                )
                return response
            except HttpError as exc:
                status = exc.status
                error = exc.detail or exc.reason
                _C_ERRORS.inc()
                raise
            except Exception as exc:
                status = 500
                error = f"{type(exc).__name__}: {exc}"
                _C_ERRORS.inc()
                raise
            finally:
                elapsed = time.perf_counter() - t0
                histogram.observe(elapsed * 1000.0)
                _REQ_INFO.reset(info_token)
                sp.set(status=status)
                if error:
                    sp.set(error=error)
                obs_trace.adopt([sp.finish()])
                if name not in ("metrics", "healthz", "debug"):
                    self.flight.record(
                        RequestRecord(
                            trace_id=own.trace_id,
                            path=request.path,
                            kernel=info.get("kernel", ""),
                            status=status,
                            outcome=info.get("outcome", ""),
                            batch_size=info.get("batch_size", 1),
                            batch_index=info.get("batch_index", 0),
                            executor=self.config.executor,
                            duration_seconds=elapsed,
                            stages=info["stages"],
                            error=error,
                        )
                    )

        return wrapped

    # ------------------------------------------------------------------
    # Dispatch: the serve thread hop, then the configured executor
    # ------------------------------------------------------------------
    async def _in_worker(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` on a serve pool thread, off the event loop.

        ``run_in_executor`` does not carry contextvars onto the pool
        thread; :func:`repro.obs.context.run_with` is the explicit hop
        that keeps the request's trace context attached to its work.  A
        failure answers 500 with the detail ``"<Type>: <message>"``.
        """
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor,
                obs_context.run_with,
                obs_context.current(),
                functools.partial(fn, *args),
            )
        except Exception as exc:  # noqa: BLE001 - answered as a 500
            raise HttpError(500, _error_detail(exc)) from exc

    def _call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` on the configured executor: the backend switch.

        The thread backend calls ``fn`` here, on the serve thread.  The
        process backend runs it as one task on a pool worker, where a
        :class:`_ServeState` argument arrives as that worker's own state.
        """
        if self._mp is None:
            return fn(*args)
        task = Task(fn=fn, args=args, label=fn.__name__)
        [result] = self._mp.run([task], [ExecutionMode.ACCURATE])
        return result.value

    def _batch_analyse_entry(self, entry: KernelEntry, batch: list) -> list:
        """Tagged per-request results of one coalesced batch."""
        return self._call(
            _analyse_batch_in_worker_process,
            entry.kernel_id,
            batch,
            self._state,
        )

    # perfbench/layers.py times the batch envelope under this name too.
    _mp_batch_analyse_entry = _batch_analyse_entry

    def _entry(self, payload: dict) -> KernelEntry:
        kernel_id = payload.get("kernel")
        if not isinstance(kernel_id, str) or not kernel_id:
            raise HttpError(400, "missing required field 'kernel'")
        entry = self.registry.get(kernel_id)
        if entry is None:
            raise HttpError(
                404,
                f"unknown kernel {kernel_id!r}; "
                f"known: {', '.join(sorted(self.registry))}",
            )
        return entry

    def _intervals(self, payload: dict, entry: KernelEntry):
        try:
            return parse_intervals(payload.get("inputs"), entry)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        degraded = self.flight.degraded_kernels()
        return json_response(
            {
                "status": "ok",
                "version": _VERSION,
                "uptime_seconds": round(time.time() - self._started, 3),
                "kernels": sorted(self.registry),
                # The analysis backend, so deploy smoke checks can assert
                # which executor actually serves /analyse.
                "executor": self.config.executor,
                "workers": self.config.workers,
                # Micro-batching + warm-start configuration, so deploys
                # can assert the coalescer and tape store are live.
                "max_batch": self.config.max_batch,
                "store_dir": self.config.store_dir,
                # Observability: span recording state and the flight
                # recorder's SLO verdict.  "degraded" means at least one
                # kernel's most recent request exceeded its latency SLO.
                "tracing": obs_trace.enabled(),
                "degraded": bool(degraded),
                "degraded_kernels": degraded,
            }
        )

    async def _handle_kernels(self, request: Request) -> Response:
        kernels = []
        for kid in sorted(self.registry):
            entry = self.registry[kid]
            cache = self._reported_caches.get(kid)
            kernels.append(
                {
                    "id": kid,
                    "summary": entry.summary,
                    "inputs": entry.n_inputs,
                    "input_names": list(entry.input_names),
                    "simplify": entry.simplify,
                    "quality_metric": entry.quality_metric,
                    "cache": None if cache is None else cache.stats(),
                }
            )
        return json_response({"kernels": kernels})

    async def _handle_metrics(self, request: Request) -> Response:
        return Response(
            body=obs_metrics.to_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_debug_requests(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError as exc:
            raise HttpError(400, "'limit' must be an integer") from exc
        return json_response(
            {
                "requests": self.flight.requests(limit=limit),
                "recorded": len(self.flight),
                "degraded_kernels": self.flight.degraded_kernels(),
            }
        )

    async def _handle_debug_trace(self, request: Request) -> Response:
        trace_id = request.path.removeprefix("/debug/trace/").strip("/")
        if obs_context.parse_header(trace_id) is None:
            raise HttpError(
                400, f"{trace_id!r} is not a trace id (32 hex chars)"
            )
        record = self.flight.for_trace(trace_id)
        spans = _assemble_trace(trace_id)
        if record is None and not spans:
            raise HttpError(
                404,
                f"trace {trace_id} not found (flight recorder keeps the "
                f"last {self.config.flight_capacity} requests; span "
                "recording requires tracing)",
            )
        return json_response(
            {"trace_id": trace_id, "request": record, "spans": spans}
        )

    async def _handle_analyse(self, request: Request) -> Response:
        payload = request.json()
        entry = self._entry(payload)
        intervals = self._intervals(payload, entry)
        info = _request_info()
        if info is not None:
            info["kernel"] = entry.kernel_id
        t_dispatch = time.perf_counter()
        if self._batchers is None:
            item = (
                "ok",
                *await self._in_worker(
                    self._call,
                    _analyse_in_worker_process,
                    entry.kernel_id,
                    intervals,
                    self._state,
                ),
            )
            size, index = 1, 0
        else:
            item, size, index = await self._batchers[
                entry.kernel_id
            ].submit(intervals)
        if info is not None:
            info["stages"]["dispatch"] = time.perf_counter() - t_dispatch
            info["batch_size"] = size
            info["batch_index"] = index
        if item[0] != "ok":
            raise HttpError(500, item[1])
        _, body, outcome = item
        if info is not None:
            info["outcome"] = outcome
        return Response(
            body=body,
            headers={
                "X-Repro-Cache": outcome,
                "X-Repro-Kernel": entry.kernel_id,
                # "<batch size>/<lane index>": how many requests shared
                # this response's replay sweep and which lane this one
                # was.  "1/0" means it rode alone.
                "X-Repro-Batch": f"{size}/{index}",
            },
        )

    async def _handle_advise(self, request: Request) -> Response:
        payload = request.json()
        entry = self._entry(payload)
        intervals = self._intervals(payload, entry)
        threshold = payload.get("threshold", 0.25)
        _require_number("threshold", threshold)
        info = _request_info()
        if info is not None:
            info["kernel"] = entry.kernel_id
        response = await self._in_worker(
            self._call,
            _advise_in_worker_process,
            entry.kernel_id,
            intervals,
            threshold,
            self._state,
        )
        if info is not None:
            info["outcome"] = response.headers.get("X-Repro-Cache", "")
        return response

    async def _handle_tune(self, request: Request) -> Response:
        payload = request.json()
        entry = self._entry(payload)
        target_quality = payload.get("target_quality")
        energy_budget = payload.get("energy_budget")
        if (target_quality is None) == (energy_budget is None):
            raise HttpError(
                400,
                "provide exactly one of 'target_quality' (min ratio "
                "meeting a quality floor) or 'energy_budget' (best "
                "quality within a budget)",
            )
        if target_quality is not None:
            _require_number("target_quality", target_quality)
        else:
            _require_number("energy_budget", energy_budget)
        info = _request_info()
        if info is not None:
            info["kernel"] = entry.kernel_id
        size = payload.get("size")
        if size is not None and (
            not isinstance(size, int) or isinstance(size, bool) or size < 2
        ):
            raise HttpError(400, "'size' must be an integer >= 2")
        return await self._in_worker(
            self._call,
            _tune_in_worker_process,
            entry.kernel_id,
            size,
            target_quality,
            energy_budget,
        )


class ServiceThread:
    """Run a :class:`SignificanceService` on a background thread.

    The in-process deployment used by the example tenants, the tests and
    the load generator::

        with ServiceThread() as service:
            client = service.client()
            report = client.analyse("blackscholes")

    Binds port 0 by default (the OS picks a free port) and publishes the
    bound address via :attr:`host`/:attr:`port` once :meth:`start`
    returns.
    """

    def __init__(
        self,
        registry: dict[str, KernelEntry] | None = None,
        config: ServiceConfig | None = None,
    ):
        if config is None:
            config = ServiceConfig(port=0)
        self.service = SignificanceService(registry, config)
        self.host: str | None = None
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                "service failed to start"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.host, self.port = await self.service.start()
        except BaseException as exc:  # noqa: BLE001
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.service.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def client(self, timeout: float = 60.0):
        from .client import ServiceClient

        assert self.host is not None and self.port is not None
        return ServiceClient(self.host, self.port, timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
