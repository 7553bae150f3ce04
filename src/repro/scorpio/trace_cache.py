"""Trace cache: record a kernel's DynDFG once, replay it on many inputs.

The per-item cost of significance analysis is dominated by *recording* —
every elementary operation runs through Python operator overloading,
interval arithmetic on boxed objects and a tape append.  But the paper's
kernels analyse the same straight-line code over and over with different
input intervals (every 8x8 DCT block, every BlackScholes option, every
Sobel window records an identical graph).  This module keeps one
:class:`~repro.ad.compiled.CompiledTape` per distinct trace and re-runs it
with a forward replay (:meth:`CompiledTape.forward`: on Python floats for
a small trace such as a served kernel's, as array sweeps for a large one
such as a DCT block's) instead of re-recording, feeding the replayed
lane straight into the compiled
analysis pipeline
(:func:`~repro.scorpio.compiled.analyse_compiled_tape`) with the
structural work (S4 simplify, BFS levels) computed once per trace.

Replayed analyses are **bit-identical** to re-recording: either replay
path reproduces every rounding point of the object evaluation, and the reports
serialize byte-for-byte equal to a fresh ``Analysis`` run.

Validity: a cached trace is one straight-line execution.  Traces whose
structure cannot be re-evaluated (float-valued computed nodes, unsupported
ops) are rejected up front by the replay structure guard and fall back to
recording; input-dependent control flow is caught by re-checking the
recorded comparison outcomes on the replayed values — a divergent branch
raises :class:`~repro.ad.replay.GuardDivergenceError` and the cache
transparently re-records.  ``validate=True`` additionally re-records the
first replayed sample per trace and asserts the recording really is the
same trace (op-sequence hash) with the same values (bitwise); a sample on
another guarded branch takes the divergence path and leaves the check to
a later one.

The module-level replay default (:func:`replay_enabled` /
:func:`set_replay_default`) lets the CLI's ``--replay/--no-replay`` flag
steer every kernel analysis loop without threading a flag through each
call site.

Concurrency: a :class:`TraceCache` is safe to share between threads
(:mod:`repro.serve` hits one cache per kernel from a thread pool).  A
per-key record lock serialises cold recording so two requests for the
same cold kernel cannot race a half-built trace — the loser of the race
waits, then replays.  A replay only reads its :class:`CachedTrace`: it
evaluates into lane arrays of its own, so any number of threads replay
one trace at once and the warm path takes no lock but the cache-wide
mutex that guards the trace map and the stats counters.

**Both classes are per-process.**  The record locks are ``threading``
locks, invisible to other processes, and a :class:`CachedTrace` holds
its whole object tape.  Pickling a :class:`TraceCache` or
:class:`CachedTrace` therefore raises ``TypeError`` up front.  To hand a
trace to worker processes, use :meth:`CachedTrace.share`: it freezes the
compiled arrays into :class:`repro.mp.SharedTape` segments whose handles
pickle by ``(segment name, shape, dtype)``, and each worker attaches its
own ``CompiledTape`` over zero-copy views — see :mod:`repro.mp`.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, Sequence

import numpy as np

from repro.ad.compiled import CompiledTape
from repro.ad.replay import GuardDivergenceError, ReplayError
from repro.ad.tape import Tape
from repro.intervals import AmbiguousComparisonError, Interval, as_interval
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span as _obs_span

from .compiled import (
    LaneScanMap,
    TraceStructure,
    _scan_columns,
    analyse_compiled_tape,
    analyse_replay_lanes,
    lane_eq11,
    scan_rows,
)
from .report import SignificanceReport

__all__ = [
    "CachedTrace",
    "TraceCache",
    "TraceDivergenceError",
    "op_sequence_hash",
    "replay_enabled",
    "set_replay_default",
]


# Process-wide totals (all caches), surfaced by ``repro profile``.  Each
# cache also keeps its own Counter instances so ``stats()`` stays
# per-instance — see TraceCache.__init__.
_C_RECORDS = _obs_metrics.counter("trace_cache.records")
_C_REPLAYS = _obs_metrics.counter("trace_cache.replays")
_C_DIVERGENCES = _obs_metrics.counter("trace_cache.divergences")
_C_VALIDATIONS = _obs_metrics.counter("trace_cache.validations")


class TraceDivergenceError(RuntimeError):
    """Validation found a re-recorded trace differing from the cached one.

    Raised only in ``validate=True`` mode: the kernel recorded a different
    op sequence (or different values) on inputs the cache replayed, which
    means the straight-line assumption was violated *without* tripping a
    recorded guard — i.e. the kernel branches on something the tape never
    compared (Python-level control flow on untaped data).  Such kernels
    must not be replayed.
    """


# Sentinel distinguishing "never seen this key" from "seen and rejected"
# (None) in the trace map.
_MISSING: Any = object()


# ----------------------------------------------------------------------
# Replay default (CLI-facing switch)
# ----------------------------------------------------------------------
_REPLAY_DEFAULT = True


def replay_enabled(replay: bool | None = None) -> bool:
    """Resolve a tri-state ``replay`` argument against the module default."""
    return _REPLAY_DEFAULT if replay is None else bool(replay)


def set_replay_default(enabled: bool) -> bool:
    """Set the module-wide replay default; returns the previous value."""
    global _REPLAY_DEFAULT
    previous = _REPLAY_DEFAULT
    _REPLAY_DEFAULT = bool(enabled)
    return previous


def op_sequence_hash(tape: Tape) -> str:
    """Fingerprint of a tape's structure: ops, edges and guard count.

    Two recordings of the same straight-line code produce the same hash
    regardless of the input values; a divergent branch changes the op
    sequence and therefore the hash.
    """
    h = hashlib.blake2b(digest_size=16)
    for node in tape.nodes:
        h.update(node.op.encode("utf-8", "replace"))
        h.update(b"(")
        for p in node.parents:
            h.update(str(p).encode("ascii"))
            h.update(b",")
        h.update(b")")
    h.update(b"|guards:")
    h.update(str(len(tape.guards)).encode("ascii"))
    return h.hexdigest()


class CachedTrace:
    """One frozen recording, ready to analyse fresh inputs by replay.

    Built from a completed :class:`~repro.scorpio.api.Analysis` whose
    recorded trace passed the replay structure guard.  Each
    :meth:`analyse` call forwards new input intervals through the frozen
    arrays and runs the compiled analysis pipeline on them, reusing the
    per-trace :class:`~repro.scorpio.compiled.TraceStructure`.
    """

    __slots__ = (
        "ct",
        "structure",
        "input_ids",
        "intermediate_ids",
        "output_ids",
        "delta",
        "simplify",
        "op_hash",
        "validated",
    )

    def __init__(self, analysis: Any, *, simplify: bool = True):
        tape = analysis.tape
        ct = CompiledTape(tape)
        # Structure guard: raises ReplayError for unreplayable traces.
        plan = ct._forward_plan()
        input_ids = [v.node.index for v in analysis._inputs]
        if plan.input_nodes != input_ids:
            raise ReplayError(
                "registered inputs do not match the trace's input nodes "
                "in order; the recorder must register inputs in argument "
                "order"
            )
        self.ct = ct
        self.input_ids = input_ids
        self.intermediate_ids = [
            v.node.index for v in analysis._intermediates
        ]
        self.output_ids = [v.node.index for v in analysis._outputs]
        self.delta = analysis.delta
        self.simplify = simplify
        self.structure = TraceStructure(
            ct, self.output_ids, simplify=simplify
        )
        self.op_hash = op_sequence_hash(tape)
        self.validated = False

    @classmethod
    def from_compiled(
        cls,
        ct: CompiledTape,
        *,
        input_ids: Sequence[int],
        intermediate_ids: Sequence[int],
        output_ids: Sequence[int],
        delta: float,
        simplify: bool,
        op_hash: str,
    ) -> "CachedTrace":
        """Rebuild a trace from an already-compiled tape (no recording).

        This is how :class:`~repro.scorpio.tape_store.TapeStore` turns a
        deserialized ``CompiledTape`` back into a live cache entry: the
        analysis ids and hash come from the store header instead of an
        ``Analysis`` object.  The same structure guard applies — a tape
        whose forward plan disagrees with the registered inputs raises
        :class:`~repro.ad.replay.ReplayError`.
        """
        plan = ct._forward_plan()
        input_ids = [int(i) for i in input_ids]
        if plan.input_nodes != input_ids:
            raise ReplayError(
                "stored tape's forward-plan inputs do not match its "
                "recorded input ids"
            )
        self = object.__new__(cls)
        self.ct = ct
        self.input_ids = input_ids
        self.intermediate_ids = list(intermediate_ids)
        self.output_ids = list(output_ids)
        self.delta = delta
        self.simplify = simplify
        self.structure = TraceStructure(
            ct, self.output_ids, simplify=simplify
        )
        self.op_hash = op_hash
        self.validated = False
        return self

    def __reduce__(self):
        raise TypeError(
            "CachedTrace is per-process (it holds the whole object "
            "tape); use CachedTrace.share() to freeze the compiled arrays "
            "into a picklable repro.mp.SharedTape instead"
        )

    def share(self, **meta: Any) -> "Any":
        """Freeze this trace into a picklable :class:`repro.mp.SharedTape`.

        The handle carries the analysis ids (inputs / intermediates /
        outputs), ``delta`` and ``simplify`` in its metadata alongside
        any extra ``meta`` keys, so a worker can rebuild the full
        analysis context from the handle alone.  Workers attach their
        own ``CompiledTape`` over read-only views of the segments.
        """
        from repro.mp import SharedTape

        return SharedTape.freeze(
            self.ct,
            input_ids=list(self.input_ids),
            intermediate_ids=list(self.intermediate_ids),
            output_ids=list(self.output_ids),
            delta=self.delta,
            simplify=self.simplify,
            op_hash=self.op_hash,
            **meta,
        )

    def _analyse_lane(self, lanes: Any = None) -> SignificanceReport:
        """Analyse one lane: a one-input replay's, or the recording's."""
        return analyse_compiled_tape(
            self.ct,
            self.output_ids,
            lanes=lanes,
            input_ids=self.input_ids,
            intermediate_ids=self.intermediate_ids,
            delta=self.delta,
            simplify=self.simplify,
            structure=self.structure,
        )

    def analyse(self, inputs: Sequence[Interval]) -> SignificanceReport:
        """Replay ``inputs`` and analyse — bit-identical to re-recording.

        Raises :class:`~repro.ad.replay.GuardDivergenceError` when the
        inputs take a different branch than the recorded trace, and
        :class:`~repro.intervals.AmbiguousComparisonError` when a recorded
        comparison is ambiguous on them (recording would raise it too).
        """
        return self._analyse_lane(self.ct.forward(inputs))

    # ------------------------------------------------------------------
    # Lane-batched replay: one forward + one reverse sweep for L input
    # sets
    # ------------------------------------------------------------------
    def label_index(self, label: str) -> int:
        """Node index carrying ``label`` (input/intermediate/output tag)."""
        for idx, lab in self.ct.labels.items():
            if lab == label:
                return idx
        raise KeyError(f"no node labelled {label!r} in the cached trace")

    def forward_lanes(self, inputs_lo, inputs_hi, *, workspace=None):
        """Replay ``(n_inputs, L)`` lane bounds over the trace; returns a
        :class:`repro.ad.compiled.ReplayLanes` (lane ``l`` bit-identical
        to recording on lane ``l``'s inputs).  ``workspace`` is passed to
        :meth:`CompiledTape.forward_lanes`."""
        return self.ct.forward_lanes(inputs_lo, inputs_hi, workspace=workspace)

    def lane_significances(self, lanes, rows=None) -> "Any":
        """Eq. 11 significance matrix over replayed lanes.

        ``(n_nodes, L)`` by default; with ``rows`` (node ids, any order,
        repeats allowed) Eq. 11 runs on those rows only and the result is
        ``(len(rows), L)`` in the order given.  Column ``l`` is
        bit-identical to the per-node significances a scalar analysis of
        lane ``l``'s inputs would compute.  Requires a single-output
        trace (the sweep seeds that output with 1).
        """
        if len(self.output_ids) != 1:
            raise ReplayError(
                "lane significance replay supports single-output traces"
            )
        return lane_eq11(lanes, self.output_ids[0], rows=rows)

    @property
    def scan_rows(self) -> list[int]:
        """Node ids :meth:`lane_scan_map` reads, ascending."""
        return scan_rows(self.structure.scan_members())

    def lane_scan_map(
        self,
        sig,
        lane_shape: tuple[int, ...],
        *,
        delta: float | None = None,
        rows=None,
    ) -> LaneScanMap:
        """Lane-parallel Algorithm 1 S5 over a replayed significance
        matrix (:meth:`lane_significances`), over this trace's structure.

        When ``sig`` holds only some node rows, ``rows`` lists them (row
        ``k`` is node ``rows[k]``); it must cover :attr:`scan_rows`.
        Each lane leaves the scan at its found level: its later
        variances are NaN, every other entry is bit-identical to the
        scalar scan of that lane.
        """
        return _scan_columns(
            sig,
            lane_shape,
            self.structure.scan_members(),
            delta=self.delta if delta is None else delta,
            rows=rows,
        )

    def analyse_batch(
        self, inputs_batch: Sequence[Sequence[Interval]]
    ) -> list[SignificanceReport]:
        """Analyse L input sets with ONE forward + ONE adjoint sweep.

        Packs each input set as a lane of :meth:`forward_lanes` and runs
        :func:`~repro.scorpio.compiled.analyse_replay_lanes` over the
        block; element ``l`` of the result is byte-identical (through
        ``report_to_json``) to ``self.analyse(inputs_batch[l])``.  This
        is the primitive :mod:`repro.serve.batching` coalesces concurrent
        requests onto.

        Raises :class:`~repro.ad.replay.GuardDivergenceError` when *any*
        lane takes a different branch than the recorded trace, and
        :class:`~repro.intervals.AmbiguousComparisonError` when a lane
        cannot decide a recorded comparison (the guard check covers all
        lanes); callers fall back to per-item analysis.
        """
        L = len(inputs_batch)
        n_in = len(self.input_ids)
        lo = np.empty((n_in, L), dtype=np.float64)
        hi = np.empty((n_in, L), dtype=np.float64)
        for lane, inputs in enumerate(inputs_batch):
            if len(inputs) != n_in:
                raise ReplayError(
                    f"batch lane {lane} has {len(inputs)} inputs; the "
                    f"trace replays exactly {n_in}"
                )
            for j, iv in enumerate(inputs):
                iv = as_interval(iv)
                lo[j, lane] = iv.lo
                hi[j, lane] = iv.hi
        lanes = self.ct.forward_lanes(lo, hi)
        return analyse_replay_lanes(
            self.ct,
            lanes,
            self.output_ids,
            input_ids=self.input_ids,
            intermediate_ids=self.intermediate_ids,
            delta=self.delta,
            simplify=self.simplify,
            structure=self.structure,
        )


class TraceCache:
    """Keyed cache of :class:`CachedTrace`\\ s with record-or-replay logic.

    ``analyse(key, recorder, inputs)`` is the single entry point kernels
    use in their per-item loops:

    * first call per ``key``: run ``recorder(inputs)`` (which must build
      and return a recorded-but-not-analysed
      :class:`~repro.scorpio.api.Analysis`, registering one input per
      entry of ``inputs`` in order), freeze it, analyse from the frozen
      arrays;
    * later calls: replay ``inputs`` over the cached trace — no recording,
      no object tape, no per-item S4/BFS;
    * divergence (a recorded branch decided differently) or an
      unreplayable structure: transparent fallback to recording.

    The cache is keyed by kernel identity + input shape; the caller picks
    the key (e.g. ``("dct_block",)`` — all DCT blocks share one trace).
    ``validate=True`` re-records the first replayed sample per trace and
    asserts op-sequence-hash and bitwise value equality
    (:class:`TraceDivergenceError` on mismatch; the key then records on
    every later call, as for a trace the structure guard rejected).
    """

    def __init__(
        self,
        *,
        validate: bool = False,
        store_dir: "str | None" = None,
    ):
        self._traces: dict[Any, CachedTrace | None] = {}
        self.validate = validate
        # Optional persistent tape store: cold keys first try a disk
        # load (restart warm-start — the first request replays instead
        # of re-recording), and every freshly recorded trace is saved
        # back best-effort.
        if store_dir is not None:
            from .tape_store import TapeStore

            self.store: "Any | None" = TapeStore(store_dir)
        else:
            self.store = None
        # Per-instance obs.metrics counters — stats() is a thin view over
        # them; the module-level _C_* twins aggregate across every cache
        # for the ``repro profile`` metrics table.
        self._c_records = _obs_metrics.Counter("records")
        self._c_replays = _obs_metrics.Counter("replays")
        self._c_divergences = _obs_metrics.Counter("divergences")
        self._c_validations = _obs_metrics.Counter("validations")
        # _lock guards the trace map, the record-lock map and the stats
        # counters; _record_locks serialises cold recording per key.
        self._lock = threading.Lock()
        self._record_locks: dict[Any, threading.Lock] = {}

    def __reduce__(self):
        raise TypeError(
            "TraceCache is per-process (its record locks are threading "
            "locks); give each process its own cache, or share individual "
            "traces via CachedTrace.share()"
        )

    # Back-compat integer views (callers read cache.records directly).
    @property
    def records(self) -> int:
        return int(self._c_records.get())

    @property
    def replays(self) -> int:
        return int(self._c_replays.get())

    @property
    def divergences(self) -> int:
        return int(self._c_divergences.get())

    @property
    def validations(self) -> int:
        return int(self._c_validations.get())

    def stats(self) -> dict[str, int]:
        """Per-cache counters as a plain dict.

        The three recording causes are disjoint: ``records`` counts plain
        cache misses (the first recording per key, plus every re-record
        for kernels the structure guard rejected), ``divergences`` counts
        guard-divergence fallback recordings, and ``validations`` counts
        validate-mode re-recordings.  ``replays`` counts successful
        replays; ``traces`` the live cached traces.
        """
        return {
            "records": self.records,
            "replays": self.replays,
            "divergences": self.divergences,
            "validations": self.validations,
            "traces": sum(1 for t in self._traces.values() if t is not None),
        }

    def has(self, key: Any) -> bool:
        """True when ``key`` holds a live cached trace (replay expected)."""
        return self._traces.get(key) is not None

    def _count(
        self, local: _obs_metrics.Counter, total: _obs_metrics.Counter
    ) -> None:
        """Increment a per-cache counter and its process-wide twin."""
        with self._lock:
            local.inc()
            total.inc()

    def _record_lock(self, key: Any) -> threading.Lock:
        with self._lock:
            lock = self._record_locks.get(key)
            if lock is None:
                lock = threading.Lock()
                self._record_locks[key] = lock
            return lock

    def _record(
        self,
        key: Any,
        recorder: Callable[[Sequence[Interval]], Any],
        inputs: Sequence[Interval],
        simplify: bool,
        *,
        cache_it: bool,
    ) -> SignificanceReport:
        with _obs_span("trace_cache.record") as sp:
            sp.set(key=repr(key), cache_it=cache_it)
            analysis = recorder(inputs)
            if cache_it:
                try:
                    trace = CachedTrace(analysis, simplify=simplify)
                except ReplayError:
                    # Not a replayable trace; remember that and record
                    # forever.
                    with self._lock:
                        self._traces[key] = None
                else:
                    with self._lock:
                        self._traces[key] = trace
                    return trace._analyse_lane()
            return analysis.analyse(simplify=simplify, compiled=True)

    def analyse(
        self,
        key: Any,
        recorder: Callable[[Sequence[Interval]], Any],
        inputs: Sequence[Any],
        *,
        simplify: bool = True,
    ) -> SignificanceReport:
        """Record-or-replay analysis of one item (see class docstring)."""
        return self.analyse_outcome(key, recorder, inputs, simplify=simplify)[0]

    def analyse_outcome(
        self,
        key: Any,
        recorder: Callable[[Sequence[Interval]], Any],
        inputs: Sequence[Any],
        *,
        simplify: bool = True,
    ) -> tuple[SignificanceReport, str]:
        """:meth:`analyse` plus what actually happened to serve it.

        The second element is ``"record"`` (cache miss — a recording ran,
        whether or not the trace was cacheable), ``"replay"`` (pure
        vectorized replay of the cached trace) or ``"divergence"`` (the
        inputs took another branch; recorded as fallback).  Lets callers
        like :mod:`repro.serve` attribute each request exactly without
        diffing shared counters under concurrency.
        """
        inputs = [as_interval(iv) for iv in inputs]
        trace = self._traces.get(key, _MISSING)
        if trace is _MISSING:
            # Serialise cold recording per key: one thread records, any
            # thread that raced it waits here and then replays.
            with self._record_lock(key):
                if key not in self._traces:
                    if self._load_from_store(key, simplify) is None:
                        self._count(self._c_records, _C_RECORDS)
                        report = self._record(
                            key, recorder, inputs, simplify, cache_it=True
                        )
                        self._save_to_store(key)
                        return report, "record"
            trace = self._traces[key]
        if trace is None:
            # Structure guard rejected this kernel once; keep recording.
            self._count(self._c_records, _C_RECORDS)
            report = self._record(
                key, recorder, inputs, simplify, cache_it=False
            )
            return report, "record"
        try:
            if self.validate and not trace.validated:
                self._validate(trace, recorder, inputs)
            with _obs_span("trace_cache.replay") as sp:
                sp.set(key=repr(key), outcome="replay")
                report = trace.analyse(inputs)
        except TraceDivergenceError:
            # The trace is not the program's: every later call for this
            # key records, as for a trace the guard rejected.
            with self._lock:
                self._traces[key] = None
            raise
        except GuardDivergenceError:
            # These inputs take another branch; analyse them the slow way
            # but keep the cached trace for inputs that don't.  Counted as
            # a divergence, NOT as a record: stats() keeps the fallback
            # causes apart.
            self._count(self._c_divergences, _C_DIVERGENCES)
            report = self._record(
                key, recorder, inputs, simplify, cache_it=False
            )
            return report, "divergence"
        self._count(self._c_replays, _C_REPLAYS)
        return report, "replay"

    def _load_from_store(
        self, key: Any, simplify: bool
    ) -> "CachedTrace | None":
        """Try the persistent store for a cold key (record lock held).

        A hit installs the trace in the map and returns it, so the very
        first call after a restart is served as a *replay* — the whole
        point of :class:`~repro.scorpio.tape_store.TapeStore`.  Misses,
        corrupt files and ``simplify`` mismatches all return None and
        leave the map untouched (the caller records as usual).
        """
        if self.store is None:
            return None
        trace = self.store.load(key)
        if trace is None or trace.simplify != simplify:
            return None
        with self._lock:
            self._traces[key] = trace
        return trace

    def _save_to_store(self, key: Any) -> None:
        """Best-effort persist of a freshly recorded trace (record lock
        held)."""
        if self.store is None:
            return
        with self._lock:
            trace = self._traces.get(key)
        if trace is not None:
            self.store.save(key, trace)

    def analyse_batch_outcome(
        self,
        key: Any,
        recorder: Callable[[Sequence[Interval]], Any],
        inputs_batch: Sequence[Sequence[Any]],
        *,
        simplify: bool = True,
    ) -> list[tuple[SignificanceReport, str]]:
        """Record-or-replay a whole batch of input sets in one sweep.

        The batched twin of :meth:`analyse_outcome`: element ``i`` is
        exactly the ``(report, outcome)`` a scalar call on
        ``inputs_batch[i]`` would have produced — byte-identical reports
        — but warm lanes share ONE ``forward_lanes`` replay and ONE
        lane-batched adjoint sweep (:meth:`CachedTrace.analyse_batch`).

        Cold keys route their first item through the scalar path (which
        records or loads from the persistent store), and in validate mode
        items take it until one has validated the trace; the remainder
        is batched.  Guard divergence or an ambiguous comparison on any
        lane falls back to per-item analysis, so each item ends as its
        own call would and non-diverging lanes still replay.  This is
        the entry point
        :mod:`repro.serve.batching` dispatches coalesced requests to.
        """
        inputs_batch = [
            [as_interval(iv) for iv in inputs] for inputs in inputs_batch
        ]
        if not inputs_batch:
            return []
        results: list[tuple[SignificanceReport, str]] = [None] * len(
            inputs_batch
        )

        def scalar(i: int) -> None:
            results[i] = self.analyse_outcome(
                key, recorder, inputs_batch[i], simplify=simplify
            )

        start = 0
        trace = self._traces.get(key, _MISSING)
        while start < len(inputs_batch) and (
            trace is _MISSING
            or (trace is not None and self.validate and not trace.validated)
        ):
            # The scalar path records the trace, warm-starts it from the
            # store, or runs validation — whichever the cache state calls
            # for.
            scalar(start)
            start += 1
            trace = self._traces.get(key)
        if trace is None:
            # Structure guard rejected the kernel; everything records.
            for i in range(start, len(inputs_batch)):
                scalar(i)
            return results
        rest = inputs_batch[start:]
        if not rest:
            return results
        if len(rest) == 1:
            scalar(start)
            return results
        try:
            with _obs_span("trace_cache.replay_batch") as sp:
                sp.set(key=repr(key), lanes=len(rest), outcome="replay")
                reports = trace.analyse_batch(rest)
        except (GuardDivergenceError, AmbiguousComparisonError):
            # check_guards accepts a batch only when EVERY lane
            # reproduces the recorded outcomes, so one divergent or
            # ambiguous request fails the whole sweep.  Degrade to
            # per-item calls: the conforming lanes replay, the others
            # end as their own calls would.
            for i in range(start, len(inputs_batch)):
                scalar(i)
            return results
        with self._lock:
            self._c_replays.inc(len(rest))
            _C_REPLAYS.inc(len(rest))
        for offset, report in enumerate(reports):
            results[start + offset] = (report, "replay")
        return results

    def _validate(
        self,
        trace: CachedTrace,
        recorder: Callable[[Sequence[Interval]], Any],
        inputs: Sequence[Interval],
    ) -> None:
        """Replay one sample, re-record it and assert it is the same trace.

        The replay comes first, with guards: a sample on another guarded
        branch raises :class:`~repro.ad.replay.GuardDivergenceError`
        before anything records, and the trace stays unvalidated for a
        later sample on its own branch.
        """
        lanes = trace.ct.forward(inputs)
        self._count(self._c_validations, _C_VALIDATIONS)
        analysis = recorder(inputs)
        fresh_hash = op_sequence_hash(analysis.tape)
        if fresh_hash != trace.op_hash:
            raise TraceDivergenceError(
                "re-recording produced a different op sequence than the "
                "cached trace (hash mismatch): the kernel has control flow "
                "the tape does not guard — disable replay for it"
            )
        fresh = CompiledTape(analysis.tape)
        same = (
            fresh.value_lo.tobytes() == lanes.value_lo[:, 0].tobytes()
            and fresh.value_hi.tobytes() == lanes.value_hi[:, 0].tobytes()
        )
        if not same:
            raise TraceDivergenceError(
                "replayed values differ bitwise from a fresh recording on "
                "the same inputs — replay rule mismatch; please report"
            )
        trace.validated = True
