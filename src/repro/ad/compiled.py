"""Compiled tape: structure-of-arrays DynDFG with vectorized reverse sweeps.

:class:`CompiledTape` freezes a recorded :class:`~repro.ad.tape.Tape` into
flat NumPy arrays — int32 opcodes, CSR parent/partial arrays
(``row_ptr``/``parent_idx``/``partial_lo``/``partial_hi``), value lo/hi
arrays — plus a precomputed *level schedule* so the reverse sweep (Eq. 7–9
of the paper) can process whole levels of the graph per NumPy call instead
of one Python ``Node`` at a time.

The object tape remains the reference oracle; the compiled sweeps are
engineered to be **bit-identical** to it, including the subtle parts:

* the interval endpoint rule uses the same four products in the same
  order, with the same ``0·inf → NaN → 0`` cleanup and the same fold-left
  min/max tie-breaking as :meth:`Interval.__mul__`;
* outward rounding is one ``nextafter`` per bound per operation, applied
  at exactly the points the object sweep applies it (product and
  accumulation) through the array twins of ``math.nextafter``
  (:func:`repro.intervals.rounding.down_array` / ``up_array``), and
  honours the global :func:`repro.intervals.rounding.rounding_enabled`
  flag at sweep time;
* consumers with an exactly-zero adjoint are skipped (the object sweep's
  ``_is_zero`` shortcut is bit-relevant under outward rounding);
* per-parent accumulation order matches the object sweep: contributions
  arrive in descending consumer index, and for one consumer in recorded
  parent order.

The order guarantee comes from the schedule.  Each node gets a *depth*
``d(j) = 0`` if it has no consumers, else ``1 + max(d(consumer))``; a
node's adjoint is final once every consumer (all at strictly smaller
depth) has contributed.  Every edge ``j → parent`` stores its contribution
when ``j``'s level is processed; incoming edges of each destination are
ranked by ``(-consumer index, parent position)`` and applied rank by rank,
so within one vectorized apply step all destinations are distinct (plain
fancy-indexed gather/add/scatter, no ``np.add.at``) and each destination
sees its contributions in exactly the object sweep's order.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Mapping, Sequence

import numpy as np

from repro.intervals import Interval, as_interval
from repro.intervals.rounding import down_array, rounding_enabled, up_array
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

from .replay import hull
from .tape import Tape

__all__ = ["CompiledTape", "ReplayLanes"]

_C_COMPILES = _metrics.counter("ad.compiles")
_C_SWEEPS = _metrics.counter("ad.compiled_sweeps")
_C_FORWARDS = _metrics.counter("replay.forwards")
_C_FORWARD_LANES = _metrics.counter("replay.forward_lanes")

_NEG_INF = -np.inf
_POS_INF = np.inf

_GET_OP = attrgetter("op")
_GET_VALUE = attrgetter("value")
_GET_PARENTS = attrgetter("parents")
_GET_PARTIALS = attrgetter("partials")
_GET_LABEL = attrgetter("label")


def _csr_gather(row_ptr: np.ndarray, data: np.ndarray, rows: np.ndarray):
    """Concatenate ``data[row_ptr[r]:row_ptr[r+1]]`` for every row in order."""
    starts = row_ptr[rows]
    counts = row_ptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    # Standard repeat/cumsum trick: index k of the output belongs to row i
    # at offset k - cum_starts[i], i.e. data index starts[i] + offset.
    out_idx = np.repeat(starts - np.concatenate(([0], counts[:-1])).cumsum(), counts)
    out_idx += np.arange(total)
    return data[out_idx]


class CompiledTape:
    """A :class:`Tape` frozen into structure-of-arrays form.

    Attributes:
        n: number of nodes.
        opcodes: ``(n,)`` int32 array; index into :attr:`op_names`.
        op_names: interned operation-name table (opcode → name).
        labels: sparse ``{node index: label}`` for registered variables.
        value_lo / value_hi: ``(n,)`` float64 forward-value bounds
            (``lo == hi`` for float tapes and point values).
        value_is_interval: ``(n,)`` bool — whether the original node value
            was an :class:`Interval`.
        row_ptr / parent_idx: CSR edge structure; the parents of node ``j``
            are ``parent_idx[row_ptr[j]:row_ptr[j+1]]`` in recorded order.
        partial_lo / partial_hi: per-edge local partial bounds, parallel to
            :attr:`parent_idx`.
        interval_mode: True when any node value is an :class:`Interval`
            (the same rule the object sweep uses).
        depth: ``(n,)`` consumer-depth level of every node (the sweep
            schedule; 0 = nodes with no consumers).
    """

    def __init__(self, tape: Tape):
        _C_COMPILES.inc()
        with _span("ad.compile") as sp:
            self._compile(tape)
            sp.set(nodes=self.n, edges=self.n_edges)

    def _compile(self, tape: Tape) -> None:
        nodes = tape.nodes
        n = len(nodes)
        self.tape = tape
        self.n = n

        # Bulk column extraction: C-level attrgetter maps pull each field
        # out once, then per-column passes iterate plain lists (no repeated
        # attribute chasing inside the generators).
        ops = list(map(_GET_OP, nodes))
        values = list(map(_GET_VALUE, nodes))
        parents_list = list(map(_GET_PARENTS, nodes))
        op_table: dict[str, int] = {}
        self.opcodes = np.fromiter(
            (op_table.setdefault(o, len(op_table)) for o in ops),
            dtype=np.int32,
            count=n,
        )
        self.op_names = list(op_table)
        value_is_interval = np.fromiter(
            (isinstance(v, Interval) for v in values), dtype=bool, count=n
        )
        self.value_lo = np.fromiter(
            (v.lo if isinstance(v, Interval) else v for v in values),
            dtype=np.float64,
            count=n,
        )
        self.value_hi = np.fromiter(
            (v.hi if isinstance(v, Interval) else v for v in values),
            dtype=np.float64,
            count=n,
        )
        self.value_is_interval = value_is_interval
        self.interval_mode = bool(value_is_interval.any())
        self.labels = {
            j: label
            for j, label in enumerate(map(_GET_LABEL, nodes))
            if label is not None
        }

        counts = np.fromiter(
            map(len, parents_list), dtype=np.int64, count=n
        )
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        e = int(row_ptr[n])
        self.row_ptr = row_ptr
        self.n_edges = e
        self.parent_idx = np.fromiter(
            chain.from_iterable(parents_list), dtype=np.int64, count=e
        )
        partials = list(chain.from_iterable(map(_GET_PARTIALS, nodes)))
        self.partial_lo = np.fromiter(
            (p.lo if isinstance(p, Interval) else p for p in partials),
            dtype=np.float64,
            count=e,
        )
        self.partial_hi = np.fromiter(
            (p.hi if isinstance(p, Interval) else p for p in partials),
            dtype=np.float64,
            count=e,
        )

        edge_src = np.repeat(np.arange(n, dtype=np.int64), counts)
        self._edge_src = edge_src
        if e and not (
            (self.parent_idx >= 0).all() and (self.parent_idx < edge_src).all()
        ):
            bad = int(
                np.flatnonzero(
                    (self.parent_idx < 0) | (self.parent_idx >= edge_src)
                )[0]
            )
            raise ValueError(
                f"node {int(edge_src[bad])} parent "
                f"{int(self.parent_idx[bad])} breaks topological order"
            )
        self._build_schedule()
        self._fplan: Any = None

    @classmethod
    def from_tape(cls, tape: Tape) -> "CompiledTape":
        """Freeze ``tape`` (alias of the constructor, for symmetry)."""
        return cls(tape)

    @classmethod
    def from_arrays(
        cls,
        *,
        opcodes: np.ndarray,
        op_names: Sequence[str],
        value_lo: np.ndarray,
        value_hi: np.ndarray,
        value_is_interval: np.ndarray,
        row_ptr: np.ndarray,
        parent_idx: np.ndarray,
        partial_lo: np.ndarray,
        partial_hi: np.ndarray,
        depth: np.ndarray | None = None,
        labels: Mapping[int, str] | None = None,
        guards: Sequence[tuple] = (),
        aux: Mapping[int, Any] | None = None,
    ) -> "CompiledTape":
        """Rebuild a compiled tape directly from its frozen columns.

        The inverse of freezing: a worker that receives a tape's
        structure-of-arrays (e.g. zero-copy views over :mod:`repro.mp`
        shared memory) reconstructs a fully functional ``CompiledTape``
        without ever having seen the object tape.  ``guards`` and ``aux``
        carry the only object-tape state replay needs — the recorded
        comparison outcomes and the folded constants of constant-operand
        binaries / clip bounds — installed on a minimal stub standing in
        for the original :class:`~repro.ad.tape.Tape`.

        Arrays are adopted, not copied.  Read-only views are fine for the
        sweeps and for :meth:`forward_lanes` (which never writes the
        tape); the in-place :meth:`forward` path needs writable
        value/partial arrays.  Passing the precomputed ``depth`` column
        skips the Python depth pass, leaving only vectorized schedule
        construction on the worker side.
        """
        self = cls.__new__(cls)
        n = int(opcodes.shape[0])
        self.tape = _StubTape(guards, aux)
        self.n = n
        self.opcodes = opcodes
        self.op_names = list(op_names)
        self.labels = dict(labels) if labels else {}
        self.value_lo = value_lo
        self.value_hi = value_hi
        self.value_is_interval = value_is_interval
        self.interval_mode = bool(value_is_interval.any())
        self.row_ptr = row_ptr
        self.n_edges = int(row_ptr[n])
        self.parent_idx = parent_idx
        self.partial_lo = partial_lo
        self.partial_hi = partial_hi
        self._edge_src = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(row_ptr)
        )
        if depth is None:
            self._build_schedule()
        else:
            self.depth = np.asarray(depth, dtype=np.int64)
            self._finish_schedule()
        self._fplan = None
        return self

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Level schedule
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        n, e = self.n, self.n_edges
        row_ptr = self.row_ptr
        parent_idx = self.parent_idx
        edge_src = self._edge_src

        # Consumer depth: d(j) = 0 without consumers, 1 + max over
        # consumers otherwise.  One descending pass suffices because
        # consumers always have larger indices (checked at compile).
        depth = [0] * n
        parents_seq = parent_idx.tolist()
        ptr = row_ptr.tolist()
        for j in range(n - 1, -1, -1):
            dj1 = depth[j] + 1
            for k in range(ptr[j], ptr[j + 1]):
                p = parents_seq[k]
                if depth[p] < dj1:
                    depth[p] = dj1
        self.depth = np.asarray(depth, dtype=np.int64)
        self._finish_schedule()

    def _finish_schedule(self) -> None:
        """Everything after the depth column: level grouping + caches.

        Split out so :meth:`from_arrays` can adopt a precomputed ``depth``
        (shipped alongside the other frozen columns) and skip the Python
        descending-depth loop above — this part is all vectorized.
        """
        n, e = self.n, self.n_edges
        parent_idx = self.parent_idx
        edge_src = self._edge_src
        n_levels = int(self.depth.max()) + 1 if n else 0
        self.n_levels = n_levels
        self._rank_cache: dict[int, list[np.ndarray]] = {}
        self._split_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._scratch: dict[str, np.ndarray] = {}
        self._lane_sched: list | None = None

        if e == 0:
            self._contrib_schedule = [
                np.empty(0, dtype=np.int64) for _ in range(n_levels)
            ]
            self._apply_flat = [
                np.empty(0, dtype=np.int64) for _ in range(n_levels)
            ]
            return

        # Contribution schedule: edges grouped by the consumer's depth —
        # computed right after that depth's adjoints are finalized.
        d_src = self.depth[edge_src]
        order = np.argsort(d_src, kind="stable")
        bounds = np.searchsorted(d_src[order], np.arange(n_levels + 1))
        self._contrib_schedule = [
            order[bounds[lvl] : bounds[lvl + 1]] for lvl in range(n_levels)
        ]

        # Apply schedule: per destination, incoming edges ordered by
        # (-consumer index, parent position); edge ids are already sorted
        # by (consumer asc, position asc), so lexsort on (edge id asc,
        # consumer desc, destination asc) yields the required order.
        # Grouping that order by the destination's depth (stably) gives one
        # flat edge list per level; within it each destination's run is
        # contiguous and in exactly the object sweep's accumulation order.
        edge_ids = np.arange(e, dtype=np.int64)
        by_dst = np.lexsort((edge_ids, -edge_src, parent_idx))
        d_dst = self.depth[parent_idx[by_dst]]
        order2 = np.argsort(d_dst, kind="stable")
        bounds2 = np.searchsorted(d_dst[order2], np.arange(n_levels + 1))
        self._apply_flat = [
            by_dst[order2[bounds2[lvl] : bounds2[lvl + 1]]]
            for lvl in range(n_levels)
        ]

    def _buf(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """A reusable float64 work array that never escapes the tape.

        Replay-style workloads run many sweeps over one tape; handing the
        sweep temporaries fresh multi-megabyte allocations each call costs
        more in page faults than the arithmetic on them.  Only buffers
        whose contents are dead between calls may live here — anything
        returned to a caller must stay freshly allocated.
        """
        a = self._scratch.get(key)
        if a is None or a.shape != shape:
            a = np.empty(shape, dtype=np.float64)
            self._scratch[key] = a
        return a

    def _first_rest(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Split a level's flat apply list into (first, rest).

        ``first`` holds each destination's first incoming contribution —
        all destinations distinct, so a plain fancy-indexed add applies
        it.  ``rest`` keeps the remaining edges in flat order, which per
        destination is still ascending accumulation order, so an
        ``np.add.at`` over it continues each destination's fold exactly
        where ``first`` left off.  Most nodes have one consumer, so this
        routes the bulk of the apply work around the slow unbuffered
        ``add.at`` path without changing any accumulation order.
        """
        pair = self._split_cache.get(level)
        if pair is None:
            sel = self._apply_flat[level]
            if sel.size == 0:
                pair = (sel, sel)
            else:
                dst = self.parent_idx[sel]
                first = np.empty(sel.size, dtype=bool)
                first[0] = True
                np.not_equal(dst[1:], dst[:-1], out=first[1:])
                pair = (sel[first], sel[~first])
            self._split_cache[level] = pair
        return pair

    def _rank_steps(self, level: int) -> list[np.ndarray]:
        """Split a level's flat apply list into rank steps.

        Rank k holds each destination's k-th incoming contribution, so all
        destinations within one step are distinct (plain gather/add/scatter
        — needed by the rounded sweep, which must interleave ``nextafter``
        between consecutive adds to the same destination).  Built lazily:
        only rounded sweeps pay for it.
        """
        steps = self._rank_cache.get(level)
        if steps is None:
            sel = self._apply_flat[level]
            k = sel.size
            if k == 0:
                steps = []
            else:
                dst = self.parent_idx[sel]
                new_dst = np.empty(k, dtype=bool)
                new_dst[0] = True
                np.not_equal(dst[1:], dst[:-1], out=new_dst[1:])
                run_starts = np.flatnonzero(new_dst)
                rank = np.arange(k, dtype=np.int64) - np.repeat(
                    run_starts, np.diff(np.append(run_starts, k))
                )
                order = np.argsort(rank, kind="stable")
                rank_sorted = rank[order]
                rbounds = np.searchsorted(
                    rank_sorted, np.arange(int(rank_sorted[-1]) + 2)
                )
                steps = [
                    sel[order[rbounds[r] : rbounds[r + 1]]]
                    for r in range(len(rbounds) - 1)
                ]
            self._rank_cache[level] = steps
        return steps

    # ------------------------------------------------------------------
    # Vectorized reverse sweeps
    # ------------------------------------------------------------------
    def adjoint(
        self, seeds: Mapping[int, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-parallel Eq. 7–9 sweep; bit-identical to ``Tape.adjoint``.

        Returns ``(lo, hi)`` arrays of shape ``(n,)``.  For float tapes
        ``lo is hi``.  Unlike the object sweep this does **not** write
        ``node.adjoint`` back — adapters do that when materializing.
        """
        if not seeds:
            raise ValueError("adjoint sweep needs at least one seeded output")
        _C_SWEEPS.inc()
        n = self.n
        interval = self.interval_mode
        rnd = interval and rounding_enabled()
        alo = np.zeros(n, dtype=np.float64)
        ahi = alo if not interval else np.zeros(n, dtype=np.float64)
        for index, seed in seeds.items():
            if not (0 <= index < n):
                raise IndexError(f"seed index {index} outside tape")
            if isinstance(seed, Interval):
                slo, shi = seed.lo, seed.hi
            else:
                slo = shi = float(seed)
            # The object sweep seeds via `zero + seed`, which is an
            # outward-rounded interval add in interval mode.
            if interval:
                new_lo = alo[index] + slo
                new_hi = ahi[index] + shi
                if rnd:
                    new_lo = np.nextafter(new_lo, _NEG_INF)
                    new_hi = np.nextafter(new_hi, _POS_INF)
                alo[index] = new_lo
                ahi[index] = new_hi
            else:
                alo[index] = alo[index] + slo

        with _span("ad.sweep") as sp:
            sp.set(nodes=n, mode="scalar")
            self._sweep(
                alo[:, None], ahi[:, None], interval=interval, rnd=rnd
            )
        lo = alo.reshape(n)
        hi = ahi.reshape(n)
        return (lo, lo) if not interval else (lo, hi)

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-parallel vector sweep; bit-identical to
        ``Tape.adjoint_vector`` (endpoint rule, no outward rounding)."""
        m = len(outputs)
        if m == 0:
            raise ValueError("adjoint_vector needs at least one output")
        _C_SWEEPS.inc()
        n = self.n
        lo = np.zeros((n, m), dtype=np.float64)
        hi = np.zeros((n, m), dtype=np.float64)
        for j, idx in enumerate(outputs):
            if not (0 <= idx < n):
                raise IndexError(f"output index {idx} outside tape")
            lo[idx, j] += 1.0
            hi[idx, j] += 1.0
        with _span("ad.sweep") as sp:
            sp.set(nodes=n, mode="vector", outputs=m)
            self._sweep(lo, hi, interval=True, rnd=False, clean_nan=False)
        return lo, hi

    def _sweep(
        self,
        alo: np.ndarray,
        ahi: np.ndarray,
        *,
        interval: bool,
        rnd: bool,
        clean_nan: bool | None = None,
    ) -> None:
        """Run the scheduled reverse sweep in place on ``(n, m)`` bounds.

        ``interval`` selects the endpoint product rule (else the plain
        float product); ``clean_nan`` applies the ``0·inf → 0`` cleanup of
        ``Interval.__mul__`` (defaults to ``interval`` — the vector sweep
        disables it because ``Tape.adjoint_vector`` lets NaN propagate).
        """
        if clean_nan is None:
            clean_nan = interval
        e = self.n_edges
        if e == 0:
            return
        edge_src = self._edge_src
        edge_dst = self.parent_idx
        partial_lo = self.partial_lo
        partial_hi = self.partial_hi
        m = alo.shape[1]
        # Work buffers (reused across sweeps, keyed by m so scalar and
        # vector sweeps on one tape don't evict each other).  `w4`/`w5`
        # for the non-degenerate product path are fetched lazily below.
        bkey = str(m)
        contrib_lo = self._buf("contrib_lo" + bkey, (e, m))
        contrib_hi = (
            contrib_lo
            if not interval
            else self._buf("contrib_hi" + bkey, (e, m))
        )
        g_lo = self._buf("sweep_glo" + bkey, (e, m))
        g_hi = g_lo if not interval else self._buf("sweep_ghi" + bkey, (e, m))
        if interval:
            w1 = self._buf("sweep_w1" + bkey, (e, m))
            w2 = self._buf("sweep_w2" + bkey, (e, m))
            w3 = self._buf("sweep_w3" + bkey, (e, m))
        active = np.zeros(e, dtype=bool)

        for level in range(self.n_levels):
            # 1. Finalize this level's adjoints by applying the stored
            #    incoming contributions.  The flat per-level edge list is
            #    ordered so each destination sees its contributions in
            #    exactly the object sweep's order (consumer desc, parent
            #    position asc); `np.add.at` is unbuffered and processes
            #    indices sequentially, so one call accumulates every
            #    destination in that order.  Rounded sweeps need a
            #    `nextafter` between consecutive adds to one destination,
            #    which `add.at` cannot interleave — they fall back to
            #    rank-by-rank steps (distinct destinations per step).
            flat = self._apply_flat[level]
            if flat.size:
                if rnd:
                    for sel in self._rank_steps(level):
                        sub = sel[active[sel]]
                        if not sub.size:
                            continue
                        dst = edge_dst[sub]
                        new_lo = alo[dst]
                        new_lo += contrib_lo[sub]
                        alo[dst] = down_array(new_lo, out=new_lo)
                        new_hi = ahi[dst]
                        new_hi += contrib_hi[sub]
                        ahi[dst] = up_array(new_hi, out=new_hi)
                else:
                    first, rest = self._first_rest(level)
                    sub = first[active[first]]
                    if sub.size:
                        dst = edge_dst[sub]
                        alo[dst] += contrib_lo[sub]
                        if interval:
                            ahi[dst] += contrib_hi[sub]
                    sub = rest[active[rest]]
                    if sub.size:
                        dst = edge_dst[sub]
                        np.add.at(alo, dst, contrib_lo[sub])
                        if interval:
                            np.add.at(ahi, dst, contrib_hi[sub])

            # 2. Emit this level's outgoing edge contributions (sources
            #    are final now); zero-adjoint sources are skipped exactly
            #    like the object sweep's `_is_zero` shortcut.
            sel = self._contrib_schedule[level]
            if not sel.size:
                continue
            k = sel.size
            src = edge_src[sel]
            salo = np.take(alo, src, axis=0, out=g_lo[:k])
            if interval:
                sahi = np.take(ahi, src, axis=0, out=g_hi[:k])
                act = (salo != 0.0).any(axis=1) | (sahi != 0.0).any(
                    axis=1
                )
            else:
                act = (salo != 0.0).any(axis=1)
            active[sel] = act
            if act.all():
                # All sources live (the usual case once the sweep is a
                # few levels in) — skip the boolean-compress copies.
                sub = sel
            else:
                sub = sel[act]
                if not sub.size:
                    continue
                salo = salo[act]
            plo1 = partial_lo[sub]
            plo = plo1[:, None]
            if not interval:
                contrib_lo[sub] = plo * salo
                continue
            if sub is not sel:
                sahi = sahi[act]
            phi1 = partial_hi[sub]
            phi = phi1[:, None]
            k2 = sub.size
            if plo1.tobytes() == phi1.tobytes():
                # Degenerate partials (bitwise ``plo == phi``, the common
                # case: add/sub and multiply-by-constant nodes).  Then
                # ``p3`` and ``p4`` repeat ``p1`` and ``p2`` bit-for-bit
                # and the fold-left min/max below keeps the first of any
                # tie, so two products suffice — same bits, half the work.
                p1 = np.multiply(plo, salo, out=w1[:k2])
                p2 = np.multiply(plo, sahi, out=w2[:k2])
                if clean_nan:
                    clo, chi = hull(p1, p2)
                else:
                    clo = np.minimum(p1, p2, out=w3[:k2])
                    chi = np.maximum(p1, p2, out=p2)
                if rnd:
                    down_array(clo, out=clo)
                    up_array(chi, out=chi)
                contrib_lo[sub] = clo
                contrib_hi[sub] = chi
                continue
            p1 = np.multiply(plo, salo, out=w1[:k2])
            p2 = np.multiply(plo, sahi, out=w2[:k2])
            p3 = np.multiply(phi, salo, out=self._buf("sweep_w4" + bkey, (e, m))[:k2])
            p4 = np.multiply(phi, sahi, out=self._buf("sweep_w5" + bkey, (e, m))[:k2])
            if clean_nan:
                clo, chi = hull(p1, p2, p3, p4)
            else:
                # Tape.adjoint_vector's exact association order (in-place
                # variants reuse the product buffers; results unchanged).
                clo = np.minimum(p1, p2, out=w3[:k2])
                t = np.minimum(
                    p3, p4, out=self._buf("sweep_w6" + bkey, (e, m))[:k2]
                )
                np.minimum(clo, t, out=clo)
                chi = np.maximum(p1, p2, out=p2)
                np.maximum(p3, p4, out=p4)
                chi = np.maximum(chi, p4, out=chi)
            if rnd:
                down_array(clo, out=clo)
                up_array(chi, out=chi)
            contrib_lo[sub] = clo
            contrib_hi[sub] = chi

    def _sweep_lanes(
        self,
        alo: np.ndarray,
        ahi: np.ndarray,
        partial_lo: np.ndarray,
        partial_hi: np.ndarray,
        *,
        rnd: bool,
        clean_nan: bool,
    ) -> None:
        """Reverse sweep over ``(n, L)`` or ``(n, L, m)`` bounds with
        per-lane partials, in place.

        The lane-batched twin of :meth:`_sweep` used by replayed lanes:
        partials come from the replay's ``(e, L)`` arrays instead of the
        recorded per-edge scalars, and the object sweep's zero-adjoint
        shortcut is honoured **per lane** — a lane whose source adjoint is
        exactly zero must contribute nothing to its parents, even though
        other lanes of the same edge do (bit-relevant under rounding, and
        it also stops NaN pollution when ``clean_nan`` is off).  Edges
        whose partial is one point constant in every lane (see
        :meth:`_lane_schedule`) take :meth:`_sweep`'s two-product rule.
        The contribution arrays live for one call only.
        """
        e = self.n_edges
        if e == 0:
            return
        edge_src = self._edge_src
        edge_dst = self.parent_idx
        L = alo.shape[1]
        vector = alo.ndim == 3
        contrib_lo = np.empty((e,) + alo.shape[1:], dtype=np.float64)
        contrib_hi = np.empty_like(contrib_lo)
        lane_act = np.empty((e, L), dtype=bool)

        for level, (sel, kp, consts) in enumerate(self._lane_schedule()):
            if rnd:
                # Rank steps keep destinations distinct, so each step is a
                # plain gather / add / round / scatter; lanes whose source
                # adjoint was zero keep their running bound.
                for step in self._rank_steps(level):
                    dst = edge_dst[step]
                    keep = lane_act[step]
                    masked = not keep.all()
                    if masked and vector:
                        keep = keep[:, :, None]
                    for acc, contrib, rounder in (
                        (alo, contrib_lo, down_array),
                        (ahi, contrib_hi, up_array),
                    ):
                        cur = acc[dst]
                        new = contrib[step]
                        np.add(cur, new, out=new)
                        rounder(new, out=new)
                        if masked:
                            np.copyto(cur, new, where=keep)
                            new = cur
                        acc[dst] = new
            else:
                # Inactive-lane contributions were zeroed at emit, and
                # adding 0.0 never flips a bound's bits (the running
                # adjoint is never -0.0), so one add.at per level keeps
                # the object sweep's per-destination order.
                flat = self._apply_flat[level]
                if flat.size:
                    dst = edge_dst[flat]
                    np.add.at(alo, dst, contrib_lo[flat])
                    np.add.at(ahi, dst, contrib_hi[flat])

            if not sel.size:
                continue
            src = edge_src[sel]
            salo = alo[src]
            sahi = ahi[src]
            act = (salo != 0.0) | (sahi != 0.0)
            if vector:
                act = act.any(axis=2)
            lane_act[sel] = act
            # The gathered adjoint rows are this call's own temporaries,
            # so the products overwrite them once nothing else reads them.
            if kp:
                c = consts[:, :, None] if vector else consts
                p1 = np.multiply(c, salo[:kp], out=salo[:kp])
                p2 = np.multiply(c, sahi[:kp], out=sahi[:kp])
                self._store_lanes(
                    contrib_lo, contrib_hi, sel[:kp], act[:kp],
                    p1, p2, rnd=rnd, clean_nan=clean_nan,
                )
            if kp < sel.size:
                rest = sel[kp:]
                plo = partial_lo[rest]
                phi = partial_hi[rest]
                if vector:
                    plo = plo[:, :, None]
                    phi = phi[:, :, None]
                sl, sh = salo[kp:], sahi[kp:]
                p1 = plo * sl
                p2 = plo * sh
                p3 = np.multiply(phi, sl, out=sl)
                p4 = np.multiply(phi, sh, out=sh)
                self._store_lanes(
                    contrib_lo, contrib_hi, rest, act[kp:],
                    p1, p2, p3, p4, rnd=rnd, clean_nan=clean_nan,
                )

    @staticmethod
    def _store_lanes(
        contrib_lo, contrib_hi, edges, act, *products, rnd, clean_nan
    ) -> None:
        """Fold one group's endpoint products into its contribution rows.

        Two products are :meth:`_sweep`'s point-partial rule: the other
        two of ``Interval.__mul__`` repeat them bit for bit, and the
        keep-first fold never picks a repeat.  Unrounded sweeps zero the
        contributions of lanes whose source adjoint is zero.
        """
        if clean_nan:
            lo, hi = hull(*products)
        else:
            # Tape.adjoint_vector's exact association order.
            p1, p2, *rest = products
            lo = np.minimum(p1, p2)
            hi = np.maximum(p1, p2, out=p2)
            if rest:
                p3, p4 = rest
                np.minimum(lo, np.minimum(p3, p4), out=lo)
                np.maximum(hi, np.maximum(p3, p4, out=p4), out=hi)
        if rnd:
            down_array(lo, out=lo)
            up_array(hi, out=hi)
        elif not act.all():
            inactive = ~act if lo.ndim == 2 else ~act[:, :, None]
            np.copyto(lo, 0.0, where=inactive)
            np.copyto(hi, 0.0, where=inactive)
        contrib_lo[edges] = lo
        contrib_hi[edges] = hi

    def _lane_schedule(self) -> list[tuple[np.ndarray, int, np.ndarray]]:
        """Per level, the edges :meth:`_sweep_lanes` emits, point first.

        Each entry is ``(edges, kp, constants)``: the level's contribution
        edges with the ``kp`` whose partial is one point constant in every
        lane (:attr:`repro.ad.replay.ForwardPlan.point_edges`) in front,
        and those constants as a ``(kp, 1)`` column.  The order within a
        level does not matter: contributions are stored per edge and
        applied in the apply schedule's order.
        """
        sched = self._lane_sched
        if sched is None:
            plan = self._forward_plan()
            is_point = np.zeros(self.n_edges, dtype=bool)
            is_point[plan.point_edges] = True
            value = np.zeros(self.n_edges, dtype=np.float64)
            value[plan.point_edges] = plan.point_values
            sched = []
            for sel in self._contrib_schedule:
                point = is_point[sel]
                first = sel[point]
                sched.append(
                    (
                        np.concatenate((first, sel[~point])),
                        first.size,
                        value[first][:, None],
                    )
                )
            self._lane_sched = sched
        return sched

    # ------------------------------------------------------------------
    # Forward replay (record once, replay many)
    # ------------------------------------------------------------------
    def _forward_plan(self):
        """Build (lazily) and cache the forward replay plan.

        Raises :class:`~repro.ad.replay.ReplayError` when the trace is not
        a replayable straight-line interval trace.
        """
        plan = self._fplan
        if plan is None:
            from .replay import ForwardPlan

            plan = ForwardPlan(self)
            self._fplan = plan
        return plan

    @property
    def input_nodes(self) -> list[int]:
        """Indices of the registered input nodes, in registration order."""
        return self._forward_plan().input_nodes

    def forward(
        self,
        inputs: Mapping[int, Any] | Sequence[Any],
        *,
        check_guards: bool = True,
    ) -> "CompiledTape":
        """Re-evaluate the frozen trace on fresh input intervals, in place.

        ``inputs`` is either a sequence of intervals parallel to the
        registered input nodes or a mapping from input-node index to
        interval.  After the call :attr:`value_lo`/:attr:`value_hi` and
        :attr:`partial_lo`/:attr:`partial_hi` hold exactly the bounds a
        fresh recording of the same program on these inputs would produce
        (bit for bit, honouring the global rounding flag at call time), so
        the existing :meth:`adjoint`/:meth:`adjoint_vector` sweeps — and
        scorpio's analysis on top — run unchanged on the replayed state.

        With ``check_guards`` (default) the comparisons recorded on the
        source tape are re-evaluated on the replayed values; a flipped or
        ambiguous outcome raises
        :class:`~repro.ad.replay.GuardDivergenceError` /
        :class:`~repro.intervals.AmbiguousComparisonError` so callers can
        fall back to re-recording.  A failed replay leaves the arrays
        partially updated; the next successful :meth:`forward` overwrites
        them completely.
        """
        from .replay import check_guards as _check

        plan = self._forward_plan()
        input_nodes = plan.input_nodes
        if isinstance(inputs, Mapping):
            values = [inputs[j] for j in input_nodes]
        else:
            values = list(inputs)
            if len(values) != len(input_nodes):
                raise ValueError(
                    f"trace has {len(input_nodes)} inputs, got {len(values)}"
                )
        vlo, vhi = self.value_lo, self.value_hi
        for j, value in zip(input_nodes, values):
            iv = as_interval(value)
            vlo[j] = iv.lo
            vhi[j] = iv.hi
        _C_FORWARDS.inc()
        with _span("ad.forward") as sp:
            sp.set(nodes=self.n)
            plan.run(
                vlo, vhi, self.partial_lo, self.partial_hi, rounding_enabled()
            )
            if check_guards:
                _check(self.tape.guards, vlo, vhi)
        return self

    def forward_lanes(
        self,
        inputs_lo: np.ndarray,
        inputs_hi: np.ndarray,
        *,
        check_guards: bool = True,
    ) -> "ReplayLanes":
        """Replay the trace on ``(n_inputs, L)`` batched input bounds.

        Each lane is an independent replay of the recorded program; the
        returned :class:`ReplayLanes` exposes lane-batched reverse sweeps
        whose per-lane results are bit-identical to replaying (and hence
        recording) each lane on its own.  The compiled tape itself is not
        modified.
        """
        from .replay import check_guards as _check

        plan = self._forward_plan()
        input_nodes = plan.input_nodes
        inputs_lo = np.asarray(inputs_lo, dtype=np.float64)
        inputs_hi = np.asarray(inputs_hi, dtype=np.float64)
        if inputs_lo.ndim != 2 or inputs_lo.shape != inputs_hi.shape:
            raise ValueError(
                "forward_lanes expects matching (n_inputs, L) bound arrays"
            )
        if inputs_lo.shape[0] != len(input_nodes):
            raise ValueError(
                f"trace has {len(input_nodes)} inputs, "
                f"got {inputs_lo.shape[0]}"
            )
        L = inputs_lo.shape[1]
        # Broadcast the recorded columns across lanes: constants keep
        # their values, everything else is overwritten by the sweep.
        vlo = np.repeat(self.value_lo[:, None], L, axis=1)
        vhi = np.repeat(self.value_hi[:, None], L, axis=1)
        plo = np.repeat(self.partial_lo[:, None], L, axis=1)
        phi = np.repeat(self.partial_hi[:, None], L, axis=1)
        vlo[input_nodes] = inputs_lo
        vhi[input_nodes] = inputs_hi
        _C_FORWARD_LANES.inc()
        with _span("ad.forward_lanes") as sp:
            sp.set(nodes=self.n, lanes=L)
            plan.run(vlo, vhi, plo, phi, rounding_enabled())
            if check_guards:
                _check(self.tape.guards, vlo, vhi)
        return ReplayLanes(self, vlo, vhi, plo, phi)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def op_name(self, index: int) -> str:
        """Operation name of node ``index``."""
        return self.op_names[self.opcodes[index]]

    def parents_of(self, index: int) -> np.ndarray:
        """CSR parent slice of node ``index`` (recorded order)."""
        return self.parent_idx[self.row_ptr[index] : self.row_ptr[index + 1]]


class ReplayLanes:
    """The state of one lane-batched forward replay.

    Holds the ``(n, L)`` value bounds and ``(e, L)`` edge-partial bounds
    produced by :meth:`CompiledTape.forward_lanes`, and runs lane-batched
    reverse sweeps over them.  Lane ``l`` of every result is bit-identical
    to recording the program on lane ``l``'s inputs and sweeping the
    object tape.
    """

    __slots__ = ("ct", "value_lo", "value_hi", "partial_lo", "partial_hi")

    def __init__(self, ct, vlo, vhi, plo, phi):
        self.ct = ct
        self.value_lo = vlo
        self.value_hi = vhi
        self.partial_lo = plo
        self.partial_hi = phi

    @property
    def n_lanes(self) -> int:
        return self.value_lo.shape[1]

    def value(self, index: int, lane: int) -> Interval:
        """The replayed forward value of one node in one lane."""
        return Interval(
            float(self.value_lo[index, lane]),
            float(self.value_hi[index, lane]),
        )

    def adjoint(
        self, seeds: Mapping[int, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lane-batched Eq. 7–9 sweep; per lane bit-identical to
        ``Tape.adjoint`` on that lane's recording.

        Returns ``(lo, hi)`` arrays of shape ``(n, L)``.
        """
        if not seeds:
            raise ValueError("adjoint sweep needs at least one seeded output")
        n, L = self.value_lo.shape
        rnd = rounding_enabled()
        alo = np.zeros((n, L), dtype=np.float64)
        ahi = np.zeros((n, L), dtype=np.float64)
        for index, seed in seeds.items():
            if not (0 <= index < n):
                raise IndexError(f"seed index {index} outside tape")
            if isinstance(seed, Interval):
                slo, shi = seed.lo, seed.hi
            else:
                slo = shi = float(seed)
            new_lo = alo[index] + slo
            new_hi = ahi[index] + shi
            if rnd:
                down_array(new_lo, out=new_lo)
                up_array(new_hi, out=new_hi)
            alo[index] = new_lo
            ahi[index] = new_hi
        self.ct._sweep_lanes(
            alo, ahi, self.partial_lo, self.partial_hi, rnd=rnd, clean_nan=True
        )
        return alo, ahi

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lane-batched vector sweep; per lane bit-identical to
        ``Tape.adjoint_vector`` (endpoint rule, no outward rounding).

        Returns ``(lo, hi)`` arrays of shape ``(n, L, m)``.
        """
        m = len(outputs)
        if m == 0:
            raise ValueError("adjoint_vector needs at least one output")
        n, L = self.value_lo.shape
        lo = np.zeros((n, L, m), dtype=np.float64)
        hi = np.zeros((n, L, m), dtype=np.float64)
        for j, idx in enumerate(outputs):
            if not (0 <= idx < n):
                raise IndexError(f"output index {idx} outside tape")
            lo[idx, :, j] += 1.0
            hi[idx, :, j] += 1.0
        self.ct._sweep_lanes(
            lo, hi, self.partial_lo, self.partial_hi, rnd=False, clean_nan=False
        )
        return lo, hi


class _AuxNode:
    """Stand-in for a tape node exposing only the ``aux`` payload."""

    __slots__ = ("aux",)

    def __init__(self, aux: Any):
        self.aux = aux


class _AuxNodes:
    """Indexable node view backed by a sparse ``{index: aux}`` map.

    :class:`~repro.ad.replay.ForwardPlan` reads ``tape.nodes[j].aux`` only
    for constant-operand binaries and ``clip`` nodes, so a worker-side
    tape only ships those entries; every other index resolves to a node
    with ``aux=None`` (exactly what a plain recorded node carries).
    """

    __slots__ = ("_aux",)

    def __init__(self, aux: Mapping[int, Any] | None):
        self._aux = dict(aux) if aux else {}

    def __getitem__(self, index: int) -> _AuxNode:
        return _AuxNode(self._aux.get(index))


class _StubTape:
    """Minimal object standing in for a ``Tape`` behind a rebuilt
    :meth:`CompiledTape.from_arrays` tape: recorded guards for replay
    re-checks plus the sparse aux map the forward plan reads."""

    __slots__ = ("guards", "nodes")

    def __init__(self, guards: Sequence[tuple], aux: Mapping[int, Any] | None):
        self.guards = list(guards)
        self.nodes = _AuxNodes(aux)
