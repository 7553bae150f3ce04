"""Compiled tape: structure-of-arrays DynDFG with one vectorized reverse sweep.

:class:`CompiledTape` freezes a recorded interval :class:`~repro.ad.tape.Tape`
into flat NumPy arrays — int32 opcodes, CSR parent/partial arrays
(``row_ptr``/``parent_idx``/``partial_lo``/``partial_hi``), value lo/hi
arrays — plus a precomputed *level schedule* so the reverse sweep (Eq. 7–9
of the paper) can process whole levels of the graph per NumPy call instead
of one Python ``Node`` at a time.

There is one reverse sweep, over ``(n, L)`` lanes
(:meth:`ReplayLanes.adjoint` / :meth:`ReplayLanes.adjoint_vector`, which
run :meth:`CompiledTape._sweep_lanes`).  :meth:`CompiledTape.adjoint` and
:meth:`CompiledTape.adjoint_vector` run it on one lane whose columns are
``(n, 1)`` views of the tape's current arrays.

The object tape remains the reference oracle; the sweep is engineered to
be **bit-identical** to it, including the subtle parts:

* the interval endpoint rule uses the same four products in the same
  order, with the same ``0·inf → NaN → 0`` cleanup and the same fold-left
  min/max tie-breaking as :meth:`Interval.__mul__` (a plain min/max fold
  when the bounds are rounded outward next, which gives the same bits);
* outward rounding is one ``nextafter`` per bound per operation, applied
  at exactly the points the object sweep applies it (product and
  accumulation) through the array twins of ``math.nextafter``
  (:func:`repro.intervals.rounding.down_array` / ``up_array``), and
  honours the global :func:`repro.intervals.rounding.rounding_enabled`
  flag at sweep time;
* consumers with an exactly-zero adjoint are skipped (the object sweep's
  ``_is_zero`` shortcut is bit-relevant under outward rounding); rounded
  sweeps decide that per edge, since a rounded adjoint is live in every
  lane or in none;
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
sees its contributions in exactly the object sweep's order.  Unrounded
sweeps apply each destination's first contribution that way and the rest
with one ``np.add.at``, which is unbuffered and keeps the same order.
"""

from __future__ import annotations

import math
import threading
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

__all__ = ["CompiledTape", "LaneWorkspace", "ReplayLanes", "lane_workspace"]

_C_COMPILES = _metrics.counter("ad.compiles")
_C_SWEEPS = _metrics.counter("ad.compiled_sweeps")
_C_FORWARDS = _metrics.counter("replay.forwards")
_C_FORWARD_LANES = _metrics.counter("replay.forward_lanes")

# Elements (edges x lane row) of a level's point-partial edges from which
# they fold in their own two-product group: below it, one four-product
# fold over the whole level costs fewer NumPy calls than two folds.
_POINT_GROUP_MIN = 2048

_GET_OP = attrgetter("op")
_GET_VALUE = attrgetter("value")
_GET_PARENTS = attrgetter("parents")
_GET_PARTIALS = attrgetter("partials")
_GET_LABEL = attrgetter("label")


def _require_interval(n: int, value_is_interval: np.ndarray) -> bool:
    """``interval_mode`` of a tape of ``n`` nodes; refuses a float tape."""
    interval_mode = bool(value_is_interval.any())
    if n and not interval_mode:
        raise ValueError(
            "CompiledTape compiles interval tapes only (no node value is "
            "an Interval); sweep a float tape with Tape.adjoint"
        )
    return interval_mode


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
    """An interval :class:`Tape` frozen into structure-of-arrays form.

    A non-empty tape none of whose node values is an :class:`Interval`
    (a float tape) is refused with :class:`ValueError`: the sweep
    implements the interval rule only.  Float tapes sweep on the object
    tape (:meth:`Tape.adjoint`).

    Attributes:
        n: number of nodes.
        opcodes: ``(n,)`` int32 array; index into :attr:`op_names`.
        op_names: interned operation-name table (opcode → name).
        labels: sparse ``{node index: label}`` for registered variables.
        value_lo / value_hi: ``(n,)`` float64 forward-value bounds
            (``lo == hi`` for float-valued nodes and point values).
        value_is_interval: ``(n,)`` bool — whether the original node value
            was an :class:`Interval`.
        row_ptr / parent_idx: CSR edge structure; the parents of node ``j``
            are ``parent_idx[row_ptr[j]:row_ptr[j+1]]`` in recorded order.
        partial_lo / partial_hi: per-edge local partial bounds, parallel to
            :attr:`parent_idx`.
        interval_mode: True when any node value is an :class:`Interval`
            (the same rule the object sweep uses); always True on a
            non-empty compiled tape.
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
        self.interval_mode = _require_interval(n, value_is_interval)
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
        self.interval_mode = _require_interval(n, value_is_interval)
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
        self._lane_sched: tuple[Any, list[_Level]] | None = None

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
    # The reverse sweep
    # ------------------------------------------------------------------
    def _one_lane(self) -> "ReplayLanes":
        """The tape's current arrays as one lane of a :class:`ReplayLanes`.

        Its columns are ``(n, 1)`` / ``(e, 1)`` views (no copy), its sweep
        results are fresh arrays, and its contribution rows and Eq. 11
        products come from the calling thread's :func:`lane_workspace`.
        """
        return ReplayLanes(
            self,
            self.value_lo[:, None],
            self.value_hi[:, None],
            self.partial_lo[:, None],
            self.partial_hi[:, None],
            scratch=lane_workspace(),
        )

    def adjoint(
        self, seeds: Mapping[int, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 7–9 over the tape's current arrays; bit-identical to
        ``Tape.adjoint``.

        Runs the lane sweep (:meth:`ReplayLanes.adjoint`) on one lane
        whose columns are views of :attr:`value_lo` / :attr:`value_hi` /
        :attr:`partial_lo` / :attr:`partial_hi`, and returns its column:
        fresh ``(n,)`` arrays ``(lo, hi)``.  Unlike the object sweep this
        does **not** write ``node.adjoint`` back — adapters do that when
        materializing.
        """
        lo, hi = self._one_lane().adjoint(seeds)
        return lo[:, 0], hi[:, 0]

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vector sweep over the tape's current arrays; bit-identical to
        ``Tape.adjoint_vector`` (endpoint rule, no outward rounding).

        Runs the lane sweep (:meth:`ReplayLanes.adjoint_vector`) on one
        lane, as :meth:`adjoint` does, and returns fresh ``(n, m)`` arrays
        ``(lo, hi)``; column ``j`` is seeded at ``outputs[j]``.
        """
        lo, hi = self._one_lane().adjoint_vector(outputs)
        return lo[:, 0], hi[:, 0]

    def _sweep_lanes(
        self,
        alo: np.ndarray,
        ahi: np.ndarray,
        partial_lo: np.ndarray,
        partial_hi: np.ndarray,
        contrib_lo: np.ndarray,
        contrib_hi: np.ndarray,
        *,
        rnd: bool,
        clean_nan: bool,
    ) -> None:
        """Reverse sweep over ``(n, L)`` or ``(n, L, m)`` bounds with
        per-lane partials, in place.

        Partials come from ``(e, L)`` arrays: a replay's, or one-lane
        views of the tape's own.  ``contrib_lo`` / ``contrib_hi`` are the
        ``(e, L[, m])`` contribution rows, supplied by the caller; their
        contents are dead on entry and on return.  Edges whose partial is
        one point constant in every lane (see :meth:`_lane_schedule`)
        take two endpoint products instead of four, when the level holds
        at least :data:`_POINT_GROUP_MIN` such elements: the other two
        would repeat them bit for bit.  A smaller level folds them with
        its other edges, in one group.

        The object sweep skips consumers whose adjoint is exactly zero.
        Rounded sweeps (scalar seed, ``(n, L)``) decide that per edge from
        lane 0: outward rounding keeps every adjoint that received a
        contribution nonzero (``down(x) < x <= y < up(y)``), so a node is
        live in every lane or in none.  Unrounded sweeps decide it per
        lane, zeroing the contributions of lanes whose source adjoint is
        zero (bit-relevant, and it also stops NaN pollution when
        ``clean_nan`` is off).

        Callers turn NumPy's floating-point warnings off, as the forward
        replay does: Python floats give the same ``inf`` and NaN
        (``0·inf``, ``inf - inf``) without one.
        """
        e = self.n_edges
        if e == 0 or alo.shape[1] == 0:
            return
        edge_dst = self.parent_idx
        vector = alo.ndim == 3
        row = alo[0].size
        live = np.zeros(e, dtype=bool)

        for level, lv in enumerate(self._lane_schedule()):
            if rnd:
                # Rank steps keep destinations distinct, so each step is a
                # plain gather / add / round / scatter over its live edges.
                for step in self._rank_steps(level):
                    step = step[live[step]]
                    if not step.size:
                        continue
                    dst = edge_dst[step]
                    for acc, contrib, rounder in (
                        (alo, contrib_lo, down_array),
                        (ahi, contrib_hi, up_array),
                    ):
                        new = contrib[step]
                        np.add(acc[dst], new, out=new)
                        acc[dst] = rounder(new, out=new)
            else:
                # Inactive-lane contributions were zeroed at emit, and
                # adding 0.0 never flips a bound's bits (the running
                # adjoint is never -0.0).  Each destination's first
                # contribution is a plain fancy-indexed add; one
                # unbuffered add.at continues the rest in order.
                if lv.first.size:
                    alo[lv.first_dst] += contrib_lo[lv.first]
                    ahi[lv.first_dst] += contrib_hi[lv.first]
                if lv.rest.size:
                    np.add.at(alo, lv.rest_dst, contrib_lo[lv.rest])
                    np.add.at(ahi, lv.rest_dst, contrib_hi[lv.rest])

            sel, src, kp, consts = lv.edges, lv.src, lv.kp, lv.consts
            if not sel.size:
                continue
            act = None
            if rnd:
                edge_act = (alo[src, 0] != 0.0) | (ahi[src, 0] != 0.0)
                live[sel] = edge_act
                if not edge_act.all():
                    consts = consts[edge_act[:kp]]
                    kp = consts.shape[0]
                    sel = sel[edge_act]
                    if not sel.size:
                        continue
                    src = src[edge_act]
            if kp < sel.size and kp * row < _POINT_GROUP_MIN:
                kp = 0
            salo = alo[src]
            sahi = ahi[src]
            if not rnd:
                act = (salo != 0.0) | (sahi != 0.0)
                if vector:
                    act = act.any(axis=2)
            # The gathered adjoint rows are this call's own temporaries,
            # so the products overwrite them once nothing else reads them.
            if kp:
                c = consts[:, :, None] if vector else consts
                p1 = np.multiply(c, salo[:kp], out=salo[:kp])
                p2 = np.multiply(c, sahi[:kp], out=sahi[:kp])
                self._store_lanes(
                    contrib_lo, contrib_hi, sel[:kp],
                    None if act is None else act[:kp],
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
                    contrib_lo, contrib_hi, rest,
                    None if act is None else act[kp:],
                    p1, p2, p3, p4, rnd=rnd, clean_nan=clean_nan,
                )

    @staticmethod
    def _store_lanes(
        contrib_lo, contrib_hi, edges, act, *products, rnd, clean_nan
    ) -> None:
        """Fold one group's endpoint products into its contribution rows.

        Two products are the point-partial rule: the other two of
        ``Interval.__mul__`` repeat them bit for bit, and the keep-first
        fold never picks a repeat.  Unrounded sweeps zero the
        contributions of lanes whose source adjoint is zero (``act``
        False); rounded sweeps pass only live edges and no ``act``.
        """
        if clean_nan:
            lo, hi = hull(*products, rounded=rnd)
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

    def _lane_schedule(self) -> list["_Level"]:
        """Per level, the edges :meth:`_sweep_lanes` emits and applies.

        Point-partial edges come from the forward plan
        (:attr:`repro.ad.replay.ForwardPlan.point_edges`), which every
        replay builds.  Without one — a recording analysed once, or a
        trace the replay refuses — no edge is a point edge and every edge
        takes four products; the bits are the same.  The schedule is
        rebuilt once a plan appears.
        """
        plan = self._fplan
        if self._lane_sched is None or self._lane_sched[0] is not plan:
            is_point = np.zeros(self.n_edges, dtype=bool)
            value = np.zeros(self.n_edges, dtype=np.float64)
            if plan is not None:
                is_point[plan.point_edges] = True
                value[plan.point_edges] = plan.point_values
            self._lane_sched = (
                plan,
                [
                    _Level(self, emit, apply, is_point, value)
                    for emit, apply in zip(
                        self._contrib_schedule, self._apply_flat
                    )
                ],
            )
        return self._lane_sched[1]

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
        workspace: "LaneWorkspace | None" = None,
    ) -> "ReplayLanes":
        """Replay the trace on ``(n_inputs, L)`` batched input bounds.

        Each lane is an independent replay of the recorded program; the
        returned :class:`ReplayLanes` exposes lane-batched reverse sweeps
        whose per-lane results are bit-identical to replaying (and hence
        recording) each lane on its own.  The compiled tape itself is not
        modified.

        With a ``workspace`` (see :func:`lane_workspace`) the forward
        bounds and partials live in it, and the returned lanes take their
        adjoint bounds, contribution rows and Eq. 11 products from it too.
        Those arrays are valid until the next call that uses the same
        workspace.  Without one, every array is fresh.
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
        # The sweep writes every other row; the rows it keeps (inputs,
        # recorded constants) get the recorded columns across lanes.
        vlo, vhi = _lane_pair(workspace, "value", (self.n, L))
        plo, phi = _lane_pair(workspace, "partial", (self.n_edges, L))
        for dst, src, rows in (
            (vlo, self.value_lo, plan.kept_nodes),
            (vhi, self.value_hi, plan.kept_nodes),
            (plo, self.partial_lo, plan.kept_edges),
            (phi, self.partial_hi, plan.kept_edges),
        ):
            dst[rows] = src[rows, None]
        vlo[input_nodes] = inputs_lo
        vhi[input_nodes] = inputs_hi
        _C_FORWARD_LANES.inc()
        with _span("ad.forward_lanes") as sp:
            sp.set(nodes=self.n, lanes=L)
            plan.run(vlo, vhi, plo, phi, rounding_enabled())
            if check_guards:
                _check(self.tape.guards, vlo, vhi)
        return ReplayLanes(self, vlo, vhi, plo, phi, workspace)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def op_name(self, index: int) -> str:
        """Operation name of node ``index``."""
        return self.op_names[self.opcodes[index]]

    def parents_of(self, index: int) -> np.ndarray:
        """CSR parent slice of node ``index`` (recorded order)."""
        return self.parent_idx[self.row_ptr[index] : self.row_ptr[index + 1]]


class _Level:
    """One level of the reverse sweep's schedule.

    ``edges`` are the contribution edges the level emits, the ``kp``
    whose partial is one point constant in every lane in front;
    ``src`` are their sources and ``consts`` the ``(kp, 1)`` constants.
    ``first`` / ``rest`` split the level's apply list: ``first`` holds
    each destination's first incoming contribution (destinations
    distinct, so a plain fancy-indexed add applies it); ``rest`` keeps
    the remaining edges in flat order, which per destination is still
    ascending accumulation order, so one ``np.add.at`` continues each
    destination's fold where ``first`` left off.  Most nodes have one
    consumer, so this routes the bulk of the apply work around the slow
    unbuffered ``add.at``.  ``first_dst`` / ``rest_dst`` are their
    destinations.
    """

    __slots__ = (
        "edges", "src", "kp", "consts",
        "first", "first_dst", "rest", "rest_dst",
    )

    def __init__(self, ct, emit, apply, is_point, point_value):
        point = is_point[emit]
        head = emit[point]
        self.edges = np.concatenate((head, emit[~point]))
        self.src = ct._edge_src[self.edges]
        self.kp = head.size
        self.consts = point_value[head][:, None]
        dst = ct.parent_idx[apply]
        first = np.ones(apply.size, dtype=bool)
        np.not_equal(dst[1:], dst[:-1], out=first[1:])
        self.first, self.first_dst = apply[first], dst[first]
        self.rest, self.rest_dst = apply[~first], dst[~first]


class ReplayLanes:
    """The state of one lane-batched forward replay.

    Holds the ``(n, L)`` value bounds and ``(e, L)`` edge-partial bounds
    produced by :meth:`CompiledTape.forward_lanes`, and runs lane-batched
    reverse sweeps over them: the one reverse sweep of the compiled
    engine (:meth:`CompiledTape.adjoint` runs it on one lane).  Lane
    ``l`` of every result is bit-identical to recording the program on
    lane ``l``'s inputs and sweeping the object tape.
    """

    __slots__ = (
        "ct", "value_lo", "value_hi", "partial_lo", "partial_hi",
        "workspace", "scratch",
    )

    def __init__(
        self, ct, vlo, vhi, plo, phi, workspace=None, *, scratch=None
    ):
        self.ct = ct
        self.value_lo = vlo
        self.value_hi = vhi
        self.partial_lo = plo
        self.partial_hi = phi
        # The LaneWorkspace the arrays came from, which also holds the
        # sweep results (None: all fresh).
        self.workspace = workspace
        # The LaneWorkspace whose "contrib" role holds the sweep's
        # contribution rows and Eq. 11's products, both dead once their
        # call returns (None: fresh).
        self.scratch = workspace if scratch is None else scratch

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

        Returns ``(lo, hi)`` arrays of shape ``(n, L)``, in the workspace
        when the lanes have one.  The contribution rows are taken from
        :attr:`scratch` (fresh without one).
        """
        if not seeds:
            raise ValueError("adjoint sweep needs at least one seeded output")
        n, L = self.value_lo.shape
        rnd = rounding_enabled()
        alo, ahi = _lane_pair(self.workspace, "adjoint", (n, L))
        alo.fill(0.0)
        ahi.fill(0.0)
        for index, seed in seeds.items():
            if not (0 <= index < n):
                raise IndexError(f"seed index {index} outside tape")
            if isinstance(seed, Interval):
                slo, shi = seed.lo, seed.hi
            else:
                slo = shi = float(seed)
            # The object sweep seeds via `zero + seed`, an outward-rounded
            # interval add.
            new_lo = alo[index] + slo
            new_hi = ahi[index] + shi
            if rnd:
                down_array(new_lo, out=new_lo)
                up_array(new_hi, out=new_hi)
            alo[index] = new_lo
            ahi[index] = new_hi
        _C_SWEEPS.inc()
        with _span("ad.sweep") as sp, np.errstate(all="ignore"):
            sp.set(nodes=n, lanes=L, mode="scalar")
            self.ct._sweep_lanes(
                alo,
                ahi,
                self.partial_lo,
                self.partial_hi,
                *_lane_pair(self.scratch, "contrib", (self.ct.n_edges, L)),
                rnd=rnd,
                clean_nan=True,
            )
        return alo, ahi

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lane-batched vector sweep; per lane bit-identical to
        ``Tape.adjoint_vector`` (endpoint rule, no outward rounding).

        Returns fresh ``(lo, hi)`` arrays of shape ``(n, L, m)``.
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
        _C_SWEEPS.inc()
        with _span("ad.sweep") as sp, np.errstate(all="ignore"):
            sp.set(nodes=n, lanes=L, mode="vector", outputs=m)
            self.ct._sweep_lanes(
                lo,
                hi,
                self.partial_lo,
                self.partial_hi,
                *_lane_pair(self.scratch, "contrib", (self.ct.n_edges, L, m)),
                rnd=False,
                clean_nan=False,
            )
        return lo, hi


class LaneWorkspace:
    """Lane-sized arrays one thread's lane replays reuse across calls.

    Every role (``"value"``, ``"partial"``, ``"adjoint"``, ``"contrib"``)
    keeps one flat float64 buffer that grows to the largest call and is
    reused after that, so warm replays fault in no fresh pages for them.
    An array taken for a role is valid until the next take of that role.
    A workspace is for one thread at a time: use :func:`lane_workspace`.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised float64 array of ``shape`` for ``role``."""
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=np.float64)
            self._buffers[role] = buf
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes the workspace holds."""
        return sum(buf.nbytes for buf in self._buffers.values())


_LOCAL = threading.local()


def lane_workspace() -> LaneWorkspace:
    """The calling thread's :class:`LaneWorkspace`, made on first use.

    It lives as long as the thread and holds the arrays of the largest
    lane replay the thread has run.
    """
    workspace = getattr(_LOCAL, "workspace", None)
    if workspace is None:
        workspace = _LOCAL.workspace = LaneWorkspace()
    return workspace


def _lane_pair(
    workspace: LaneWorkspace | None, role: str, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """A lo/hi pair of ``shape`` arrays: ``role``'s in ``workspace``, or
    two fresh ones."""
    if workspace is None:
        return np.empty(shape), np.empty(shape)
    lo, hi = workspace.take(role, (2, *shape))
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
