"""Array-backed ANALYSE pipeline over a :class:`~repro.ad.compiled.CompiledTape`.

The object pipeline (``Analysis.analyse``) walks dict-of-object graphs:
Eq. 11 per node, Algorithm 1 step S4 (simplify) on ``DFGNode`` copies, and
step S5 (BFS level / variance scan) via per-level sorts.  This module runs
the same algorithm on the compiled tape's flat arrays:

* Eq. 11 significance ``w([uj]·∇[uj][y])`` as one vectorized expression
  over the value/adjoint lo-hi arrays (:func:`eq11_from_sweep` /
  :func:`eq11_vector`);
* S4 on plain opcode/parent lists (:func:`simplify_structure`) — the
  traversal order and absorption rules are copied from
  :func:`repro.scorpio.simplify.simplify` so the resulting structure is
  identical;
* S5 with an array BFS over the CSR edges (:func:`levels_from_parents`)
  and the exact sequential-float variance of
  :func:`repro.scorpio.variance.level_variance` (:func:`scan_levels`, and
  per lane of a replay in one pass: :class:`LaneScanMap`);
* a DynDFG/report adapter (:func:`analyse_compiled`) that materializes the
  same ``SignificanceReport`` objects the object pipeline produces —
  byte-identical through :func:`repro.scorpio.serialize.report_to_json`.

Every numeric step reproduces the object pipeline bit-for-bit (same
product orders, same rounding points, same Python-float accumulation in
the variance), so ``analyse(compiled=True)`` is a pure speedup, not an
approximation; the object path remains the oracle the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad.compiled import CompiledTape, LaneWorkspace, _csr_gather
from repro.ad.replay import hull, square_array
from repro.ad.tape import Tape
from repro.intervals import Interval
from repro.intervals.rounding import down_array, rounding_enabled, up_array
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span as _obs_span

from .dyndfg import DFGNode, DynDFG
from .report import SignificanceReport
from .simplify import AGGREGATE_OPS
from .variance import VarianceScan, squared_deviations

__all__ = [
    "LaneScanMap",
    "analyse_compiled",
    "analyse_compiled_tape",
    "analyse_replay_lanes",
    "TraceStructure",
    "eq11_from_sweep",
    "eq11_vector",
    "lane_eq11",
    "scan_rows",
    "simplify_structure",
    "levels_from_parents",
    "levels_from_csr",
    "scan_levels",
]

_C_ANALYSES = _obs_metrics.counter("scorpio.analyses")
_C_SIMPLIFY_REMOVED = _obs_metrics.counter("scorpio.simplify_removed")
_C_SCANS = _obs_metrics.counter("scorpio.scans")
_C_SCAN_LEVELS = _obs_metrics.counter("scorpio.scan_levels_visited")


# ----------------------------------------------------------------------
# Eq. 11 on arrays
# ----------------------------------------------------------------------
def eq11_from_sweep(
    value_lo: np.ndarray,
    value_hi: np.ndarray,
    adj_lo: np.ndarray,
    adj_hi: np.ndarray,
    *,
    rows: Sequence[int] | np.ndarray | None = None,
    workspace: LaneWorkspace | None = None,
) -> np.ndarray:
    """``S_y(uj) = w([uj]·∇[uj][y])`` for every node, in one expression.

    Bit-identical to mapping
    :func:`repro.scorpio.significance.significance_value` over the nodes
    of an interval tape: same four endpoint products in the same order,
    ``0·inf → 0`` cleanup, fold-left min/max tie-breaking, and outward
    rounding honouring the global flag.  NumPy's floating-point warnings
    are off: Python floats give the same ``inf`` and NaN without one.
    Arrays may carry any trailing lane axes.

    ``rows`` restricts the work to those node rows (any order, repeats
    allowed): the result is ``(len(rows), ...)``, row ``k`` holding node
    ``rows[k]``.  Every step is elementwise, so each row keeps the bits
    it has in the full result.  With a ``workspace`` the gathered rows
    and the products live in its ``"contrib"`` role (dead once an
    adjoint sweep has returned); only the result is a new array.
    """
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        n = value_lo.shape[0]
        if rows.size and (rows.min() < -n or rows.max() >= n):
            raise IndexError(f"rows index outside the {n} nodes")
    rnd = rounding_enabled()
    shape = value_lo.shape if rows is None else rows.shape + value_lo.shape[1:]
    if workspace is None:
        p1, p2, p3, p4 = np.empty((4, *shape))
    else:
        p1, p2, p3, p4 = workspace.take("contrib", (4, *shape))
    out = np.empty(shape)
    if rows is None:
        vl, vh, al, ah = value_lo, value_hi, adj_lo, adj_hi
    else:
        # Gather into the product buffers, each row block overwritten by
        # a product once its last reader has run; ``out`` holds the
        # value upper bounds until the fold needs it.
        vl = value_lo.take(rows, axis=0, out=p2, mode="wrap")
        al = adj_lo.take(rows, axis=0, out=p3, mode="wrap")
        ah = adj_hi.take(rows, axis=0, out=p4, mode="wrap")
        vh = value_hi.take(rows, axis=0, out=out, mode="wrap")
    with np.errstate(all="ignore"):
        np.multiply(vl, al, out=p1)
        np.multiply(vl, ah, out=p2)
        np.multiply(vh, al, out=p3)
        np.multiply(vh, ah, out=p4)
        lo, hi = hull(p1, p2, p3, p4, rounded=rnd, out=out)
        if rnd:
            down_array(lo, out=lo)
            up_array(hi, out=hi)
        return np.subtract(hi, lo, out=hi)


def lane_eq11(
    lanes: Any,
    output_id: int,
    *,
    rows: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Eq. 11 over a lane-batched replay seeded at one output.

    ``lanes`` is the :class:`repro.ad.compiled.ReplayLanes` of a
    ``forward_lanes`` call.  The adjoint sweep covers every node (each
    adjoint depends on its consumers'); Eq. 11 then runs on ``rows``
    only (``None``: all nodes) — see :func:`eq11_from_sweep`.  Column
    ``l`` is bit-identical to a scalar analysis of lane ``l``.  This is
    the one lane core: :meth:`repro.scorpio.CachedTrace.lane_significances`
    and the process fan-out's chunks (:mod:`repro.mp.drivers`) both run
    it.  Lanes replayed on a workspace run the adjoint and Eq. 11 in it
    too; the returned matrix is always a new array.
    """
    alo, ahi = lanes.adjoint({output_id: 1.0})
    return eq11_from_sweep(
        lanes.value_lo,
        lanes.value_hi,
        alo,
        ahi,
        rows=rows,
        workspace=lanes.scratch,
    )


def eq11_vector(
    value_lo: np.ndarray,
    value_hi: np.ndarray,
    adj_lo: np.ndarray,
    adj_hi: np.ndarray,
    *,
    workspace: LaneWorkspace | None = None,
) -> np.ndarray:
    """Vector-mode Eq. 11: ``S_y(uj) = Σ_i S_{y_i}(uj)`` on ``(n, m)``
    adjoint component matrices — the array twin of
    :func:`repro.scorpio.significance.significance_map_vector` on an
    interval tape (same branch per node, same association order, no
    outward rounding, no NumPy floating-point warnings).

    With a ``workspace`` the products live in its ``"contrib"`` role
    (dead once an adjoint sweep has returned); only the returned sum is
    a new array.
    """
    shape = (5, *adj_lo.shape)
    if workspace is None:
        p1, p2, p3, p4, pmin = np.empty(shape)
    else:
        p1, p2, p3, p4, pmin = workspace.take("contrib", shape)
    point = value_lo == value_hi
    # Full-array endpoint products; point rows are recomputed below with
    # their own branch formula (cheaper than boolean-gathering four
    # (n, m) arrays when point rows are a minority, and elementwise ops
    # make the non-point rows bit-identical either way).
    vl = value_lo[:, None]
    vh = value_hi[:, None]
    with np.errstate(all="ignore"):
        np.multiply(vl, adj_lo, out=p1)
        np.multiply(vl, adj_hi, out=p2)
        np.multiply(vh, adj_lo, out=p3)
        np.multiply(vh, adj_hi, out=p4)
        # min(min(p1, p2), min(p3, p4)) and the same for max, in
        # significance_map_vector's association order.
        np.minimum(p1, p2, out=pmin)
        pmax = np.maximum(p1, p2, out=p2)
        t = np.minimum(p3, p4, out=p1)
        np.minimum(pmin, t, out=pmin)
        np.maximum(p3, p4, out=p4)
        np.maximum(pmax, p4, out=pmax)
        np.subtract(pmax, pmin, out=pmax)
        sig = np.sum(pmax, axis=1)
        if point.any():
            sig[point] = np.abs(value_lo[point]) * np.sum(
                adj_hi[point] - adj_lo[point], axis=1
            )
    return sig


# ----------------------------------------------------------------------
# Algorithm 1 S4 on plain structure
# ----------------------------------------------------------------------
def simplify_structure(
    ops: Sequence[str],
    parents: Sequence[tuple[int, ...]],
    outputs: Sequence[int],
) -> tuple[list[int], dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Step S4 on opcode/parent lists; structure-identical to
    :func:`repro.scorpio.simplify.simplify`.

    Returns ``(survivor ids ascending, id -> parents, id -> merged)``.
    Only the graph *structure* matters here, so a replayed trace runs it
    once and reuses it for every lane.
    """
    n = len(ops)
    flat = np.fromiter(chain.from_iterable(parents), dtype=np.int64)
    if flat.size:
        consumer_count = np.bincount(flat, minlength=n).tolist()
    else:
        consumer_count = [0] * n

    removed: set[int] = set()
    cur_parents: list[tuple[int, ...]] = list(parents)
    merged_all: list[tuple[int, ...]] = [()] * n

    # Descending id (reverse execution) order: the final node of each
    # aggregation chain absorbs the whole chain in one pass.
    for nid in range(n - 1, -1, -1):
        if nid in removed or ops[nid] not in AGGREGATE_OPS:
            continue
        merged = list(merged_all[nid])
        new_parents: list[int] = []
        frontier = list(cur_parents[nid])
        changed = False
        while frontier:
            pid = frontier.pop()
            if pid in removed:
                continue
            p_op = ops[pid]
            absorb_chain = (
                p_op in AGGREGATE_OPS and consumer_count[pid] == 1
            )
            absorb_const = p_op == "const" and consumer_count[pid] == 1
            if absorb_chain or absorb_const:
                removed.add(pid)
                merged.append(pid)
                merged.extend(merged_all[pid])
                frontier.extend(cur_parents[pid])
                changed = True
            else:
                new_parents.append(pid)
        if changed:
            cur_parents[nid] = tuple(sorted(set(new_parents)))
            merged_all[nid] = tuple(sorted(set(merged)))

    survivors = [i for i in range(n) if i not in removed]
    still_consumed: set[int] = set()
    for i in survivors:
        still_consumed.update(cur_parents[i])
    out_set = set(outputs)
    survivors = [
        i
        for i in survivors
        if not (
            ops[i] == "const" and i not in still_consumed and i not in out_set
        )
    ]
    surv_set = set(survivors)
    final_parents = {
        i: tuple(p for p in cur_parents[i] if p in surv_set)
        for i in survivors
    }
    final_merged = {i: merged_all[i] for i in survivors}
    return survivors, final_parents, final_merged


# ----------------------------------------------------------------------
# Algorithm 1 S5: BFS levels + variance scan
# ----------------------------------------------------------------------
def levels_from_parents(
    parents: Mapping[int, tuple[int, ...]],
    n: int,
    outputs: Sequence[int],
) -> dict[int, int]:
    """BFS distance-to-output levels over a parents map, frontier by
    frontier on CSR arrays.  Matches ``DynDFG._assign_levels`` (levels are
    shortest distances, so queue order is irrelevant); unreachable nodes
    are absent from the result (their level is ``None``)."""
    m = len(parents)
    ids = np.fromiter(parents.keys(), dtype=np.int64, count=m)
    lens = np.fromiter(map(len, parents.values()), dtype=np.int64, count=m)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    row_ptr[ids + 1] = lens
    np.cumsum(row_ptr, out=row_ptr)
    e = int(row_ptr[-1])
    if m and bool(np.all(ids[:-1] < ids[1:])):
        # Keys ascending (the common case: dicts built over ascending
        # survivor ids), so concatenating values in iteration order lands
        # each row exactly at its CSR offset.
        parent_idx = np.fromiter(
            chain.from_iterable(parents.values()), dtype=np.int64, count=e
        )
    else:
        parent_idx = np.empty(e, dtype=np.int64)
        for i, ps in parents.items():
            start = row_ptr[i]
            parent_idx[start : start + len(ps)] = ps
    return levels_from_csr(row_ptr, parent_idx, outputs)


def levels_from_csr(
    row_ptr: np.ndarray,
    parent_idx: np.ndarray,
    outputs: Sequence[int],
) -> dict[int, int]:
    """BFS levels straight off CSR edge arrays (e.g. a
    :class:`~repro.ad.compiled.CompiledTape`'s — no rebuild needed)."""
    n = len(row_ptr) - 1
    levels = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(list(outputs), dtype=np.int64))
    levels[frontier] = 0
    fresh = np.zeros(n, dtype=bool)
    d = 0
    while frontier.size:
        ps = _csr_gather(row_ptr, parent_idx, frontier)
        if not ps.size:
            break
        # Mask-based dedup-and-filter: flatnonzero yields the sorted
        # unique unvisited parents without an O(e log e) np.unique.
        fresh[ps] = True
        fresh &= levels < 0
        ps = np.flatnonzero(fresh)
        fresh[ps] = False
        if not ps.size:
            break
        d += 1
        levels[ps] = d
        frontier = ps
    reached = np.flatnonzero(levels >= 0)
    return dict(zip(reached.tolist(), levels[reached].tolist()))


def group_levels(levels: Mapping[int, int]) -> dict[int, list[int]]:
    """Level -> ascending member ids, as the variance scan visits them.

    Pure structure — replay loops precompute it once per trace (see
    :meth:`TraceStructure.scan_members`) instead of re-sorting the level
    map on every scan.
    """
    members_by_level: dict[int, list[int]] = {}
    for nid in sorted(levels):
        members_by_level.setdefault(levels[nid], []).append(nid)
    return members_by_level


def scan_levels(
    levels: Mapping[int, int],
    significances: Mapping[int, float],
    delta: float,
) -> tuple[int | None, dict[int, float]]:
    """``findSgnfVariance`` on precomputed levels — exact Python-float
    arithmetic of :func:`repro.scorpio.variance.level_variance` (sequential
    sum over members in ascending id order, population variance)."""
    return scan_grouped(group_levels(levels), significances, delta)


def scan_grouped(
    members_by_level: Mapping[int, Sequence[int]],
    significances: Mapping[int, float],
    delta: float,
) -> tuple[int | None, dict[int, float]]:
    """:func:`scan_levels` on an already-grouped level map."""
    height = (max(members_by_level) + 1) if members_by_level else 0
    variances: dict[int, float] = {}
    for level in range(1, height):
        sigs = [significances[i] for i in members_by_level.get(level, ())]
        if len(sigs) < 2:
            var = 0.0
        else:
            mean = sum(sigs) / len(sigs)
            var = squared_deviations(sigs, mean) / len(sigs)
        variances[level] = var
        if var > delta:
            return level, variances
    return None, variances


@dataclass
class LaneScanMap:
    """Per-lane S5 results for a whole lane-batched replay.

    Attributes:
        lane_shape: the batch's lane shape.
        found_level: int array over lanes — first BFS level whose
            significance variance exceeds ``delta`` in that lane, or -1
            when the scan reached the inputs without finding one (the
            scalar scan's ``found_level is None``).
        variances: per-level variance arrays over lanes.  Levels are
            scanned until every lane has found a partition level; a lane
            leaves the scan at its found level, so its entries past that
            level are NaN (the scalar scan never computes them).  Every
            other entry is bit-identical to the scalar scan.
        delta: the threshold used.
    """

    lane_shape: tuple[int, ...]
    found_level: np.ndarray
    variances: dict[int, np.ndarray] = field(default_factory=dict)
    delta: float = 1e-6


def scan_rows(members_by_level: Mapping[int, Sequence[int]]) -> list[int]:
    """Node ids the S5 scan reads, ascending: the members of every level
    from 1 on with at least two nodes (a smaller level's variance is 0
    without reading anything)."""
    return sorted(
        i
        for level, ids in members_by_level.items()
        if level >= 1 and len(ids) >= 2
        for i in ids
    )


def _scan_columns(
    sig: np.ndarray,
    lane_shape: tuple[int, ...],
    members_by_level: Mapping[int, Sequence[int]],
    *,
    delta: float,
    rows: Sequence[int] | None = None,
) -> LaneScanMap:
    """:func:`scan_grouped` for every column of an ``(n_rows, n_lanes)``
    significance matrix at once — one pass over the levels, each computing
    the variances of the lanes still scanning, bit-identical per lane to
    the scalar scan.

    Row ``k`` of ``sig`` holds node ``rows[k]`` (node ``k`` when ``rows``
    is None); it must hold every node of :func:`scan_rows`.
    """
    height = (max(members_by_level) + 1) if members_by_level else 0
    lanes = sig.shape[1]
    if rows is None:
        rows = range(sig.shape[0])
    position = {int(node): k for k, node in enumerate(rows)}
    found = np.full(lanes, -1, dtype=np.int64)
    active = np.arange(lanes)
    variances: dict[int, np.ndarray] = {}
    for level in range(1, height):
        if not active.size:
            break
        ids = members_by_level.get(level, [])
        if len(ids) < 2:
            var = np.zeros(active.size)
        else:
            try:
                at = [position[i] for i in ids]
            except KeyError:
                raise ValueError(
                    f"the significance matrix lacks rows the scan reads "
                    f"at level {level} (nodes {list(ids)})"
                ) from None
            block = sig[np.ix_(at, active)]
            # Same association order as level_variance: sequential sum
            # over members in ascending id order, population variance.
            total = block[0].copy()
            for row in block[1:]:
                total += row
            mean = total / len(ids)
            sq = np.zeros(active.size)
            with np.errstate(over="ignore"):
                for row in block:
                    d = np.subtract(row, mean, out=row)
                    sq += np.multiply(d, d, out=d)
                if not np.isfinite(sq).all():
                    # Raises where a deviation's ``d ** 2`` would.
                    square_array(sig[np.ix_(at, active)] - mean)
            var = sq / len(ids)
        full = np.full(lanes, np.nan)
        full[active] = var
        variances[level] = full.reshape(lane_shape)
        hit = var > delta
        found[active[hit]] = level
        active = active[~hit]
    return LaneScanMap(
        lane_shape=lane_shape,
        found_level=found.reshape(lane_shape),
        variances=variances,
        delta=delta,
    )


# ----------------------------------------------------------------------
# Materialization (arrays -> DynDFG / SignificanceReport)
# ----------------------------------------------------------------------
class _LazyDynDFG(DynDFG):
    """A :class:`DynDFG` whose node objects are built on first access.

    The compiled pipeline keeps its results in arrays; most consumers only
    read a handful of labelled significances, so the ``DFGNode``
    dictionaries (one Python object per tape node, times three graphs) are
    materialized lazily.  Once built, the instance behaves exactly like an
    eagerly-constructed graph — serialization and comparison see identical
    objects.
    """

    def __init__(self, build, outputs: Sequence[int], columns: tuple):
        self._build = build
        self._materialized: dict[int, DFGNode] | None = None
        self.outputs = list(outputs)
        # (ids, parents, merged, levels) the nodes are built from.
        self.columns = columns

    @property  # type: ignore[override]
    def nodes(self) -> dict[int, DFGNode]:
        materialized = self._materialized
        if materialized is None:
            materialized = self._build()
            self._materialized = materialized
        return materialized


class _CompiledReport(SignificanceReport):
    """Report flavour whose label views read the flat columns directly.

    Byte-identical to the object report (the overridden methods return
    the same dictionaries in the same order) but without materializing
    16k ``DFGNode`` objects to look up a handful of labels.
    """

    # The columns the graphs are built from (set by
    # _assemble_from_columns); report_to_json writes straight from them.
    _labels: dict[int, str]
    _sig: list[float]
    _n: int
    _ops: list[str]
    _values: tuple[list, list, list]  # lo, hi, is-interval flags
    _adjoint_columns: Any  # thunk -> (lo list, hi list)
    _simplified_n: int

    def labelled_significances(self) -> dict[str, float]:
        out: dict[str, float] = {}
        outputs = self.output_ids
        for i, label in self._labels.items():
            if i in outputs:
                continue
            out[label] = out.get(label, 0.0) + self._sig[i]
        return out

    def input_significances(self) -> dict[str, float]:
        ids = set(self.input_ids)
        return {
            (self._labels.get(i) or f"x{i}"): self._sig[i]
            for i in sorted(ids)
        }

    def significance_of(self, label: str) -> float:
        hits = [i for i, lab in self._labels.items() if lab == label]
        if not hits:
            raise KeyError(f"no registered variable named {label!r}")
        if len(hits) > 1:
            raise KeyError(
                f"label {label!r} is ambiguous ({len(hits)} nodes); "
                "use labelled_significances()"
            )
        return self._sig[hits[0]] or 0.0


def build_graph(
    ids: Sequence[int],
    *,
    ops: Sequence[str],
    labels: Sequence[str | None],
    values: Sequence[Any],
    adjoints: Sequence[Any],
    significances: Sequence[float],
    parents: Mapping[int, tuple[int, ...]] | Sequence[tuple[int, ...]],
    merged: Mapping[int, tuple[int, ...]] | None,
    levels: Mapping[int, int],
    outputs: Sequence[int],
) -> DynDFG:
    """Materialize a :class:`DynDFG` from id-indexed columns, injecting
    the precomputed BFS levels instead of recomputing them."""
    nodes = [
        DFGNode(
            id=i,
            op=ops[i],
            label=labels[i],
            value=values[i],
            adjoint=adjoints[i],
            significance=significances[i],
            parents=parents[i],
            merged=merged[i] if merged is not None else (),
        )
        for i in ids
    ]
    return DynDFG(nodes, list(outputs), levels=dict(levels))


class TraceStructure:
    """Input-independent analysis structure of one compiled trace.

    Algorithm 1's S4 (simplify) and the BFS levels depend only on the
    graph *shape* — opcodes and parent edges — never on the interval
    values flowing through it.  A replayed trace keeps its shape, so the
    trace cache computes this once per recorded trace and passes it to
    every :func:`analyse_compiled_tape` call, leaving only the reverse
    sweep, Eq. 11 and the variance scan as per-replay work.
    """

    __slots__ = (
        "output_ids",
        "simplified",
        "ops",
        "raw_parents",
        "surv",
        "s_parents",
        "s_merged",
        "s_levels",
        "_row_ptr",
        "_parent_idx",
        "_raw_levels_memo",
        "_scan_members_memo",
    )

    def __init__(
        self,
        ct: CompiledTape,
        output_ids: Sequence[int],
        *,
        simplify: bool = True,
    ):
        output_ids = list(output_ids)
        n = ct.n
        ptr = ct.row_ptr.tolist()
        pidx = ct.parent_idx.tolist()
        self.output_ids = output_ids
        self.simplified = simplify
        self.ops = [ct.op_names[c] for c in ct.opcodes.tolist()]
        self.raw_parents = [
            tuple(pidx[ptr[j] : ptr[j + 1]]) for j in range(n)
        ]
        self._row_ptr = ct.row_ptr
        self._parent_idx = ct.parent_idx
        self._raw_levels_memo: list[dict[int, int]] = []
        self._scan_members_memo: list[dict[int, list[int]]] = []
        if simplify:
            with _obs_span("scorpio.simplify") as sp:
                self.surv, self.s_parents, self.s_merged = (
                    simplify_structure(
                        self.ops, self.raw_parents, output_ids
                    )
                )
                removed = n - len(self.surv)
                _C_SIMPLIFY_REMOVED.inc(removed)
                sp.set(nodes=n, removed=removed, backend="compiled")
            with _obs_span("scorpio.levels") as sp:
                self.s_levels = levels_from_parents(
                    self.s_parents, n, output_ids
                )
                sp.set(nodes=len(self.s_levels))
        else:
            self.surv = range(n)
            self.s_parents = self.raw_parents
            self.s_merged = None
            self.s_levels = self.raw_levels()

    def raw_levels(self) -> dict[int, int]:
        """BFS levels of the raw graph (lazy: only the raw-graph view
        needs them)."""
        if not self._raw_levels_memo:
            self._raw_levels_memo.append(
                levels_from_csr(self._row_ptr, self._parent_idx, self.output_ids)
            )
        return self._raw_levels_memo[0]

    def scan_members(self) -> dict[int, list[int]]:
        """Variance-scan grouping of the surviving nodes (lazy, memoized:
        structural, so every replay of this trace scans the same lists)."""
        if not self._scan_members_memo:
            self._scan_members_memo.append(
                group_levels(
                    {
                        i: self.s_levels[i]
                        for i in self.surv
                        if i in self.s_levels
                    }
                )
            )
        return self._scan_members_memo[0]


def analyse_compiled_tape(
    ct: CompiledTape,
    output_ids: Sequence[int],
    *,
    lanes: Any = None,
    input_ids: Sequence[int] = (),
    intermediate_ids: Sequence[int] = (),
    delta: float = 1e-6,
    simplify: bool = True,
    structure: TraceStructure | None = None,
) -> SignificanceReport:
    """ANALYSE over one lane of a compiled tape.

    The lane is ``lanes``, the one-lane :class:`ReplayLanes` that
    :meth:`CompiledTape.forward` returns, or by default the recorded
    arrays (:meth:`CompiledTape._one_lane`).  Unlike
    :func:`analyse_compiled` this reads every node value, opcode and
    parent from the compiled columns rather than the source
    ``tape.nodes``, which hold the recorded values only.  Pass a
    precomputed :class:`TraceStructure` to skip the per-call S4/BFS work
    when analysing many replays of one trace.

    It runs :func:`analyse_replay_lanes` on that lane.  Returns a
    :class:`SignificanceReport` byte-identical (through
    ``report_to_json``) to the object pipeline run on an equivalent
    recording.
    """
    with _obs_span("scorpio.analyse") as span_:
        span_.set(nodes=ct.n, backend="compiled")
        return analyse_replay_lanes(
            ct,
            ct._one_lane() if lanes is None else lanes,
            output_ids,
            input_ids=input_ids,
            intermediate_ids=intermediate_ids,
            delta=delta,
            simplify=simplify,
            structure=structure,
        )[0]


def _adjoint_columns(alo: np.ndarray, ahi: np.ndarray):
    """Thunk of one sweep's adjoint columns as ``(lo list, hi list)``.

    The arrays are fresh per sweep, so deferring the ``tolist`` keeps it
    off the replay hot path until a graph or the JSON writer needs it.
    """
    return lambda: (alo.tolist(), ahi.tolist())


def _hull_columns(lo: np.ndarray, hi: np.ndarray):
    """Thunk of the per-node hull of ``(n, m)`` per-output adjoints, the
    adjoint significance_map_vector keeps on every node."""
    return lambda: (np.min(lo, axis=1).tolist(), np.max(hi, axis=1).tolist())


def _assemble_from_columns(
    *,
    structure: TraceStructure,
    sig_list: list,
    vlo_snap: list,
    vhi_snap: list,
    is_iv_snap: list,
    adjoint_columns,
    labels,
    delta,
    simplify,
    input_ids,
    intermediate_ids,
    output_ids,
    n,
) -> SignificanceReport:
    """Graphs + S5 + report from one analysis' scalar columns: variance-
    scan the simplified structure, truncate if a level is found, wrap
    everything in a :class:`_CompiledReport`.

    Shared verbatim by the scalar replay path and the per-lane slices of
    a batched replay (:func:`analyse_replay_lanes`) — sharing the code is
    what keeps a lane's report byte-identical to its scalar twin.  The
    report keeps the columns, so :func:`repro.scorpio.serialize.
    report_to_json` can write it without building a graph.
    """
    ops = structure.ops
    column_memo: list[Any] = []
    adjoint_memo: list[Any] = []
    value_memo: list[Any] = []

    def columns() -> tuple[list, list]:
        if not column_memo:
            column_memo.append(adjoint_columns())
        return column_memo[0]

    def adjoints() -> list[Interval]:
        if not adjoint_memo:
            lo, hi = columns()
            adjoint_memo.append([Interval(l, h) for l, h in zip(lo, hi)])
        return adjoint_memo[0]

    def values() -> list[Any]:
        if not value_memo:
            value_memo.append(
                [
                    Interval(l, h) if f else l
                    for l, h, f in zip(vlo_snap, vhi_snap, is_iv_snap)
                ]
            )
        return value_memo[0]

    def lazy_graph(ids, parents, merged, levels) -> _LazyDynDFG:
        def build() -> dict[int, DFGNode]:
            adjs = adjoints()
            vals = values()
            # `levels` may itself be lazy (a thunk): raw BFS levels are
            # only needed if the raw graph is ever materialized.
            lvls = levels() if callable(levels) else levels
            return {
                i: DFGNode(
                    id=i,
                    op=ops[i],
                    label=labels.get(i),
                    value=vals[i],
                    adjoint=adjs[i],
                    significance=sig_list[i],
                    parents=parents[i],
                    level=lvls.get(i),
                    merged=merged[i] if merged is not None else (),
                )
                for i in ids
            }

        return _LazyDynDFG(build, output_ids, (ids, parents, merged, levels))

    raw = lazy_graph(
        range(n), structure.raw_parents, None, structure.raw_levels
    )
    if simplify:
        simplified = lazy_graph(
            structure.surv,
            structure.s_parents,
            structure.s_merged,
            structure.s_levels,
        )
    else:
        simplified = raw

    _C_SCANS.inc()
    with _obs_span("scorpio.scan") as sp:
        found, variances = scan_grouped(
            structure.scan_members(), sig_list, delta
        )
        _C_SCAN_LEVELS.inc(len(variances))
        sp.set(levels=len(variances), found=found)
    if found is None:
        scan_graph = simplified
    else:
        s_levels = structure.s_levels
        keep = [
            i
            for i in structure.surv
            if i in s_levels and s_levels[i] <= found + 1
        ]
        keep_set = set(keep)
        k_parents = {
            i: tuple(p for p in structure.s_parents[i] if p in keep_set)
            for i in keep
        }
        # Truncation preserves BFS levels: every shortest path from a kept
        # node runs through strictly smaller levels, hence through kept
        # nodes only.
        scan_graph = lazy_graph(
            keep, k_parents, structure.s_merged, {i: s_levels[i] for i in keep}
        )

    scan = VarianceScan(
        graph=scan_graph, found_level=found, delta=delta, variances=variances
    )
    report = _CompiledReport(
        raw_graph=raw,
        simplified_graph=simplified,
        scan=scan,
        input_ids=list(input_ids),
        intermediate_ids=list(intermediate_ids),
        output_ids=list(output_ids),
    )
    report._labels = labels
    report._sig = sig_list
    report._n = n
    report._ops = ops
    report._values = (vlo_snap, vhi_snap, is_iv_snap)
    report._adjoint_columns = columns
    report._simplified_n = len(structure.surv)
    return report


def analyse_compiled(
    tape: Tape,
    output_ids: Sequence[int],
    *,
    input_ids: Sequence[int] = (),
    intermediate_ids: Sequence[int] = (),
    delta: float = 1e-6,
    simplify: bool = True,
) -> SignificanceReport:
    """The full ANALYSE pipeline through the compiled fast path.

    Freezes ``tape``, runs the vectorized reverse sweep (scalar seed for a
    single output, vector adjoint for many — mirroring
    ``Analysis.analyse``), computes Eq. 11, S4 and S5 on arrays, and
    returns a :class:`SignificanceReport` byte-identical (through
    ``report_to_json``) to the object pipeline's.  The report's graphs are
    materialized lazily on first access; unlike the object sweep, tape
    ``Node.adjoint`` attributes are left untouched — the report carries
    every adjoint (use the object path if you need them on the tape).
    """
    output_ids = list(output_ids)
    if not output_ids:
        raise ValueError("analyse_compiled needs at least one output")
    return analyse_compiled_tape(
        CompiledTape(tape),
        output_ids,
        input_ids=input_ids,
        intermediate_ids=intermediate_ids,
        delta=delta,
        simplify=simplify,
    )


def analyse_replay_lanes(
    ct: CompiledTape,
    lanes: Any,
    output_ids: Sequence[int],
    *,
    input_ids: Sequence[int] = (),
    intermediate_ids: Sequence[int] = (),
    delta: float = 1e-6,
    simplify: bool = True,
    structure: TraceStructure | None = None,
) -> list[SignificanceReport]:
    """Full ANALYSE of every lane of one batched replay: one sweep, L reports.

    ``lanes`` is the :class:`repro.ad.compiled.ReplayLanes` of a
    :meth:`CompiledTape.forward_lanes` call.  The expensive work — the
    reverse adjoint sweep and Eq. 11 — runs once over the whole ``(n, L)``
    lane block; the per-lane remainder (variance scan, lazy graphs,
    report assembly) reuses the exact scalar assembly path on each lane's
    columns.  Lane ``l``'s report is therefore byte-identical (through
    ``report_to_json``) to a scalar replay — and hence to a fresh
    recording — of lane ``l``'s inputs.  This is what lets
    :mod:`repro.serve` coalesce concurrent requests into one sweep while
    still answering each caller with the bytes it would have gotten
    alone.  :func:`analyse_compiled_tape` runs it on one lane of a tape's
    own arrays.  The reports keep the lanes' adjoint arrays, so pass
    lanes replayed without a workspace.
    """
    output_ids = list(output_ids)
    if not output_ids:
        raise ValueError("analyse_replay_lanes needs at least one output")
    if structure is None:
        structure = TraceStructure(ct, output_ids, simplify=simplify)
    elif structure.simplified != simplify:
        raise ValueError(
            "TraceStructure was built with a different `simplify` setting"
        )
    n = ct.n
    L = lanes.n_lanes
    vlo = lanes.value_lo
    vhi = lanes.value_hi
    _C_ANALYSES.inc(L)
    with _obs_span("scorpio.analyse_lanes") as span_:
        span_.set(nodes=n, lanes=L, backend="compiled")
        if len(output_ids) == 1:
            alo, ahi = lanes.adjoint({output_ids[0]: 1.0})
            with _obs_span("scorpio.eq11") as sp:
                sig = eq11_from_sweep(
                    vlo, vhi, alo, ahi, workspace=lanes.scratch
                )
                sp.set(nodes=n, outputs=1, lanes=L)

            def lane_sig(lane: int) -> list:
                return sig[:, lane].tolist()

            def lane_adjoints(lane: int):
                return _adjoint_columns(alo[:, lane], ahi[:, lane])

        else:
            lo, hi = lanes.adjoint_vector(output_ids)

            def lane_sig(lane: int) -> list:
                # Per-lane Eq. 11 over the (n, m) adjoint slice: the
                # elementwise products and the axis-1 sum visit the same
                # element sequence as the scalar path, so each lane's
                # significances are bit-identical to it.
                with _obs_span("scorpio.eq11") as sp:
                    s = eq11_vector(
                        vlo[:, lane],
                        vhi[:, lane],
                        lo[:, lane, :],
                        hi[:, lane, :],
                        workspace=lanes.scratch,
                    )
                    sp.set(nodes=n, outputs=len(output_ids))
                return s.tolist()

            def lane_adjoints(lane: int):
                return _hull_columns(lo[:, lane, :], hi[:, lane, :])

        # Each lane's value columns become lists here: the report's lazy
        # graph and its JSON writer both read them.
        reports = []
        for lane in range(L):
            reports.append(
                _assemble_from_columns(
                    structure=structure,
                    sig_list=lane_sig(lane),
                    vlo_snap=vlo[:, lane].tolist(),
                    vhi_snap=vhi[:, lane].tolist(),
                    is_iv_snap=ct.value_is_interval.tolist(),
                    adjoint_columns=lane_adjoints(lane),
                    labels=ct.labels,
                    delta=delta,
                    simplify=simplify,
                    input_ids=input_ids,
                    intermediate_ids=intermediate_ids,
                    output_ids=output_ids,
                    n=n,
                )
            )
    return reports
