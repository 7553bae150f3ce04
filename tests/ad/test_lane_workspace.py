"""The lane workspace: one set of lane-sized arrays per thread.

The lane core (``forward_lanes`` on a workspace, then
:func:`repro.scorpio.compiled.lane_eq11`) takes its forward bounds and
partials, adjoint bounds, contribution rows and Eq. 11 products from the
calling thread's :class:`~repro.ad.compiled.LaneWorkspace`.  A warm call
reuses that memory and keeps only its result; threads never share a
workspace; lanes replayed without one keep nothing.
"""

import sys
import threading
import tracemalloc

import numpy as np

from repro.ad import ADouble, CompiledTape, LaneWorkspace, Tape, lane_workspace
from repro.intervals import Interval
from repro.scorpio.compiled import lane_eq11

from test_forward_replay import _point_rule_program

L = 4096


def point_rule_tape():
    tape = Tape()
    with tape:
        xs = [ADouble.input(Interval(1.0, 1.5), label=f"x{i}") for i in range(3)]
        out = _point_rule_program(*xs).node.index
    return CompiledTape(tape), out


def lane_bounds(seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 2.0, (3, L))
    return lo, lo + rng.uniform(0.0, 0.5, (3, L))


def lane_core(ct, out, lo, hi, rows, workspace):
    return lane_eq11(
        ct.forward_lanes(lo, hi, workspace=workspace), out, rows=rows
    )


def test_warm_call_reuses_the_workspace():
    """A second call of the same shape allocates none of the workspace's
    arrays again: it keeps only its result, its passing temporaries stay
    below one pair of forward bounds, and every role is the same memory."""
    ct, out = point_rule_tape()
    lo, hi = lane_bounds(1)
    rows = [out, out - 1, 0]
    workspace = lane_workspace()
    first = lane_core(ct, out, lo, hi, rows, workspace)
    held = workspace.nbytes
    lanes = ct.forward_lanes(lo, hi, workspace=workspace)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        second = lane_core(ct, out, lo, hi, rows, workspace)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second.tobytes() == first.tobytes()
    assert workspace.nbytes == held
    assert current - before < second.nbytes + 4096
    assert peak - before - second.nbytes < 2 * ct.n * L * 8
    again = ct.forward_lanes(lo, hi, workspace=workspace)
    for name in ("value_lo", "value_hi", "partial_lo", "partial_hi"):
        assert np.shares_memory(getattr(lanes, name), getattr(again, name))


def test_threads_replay_in_their_own_workspaces():
    """Threads running the lane core at once on different inputs (more
    threads than cores, short switch interval) each get the bits of
    their sequential run."""
    ct, out = point_rule_tape()
    rows = list(range(ct.n))
    inputs = {seed: lane_bounds(seed) for seed in (2, 3, 4, 5)}
    expected = {
        seed: lane_core(ct, out, lo, hi, rows, None).tobytes()
        for seed, (lo, hi) in inputs.items()
    }
    barrier = threading.Barrier(len(inputs))
    got: dict[int, list[bytes]] = {seed: [] for seed in inputs}
    workspaces = {}

    def run(seed):
        lo, hi = inputs[seed]
        workspaces[seed] = lane_workspace()
        barrier.wait()
        for _ in range(5):
            got[seed].append(
                lane_core(ct, out, lo, hi, rows, lane_workspace()).tobytes()
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in inputs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(ws) for ws in workspaces.values()}) == len(inputs)
    assert lane_workspace() not in workspaces.values()
    for seed in inputs:
        assert got[seed] == [expected[seed]] * 5


def test_lanes_without_a_workspace_share_nothing():
    ct, out = point_rule_tape()
    lo, hi = lane_bounds(4)
    pooled = ct.forward_lanes(lo, hi, workspace=lane_workspace())
    pooled_adjoint = pooled.adjoint({out: 1.0})
    plain = ct.forward_lanes(lo, hi)
    assert plain.workspace is None
    plain_adjoint = plain.adjoint({out: 1.0})
    for name in ("value_lo", "value_hi", "partial_lo", "partial_hi"):
        assert not np.shares_memory(getattr(plain, name), getattr(pooled, name))
    for a in plain_adjoint:
        for b in pooled_adjoint:
            assert not np.shares_memory(a, b)
    assert plain_adjoint[0].tobytes() == pooled_adjoint[0].tobytes()
    assert plain_adjoint[1].tobytes() == pooled_adjoint[1].tobytes()


def test_kept_rows_are_filled_in_a_reused_workspace():
    """Rows no replay step writes (inputs, recorded constants) come from
    the recording even when the workspace holds another replay's bits."""
    workspace = LaneWorkspace()
    ct, out = point_rule_tape()
    lo, hi = lane_bounds(5)
    lane_core(ct, out, lo, hi, None, workspace)

    def record_sum(x):
        tape = Tape()
        with tape:
            v = ADouble.input(x, label="x")
            acc = ADouble.constant(Interval(0.25, 0.5))
            for k in range(3):
                acc = acc + v * ADouble.constant(float(k + 1))
        return CompiledTape(tape)

    lanes = record_sum(Interval(1.0, 2.0)).forward_lanes(
        lo[:1], hi[:1], workspace=workspace
    )
    for j in (0, 1, L - 1):
        ref = record_sum(Interval(lo[0, j], hi[0, j]))
        assert lanes.value_lo[:, j].tobytes() == ref.value_lo.tobytes()
        assert lanes.value_hi[:, j].tobytes() == ref.value_hi.tobytes()
        assert lanes.partial_lo[:, j].tobytes() == ref.partial_lo.tobytes()
        assert lanes.partial_hi[:, j].tobytes() == ref.partial_hi.tobytes()
