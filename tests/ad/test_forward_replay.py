"""Forward replay vs re-recording, bit for bit.

:meth:`repro.ad.compiled.CompiledTape.forward` promises that replaying a
frozen trace on fresh input intervals reproduces *exactly* the arrays a
fresh recording of the same program would freeze — every value bound,
every edge partial, every outward-rounding point.  Hypothesis generates
the same random straight-line DAG programs as ``test_compiled_tape`` and
we compare a replayed tape against a re-recorded one bitwise, in both
rounding modes, for scalar and lane-batched replays.

The structure guard and the guard re-check get their own tests: an
unreplayable trace must fail *loudly* at plan build
(:class:`~repro.ad.replay.ReplayError` with a message naming the node),
and inputs that would take a different branch than the recording must
raise :class:`~repro.ad.replay.GuardDivergenceError` instead of silently
computing the wrong program.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ad import ADouble, CompiledTape, Tape
from repro.ad.replay import GuardDivergenceError, ReplayError
from repro.intervals import AmbiguousComparisonError, Interval
from repro.intervals import rounding as rounding_module
from repro.intervals.rounding import rounded_mode

from test_compiled_tape import N_INPUTS, program, record

points = st.lists(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    min_size=N_INPUTS,
    max_size=N_INPUTS,
)
radii = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def centered(point, radius):
    return [Interval.centered(p, radius) for p in point]


def assert_same_arrays(ct, ref):
    assert ct.value_lo.tobytes() == ref.value_lo.tobytes()
    assert ct.value_hi.tobytes() == ref.value_hi.tobytes()
    assert ct.partial_lo.tobytes() == ref.partial_lo.tobytes()
    assert ct.partial_hi.tobytes() == ref.partial_hi.tobytes()


@given(program(), points, radii, points, radii, st.booleans())
@settings(max_examples=60, deadline=None)
def test_forward_matches_rerecording_bitwise(
    steps, pt_a, rad_a, pt_b, rad_b, rounding
):
    """Replaying inputs B over a trace recorded on inputs A freezes the
    exact arrays recording the program on B would."""
    with rounded_mode(rounding):
        tape_a, _ = record(steps, centered(pt_a, rad_a))
        ct = CompiledTape(tape_a)
        ct.forward(centered(pt_b, rad_b))
        tape_b, _ = record(steps, centered(pt_b, rad_b))
        assert_same_arrays(ct, CompiledTape(tape_b))


@given(program(), points, radii, points, radii, st.booleans())
@settings(max_examples=30, deadline=None)
def test_adjoint_over_replayed_state_bitwise(
    steps, pt_a, rad_a, pt_b, rad_b, rounding
):
    """The reverse sweep on replayed state matches the object sweep on a
    fresh recording — forward + adjoint composes bit-identically."""
    with rounded_mode(rounding):
        tape_a, regs = record(steps, centered(pt_a, rad_a))
        out = regs[-1].node.index
        ct = CompiledTape(tape_a)
        ct.forward(centered(pt_b, rad_b))
        lo, hi = ct.adjoint({out: 1.0})
        tape_b, _ = record(steps, centered(pt_b, rad_b))
        ref = Tape.adjoint(tape_b, {out: 1.0})
        for k, r in enumerate(ref):
            iv = r if isinstance(r, Interval) else Interval(float(r), float(r))
            assert np.float64(lo[k]).tobytes() == np.float64(iv.lo).tobytes()
            assert np.float64(hi[k]).tobytes() == np.float64(iv.hi).tobytes()


def assert_lanes_match_scalar_replays(steps, lane_specs, rounding):
    """Every lane of a batched replay equals the scalar replay (and hence
    a recording) of that lane's inputs — values, partials, adjoints and
    vector adjoints."""
    with rounded_mode(rounding):
        first_pt, first_rad = lane_specs[0]
        tape, regs = record(steps, centered(first_pt, first_rad))
        out = regs[-1].node.index
        outs = sorted({out, regs[len(regs) // 2].node.index})
        ct = CompiledTape(tape)

        ivs = [centered(pt, rad) for pt, rad in lane_specs]
        lo = np.array([[iv.lo for iv in lane] for lane in ivs]).T
        hi = np.array([[iv.hi for iv in lane] for lane in ivs]).T
        lanes = ct.forward_lanes(lo, hi)
        alo, ahi = lanes.adjoint({out: 1.0})
        vlo, vhi = lanes.adjoint_vector(outs)

        for j, lane in enumerate(ivs):
            ct.forward(lane)
            assert lanes.value_lo[:, j].tobytes() == ct.value_lo.tobytes()
            assert lanes.value_hi[:, j].tobytes() == ct.value_hi.tobytes()
            assert lanes.partial_lo[:, j].tobytes() == ct.partial_lo.tobytes()
            assert lanes.partial_hi[:, j].tobytes() == ct.partial_hi.tobytes()
            slo, shi = ct.adjoint({out: 1.0})
            assert alo[:, j].tobytes() == slo.tobytes()
            assert ahi[:, j].tobytes() == shi.tobytes()
            slo, shi = ct.adjoint_vector(outs)
            assert vlo[:, j].tobytes() == slo.tobytes()
            assert vhi[:, j].tobytes() == shi.tobytes()


lane_batches = st.lists(st.tuples(points, radii), min_size=1, max_size=4)


@given(program(), lane_batches, st.booleans())
@settings(max_examples=30, deadline=None)
def test_forward_lanes_per_lane_bitwise(steps, lane_specs, rounding):
    """At the default gate these few lanes round through np.nextafter."""
    assert_lanes_match_scalar_replays(steps, lane_specs, rounding)


@given(program(), lane_batches, st.booleans())
@settings(
    max_examples=30,
    deadline=None,
    # The fixture only sets a module constant; every example sets it alike.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_forward_lanes_integer_path_bitwise(
    monkeypatch, steps, lane_specs, rounding
):
    """The same identities with every array rounding on the integer step."""
    monkeypatch.setattr(rounding_module, "INT_STEP_MIN_SIZE", 0)
    assert_lanes_match_scalar_replays(steps, lane_specs, rounding)


def on_paths_to(ct, out):
    """Boolean mask of the nodes with a path to ``out`` (``out`` included)."""
    live = np.zeros(ct.n, dtype=bool)
    live[out] = True
    for j in range(out, -1, -1):
        if live[j]:
            live[ct.parents_of(j)] = True
    return live


@given(program(), lane_batches, st.sampled_from([None, 0]))
@settings(max_examples=40, deadline=None)
def test_rounded_lane_adjoint_is_live_exactly_on_paths_to_the_output(
    steps, lane_specs, gate
):
    """The premise of the rounded sweep's per-edge activity: under
    outward rounding a node's lane adjoint is nonzero in every lane when
    it has a path to the seeded output, and zero in every lane when not."""
    with pytest.MonkeyPatch.context() as patch:
        if gate is not None:
            patch.setattr(rounding_module, "INT_STEP_MIN_SIZE", gate)
        with rounded_mode(True):
            tape, regs = record(steps, centered(*lane_specs[0]))
            out = regs[len(regs) // 2].node.index
            ct = CompiledTape(tape)
            ivs = [centered(pt, rad) for pt, rad in lane_specs]
            lo = np.array([[iv.lo for iv in lane] for lane in ivs]).T
            hi = np.array([[iv.hi for iv in lane] for lane in ivs]).T
            alo, ahi = ct.forward_lanes(lo, hi).adjoint({out: 1.0})
    zero = (alo == 0.0) & (ahi == 0.0)
    live = on_paths_to(ct, out)
    assert not zero[live].any()
    assert zero[~live].all()


@given(
    st.lists(
        st.tuples(
            st.floats(-1e150, 1e150, allow_nan=False),
            st.floats(-1e150, 1e150, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_replayed_squares_enclose_the_exact_square(pairs):
    """Replayed squares are the object engine's IEEE products: the same
    bits, enclosing the exact square (a Fraction reference), including
    where glibc's pow(x, 2.0) misrounds."""
    from fractions import Fraction

    misrounded = [
        -458.7228991098864,
        78.48650741311735,
        816.6283851054695,
        -476.64932314208033,
    ]
    bounds = [(min(a, b), max(a, b)) for a, b in pairs]
    bounds += [(x, x) for x in misrounded]
    tape = Tape()
    with tape:
        x = ADouble.input(Interval(1.0, 2.0), label="x")
        sqr = x * x
        pow2 = x**2
    ct = CompiledTape(tape)
    lo = np.array([[b[0] for b in bounds]])
    hi = np.array([[b[1] for b in bounds]])
    lanes = ct.forward_lanes(lo, hi)
    for j, (a, b) in enumerate(bounds):
        ref = Interval(a, b) ** 2
        fa, fb = Fraction(a), Fraction(b)
        exact_lo = min(fa * fa, fb * fb) if a >= 0 or b <= 0 else Fraction(0)
        exact_hi = max(fa * fa, fb * fb)
        for node in (sqr, pow2):
            got = lanes.value(node.node.index, j)
            assert got.lo == ref.lo and got.hi == ref.hi
            assert Fraction(got.lo) <= exact_lo
            assert exact_hi <= Fraction(got.hi)


def test_overflowing_square_raises_when_recorded_and_replayed():
    def record_square(square, value):
        tape = Tape()
        with tape:
            x = ADouble.input(value, label="x")
            square(x)
        return tape

    for square in (lambda x: x * x, lambda x: x**2):
        with pytest.raises(OverflowError):
            record_square(square, Interval(1e200, 1e200))
        ct = CompiledTape(record_square(square, Interval(1.0, 2.0)))
        with pytest.raises(OverflowError):
            ct.forward([Interval(1e200, 1e200)])
        with pytest.raises(OverflowError):
            ct.forward_lanes(np.array([[1.0, 1e200]]), np.array([[2.0, 1e200]]))
        # An infinite bound squares to inf without raising, as x ** 2 does.
        lanes = ct.forward_lanes(np.array([[-np.inf]]), np.array([[np.inf]]))
        assert lanes.value(ct.n - 1, 0) == Interval(-np.inf, np.inf) ** 2


def _point_rule_program(x, y, z):
    """Every point-partial edge kind next to the general ones.

    Unrounded, ``p``'s only consumer multiplies it by ``z``, so lanes
    where ``z`` is ``[0, 0]`` give ``p``'s point edges a zero source
    adjoint.  Rounded, an adjoint on a path to the output is never
    exactly zero, but the unused ``0.5 * s`` keeps one in every lane.
    The ``Interval(-0.5, 2.0)`` factor is a constant that is not a point.
    """
    p = x + y  # add: 1, 1
    q = p * z  # mul: per-lane partials
    r = q - x  # sub: 1, -1
    s = -r  # neg: -1
    t = 3.0 * s  # point constant multiplier
    0.5 * s  # recorded, never read: a zero adjoint in every lane
    u = s * Interval(-0.5, 2.0)  # non-point constant: four products
    v = 1.5 + t  # constant add
    w = 2.0 - v  # reflected constant sub: -1
    return w + u * y


POINT_RULE_LANES = [
    # x, y, z bounds per lane: zero z, signed zeros, ties, points.
    ((1.0, 2.0), (0.5, 0.75), (0.0, 0.0)),
    ((-1.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)),
    ((0.25, 0.25), (-0.25, -0.25), (-0.0, 0.0)),
    ((-2.0, 1.0), (-1.0, 3.0), (0.5, 1.5)),
    ((0.0, 0.0), (0.0, 0.0), (-1.0, 1.0)),
    ((-3.0, -1.0), (2.0, 2.0), (-2.0, -0.5)),
]


@pytest.mark.parametrize("rounding", [True, False])
@pytest.mark.parametrize("gate", [None, 0])
def test_point_partial_rule_bitwise(monkeypatch, gate, rounding):
    """Point-constant edges take the two-product rule; a non-point
    constant multiplier keeps the four products.  Lanes with zero source
    adjoints, -0.0 bounds and tied products stay bit-identical to
    recording each lane on the object tape."""
    if gate is not None:
        monkeypatch.setattr(rounding_module, "INT_STEP_MIN_SIZE", gate)
    lanes_iv = [[Interval(*b) for b in lane] for lane in POINT_RULE_LANES]
    with rounded_mode(rounding):

        def record_lane(ivs):
            tape = Tape()
            with tape:
                xs = [ADouble.input(v, label=f"x{i}") for i, v in enumerate(ivs)]
                out = _point_rule_program(*xs)
            return tape, out.node.index

        tape, out = record_lane(lanes_iv[0])
        ct = CompiledTape(tape)
        plan = ct._forward_plan()
        point = set(plan.point_edges.tolist())
        ops = [ct.op_name(int(j)) for j in ct._edge_src]
        # x+y, q-x, -r, 3.0*s, 0.5*s, 1.5+t, 2.0-v and the final add.
        assert sorted(ops[k] for k in point) == sorted(
            ["add"] * 5 + ["sub"] * 3 + ["neg"] + ["mul"] * 2
        )
        # p*z and u*y (two edges each) and s*[-0.5, 2] take four products.
        assert [op for k, op in enumerate(ops) if k not in point] == ["mul"] * 5
        lo = np.array([[iv.lo for iv in lane] for lane in lanes_iv]).T
        hi = np.array([[iv.hi for iv in lane] for lane in lanes_iv]).T
        lanes = ct.forward_lanes(lo, hi)
        alo, ahi = lanes.adjoint({out: 1.0})
        vlo, vhi = lanes.adjoint_vector([out, out - 1])
        zero = (alo == 0.0) & (ahi == 0.0)
        assert zero.all(axis=1).any()
        if not rounding:
            assert (zero.any(axis=1) & ~zero.all(axis=1)).any()
        for j, ivs in enumerate(lanes_iv):
            lane_tape, lane_out = record_lane(ivs)
            ref = Tape.adjoint(lane_tape, {lane_out: 1.0})
            assert alo[:, j].tobytes() == np.array(
                [r.lo for r in ref]
            ).tobytes()
            assert ahi[:, j].tobytes() == np.array(
                [r.hi for r in ref]
            ).tobytes()
            rlo, rhi = Tape.adjoint_vector(lane_tape, [lane_out, lane_out - 1])
            assert vlo[:, j].tobytes() == np.asarray(rlo).tobytes()
            assert vhi[:, j].tobytes() == np.asarray(rhi).tobytes()


ZERO_TIMES_INF_LANES = [
    # x, y bounds per lane: 0·inf products in the forward, the adjoint
    # and Eq. 11, next to ordinary lanes.
    ((0.0, 0.0), (1.0, np.inf)),
    ((-0.0, 0.0), (-np.inf, np.inf)),
    ((0.0, 1.0), (-np.inf, -1.0)),
    ((0.5, 2.0), (1.0, 3.0)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rounding", [True, False])
@pytest.mark.parametrize("gate", [None, 0])
def test_zero_times_infinity_bitwise(monkeypatch, gate, rounding):
    """``0·inf`` products fold as 0 in every engine: replayed values,
    partials, lane adjoints and Eq. 11 match recording each lane."""
    from repro.scorpio.compiled import lane_eq11
    from repro.scorpio.significance import significance_value

    if gate is not None:
        monkeypatch.setattr(rounding_module, "INT_STEP_MIN_SIZE", gate)

    def record_lane(x, y):
        tape = Tape()
        with tape:
            a = ADouble.input(Interval(*x), label="x")
            b = ADouble.input(Interval(*y), label="y")
            out = (a * b) * 2.0 + a
        return tape, out.node.index

    with rounded_mode(rounding):
        tape, out = record_lane(*ZERO_TIMES_INF_LANES[-1])
        ct = CompiledTape(tape)
        lo = np.array([[x[0], y[0]] for x, y in ZERO_TIMES_INF_LANES]).T
        hi = np.array([[x[1], y[1]] for x, y in ZERO_TIMES_INF_LANES]).T
        sig = lane_eq11(ct.forward_lanes(lo, hi), out)
        lanes = ct.forward_lanes(lo, hi)
        alo, ahi = lanes.adjoint({out: 1.0})
        for j, (x, y) in enumerate(ZERO_TIMES_INF_LANES):
            lane_tape, lane_out = record_lane(x, y)
            ref = CompiledTape(lane_tape)
            assert lanes.value_lo[:, j].tobytes() == ref.value_lo.tobytes()
            assert lanes.value_hi[:, j].tobytes() == ref.value_hi.tobytes()
            assert lanes.partial_lo[:, j].tobytes() == ref.partial_lo.tobytes()
            assert lanes.partial_hi[:, j].tobytes() == ref.partial_hi.tobytes()
            adjoints = Tape.adjoint(lane_tape, {lane_out: 1.0})
            assert alo[:, j].tobytes() == np.array(
                [a.lo for a in adjoints]
            ).tobytes()
            assert ahi[:, j].tobytes() == np.array(
                [a.hi for a in adjoints]
            ).tobytes()
            expected = [
                significance_value(node.value, a)
                for node, a in zip(lane_tape.nodes, adjoints)
            ]
            assert sig[:, j].tobytes() == np.array(expected).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rounding", [True, False])
def test_zero_adjoint_on_an_infinite_partial_bitwise(rounding):
    """A node whose adjoint is exactly 0 in one lane has an infinite
    partial there: the unrounded sweep forms ``0·inf`` before it zeroes
    the lane.  Lanes and the one-lane sweep give the object sweep's bits
    without a NumPy warning."""

    def record_lane(x, y, z):
        tape = Tape()
        with tape:
            a = ADouble.input(Interval(*x), label="x")
            b = ADouble.input(Interval(*y), label="y")
            c = ADouble.input(Interval(*z), label="z")
            out = (a * b) * c
        return tape, out.node.index

    lanes_iv = [
        ((0.5, 1.0), (1.0, np.inf), (0.0, 0.0)),
        ((0.5, 1.0), (1.0, 2.0), (1.0, 2.0)),
    ]
    with rounded_mode(rounding):
        tape, out = record_lane(*lanes_iv[-1])
        lo = np.array([[iv[0] for iv in ivs] for ivs in lanes_iv]).T
        hi = np.array([[iv[1] for iv in ivs] for ivs in lanes_iv]).T
        alo, ahi = CompiledTape(tape).forward_lanes(lo, hi).adjoint({out: 1.0})
        for j, ivs in enumerate(lanes_iv):
            lane_tape, lane_out = record_lane(*ivs)
            ref = Tape.adjoint(lane_tape, {lane_out: 1.0})
            ref_lo = np.array([r.lo for r in ref]).tobytes()
            ref_hi = np.array([r.hi for r in ref]).tobytes()
            one_lo, one_hi = CompiledTape(lane_tape).adjoint({lane_out: 1.0})
            assert alo[:, j].tobytes() == one_lo.tobytes() == ref_lo
            assert ahi[:, j].tobytes() == one_hi.tobytes() == ref_hi


def test_lane_sweep_keeps_no_lane_sized_buffer():
    """The lane sweep's contribution arrays live for one call: a sweep
    leaves its two results behind and only per-edge schedule caches."""
    L = 4096
    rng = np.random.default_rng(5)
    lo = rng.uniform(-2.0, 2.0, (3, L))
    hi = lo + rng.uniform(0.0, 0.5, (3, L))
    tape = Tape()
    with tape:
        xs = [ADouble.input(Interval(1.0, 1.5), label=f"x{i}") for i in range(3)]
        out = _point_rule_program(*xs).node.index
    lanes = CompiledTape(tape).forward_lanes(lo, hi)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alo, ahi = lanes.adjoint({out: 1.0})
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept -= alo.nbytes + ahi.nbytes
    assert kept < lanes.ct.n_edges * L * 8 // 8


@given(program(), points, radii, points, radii)
@settings(max_examples=20, deadline=None)
def test_forward_accepts_node_index_mapping(steps, pt_a, rad_a, pt_b, rad_b):
    tape, _ = record(steps, centered(pt_a, rad_a))
    ct = CompiledTape(tape)
    by_index = dict(zip(ct.input_nodes, centered(pt_b, rad_b)))
    ct.forward(by_index)
    ref = CompiledTape(record(steps, centered(pt_b, rad_b))[0])
    assert_same_arrays(ct, ref)


class TestStructureGuard:
    """Unreplayable traces are rejected with a message naming the cause."""

    def test_scalar_tape_rejected(self):
        # A float tape never reaches the replay: CompiledTape refuses it.
        tape = Tape()
        with tape:
            a = ADouble.input(2.0, label="a")
            b = ADouble.input(3.0, label="b")
            _ = a * b + a
        with pytest.raises(ValueError, match="interval tapes only"):
            CompiledTape(tape)

    def test_wrong_input_count(self):
        tape = Tape()
        with tape:
            a = ADouble.input(Interval.centered(2.0, 0.1), label="a")
            b = ADouble.input(Interval.centered(3.0, 0.1), label="b")
            _ = a * b
        ct = CompiledTape(tape)
        with pytest.raises(ValueError, match="2 inputs"):
            ct.forward([Interval(1, 2)])
        with pytest.raises(ValueError, match="2 inputs"):
            ct.forward_lanes(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_replay_error_is_runtime_error(self):
        # Callers catch RuntimeError to fall back to recording.
        assert issubclass(ReplayError, RuntimeError)
        assert issubclass(GuardDivergenceError, RuntimeError)


class TestGuardRecheck:
    """A recorded branch must decide the same way on replay inputs."""

    def _branching_tape(self, a_iv, b_iv):
        tape = Tape()
        with tape:
            a = ADouble.input(a_iv, label="a")
            b = ADouble.input(b_iv, label="b")
            y = a * b if a < b else a + b
        return tape, y

    def test_same_branch_replays(self):
        tape, y = self._branching_tape(
            Interval.centered(1.0, 0.1), Interval.centered(3.0, 0.1)
        )
        ct = CompiledTape(tape)
        fresh = [Interval.centered(0.5, 0.2), Interval.centered(2.0, 0.2)]
        ct.forward(fresh)
        ref, _ = self._branching_tape(*fresh)
        assert_same_arrays(ct, CompiledTape(ref))

    def test_flipped_branch_raises(self):
        tape, _ = self._branching_tape(
            Interval.centered(1.0, 0.1), Interval.centered(3.0, 0.1)
        )
        ct = CompiledTape(tape)
        with pytest.raises(GuardDivergenceError, match="another"):
            ct.forward(
                [Interval.centered(5.0, 0.1), Interval.centered(3.0, 0.1)]
            )

    def test_ambiguous_branch_raises_like_recording(self):
        tape, _ = self._branching_tape(
            Interval.centered(1.0, 0.1), Interval.centered(3.0, 0.1)
        )
        ct = CompiledTape(tape)
        overlapping = [Interval(0.0, 4.0), Interval(2.0, 3.0)]
        with pytest.raises(AmbiguousComparisonError):
            ct.forward(overlapping)
        with pytest.raises(AmbiguousComparisonError):
            self._branching_tape(*overlapping)

    def test_lane_batch_cannot_split_branches(self):
        tape, _ = self._branching_tape(
            Interval.centered(1.0, 0.1), Interval.centered(3.0, 0.1)
        )
        ct = CompiledTape(tape)
        # Lane 0 keeps the recorded branch, lane 1 flips it.
        lo = np.array([[0.9, 4.9], [2.9, 2.9]])
        hi = np.array([[1.1, 5.1], [3.1, 3.1]])
        with pytest.raises(GuardDivergenceError):
            ct.forward_lanes(lo, hi)

    def test_check_guards_opt_out(self):
        tape, _ = self._branching_tape(
            Interval.centered(1.0, 0.1), Interval.centered(3.0, 0.1)
        )
        ct = CompiledTape(tape)
        ct.forward(
            [Interval.centered(5.0, 0.1), Interval.centered(3.0, 0.1)],
            check_guards=False,
        )
