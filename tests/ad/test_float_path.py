"""The float path and the array path fail alike, and spans name the path.

A small replay runs on Python floats (``repro.ad.floats``), a large one
on arrays; :data:`repro.ad.compiled.FLOAT_MAX_WORK` picks per step.  The
bitwise harnesses in ``test_forward_replay`` check both paths against
recording on inputs that succeed.  Here both paths get inputs that fail:
each must raise the same exception type with the same message, so a
served error body does not depend on the path.  The replay and sweep
spans carry a ``path`` attribute naming the path taken.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ad import ADouble, CompiledTape, Tape
from repro.ad import intrinsics as op
from repro.intervals import Interval
from repro.intervals.rounding import rounded_mode
from repro.obs import trace
from repro.scorpio import CachedTrace, TraceCache
from repro.serve import default_registry

from test_compiled_tape import float_gate

COLUMNS = ("value_lo", "value_hi", "partial_lo", "partial_hi")


def failing_program(x, y, z):
    """Ops that fail on some inputs, several in one replay step: two
    square roots, two divisions and two squares share their levels."""
    terms = [
        op.sqrt(x),  # ValueError below zero, ZeroDivisionError at zero
        op.sqrt(y),
        op.log(y),  # ValueError at zero or below
        x / y,  # ZeroDivisionError, or an overflowing square of y
        z / x,
        z * z,  # OverflowError past 1.34e154
        y * y,
        op.exp(z),  # OverflowError past 709.78
        2.0 / z,  # reflected constant division
    ]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def failing_tape():
    tape = Tape()
    with tape:
        xs = [
            ADouble.input(Interval(1.0, 2.0), label=name) for name in "xyz"
        ]
        failing_program(*xs)
    return CompiledTape(tape)


def outcome(replay, gate):
    """What ``replay`` does at float gate ``gate``: the exception's type
    and message, or the replayed arrays' bytes."""
    with float_gate(gate):
        try:
            lanes = replay()
        except Exception as exc:  # the comparison is the point
            return type(exc), str(exc)
    return tuple(getattr(lanes, col).tobytes() for col in COLUMNS)


# Bounds around every failure: negative, signed zeros, an underflowing
# square, ordinary values, an overflowing square and exp's range end.
BOUNDS = [-1.0, -0.0, 0.0, 1e-200, 0.5, 2.0, 1e200, 709.0, 800.0]
intervals = st.tuples(st.sampled_from(BOUNDS), st.sampled_from(BOUNDS)).map(
    lambda pair: Interval(min(pair), max(pair))
)
lane_inputs = st.lists(intervals, min_size=3, max_size=3)


@given(st.lists(lane_inputs, min_size=1, max_size=3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_both_paths_fail_alike(lanes_iv, rounding):
    """One lane through ``forward`` and a few through ``forward_lanes``:
    the float path raises exactly what the array path raises, or both
    replay the same bytes."""
    ct = failing_tape()
    lo = np.array([[iv.lo for iv in ivs] for ivs in lanes_iv]).T
    hi = np.array([[iv.hi for iv in ivs] for ivs in lanes_iv]).T
    with rounded_mode(rounding):
        for replay in (
            lambda: ct.forward(lanes_iv[0]),
            lambda: ct.forward_lanes(lo, hi),
        ):
            assert outcome(replay, None) == outcome(replay, 0)


@pytest.mark.parametrize(
    "x, y, z, error",
    [
        # sqrt / log of a range reaching zero or below
        ((-1.0, 1.0), (1.0, 2.0), (1.0, 2.0), ValueError),
        ((0.0, 1.0), (1.0, 2.0), (1.0, 2.0), ZeroDivisionError),
        ((1.0, 2.0), (0.0, 1.0), (1.0, 2.0), ZeroDivisionError),
        # division by a range containing zero
        ((1.0, 2.0), (1.0, 2.0), (-1.0, 1.0), ZeroDivisionError),
        # a square that overflows, then exp overflow
        ((1.0, 2.0), (1.0, 2.0), (1e200, 1e200), OverflowError),
        ((1.0, 2.0), (1.0, 2.0), (1.0, 800.0), OverflowError),
    ],
)
@pytest.mark.parametrize("rounding", [True, False])
def test_named_failures(x, y, z, error, rounding):
    ct = failing_tape()
    ivs = [Interval(*x), Interval(*y), Interval(*z)]
    with rounded_mode(rounding):
        got = outcome(lambda: ct.forward(ivs), None)
        assert got == outcome(lambda: ct.forward(ivs), 0)
    assert got[0] is error, got


@pytest.fixture
def tracing():
    previous = trace.set_enabled(True)
    trace.clear()
    yield
    trace.set_enabled(previous)
    trace.clear()


def path_attrs(name):
    """The ``path`` attribute of every span called ``name``."""
    return [
        s.attrs.get("path")
        for root in trace.spans()
        for s in root.walk()
        if s.name == name
    ]


def warm_analyse(kernel):
    entry = default_registry()[kernel]
    cache = TraceCache()
    for _ in range(2):
        cache.analyse_outcome(
            entry.cache_key,
            entry.recorder,
            entry.default_inputs(),
            simplify=entry.simplify,
        )
    return entry


def test_spans_name_the_path(tracing):
    """A warm sobel analysis replays and sweeps on floats; a
    ``lane_maps``-sized lane batch and a dct analysis run on arrays."""
    entry = warm_analyse("sobel")
    assert path_attrs("ad.forward") == ["float"]
    assert path_attrs("ad.sweep") == ["float"] * 2

    trace.clear()
    sobel = CachedTrace(
        entry.recorder(entry.default_inputs()), simplify=entry.simplify
    )
    ivs = entry.default_inputs()
    L = 16384
    lo = np.repeat(np.array([[iv.lo] for iv in ivs]), L, axis=1)
    hi = np.repeat(np.array([[iv.hi] for iv in ivs]), L, axis=1)
    sobel.lane_significances(sobel.forward_lanes(lo, hi))
    assert path_attrs("ad.forward_lanes") == ["array"]
    assert path_attrs("ad.sweep") == ["array"]

    trace.clear()
    warm_analyse("dct")
    assert path_attrs("ad.forward") == ["array"]
    assert set(path_attrs("ad.sweep")) == {"array"}
