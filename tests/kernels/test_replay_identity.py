"""Replay byte-identity on the five paper kernels.

The trace cache's bit-identity contract, checked end to end on real
kernel traces: for DCT, Sobel, BlackScholes, fisheye BicubicInterp and
N-Body, a report served by replaying a cached trace on fresh inputs must
serialize byte-for-byte equal to recording the kernel on those inputs.
``validate=True`` makes the cache additionally re-record one replayed
sample per trace and compare op-sequence hash and values bitwise, so the
straight-line assumption itself is asserted for every kernel here.
"""

import json

import numpy as np
import pytest

from repro.intervals import Interval
from repro.scorpio import Analysis, TraceCache
from repro.scorpio.serialize import report_to_dict, report_to_json


def _assert_replay_identity(recorder, inputs_list, simplify=False):
    """Record on the first input set, replay the rest, compare the
    replayed report's JSON with the reference encoding of a recording."""
    cache = TraceCache(validate=True)
    for ivs in inputs_list:
        rep = cache.analyse(("k",), recorder, ivs, simplify=simplify)
        ref = recorder(ivs).analyse(simplify=simplify, compiled=True)
        assert report_to_json(rep) == json.dumps(
            report_to_dict(ref), indent=2
        )
    stats = cache.stats()
    assert stats["records"] == 1 and stats["divergences"] == 0
    assert stats["replays"] == len(inputs_list) - 1


def test_dct_block():
    from repro.kernels.dct.analysis import _record_dct_block

    rng = np.random.default_rng(21)
    _assert_replay_identity(
        _record_dct_block,
        [
            [
                Interval.centered(float(v), 0.5)
                for v in rng.uniform(0.0, 255.0, 64)
            ]
            for _ in range(3)
        ],
    )


def test_sobel_pixel():
    from repro.kernels.sobel.analysis import _record_sobel_pixel

    rng = np.random.default_rng(22)
    _assert_replay_identity(
        _record_sobel_pixel,
        [
            [
                Interval.centered(float(v), 0.5)
                for v in rng.uniform(0.0, 255.0, 9)
            ]
            for _ in range(3)
        ],
    )


def test_blackscholes_option():
    from repro.kernels.blackscholes.analysis import _record_option

    rng = np.random.default_rng(23)

    def option():
        s = rng.uniform(20.0, 120.0)
        k = s * rng.uniform(0.8, 1.2)
        params = (s, k, rng.uniform(0.01, 0.06), rng.uniform(0.1, 0.5),
                  rng.uniform(0.25, 2.0))
        return [Interval.centered(p, 0.02 * p) for p in params]

    _assert_replay_identity(_record_option, [option() for _ in range(3)])


def test_fisheye_bicubic_window():
    from repro.kernels.fisheye.bicubic import bicubic_interp

    rng = np.random.default_rng(24)
    window = rng.uniform(0.0, 255.0, (4, 4))
    window = (window - window.mean()).tolist()

    def record_window(ivs):
        an = Analysis()
        with an:
            tx = an.input(ivs[0], name="x_frac")
            ty = an.input(ivs[1], name="y_frac")
            an.output(bicubic_interp(window, tx, ty), name="pixel")
        return an

    _assert_replay_identity(
        record_window,
        [
            [
                Interval.centered(float(f), 0.5)
                for f in rng.uniform(0.0, 1.0, 2)
            ]
            for _ in range(3)
        ],
    )


def test_nbody_force():
    from repro.kernels.nbody.simulation import lj_pair_force

    def record_force(ivs):
        an = Analysis()
        with an:
            coords = [
                an.input(iv, name=f"c{i}") for i, iv in enumerate(ivs)
            ]
            fx = fy = fz = None
            for a in range(len(coords) // 3):
                sx, sy, sz = coords[3 * a : 3 * a + 3]
                dfx, dfy, dfz = lj_pair_force(0.0 - sx, 0.0 - sy, 0.0 - sz)
                fx = dfx if fx is None else fx + dfx
                fy = dfy if fy is None else fy + dfy
                fz = dfz if fz is None else fz + dfz
            an.output(fx, name="fx")
            an.output(fy, name="fy")
            an.output(fz, name="fz")
        return an

    rng = np.random.default_rng(25)

    def atoms():
        # Two source atoms well away from the origin so the interval
        # distances stay clear of the LJ singularity.
        pos = rng.uniform(1.2, 2.5, 6) * np.sign(rng.uniform(-1, 1, 6))
        return [Interval.centered(float(p), 0.02) for p in pos]

    _assert_replay_identity(record_force, [atoms() for _ in range(3)])
