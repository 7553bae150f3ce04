"""Seeded workload inputs and their expected outputs.

Every input is made from the workload seed, and every expected output
comes from the object engine (``Analysis.analyse(compiled=False)``),
the reference the fast paths are pinned to.  Both are computed before
any timing starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.intervals import Interval

# Distinct inputs per kernel in a serve pool.
POOL = 32

# lane_maps sizes: one Sobel scan map over an IMAGE_SIDE^2 image and one
# OPTIONS-option portfolio per job, 32,768 lanes in all; CHECKED lanes of
# each are compared with scalar object-engine analyses after every job.
IMAGE_SIDE = 128
OPTIONS = 16384
CHECKED = 32
PIXEL_UNCERTAINTY = 0.5
SOBEL_DELTA = 1e-6
BLOCKS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Request:
    """One pooled /analyse request and the body it must get back."""

    kernel: str
    body: bytes
    expected: bytes


def _shifted(defaults: list[Interval], rng: np.random.Generator) -> list:
    """The defaults with each centre moved by up to half its radius."""
    ranges = []
    for iv in defaults:
        centre = 0.5 * (iv.lo + iv.hi)
        radius = 0.5 * (iv.hi - iv.lo)
        centre += float(rng.uniform(-0.5, 0.5)) * radius
        ranges.append([centre - radius, centre + radius])
    return ranges


def expected_body(entry, ranges: list) -> bytes:
    """The object engine's report for ``ranges``, as the service encodes it."""
    from repro.scorpio.serialize import report_to_json

    intervals = [Interval(lo, hi) for lo, hi in ranges]
    report = entry.recorder(intervals).analyse(
        simplify=entry.simplify, compiled=False
    )
    return report_to_json(report).encode("utf-8")


def serve_pool(kernels: tuple[str, ...], seed: int) -> list[Request]:
    """Seeded requests for ``kernels`` with their expected bodies."""
    from repro.serve.kernels import default_registry

    registry = default_registry()
    pool: list[Request] = []
    for index, kernel in enumerate(kernels):
        entry = registry[kernel]
        rng = np.random.default_rng([seed, 2, index])
        for _ in range(POOL):
            ranges = _shifted(entry.defaults(), rng)
            body = json.dumps({"kernel": kernel, "inputs": ranges})
            pool.append(
                Request(kernel, body.encode("utf-8"), expected_body(entry, ranges))
            )
    return pool


def lane_inputs(seed: int):
    """The lane_maps image and portfolio for ``seed``."""
    from repro.images import natural_image
    from repro.kernels.blackscholes import make_portfolio

    return (
        natural_image(IMAGE_SIDE, IMAGE_SIDE, seed=seed),
        make_portfolio(count=OPTIONS, seed=seed),
    )


def option_order(seed: int) -> np.ndarray:
    """Portfolio index of each ``per_option`` entry.

    ``analyse_blackscholes(samples=count, seed=seed)`` reports options in
    the order of its seeded draw without replacement; this is that draw.
    """
    rng = np.random.default_rng(seed)
    return rng.choice(OPTIONS, size=OPTIONS, replace=False)


def lane_checks(seed: int) -> dict:
    """Seeded sample of pixels and options with scalar object-engine values.

    Pixels: ``[y, x, A, B, C, found level]`` of the edge-padded 3x3
    window analysis; options: ``[j, A, B, C, D]`` for ``per_option[j]``.
    """
    from repro.kernels.blackscholes import analyse_option
    from repro.kernels.sobel.analysis import _record_sobel_pixel

    image, portfolio = lane_inputs(seed)
    padded = np.pad(image, 1, mode="edge")
    rng = np.random.default_rng([seed, 3])
    pixels = []
    for y, x in rng.integers(0, IMAGE_SIDE, size=(CHECKED, 2)).tolist():
        window = padded[y : y + 3, x : x + 3].ravel()
        intervals = [
            Interval.centered(float(v), PIXEL_UNCERTAINTY) for v in window
        ]
        report = _record_sobel_pixel(intervals, SOBEL_DELTA).analyse(
            compiled=False
        )
        sig = report.labelled_significances()
        level = report.scan.found_level
        pixels.append(
            [
                y,
                x,
                sig["a_x"] + sig["a_y"],
                sig["b_x"] + sig["b_y"],
                sig["c_x"] + sig["c_y"],
                -1 if level is None else int(level),
            ]
        )
    order = option_order(seed)
    options = []
    for j in rng.choice(OPTIONS, size=CHECKED, replace=False).tolist():
        i = int(order[j])
        blocks = analyse_option(
            float(portfolio.spots[i]),
            float(portfolio.strikes[i]),
            float(portfolio.rates[i]),
            float(portfolio.volatilities[i]),
            float(portfolio.expiries[i]),
            compiled=False,
        )
        options.append([j] + [blocks[name] for name in BLOCKS])
    return {"pixels": pixels, "options": options}
