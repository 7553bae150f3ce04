"""Significance analysis of the Sobel filter (Section 4.1.1).

For sampled pixels of a representative image, register the 3x3 input
window with ±half-gray-level intervals (quantisation uncertainty), tag
the six block contributions (A/B/C per direction) as intermediates, and
analyse against the output pixel.

The paper's finding, which this module reproduces: block **A** (the ±2
coefficients) is twice as significant as blocks **B** and **C**, at every
sampled pixel, while the combine stage shows little variance across
pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.intervals import Interval
from repro.kernels.common import replay_lane_significances
from repro.scorpio import Analysis, CachedTrace, TraceCache, replay_enabled

from .sequential import combine_parts_pixel, sobel_parts_pixel

__all__ = [
    "SobelAnalysis",
    "analyse_sobel_pixel",
    "analyse_sobel_map",
    "analyse_sobel_scan_map",
    "analyse_sobel",
]


@dataclass
class SobelAnalysis:
    """Aggregated block significances over the sampled pixels."""

    block_significance: dict[str, float]  # mean over samples, per block
    per_pixel: list[dict[str, float]]  # raw per-sample block significances
    samples: int

    @property
    def a_to_b_ratio(self) -> float:
        """S(A) / S(B) — the paper reports 2.0."""
        return self.block_significance["A"] / self.block_significance["B"]

    @property
    def a_to_c_ratio(self) -> float:
        """S(A) / S(C)."""
        return self.block_significance["A"] / self.block_significance["C"]


def _record_sobel_pixel(ivs, delta: float = 1e-6) -> Analysis:
    """Record one Sobel pixel over nine window intervals (row-major)."""
    an = Analysis(delta=delta)
    with an:
        it = iter(ivs)
        taped = [
            [an.input(next(it), name=f"p{dy}{dx}") for dx in range(3)]
            for dy in range(3)
        ]
        parts = sobel_parts_pixel(taped)
        for key, value in parts.items():
            an.intermediate(value, key)
        out = combine_parts_pixel(parts, smooth=True)
        an.output(out, name="pixel")
    return an


def analyse_sobel_pixel(
    window: np.ndarray,
    pixel_uncertainty: float = 0.5,
    delta: float = 1e-6,
    compiled: bool = False,
    cache: TraceCache | None = None,
) -> dict[str, float]:
    """Block significances for one 3x3 window.

    Returns ``{"A": ..., "B": ..., "C": ...}`` where each block's
    significance is the sum over its two direction contributions.  With a
    ``cache``, replays the shared pixel trace on this window's intervals —
    bit-identical to recording it.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (3, 3):
        raise ValueError(f"expected 3x3 window, got {window.shape}")

    ivs = [
        Interval.centered(float(window[dy][dx]), pixel_uncertainty)
        for dy in range(3)
        for dx in range(3)
    ]
    if cache is not None:
        report = cache.analyse(
            ("sobel_pixel", delta),
            lambda ivs: _record_sobel_pixel(ivs, delta),
            ivs,
        )
    else:
        report = _record_sobel_pixel(ivs, delta).analyse(compiled=compiled)
    sigs = report.labelled_significances()
    return {
        "A": sigs["a_x"] + sigs["a_y"],
        "B": sigs["b_x"] + sigs["b_y"],
        "C": sigs["c_x"] + sigs["c_y"],
    }


def _sobel_lane_bounds(
    image: np.ndarray, pixel_uncertainty: float, delta: float = 1e-6
):
    """Record the scalar pixel trace once; build every pixel's lane bounds.

    Returns ``(trace, lanes_lo, lanes_hi)`` — a :class:`CachedTrace` of
    the 3x3 Sobel pixel and the ``(9, H*W)`` input bounds of all
    edge-padded windows, lanes ordered row-major so a ``(start, stop)``
    lane chunk aligned to the image width is a whole band of rows.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or min(image.shape) < 3:
        raise ValueError("image too small for a 3x3 filter")
    padded = np.pad(image, 1, mode="edge")
    h, w = image.shape
    win0 = padded[0:3, 0:3]
    ivs = [
        Interval.centered(float(win0[dy, dx]), pixel_uncertainty)
        for dy in range(3)
        for dx in range(3)
    ]
    trace = CachedTrace(_record_sobel_pixel(ivs, delta), simplify=True)
    lanes_lo = np.empty((9, h * w), dtype=np.float64)
    lanes_hi = np.empty((9, h * w), dtype=np.float64)
    row = 0
    for dy in range(3):
        for dx in range(3):
            centre = padded[dy : dy + h, dx : dx + w].reshape(-1)
            lanes_lo[row] = centre - pixel_uncertainty
            lanes_hi[row] = centre + pixel_uncertainty
            row += 1
    return trace, lanes_lo, lanes_hi


# The labelled rows the block maps read: A, B, C per direction.
_BLOCK_ROWS = ("a_x", "a_y", "b_x", "b_y", "c_x", "c_y")


def _block_maps(
    sig: np.ndarray, shape: tuple[int, int]
) -> dict[str, np.ndarray]:
    """A/B/C maps from a matrix whose first six rows are ``_BLOCK_ROWS``."""
    block = sig[: len(_BLOCK_ROWS)].reshape(3, 2, *shape)
    return {key: block[k, 0] + block[k, 1] for k, key in enumerate("ABC")}


def analyse_sobel_map(
    image: np.ndarray,
    pixel_uncertainty: float = 0.5,
    executor=None,
    workers: int | None = None,
) -> dict[str, np.ndarray]:
    """Per-pixel block significance maps over the *whole* image.

    Records the scalar-pixel trace once and replays every pixel of
    ``image`` as one lane of a single forward + reverse sweep, so the
    full H×W significance map of each block costs one recording — the
    maps are bit-identical to running :func:`analyse_sobel_pixel` at
    every pixel.  Eq. 11 runs only on the six block rows.
    ``executor="process"`` splits the replay into whole-row lane chunks
    across ``workers`` processes (:mod:`repro.mp`) — same maps, bit for
    bit.  Returns ``{"A": map, "B": map, "C": map}`` with each map shaped
    like ``image``.
    """
    image = np.asarray(image, dtype=np.float64)
    trace, lanes_lo, lanes_hi = _sobel_lane_bounds(image, pixel_uncertainty)
    sig = replay_lane_significances(
        trace,
        lanes_lo,
        lanes_hi,
        rows=[trace.label_index(label) for label in _BLOCK_ROWS],
        executor=executor,
        workers=workers,
        align=image.shape[1],
    )
    return _block_maps(sig, image.shape)


def analyse_sobel_scan_map(
    image: np.ndarray,
    pixel_uncertainty: float = 0.5,
    delta: float = 1e-6,
    executor=None,
    workers: int | None = None,
) -> dict[str, "np.ndarray | Any"]:
    """Full per-pixel analysis of the whole image in one batched pass.

    Combines the block significance maps of :func:`analyse_sobel_map`
    with a lane-parallel Algorithm 1 variance scan
    (:meth:`CachedTrace.lane_scan_map`): for every pixel, the first
    DynDFG level whose significance variance exceeds ``delta``.  Maps and
    scan are bit-identical to one full :func:`analyse_sobel_pixel` run
    per pixel.  Eq. 11 runs on the block rows plus the rows the scan
    reads (:attr:`CachedTrace.scan_rows`).  ``executor="process"``
    computes those rows in whole-row chunks across ``workers`` processes
    with identical bits (the scan itself stays in the parent — it is one
    cheap pass over the matrix).

    Returns ``{"A": map, "B": map, "C": map, "scan": LaneScanMap}``.
    """
    image = np.asarray(image, dtype=np.float64)
    trace, lanes_lo, lanes_hi = _sobel_lane_bounds(
        image, pixel_uncertainty, delta
    )
    rows = [trace.label_index(label) for label in _BLOCK_ROWS]
    rows += [r for r in trace.scan_rows if r not in rows]
    sig = replay_lane_significances(
        trace,
        lanes_lo,
        lanes_hi,
        rows=rows,
        executor=executor,
        workers=workers,
        align=image.shape[1],
    )
    result: dict[str, Any] = _block_maps(sig, image.shape)
    result["scan"] = trace.lane_scan_map(
        sig, image.shape, delta=delta, rows=rows
    )
    return result


def analyse_sobel(
    image: np.ndarray,
    samples: int = 16,
    pixel_uncertainty: float = 0.5,
    seed: int = 3,
    compiled: bool = False,
    replay: bool | None = None,
) -> SobelAnalysis:
    """Profile-driven analysis over sampled interior pixels of ``image``.

    ``replay`` (default: the module replay setting) records the pixel
    trace on the first sampled window and replays it on the rest.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if h < 3 or w < 3:
        raise ValueError("image too small for a 3x3 filter")
    rng = np.random.default_rng(seed)
    positions = []
    for _ in range(samples):
        y = int(rng.integers(1, h - 1))
        x = int(rng.integers(1, w - 1))
        positions.append((y, x))
    cache = TraceCache() if replay_enabled(replay) else None
    per_pixel = [
        analyse_sobel_pixel(
            image[y - 1 : y + 2, x - 1 : x + 2],
            pixel_uncertainty=pixel_uncertainty,
            compiled=compiled,
            cache=cache,
        )
        for y, x in positions
    ]
    mean = {
        key: float(np.mean([p[key] for p in per_pixel]))
        for key in ("A", "B", "C")
    }
    return SobelAnalysis(
        block_significance=mean, per_pixel=per_pixel, samples=samples
    )
