"""Significance analysis of the fisheye kernels (Figures 5 and 6).

**InverseMapping (Figure 5).**  For each sampled output pixel, the true
source coordinates are computed with InverseMapping, then registered as
*inputs with a fixed ±half-pixel imprecision interval* — the kind of
coordinate error the approximate (interpolated-coordinates) task version
introduces — and propagated through BicubicInterp on the actual input
image.  The resulting significance of the coordinates grows toward the
image border: the fisheye input compresses the scene periphery, so a
fixed-size coordinate error there sweeps across more content ("computing
coordinates for pixels near the border is more sensitive to imprecision",
Section 4.1.3).

**BicubicInterp (Figure 6).**  Register the 16 window pixels as inputs
(± half gray level), analyse the interpolated value over a grid of
fractional positions, and aggregate per symmetric pixel pair; the inner
2x2 pairs (c, e) come out the most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.intervals import Interval
from repro.kernels.common import replay_lane_significances
from repro.scorpio import Analysis, CachedTrace

from .bicubic import PIXEL_PAIRS, bicubic_interp
from .geometry import LensConfig, inverse_map_point

__all__ = [
    "InverseMappingAnalysis",
    "analyse_inverse_mapping",
    "coordinate_significance_map",
    "BicubicAnalysis",
    "analyse_bicubic",
]


@dataclass
class InverseMappingAnalysis:
    """Figure 5 data: coordinate significance per sampled output pixel."""

    significance: np.ndarray  # (grid_h, grid_w), max-normalised
    xs: np.ndarray  # output-pixel x of each grid sample
    ys: np.ndarray  # output-pixel y of each grid sample

    def radial_profile(self, config: LensConfig, bins: int = 8) -> list[float]:
        """Mean significance per normalised-radius bin (should increase)."""
        cx, cy = config.out_center
        r_max = math.hypot(cx, cy)
        radii = np.hypot(self.xs - cx, self.ys - cy) / r_max
        profile = []
        for b in range(bins):
            mask = (radii >= b / bins) & (radii < (b + 1) / bins)
            profile.append(
                float(self.significance[mask].mean()) if mask.any() else math.nan
            )
        return profile


def _pixel_significance(
    config: LensConfig,
    input_image: np.ndarray,
    x: float,
    y: float,
    coord_uncertainty: float = 0.5,
) -> float:
    """Coordinate-imprecision significance of one output pixel."""
    # The recorded trace fixes the coordinates (and hence the window
    # selection — control flow) at their true profile values.
    mx, my = inverse_map_point(config, x, y)
    ix = int(math.floor(mx))
    iy = int(math.floor(my))
    h, w = input_image.shape
    window = [
        [
            float(
                input_image[
                    min(max(iy + r - 1, 0), h - 1),
                    min(max(ix + c - 1, 0), w - 1),
                ]
            )
            for c in range(4)
        ]
        for r in range(4)
    ]
    # Centred form: interpolate deviations from the window mean.  The
    # cubic weights sum to 1, so mathematically this changes nothing; in
    # interval arithmetic it is essential — without centring, the weight
    # enclosures multiply the absolute pixel level (~128) instead of the
    # local variation, and the content-gradient signal that Figure 5
    # measures drowns in enclosure slack.
    mean = sum(sum(row) for row in window) / 16.0
    window = [[p - mean for p in row] for row in window]

    # Register the *fractional* sub-pixel coordinates rather than the
    # absolute ones: Eq. 11's interval product is a worst case whose width
    # scales with the variable's absolute magnitude (the paper's own
    # overestimation caveat, Section 2.1).  Absolute pixel coordinates
    # (~hundreds) would drown the derivative signal in that artefact;
    # the fractional coordinate carries exactly the same imprecision.
    an = Analysis()
    with an:
        tx = an.input(mx - ix, width=2.0 * coord_uncertainty, name="x_frac")
        ty = an.input(my - iy, width=2.0 * coord_uncertainty, name="y_frac")
        value = bicubic_interp(window, tx, ty)
        an.output(value, name="pixel")
    report = an.analyse(simplify=False)
    sigs = report.input_significances()
    return sigs["x_frac"] + sigs["y_frac"]


def _gather_windows(
    config: LensConfig,
    input_image: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profile pass of :func:`coordinate_significance_map`: for every
    output pixel, the fractional source coordinates and the (centred) 4x4
    window.

    Returns ``(fx, fy, windows)`` with shapes ``(n,)``, ``(n,)`` and
    ``(n, 4, 4)``.
    """
    input_image = np.asarray(input_image, dtype=np.float64)
    h, w = input_image.shape
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    n = xs.size
    fx = np.empty(n)
    fy = np.empty(n)
    windows = np.empty((n, 4, 4))
    for k in range(n):
        mx, my = inverse_map_point(config, float(xs[k]), float(ys[k]))
        ix = int(math.floor(mx))
        iy = int(math.floor(my))
        win = np.array(
            [
                [
                    input_image[
                        min(max(iy + r - 1, 0), h - 1),
                        min(max(ix + c - 1, 0), w - 1),
                    ]
                    for c in range(4)
                ]
                for r in range(4)
            ]
        )
        windows[k] = win - win.mean()
        fx[k] = mx - ix
        fy[k] = my - iy
    return fx, fy, windows


def _record_coordinate_pixel(
    window: np.ndarray, fx: float, fy: float, coord_uncertainty: float
) -> Analysis:
    """Record one bicubic resample with the window pixels *as inputs*.

    The 16 (centred) window values enter as degenerate-interval inputs
    instead of folded constants, which is what makes the recorded trace
    replayable across output pixels: every pixel's window and fractional
    coordinates become one lane of the same 18-input tape.
    """
    an = Analysis()
    with an:
        taped = [
            [
                an.input(
                    Interval(float(window[r, c]), float(window[r, c])),
                    name=f"w_{r}_{c}",
                )
                for c in range(4)
            ]
            for r in range(4)
        ]
        tx = an.input(fx, width=2.0 * coord_uncertainty, name="x_frac")
        ty = an.input(fy, width=2.0 * coord_uncertainty, name="y_frac")
        value = bicubic_interp(taped, tx, ty)
        an.output(value, name="pixel")
    return an


def coordinate_significance_map(
    config: LensConfig,
    input_image: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    coord_uncertainty: float = 0.5,
    *,
    executor=None,
    workers: int | None = None,
    chunk_lanes: int | None = None,
) -> np.ndarray:
    """Batched coordinate-imprecision significance for many output pixels.

    Records the 18-input per-pixel trace once (on the first sampled
    pixel) and replays every ``(xs[k], ys[k])`` output pixel as one lane
    of a single forward + adjoint sweep over that frozen tape; Eq. 11
    runs on the two coordinate rows only.  With
    ``executor="process"`` the lane sweep is chunked across ``workers``
    processes against a shared-memory copy of the tape
    (:func:`repro.mp.parallel_lane_significances`) — bitwise identical
    to the sequential replay.  ``bicubic_interp`` has no taped
    comparison, so every lane replays the recorded trace.
    """
    fx, fy, windows = _gather_windows(config, input_image, xs, ys)
    n = fx.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    trace = CachedTrace(
        _record_coordinate_pixel(
            windows[0], float(fx[0]), float(fy[0]), coord_uncertainty
        ),
        simplify=False,
    )
    # Lane bounds in tape input order: w_0_0 .. w_3_3, x_frac, y_frac.
    flat = windows.reshape(n, 16).T
    lanes_lo = np.concatenate(
        [flat, [fx - coord_uncertainty], [fy - coord_uncertainty]]
    )
    lanes_hi = np.concatenate(
        [flat, [fx + coord_uncertainty], [fy + coord_uncertainty]]
    )
    x_frac, y_frac = replay_lane_significances(
        trace,
        lanes_lo,
        lanes_hi,
        rows=[trace.label_index("x_frac"), trace.label_index("y_frac")],
        executor=executor,
        workers=workers,
        chunk_lanes=chunk_lanes,
    )
    return x_frac + y_frac


def analyse_inverse_mapping(
    input_image: np.ndarray,
    config: LensConfig,
    grid: tuple[int, int] = (12, 16),
    jitter_samples: int = 4,
    seed: int = 17,
    executor=None,
    workers: int | None = None,
) -> InverseMappingAnalysis:
    """Figure 5: coordinate significance over a grid of output pixels.

    Each grid cell's significance is the mean over ``jitter_samples``
    randomly jittered pixels inside the cell, averaging out the phase of
    the scene content so the radial envelope of the lens shows through.

    With ``executor="process"`` all ``grid_h * grid_w * jitter_samples``
    pixels are lanes of one *replayed* trace
    (:func:`coordinate_significance_map`) fanned out across ``workers``
    processes instead of one scalar tape each.
    """
    input_image = np.asarray(input_image, dtype=np.float64)
    gh, gw = grid
    margin = 2.0
    xs = np.linspace(margin, config.out_width - 1 - margin, gw)
    ys = np.linspace(margin, config.out_height - 1 - margin, gh)
    cell_w = (config.out_width - 2 * margin) / gw
    cell_h = (config.out_height - 2 * margin) / gh
    rng = np.random.default_rng(seed)
    xs_grid, ys_grid = np.meshgrid(xs, ys)
    # Jittered sample positions, drawn in the same rng order regardless of
    # engine so scalar and batched runs analyse identical pixels.
    px_all = np.empty((gh, gw, jitter_samples))
    py_all = np.empty((gh, gw, jitter_samples))
    for j in range(gh):
        for i in range(gw):
            for s in range(jitter_samples):
                px_all[j, i, s] = np.clip(
                    xs_grid[j, i] + rng.uniform(-cell_w / 2, cell_w / 2),
                    margin,
                    config.out_width - 1 - margin,
                )
                py_all[j, i, s] = np.clip(
                    ys_grid[j, i] + rng.uniform(-cell_h / 2, cell_h / 2),
                    margin,
                    config.out_height - 1 - margin,
                )
    use_process = False
    if executor is not None:
        from repro.mp import process_requested

        use_process = process_requested(executor)
    if use_process:
        lane_sig = coordinate_significance_map(
            config,
            input_image,
            px_all.ravel(),
            py_all.ravel(),
            executor=executor,
            workers=workers,
        )
        sig = lane_sig.reshape(gh, gw, jitter_samples).mean(axis=2)
    else:
        sig = np.zeros((gh, gw), dtype=np.float64)
        for j in range(gh):
            for i in range(gw):
                total = 0.0
                for s in range(jitter_samples):
                    total += _pixel_significance(
                        config,
                        input_image,
                        float(px_all[j, i, s]),
                        float(py_all[j, i, s]),
                    )
                sig[j, i] = total / jitter_samples
    peak = sig.max()
    if peak > 0:
        sig = sig / peak
    return InverseMappingAnalysis(significance=sig, xs=xs_grid, ys=ys_grid)


@dataclass
class BicubicAnalysis:
    """Figure 6 data: per-pair significances."""

    pair_significance: dict[str, float]  # max-normalised, keyed a..h
    pixel_significance: np.ndarray  # (4, 4), max-normalised

    def ranking(self) -> list[str]:
        """Pair letters, most significant first."""
        return sorted(
            self.pair_significance,
            key=lambda k: self.pair_significance[k],
            reverse=True,
        )


def analyse_bicubic(
    window: np.ndarray | None = None,
    positions: int = 5,
    pixel_uncertainty: float = 0.5,
) -> BicubicAnalysis:
    """Figure 6: significance of the 16 window pixels for the output.

    Aggregates over a ``positions x positions`` grid of fractional
    (tx, ty) interpolation positions inside the centre cell, mirroring
    the paper's discretised input-coordinate space.
    """
    if window is None:
        window = np.full((4, 4), 128.0)
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (4, 4):
        raise ValueError(f"expected 4x4 window, got {window.shape}")

    pixel_sig = np.zeros((4, 4), dtype=np.float64)
    offsets = np.linspace(0.1, 0.9, positions)
    for ty in offsets:
        for tx in offsets:
            an = Analysis()
            with an:
                pixels = [
                    [
                        an.input(
                            float(window[r, c]),
                            width=2.0 * pixel_uncertainty,
                            name=f"p_{r}_{c}",
                        )
                        for c in range(4)
                    ]
                    for r in range(4)
                ]
                value = bicubic_interp(pixels, float(tx), float(ty))
                an.output(value, name="pixel")
            sigs = an.analyse(simplify=False).labelled_significances()
            for r in range(4):
                for c in range(4):
                    pixel_sig[r, c] += sigs[f"p_{r}_{c}"]

    pairs = {
        letter: float(pixel_sig[p1] + pixel_sig[p2])
        for letter, (p1, p2) in PIXEL_PAIRS.items()
    }
    peak = max(pairs.values())
    if peak > 0:
        pairs = {k: v / peak for k, v in pairs.items()}
    pk = pixel_sig.max()
    if pk > 0:
        pixel_sig = pixel_sig / pk
    return BicubicAnalysis(pair_significance=pairs, pixel_significance=pixel_sig)
