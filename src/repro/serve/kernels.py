"""Kernel registry: stable kernel ids -> analysis entrypoints.

The service core is the record-once/replay-many pipeline; this module
gives it a *name space*.  Each :class:`KernelEntry` binds a stable id
(``dct``, ``sobel``, ``blackscholes``, ``fisheye``, ``nbody``) to

* a **recorder** — the same record function the in-process analysis
  loops use, taking one :class:`~repro.intervals.Interval` per registered
  input in order (exactly the contract
  :meth:`repro.scorpio.TraceCache.analyse` requires);
* its **input schema** — ordered input names, so requests can be
  validated before any tape is touched;
* deterministic **default inputs**, so ``POST /analyse {"kernel":"dct"}``
  works without a body full of 64 ranges;
* the **quality metric** its ratio-knob tuner optimises (PSNR for the
  image kernels, relative error otherwise).

Every entry records the identical trace for identical requests, which is
what makes one :class:`~repro.scorpio.TraceCache` per kernel the whole
serving story: the first request records, every later one is a
vectorized replay, and the reports are byte-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from repro.intervals import Interval
from repro.kernels.common import QUALITY_PSNR, QUALITY_REL_ERR
from repro.scorpio import Analysis
from repro.scorpio.report import SignificanceReport

__all__ = [
    "KernelEntry",
    "default_registry",
    "parse_intervals",
    "TuneSetup",
    "tune_setup",
]


@dataclass(frozen=True)
class KernelEntry:
    """One served kernel: identity, recorder, schema, defaults."""

    kernel_id: str
    summary: str
    input_names: tuple[str, ...]
    recorder: Callable[[Sequence[Interval]], Analysis]
    defaults: Callable[[], list[Interval]]
    simplify: bool
    quality_metric: str
    # Per-kernel latency SLO in milliseconds (None = no objective).  The
    # service's flight recorder compares every finished /analyse request
    # against it and surfaces kernels whose latest request blew the
    # threshold as "degraded" in /healthz.
    slo_ms: "float | None" = None

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def cache_key(self) -> tuple[str]:
        return (self.kernel_id,)

    @cached_property
    def _built_defaults(self) -> tuple[Interval, ...]:
        return tuple(self.defaults())

    def default_inputs(self) -> list[Interval]:
        """The default inputs, built once per entry: each call returns a
        fresh list of the same (immutable) intervals."""
        return list(self._built_defaults)

    def analyse_in_process(
        self, inputs: Sequence[Interval]
    ) -> SignificanceReport:
        """The reference path the service's responses must match byte-
        for-byte: record this request's trace, analyse compiled."""
        return self.recorder(inputs).analyse(
            simplify=self.simplify, compiled=True
        )


def parse_intervals(
    raw: Any, entry: KernelEntry
) -> list[Interval]:
    """Request ``inputs`` -> one Interval per registered input.

    Accepts ``[lo, hi]`` pairs, ``{"lo": .., "hi": ..}`` objects (the
    serialize-module convention) or bare numbers (degenerate intervals);
    ``None`` means the kernel's defaults.  Raises ``ValueError`` with a
    client-facing message on anything else.
    """
    if raw is None:
        return entry.default_inputs()
    if not isinstance(raw, (list, tuple)):
        raise ValueError("'inputs' must be a list of ranges")
    if len(raw) != entry.n_inputs:
        raise ValueError(
            f"kernel {entry.kernel_id!r} takes {entry.n_inputs} inputs "
            f"({', '.join(entry.input_names[:4])}"
            f"{', ...' if entry.n_inputs > 4 else ''}), got {len(raw)}"
        )
    intervals: list[Interval] = []
    for i, item in enumerate(raw):
        name = entry.input_names[i]
        if isinstance(item, (list, tuple)) and len(item) == 2:
            lo, hi = item
        elif isinstance(item, dict) and {"lo", "hi"} <= set(item):
            lo, hi = item["lo"], item["hi"]
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            lo = hi = item
        else:
            raise ValueError(
                f"input {name!r} (#{i}): expected [lo, hi], "
                f"{{'lo':.., 'hi':..}} or a number, got {item!r}"
            )
        try:
            lo = float(lo)
            hi = float(hi)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"input {name!r} (#{i}): bounds must be numbers"
            ) from exc
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"input {name!r} (#{i}): bounds must be finite")
        if lo > hi:
            raise ValueError(f"input {name!r} (#{i}): lo {lo} > hi {hi}")
        intervals.append(Interval(lo, hi))
    return intervals


# ----------------------------------------------------------------------
# Recorders and defaults, one block per kernel
# ----------------------------------------------------------------------
def _dct_defaults() -> list[Interval]:
    from repro.images import natural_image

    block = natural_image(8, 8, seed=5)
    return [
        Interval.centered(float(v), 0.5) for v in block.ravel()
    ]


def _sobel_defaults() -> list[Interval]:
    from repro.images import natural_image

    window = natural_image(3, 3, seed=5)
    return [
        Interval.centered(float(v), 0.5) for v in window.ravel()
    ]


# Representative European call: S=100, K=105, r=3%, vol=25%, T=1y, each
# with the analysis module's conventional ±2% relative uncertainty.
_BS_PARAMS = (100.0, 105.0, 0.03, 0.25, 1.0)


def _blackscholes_defaults() -> list[Interval]:
    return [Interval.centered(p, 0.02 * p) for p in _BS_PARAMS]


_FISHEYE_WINDOW = 4  # bicubic support


def _record_fisheye(ivs: Sequence[Interval]) -> Analysis:
    """Record one bicubic resample over 16 window pixels + 2 coordinates.

    The served fisheye kernel is the per-pixel core of Figure 5: the
    (centred) 4x4 source window enters as sixteen pixel-value inputs and
    the fractional source coordinates as two more, so a request can vary
    both the content and the coordinate imprecision.
    """
    from repro.kernels.fisheye.bicubic import bicubic_interp

    an = Analysis()
    with an:
        it = iter(ivs)
        window = [
            [
                an.input(next(it), name=f"w_{r}_{c}")
                for c in range(_FISHEYE_WINDOW)
            ]
            for r in range(_FISHEYE_WINDOW)
        ]
        tx = an.input(next(it), name="x_frac")
        ty = an.input(next(it), name="y_frac")
        value = bicubic_interp(window, tx, ty)
        an.output(value, name="pixel")
    return an


def _fisheye_defaults() -> list[Interval]:
    """A real border-region window of the benchmark lens's scene."""
    import math

    from repro.images import radial_scene
    from repro.kernels.fisheye import default_config, make_fisheye_input
    from repro.kernels.fisheye.geometry import inverse_map_point

    config = default_config(64, 48)
    scene = radial_scene(64, 48, seed=11)
    image = make_fisheye_input(scene, config)
    h, w = image.shape
    # An output pixel near the border, where Figure 5 says imprecision
    # matters most.
    mx, my = inverse_map_point(config, 56.0, 40.0)
    ix, iy = int(math.floor(mx)), int(math.floor(my))
    window = np.array(
        [
            [
                image[
                    min(max(iy + r - 1, 0), h - 1),
                    min(max(ix + c - 1, 0), w - 1),
                ]
                for c in range(_FISHEYE_WINDOW)
            ]
            for r in range(_FISHEYE_WINDOW)
        ]
    )
    window -= window.mean()
    ivs = [Interval.centered(float(v), 0.5) for v in window.ravel()]
    ivs.append(Interval.centered(mx - ix, 0.5))
    ivs.append(Interval.centered(my - iy, 0.5))
    return ivs


_NBODY_SOURCES = 3


def _record_nbody(ivs: Sequence[Interval]) -> Analysis:
    """Record the LJ force on a target atom at the origin from three
    source atoms (nine coordinate inputs, target-centred per the
    analysis module's translation normalisation)."""
    from repro.kernels.nbody import lj_pair_force

    an = Analysis()
    with an:
        it = iter(ivs)
        taped = [
            [
                an.input(next(it), name=f"atom{i}_{axis}")
                for axis in "xyz"
            ]
            for i in range(1, _NBODY_SOURCES + 1)
        ]
        fx = fy = fz = None
        for sx, sy, sz in taped:
            dfx, dfy, dfz = lj_pair_force(0.0 - sx, 0.0 - sy, 0.0 - sz)
            fx = dfx if fx is None else fx + dfx
            fy = dfy if fy is None else fy + dfy
            fz = dfz if fz is None else fz + dfz
        an.output(fx, name="fx")
        an.output(fy, name="fy")
        an.output(fz, name="fz")
    return an


# Near-equilibrium, mid-range and distant source atoms (LJ sigma units).
_NBODY_POSITIONS = (
    (1.12, 0.0, 0.0),
    (0.3, 1.5, -0.2),
    (-1.9, 0.8, 1.1),
)


def _nbody_defaults() -> list[Interval]:
    return [
        Interval.centered(c, 0.02)
        for atom in _NBODY_POSITIONS
        for c in atom
    ]


def default_registry() -> dict[str, KernelEntry]:
    """The five paper kernels, keyed by their stable service ids."""
    from repro.kernels.blackscholes.analysis import _record_option
    from repro.kernels.dct.analysis import _record_dct_block
    from repro.kernels.sobel.analysis import _record_sobel_pixel

    entries = [
        KernelEntry(
            kernel_id="dct",
            summary="8x8 DCT round-trip; per-coefficient significance",
            input_names=tuple(
                f"p_{y}_{x}" for y in range(8) for x in range(8)
            ),
            recorder=_record_dct_block,
            defaults=_dct_defaults,
            simplify=False,
            quality_metric=QUALITY_PSNR,
        ),
        KernelEntry(
            kernel_id="sobel",
            summary="3x3 Sobel window; A/B/C block significance",
            input_names=tuple(
                f"p{dy}{dx}" for dy in range(3) for dx in range(3)
            ),
            recorder=_record_sobel_pixel,
            defaults=_sobel_defaults,
            simplify=True,
            quality_metric=QUALITY_PSNR,
        ),
        KernelEntry(
            kernel_id="blackscholes",
            summary="European option pricing; A-D block significance",
            input_names=("S", "K", "r", "v", "T"),
            recorder=_record_option,
            defaults=_blackscholes_defaults,
            simplify=False,
            quality_metric=QUALITY_REL_ERR,
        ),
        KernelEntry(
            kernel_id="fisheye",
            summary="bicubic resample; window + coordinate significance",
            input_names=tuple(
                f"w_{r}_{c}"
                for r in range(_FISHEYE_WINDOW)
                for c in range(_FISHEYE_WINDOW)
            )
            + ("x_frac", "y_frac"),
            recorder=_record_fisheye,
            defaults=_fisheye_defaults,
            simplify=False,
            quality_metric=QUALITY_PSNR,
        ),
        KernelEntry(
            kernel_id="nbody",
            summary="Lennard-Jones force; per-source-atom significance",
            input_names=tuple(
                f"atom{i}_{axis}"
                for i in range(1, _NBODY_SOURCES + 1)
                for axis in "xyz"
            ),
            recorder=_record_nbody,
            defaults=_nbody_defaults,
            simplify=False,
            quality_metric=QUALITY_REL_ERR,
        ),
    ]
    return {entry.kernel_id: entry for entry in entries}


# ----------------------------------------------------------------------
# Ratio-knob tuning setups (the /tune endpoint)
# ----------------------------------------------------------------------
@dataclass
class TuneSetup:
    """A ratio -> (quality, energy) evaluator plus its conventions."""

    evaluate: Callable[[float], tuple[float, float]]
    higher_is_better: bool
    quality_metric: str
    workload: dict[str, Any]


def tune_setup(kernel_id: str, size: int | None = None) -> TuneSetup:
    """Build the tuning evaluator for one kernel.

    ``size`` scales the workload: image side for sobel/dct/fisheye,
    lattice side for nbody, option count for blackscholes.  Workloads are
    deliberately small — /tune answers a knob recommendation, not a
    benchmark run.
    """
    if kernel_id in ("sobel", "dct"):
        from repro.images import natural_image
        from repro.metrics import psnr

        side = size or 48
        image = natural_image(side, side, seed=5)
        if kernel_id == "sobel":
            from repro.kernels.sobel import (
                sobel_reference as ref_fn,
                sobel_significance as run_fn,
            )
        else:
            from repro.kernels.dct import (
                dct_roundtrip_reference as ref_fn,
                dct_significance as run_fn,
            )
        reference = ref_fn(image)

        def evaluate(ratio: float) -> tuple[float, float]:
            run = run_fn(image, ratio)
            return min(psnr(reference, run.output), 99.0), run.joules

        return TuneSetup(
            evaluate, True, QUALITY_PSNR, {"image": f"{side}x{side}"}
        )
    if kernel_id == "fisheye":
        from repro.images import radial_scene
        from repro.kernels.fisheye import (
            default_config,
            fisheye_reference,
            fisheye_significance,
            make_fisheye_input,
        )
        from repro.metrics import psnr

        width = size or 48
        height = max(3 * width // 4, 12)
        config = default_config(width, height)
        scene = radial_scene(width, height, seed=11)
        image = make_fisheye_input(scene, config)
        reference = fisheye_reference(image, config)

        def evaluate(ratio: float) -> tuple[float, float]:
            run = fisheye_significance(image, config, ratio)
            return min(psnr(reference, run.output), 99.0), run.joules

        return TuneSetup(
            evaluate, True, QUALITY_PSNR, {"image": f"{width}x{height}"}
        )
    if kernel_id == "nbody":
        from repro.kernels.nbody import (
            lattice_system,
            nbody_significance,
            simulate_reference,
        )
        from repro.metrics import aggregate_relative_error

        side = size or 4
        steps = 2
        system = lattice_system(side=side, seed=42)
        reference = simulate_reference(system, steps=steps).positions

        def evaluate(ratio: float) -> tuple[float, float]:
            run, _ = nbody_significance(system, ratio, steps=steps)
            return aggregate_relative_error(reference, run.output), run.joules

        return TuneSetup(
            evaluate,
            False,
            QUALITY_REL_ERR,
            {"atoms": side**3, "steps": steps},
        )
    if kernel_id == "blackscholes":
        from repro.kernels.blackscholes import (
            blackscholes_significance,
            make_portfolio,
            price_portfolio,
        )
        from repro.metrics import aggregate_relative_error

        count = size or 1024
        portfolio = make_portfolio(count=count, seed=23)
        reference = price_portfolio(
            portfolio.spots,
            portfolio.strikes,
            portfolio.rates,
            portfolio.volatilities,
            portfolio.expiries,
            portfolio.puts,
        )

        def evaluate(ratio: float) -> tuple[float, float]:
            run = blackscholes_significance(portfolio, ratio)
            return aggregate_relative_error(reference, run.output), run.joules

        return TuneSetup(
            evaluate, False, QUALITY_REL_ERR, {"options": count}
        )
    raise ValueError(f"no tuning setup for kernel {kernel_id!r}")
