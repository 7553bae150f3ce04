"""Significance analysis of BlackScholes (Section 4.1.5).

"Significance analysis indicates that the computation of a stock price
can be broken down to 4 blocks of code A, B, C, D, with
sig(A) > sig(B) ≫ sig(C) > sig(D)."

We register the five option parameters as inputs over realistic market
ranges, tag the four blocks as intermediates and analyse against the call
price.  The analysis is repeated over sampled options and the block
significances averaged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.intervals import AmbiguousComparisonError, Interval
from repro.kernels.common import replay_lane_significances
from repro.scorpio import Analysis, CachedTrace, TraceCache, replay_enabled

from .data import Portfolio, make_portfolio
from .sequential import black_scholes_blocks

__all__ = [
    "BlackScholesAnalysis",
    "OptionBlocks",
    "analyse_option",
    "analyse_blackscholes",
]

_BLOCKS = ("A", "B", "C", "D")


class OptionBlocks(Sequence):
    """Read-only per-option view of a ``(4, L)`` block-significance matrix.

    Item ``j`` is ``{"A": .., "B": .., "C": .., "D": ..}`` for option
    ``j``, built when it is accessed, so a lane-replayed analysis of a
    whole portfolio keeps no per-option objects.  Compares equal to any
    sequence of equal dicts (such as the replay-off list).
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: np.ndarray):
        self._blocks = blocks

    def __len__(self) -> int:
        return self._blocks.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(len(self))[index]]
        return dict(zip(_BLOCKS, self._blocks[:, index].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )


@dataclass
class BlackScholesAnalysis:
    """Mean per-block significances, max-normalised."""

    block_significance: dict[str, float]
    per_option: Sequence[dict[str, float]]
    samples: int

    def ranking(self) -> list[str]:
        """Block letters, most significant first."""
        return sorted(
            self.block_significance,
            key=lambda k: self.block_significance[k],
            reverse=True,
        )


def _record_option(ivs) -> Analysis:
    """Record one BlackScholes pricing over (S, K, r, v, T) intervals."""
    an = Analysis()
    with an:
        s = an.input(ivs[0], name="S")
        k = an.input(ivs[1], name="K")
        r = an.input(ivs[2], name="r")
        v = an.input(ivs[3], name="v")
        t = an.input(ivs[4], name="T")
        blocks = black_scholes_blocks(s, k, r, v, t)
        for name in _BLOCKS:
            an.intermediate(blocks[name], name)
        an.output(blocks["call"], name="price")
    return an


def analyse_option(
    spot: float,
    strike: float,
    rate: float,
    volatility: float,
    expiry: float,
    relative_uncertainty: float = 0.02,
    compiled: bool = False,
    cache: TraceCache | None = None,
) -> dict[str, float]:
    """Block significances for one option (±2% parameter uncertainty).

    With a ``cache``, replays the shared pricing trace on this option's
    parameter intervals instead of re-recording — bit-identical either way.
    """
    ivs = [
        Interval.centered(p, relative_uncertainty * p)
        for p in (spot, strike, rate, volatility, expiry)
    ]
    if cache is not None:
        report = cache.analyse(
            ("bs_option",), _record_option, ivs, simplify=False
        )
    else:
        report = _record_option(ivs).analyse(
            simplify=False, compiled=compiled
        )
    sigs = report.labelled_significances()
    return {name: sigs[name] for name in _BLOCKS}


def _replay_options(
    params: np.ndarray,
    relative_uncertainty: float = 0.02,
    *,
    executor=None,
    workers: int | None = None,
) -> np.ndarray | None:
    """``(4, L)`` block significances (rows A-D) of ``(5, L)`` option
    parameters (S, K, r, v, T), via one lane-replayed trace.

    Records the pricing trace once (on the first option) and prices every
    option as one lane of a single vectorized forward + adjoint sweep;
    Eq. 11 runs on the four block rows only.  Column ``j`` is
    bit-identical to :func:`analyse_option` on option ``j`` — the
    per-option replay of this ~40-node trace loses to the scalar
    recording on NumPy call overhead, but the lanes amortize it across
    the whole batch.  With ``executor="process"`` the lane sweep is
    chunked across worker processes via
    :func:`repro.mp.parallel_lane_significances` — same bits, more cores.
    Returns ``None`` when the trace cannot be replayed, or an option
    takes another branch or cannot decide one (the caller falls back to
    the per-option path, where each option ends as its own call would).
    """
    from repro.ad.replay import GuardDivergenceError, ReplayError

    ivs = [
        Interval.centered(p, relative_uncertainty * p)
        for p in params[:, 0].tolist()
    ]
    try:
        trace = CachedTrace(_record_option(ivs), simplify=False)
    except ReplayError:
        return None
    radius = relative_uncertainty * params
    try:
        return replay_lane_significances(
            trace,
            params - radius,
            params + radius,
            rows=[trace.label_index(name) for name in _BLOCKS],
            executor=executor,
            workers=workers,
        )
    except (GuardDivergenceError, AmbiguousComparisonError):
        return None


def analyse_blackscholes(
    portfolio: Portfolio | None = None,
    samples: int = 24,
    seed: int = 5,
    replay: bool | None = None,
    executor=None,
    workers: int | None = None,
) -> BlackScholesAnalysis:
    """Averaged block significances over sampled options.

    ``replay`` (default: the module replay setting) records the pricing
    trace on the first option and replays every sampled option as one
    lane of a single sweep — bit-identical per option to the recorded
    scalar analysis.
    ``executor="process"`` additionally fans the replayed lanes out over
    ``workers`` processes (:mod:`repro.mp`) without changing a single bit
    of the result.
    """
    if portfolio is None:
        portfolio = make_portfolio(count=max(samples, 64), seed=seed)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(
        portfolio.count, size=min(samples, portfolio.count), replace=False
    )
    params = np.stack(
        [
            np.asarray(column, dtype=np.float64)[chosen]
            for column in (
                portfolio.spots,
                portfolio.strikes,
                portfolio.rates,
                portfolio.volatilities,
                portfolio.expiries,
            )
        ]
    )
    blocks = (
        _replay_options(params, executor=executor, workers=workers)
        if replay_enabled(replay)
        else None
    )
    if blocks is None:
        per_option = [analyse_option(*o) for o in params.T.tolist()]
        blocks = np.array([[p[name] for p in per_option] for name in _BLOCKS])
    else:
        per_option = OptionBlocks(blocks)
    mean = {name: float(np.mean(row)) for name, row in zip(_BLOCKS, blocks)}
    peak = max(mean.values())
    if peak > 0:
        mean = {k: v / peak for k, v in mean.items()}
    return BlackScholesAnalysis(
        block_significance=mean, per_option=per_option, samples=len(per_option)
    )
