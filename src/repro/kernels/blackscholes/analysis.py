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

from dataclasses import dataclass

import numpy as np

from repro.intervals import Interval
from repro.scorpio import Analysis, CachedTrace, TraceCache, replay_enabled

from .data import Portfolio, make_portfolio
from .sequential import black_scholes_blocks

__all__ = [
    "BlackScholesAnalysis",
    "analyse_option",
    "analyse_blackscholes",
]

_BLOCKS = ("A", "B", "C", "D")


@dataclass
class BlackScholesAnalysis:
    """Mean per-block significances, max-normalised."""

    block_significance: dict[str, float]
    per_option: list[dict[str, float]]
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
    options: list[tuple[float, float, float, float, float]],
    relative_uncertainty: float = 0.02,
    *,
    executor=None,
    workers: int | None = None,
) -> list[dict[str, float]] | None:
    """Per-option block significances via one lane-replayed trace.

    Records the pricing trace once (on the first option) and prices every
    option as one lane of a single vectorized forward + adjoint sweep.
    Each lane is bit-identical to :func:`analyse_option` on that option —
    the per-option replay of this ~40-node trace loses to the scalar
    recording on NumPy call overhead, but the lanes amortize it across
    the whole batch.  With ``executor="process"`` the lane sweep is
    chunked across worker processes via
    :func:`repro.mp.parallel_lane_significances` — same bits, more cores.
    Returns ``None`` when the trace cannot be replayed (the caller falls
    back to the per-option path).
    """
    from repro.ad.replay import GuardDivergenceError, ReplayError

    ivs = [
        Interval.centered(p, relative_uncertainty * p) for p in options[0]
    ]
    try:
        trace = CachedTrace(_record_option(ivs), simplify=False)
    except ReplayError:
        return None
    params = np.asarray(options, dtype=np.float64).T
    radius = relative_uncertainty * params
    try:
        sig = _lane_sig(
            trace,
            params - radius,
            params + radius,
            executor=executor,
            workers=workers,
        )
    except GuardDivergenceError:
        return None
    rows = {name: trace.label_index(name) for name in _BLOCKS}
    return [
        {name: float(sig[rows[name], j]) for name in _BLOCKS}
        for j in range(len(options))
    ]


def _lane_sig(
    trace: CachedTrace,
    lanes_lo: np.ndarray,
    lanes_hi: np.ndarray,
    *,
    executor=None,
    workers: int | None = None,
) -> np.ndarray:
    """Eq. 11 matrix for lane bounds, sequential or process-parallel.

    The two paths are bitwise identical (pinned by ``tests/mp``); the
    process path only pays off for batches past a few hundred lanes.
    """
    if executor is not None:
        from repro.mp import parallel_lane_significances, process_requested
    if executor is not None and process_requested(executor):
        return parallel_lane_significances(
            trace,
            lanes_lo,
            lanes_hi,
            workers=workers,
            executor=None if isinstance(executor, str) else executor,
        )
    return trace.lane_significances(trace.forward_lanes(lanes_lo, lanes_hi))


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
    options = [
        (
            float(portfolio.spots[i]),
            float(portfolio.strikes[i]),
            float(portfolio.rates[i]),
            float(portfolio.volatilities[i]),
            float(portfolio.expiries[i]),
        )
        for i in chosen
    ]
    replayed = (
        _replay_options(options, executor=executor, workers=workers)
        if replay_enabled(replay)
        else None
    )
    per_option = (
        replayed
        if replayed is not None
        else [analyse_option(*o) for o in options]
    )
    mean = {
        name: float(np.mean([p[name] for p in per_option])) for name in _BLOCKS
    }
    peak = max(mean.values())
    if peak > 0:
        mean = {k: v / peak for k, v in mean.items()}
    return BlackScholesAnalysis(
        block_significance=mean, per_option=per_option, samples=len(per_option)
    )
