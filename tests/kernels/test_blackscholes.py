"""Tests for the BlackScholes benchmark."""

import math

import numpy as np
import pytest

from repro.kernels.blackscholes import (
    OptionBlocks,
    analyse_blackscholes,
    analyse_option,
    black_scholes_blocks,
    black_scholes_price,
    blackscholes_significance,
    cndf,
    make_portfolio,
    price_portfolio,
)
from repro.kernels.blackscholes.tasks import price_chunk_approx
from repro.metrics import aggregate_relative_error


@pytest.fixture(scope="module")
def portfolio():
    return make_portfolio(count=2048, seed=23)


@pytest.fixture(scope="module")
def reference(portfolio):
    return price_portfolio(
        portfolio.spots,
        portfolio.strikes,
        portfolio.rates,
        portfolio.volatilities,
        portfolio.expiries,
        portfolio.puts,
    )


class TestPricing:
    def test_known_call_price(self):
        # Standard textbook case: S=K=100, r=5%, v=20%, T=1 -> C ≈ 10.4506.
        price = black_scholes_price(100.0, 100.0, 0.05, 0.2, 1.0)
        assert price == pytest.approx(10.4506, abs=1e-3)

    def test_known_put_price(self):
        # Same case, put ≈ 5.5735 (put-call parity).
        price = black_scholes_price(100.0, 100.0, 0.05, 0.2, 1.0, put=True)
        assert price == pytest.approx(5.5735, abs=1e-3)

    def test_put_call_parity(self):
        s, k, r, v, t = 110.0, 95.0, 0.03, 0.35, 0.7
        call = black_scholes_price(s, k, r, v, t)
        put = black_scholes_price(s, k, r, v, t, put=True)
        assert call - put == pytest.approx(s - k * math.exp(-r * t), rel=1e-10)

    def test_deep_itm_call_close_to_intrinsic(self):
        price = black_scholes_price(200.0, 100.0, 0.01, 0.1, 0.1)
        assert price == pytest.approx(200.0 - 100.0 * math.exp(-0.001), rel=1e-3)

    def test_cndf_symmetry(self):
        assert cndf(0.0) == pytest.approx(0.5)
        assert cndf(1.5) + cndf(-1.5) == pytest.approx(1.0)

    def test_vectorised_matches_scalar(self, portfolio, reference):
        for i in (0, 100, 999):
            scalar = black_scholes_price(
                float(portfolio.spots[i]),
                float(portfolio.strikes[i]),
                float(portfolio.rates[i]),
                float(portfolio.volatilities[i]),
                float(portfolio.expiries[i]),
                put=bool(portfolio.puts[i]),
            )
            assert reference[i] == pytest.approx(scalar, rel=1e-10)

    def test_prices_non_negative(self, reference):
        assert np.all(reference >= -1e-9)


class TestPortfolioData:
    def test_deterministic(self):
        a = make_portfolio(100, seed=1)
        b = make_portfolio(100, seed=1)
        assert np.array_equal(a.spots, b.spots)

    def test_ranges(self, portfolio):
        assert portfolio.spots.min() >= 40.0 and portfolio.spots.max() <= 160.0
        assert portfolio.volatilities.min() >= 0.10
        assert portfolio.expiries.max() <= 2.0

    def test_mixed_calls_and_puts(self, portfolio):
        assert 0.3 < portfolio.puts.mean() < 0.7

    def test_slice(self, portfolio):
        piece = portfolio.slice(10, 20)
        assert piece.count == 10
        assert piece.spots[0] == portfolio.spots[10]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_portfolio(0)


class TestApprox:
    def test_approx_chunk_close_but_not_exact(self, portfolio, reference):
        out = np.zeros(portfolio.count)
        price_chunk_approx(out, portfolio, 0)
        err = aggregate_relative_error(reference, out)
        assert 1e-4 < err < 0.15  # visibly degraded, still usable


class TestAnalysis:
    def test_block_a_dominates(self):
        # Aggregate over a representative sample: per-option block
        # ordering fluctuates (Eq. 11's worst-case product, see
        # EXPERIMENTS.md), but block A dominates the portfolio mean.
        result = analyse_blackscholes(samples=16)
        ranking = result.ranking()
        assert ranking[0] == "A"
        assert result.block_significance["A"] >= 1.5 * min(
            result.block_significance[b] for b in "BCD"
        )

    def test_per_option_blocks_present(self):
        sigs = analyse_option(100.0, 95.0, 0.03, 0.3, 1.0)
        assert set(sigs) == {"A", "B", "C", "D"}
        assert all(v >= 0 for v in sigs.values())

    def test_normalised_peak(self):
        result = analyse_blackscholes(samples=4)
        assert max(result.block_significance.values()) == pytest.approx(1.0)


class TestPerOptionView:
    """``per_option`` of a replayed analysis is a view over the block
    matrix that reads like the replay-off list of dicts."""

    @pytest.fixture(scope="class")
    def pair(self):
        replayed = analyse_blackscholes(samples=24, seed=4, replay=True)
        scalar = analyse_blackscholes(samples=24, seed=4, replay=False)
        return replayed, scalar

    def test_view_not_list(self, pair):
        replayed, scalar = pair
        assert isinstance(replayed.per_option, OptionBlocks)
        assert isinstance(scalar.per_option, list)

    def test_len_and_samples(self, pair):
        replayed, scalar = pair
        assert len(replayed.per_option) == len(scalar.per_option) == 24
        assert replayed.samples == scalar.samples == 24

    def test_indexing_matches_list(self, pair):
        replayed, scalar = pair
        for j in (0, 7, 23, -1, -24):
            entry = replayed.per_option[j]
            assert entry == scalar.per_option[j]
            assert list(entry) == ["A", "B", "C", "D"]
            assert all(type(v) is float for v in entry.values())
        assert replayed.per_option[2:5] == scalar.per_option[2:5]

    def test_out_of_range(self, pair):
        replayed, _ = pair
        with pytest.raises(IndexError):
            replayed.per_option[24]
        with pytest.raises(IndexError):
            replayed.per_option[-25]

    def test_iteration_matches_list(self, pair):
        replayed, scalar = pair
        assert list(replayed.per_option) == scalar.per_option

    def test_equality_both_ways(self, pair):
        replayed, scalar = pair
        assert replayed.per_option == scalar.per_option
        assert scalar.per_option == replayed.per_option
        assert replayed == scalar
        assert replayed.per_option != scalar.per_option[:-1]
        changed = [dict(d) for d in scalar.per_option]
        changed[5]["C"] += 1.0
        assert replayed.per_option != changed

    def test_entries_are_fresh(self, pair):
        replayed, _ = pair
        first = replayed.per_option[3]
        first["A"] = -1.0
        assert replayed.per_option[3]["A"] != -1.0

    def test_means_bitwise_equal_to_replay_off(self):
        for samples in (24, 300):
            replayed = analyse_blackscholes(samples=samples, seed=6)
            scalar = analyse_blackscholes(
                samples=samples, seed=6, replay=False
            )
            assert replayed.block_significance == scalar.block_significance


class TestSignificanceVersion:
    def test_ratio_one_exact(self, portfolio, reference):
        run = blackscholes_significance(portfolio, 1.0)
        assert np.allclose(run.output, reference)

    def test_error_monotone(self, portfolio, reference):
        errors = [
            aggregate_relative_error(
                reference, blackscholes_significance(portfolio, r).output
            )
            for r in (0.0, 0.5, 1.0)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] == 0.0

    def test_energy_monotone(self, portfolio):
        energies = [
            blackscholes_significance(portfolio, r).joules
            for r in (0.0, 0.5, 1.0)
        ]
        assert energies == sorted(energies)

    def test_error_scale_paper_like(self, portfolio, reference):
        run = blackscholes_significance(portfolio, 0.0)
        err = aggregate_relative_error(reference, run.output)
        assert 0.005 < err < 0.15  # few percent at full approximation

    def test_all_chunks_counted(self, portfolio):
        run = blackscholes_significance(portfolio, 0.5, chunk_size=256)
        assert run.stats.total == math.ceil(portfolio.count / 256)
