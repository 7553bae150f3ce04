"""BlackScholes financial benchmark (paper Section 4.1.5)."""

from .analysis import (
    BlackScholesAnalysis,
    OptionBlocks,
    analyse_blackscholes,
    analyse_option,
)
from .data import Portfolio, make_portfolio
from .greeks import Greeks, greeks
from .sequential import (
    black_scholes_blocks,
    black_scholes_price,
    cndf,
    price_portfolio,
)
from .tasks import blackscholes_significance, price_chunk_approx

__all__ = [
    "cndf",
    "black_scholes_blocks",
    "black_scholes_price",
    "price_portfolio",
    "Portfolio",
    "make_portfolio",
    "analyse_option",
    "analyse_blackscholes",
    "BlackScholesAnalysis",
    "OptionBlocks",
    "blackscholes_significance",
    "price_chunk_approx",
    "Greeks",
    "greeks",
]
