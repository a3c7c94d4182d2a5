"""Desk-scale deep-hedging laboratory.

Simulate underlying paths (agent-based double-auction market, GBM,
Heston QE-M), train a small MLP hedging policy by minimizing a risk
measure of terminal PL, price options by indifference, tune simulator
and training knobs, and check simulator output against stylized facts.
"""

__version__ = "0.1.0"

from .fcn_agents import (AgentPopulation, MarketConfig, extract_paths,
                         run_session, simulate_paths)
from .hedge_core import VolConfig, feature_width, features_matrix, pl_core
from .instruments import (EUROPEAN_CALL, LOOKBACK_CALL, OptionSpec, bs_delta,
                          bs_price, payoff, payoff_batch)
from .lob import Book, Fill, Order, expire_orders, insert_order, uncross
from .market_data import (IndexSeries, StylizedStats, extract_windows,
                          load_series, raw_kurtosis, stylized_stats)
from .neuralnet import Adam, MlpPolicy, TrainReport, train
from .risk import RiskMeasure, cvar, erm, indifference_price, utility
from .stoch_models import GbmParams, HestonParams, gbm_paths, heston_paths
from .tuner import SearchSpace, StudyBudget, Trial, run_study, sample_trial

__all__ = [name for name in dir() if not name.startswith("_")]
