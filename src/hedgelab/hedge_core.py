"""Hedging profit-and-loss accounting, policy features and the delta baseline.

The per-path decomposition is

    pl = -payoff + trading_gain - cost
    trading_gain = sum_i delta_i * (S_{i+1} - S_i),            i = 0..n-1
    cost = c * sum_i S_i * |delta_i - delta_{i-1}|,            i = 0..n

with the boundary positions delta_{-1} = delta_n = 0, i.e. the hedge is
entered from flat and force-liquidated at maturity.  ``pl_core`` expresses
the formula once with operators shared by ndarrays and autodiff tensors,
so the training loss and the reported outcomes cannot drift apart.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .instruments import OptionSpec, bs_delta, payoff_batch

ANNUAL_DAYS = 250


@dataclass(frozen=True)
class HedgeOutcome:
    """Per-path PL decomposition; ``pl = -payoff + trading_gain - cost`` exactly."""

    payoff: float
    trading_gain: float
    cost: float
    pl: float


@dataclass(frozen=True)
class VolConfig:
    """Trailing realized-vol estimator settings for the policy features."""

    prior: float = 0.2
    blend_min_returns: int = 5
    floor: float = 1e-4


def position_change_matrix(n_steps: int) -> np.ndarray:
    """(n+1| n) map from step positions to position changes incl. boundaries.

    Row i gives delta_i - delta_{i-1} with delta_{-1} = delta_n = 0, so
    ``deltas @ matrix.T`` has one column per trading date 0..n.
    """
    d = np.zeros((n_steps + 1, n_steps))
    for i in range(n_steps):
        d[i, i] = 1.0
        d[i + 1, i] -= 1.0
    return d


def pl_core(paths: np.ndarray, deltas, payoffs: np.ndarray, cost_rate: float):
    """PL of a batch; ``deltas`` may be an ndarray or an autodiff Tensor.

    paths: (B, n+1) prices, payoffs: (B,) option payoffs, deltas: (B, n).
    Returns (pl, trading_gain, cost) with shapes (B,).
    """
    ds = paths[:, 1:] - paths[:, :-1]
    gain = (deltas * ds).sum(axis=1)
    if cost_rate != 0.0:
        changes = deltas @ position_change_matrix(deltas.shape[1]).T
        cost = (abs(changes) * paths).sum(axis=1) * cost_rate
    else:
        zeros = np.zeros(paths.shape[0])
        cost = Tensor(zeros) if isinstance(deltas, Tensor) else zeros
    # associate exactly as the decomposition identity states it
    pl = -payoffs + gain - cost
    return pl, gain, cost


def compute_pl(path: np.ndarray, deltas: np.ndarray, spec: OptionSpec,
               cost_rate: float = 0.0) -> HedgeOutcome:
    """Hedge accounting for a single path; validates lengths."""
    path = np.asarray(path, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if cost_rate < 0.0:
        raise ValueError("cost_rate must be nonnegative")
    if deltas.shape != (spec.maturity_days,):
        raise ValueError(
            f"expected {spec.maturity_days} positions, got shape {deltas.shape}"
        )
    pay = payoff_batch(spec, path[None, :])
    pl, gain, cost = pl_core(path[None, :], deltas[None, :], pay, cost_rate)
    return HedgeOutcome(payoff=float(pay[0]), trading_gain=float(gain[0]),
                        cost=float(cost[0]), pl=float(pl[0]))


def compute_pl_batch(paths: np.ndarray, deltas, spec: OptionSpec,
                     cost_rate: float = 0.0):
    """Batch PL; ``deltas`` may be a Tensor so the result stays differentiable."""
    paths = np.asarray(paths, dtype=np.float64)
    if cost_rate < 0.0:
        raise ValueError("cost_rate must be nonnegative")
    n = spec.maturity_days
    dshape = deltas.shape
    if paths.shape[1] != n + 1 or dshape[1] != n or dshape[0] != paths.shape[0]:
        raise ValueError(
            f"shape mismatch: paths {paths.shape}, deltas {dshape}, maturity {n}"
        )
    payoffs = payoff_batch(spec, paths)
    pl, _, _ = pl_core(paths, deltas, payoffs, cost_rate)
    return pl


def realized_vol(prefix: np.ndarray, cfg: VolConfig = VolConfig()) -> float:
    """Annualized trailing vol of a price prefix, blended toward the prior.

    Fewer than ``blend_min_returns`` log returns pull the estimate toward
    ``cfg.prior`` proportionally; the result is floored at ``cfg.floor``.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    n_ret = prefix.shape[0] - 1
    if n_ret <= 0:
        vol = cfg.prior
    else:
        r = np.diff(np.log(prefix))
        vol = float(np.std(r)) * np.sqrt(ANNUAL_DAYS)
        if n_ret < cfg.blend_min_returns:
            w = n_ret / cfg.blend_min_returns
            vol = w * vol + (1.0 - w) * cfg.prior
    return max(vol, cfg.floor)


def features(prefix: np.ndarray, spec: OptionSpec,
             cfg: VolConfig = VolConfig()) -> np.ndarray:
    """Feature row for the policy at step i given prices S_0..S_i.

    Order: moneyness, time to maturity (years), trailing vol, BS delta,
    plus running max moneyness for lookback contracts.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    i = prefix.shape[0] - 1
    n = spec.maturity_days
    if i >= n:
        raise ValueError("features are only defined before maturity (i < n)")
    spot = float(prefix[-1])
    tau = (n - i) / ANNUAL_DAYS
    vol = realized_vol(prefix, cfg)
    row = [spot / spec.strike, tau, vol, float(bs_delta(spot, spec.strike, vol, tau))]
    if spec.is_lookback:
        row.append(float(prefix.max()) / spec.strike)
    return np.array(row)


def feature_width(spec: OptionSpec) -> int:
    return 5 if spec.is_lookback else 4


def features_matrix(paths: np.ndarray, spec: OptionSpec,
                    cfg: VolConfig = VolConfig()) -> np.ndarray:
    """Vectorized ``features`` for every path and step: (B, n, width).

    Equality with the per-prefix routine is covered by tests; this is the
    path used for training batches.
    """
    paths = np.asarray(paths, dtype=np.float64)
    b, n_plus = paths.shape
    n = spec.maturity_days
    if n_plus != n + 1:
        raise ValueError("paths must have maturity_days + 1 samples")
    steps = np.arange(n)
    spots = paths[:, :n]

    r = np.diff(np.log(paths), axis=1)          # (B, n)
    csum = np.cumsum(r, axis=1)
    csq = np.cumsum(r * r, axis=1)
    counts = steps.astype(np.float64)           # returns available at step i
    vols = np.full((b, n), cfg.prior)
    have = counts > 0
    m1 = csum[:, :-1] / np.maximum(counts[1:], 1.0)
    m2 = csq[:, :-1] / np.maximum(counts[1:], 1.0)
    sd = np.sqrt(np.maximum(m2 - m1 * m1, 0.0)) * np.sqrt(ANNUAL_DAYS)
    w = np.minimum(counts[1:] / cfg.blend_min_returns, 1.0)
    vols[:, have] = w * sd + (1.0 - w) * cfg.prior
    vols = np.maximum(vols, cfg.floor)

    taus = (n - steps) / ANNUAL_DAYS            # (n,)
    deltas = np.empty((b, n))
    for i in range(n):
        deltas[:, i] = bs_delta(spots[:, i], spec.strike, vols[:, i], taus[i])

    cols = [spots / spec.strike, np.broadcast_to(taus, (b, n)), vols, deltas]
    if spec.is_lookback:
        cols.append(np.maximum.accumulate(paths, axis=1)[:, :n] / spec.strike)
    return np.stack(cols, axis=2)


def delta_hedge_baseline(path: np.ndarray, spec: OptionSpec, vol: float) -> np.ndarray:
    """Black-Scholes delta positions along a path at flat volatility ``vol``.

    Applied unchanged to lookback contracts as a deliberately naive
    baseline (European delta on the spot).
    """
    path = np.asarray(path, dtype=np.float64)
    n = spec.maturity_days
    taus = (n - np.arange(n)) / ANNUAL_DAYS
    out = np.empty(n)
    for i in range(n):
        out[i] = bs_delta(float(path[i]), spec.strike, vol, taus[i])
    return out


def delta_hedge_baseline_batch(paths: np.ndarray, spec: OptionSpec, vol: float) -> np.ndarray:
    paths = np.asarray(paths, dtype=np.float64)
    n = spec.maturity_days
    out = np.empty((paths.shape[0], n))
    for i in range(n):
        out[:, i] = bs_delta(paths[:, i], spec.strike, vol, (n - i) / ANNUAL_DAYS)
    return out


def write_outcomes_csv(path: str, outcomes: list[HedgeOutcome]) -> None:
    """Outcome batch as CSV rows path_id,payoff,gain,cost,pl."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "payoff", "gain", "cost", "pl"])
        for i, o in enumerate(outcomes):
            w.writerow([i, repr(float(o.payoff)), repr(float(o.trading_gain)),
                        repr(float(o.cost)), repr(float(o.pl))])
