"""Hedging profit-and-loss accounting and policy features.

The per-path decomposition is

    pl = -payoff + trading_gain - cost
    trading_gain = sum_i delta_i * (S_{i+1} - S_i),            i = 0..n-1
    cost = c * sum_i S_i * |delta_i - delta_{i-1}|,            i = 0..n

with the boundary positions delta_{-1} = delta_n = 0, i.e. the hedge is
entered from flat and force-liquidated at maturity.  ``pl_core`` states
the formula once, for the training loss and the reported outcomes alike;
``neuralnet.minibatch_loss`` differentiates it in closed form through
``position_change_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import OptionSpec, bs_delta

ANNUAL_DAYS = 250


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
    """PL of a batch.

    paths: (B, n+1) prices, payoffs: (B,) option payoffs, deltas: (B, n).
    Returns (pl, trading_gain, cost) with shapes (B,).
    """
    ds = paths[:, 1:] - paths[:, :-1]
    gain = (deltas * ds).sum(axis=1)
    if cost_rate != 0.0:
        changes = deltas @ position_change_matrix(deltas.shape[1]).T
        cost = (np.abs(changes) * paths).sum(axis=1) * cost_rate
    else:
        cost = np.zeros(paths.shape[0])
    # associate exactly as the decomposition identity states it
    pl = -payoffs + gain - cost
    return pl, gain, cost


def feature_width(spec: OptionSpec) -> int:
    return 5 if spec.is_lookback else 4


def features_matrix(paths: np.ndarray, spec: OptionSpec,
                    cfg: VolConfig = VolConfig()) -> np.ndarray:
    """Policy features for every path and step before maturity: (B, n, width).

    Row (b, i) sees prices S_0..S_i only.  Order: moneyness, time to
    maturity (years), trailing realized vol, BS delta at that vol, plus
    running max moneyness for lookback contracts.  The vol is the
    annualized std of the log returns so far, blended toward ``cfg.prior``
    while fewer than ``cfg.blend_min_returns`` exist and floored at
    ``cfg.floor``.  The tests check it against a per-prefix reference.
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
