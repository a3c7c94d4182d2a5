"""Option payoffs and the zero-rate Black-Scholes delta.

Only what the hedging experiments need: European and lookback calls on a
unit-normalized underlying, plus the Black-Scholes call delta used as a
policy feature and as the classical hedging baseline.  The risk-free
rate is zero throughout, so

    d1 = (ln(S/K) + vol^2 * tau / 2) / (vol * sqrt(tau))
    delta = N(d1)

with N from ``hedgelab.normal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normal import ndtr

EUROPEAN_CALL = "european_call"
LOOKBACK_CALL = "lookback_call"
_KINDS = (EUROPEAN_CALL, LOOKBACK_CALL)


@dataclass(frozen=True)
class OptionSpec:
    """Contract terms: payoff kind, strike and maturity in trading days."""

    kind: str = EUROPEAN_CALL
    strike: float = 1.0
    maturity_days: int = 20

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown option kind {self.kind!r}; expected one of {_KINDS}")
        if self.strike <= 0.0:
            raise ValueError("strike must be positive")
        if self.maturity_days < 1:
            raise ValueError("maturity_days must be >= 1")

    @property
    def is_lookback(self) -> bool:
        return self.kind == LOOKBACK_CALL


def payoff_batch(spec: OptionSpec, paths: np.ndarray) -> np.ndarray:
    """Terminal payoff of ``spec`` for each row of a (n_paths, n+1) matrix."""
    paths = np.asarray(paths, dtype=np.float64)
    if paths.ndim != 2 or paths.shape[1] != spec.maturity_days + 1:
        raise ValueError(
            f"paths shape {paths.shape} does not match maturity {spec.maturity_days} (+1 sample)"
        )
    if spec.is_lookback:
        ref = paths.max(axis=1)
    else:
        ref = paths[:, -1]
    return np.maximum(ref - spec.strike, 0.0)


def bs_delta(spot, strike, vol, tau_years):
    """Zero-rate Black-Scholes call delta N(d1), with intrinsic limits.

    ``vol`` and ``tau_years`` broadcast against ``spot``, so one call
    takes N of a whole (paths, steps) matrix.  Where tau_years = 0 the
    delta degenerates to the exercise indicator (1 in the money, 0 out,
    0.5 at the strike); a nonpositive spot has delta 0.
    """
    spot = np.asarray(spot, dtype=np.float64)
    scalar = spot.ndim == 0
    spot = np.atleast_1d(spot)
    tau = np.broadcast_to(tau_years, spot.shape)
    out = np.where(spot > strike, 1.0, np.where(spot < strike, 0.0, 0.5))
    running = tau > 0.0
    out[running] = 0.0
    live = running & (spot > 0.0)
    if live.any():
        v, t = np.broadcast_to(vol, spot.shape)[live], tau[live]
        d1 = np.log(spot[live] / strike)
        d1 += 0.5 * v * v * t
        d1 /= v * np.sqrt(t)
        out[live] = ndtr(d1)
    return float(out[0]) if scalar else out
