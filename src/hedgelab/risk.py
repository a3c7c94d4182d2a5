"""Empirical risk measures and indifference pricing.

Both measures are oriented as utilities (higher is better) and are
cash-invariant, u(x + c) = u(x) + c:

  * entropic:  u(x) = -(1/lam) * log(mean(exp(-lam * x))), computed with a
    max-shift so huge losses do not overflow the exponential;
  * expected shortfall: u(x) = mean of the ceil((1 - alpha) * m) smallest
    samples, ties broken by sample index.

Cash invariance makes the indifference equation u(PL + p) = u(0) = 0
solvable in closed form, p = -u(PL); ``indifference_price`` always
verifies the defining equation numerically, to ``VERIFY_TOL``.

``erm``, ``cvar``, ``utility`` and ``indifference_price`` take sample
arrays.  The training loss (``neuralnet.minibatch_loss``) differentiates
the same two measures in closed form and takes its CVaR tail from
``cvar_tail``; its ERM averages as ``sum * (1/m)``, where ``erm`` calls
``np.mean``, so the two may differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ERM = "erm"
CVAR = "cvar"
VERIFY_TOL = 1e-9  # indifference_price's residual bound, relative


@dataclass(frozen=True)
class RiskMeasure:
    """Tagged measure: kind 'erm' with lambda > 0 or 'cvar' with 0 <= alpha < 1."""

    kind: str
    lam: float = 1.0
    alpha: float = 0.95

    def __post_init__(self):
        if self.kind == ERM:
            if self.lam <= 0.0:
                raise ValueError("erm requires lambda > 0")
        elif self.kind == CVAR:
            if not (0.0 <= self.alpha < 1.0):
                raise ValueError("cvar requires 0 <= alpha < 1")
        else:
            raise ValueError(f"unknown risk measure kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == ERM:
            return f"erm(lambda={self.lam:g})"
        return f"cvar(alpha={self.alpha:g})"


def erm(samples, lam: float):
    """Entropic utility -(1/lam) log mean exp(-lam x) with max-shift."""
    if lam <= 0.0:
        raise ValueError("erm requires lambda > 0")
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("erm of an empty sample")
    y = x * (-lam)
    shift = float(np.max(y))
    return (np.log(np.mean(np.exp(y - shift))) + shift) * (-1.0 / lam)


def cvar_tail(samples: np.ndarray, alpha: float) -> np.ndarray:
    """Indices of the ceil((1-alpha) m) smallest samples, ties broken by
    sample index."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("cvar requires 0 <= alpha < 1")
    if samples.size == 0:
        raise ValueError("cvar of an empty sample")
    k = math.ceil((1.0 - alpha) * samples.size)
    if k < 1:
        raise ValueError("cvar tail is empty")
    return np.argsort(samples, kind="stable")[:k]


def cvar(samples, alpha: float):
    """Lower-tail expectation: mean of the ceil((1-alpha) m) smallest samples."""
    x = np.asarray(samples, dtype=np.float64)
    return float(np.mean(x[cvar_tail(x, alpha)]))


def utility(samples, measure: RiskMeasure):
    """The utility of ``samples`` under ``measure``."""
    if measure.kind == ERM:
        return erm(samples, measure.lam)
    return cvar(samples, measure.alpha)


def indifference_price(pl_samples, measure: RiskMeasure) -> float:
    """Cash amount p solving u(PL + p) = u(0) = 0, i.e. p = -u(PL).

    Re-evaluates the defining equation at the root and raises if cash
    invariance was violated numerically, beyond ``VERIFY_TOL`` relative
    to max(1, |p|).
    """
    pl = np.asarray(pl_samples, dtype=np.float64)
    price = -float(utility(pl, measure))
    residual = float(utility(pl + price, measure))
    if abs(residual) > VERIFY_TOL * max(1.0, abs(price)):
        raise ArithmeticError(
            f"indifference equation residual {residual:.3e} exceeds tolerance"
        )
    return price
