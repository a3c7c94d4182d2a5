"""Empirical risk measures and indifference pricing.

Both measures are oriented as utilities (higher is better) and are
cash-invariant, u(x + c) = u(x) + c:

  * entropic:  u(x) = -(1/lam) * log(mean(exp(-lam * x))), computed with a
    max-shift so huge losses do not overflow the exponential;
  * expected shortfall: u(x) = mean of the ceil((1 - alpha) * m) smallest
    samples, ties broken by sample index.

Cash invariance makes the indifference equation u(PL + p) = u(0) = 0
solvable in closed form, p = -u(PL); ``indifference_price`` additionally
verifies the defining equation numerically.

``erm``, ``cvar`` and ``utility`` accept either a plain ndarray (pricing)
or an ``autodiff.Tensor`` (training), so the training loss literally
reuses the pricing formulas; ``indifference_price`` prices sample values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, data_of, exp, log, mean

ERM = "erm"
CVAR = "cvar"


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
    raw = data_of(samples)
    if raw.size == 0:
        raise ValueError("erm of an empty sample")
    y = samples * (-lam)
    shift = float(np.max(data_of(y)))  # constant shift; gradient is unaffected
    u = log(mean(exp(y - shift))) + shift
    return u * (-1.0 / lam)


def cvar(samples, alpha: float):
    """Lower-tail expectation: mean of the ceil((1-alpha) m) smallest samples."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("cvar requires 0 <= alpha < 1")
    raw = data_of(samples)
    if raw.size == 0:
        raise ValueError("cvar of an empty sample")
    m = raw.size
    k = math.ceil((1.0 - alpha) * m)
    if k < 1:
        raise ValueError("cvar tail is empty")
    order = np.argsort(raw, kind="stable")[:k]  # index order breaks ties
    if isinstance(samples, Tensor):
        return samples.take_rows(order).mean()
    return float(np.mean(raw[order]))


def utility(samples, measure: RiskMeasure):
    """Dispatch to the measure's utility; Tensor in, Tensor out."""
    if measure.kind == ERM:
        return erm(samples, measure.lam)
    return cvar(samples, measure.alpha)


def indifference_price(pl_samples, measure: RiskMeasure, verify: bool = True,
                       verify_tol: float = 1e-9) -> float:
    """Cash amount p solving u(PL + p) = u(0) = 0, i.e. p = -u(PL).

    ``verify=True`` re-evaluates the defining equation at the root and
    raises if cash invariance was violated numerically.
    """
    pl = data_of(pl_samples)
    price = -float(utility(pl, measure))
    if verify:
        residual = float(utility(pl + price, measure))
        scale = max(1.0, abs(price))
        if abs(residual) > verify_tol * scale:
            raise ArithmeticError(
                f"indifference equation residual {residual:.3e} exceeds tolerance"
            )
    return price
