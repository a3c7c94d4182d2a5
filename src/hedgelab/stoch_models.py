"""Classical underlying-asset simulators: per-step GBM and Heston via QE-M.

GBM uses the arithmetic difference step

    S_{i+1} = S_i * (1 + mu*dt + sigma*sqrt(dt)*eps_i),

with annualized (mu, sigma) and dt = ``DT``, one trading day in years
(the Heston step too); the rare path touching a nonpositive price is
regenerated and counted.

The Heston variance follows the quadratic-exponential scheme: given the
conditional mean m and variance s2 of V_{t+dt} | V_t, the regime switch
on psi = s2/m^2 picks either the moment-matched quadratic V' = a(b+Z)^2
(psi <= 1.5) or the exponential-tail inverse CDF.  The log-price update
uses the martingale-corrected drift K0* so E[S_{t+dt} | S_t, V_t] = S_t
exactly at zero rates; correlation enters through the usual K1..K4
decomposition with central weighting (gamma1 = gamma2 = 1/2).

``_qe_step`` makes that regime split once per step and returns both the
next variance and the conditional moment E[exp(A * V')] that K0* needs,
from one set of branch quantities (b^2, a; p, beta).  The quadratic
branch's Z is N^-1(u) of the step's uniform; ``heston_paths`` draws the
uniforms and normals of up to ``DRAW_AHEAD`` values' worth of steps at
once, in the per-step order, and takes ``normal.ndtri`` of them in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hedge_core import ANNUAL_DAYS
from .normal import ndtri

# the step of both simulators: one trading day, in years
DT = 1.0 / ANNUAL_DAYS
PSI_SWITCH = 1.5
# heston_paths draws max(1, DRAW_AHEAD // n_paths) steps' uniforms and
# normals at a time, which bounds that scratch for large path sets
DRAW_AHEAD = 1 << 16
_GAMMA1 = 0.5
_GAMMA2 = 0.5


@dataclass(frozen=True)
class GbmParams:
    mu: float = 0.0
    sigma: float = 0.2
    n_steps: int = 20

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass(frozen=True)
class HestonParams:
    """CIR variance parameters and the price-variance correlation."""

    kappa: float = 1.0
    theta: float = 0.04
    v0: float = 0.04
    vol_of_vol: float = 0.2
    rho: float = -0.7
    n_steps: int = 20

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if self.theta <= 0.0 or self.v0 <= 0.0:
            raise ValueError("theta and v0 must be positive")
        if self.vol_of_vol <= 0.0:
            raise ValueError("vol_of_vol must be positive")
        if abs(self.rho) > 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def gbm_paths(params: GbmParams, n_paths: int, seed: int,
              return_regen_count: bool = False):
    """Simulate ``n_paths`` GBM paths of shape (n_paths, n_steps+1), S_0 = 1.

    (params, seed) fully determine the output.  Paths touching a price
    <= 0 are redrawn; set ``return_regen_count`` to also get how many.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.default_rng(seed)
    drift = 1.0 + params.mu * DT
    scale = params.sigma * np.sqrt(DT)
    regenerated = 0
    factors = drift + scale * rng.standard_normal((n_paths, params.n_steps))
    bad = (factors <= 0.0).any(axis=1)
    while bad.any():
        regenerated += int(bad.sum())
        factors[bad] = drift + scale * rng.standard_normal((int(bad.sum()), params.n_steps))
        bad = (factors <= 0.0).any(axis=1)
    paths = np.empty((n_paths, params.n_steps + 1))
    paths[:, 0] = 1.0
    np.cumprod(factors, axis=1, out=paths[:, 1:])
    if return_regen_count:
        return paths, regenerated
    return paths


def _qe_step(v: np.ndarray, m: np.ndarray, s2: np.ndarray, u: np.ndarray,
             zv: np.ndarray, a_coef: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One QE update of the variance given uniforms ``u`` and their
    normal quantiles ``zv`` = N^-1(u), and E[exp(a_coef * V')] for the
    branch each path takes; vectorized.

    Returns (v_next, moment, valid); invalid entries (outside the
    branch's moment domain, which the tuning grids never reach) signal a
    fallback to the uncorrected drift.
    """
    v_next = np.zeros_like(v)
    moment = np.ones_like(m)
    valid = np.ones(m.shape, dtype=bool)
    alive = m > 0.0  # absorbed-at-zero paths (kappa = 0, V = 0) stay put
    psi = np.ones_like(v)
    np.divide(s2, m * m, out=psi, where=alive)

    quad = alive & (psi <= PSI_SWITCH)
    if quad.any():
        inv_psi = 1.0 / psi[quad]
        b2 = 2.0 * inv_psi - 1.0 + np.sqrt(2.0 * inv_psi) * np.sqrt(2.0 * inv_psi - 1.0)
        a = m[quad] / (1.0 + b2)
        v_next[quad] = a * (np.sqrt(b2) + zv[quad]) ** 2
        denom = 1.0 - 2.0 * a_coef * a
        ok = denom > 0.0
        mom = np.ones_like(a)
        mom[ok] = np.exp(a_coef * a[ok] * b2[ok] / denom[ok]) / np.sqrt(denom[ok])
        moment[quad] = mom
        valid[quad] = ok

    expo = alive & (psi > PSI_SWITCH)
    if expo.any():
        p = (psi[expo] - 1.0) / (psi[expo] + 1.0)
        beta = (1.0 - p) / m[expo]
        uu = u[expo]
        draw = np.zeros_like(uu)
        tail = uu > p
        draw[tail] = np.log((1.0 - p[tail]) / (1.0 - uu[tail])) / beta[tail]
        v_next[expo] = draw
        ok = beta > a_coef
        mom = np.ones_like(p)
        mom[ok] = p[ok] + beta[ok] * (1.0 - p[ok]) / (beta[ok] - a_coef)
        moment[expo] = mom
        valid[expo] = ok
    return v_next, moment, valid


def _draw(rng: np.random.Generator, steps: int, n_paths: int):
    """(steps, n_paths) uniforms and normals, drawn step by step in the
    order the scheme consumes them: a step's uniforms, then its normals."""
    us, zs = np.empty((steps, n_paths)), np.empty((steps, n_paths))
    for j in range(steps):
        rng.random(out=us[j])
        rng.standard_normal(out=zs[j])
    return us, zs


def heston_paths(params: HestonParams, n_paths: int, seed: int,
                 return_variance: bool = False):
    """Simulate Heston price paths (n_paths, n_steps+1) with the QE-M scheme.

    S_0 = 1; the variance stays nonnegative by construction.  With
    ``return_variance`` the (n_paths, n_steps+1) variance paths come too.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.default_rng(seed)
    kappa, theta, sv, rho = (params.kappa, params.theta, params.vol_of_vol,
                             params.rho)

    if kappa > 0.0:
        ekd = np.exp(-kappa * DT)
        c1 = sv * sv * ekd * (1.0 - ekd) / kappa
        c2 = theta * sv * sv * (1.0 - ekd) ** 2 / (2.0 * kappa)
    else:
        ekd = 1.0
        c1 = sv * sv * DT  # kappa -> 0 limit of the conditional variance
        c2 = 0.0

    k1 = _GAMMA1 * DT * (kappa * rho / sv - 0.5) - rho / sv
    k2 = _GAMMA2 * DT * (kappa * rho / sv - 0.5) + rho / sv
    k3 = _GAMMA1 * DT * (1.0 - rho * rho)
    k4 = _GAMMA2 * DT * (1.0 - rho * rho)
    a_coef = k2 + 0.5 * k4

    log_s = np.zeros(n_paths)
    v = np.full(n_paths, params.v0)
    prices = np.empty((n_paths, params.n_steps + 1))
    prices[:, 0] = 1.0
    variances = None
    if return_variance:
        variances = np.empty((n_paths, params.n_steps + 1))
        variances[:, 0] = params.v0

    group = max(1, DRAW_AHEAD // n_paths)
    for step in range(params.n_steps):
        j = step % group
        if j == 0:
            us, zs = _draw(rng, min(group, params.n_steps - step), n_paths)
            quantiles = ndtri(us)
        m = theta + (v - theta) * ekd
        s2 = v * c1 + c2
        v_next, moment, valid = _qe_step(v, m, s2, us[j], quantiles[j], a_coef)
        k0_star = -np.log(moment) - (k1 + 0.5 * k3) * v
        # outside the moment's domain fall back to the uncorrected drift
        if not valid.all():
            k0_plain = -rho * kappa * theta * DT / sv
            k0_star = np.where(valid, k0_star, k0_plain)

        log_s = log_s + k0_star + k1 * v + k2 * v_next + np.sqrt(k3 * v + k4 * v_next) * zs[j]
        v = v_next
        prices[:, step + 1] = np.exp(log_s)
        if return_variance:
            variances[:, step + 1] = v

    if return_variance:
        return prices, variances
    return prices
