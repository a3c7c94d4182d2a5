"""Simulator moment oracles for per-step GBM and the QE-M Heston scheme.

Closed forms used:
  deterministic compounding  S_T = (1 + mu*DT)^n  when sigma ~ 0
  CIR mean                   E[V_T] = theta + (V_0 - theta) e^{-kappa T}
  martingale property        E[S_T] = 1 at zero rates (both models)
"""

import numpy as np
import pytest
from scipy.special import ndtri

from _reference import heston_paths_stepwise, qe_exp_moment, qe_variance_step
from hedgelab.hedge_core import ANNUAL_DAYS
from hedgelab.stoch_models import (DRAW_AHEAD, PSI_SWITCH, GbmParams,
                                   HestonParams, _qe_step, gbm_paths,
                                   heston_paths)


def test_gbm_validation():
    with pytest.raises(ValueError):
        GbmParams(sigma=0.0)
    with pytest.raises(ValueError):
        GbmParams(n_steps=0)
    with pytest.raises(ValueError):
        gbm_paths(GbmParams(), 0, seed=0)


def test_gbm_degenerate_vol_is_deterministic():
    params = GbmParams(mu=0.0, sigma=1e-14, n_steps=20)
    paths = gbm_paths(params, 4, seed=0)
    np.testing.assert_allclose(paths, 1.0, atol=1e-10)

    params = GbmParams(mu=0.25, sigma=1e-14, n_steps=20)
    paths = gbm_paths(params, 4, seed=0)
    expect = (1.0 + 0.25 / 250.0) ** 20  # 1.02019...
    assert expect == pytest.approx(1.02019, abs=5e-6)
    np.testing.assert_allclose(paths[:, -1], expect, rtol=1e-9)


def test_gbm_martingale_and_variance():
    params = GbmParams(mu=0.0, sigma=0.2, n_steps=20)
    paths = gbm_paths(params, 100_000, seed=7)
    st = paths[:, -1]
    stderr = st.std(ddof=1) / np.sqrt(st.size)
    assert abs(st.mean() - 1.0) < 3.0 * stderr

    logret = np.log(st)
    target = 0.2 ** 2 * 20.0 / 250.0
    var = logret.var(ddof=1)
    var_stderr = var * np.sqrt(2.0 / (logret.size - 1))
    # per-step arithmetic scheme: log-variance matches sigma^2 T to O(sigma^2 dt)
    assert abs(var - target) < 3.0 * var_stderr + target * 2e-3


def test_gbm_determinism_and_shape():
    params = GbmParams(mu=0.05, sigma=0.3, n_steps=15)
    a = gbm_paths(params, 50, seed=42)
    b = gbm_paths(params, 50, seed=42)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, 16)
    np.testing.assert_array_equal(a[:, 0], 1.0)
    assert np.all(a > 0.0)


def test_gbm_redraw_counts_nonpositive_factors():
    # enormous per-step vol (4 per one-day step) forces price-crossing
    # draws to be rejected
    params = GbmParams(mu=0.0, sigma=4.0 * ANNUAL_DAYS ** 0.5, n_steps=10)
    paths, regen = gbm_paths(params, 200, seed=3, return_regen_count=True)
    assert regen > 0
    assert np.all(paths > 0.0)


def test_heston_validation():
    with pytest.raises(ValueError):
        HestonParams(kappa=-0.1)
    with pytest.raises(ValueError):
        HestonParams(theta=0.0)
    with pytest.raises(ValueError):
        HestonParams(vol_of_vol=0.0)
    with pytest.raises(ValueError):
        HestonParams(rho=-1.5)


def test_heston_cir_mean_and_martingale():
    params = HestonParams(kappa=1.0, theta=0.04, v0=0.09, vol_of_vol=0.2,
                          rho=-0.7, n_steps=20)
    prices, variances = heston_paths(params, 100_000, seed=11,
                                     return_variance=True)
    t = 20.0 / 250.0
    expect_v = 0.04 + (0.09 - 0.04) * np.exp(-1.0 * t)
    vt = variances[:, -1]
    v_stderr = vt.std(ddof=1) / np.sqrt(vt.size)
    assert abs(vt.mean() - expect_v) < 3.0 * v_stderr

    st = prices[:, -1]
    s_stderr = st.std(ddof=1) / np.sqrt(st.size)
    assert abs(st.mean() - 1.0) < 3.0 * s_stderr


def test_heston_variance_nonnegative_everywhere():
    params = HestonParams(kappa=0.5, theta=0.01, v0=0.002, vol_of_vol=1.0,
                          rho=-0.9, n_steps=50)
    prices, variances = heston_paths(params, 2_000, seed=5,
                                     return_variance=True)
    assert np.all(variances >= 0.0)
    assert np.all(np.isfinite(prices))


def test_heston_exponential_branch_keeps_martingale():
    # psi = s2/m^2 ~ sigma_v^2/(2 kappa theta) >> 1.5 near V = 0: the
    # exponential-tail branch dominates and the drift correction must
    # still center S_T at 1
    params = HestonParams(kappa=0.5, theta=0.01, v0=0.001, vol_of_vol=1.0,
                          rho=-0.5, n_steps=20)
    prices = heston_paths(params, 100_000, seed=13)
    st = prices[:, -1]
    stderr = st.std(ddof=1) / np.sqrt(st.size)
    assert abs(st.mean() - 1.0) < 3.0 * stderr


def test_heston_kappa_zero_limit():
    params = HestonParams(kappa=0.0, theta=0.04, v0=0.04, vol_of_vol=0.3,
                          rho=0.0, n_steps=20)
    prices, variances = heston_paths(params, 50_000, seed=17,
                                     return_variance=True)
    # kappa = 0: V is a martingale, E[V_T] = V_0
    vt = variances[:, -1]
    v_stderr = vt.std(ddof=1) / np.sqrt(vt.size)
    assert abs(vt.mean() - 0.04) < 3.0 * v_stderr
    st = prices[:, -1]
    s_stderr = st.std(ddof=1) / np.sqrt(st.size)
    assert abs(st.mean() - 1.0) < 3.0 * s_stderr


def test_heston_degenerate_vol_of_vol_reduces_to_gbm():
    # sigma_v -> 0 with V_0 = theta freezes variance at theta; the paths
    # should match lognormal GBM with sigma = sqrt(theta) in distribution
    params = HestonParams(kappa=1.0, theta=0.04, v0=0.04, vol_of_vol=1e-8,
                          rho=0.0, n_steps=20)
    prices, variances = heston_paths(params, 50_000, seed=23,
                                     return_variance=True)
    np.testing.assert_allclose(variances, 0.04, atol=1e-6)
    r = np.log(prices[:, -1])
    t = 20.0 / 250.0
    # exact lognormal moments at frozen variance
    assert r.mean() == pytest.approx(-0.5 * 0.04 * t, abs=3 * r.std() / np.sqrt(r.size))
    assert r.var(ddof=1) == pytest.approx(0.04 * t, rel=0.03)


def test_heston_determinism():
    params = HestonParams()
    a = heston_paths(params, 64, seed=9)
    b = heston_paths(params, 64, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64, 21)
    np.testing.assert_array_equal(a[:, 0], 1.0)


def test_qe_step_equals_the_two_pass_reference():
    # conditional means (0 is an absorbed path) times psi = s2/m^2 on
    # both sides of the switch, each with uniforms below and above the
    # exponential branch's atom p; a_coef from negative to past both
    # branches' moment domains (1 - 2 a_coef a <= 0, beta <= a_coef)
    m_grid, psi_grid = np.meshgrid([0.0, 1e-3, 0.04, 0.5, 2.0],
                                   [0.05, 0.7, 1.0, PSI_SWITCH, 1.6, 3.0, 40.0])
    m = np.tile(m_grid.ravel(), 8)
    s2 = np.tile((psi_grid * m_grid * m_grid).ravel(), 8)
    u = np.random.default_rng(0).random(m.size)
    v = np.random.default_rng(1).random(m.size)
    alive = m > 0.0
    psi = np.divide(s2, m * m, out=np.ones_like(m), where=alive)
    quad, expo = alive & (psi <= PSI_SWITCH), alive & (psi > PSI_SWITCH)
    p = (psi - 1.0) / (psi + 1.0)
    assert (expo & (u <= p)).any() and (expo & (u > p)).any()
    seen = {"quad_invalid": False, "expo_invalid": False}
    for a_coef in (-3.0, 0.0, 0.6, 60.0, 1e4):
        v_next, moment, valid = _qe_step(v, m, s2, u, ndtri(u), a_coef)
        ref_v = qe_variance_step(v, m, s2, u)
        ref_moment, ref_valid = qe_exp_moment(a_coef, m, s2)
        assert v_next.tobytes() == ref_v.tobytes(), a_coef
        assert moment.tobytes() == ref_moment.tobytes(), a_coef
        assert np.array_equal(valid, ref_valid), a_coef
        assert np.all(v_next[~alive] == 0.0) and np.all(valid[~alive])
        seen["quad_invalid"] |= bool((quad & ~valid).any())
        seen["expo_invalid"] |= bool((expo & ~valid).any())
    assert seen == {"quad_invalid": True, "expo_invalid": True}


@pytest.mark.parametrize("params", [
    HestonParams(),                   # the heston-table set
    HestonParams(vol_of_vol=1.5),     # psi past the switch: exponential branch
    HestonParams(kappa=0.0),
    HestonParams(rho=0.0),
], ids=["table", "vol_of_vol_1.5", "kappa_0", "rho_0"])
def test_heston_paths_equal_the_step_by_step_reference(params):
    # one draw group holding every step, groups that split the steps
    # unevenly, and one step per group
    sizes = (1, 3000, DRAW_AHEAD // 13, DRAW_AHEAD + 1)
    assert [max(1, DRAW_AHEAD // n) for n in sizes[1:]] == [21, 13, 1]
    for n in sizes:
        prices, variances = heston_paths(params, n, seed=n, return_variance=True)
        ref_prices, ref_variances = heston_paths_stepwise(params, n, n)
        assert prices.tobytes() == ref_prices.tobytes(), n
        assert variances.tobytes() == ref_variances.tobytes(), n
        assert heston_paths(params, n, seed=n).tobytes() == ref_prices.tobytes(), n
    if params.vol_of_vol == 1.5:
        # the exponential branch's atom: a live path drawn to exactly 0
        assert (variances[:, 1:] == 0.0).any()
