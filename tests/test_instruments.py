"""Payoff and zero-rate Black-Scholes oracles.

The ATM anchor bs_price(1, 1, 0.2, 0.08) = 0.0225646... is used across
the suite; here it is pinned against an independent numeric-integration
oracle (adaptive quadrature of the lognormal payoff expectation).  The
single-path payoff and bs_price live in _reference: only the tests use
them, to check payoff_batch and bs_delta.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from _reference import bs_price, payoff
from hedgelab.instruments import (EUROPEAN_CALL, LOOKBACK_CALL, OptionSpec,
                                  bs_delta, payoff_batch)


def _bs_price_quadrature(spot, strike, vol, tau):
    """E[max(S_T - K, 0)] with S_T = spot*exp(-vol^2 tau/2 + vol sqrt(tau) Z).

    Adaptive quadrature started exactly at the payoff kink, so the
    integrand is smooth and the estimate is good to ~1e-12 without
    touching the normal-CDF closed form it is meant to check.
    """
    sd = vol * np.sqrt(tau)
    mu = -0.5 * sd * sd
    z_star = (np.log(strike / spot) - mu) / sd

    def integrand(z):
        density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        return (spot * np.exp(mu + sd * z) - strike) * density

    val, _ = integrate.quad(integrand, z_star, z_star + 40.0)
    return float(val)


def test_spec_validation():
    with pytest.raises(ValueError):
        OptionSpec(kind="put")
    with pytest.raises(ValueError):
        OptionSpec(strike=0.0)
    with pytest.raises(ValueError):
        OptionSpec(maturity_days=0)
    assert OptionSpec(kind=LOOKBACK_CALL).is_lookback
    assert not OptionSpec(kind=EUROPEAN_CALL).is_lookback


def test_european_payoff_examples():
    spec = OptionSpec(EUROPEAN_CALL, strike=1.0, maturity_days=2)
    assert payoff(spec, np.array([1.0, 1.05, 0.9])) == 0.0
    assert payoff(spec, np.array([1.0, 0.9, 1.07])) == pytest.approx(0.07)


def test_lookback_payoff_example():
    spec = OptionSpec(LOOKBACK_CALL, strike=1.0, maturity_days=2)
    assert payoff(spec, np.array([1.0, 1.12, 0.95])) == pytest.approx(0.12)


def test_payoff_batch_matches_single():
    rng = np.random.default_rng(3)
    paths = 1.0 + 0.1 * rng.standard_normal((50, 21)).cumsum(axis=1) / 5.0
    paths = np.abs(paths) + 0.1
    for kind in (EUROPEAN_CALL, LOOKBACK_CALL):
        spec = OptionSpec(kind, strike=1.0, maturity_days=20)
        batch = payoff_batch(spec, paths)
        singles = np.array([payoff(spec, p) for p in paths])
        np.testing.assert_array_equal(batch, singles)


def test_payoff_length_validation():
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=20)
    with pytest.raises(ValueError):
        payoff(spec, np.ones(5))
    with pytest.raises(ValueError):
        payoff_batch(spec, np.ones((3, 5)))


def test_bs_atm_anchor():
    # 20-day ATM call at 20% vol; the closed form reduces to
    # 2*N(sigma*sqrt(tau)/2) - 1 = 0.02256457...; the commonly quoted
    # 0.022566 is that value rounded through intermediate tables
    price = bs_price(1.0, 1.0, 0.2, 20.0 / 250.0)
    assert price == pytest.approx(0.022566, abs=2e-6)
    assert price == pytest.approx(_bs_price_quadrature(1.0, 1.0, 0.2, 0.08),
                                  abs=1e-9)
    assert bs_delta(1.0, 1.0, 0.2, 0.08) == pytest.approx(0.51128, abs=5e-6)


def test_bs_intrinsic_limits():
    assert bs_price(1.2, 1.0, 0.2, 0.0) == pytest.approx(0.2)
    assert bs_delta(1.2, 1.0, 0.2, 0.0) == 1.0
    assert bs_delta(0.8, 1.0, 0.2, 0.0) == 0.0
    assert bs_delta(1.0, 1.0, 0.2, 0.0) == 0.5
    assert bs_price(0.0, 1.0, 0.2, 0.08) == 0.0
    assert bs_delta(0.0, 1.0, 0.2, 0.08) == 0.0


def test_bs_array_arguments():
    spots = np.array([0.0, 0.8, 1.0, 1.3])
    prices = bs_price(spots, 1.0, 0.2, 0.08)
    deltas = bs_delta(spots, 1.0, 0.2, 0.08)
    assert prices.shape == deltas.shape == (4,)
    for s, p, d in zip(spots, prices, deltas):
        assert p == pytest.approx(bs_price(float(s), 1.0, 0.2, 0.08))
        assert d == pytest.approx(bs_delta(float(s), 1.0, 0.2, 0.08))


@given(st.floats(0.3, 3.0), st.floats(0.05, 0.8), st.floats(0.01, 1.0))
def test_delta_is_price_derivative(spot, vol, tau):
    h = 1e-6 * spot
    fd = (bs_price(spot + h, 1.0, vol, tau)
          - bs_price(spot - h, 1.0, vol, tau)) / (2.0 * h)
    assert bs_delta(spot, 1.0, vol, tau) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@given(st.floats(0.0, 3.0), st.floats(0.05, 0.8), st.floats(0.0, 1.0))
def test_price_bounds(spot, vol, tau):
    p = bs_price(spot, 1.0, vol, tau)
    assert max(spot - 1.0, 0.0) - 1e-12 <= p <= spot + 1e-12


@given(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
def test_payoffs_nonnegative_and_monotone(prices):
    spec_e = OptionSpec(EUROPEAN_CALL, maturity_days=2)
    spec_l = OptionSpec(LOOKBACK_CALL, maturity_days=2)
    path = np.asarray(prices)
    assert payoff(spec_e, path) >= 0.0
    assert payoff(spec_l, path) >= 0.0
    bumped = path.copy()
    bumped[-1] += 0.1
    assert payoff(spec_e, bumped) >= payoff(spec_e, path)
    assert payoff(spec_l, path + 0.1) >= payoff(spec_l, path)
