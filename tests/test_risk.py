"""Risk measure oracles and the cash-invariance law behind indifference pricing.

Frozen values are hand-derived:
  erm({+1,-1}, lam=1) = -ln((e + 1/e)/2) = -ln cosh 1
  cvar({-3,-1,0,2}, 0.75): tail size ceil(0.25*4) = 1  -> -3
  cvar({-1,-1,5}, 0.5):    tail size ceil(1.5)    = 2  -> -1
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _reference import reference_minibatch_loss
from hedgelab.hedge_core import features_matrix
from hedgelab.instruments import OptionSpec
from hedgelab.neuralnet import MlpPolicy, minibatch_loss
from hedgelab.risk import RiskMeasure, cvar, erm, indifference_price, utility

samples_arrays = hnp.arrays(
    np.float64, st.integers(1, 60),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


def test_erm_of_constant_is_the_constant():
    assert erm(np.full(7, 3.25), lam=2.0) == pytest.approx(3.25, abs=1e-12)


def test_erm_plus_minus_one_oracle():
    u = erm(np.array([1.0, -1.0]), lam=1.0)
    assert u == pytest.approx(-math.log(math.cosh(1.0)), abs=1e-10)


def test_erm_small_lambda_approaches_mean():
    u = erm(np.array([0.0, 2.0]), lam=1e-6)
    assert u == pytest.approx(1.0, abs=1e-4)


def test_erm_max_shift_survives_huge_losses():
    # naive exp(lam * 1e4) overflows; the shifted form must not
    u = erm(np.array([-1e4, -1e4 + 1.0]), lam=2.0)
    assert np.isfinite(u)
    assert -1e4 <= u <= -1e4 + 1.0


def test_cvar_alpha_zero_is_the_mean():
    x = np.array([-3.0, -1.0, 0.0, 2.0])
    assert cvar(x, alpha=0.0) == pytest.approx(x.mean(), abs=1e-12)


def test_cvar_sort_oracles():
    assert cvar(np.array([-3.0, -1.0, 0.0, 2.0]), 0.75) == pytest.approx(-3.0)
    assert cvar(np.array([-1.0, -1.0, 5.0]), 0.5) == pytest.approx(-1.0)


def test_cvar_tie_break_is_sample_order():
    # duplicated minimum PL: the training gradient must reach the earlier
    # path only, as the reference engine's stable sort does.  The zero
    # head holds no position, so PL = -payoff exactly, while each path's
    # price moves give it its own gradient.
    spec = OptionSpec("european_call", maturity_days=5)
    measure = RiskMeasure("cvar", alpha=0.75)  # tail size 1 of 4
    paths = np.exp(np.cumsum(np.random.default_rng(0).normal(
        0.0, 0.01, (4, 6)), axis=1))
    policy = MlpPolicy(4, seed=0)
    feats = features_matrix(paths, spec)

    def grads(payoffs, loss_fn=minibatch_loss):
        loss = loss_fn(policy, feats, paths, np.array(payoffs), measure, 0.0)
        assert loss.value == 2.0
        return b"".join(g.tobytes() for g in loss.backward())

    tied = grads([-5.0, 2.0, 2.0, -7.0])  # PL 5, -2, -2, 7
    assert tied == grads([-5.0, 2.0, 2.0, -7.0], reference_minibatch_loss)
    assert tied == grads([-5.0, 2.0, 1.5, -7.0])
    assert tied != grads([-5.0, 1.5, 2.0, -7.0])


def test_validation_errors():
    with pytest.raises(ValueError):
        erm(np.array([1.0]), lam=0.0)
    with pytest.raises(ValueError):
        cvar(np.array([1.0]), alpha=1.0)
    with pytest.raises(ValueError):
        erm(np.array([]), lam=1.0)
    with pytest.raises(ValueError):
        cvar(np.array([]), alpha=0.5)
    with pytest.raises(ValueError):
        RiskMeasure("quantile")
    with pytest.raises(ValueError):
        RiskMeasure("erm", lam=-1.0)
    with pytest.raises(ValueError):
        RiskMeasure("cvar", alpha=1.0)


def test_measure_labels():
    assert RiskMeasure("erm", lam=1.0).label() == "erm(lambda=1)"
    assert RiskMeasure("erm", lam=10.0).label() == "erm(lambda=10)"
    assert RiskMeasure("cvar", alpha=0.95).label() == "cvar(alpha=0.95)"


@given(samples_arrays, st.floats(0.1, 5.0), st.floats(-50.0, 50.0))
def test_erm_cash_invariance(x, lam, c):
    assert erm(x + c, lam) == pytest.approx(erm(x, lam) + c, abs=1e-10)


@given(samples_arrays, st.floats(0.0, 0.99), st.floats(-50.0, 50.0))
def test_cvar_cash_invariance(x, alpha, c):
    assert cvar(x + c, alpha) == pytest.approx(cvar(x, alpha) + c, abs=1e-10)


@given(samples_arrays, st.floats(0.1, 5.0))
def test_erm_below_mean(x, lam):
    assert erm(x, lam) <= x.mean() + 1e-9


@given(samples_arrays, st.floats(0.0, 0.99))
def test_cvar_below_mean(x, alpha):
    assert cvar(x, alpha) <= x.mean() + 1e-9


@given(samples_arrays)
def test_cvar_nonincreasing_in_alpha(x):
    values = [cvar(x, a) for a in (0.0, 0.5, 0.9, 0.95)]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-12


@given(samples_arrays, st.floats(0.1, 4.0))
def test_erm_monotone_in_samples(x, lam):
    bumped = x.copy()
    bumped[0] += 1.0
    assert erm(bumped, lam) >= erm(x, lam) - 1e-12


def test_utility_dispatch():
    x = np.array([1.0, -1.0])
    assert utility(x, RiskMeasure("erm", lam=1.0)) == pytest.approx(
        -math.log(math.cosh(1.0)))
    assert utility(x, RiskMeasure("cvar", alpha=0.5)) == pytest.approx(-1.0)


def test_indifference_price_certain_loss():
    assert indifference_price(np.full(9, -0.05),
                              RiskMeasure("erm", lam=3.0)) == pytest.approx(0.05)
    assert indifference_price(np.full(9, -0.05),
                              RiskMeasure("cvar", alpha=0.9)) == pytest.approx(0.05)


def test_indifference_price_oracles():
    pl = np.array([1.0, -1.0])
    p = indifference_price(pl, RiskMeasure("erm", lam=1.0))
    assert p == pytest.approx(math.log(math.cosh(1.0)), abs=1e-10)
    p = indifference_price(np.array([-3.0, -1.0, 0.0, 2.0]),
                           RiskMeasure("cvar", alpha=0.75))
    assert p == pytest.approx(3.0, abs=1e-12)


@given(samples_arrays)
def test_indifference_root_verified(x):
    # verify=True recomputes u(PL + p) and raises on residual; any sample
    # set that survives has the defining equation satisfied numerically
    for measure in (RiskMeasure("erm", lam=1.0), RiskMeasure("cvar", alpha=0.9)):
        p = indifference_price(x, measure, verify=True)
        assert np.isfinite(p)
