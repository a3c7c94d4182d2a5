"""PL decomposition identity, policy features, and the delta baseline.

Hand-traced oracle, path (1.0, 1.1, 0.9), deltas (0.5, 0.5), K = 1:
  gain = 0.5*0.1 + 0.5*(-0.2) = -0.05, payoff = 0
  c=0.01: cost = 0.01*(1.0*0.5 + 1.1*0 + 0.9*0.5) = 0.0095 -> pl = -0.0595
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (compute_pl, compute_pl_batch, delta_hedge_baseline,
                        delta_hedge_baseline_batch, features, realized_vol,
                        write_outcomes_csv)
from hedgelab.hedge_core import (VolConfig, feature_width, features_matrix,
                                 position_change_matrix)
from hedgelab.instruments import (EUROPEAN_CALL, LOOKBACK_CALL, OptionSpec,
                                  bs_delta, payoff_batch)

SPEC2 = OptionSpec(EUROPEAN_CALL, strike=1.0, maturity_days=2)


def test_hand_traced_outcome():
    path = np.array([1.0, 1.1, 0.9])
    deltas = np.array([0.5, 0.5])
    out = compute_pl(path, deltas, SPEC2, cost_rate=0.0)
    assert out.payoff == 0.0
    assert out.trading_gain == pytest.approx(-0.05)
    assert out.cost == 0.0
    assert out.pl == pytest.approx(-0.05)

    out = compute_pl(path, deltas, SPEC2, cost_rate=0.01)
    assert out.cost == pytest.approx(0.0095)
    assert out.pl == pytest.approx(-0.0595)


def test_zero_deltas_give_negated_payoff():
    rng = np.random.default_rng(1)
    paths = np.abs(1.0 + 0.02 * rng.standard_normal((200, 21)).cumsum(axis=1))
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=20)
    pl = compute_pl_batch(paths, np.zeros((200, 20)), spec, cost_rate=0.02)
    np.testing.assert_array_equal(pl, -payoff_batch(spec, paths))


def test_position_change_matrix_shape_and_boundaries():
    m = position_change_matrix(3)
    assert m.shape == (4, 3)
    deltas = np.array([[0.2, 0.7, 0.4]])
    changes = deltas @ m.T
    np.testing.assert_allclose(changes, [[0.2, 0.5, -0.3, -0.4]])


@settings(max_examples=50)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 0.05))
def test_decomposition_identity_bit_exact(seed, cost_rate):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    b = int(rng.integers(1, 8))
    paths = np.abs(1.0 + 0.02 * rng.standard_normal((b, n + 1)).cumsum(axis=1)) + 0.05
    deltas = rng.normal(0.0, 1.0, (b, n))
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=n)
    for i in range(b):
        out = compute_pl(paths[i], deltas[i], spec, cost_rate)
        assert out.pl == -out.payoff + out.trading_gain - out.cost  # bit exact


@given(st.floats(-1.5, 1.5), st.integers(0, 2 ** 31 - 1))
def test_constant_delta_gain_telescopes(const, seed):
    rng = np.random.default_rng(seed)
    path = np.abs(1.0 + 0.02 * rng.standard_normal(11).cumsum()) + 0.05
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=10)
    out = compute_pl(path, np.full(10, const), spec, cost_rate=0.0)
    assert out.trading_gain == pytest.approx(const * (path[-1] - path[0]), abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
def test_cost_monotone_in_rate(seed):
    rng = np.random.default_rng(seed)
    path = np.abs(1.0 + 0.02 * rng.standard_normal(11).cumsum()) + 0.05
    deltas = rng.normal(0.0, 1.0, 10)
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=10)
    pls = [compute_pl(path, deltas, spec, c).pl for c in (0.0, 0.005, 0.02)]
    assert pls[0] >= pls[1] >= pls[2]


def test_shape_validation():
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=3)
    with pytest.raises(ValueError):
        compute_pl(np.ones(4), np.ones(2), spec)
    with pytest.raises(ValueError):
        compute_pl_batch(np.ones((2, 4)), np.ones((2, 2)), spec)
    with pytest.raises(ValueError):
        compute_pl(np.ones(4), np.ones(3), spec, cost_rate=-0.1)


def test_realized_vol_prior_and_floor():
    cfg = VolConfig(prior=0.3, blend_min_returns=5, floor=1e-4)
    assert realized_vol(np.array([1.0]), cfg) == pytest.approx(0.3)
    # constant prefix: zero sample vol fully blended after 5 returns -> floor
    assert realized_vol(np.ones(6), cfg) == pytest.approx(1e-4)
    # one return of the two-point kind: 1/5 sample weight, 4/5 prior
    prefix = np.array([1.0, 1.1])
    expect = 0.8 * 0.3  # std of a single return is 0
    assert realized_vol(prefix, cfg) == pytest.approx(expect)


def test_features_at_inception():
    spec = OptionSpec(EUROPEAN_CALL, strike=1.0, maturity_days=20)
    row = features(np.array([1.0]), spec)
    assert row.shape == (4,)
    assert row[0] == 1.0
    assert row[1] == pytest.approx(0.08)
    assert row[2] == pytest.approx(0.2)
    assert row[3] == pytest.approx(0.51128, abs=5e-6)


def test_lookback_feature_is_running_max():
    spec = OptionSpec(LOOKBACK_CALL, strike=1.0, maturity_days=20)
    row = features(np.array([1.0, 1.2, 1.1]), spec)
    assert row.shape == (5,)
    assert row[4] == pytest.approx(1.2)
    assert feature_width(spec) == 5
    assert feature_width(OptionSpec(EUROPEAN_CALL)) == 4


def test_features_require_time_left():
    spec = OptionSpec(EUROPEAN_CALL, maturity_days=3)
    with pytest.raises(ValueError):
        features(np.ones(4), spec)  # i = n: contract expired


@pytest.mark.parametrize("kind", [EUROPEAN_CALL, LOOKBACK_CALL])
def test_features_matrix_matches_per_prefix(kind):
    rng = np.random.default_rng(9)
    paths = np.abs(1.0 + 0.03 * rng.standard_normal((12, 11)).cumsum(axis=1)) + 0.2
    spec = OptionSpec(kind, strike=1.0, maturity_days=10)
    cfg = VolConfig()
    mat = features_matrix(paths, spec, cfg)
    assert mat.shape == (12, 10, feature_width(spec))
    for b in range(12):
        for i in range(10):
            row = features(paths[b, :i + 1], spec, cfg)
            np.testing.assert_allclose(mat[b, i], row, rtol=1e-12, atol=1e-12)


def test_delta_baseline_matches_bs_pointwise():
    rng = np.random.default_rng(4)
    paths = np.abs(1.0 + 0.03 * rng.standard_normal((5, 21)).cumsum(axis=1)) + 0.2
    spec = OptionSpec(EUROPEAN_CALL, strike=1.0, maturity_days=20)
    batch = delta_hedge_baseline_batch(paths, spec, vol=0.2)
    for b in range(5):
        single = delta_hedge_baseline(paths[b], spec, vol=0.2)
        np.testing.assert_array_equal(batch[b], single)
        for i in range(20):
            assert single[i] == bs_delta(paths[b, i], 1.0, 0.2, (20 - i) / 250.0)
    assert np.all((batch >= 0.0) & (batch <= 1.0))


def test_outcomes_csv_round_trip(tmp_path):
    path = np.array([1.0, 1.1, 0.9])
    outcomes = [compute_pl(path, np.array([0.5, 0.5]), SPEC2, c)
                for c in (0.0, 0.01)]
    out = tmp_path / "outcomes.csv"
    write_outcomes_csv(out, outcomes)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,payoff,gain,cost,pl"
    first = lines[1].split(",")
    assert float(first[4]) == outcomes[0].pl
