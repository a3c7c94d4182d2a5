"""The benchmark's references agree with closed forms, and each output
check rejects a deliberately corrupted output.

    python3 -m pytest -q perfbench/tests
"""

import math
import random

import pytest

from perfbench import oracles

BS_ATM_20D = 0.0225645746918  # zero-rate ATM call, vol 0.2, 20/250 years


# ------------------------------------------------------------ references --

def test_bs_price_and_delta():
    assert oracles.bs_call_price(1.0, 1.0, 0.2, 0.08) == pytest.approx(
        BS_ATM_20D, abs=1e-12)
    assert oracles.bs_call_price(1.2, 1.0, 0.2, 0.0) == pytest.approx(0.2)
    h = 1e-5
    for spot in (0.9, 1.0, 1.1):
        fd = (oracles.bs_call_price(spot + h, 1.0, 0.2, 0.08)
              - oracles.bs_call_price(spot - h, 1.0, 0.2, 0.08)) / (2 * h)
        assert oracles.bs_call_delta(spot, 1.0, 0.2, 0.08) == pytest.approx(
            fd, abs=1e-8)
    assert oracles.bs_call_delta(1.0, 1.0, 0.2, 0.0) == 0.5


def test_erm_and_cvar_definitions():
    assert oracles.erm_utility([1.0, -1.0], 1.0) == pytest.approx(
        -math.log(math.cosh(1.0)), abs=1e-15)
    rng = random.Random(3)
    xs = [rng.gauss(0.0, 1.0) for _ in range(200)]
    for lam in (0.5, 10.0):
        assert oracles.erm_utility([x + 0.3 for x in xs], lam) == \
            pytest.approx(oracles.erm_utility(xs, lam) + 0.3, abs=1e-12)
    assert oracles.cvar_utility([3.0, 1.0, 2.0, 4.0], 0.75) == 1.0
    assert oracles.cvar_utility([3.0, 1.0, 2.0, 4.0], 0.5) == 1.5
    # the documented ceil((1 - alpha) n) keeps one extra sample in doubles
    assert oracles.cvar_tail_size(10_000, 0.95) == 501
    assert oracles.cvar_tail_size(10_000, 0.90) == 1000


def test_hedge_pl_by_hand():
    # gain 0.5 * 0.1 + 0.2 * -0.05 = 0.04; traded 0.5, 0.3, 0.2 at 1, 1.1, 1.05
    pl = oracles.hedge_pl([1.0, 1.1, 1.05], [0.5, 0.2], 0.05, cost_rate=0.01)
    assert pl == pytest.approx(-0.05 + 0.04 - 0.01 * (0.5 + 0.33 + 0.21),
                               abs=1e-15)
    assert oracles.hedge_pl([1.0, 1.2], [0.0], 0.2) == -0.2


def test_raw_kurtosis():
    assert oracles.raw_kurtosis([-1.0, 1.0] * 5) == pytest.approx(1.0)
    xs = [0.0] * 98 + [1.0, -1.0]
    # m2 = 2/100, m4 = 2/100 -> 50
    assert oracles.raw_kurtosis(xs) == pytest.approx(50.0)


# ---------------------------------------------------------------- checks --

def _market_like_paths(n=40, days=20, seed=7):
    """Small Gaussian steps plus one-step spikes that revert at once: fat
    lag-1 tails, thin lag-20 tails."""
    rng = random.Random(seed)
    paths = []
    for _ in range(n):
        logs = [0.0]
        for t in range(days):
            logs.append(logs[-1] + rng.gauss(0.0, 0.002))
        spike = rng.randrange(1, days)
        logs[spike] += 0.05 * rng.choice((-1.0, 1.0))
        paths.append([math.exp(x) for x in logs])
    return paths


def test_market_check_accepts_and_rejects():
    good = _market_like_paths()
    assert oracles.check_market_paths(good, 40, 20) == []

    shifted = [row[:] for row in good]
    shifted[3][0] = 1.0 + 1e-12
    assert oracles.check_market_paths(shifted, 40, 20)

    negative = [row[:] for row in good]
    negative[5][7] = -0.5
    assert oracles.check_market_paths(negative, 40, 20)

    nan = [row[:] for row in good]
    nan[1][2] = float("nan")
    assert oracles.check_market_paths(nan, 40, 20)

    assert oracles.check_market_paths(good[:-1], 40, 20)
    assert oracles.check_market_paths([row[:-1] for row in good], 40, 20)

    rng = random.Random(1)
    gaussian = [[math.exp(sum(rng.gauss(0.0, 0.01) for _ in range(t)))
                 for t in range(21)] for _ in range(40)]
    assert any("lag-1 kurtosis" in p
               for p in oracles.check_market_paths(gaussian, 40, 20))


def _gbm_paths(n, seed, sigma=0.2, days=20):
    rng = random.Random(seed)
    scale = sigma * math.sqrt(1.0 / 250)
    paths = []
    for _ in range(n):
        row = [1.0]
        for _ in range(days):
            row.append(row[-1] * (1.0 + scale * rng.gauss(0.0, 1.0)))
        paths.append(row)
    return paths


@pytest.fixture(scope="module")
def hedged_case():
    paths = _gbm_paths(4000, seed=11)
    deltas = [oracles.bs_delta_positions(row, 1.0, 0.2) for row in paths]
    pl = [oracles.hedge_pl(row, d, oracles.call_payoff(row, 1.0))
          for row, d in zip(paths, deltas)]
    return paths, deltas, -oracles.cvar_utility(pl, 0.95)


def test_gbm_check_accepts_a_delta_hedge(hedged_case):
    paths, deltas, price = hedged_case
    assert oracles.check_gbm_hedge(price, paths, deltas, 0.95, 1.0, 0.2) == []


def test_gbm_check_rejects_a_price_off_by_rounding(hedged_case):
    paths, deltas, price = hedged_case
    problems = oracles.check_gbm_hedge(price * (1 + 1e-9), paths, deltas,
                                       0.95, 1.0, 0.2)
    assert any("loop-accounted" in p for p in problems)


def test_gbm_check_rejects_an_unhedged_policy(hedged_case):
    paths, _, _ = hedged_case
    flat = [[0.0] * 20 for _ in paths]
    pl = [-oracles.call_payoff(row, 1.0) for row in paths]
    price = -oracles.cvar_utility(pl, 0.95)
    problems = oracles.check_gbm_hedge(price, paths, flat, 0.95, 1.0, 0.2)
    assert any("below the unhedged" in p for p in problems)
    assert any("BS delta hedging" in p for p in problems)


def test_gbm_check_rejects_a_price_below_the_bound(hedged_case):
    paths, deltas, _ = hedged_case
    problems = oracles.check_gbm_hedge(0.01, paths, deltas, 0.95, 1.0, 0.2)
    assert any("Black-Scholes bound" in p for p in problems)


def _table(dev=0.05, test=0.051):
    """A well-formed 2 x 5 x {development, test} heston table."""
    rows = []
    for d in ("european_call", "lookback_call"):
        for m in ("erm(lambda=1)", "erm(lambda=10)", "cvar(alpha=0.9)",
                  "cvar(alpha=0.95)", "cvar(alpha=0.99)"):
            rows.append((d, "development", m, "heston", dev))
            rows.append((d, "test", m, "heston", test))
    return rows


def test_table_check_accepts_and_rejects():
    assert oracles.check_price_table(_table(), "heston", 1.0, 0.2, 20) == []

    low = _table()
    low[4] = low[4][:4] + (BS_ATM_20D - 0.004,)
    assert any("bound" in p for p in
               oracles.check_price_table(low, "heston", 1.0, 0.2, 20))

    apart = _table()
    apart[7] = apart[7][:4] + (0.08,)
    assert any("sampling tolerance" in p for p in
               oracles.check_price_table(apart, "heston", 1.0, 0.2, 20))

    dup = _table()
    dup[1] = dup[0]
    assert oracles.check_price_table(dup, "heston", 1.0, 0.2, 20)

    nan = _table()
    nan[2] = nan[2][:4] + (float("nan"),)
    assert oracles.check_price_table(nan, "heston", 1.0, 0.2, 20)

    assert oracles.check_price_table(_table(), "gbm", 1.0, 0.2, 20)
    assert oracles.check_price_table(_table()[:19], "heston", 1.0, 0.2, 20)
