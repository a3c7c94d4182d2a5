"""Reference computations and output checks for the benchmark workloads.

Everything here is written from the textbook definitions with plain
Python loops, sorting and ``math.erf``; nothing is imported from
hedgelab, so agreement with the program is evidence, not tautology.

Each ``check_*`` function returns a list of problems (empty when the
output is correct) rather than raising, so one run can report every
violated property at once.
"""

from __future__ import annotations

import math

ANNUAL_DAYS = 250

# Stated tolerances.  The sampling tolerances are several standard errors
# wide at the workload sizes in run.py (see README.md).
PRICE_MATCH_REL = 1e-12      # program price vs oracle price, same PL samples
LOWER_BOUND_ABS = 0.003      # price may sit this far below the martingale bound
DEV_TEST_ABS = 0.005         # development vs test price of one policy differ
DEV_TEST_REL = 0.15          # by at most DEV_TEST_ABS + DEV_TEST_REL * mean
MIN_HEDGE_REDUCTION = 0.40   # hedged price at least 40% below unhedged
MAX_VS_BS_DELTA = 0.20       # hedged price within +-20% of BS delta hedging


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call_price(spot: float, strike: float, vol: float, tau: float) -> float:
    """Zero-rate Black-Scholes call price."""
    if tau <= 0.0:
        return max(spot - strike, 0.0)
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + 0.5 * vol * vol * tau) / sq
    return spot * norm_cdf(d1) - strike * norm_cdf(d1 - sq)


def bs_call_delta(spot: float, strike: float, vol: float, tau: float) -> float:
    """Zero-rate Black-Scholes call delta N(d1)."""
    if tau <= 0.0:
        return 1.0 if spot > strike else (0.0 if spot < strike else 0.5)
    sq = vol * math.sqrt(tau)
    return norm_cdf((math.log(spot / strike) + 0.5 * vol * vol * tau) / sq)


def erm_utility(samples, lam: float) -> float:
    """Entropic utility -(1/lam) log mean exp(-lam x), shifted by the max."""
    ys = [-lam * float(x) for x in samples]
    top = max(ys)
    total = 0.0
    for y in ys:
        total += math.exp(y - top)
    return -(math.log(total / len(ys)) + top) / lam


def cvar_tail_size(n: int, alpha: float) -> int:
    """ceil((1 - alpha) n), evaluated in doubles as the definition reads.

    In doubles (1 - 0.95) * 10000 is 500.00000000000045, so this is one
    sample more than the exact tail for alpha = 0.95 and 0.99; the
    program documents and computes the same expression.
    """
    return math.ceil((1.0 - alpha) * n)


def cvar_utility(samples, alpha: float) -> float:
    """Mean of the ``cvar_tail_size`` smallest samples, by plain sorting."""
    values = sorted(float(x) for x in samples)
    k = cvar_tail_size(len(values), alpha)
    total = 0.0
    for v in values[:k]:
        total += v
    return total / k


def call_payoff(path, strike: float) -> float:
    """European call payoff at the path's last sample."""
    return max(float(path[-1]) - strike, 0.0)


def hedge_pl(path, deltas, pay: float, cost_rate: float = 0.0) -> float:
    """-payoff + sum delta_i dS_i - c sum S_i |delta_i - delta_{i-1}|,
    entering from flat and liquidating at maturity (delta_{-1} = delta_n = 0)."""
    n = len(deltas)
    gain = 0.0
    for i in range(n):
        gain += float(deltas[i]) * (float(path[i + 1]) - float(path[i]))
    cost = 0.0
    prev = 0.0
    for i in range(n + 1):
        cur = float(deltas[i]) if i < n else 0.0
        cost += float(path[i]) * abs(cur - prev)
        prev = cur
    return -pay + gain - cost_rate * cost


def bs_delta_positions(path, strike: float, vol: float):
    """Black-Scholes delta at each hedging date of a daily path."""
    n = len(path) - 1
    return [bs_call_delta(float(path[i]), strike, vol, (n - i) / ANNUAL_DAYS)
            for i in range(n)]


def raw_kurtosis(xs) -> float:
    """m4 / m2^2 of a sample (3 for a normal distribution)."""
    xs = [float(x) for x in xs]
    mean = sum(xs) / len(xs)
    m2 = sum((x - mean) ** 2 for x in xs) / len(xs)
    m4 = sum((x - mean) ** 4 for x in xs) / len(xs)
    return m4 / (m2 * m2)


def lag_log_returns(paths, lag: int):
    return [math.log(row[t + lag] / row[t])
            for row in paths for t in range(len(row) - lag)]


# ---------------------------------------------------------------- checks --

def check_market_paths(paths, n_paths: int, n_days: int) -> list:
    """Shape, exact unit start, finite positive prices, fat short-lag tails."""
    problems = []
    if len(paths) != n_paths or any(len(row) != n_days + 1 for row in paths):
        return [f"expected {n_paths} paths of {n_days + 1} samples"]
    if any(row[0] != 1.0 for row in paths):
        problems.append("a path does not start at exactly 1.0")
    if not all(math.isfinite(x) and x > 0.0 for row in paths for x in row):
        problems.append("a price is not finite and positive")
        return problems
    k1 = raw_kurtosis(lag_log_returns(paths, 1))
    k20 = raw_kurtosis(lag_log_returns(paths, n_days))
    if not k1 > 4.0:
        problems.append(f"lag-1 kurtosis {k1:.2f} is not above 4")
    if not k20 < k1:
        problems.append(f"lag-{n_days} kurtosis {k20:.2f} is not below "
                        f"lag-1 kurtosis {k1:.2f}")
    return problems


def check_gbm_hedge(price: float, eval_paths, policy_deltas, alpha: float,
                    strike: float, sigma: float) -> list:
    """Price agreement, hedging quality and the martingale lower bound for a
    policy priced under CVaR(alpha) on zero-drift GBM paths."""
    problems = []
    n_days = len(eval_paths[0]) - 1
    pays = [call_payoff(row, strike) for row in eval_paths]
    pl_nn = [hedge_pl(row, d, p)
             for row, d, p in zip(eval_paths, policy_deltas, pays)]
    ref = -cvar_utility(pl_nn, alpha)
    if not math.isfinite(price) or abs(price - ref) > PRICE_MATCH_REL * abs(ref):
        problems.append(f"price {price!r} differs from the loop-accounted "
                        f"CVaR price {ref!r}")
    bare = -cvar_utility([-p for p in pays], alpha)
    pl_bs = [hedge_pl(row, bs_delta_positions(row, strike, sigma), p)
             for row, p in zip(eval_paths, pays)]
    bs_hedged = -cvar_utility(pl_bs, alpha)
    if not price <= (1.0 - MIN_HEDGE_REDUCTION) * bare:
        problems.append(f"price {price:.5f} is not {MIN_HEDGE_REDUCTION:.0%} "
                        f"below the unhedged {bare:.5f}")
    if not abs(price / bs_hedged - 1.0) <= MAX_VS_BS_DELTA:
        problems.append(f"price {price:.5f} is not within "
                        f"{MAX_VS_BS_DELTA:.0%} of BS delta hedging "
                        f"{bs_hedged:.5f}")
    floor = bs_call_price(1.0, strike, sigma, n_days / ANNUAL_DAYS)
    if not price >= floor - LOWER_BOUND_ABS:
        problems.append(f"price {price:.5f} is below the Black-Scholes bound "
                        f"{floor:.5f} less {LOWER_BOUND_ABS}")
    return problems


def check_price_table(rows, generator: str, strike: float, vol: float,
                      n_days: int) -> list:
    """rows: (derivative, dataset, measure, generator, price) tuples of a
    derivative x measure x {development, test} table."""
    problems = []
    keys = {(d, s, m) for d, s, m, _, _ in rows}
    if len(rows) != 20 or len(keys) != 20:
        problems.append(f"expected 20 distinct rows, got {len(rows)} rows "
                        f"with {len(keys)} distinct keys")
    if {g for _, _, _, g, _ in rows} != {generator}:
        problems.append("rows name an unexpected generator")
    if not all(math.isfinite(p) for *_, p in rows):
        return problems + ["a price is not finite"]
    # the lookback payoff dominates the European one, so one bound serves both
    floor = bs_call_price(1.0, strike, vol, n_days / ANNUAL_DAYS)
    for d, s, m, _, p in rows:
        if p < floor - LOWER_BOUND_ABS:
            problems.append(f"{d} {s} {m}: price {p:.5f} below the "
                            f"Black-Scholes bound {floor:.5f} less "
                            f"{LOWER_BOUND_ABS}")
    by_setting = {}
    for d, s, m, _, p in rows:
        by_setting.setdefault((d, m), {})[s] = p
    for (d, m), prices in sorted(by_setting.items()):
        if set(prices) != {"development", "test"}:
            problems.append(f"{d} {m}: missing a development or test row")
            continue
        dev, test = prices["development"], prices["test"]
        if abs(dev - test) > DEV_TEST_ABS + DEV_TEST_REL * 0.5 * (dev + test):
            problems.append(f"{d} {m}: development {dev:.5f} and test "
                            f"{test:.5f} differ by more than the sampling "
                            f"tolerance")
    return problems
