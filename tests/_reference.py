"""Deliberately naive reference implementations used only by the tests.

The matcher keeps resting orders in an unordered dict and rescans it
linearly for every decision, so it shares no data-structure assumptions
with the engine; agreement on fill sequences is therefore meaningful.

reference_session replays a market session on that matcher: the same
draws and per-order price arithmetic as fcn_agents.run_session, none of
its caching or book fast paths.  The agent object API (FcnAgent,
build_agents, compute_factors, decide_order) states the FCN model one
agent at a time; its tests pin the factor and order formulas.

The per-path hedge accounting (compute_pl, HedgeOutcome), the per-prefix
features and realized_vol, and the single-path delta_hedge_baseline are
the one-path-at-a-time statements that the batch routines of
hedgelab.hedge_core are checked against.

reference_policy_graph composes the policy from elementary autodiff
nodes, one per operation (the engine's own plus relu, sqrt and div
below); MlpPolicy.__call__'s hand-derived backward must reproduce its
parameter gradients bit for bit.
"""

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from hedgelab.autodiff import Tensor, _unbroadcast
from hedgelab.hedge_core import ANNUAL_DAYS, VolConfig, pl_core
from hedgelab.instruments import OptionSpec, bs_delta, payoff_batch
from hedgelab.lob import Book, Order
from hedgelab.neuralnet import LN_EPS

DEFAULT_TTL = 200
EXP_CAP = 700.0  # math.exp overflows (raises) just above 709


class RefBook:
    """Brute-force price-time-priority matcher with expiry and uncross."""

    def __init__(self, last_price=1.0):
        self.resting = {}  # oid -> [is_bid, price, seq, vol, expires_at]
        self.last_price = last_price
        self.step = 0
        self._seq = 0
        self.expired_volume = 0

    def _best(self, is_bid):
        """Linear scan for the opposite side's head; None when empty."""
        best = None
        for oid, (b, price, seq, vol, _exp) in self.resting.items():
            if b != is_bid:
                continue
            if best is None:
                best = (price, seq, oid)
                continue
            bp, bs, _ = best
            if is_bid:
                if price > bp or (price == bp and seq < bs):
                    best = (price, seq, oid)
            else:
                if price < bp or (price == bp and seq < bs):
                    best = (price, seq, oid)
        return best

    def insert(self, oid, is_bid, price, vol, ttl, matching=True):
        fills = []
        if matching:
            while vol:
                head = self._best(not is_bid)
                if head is None:
                    break
                hp, _hs, hoid = head
                if (is_bid and hp > price) or (not is_bid and hp < price):
                    break
                entry = self.resting[hoid]
                take = min(vol, entry[3])
                entry[3] -= take
                vol -= take
                self.last_price = hp
                if is_bid:
                    fills.append((self.step, hp, take, oid, hoid))
                else:
                    fills.append((self.step, hp, take, hoid, oid))
                if entry[3] == 0:
                    del self.resting[hoid]
        if vol:
            self.resting[oid] = [is_bid, price, self._seq, vol,
                                 self.step + ttl]
            self._seq += 1
        return fills

    def expire(self, now):
        for oid in [o for o, e in self.resting.items() if e[4] <= now]:
            self.expired_volume += self.resting[oid][3]
            del self.resting[oid]

    def uncross(self):
        bids = [e for e in self.resting.values() if e[0]]
        asks = [e for e in self.resting.values() if not e[0]]
        if not bids or not asks:
            return [], None
        candidates = sorted({e[1] for e in bids} | {e[1] for e in asks} | {1.0})
        best_price, best_vol = None, 0
        for p in candidates:
            demand = sum(e[3] for e in bids if e[1] >= p)
            supply = sum(e[3] for e in asks if e[1] <= p)
            vol = min(demand, supply)
            if vol > best_vol or (vol == best_vol and vol > 0 and
                                  (abs(p - 1.0), p)
                                  < (abs(best_price - 1.0), best_price)):
                best_price, best_vol = p, vol
        if best_vol == 0:
            return [], None

        by_prio_bid = sorted(
            ((oid, e) for oid, e in self.resting.items() if e[0]),
            key=lambda kv: (-kv[1][1], kv[1][2]))
        by_prio_ask = sorted(
            ((oid, e) for oid, e in self.resting.items() if not e[0]),
            key=lambda kv: (kv[1][1], kv[1][2]))
        fills = []
        remaining = best_vol
        bi = ai = 0
        while remaining:
            boid, bentry = by_prio_bid[bi]
            aoid, aentry = by_prio_ask[ai]
            take = min(bentry[3], aentry[3], remaining)
            fills.append((self.step, best_price, take, boid, aoid))
            bentry[3] -= take
            aentry[3] -= take
            remaining -= take
            if bentry[3] == 0:
                del self.resting[boid]
                bi += 1
            if aentry[3] == 0:
                del self.resting[aoid]
                ai += 1
        self.last_price = best_price
        return fills, best_price

    def snapshot(self):
        """Priority-ordered resting orders: (is_bid, price, oid, vol)."""
        bids = sorted((e for e in self.resting.items() if e[1][0]),
                      key=lambda kv: (-kv[1][1], kv[1][2]))
        asks = sorted((e for e in self.resting.items() if not e[1][0]),
                      key=lambda kv: (kv[1][1], kv[1][2]))
        return ([(True, e[1], oid, e[3]) for oid, e in bids],
                [(False, e[1], oid, e[3]) for oid, e in asks])

    def total_resting_volume(self):
        return sum(e[3] for e in self.resting.values())


def brute_kurtosis(x):
    """Plain-loop raw kurtosis m4/m2^2 for cross-checking the estimator."""
    x = [float(v) for v in x]
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    if m2 == 0.0:
        return None
    m4 = sum((v - mean) ** 4 for v in x) / n
    return m4 / (m2 * m2)


def make_order_stream(n_orders, seed, price_decimals=2, ttl_lo=5, ttl_hi=60):
    """Reproducible random order stream as parallel arrays.

    Prices walk around 1.0 on a coarse grid so levels collide constantly,
    exercising time priority; volumes up to 3 exercise partial fills.
    """
    rng = np.random.default_rng(seed)
    drift = np.cumsum(rng.normal(0.0, 0.002, n_orders))
    offset = rng.uniform(-0.03, 0.03, n_orders)
    prices = np.round(np.maximum(1.0 + drift + offset, 0.01), price_decimals)
    is_bid = rng.random(n_orders) < 0.5
    volumes = rng.integers(1, 4, n_orders)
    ttls = rng.integers(ttl_lo, ttl_hi + 1, n_orders)
    return prices, is_bid, volumes, ttls


@dataclass
class FcnAgent:
    w_f: float
    w_c: float
    w_n: float
    tau_star: int
    tau: int
    k: float
    noise_std: float
    rng: np.random.Generator

    def __post_init__(self):
        if self.w_f + self.w_c + self.w_n <= 0:
            raise ValueError("degenerate weights")
        if self.tau_star < 1 or self.tau < 1:
            raise ValueError("time constants must be >= 1")
        if not (0.0 <= self.k <= 1.0):
            raise ValueError("margin must lie in [0, 1]")


def build_agents(config, population, rng: np.random.Generator) -> list:
    """Draw a session's agent roster (per-agent constants and rng streams)."""
    n = config.n_agents
    tau_star = rng.integers(population.tau_star_min, population.tau_star_max + 1, n)
    tau = rng.integers(population.tau_min, population.tau_max + 1, n)
    margin = rng.uniform(population.k_min, population.k_max, n)
    streams = rng.spawn(n)
    return [FcnAgent(population.w_f, population.w_c, population.w_n,
                     int(tau_star[i]), int(tau[i]), float(margin[i]),
                     config.sigma, streams[i])
            for i in range(n)]


def compute_factors(agent: FcnAgent, price_history: Sequence[float],
                    fundamental: float) -> tuple:
    """(F, C, N) at the last observed price.

    F = ln(fundamental / p) / tau_star; C is the mean one-step log return
    over the agent's window (truncated to the available history, 0 when
    only one price is known); N is drawn fresh from the agent's stream.
    """
    if len(price_history) < 1:
        raise ValueError("price_history must hold at least one price")
    p_t = price_history[-1]
    f = math.log(fundamental / p_t) / agent.tau_star
    window = min(agent.tau, len(price_history) - 1)
    if window > 0:
        c = math.log(p_t / price_history[-1 - window]) / window
    else:
        c = 0.0
    n = float(agent.rng.normal(0.0, agent.noise_std))
    return f, c, n


def next_order_id(book: Book) -> int:
    """Take the id ``book.submit`` would give its next order."""
    oid = book._next_id
    book._next_id = oid + 1
    return oid


def decide_order(agent: FcnAgent, book: Book, factors: tuple,
                 ttl: int = DEFAULT_TTL) -> Optional[Order]:
    """Turn factors into a one-unit limit order, or None when indifferent.

    r_hat = weighted factor average; p_hat = p_t * exp(r_hat * tau).
    Rising view: bid at p_hat*(1-k) capped at the best ask. Falling view:
    ask at p_hat*(1+k) floored at the best bid.  The cap means an
    aggressive order executes at the standing quote instead of through it.
    """
    f, c, n = factors
    w_sum = agent.w_f + agent.w_c + agent.w_n
    r_hat = (agent.w_f * f + agent.w_c * c + agent.w_n * n) / w_sum
    if r_hat == 0.0:
        return None
    if r_hat * agent.tau > EXP_CAP:  # absurd forecast: stand aside
        return None
    p_t = book.last_price
    p_hat = p_t * math.exp(r_hat * agent.tau)
    if r_hat > 0.0:
        price = p_hat * (1.0 - agent.k)
        cap = book.best_ask
        if cap is not None and price > cap:
            price = cap
        side = "bid"
    else:
        price = p_hat * (1.0 + agent.k)
        cap = book.best_bid
        if cap is not None and price < cap:
            price = cap
        side = "ask"
    if not (0.0 < price < math.inf):  # exp under/overflow: stand aside
        return None
    return Order(id=next_order_id(book), side=side, price=price, volume=1,
                 placed_at=book.step, expires_at=book.step + ttl)


def reference_session(config, population, seed=None):
    """run_session replayed naively on RefBook; returns (raw, n_trades).

    The draws are taken in run_session's order and every price is
    computed with its expression, so the outputs must agree bit for bit.
    Agent selection uses the plain per-order Fisher-Yates step, the touch
    and the last price come from RefBook, and every log is taken afresh.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    n_agents = config.n_agents
    n_per = config.agents_per_step
    n_pre = config.preopen_steps
    n_main = config.days * config.steps_per_day
    ttl = config.ttl
    w_sum = population.w_f + population.w_c + population.w_n
    tau_star = rng.integers(population.tau_star_min,
                            population.tau_star_max + 1, n_agents)
    tau = rng.integers(population.tau_min, population.tau_max + 1, n_agents)
    k = rng.uniform(population.k_min, population.k_max, n_agents)
    fund = np.empty(n_pre + n_main)
    fund[0] = 0.0
    np.cumsum(rng.normal(0.0, config.sigma_star, n_pre + n_main - 1),
              out=fund[1:])
    pre_noise = rng.normal(0.0, config.sigma, n_pre) * (population.w_n / w_sum)
    sel_u = rng.random((n_main, n_per))
    noise = (rng.normal(0.0, config.sigma, (n_main, n_per))
             * (population.w_n / w_sum))
    cc = population.w_c / w_sum

    book = RefBook(last_price=1.0)
    next_oid = 0

    def place(is_bid, log_price, a, matching):
        """Price at exp(log_price) shaded by the margin, capped at the
        opposite touch; returns the traded volume."""
        nonlocal next_oid
        if is_bid:
            if log_price > EXP_CAP:
                return 0
            price = math.exp(log_price) * (1.0 - float(k[a]))
            touch = book._best(False)
            if touch is not None and price > touch[0]:
                price = touch[0]
        else:
            price = math.exp(log_price) * (1.0 + float(k[a]))
            touch = book._best(True)
            if touch is not None and price < touch[0]:
                price = touch[0]
        if not 0.0 < price < math.inf:
            return 0
        fills = book.insert(next_oid, is_bid, price, 1, ttl, matching)
        next_oid += 1
        return sum(f[2] for f in fills)

    for t in range(n_pre):
        a = t % n_agents
        book.step = t
        win = min(int(tau[a]), t)
        c = cc * (fund[t] - fund[t - win]) / win if win else 0.0
        r = c + pre_noise[t]
        if r != 0.0:
            place(r > 0.0, float(fund[t]) + r * int(tau[a]), a, False)

    book.step = n_pre
    book.expire(n_pre)
    fills, _ = book.uncross()
    n_trades = sum(f[2] for f in fills)

    raw = [book.last_price]
    hist = [float(x) for x in fund[:n_pre]] + [math.log(book.last_price)]
    pool = list(range(n_agents))
    for m in range(n_main):
        t = n_pre + m
        book.step = t
        book.expire(t)
        for j in range(n_per):
            ridx = j + int(sel_u[m, j] * (n_agents - j))
            pool[j], pool[ridx] = pool[ridx], pool[j]
            a = pool[j]
            lp = math.log(book.last_price)
            win = min(int(tau[a]), len(hist))
            f_coef = population.w_f / (w_sum * int(tau_star[a]))
            r = (f_coef * (float(fund[t]) - lp)
                 + cc * (lp - hist[-win]) / win + float(noise[m, j]))
            if r != 0.0:
                n_trades += place(r > 0.0, lp + r * int(tau[a]), a, True)
        hist.append(math.log(book.last_price))
        raw.append(book.last_price)
    return np.array(raw), n_trades


# ------------------------------------------------------- hedge accounting --

@dataclass(frozen=True)
class HedgeOutcome:
    """Per-path PL decomposition; ``pl = -payoff + trading_gain - cost`` exactly."""

    payoff: float
    trading_gain: float
    cost: float
    pl: float


def compute_pl(path: np.ndarray, deltas: np.ndarray, spec: OptionSpec,
               cost_rate: float = 0.0) -> HedgeOutcome:
    """Hedge accounting for a single path; validates lengths."""
    path = np.asarray(path, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if cost_rate < 0.0:
        raise ValueError("cost_rate must be nonnegative")
    if deltas.shape != (spec.maturity_days,):
        raise ValueError(
            f"expected {spec.maturity_days} positions, got shape {deltas.shape}"
        )
    pay = payoff_batch(spec, path[None, :])
    pl, gain, cost = pl_core(path[None, :], deltas[None, :], pay, cost_rate)
    return HedgeOutcome(payoff=float(pay[0]), trading_gain=float(gain[0]),
                        cost=float(cost[0]), pl=float(pl[0]))


def compute_pl_batch(paths: np.ndarray, deltas, spec: OptionSpec,
                     cost_rate: float = 0.0):
    """Batch PL; ``deltas`` may be a Tensor so the result stays differentiable."""
    paths = np.asarray(paths, dtype=np.float64)
    if cost_rate < 0.0:
        raise ValueError("cost_rate must be nonnegative")
    n = spec.maturity_days
    dshape = deltas.shape
    if paths.shape[1] != n + 1 or dshape[1] != n or dshape[0] != paths.shape[0]:
        raise ValueError(
            f"shape mismatch: paths {paths.shape}, deltas {dshape}, maturity {n}"
        )
    payoffs = payoff_batch(spec, paths)
    pl, _, _ = pl_core(paths, deltas, payoffs, cost_rate)
    return pl


def write_outcomes_csv(path: str, outcomes: list) -> None:
    """Outcome batch as CSV rows path_id,payoff,gain,cost,pl."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "payoff", "gain", "cost", "pl"])
        for i, o in enumerate(outcomes):
            w.writerow([i, repr(float(o.payoff)), repr(float(o.trading_gain)),
                        repr(float(o.cost)), repr(float(o.pl))])


def realized_vol(prefix: np.ndarray, cfg: VolConfig = VolConfig()) -> float:
    """Annualized trailing vol of a price prefix, blended toward the prior.

    Fewer than ``blend_min_returns`` log returns pull the estimate toward
    ``cfg.prior`` proportionally; the result is floored at ``cfg.floor``.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    n_ret = prefix.shape[0] - 1
    if n_ret <= 0:
        vol = cfg.prior
    else:
        r = np.diff(np.log(prefix))
        vol = float(np.std(r)) * np.sqrt(ANNUAL_DAYS)
        if n_ret < cfg.blend_min_returns:
            w = n_ret / cfg.blend_min_returns
            vol = w * vol + (1.0 - w) * cfg.prior
    return max(vol, cfg.floor)


def features(prefix: np.ndarray, spec: OptionSpec,
             cfg: VolConfig = VolConfig()) -> np.ndarray:
    """Feature row for the policy at step i given prices S_0..S_i.

    Order: moneyness, time to maturity (years), trailing vol, BS delta,
    plus running max moneyness for lookback contracts.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    i = prefix.shape[0] - 1
    n = spec.maturity_days
    if i >= n:
        raise ValueError("features are only defined before maturity (i < n)")
    spot = float(prefix[-1])
    tau = (n - i) / ANNUAL_DAYS
    vol = realized_vol(prefix, cfg)
    row = [spot / spec.strike, tau, vol, float(bs_delta(spot, spec.strike, vol, tau))]
    if spec.is_lookback:
        row.append(float(prefix.max()) / spec.strike)
    return np.array(row)


def delta_hedge_baseline(path: np.ndarray, spec: OptionSpec, vol: float) -> np.ndarray:
    """Black-Scholes delta positions along a path at flat volatility ``vol``."""
    path = np.asarray(path, dtype=np.float64)
    n = spec.maturity_days
    taus = (n - np.arange(n)) / ANNUAL_DAYS
    out = np.empty(n)
    for i in range(n):
        out[i] = bs_delta(float(path[i]), spec.strike, vol, taus[i])
    return out


# ------------------------------------------------------------ policy graph --

def relu(x: Tensor) -> Tensor:
    """max(x, 0) with relu'(0) = 0."""
    mask = x.data > 0.0

    def bw(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._node(x.data * mask, (x,), bw)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def bw(g):
        if x.requires_grad:
            x._accumulate(g * 0.5 / out_data)

    return Tensor._node(out_data, (x,), bw)


def div(a, b) -> Tensor:
    """a / b for tensors or arrays, broadcasting."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data),
                                       b.data.shape))

    return Tensor._node(a.data / b.data, (a, b), bw)


def layer_norm(h: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    mu = h.mean(axis=1, keepdims=True)
    centered = h - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    return div(centered, sqrt(var + LN_EPS)) * gain + bias


def reference_policy_graph(policy, x: np.ndarray) -> Tensor:
    """The policy's positions for ``x`` as a graph of elementary nodes."""
    h = Tensor(x)
    for wt, bt, gain, bias in policy._layers[:-1]:
        h = relu(layer_norm(h @ wt + bt, gain, bias))
    head_w, head_b = policy._layers[-1]
    return (h @ head_w + head_b).reshape(-1)
