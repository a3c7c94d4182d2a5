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
hedgelab.hedge_core are checked against.  delta_hedge_baseline_batch is
the Black-Scholes delta hedge that criterion 5 compares the trained
policy with.  load_paths reads back what hedgelab.paths_io writes.

Tensor is a minimal reverse-mode autodiff engine over float64 arrays,
the one hedgelab trained with before its gradient was written out in
closed form.  reference_minibatch_loss composes the training loss from
its nodes, one per operation: the policy (reference_policy_graph, with
relu, sqrt and div below), the PL (pl_graph) and the risk measure
(erm_graph, cvar_graph).  neuralnet.minibatch_loss must reproduce its
loss and parameter gradients bit for bit.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from hedgelab import autodiff
from hedgelab.hedge_core import (ANNUAL_DAYS, VolConfig, pl_core,
                                 position_change_matrix)
from hedgelab.instruments import OptionSpec, bs_delta, payoff_batch
from hedgelab.lob import Book, Order
from hedgelab.neuralnet import LN_EPS
from hedgelab.risk import ERM

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
    """Batch PL of ``deltas`` positions; validates shapes."""
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


def delta_hedge_baseline_batch(paths: np.ndarray, spec: OptionSpec,
                               vol: float) -> np.ndarray:
    """Black-Scholes delta positions along each path at flat volatility ``vol``.

    Applied unchanged to lookback contracts as a deliberately naive
    baseline (European delta on the spot).
    """
    paths = np.asarray(paths, dtype=np.float64)
    n = spec.maturity_days
    out = np.empty((paths.shape[0], n))
    for i in range(n):
        out[:, i] = bs_delta(paths[:, i], spec.strike, vol, (n - i) / ANNUAL_DAYS)
    return out


# ------------------------------------------------------------- path files --

def load_paths(path):
    """Read a batch ``paths_io.save_paths`` wrote: (paths, meta), where
    meta is {} when no sidecar exists."""
    path = str(path)
    if path.endswith(".npy"):
        paths = np.load(path)
    else:
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("t_0"):
                raise ValueError(f"{path}: not a path-batch CSV")
            paths = np.array([[float(v) for v in line.split(",")]
                              for line in fh if line.strip()])
    meta = {}
    if os.path.exists(path + ".json"):
        with open(path + ".json") as fh:
            meta = json.load(fh)
    return paths, meta


# ---------------------------------------------------- reverse-mode engine --
#
# Conventions asserted by tests/test_autodiff.py:
#   * d|x|/dx at 0 = 0  (sign(0) = 0)
#   * ``backward()`` is only defined for scalar roots.

def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense float64 tensor node of a reverse-mode computation graph."""

    # numpy must not swallow us in mixed expressions; reflected ops run instead
    __array_ufunc__ = None
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    @classmethod
    def _node(cls, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else _as_array(g)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar root, filling ``grad`` on the graph."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar root node")
        topo: list = []
        seen: set = set()
        stack: list = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    # -- elementwise arithmetic (broadcasting) ------------------------------

    def __add__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + o.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if o.requires_grad:
                o._accumulate(_unbroadcast(g, o.data.shape))

        return Tensor._node(out_data, (self, o), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._node(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else Tensor(-_as_array(other)))

    def __mul__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * o.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * o.data, self.data.shape))
            if o.requires_grad:
                o._accumulate(_unbroadcast(g * self.data, o.data.shape))

        return Tensor._node(out_data, (self, o), bw)

    __rmul__ = __mul__

    def __matmul__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ o.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(g @ o.data.T)
            if o.requires_grad:
                o._accumulate(self.data.T @ g)

        return Tensor._node(out_data, (self, o), bw)

    def __abs__(self):
        out_data = np.abs(self.data)
        sign = np.sign(self.data)  # sign(0) = 0: fixed subgradient at the kink

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * sign)

        return Tensor._node(out_data, (self,), bw)

    # -- nonlinearities ------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._node(out_data, (self,), bw)

    def log(self):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._node(np.log(self.data), (self,), bw)

    # -- reductions and shape ops --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            gg = g if keepdims else np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(gg, self.data.shape).copy())

        return Tensor._node(out_data, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape

        def bw(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._node(self.data.reshape(shape), (self,), bw)

    def take_rows(self, indices: np.ndarray):
        """Gather rows along axis 0; gradients flow back to the picked rows."""
        idx = np.asarray(indices)
        out_data = self.data[idx]

        def bw(g):
            if self.requires_grad:
                buf = np.zeros_like(self.data)
                np.add.at(buf, idx, g)
                self._accumulate(buf)

        return Tensor._node(out_data, (self,), bw)


def data_of(x) -> np.ndarray:
    """Raw ndarray view of either a Tensor or an array-like."""
    return x.data if isinstance(x, Tensor) else _as_array(x)


def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Tensor) else np.log(x)


def mean(x, axis=None):
    return x.mean(axis=axis) if isinstance(x, Tensor) else _as_array(x).mean(axis=axis)


def gradients(loss: Tensor, params) -> list:
    """Reverse-mode dloss/dp for each parameter; loss must be scalar."""
    for p in params:
        p.grad = None
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in params]


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


def reference_policy_graph(params, x: np.ndarray) -> Tensor:
    """The positions for ``x`` as a graph of elementary nodes over the
    parameter tensors ``params``, in ``MlpPolicy.params`` order."""
    h = Tensor(x)
    for k in range(3):
        wt, bt, gain, bias = params[4 * k:4 * k + 4]
        h = relu(layer_norm(h @ wt + bt, gain, bias))
    head_w, head_b = params[12:]
    return (h @ head_w + head_b).reshape(-1)


# ------------------------------------------------------------- loss graph --

def pl_graph(paths: np.ndarray, deltas: Tensor, payoffs: np.ndarray,
             cost_rate: float) -> Tensor:
    """hedge_core.pl_core's PL as engine nodes."""
    ds = paths[:, 1:] - paths[:, :-1]
    gain = (deltas * ds).sum(axis=1)
    if cost_rate != 0.0:
        changes = deltas @ position_change_matrix(deltas.shape[1]).T
        cost = (abs(changes) * paths).sum(axis=1) * cost_rate
    else:
        cost = np.zeros(paths.shape[0])
    return -payoffs + gain - cost


def erm_graph(samples: Tensor, lam: float) -> Tensor:
    """Entropic utility -(1/lam) log mean exp(-lam x) with max-shift."""
    y = samples * (-lam)
    shift = float(np.max(data_of(y)))  # constant shift; gradient is unaffected
    u = log(mean(exp(y - shift))) + shift
    return u * (-1.0 / lam)


def cvar_graph(samples: Tensor, alpha: float) -> Tensor:
    """Mean of the ceil((1-alpha) m) smallest samples, ties by index."""
    raw = samples.data
    k = math.ceil((1.0 - alpha) * raw.size)
    order = np.argsort(raw, kind="stable")[:k]
    return samples.take_rows(order).mean()


def reference_minibatch_loss(policy, feats: np.ndarray, paths: np.ndarray,
                             payoffs: np.ndarray, measure,
                             cost_rate: float) -> autodiff.Tensor:
    """neuralnet.minibatch_loss computed on the engine: a drop-in whose
    loss and gradients the closed form must equal bit for bit."""
    params = [Tensor(p, requires_grad=True) for p in policy.params]
    deltas = reference_policy_graph(params,
                                    feats.reshape(-1, feats.shape[2]))
    pl = pl_graph(paths, deltas.reshape(paths.shape[0], -1), payoffs,
                  cost_rate)
    u = (erm_graph(pl, measure.lam) if measure.kind == ERM
         else cvar_graph(pl, measure.alpha))
    loss = -u
    return autodiff.Tensor(float(loss.data),
                           lambda: gradients(loss, params))
