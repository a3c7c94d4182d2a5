"""Fundamental-chartist-noise trader agents and the auction session runner.

Each agent forms an expected return as a weighted average of three
factors: mean reversion toward a fundamental track, the trend of recent
observed prices over its own window, and private Gaussian noise.  The
expected price over the agent's horizon then drives a one-unit limit
order: a bid when the agent expects the price to rise, an ask when it
expects a fall, at the expectation shaded by the agent's margin and
capped at the opposite touch so marketable orders execute at the quote.

A session is a pre-opening accumulation phase (one agent per step,
quoting around the fundamental), a single uncross, then days x
steps_per_day continuous double-auction steps.  Sessions that never
trade are rejected and reseeded by the batch runner.

run_session is the one agent model, a flat, allocation-light loop: all
random draws come from one per-session generator up front (agent
parameters, fundamental walk, selection slots, noise matrix), the chart
factor telescopes to one log difference, and expire_orders runs at the
open and at every step.  Preopen orders rest through Book.submit; in the
continuous phase the loop matches and rests its one-unit orders on the
book's heaps itself, since a call per order was most of a session's
cost.  The touch is read from the heap tops, which are always live
orders.  tests/_reference.py holds a naive session on the brute-force
RefBook that must reproduce its output bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple, Optional

import numpy as np

from .lob import Book, _pop_dead, expire_orders, uncross

_INF = math.inf
_EXP_CAP = 700.0  # math.exp overflows (raises) just above 709


@dataclass(frozen=True)
class AgentPopulation:
    """Sampler spec for a session's agent draw.

    Factor weights are shared; time constants and margins are drawn per
    agent: tau_star ~ U{int}, tau ~ U{int}, margin k ~ U[kmin, kmax].
    The noise weight stays at 1.0 by convention (noise magnitude is the
    market's sigma), matching the tuned-parameter set.
    """

    w_f: float = 1.0
    w_c: float = 1.0
    w_n: float = 1.0
    tau_star_min: int = 100
    tau_star_max: int = 200
    tau_min: int = 1
    tau_max: int = 20
    k_min: float = 0.0
    k_max: float = 0.05

    def __post_init__(self):
        if self.w_f < 0 or self.w_c < 0 or self.w_n < 0:
            raise ValueError("factor weights must be nonnegative")
        if self.w_f + self.w_c + self.w_n <= 0:
            raise ValueError("at least one factor weight must be positive")
        if not (1 <= self.tau_star_min <= self.tau_star_max):
            raise ValueError("need 1 <= tau_star_min <= tau_star_max")
        if not (1 <= self.tau_min <= self.tau_max):
            raise ValueError("need 1 <= tau_min <= tau_max")
        if not (0.0 <= self.k_min <= self.k_max <= 1.0):
            raise ValueError("need 0 <= k_min <= k_max <= 1")


@dataclass(frozen=True)
class MarketConfig:
    n_agents: int = 100
    agents_per_step: int = 5
    sigma_star: float = 1e-3  # fundamental log-walk vol per step
    sigma: float = 1e-3       # noise-factor std
    preopen_steps: int = 100
    steps_per_day: int = 50
    days: int = 20
    seed: int = 0
    order_ttl: Optional[int] = None  # default 2 x n_agents

    def __post_init__(self):
        if self.n_agents < 1 or self.agents_per_step < 1:
            raise ValueError("agent counts must be positive")
        if self.agents_per_step > self.n_agents:
            raise ValueError("agents_per_step cannot exceed n_agents")
        if self.sigma_star <= 0 or self.sigma <= 0:
            raise ValueError("sigma_star and sigma must be positive")
        if self.preopen_steps < self.n_agents:
            raise ValueError("preopen_steps must cover every agent at least once")
        if self.steps_per_day < 1 or self.days < 1:
            raise ValueError("steps_per_day and days must be positive")
        if self.order_ttl is not None and self.order_ttl < 1:
            raise ValueError("order_ttl must be positive")

    @property
    def ttl(self) -> int:
        return self.order_ttl if self.order_ttl is not None else 2 * self.n_agents


class DegenerateSessionError(RuntimeError):
    """A session kept trading nothing through every reseed."""


class SessionResult(NamedTuple):
    raw: np.ndarray     # opening price then one last-trade price per step
    n_trades: int       # traded volume incl. the uncross; 0 => degenerate


def run_session(config: MarketConfig, population: AgentPopulation,
                seed=None) -> SessionResult:
    """One full market session; (config, population, seed) fix the output."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    n_agents = config.n_agents
    n_per = config.agents_per_step
    n_pre = config.preopen_steps
    n_main = config.days * config.steps_per_day
    ttl = config.ttl

    w_sum = population.w_f + population.w_c + population.w_n
    tau_star = rng.integers(population.tau_star_min, population.tau_star_max + 1, n_agents)
    tau_arr = rng.integers(population.tau_min, population.tau_max + 1, n_agents)
    k_arr = rng.uniform(population.k_min, population.k_max, n_agents)

    # same draw layout every session: agent params, fundamental, preopen
    # noise, then per-step (selection uniforms, noise)
    fund_logs = np.empty(n_pre + n_main)
    fund_logs[0] = 0.0
    np.cumsum(rng.normal(0.0, config.sigma_star, n_pre + n_main - 1),
              out=fund_logs[1:])
    pre_noise = (rng.normal(0.0, config.sigma, n_pre)
                 * (population.w_n / w_sum)).tolist()
    # uniform draw without replacement within a step (partial
    # Fisher-Yates): slot j swaps with slot j + floor(u * (n_agents - j))
    slot = np.arange(n_per)
    sel = (slot + (rng.random((n_main, n_per)) * (n_agents - slot))
           .astype(np.int64)).ravel().tolist()
    noise = (rng.normal(0.0, config.sigma, (n_main, n_per))
             * (population.w_n / w_sum)).ravel().tolist()

    cf = (population.w_f / (w_sum * tau_star)).tolist()  # F weight / tau*
    cc = population.w_c / w_sum
    tau_l = tau_arr.tolist()
    k_lo = (1.0 - k_arr).tolist()
    k_hi = (1.0 + k_arr).tolist()
    fund_l = fund_logs.tolist()
    fund_p = np.exp(fund_logs).tolist()

    book = Book(last_price=1.0)
    submit = book.submit
    bids, asks = book.bid_heap, book.ask_heap  # tops are the live touch
    log, exp = math.log, math.exp
    n_trades = 0

    # --- preopen: round-robin agents quote around the fundamental ---
    for t in range(n_pre):
        a = t % n_agents
        book.step = t
        flog = fund_l[t]
        win = tau_l[a]
        if win > t:
            win = t
        c = cc * (flog - fund_l[t - win]) / win if win else 0.0
        r = c + pre_noise[t]  # F is 0 while p_t is pinned to the fundamental
        if r == 0.0:
            continue
        tau = tau_l[a]
        if r > 0.0:
            x = flog + r * tau
            if x > _EXP_CAP:
                continue
            price = exp(x) * k_lo[a]
            if asks and price > asks[0][0]:
                price = asks[0][0]
            if 0.0 < price < _INF:
                submit(True, price, ttl, matching=False)
        else:
            price = exp(flog + r * tau) * k_hi[a]
            if bids and price < -bids[0][0]:
                price = -bids[0][0]
            if 0.0 < price < _INF:
                submit(False, price, ttl, matching=False)

    book.step = n_pre
    expire_orders(book, n_pre)
    opened = uncross(book)
    n_trades += sum(f.volume for f in opened.fills)

    raw = np.empty(n_main + 1)
    raw[0] = book.last_price
    # chart history: the preopen fundamental track (the prices agents
    # actually quoted around) followed by the opening print, so windows
    # are full-depth from the first continuous step
    hist = fund_l[:n_pre]
    hist.append(log(book.last_price))
    lp_price = book.last_price
    lp = hist[-1]

    # continuous phase: Book.submit's volume-1 path written out in the
    # loop.  A marketable order takes one unit from the opposite top and
    # pops it, with the dead entries beneath it, once it empties; any
    # other order rests and is filed under its step's expiry bucket.
    expiry = book._expiry
    seq, oid = book._seq, book._next_id
    si = 0
    pool = list(range(n_agents))  # partial Fisher-Yates scratch
    for m in range(n_main):
        t = n_pre + m
        expire_orders(book, t)
        flog = fund_l[t]
        h = n_pre + m + 1  # observations so far: preopen track + opening + steps
        rested = []  # filed under t + ttl after the step (ttl >= 1)
        for j in range(n_per):
            ridx = sel[si]
            noise_n = noise[si]
            si += 1
            a = pool[ridx]
            pool[ridx] = pool[j]
            pool[j] = a
            tau = tau_l[a]
            win = tau if tau < h else h
            r = cf[a] * (flog - lp) + cc * (lp - hist[h - win]) / win + noise_n
            if r == 0.0:
                continue
            if r > 0.0:
                x = lp + r * tau
                if x > _EXP_CAP:
                    continue
                price = exp(x) * k_lo[a]
                if asks and price >= asks[0][0]:  # buys one unit at the ask
                    head = asks[0]
                    lp_price = head[0]
                    lp = log(lp_price)
                    n_trades += 1
                    oid += 1
                    head[3] -= 1
                    if not head[3]:
                        heappop(asks)
                        book._dead -= _pop_dead(asks)
                elif 0.0 < price < _INF:
                    entry = [-price, seq, oid, 1]
                    heappush(bids, entry)
                    rested.append(entry)
                    seq += 1
                    oid += 1
            else:
                price = exp(lp + r * tau) * k_hi[a]
                if bids and price <= -bids[0][0]:  # sells one unit at the bid
                    head = bids[0]
                    lp_price = -head[0]
                    lp = log(lp_price)
                    n_trades += 1
                    oid += 1
                    head[3] -= 1
                    if not head[3]:
                        heappop(bids)
                        book._dead -= _pop_dead(bids)
                elif 0.0 < price < _INF:
                    entry = [price, seq, oid, 1]
                    heappush(asks, entry)
                    rested.append(entry)
                    seq += 1
                    oid += 1
        if rested:
            expiry[t + ttl] = rested
        hist.append(lp)
        raw[m + 1] = lp_price
    return SessionResult(raw, n_trades)


def extract_paths(raws, days: int, steps_per_day: int) -> np.ndarray:
    """Daily price paths, one row per session, normalized to start at 1.

    Sample index d*steps_per_day of each raw series (index 0 being the
    opening print) and divide by the opening so S_0 = 1.
    """
    idx = np.arange(days + 1) * steps_per_day
    need = days * steps_per_day + 1
    out = np.empty((len(raws), days + 1))
    for i, raw in enumerate(raws):
        if len(raw) < need:
            raise ValueError(f"raw series {i} shorter than {need} steps")
        samples = np.asarray(raw, dtype=float)[idx]
        out[i] = samples / samples[0]
    return out


def _session_chunk(args):
    config, population, lo, hi = args
    paths = []
    rejects = 0
    for i in range(lo, hi):
        for attempt in range(200):
            res = run_session(config, population, seed=(config.seed, i, attempt))
            if res.n_trades > 0:
                break
            rejects += 1
        else:
            raise DegenerateSessionError(
                f"session {i}: no trades after 200 reseeds")
        paths.append(res.raw)
    return lo, extract_paths(paths, config.days, config.steps_per_day), rejects


def simulate_paths(config: MarketConfig, population: AgentPopulation,
                   n_paths: int, parallel: int = 1):
    """Batch of normalized daily paths, shape (n_paths, days+1).

    Session i always runs from seed (config.seed, i, attempt), so output
    is independent of chunking/scheduling.  Returns (paths, n_rejected).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_workers = max(1, int(parallel))
    if n_workers == 1:
        _, paths, rejects = _session_chunk((config, population, 0, n_paths))
        return paths, rejects
    import multiprocessing as mp
    chunk = max(1, n_paths // (4 * n_workers))
    jobs = [(config, population, lo, min(lo + chunk, n_paths))
            for lo in range(0, n_paths, chunk)]
    out = np.empty((n_paths, config.days + 1))
    rejects = 0
    with mp.Pool(n_workers) as pool:
        for lo, block, rej in pool.imap_unordered(_session_chunk, jobs):
            out[lo:lo + block.shape[0]] = block
            rejects += rej
    return out, rejects
