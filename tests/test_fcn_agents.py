"""FCN agents: factor math, order rules, session runner, path extraction."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from _reference import (FcnAgent, build_agents, compute_factors,
                        decide_order, reference_session)
from hedgelab import fcn_agents
from hedgelab.fcn_agents import (AgentPopulation, MarketConfig, extract_paths,
                                 run_session, simulate_paths)
from hedgelab.lob import Book, insert_order, Order


def _agent(w_f=1.0, w_c=0.0, w_n=0.0, tau_star=100, tau=1, k=0.0,
           noise_std=1e-3, seed=0):
    return FcnAgent(w_f, w_c, w_n, tau_star, tau, k, noise_std,
                    np.random.default_rng(seed))


class TestComputeFactors:
    def test_fundamental_factor_oracle(self):
        # ln(1.1)/100, frozen from a hand evaluation
        agent = _agent(tau_star=100)
        f, _, _ = compute_factors(agent, [1.0], fundamental=1.1)
        assert f == pytest.approx(9.531017980432486e-4, abs=1e-15)

    def test_chart_factor_oracle(self):
        # window of 2 one-step log returns ending at the last price;
        # the telescoped and summed forms must agree
        agent = _agent(tau=2)
        _, c, _ = compute_factors(agent, [1.00, 1.02, 1.01], fundamental=1.0)
        summed = (math.log(1.01 / 1.02) + math.log(1.02 / 1.00)) / 2
        assert c == pytest.approx(4.975165426584058e-3, abs=1e-15)
        assert c == pytest.approx(summed, abs=1e-15)

    def test_fundamental_at_par_is_zero(self):
        for tau_star in (1, 7, 1000):
            agent = _agent(tau_star=tau_star)
            f, _, _ = compute_factors(agent, [1.23], fundamental=1.23)
            assert f == 0.0

    def test_window_truncates_to_history(self):
        agent = _agent(tau=10)
        _, c, _ = compute_factors(agent, [1.0, 1.05], fundamental=1.0)
        assert c == pytest.approx(math.log(1.05), rel=1e-12)

    def test_single_price_chart_is_zero(self):
        _, c, _ = compute_factors(_agent(tau=5), [1.07], fundamental=1.0)
        assert c == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            compute_factors(_agent(), [], fundamental=1.0)

    def test_noise_moments(self):
        agent = _agent(noise_std=0.02, seed=123)
        draws = np.array([compute_factors(agent, [1.0], 1.0)[2]
                          for _ in range(4000)])
        assert abs(draws.mean()) < 4 * 0.02 / math.sqrt(4000)
        assert draws.std() == pytest.approx(0.02, rel=0.05)


class TestDecideOrder:
    def test_bid_price_oracle(self):
        # expected price 1.05, margin 5% -> bid at 0.9975 (no ask to cap it)
        agent = _agent(tau=1, k=0.05)
        order = decide_order(agent, Book(), (math.log(1.05), 0.0, 0.0))
        assert order.side == "bid"
        assert order.price == pytest.approx(0.9975, rel=1e-12)
        assert order.volume == 1

    def test_expected_price_horizon_scaling(self):
        # r_hat 0.001 over a 10-step horizon compounds to exp(0.01)
        agent = _agent(tau=10, k=0.0)
        order = decide_order(agent, Book(), (0.001, 0.0, 0.0))
        assert order.price == pytest.approx(1.010050167084168, abs=1e-12)

    def test_indifferent_agent_stands_aside(self):
        assert decide_order(_agent(), Book(), (0.0, 0.0, 0.0)) is None

    def test_bid_capped_at_best_ask(self):
        book = Book()
        insert_order(book, Order(id=0, side="ask", price=0.99,
                                 expires_at=10_000))
        order = decide_order(_agent(tau=1, k=0.05),
                             book, (math.log(1.05), 0.0, 0.0))
        assert order.price == 0.99  # marketable bid executes at the quote

    def test_ask_floored_at_best_bid(self):
        book = Book()
        insert_order(book, Order(id=0, side="bid", price=1.04,
                                 expires_at=10_000))
        order = decide_order(_agent(tau=1, k=0.05), book, (-0.02, 0.0, 0.0))
        assert order.side == "ask"
        assert order.price == 1.04

    def test_ask_price_uncapped(self):
        order = decide_order(_agent(tau=1, k=0.05), Book(), (-0.02, 0.0, 0.0))
        assert order.price == pytest.approx(math.exp(-0.02) * 1.05, rel=1e-12)

    def test_weighted_average_uses_all_factors(self):
        agent = _agent(w_f=1.0, w_c=2.0, w_n=1.0, tau=1, k=0.0)
        order = decide_order(agent, Book(), (0.04, -0.01, 0.02))
        r_hat = (1 * 0.04 + 2 * -0.01 + 1 * 0.02) / 4.0
        assert order.price == pytest.approx(math.exp(r_hat), rel=1e-12)

    def test_absurd_forecast_stands_aside(self):
        assert decide_order(_agent(tau=1), Book(), (800.0, 0.0, 0.0)) is None

    def test_order_lifetime_fields(self):
        book = Book()
        book.step = 42
        order = decide_order(_agent(tau=1), book, (0.01, 0.0, 0.0), ttl=77)
        assert order.placed_at == 42
        assert order.expires_at == 42 + 77

    @given(f=st.floats(-0.5, 0.5), c=st.floats(-0.5, 0.5),
           n=st.floats(-0.5, 0.5), tau=st.integers(1, 100),
           k=st.floats(0.0, 0.3), last=st.floats(0.01, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_emitted_prices_positive(self, f, c, n, tau, k, last):
        agent = FcnAgent(1.0, 1.0, 1.0, 100, tau, k, 1e-3,
                         np.random.default_rng(0))
        book = Book(last_price=last)
        order = decide_order(agent, book, (f, c, n))
        if order is not None:
            assert order.price > 0.0
            assert order.side == ("bid" if f + c + n > 0 else "ask")


class TestValidation:
    def test_population_bounds(self):
        with pytest.raises(ValueError):
            AgentPopulation(w_f=-1.0)
        with pytest.raises(ValueError):
            AgentPopulation(w_f=0.0, w_c=0.0, w_n=0.0)
        with pytest.raises(ValueError):
            AgentPopulation(tau_star_min=10, tau_star_max=5)
        with pytest.raises(ValueError):
            AgentPopulation(tau_min=0)
        with pytest.raises(ValueError):
            AgentPopulation(k_min=0.2, k_max=0.1)
        with pytest.raises(ValueError):
            AgentPopulation(k_max=1.5)

    def test_market_config_bounds(self):
        with pytest.raises(ValueError):
            MarketConfig(agents_per_step=0)
        with pytest.raises(ValueError):
            MarketConfig(n_agents=10, agents_per_step=11, preopen_steps=10)
        with pytest.raises(ValueError):
            MarketConfig(sigma_star=0.0)  # strictly positive by contract
        with pytest.raises(ValueError):
            MarketConfig(sigma=-1e-3)
        with pytest.raises(ValueError):
            MarketConfig(n_agents=100, preopen_steps=50)
        with pytest.raises(ValueError):
            MarketConfig(days=0)
        with pytest.raises(ValueError):
            MarketConfig(order_ttl=0)

    def test_ttl_default_and_override(self):
        assert MarketConfig().ttl == 200
        assert MarketConfig(order_ttl=35).ttl == 35

    def test_agent_field_checks(self):
        with pytest.raises(ValueError):
            FcnAgent(0.0, 0.0, 0.0, 100, 5, 0.0, 1e-3,
                     np.random.default_rng(0))
        with pytest.raises(ValueError):
            FcnAgent(1.0, 1.0, 1.0, 0, 5, 0.0, 1e-3,
                     np.random.default_rng(0))
        with pytest.raises(ValueError):
            FcnAgent(1.0, 1.0, 1.0, 100, 5, 1.5, 1e-3,
                     np.random.default_rng(0))


class TestBuildAgents:
    def test_parameter_draw_distributions(self):
        config = MarketConfig(n_agents=2000, preopen_steps=2000)
        pop = AgentPopulation(tau_star_min=100, tau_star_max=200,
                              tau_min=1, tau_max=20, k_min=0.0, k_max=0.05)
        agents = build_agents(config, pop, np.random.default_rng(42))
        assert len(agents) == 2000
        tau_star = np.array([a.tau_star for a in agents])
        tau = np.array([a.tau for a in agents])
        k = np.array([a.k for a in agents])
        # integer draws: inclusive support fully hit, mean near midpoint
        assert tau_star.min() == 100 and tau_star.max() == 200
        assert set(tau) == set(range(1, 21))
        assert abs(tau_star.mean() - 150.0) < 4 * (101 / math.sqrt(12)) / math.sqrt(2000)
        assert abs(tau.mean() - 10.5) < 4 * (20 / math.sqrt(12)) / math.sqrt(2000)
        # margins: continuous uniform, KS on a fixed seed
        assert stats.kstest(k, "uniform", args=(0.0, 0.05)).pvalue > 1e-3

    def test_agent_streams_independent(self):
        config = MarketConfig(n_agents=100)
        agents = build_agents(config, AgentPopulation(),
                              np.random.default_rng(0))
        draws = [a.rng.normal() for a in agents[:10]]
        assert len(set(draws)) == 10


def _tiny_config(**kw):
    base = dict(n_agents=20, agents_per_step=4, preopen_steps=20,
                steps_per_day=10, days=2, seed=0)
    base.update(kw)
    return MarketConfig(**base)


class TestRunSession:
    def test_determinism(self):
        config = _tiny_config()
        pop = AgentPopulation()
        a = run_session(config, pop, seed=7)
        b = run_session(config, pop, seed=7)
        assert np.array_equal(a.raw, b.raw)
        assert a.n_trades == b.n_trades
        c = run_session(config, pop, seed=8)
        assert not np.array_equal(a.raw, c.raw)

    def test_raw_series_shape_and_positivity(self):
        config = _tiny_config(days=3, steps_per_day=25)
        res = run_session(config, AgentPopulation())
        assert res.raw.shape == (3 * 25 + 1,)
        assert np.all(res.raw > 0)

    def test_opening_anchored_near_fundamental(self):
        res = run_session(MarketConfig(days=1, seed=3), AgentPopulation())
        assert 0.9 < res.raw[0] < 1.1

    def test_noise_only_log_returns_centered(self):
        # with w_F = w_C = 0 the flow is direction-symmetric; the pooled
        # mean step log-return over many seeds must be statistically zero
        config = _tiny_config(days=2, steps_per_day=50, agents_per_step=5)
        pop = AgentPopulation(w_f=0.0, w_c=0.0, w_n=1.0)
        pooled = []
        for seed in range(12):
            res = run_session(config, pop, seed=seed)
            pooled.append(np.diff(np.log(res.raw)))
        pooled = np.concatenate(pooled)
        stderr = pooled.std() / math.sqrt(len(pooled))
        assert abs(pooled.mean()) < 5 * stderr + 1e-7

    def test_flat_fundamental_pins_prices(self):
        # the zero-vol fundamental walk stays at 1.0, so a fundamentalist
        # population keeps trading near par
        config = _tiny_config(sigma_star=1e-15, sigma=1e-4, days=2,
                              steps_per_day=50)
        pop = AgentPopulation(w_f=3.0, w_c=0.0, w_n=1.0)
        res = run_session(config, pop, seed=1)
        assert np.max(np.abs(res.raw - 1.0)) < 0.02

    def test_trades_counted(self):
        res = run_session(_tiny_config(), AgentPopulation(), seed=0)
        assert res.n_trades > 0

    @given(n_agents=st.integers(2, 12), agents_per_step=st.integers(1, 6),
           extra_preopen=st.integers(0, 10), steps_per_day=st.integers(1, 8),
           days=st.integers(1, 3), order_ttl=st.one_of(st.none(),
                                                       st.integers(1, 12)),
           sigma=st.sampled_from([1e-4, 1e-3, 1e-2]),
           w_f=st.sampled_from([0.0, 1.0, 3.0]),
           w_c=st.sampled_from([0.0, 1.0, 3.0, 10.0]),
           tau_max=st.integers(1, 30),
           k_max=st.sampled_from([0.0, 0.05, 0.2, 1.0]),
           seed=st.integers(0, 2**16))
    # continuous-phase expiry: 27 trades, 46 orders expire after the open
    @example(n_agents=10, agents_per_step=5, extra_preopen=0, steps_per_day=10,
             days=2, order_ttl=3, sigma=1e-3, w_f=1.0, w_c=1.0, tau_max=20,
             k_max=0.0, seed=0)
    # trade-heavy chartists: 20 of 160 continuous orders trade
    @example(n_agents=12, agents_per_step=10, extra_preopen=0, steps_per_day=8,
             days=2, order_ttl=None, sigma=1e-3, w_f=1.0, w_c=10.0,
             tau_max=10, k_max=0.0, seed=0)
    # fills onto dead entries: 6 of 13 fills are buys that empty the ask
    # head and pop the dead asks beneath it, 13 in all (a sell does so
    # once in the first example, popping 2 dead bids)
    @example(n_agents=7, agents_per_step=6, extra_preopen=10, steps_per_day=8,
             days=2, order_ttl=8, sigma=1e-2, w_f=0.0, w_c=1.0, tau_max=8,
             k_max=0.2, seed=38133)
    # compaction after the open: the heaps are compacted at 11 of the 24
    # continuous steps, around 96 resting orders and 24 fills
    @example(n_agents=5, agents_per_step=5, extra_preopen=7, steps_per_day=8,
             days=3, order_ttl=2, sigma=1e-2, w_f=1.0, w_c=3.0, tau_max=3,
             k_max=0.0, seed=31679)
    # order_ttl 9 under a 20-step preopen: 12 of the 20 preopen orders
    # expire before the open, which still trades 3 units; 3 fills follow
    @example(n_agents=11, agents_per_step=3, extra_preopen=9, steps_per_day=3,
             days=1, order_ttl=9, sigma=1e-4, w_f=3.0, w_c=1.0, tau_max=26,
             k_max=0.0, seed=59072)
    # margins drawn up to 100%: 74 continuous orders rest, many far from
    # the touch, and 10 fill; U[0, 1) never draws a margin of exactly 1,
    # so no order prices at 0 here (test_unit_margin_bids_are_skipped)
    @example(n_agents=6, agents_per_step=4, extra_preopen=5, steps_per_day=7,
             days=3, order_ttl=11, sigma=1e-2, w_f=1.0, w_c=0.0, tau_max=22,
             k_max=1.0, seed=21789)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_session(self, n_agents, agents_per_step,
                                       extra_preopen, steps_per_day, days,
                                       order_ttl, sigma, w_f, w_c, tau_max,
                                       k_max, seed):
        config = MarketConfig(n_agents=n_agents,
                              agents_per_step=min(agents_per_step, n_agents),
                              preopen_steps=n_agents + extra_preopen,
                              steps_per_day=steps_per_day, days=days,
                              sigma=sigma, order_ttl=order_ttl)
        pop = AgentPopulation(w_f=w_f, w_c=w_c, tau_star_min=10,
                              tau_star_max=50, tau_min=1, tau_max=tau_max,
                              k_max=k_max)
        res = run_session(config, pop, seed=seed)
        raw, n_trades = reference_session(config, pop, seed=seed)
        assert res.raw.tobytes() == raw.tobytes()
        assert res.n_trades == n_trades


    def test_unit_margin_bids_are_skipped(self):
        # k = 1 prices every bid at 0, so the preopen and the continuous
        # phase skip them all; asks rest and nothing ever trades
        config = _tiny_config()
        pop = AgentPopulation(k_min=1.0, k_max=1.0)
        res = run_session(config, pop, seed=0)
        raw, n_trades = reference_session(config, pop, seed=0)
        assert res.raw.tobytes() == raw.tobytes()
        assert res.n_trades == n_trades == 0
        assert np.all(res.raw == 1.0)

    def test_continuous_orders_bypass_submit(self, monkeypatch):
        # only preopen orders go through Book.submit; the continuous phase
        # matches and rests on the heaps itself, and expiry still runs at
        # the open and at every continuous step
        calls = {"submit": 0, "expire": 0}
        submit, expire = Book.submit, fcn_agents.expire_orders

        def counted_submit(*args, **kwargs):
            calls["submit"] += 1
            return submit(*args, **kwargs)

        def counted_expire(*args):
            calls["expire"] += 1
            return expire(*args)

        monkeypatch.setattr(Book, "submit", counted_submit)
        monkeypatch.setattr(fcn_agents, "expire_orders", counted_expire)
        config = _tiny_config()
        res = run_session(config, AgentPopulation(), seed=0)
        assert res.n_trades > 0
        assert 0 < calls["submit"] <= config.preopen_steps
        assert calls["expire"] == 1 + config.days * config.steps_per_day

    def test_market_paths_raw_series_pinned(self):
        # the full step-by-step series of three sessions of the chartist
        # market benchmarked as market-paths, recorded before the
        # continuous phase stopped calling Book.submit
        config = MarketConfig(agents_per_step=10, days=20)
        pop = AgentPopulation(w_c=3.0, tau_star_min=50, tau_star_max=150,
                              tau_min=1, tau_max=10)
        digest = hashlib.sha256()
        for i in range(3):
            res = run_session(config, pop, seed=(3, i, 0))
            digest.update(res.raw.tobytes())
        assert digest.hexdigest() == (
            "fc39eba27300d9a6a125358ff21dfa8ae277ee87aa91b52059bd60e3280ec90a")


class TestExtractPaths:
    def test_constant_series_normalizes_to_one(self):
        raw = np.full(201, 1.25)
        paths = extract_paths([raw], days=20, steps_per_day=10)
        assert paths.shape == (1, 21)
        assert np.all(paths == 1.0)

    def test_daily_sampling_index_arithmetic(self):
        raw = np.linspace(1.0, 1.1, 201)  # 200 steps, linear
        paths = extract_paths([raw], days=20, steps_per_day=10)
        assert paths[0, 1] == raw[10] / raw[0]
        assert paths[0, 20] == raw[200] / raw[0]

    def test_batch_shape(self):
        raws = [np.linspace(1.0, 1.2, 201) for _ in range(3)]
        paths = extract_paths(raws, days=20, steps_per_day=10)
        assert paths.shape == (3, 21)

    def test_scale_invariance(self):
        raw = np.linspace(1.0, 1.3, 41)
        a = extract_paths([raw], days=4, steps_per_day=10)
        b = extract_paths([raw * 7.3], days=4, steps_per_day=10)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            extract_paths([np.ones(200)], days=20, steps_per_day=10)


class TestSimulatePaths:
    def test_shape_and_start(self):
        config = _tiny_config()
        paths, rejects = simulate_paths(config, AgentPopulation(), 6)
        assert paths.shape == (6, 3)
        assert np.all(paths[:, 0] == 1.0)
        assert np.all(paths > 0)
        assert rejects >= 0

    def test_deterministic_in_config_seed(self):
        config = _tiny_config(seed=5)
        pop = AgentPopulation()
        a, _ = simulate_paths(config, pop, 4)
        b, _ = simulate_paths(config, pop, 4)
        assert np.array_equal(a, b)

    def test_parallel_merge_matches_serial(self):
        config = _tiny_config(seed=9)
        pop = AgentPopulation()
        serial, r1 = simulate_paths(config, pop, 5, parallel=1)
        par, r2 = simulate_paths(config, pop, 5, parallel=2)
        assert np.array_equal(serial, par)
        assert r1 == r2

    def test_paths_byte_identical_across_commits(self):
        # digest of the criterion-7 market's first 20 sessions, recorded
        # before the order book moved from sorted lists to heaps; any
        # change to the draws, the price arithmetic or the matching order
        # moves it
        config = MarketConfig(agents_per_step=10, days=20, seed=0)
        pop = AgentPopulation(w_c=3.0, tau_star_min=50, tau_star_max=150,
                              tau_min=1, tau_max=10)
        paths, rejected = simulate_paths(config, pop, 20)
        assert rejected == 0
        assert hashlib.sha256(paths.tobytes()).hexdigest() == (
            "ff11571b4cdd6d98cd4e2af90bab6a6da9bfde1075e647035305f91d0d6c41b3")

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_paths(_tiny_config(), AgentPopulation(), 0)
