"""End-to-end acceptance checks for the hedging laboratory.

Ten numbered criteria, each with a runtime budget (timed on one CPU).
Every test prints a single `criterion N: PASS/FAIL - detail` line and the
same lines are echoed in the terminal summary, so the whole gate can be
read off a plain `pytest tests/test_acceptance.py` run.

Tests run top to bottom in criterion order; the market-simulator and
study criteria dominate the wall clock (roughly 15 minutes total).
"""

import math
import time

import numpy as np
import yaml

from _reference import RefBook, delta_hedge_baseline_batch, make_order_stream
from hedgelab.cli import (_derive, build_params, evaluation_paths,
                          load_config, main, tune_objective)
from hedgelab.hedge_core import feature_width, features_matrix, pl_core
from hedgelab.fcn_agents import AgentPopulation, MarketConfig, simulate_paths
from hedgelab.instruments import OptionSpec, payoff_batch
from hedgelab.lob import Book, Order, expire_orders, insert_order
from hedgelab.market_data import lag_returns, raw_kurtosis
from hedgelab.neuralnet import MlpPolicy, minibatch_loss, train
from hedgelab.risk import RiskMeasure, cvar, erm, indifference_price, utility
from hedgelab.stoch_models import (DT, GbmParams, HestonParams, gbm_paths,
                                   heston_paths)
from hedgelab.tuner import SearchSpace, run_study

SPEC = OptionSpec("european_call", strike=1.0, maturity_days=20)
BS_ANCHOR = 0.022566  # closed-form ATM 20-day price at sigma=0.2, zero rate


def _verdict(report, n, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    ok = ok and (budget is None or elapsed < budget)
    cap = "" if budget is None else f" / {budget:.0f}s"
    line = (f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{elapsed:.1f}s{cap}]")
    report.append(line)
    print(line)
    assert ok, line


def test_criterion_01_pl_identity(acceptance_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        b = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        paths = 1.0 + 0.2 * rng.standard_normal((b, n + 1))
        deltas = rng.standard_normal((b, n))
        payoffs = rng.standard_normal(b)
        c = float(rng.uniform(0.0, 0.01))
        pl, gain, cost = pl_core(paths, deltas, payoffs, c)
        assert np.array_equal(pl, -payoffs + gain - cost)  # bit-exact
        # independent accounting loop, delta_{-1} = delta_n = 0
        for i in range(b):
            g = sum(deltas[i, j] * (paths[i, j + 1] - paths[i, j])
                    for j in range(n))
            dpad = np.concatenate(([0.0], deltas[i], [0.0]))
            k = sum(abs(dpad[j + 1] - dpad[j]) * paths[i, j]
                    for j in range(n + 1)) * c
            ref = -payoffs[i] + g - k
            worst = max(worst, abs(pl[i] - ref) / max(1.0, abs(ref)))
        pl0, g0, c0 = pl_core(paths, np.zeros((b, n)), payoffs, c)
        assert np.array_equal(pl0, -payoffs)
        assert not g0.any() and not c0.any()
    _verdict(acceptance_report, 1, worst < 1e-12,
             f"1000 instances, decomposition bit-exact, "
             f"loop reference off by {worst:.1e}", t0, 1.0)


def test_criterion_02_risk_oracles(acceptance_report):
    t0 = time.perf_counter()
    err = 0.0
    err = max(err, abs(erm(np.array([1.0, -1.0]), lam=1.0)
                       - (-math.log(math.cosh(1.0)))))
    rng = np.random.default_rng(202)
    x = rng.standard_normal(1000)
    for lam in (0.5, 1.0, 10.0):
        naive = -math.log(float(np.mean(np.exp(-lam * x)))) / lam
        err = max(err, abs(erm(x, lam=lam) - naive))
    assert cvar(np.array([3.0, 1.0, 2.0, 4.0]), alpha=0.75) == 1.0
    assert cvar(np.array([3.0, 1.0, 2.0, 4.0]), alpha=0.5) == 1.5
    for alpha in (0.9, 0.95, 0.99):
        k = math.ceil((1.0 - alpha) * x.size)
        naive = float(np.sort(x)[:k].mean())
        err = max(err, abs(cvar(x, alpha=alpha) - naive))
    for shift in (0.37, -1.25):
        err = max(err, abs(erm(x + shift, lam=2.0) - (erm(x, lam=2.0) + shift)))
        err = max(err, abs(cvar(x + shift, alpha=0.95)
                           - (cvar(x, alpha=0.95) + shift)))
    _verdict(acceptance_report, 2, err < 1e-10,
             f"ERM/CVaR naive-eval and cash-invariance error {err:.1e}",
             t0, 1.0)


def _np_loss(policy, paths, spec, measure, cost_rate):
    feats = features_matrix(paths, spec)
    deltas = policy.forward_np(feats.reshape(-1, feats.shape[2]))
    deltas = deltas.reshape(paths.shape[0], paths.shape[1] - 1)
    pl, _, _ = pl_core(paths, deltas, payoff_batch(spec, paths), cost_rate)
    return float(-utility(pl, measure))


def test_criterion_03_gradient_fidelity(acceptance_report):
    t0 = time.perf_counter()
    toy = OptionSpec("european_call", strike=1.0, maturity_days=6)
    measures = [RiskMeasure("erm", lam=5.0), RiskMeasure("cvar", alpha=0.8)]
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        steps = 1.0 + 0.02 * rng.standard_normal((12, 6))
        paths = np.cumprod(np.hstack([np.ones((12, 1)), steps]), axis=1)
        policy = MlpPolicy(feature_width(toy), seed=seed)
        state = policy.get_state()
        state[-2] = rng.normal(0.0, 0.3, state[-2].shape)
        state[-1] = rng.normal(0.0, 0.1, state[-1].shape)
        policy.set_state(state)
        for measure in measures:
            grads = minibatch_loss(
                policy, features_matrix(paths, toy), paths,
                payoff_batch(toy, paths), measure, 0.002).backward()
            h = 1e-6
            for p, g in zip(policy.params, grads):
                flat = p.reshape(-1)
                for idx in rng.choice(flat.size, size=min(3, flat.size),
                                      replace=False):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up = _np_loss(policy, paths, toy, measure, 0.002)
                    flat[idx] = keep - h
                    dn = _np_loss(policy, paths, toy, measure, 0.002)
                    flat[idx] = keep
                    fd = (up - dn) / (2.0 * h)
                    # floor the denominator at the FD noise scale: with
                    # loss ~ 0.1 and h = 1e-6 a quotient below ~1e-6 is
                    # roundoff, and relative error against it means nothing
                    rel = abs(g.reshape(-1)[idx] - fd) / max(abs(fd), 1e-6)
                    worst = max(worst, rel)
    _verdict(acceptance_report, 3, worst < 1e-4,
             f"MLP->PL->ERM/CVaR vs central FD, worst rel err {worst:.1e}",
             t0, 30.0)


def test_criterion_04_pricing_anchor(acceptance_report):
    t0 = time.perf_counter()
    paths = gbm_paths(GbmParams(mu=0.0, sigma=0.2, n_steps=20), 10_000,
                      seed=401)
    policy = MlpPolicy(feature_width(SPEC), seed=402)
    _, report = train(policy, paths, SPEC, RiskMeasure("erm", lam=1.0),
                      lr=1e-3, epochs=100, minibatch=256, seed=403,
                      val_split=0.2)
    price = report.best_price
    rel = (price - BS_ANCHOR) / BS_ANCHOR
    _verdict(acceptance_report, 4, abs(rel) < 0.15,
             f"best val ERM(1) price {price:.6f} vs {BS_ANCHOR} "
             f"({rel:+.1%}, band +-15%)", t0, 600.0)


def test_criterion_05_hedging_efficacy(acceptance_report):
    t0 = time.perf_counter()
    params = GbmParams(mu=0.0, sigma=0.2, n_steps=20)
    measure = RiskMeasure("cvar", alpha=0.95)
    paths = gbm_paths(params, 10_000, seed=501)
    policy = MlpPolicy(feature_width(SPEC), seed=502)
    policy, _ = train(policy, paths, SPEC, measure, lr=1e-3, epochs=100,
                      minibatch=256, seed=503, val_split=0.2)

    eval_paths = gbm_paths(params, 10_000, seed=504)
    pay = payoff_batch(SPEC, eval_paths)
    feats = features_matrix(eval_paths, SPEC)
    deltas = policy.forward_np(
        feats.reshape(-1, feats.shape[2])).reshape(eval_paths.shape[0], -1)
    pl_nn, _, _ = pl_core(eval_paths, deltas, pay, 0.0)
    pl_bs, _, _ = pl_core(eval_paths,
                          delta_hedge_baseline_batch(eval_paths, SPEC, 0.2),
                          pay, 0.0)
    p_nn = indifference_price(pl_nn, measure)
    p_bare = indifference_price(-pay, measure)
    p_bs = indifference_price(pl_bs, measure)
    reduction = 1.0 - p_nn / p_bare
    vs_bs = (p_nn - p_bs) / p_bs
    ok = reduction >= 0.40 and abs(vs_bs) <= 0.20
    _verdict(acceptance_report, 5, ok,
             f"CVaR(.95) price {p_nn:.4f}: {reduction:.1%} below unhedged "
             f"{p_bare:.4f}, {vs_bs:+.1%} vs BS delta {p_bs:.4f}", t0, 600.0)


def test_criterion_06_heston_moments(acceptance_report):
    t0 = time.perf_counter()
    params = HestonParams(kappa=1.0, theta=0.04, v0=0.04, vol_of_vol=0.2,
                          rho=-0.7, n_steps=20)
    s, v = heston_paths(params, 100_000, seed=601, return_variance=True)
    horizon = params.n_steps * DT
    target_v = params.theta + (params.v0 - params.theta) * math.exp(
        -params.kappa * horizon)
    n = s.shape[0]
    z_v = abs(v[:, -1].mean() - target_v) / (v[:, -1].std(ddof=1) / math.sqrt(n))
    z_s = abs(s[:, -1].mean() - 1.0) / (s[:, -1].std(ddof=1) / math.sqrt(n))
    kurt = raw_kurtosis(lag_returns(s, 1))
    ok = z_v <= 3.0 and z_s <= 3.0 and 2.5 <= kurt <= 4.5
    _verdict(acceptance_report, 6, ok,
             f"E[V_T] z={z_v:.2f}, E[S_T] z={z_s:.2f}, lag-1 kurtosis "
             f"{kurt:.2f} in [2.5, 4.5]", t0, 120.0)


def test_criterion_07_stylized_facts(acceptance_report):
    t0 = time.perf_counter()
    config = MarketConfig(agents_per_step=10, days=20, seed=0)
    population = AgentPopulation(w_c=3.0, tau_star_min=50, tau_star_max=150,
                                 tau_min=1, tau_max=10)
    paths, rejected = simulate_paths(config, population, 10_000)
    k1 = raw_kurtosis(lag_returns(paths, 1))
    k20 = raw_kurtosis(lag_returns(paths, 20))
    ok = k1 > 4.0 and k20 < k1
    _verdict(acceptance_report, 7, ok,
             f"chartist-heavy kurtosis lag-1 {k1:.1f} > 4, lag-20 {k20:.1f} "
             f"< lag-1 ({rejected} rejected sessions)", t0, 600.0)


def test_criterion_08_matching_engine(acceptance_report):
    t0 = time.perf_counter()
    n = 1_000_000
    prices, is_bid, volumes, ttls = make_order_stream(n, seed=0)
    book, ref = Book(), RefBook()
    engine_fills, ref_fills = [], []
    crossed = 0
    for i in range(n):
        book.step = ref.step = i
        if i % 17 == 0:
            expire_orders(book, i)
            ref.expire(i)
        order = Order(id=i, side="bid" if is_bid[i] else "ask",
                      price=float(prices[i]), volume=int(volumes[i]),
                      placed_at=i, expires_at=i + int(ttls[i]))
        engine_fills.extend(insert_order(book, order))
        ref_fills.extend(ref.insert(i, bool(is_bid[i]), float(prices[i]),
                                    int(volumes[i]), int(ttls[i])))
        bb, ba = book.best_bid, book.best_ask
        if bb is not None and ba is not None and bb >= ba:
            crossed += 1
    identical = [tuple(f) for f in engine_fills] == ref_fills
    traded = sum(f.volume for f in engine_fills)
    resting = (sum(e[3] for e in book.bids) + sum(e[3] for e in book.asks))
    conserved = int(volumes.sum()) == 2 * traded + resting + ref.expired_volume
    ok = identical and conserved and crossed == 0
    _verdict(acceptance_report, 8, ok,
             f"1e6 orders, {len(engine_fills)} fills identical to reference, "
             f"volume conserved, 0 crossed states", t0, 60.0)


def test_criterion_09_tuning_sanity(acceptance_report):
    t0 = time.perf_counter()
    # the default config (GBM, ERM(1), the ATM 20-day call), as `tune`
    # builds it: the baseline is the config's own values, untuned
    cfg = load_config()
    spec, measure, sim = build_params(cfg)
    eval_paths, _ = evaluation_paths(cfg, sim, _derive(0, 0xE7A1))
    objective = tune_objective(cfg, spec, measure, eval_paths, 1)
    space = SearchSpace.gbm()
    baseline = objective(
        space.settings({"lr": cfg["train"]["lr"], **cfg["gbm"]}), (0, 20))
    result = run_study(space, 20, objective, cfg, seed=0)
    best = result.best.objective
    ok = best <= baseline * 1.05
    _verdict(acceptance_report, 9, ok,
             f"20-trial study best {best:.6f} vs default {baseline:.6f} "
             f"(ratio {best / baseline:.3f}, cap 1.05)", t0, 1800.0)


def test_criterion_10_determinism(acceptance_report, tmp_path):
    t0 = time.perf_counter()
    cfg_file = tmp_path / "config.yaml"
    cfg_file.write_text(yaml.safe_dump({
        "train": {"paths": 40, "epochs": 2, "minibatch": 64},
        "eval": {"n_paths": 30},
        "tune": {"trials": 2},
        "stats": {"n_paths": 30}}))
    commands = [("gen-paths", ["--paths", "25"]), ("train", []),
                ("price", []), ("tune", []), ("stats", []),
                ("reproduce-table", [])]
    all_equal = True
    checked = 0
    for cmd, extra in commands:
        snapshots = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}-{tag}"
            rc = main([cmd, "--config", str(cfg_file), "--seed", "5",
                       "--out", str(out), *extra])
            assert rc == 0, f"{cmd} run {tag} failed"
            files = sorted(p.name for p in out.iterdir()
                           if p.suffix in (".csv", ".json"))
            snapshots.append({name: (out / name).read_bytes()
                              for name in files})
        assert any(n.endswith(".csv") for n in snapshots[0])
        checked += len(snapshots[0])
        all_equal = all_equal and snapshots[0] == snapshots[1]
    _verdict(acceptance_report, 10, all_equal,
             f"6 subcommands rerun, {checked} artifacts byte-identical",
             t0, None)
