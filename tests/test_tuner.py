"""Search spaces, constrained sampling, the TPE-flavored sampler, studies."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _reference
import hedgelab
from hedgelab import fcn_agents
from hedgelab.cli import (build_params, evaluation_paths, generate_paths,
                          load_config, trial_config, tune_objective)
from hedgelab.instruments import OptionSpec
from hedgelab.risk import RiskMeasure
from hedgelab.tuner import (LR_GRID, SearchSpace, Trial, read_ledger,
                            run_study, sample_trial)

SPEC = OptionSpec("european_call", maturity_days=8)
ERM1 = RiskMeasure("erm", lam=1.0)


def _config(generator="gbm", maturity_days=8, **train):
    """The default config on ``generator`` at ``maturity_days``, with
    ``train`` keys set."""
    cfg = load_config()
    cfg["generator"] = generator
    cfg["option"]["maturity_days"] = maturity_days
    cfg["train"].update(train)
    return cfg


def _tiny(generator="gbm", **train):
    """``_config`` with trials sized small: by default 64 paths, one
    epoch, one minibatch."""
    return _config(generator, **{"paths": 64, "epochs": 1, "minibatch": 64,
                                 **train})


CFG = _config()
TINY = _tiny()


def _trial_paths(cfg, settings, n_paths, seed):
    """Paths of ``cfg`` with a trial's settings, drawn as a trial draws
    its training paths."""
    _, _, sim = build_params(trial_config(cfg, settings))
    return generate_paths(sim, n_paths, seed)[0]

# a drift of 1e308 overflows every GBM path to inf, so the features, the
# loss and every epoch are non-finite: such a trial fails
OVERFLOWING_SPACE = SearchSpace({"lr": (1e-2,), "mu": (0.0, 1e308),
                                 "sigma": (0.2,)},
                                sets=SearchSpace.gbm().sets)


def _eval_paths(n_paths=64, seed=0):
    return _reference.trial_paths("gbm", _reference.default_assignment("gbm"),
                                  SPEC.maturity_days, n_paths, seed)


def _study(space=None, n_trials=1, cfg=TINY, eval_paths=None,
           objective=None, **kw):
    """run_study with ``tune``'s objective on ``cfg``, identified by it;
    by default the GBM space on the small config at maturity 8."""
    if objective is None:
        spec, measure, _ = build_params(cfg)
        objective = tune_objective(
            cfg, spec, measure,
            _eval_paths() if eval_paths is None else eval_paths, 1)
    return run_study(space or SearchSpace.gbm(), n_trials, objective, cfg,
                     **kw)


class TestSearchSpace:
    def test_gbm_grid_contents(self):
        space = SearchSpace.gbm()
        assert space.grids["lr"] == LR_GRID == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        assert space.grids["mu"][0] == -0.25 and space.grids["mu"][-1] == 0.25
        assert len(space.grids["mu"]) == 11
        assert 0.0 in space.grids["mu"]
        assert space.grids["sigma"] == tuple(
            round(0.05 * i, 10) for i in range(1, 11))
        assert space.keys() == ["lr", "mu", "sigma"]

    def test_heston_grid_contents(self):
        space = SearchSpace.heston()
        assert space.grids["kappa"][:3] == (0.0, 0.05, 0.1)
        assert space.grids["rho"][0] == -1.0 and space.grids["rho"][-1] == 1.0
        assert len(space.grids["rho"]) == 41

    def test_market_constraints_declared(self):
        space = SearchSpace.market()
        assert ("tau_star_min", "tau_star_max") in space.constraints
        assert ("tau_min", "tau_max") in space.constraints
        assert ("k_min", "k_max") in space.constraints
        assert space.grids["n_agent_step"] == (1, 5, 10)
        assert set(space.grids["w_f"]) == {0, 1, 3, 5, 10, 30, 50}

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace({"a": ()})
        with pytest.raises(ValueError):
            SearchSpace({"a": (1,)}, constraints=(("a", "b"),))
        with pytest.raises(ValueError):
            SearchSpace({"a": (5,), "b": (1,)}, constraints=(("a", "b"),))

    def test_satisfies(self):
        space = SearchSpace({"lo": (1, 5), "hi": (2, 4)},
                            constraints=(("lo", "hi"),))
        assert space.satisfies({"lo": 1, "hi": 4})
        assert not space.satisfies({"lo": 5, "hi": 2})


class TestSampling:
    def test_singleton_space_is_fixed(self):
        space = SearchSpace({"a": (7,), "b": (0.5,)})
        for seed in range(5):
            assert sample_trial(space, "random", [], seed) == {"a": 7,
                                                               "b": 0.5}

    def test_constraints_hold_over_many_draws(self):
        space = SearchSpace.market()
        rng_seeds = np.random.SeedSequence(0).generate_state(10_000)
        for s in rng_seeds[:2000]:
            a = sample_trial(space, "random", [], int(s))
            assert a["tau_star_min"] <= a["tau_star_max"]
            assert a["tau_min"] <= a["tau_max"]
            assert a["k_min"] <= a["k_max"]

    def test_draws_deterministic_in_seed(self):
        space = SearchSpace.gbm()
        assert (sample_trial(space, "tpe_like", [], 42)
                == sample_trial(space, "tpe_like", [], 42))
        draws = {tuple(sorted(sample_trial(space, "random", [], s).items()))
                 for s in range(30)}
        assert len(draws) > 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            sample_trial(SearchSpace.gbm(), "grid", [], 0)

    def test_uniform_during_warmup(self):
        # with fewer than TPE_WARMUP records the sampler ignores history
        space = SearchSpace.gbm()
        history = [Trial(i, {"lr": 1e-3, "mu": 0.0, "sigma": 0.05},
                         objective=0.1, status="ok") for i in range(5)]
        assert (sample_trial(space, "tpe_like", history, 7)
                == sample_trial(space, "tpe_like", [], 7))

    def test_tpe_shifts_mass_toward_good_values(self):
        # craft a history where sigma=0.05 dominates the good quartile:
        # afterwards the sampler must pick it far more often than uniform
        space = SearchSpace.gbm()
        history = []
        for i in range(40):
            good = i < 10
            history.append(Trial(
                i,
                {"lr": 1e-3, "mu": 0.0,
                 "sigma": 0.05 if good else float(space.grids["sigma"][1 + i % 9])},
                objective=0.01 if good else 1.0 + i, status="ok"))
        hits = sum(
            sample_trial(space, "tpe_like", history, s)["sigma"] == 0.05
            for s in range(200))
        # uniform would give ~20/200; the ratio-weighted draw concentrates
        assert hits > 80

    def test_tpe_respects_constraints(self):
        space = SearchSpace({"lo": (1, 2, 3), "hi": (1, 2, 3)},
                            constraints=(("lo", "hi"),))
        history = [Trial(i, {"lo": 1, "hi": 3}, objective=float(i), status="ok")
                   for i in range(25)]
        for s in range(200):
            a = sample_trial(space, "tpe_like", history, s)
            assert a["lo"] <= a["hi"]


class TestSettings:
    def test_columns_set_their_config_keys(self):
        assert SearchSpace.gbm().settings(
            {"lr": 1e-2, "mu": 0.05, "sigma": 0.3}) == {
                "train.lr": 1e-2, "gbm.mu": 0.05, "gbm.sigma": 0.3}
        market = _reference.default_assignment("market")
        settings = SearchSpace.market().settings(market)
        assert settings["market.agents_per_step"] == 5
        assert settings["market.population.tau_star_max"] == 200
        assert len(settings) == len(market)

    def test_initial_vol_sets_v0_and_theta_to_its_square(self):
        settings = SearchSpace.heston().settings(
            {"lr": 1e-3, "kappa": 0.5, "sigma_init": 0.3, "rho": -0.5})
        assert settings == {"train.lr": 1e-3, "heston.kappa": 0.5,
                            "heston.v0": 0.3 ** 2, "heston.theta": 0.3 ** 2,
                            "heston.rho": -0.5}

    def test_every_column_sets_a_key_of_the_config(self):
        for generator in ("gbm", "heston", "market"):
            space = getattr(SearchSpace, generator)()
            a = sample_trial(space, "random", [], 0)
            for key in space.settings(a):
                section, *rest = key.split(".")
                assert section in ("train", generator), key
                tree = CFG[section]
                for part in rest:
                    tree = tree[part]


class TestTrialPaths:
    """A trial's settings merged over the run's config and built as every
    subcommand builds its paths; the by-hand oracle agrees bit for bit."""

    def test_gbm_paths_shape_and_seeding(self):
        settings = SearchSpace.gbm().settings(
            {"lr": 1e-3, "mu": 0.0, "sigma": 0.2})
        a = _trial_paths(CFG, settings, 64, 3)
        assert a.shape == (64, 9)
        assert np.array_equal(a, _trial_paths(CFG, settings, 64, 3))

    def test_heston_paths_shape(self):
        settings = SearchSpace.heston().settings(
            {"lr": 1e-3, "kappa": 0.5, "sigma_init": 0.2, "rho": -0.5})
        a = _trial_paths(_config("heston"), settings, 64, 1)
        assert a.shape == (64, 9)
        assert np.all(a > 0)

    def test_unknown_generator(self):
        cfg = _config()
        cfg["generator"] = "sabr"
        with pytest.raises(ValueError, match="generator"):
            _trial_paths(cfg, {}, 64, 0)

    def test_settings_leave_the_config_as_it_was(self):
        cfg = _config()
        trial = trial_config(cfg, {"train.lr": 0.1, "gbm.mu": 0.05})
        assert (trial["train"]["lr"], trial["gbm"]["mu"]) == (0.1, 0.05)
        assert cfg == CFG

    def test_default_assignments_live_on_grids(self):
        # the no-tuning baseline is the config's own values
        gbm = {"lr": CFG["train"]["lr"], **CFG["gbm"]}
        assert gbm == _reference.default_assignment("gbm")
        space = SearchSpace.gbm()
        assert gbm["mu"] in space.grids["mu"]
        assert gbm["sigma"] in space.grids["sigma"]
        assert CFG["heston"]["kappa"] == 1.0  # prior-study value, off the grid
        assert CFG["heston"]["rho"] == -0.7
        market = {column: CFG["market"]["population"].get(column)
                  for column in SearchSpace.market().keys()}
        market.update(lr=CFG["train"]["lr"],
                      n_agent_step=CFG["market"]["agents_per_step"],
                      sigma_star=CFG["market"]["sigma_star"],
                      sigma=CFG["market"]["sigma"])
        assert market == _reference.default_assignment("market")
        assert SearchSpace.market().satisfies(market)

    @pytest.mark.parametrize("generator, n_draws, maturity_days, n_paths", [
        ("gbm", 20, 8, 64), ("heston", 20, 8, 64), ("market", 4, 2, 2)])
    def test_sampled_assignments(self, generator, n_draws, maturity_days,
                                 n_paths):
        space = getattr(SearchSpace, generator)()
        cfg = _config(generator, maturity_days)
        for seed in range(n_draws):
            a = sample_trial(space, "random", [], seed)
            expected = _reference.trial_paths(generator, a, maturity_days,
                                              n_paths, seed)
            got = _trial_paths(cfg, space.settings(a), n_paths, seed)
            assert np.array_equal(got, expected), a

    @pytest.mark.parametrize("generator, maturity_days, n_paths", [
        ("gbm", 8, 200), ("market", 2, 3)])
    def test_default_eval_set(self, generator, maturity_days, n_paths):
        cfg = _config(generator, maturity_days)
        cfg["eval"]["n_paths"] = n_paths
        seed = 7
        got, _ = evaluation_paths(cfg, build_params(cfg)[2], seed)
        expected = _reference.trial_paths(
            generator, _reference.default_assignment(generator),
            maturity_days, n_paths, seed)
        assert np.array_equal(got, expected)

    def test_heston_default_eval_set_within_one_ulp_of_variance(self):
        # the config's heston section has theta = v0 = 0.04, the grid's
        # default sigma_init 0.2 squares to 0.04000000000000001
        cfg = _config("heston")
        cfg["eval"]["n_paths"] = 200
        got, _ = evaluation_paths(cfg, build_params(cfg)[2], 7)
        expected = _reference.trial_paths(
            "heston", _reference.default_assignment("heston"), 8, 200, 7)
        assert not np.array_equal(got, expected)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


def _loaded_by_tuner_import(modules):
    """Which of ``modules`` a fresh process holds after importing the
    tuner."""
    code = ("import sys, hedgelab.tuner; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(hedgelab.__file__).parents[1])},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_tuner_imports_no_cli():
    assert _loaded_by_tuner_import(["hedgelab.cli"]) == "[]"


def test_tuner_imports_no_training_code():
    # a study trains and prices through its caller's objective only
    assert _loaded_by_tuner_import(
        ["hedgelab.neuralnet", "hedgelab.hedge_core",
         "hedgelab.instruments", "hedgelab.risk"]) == "[]"


GBM_DEFAULT = SearchSpace.gbm().settings(_reference.default_assignment("gbm"))


class TestEvaluate:
    def test_deterministic_objective(self):
        objective = tune_objective(TINY, SPEC, ERM1, _eval_paths(), 1)
        assert objective(GBM_DEFAULT, (0, 5)) == objective(GBM_DEFAULT, (0, 5))

    def test_objective_is_finite_price(self):
        objective = tune_objective(TINY, SPEC, ERM1, _eval_paths(seed=1), 1)
        price = objective(GBM_DEFAULT, (1, 0))
        assert math.isfinite(price)
        assert 0.0 < price < 0.5

    @pytest.mark.parametrize("generator, n_draws, maturity_days, n_paths, "
                             "epochs, measure", [
        ("gbm", 8, 8, 64, 2, ERM1),
        ("heston", 8, 8, 64, 2, RiskMeasure("cvar", alpha=0.9)),
        ("market", 2, 2, 3, 1, ERM1)])
    def test_sampled_assignments_match_the_reference_pipeline(
            self, generator, n_draws, maturity_days, n_paths, epochs,
            measure):
        # a trial is `train` on the trial's config, priced on the study's
        # eval set: bit for bit the tuner's former pipeline, whose paths
        # come from the by-hand route
        space = getattr(SearchSpace, generator)()
        cfg = _config(generator, maturity_days, paths=n_paths, epochs=epochs,
                      minibatch=64)
        spec = OptionSpec("european_call", maturity_days=maturity_days)
        eval_paths = _reference.trial_paths(
            generator, _reference.default_assignment(generator),
            maturity_days, n_paths, 99)
        budget = _reference.StudyBudget(n_paths=n_paths, epochs=epochs,
                                        minibatch=64)
        objective = tune_objective(cfg, spec, measure, eval_paths, 1)
        for draw in range(n_draws):
            a = sample_trial(space, "random", [], draw)

            def by_hand(settings, n, seed, a=a):
                return _reference.trial_paths(generator, a, maturity_days,
                                              n, seed)

            expected = _reference.evaluate_assignment(
                space, a, spec, measure, budget, eval_paths, by_hand,
                (3, draw))
            assert objective(space.settings(a), (3, draw)) == expected, a


class TestStudy:
    def test_single_trial(self, tmp_path):
        res = _study(n_trials=1, seed=0)
        assert len(res.trials) == 1
        assert res.best is res.trials[0]

    def test_study_smoke_and_ranking(self, tmp_path):
        res = _study(n_trials=4, seed=1, strategy="random",
                     ledger_path=tmp_path / "ledger.csv",
                     best_path=tmp_path / "best.json")
        assert len(res.trials) == 4
        objs = [t.objective for t in res.ranked]
        assert objs == sorted(objs)
        assert res.best.objective == min(objs)
        assert (tmp_path / "best.json").read_text().startswith("{")

    def test_ledger_round_trip_and_resume(self, tmp_path):
        space = SearchSpace.gbm()
        ledger = tmp_path / "ledger.csv"
        first = _study(space, n_trials=3, seed=2, strategy="random",
                       ledger_path=ledger)
        recorded = read_ledger(ledger, space)
        assert [t.trial_id for t in recorded] == [0, 1, 2]
        assert [t.assignment for t in recorded] == \
            [t.assignment for t in first.trials]
        assert [t.objective for t in recorded] == \
            [t.objective for t in first.trials]

        resumed = _study(space, n_trials=5, seed=2, strategy="random",
                         ledger_path=ledger)
        assert len(resumed.trials) == 5
        # the first three trials come back verbatim from the ledger
        assert [t.assignment for t in resumed.trials[:3]] == \
            [t.assignment for t in first.trials]
        assert len(read_ledger(ledger, space)) == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ledger_survives_failed_trials(self, tmp_path):
        # failed trials record objective inf; the ledger must read back
        # and resume through them
        space = OVERFLOWING_SPACE
        cfg = _tiny(paths=32)
        eval_paths = _eval_paths(32, seed=99)
        ledger = tmp_path / "ledger.csv"
        first = _study(space, n_trials=6, cfg=cfg,
                       eval_paths=eval_paths, seed=3, strategy="random",
                       ledger_path=ledger)
        assert any(t.objective == math.inf for t in first.trials)
        recorded = read_ledger(ledger, space)
        assert [t.objective for t in recorded] == \
            [t.objective for t in first.trials]
        assert [t.status for t in recorded] == \
            [t.status for t in first.trials]
        resumed = _study(space, n_trials=8, cfg=cfg,
                         eval_paths=eval_paths, seed=3, strategy="random",
                         ledger_path=ledger)
        assert len(resumed.trials) == 8

    def test_ledger_of_another_study_refused(self, tmp_path):
        space = SearchSpace.gbm()
        ledger = tmp_path / "ledger.csv"
        _study(space, n_trials=1, seed=2, strategy="random",
               ledger_path=ledger)
        cvar = _tiny()
        cvar["measure"].update(kind="cvar", alpha=0.9)
        with pytest.raises(ValueError, match="belongs to study"):
            _study(space, n_trials=2, cfg=cvar, seed=2, strategy="random",
                   ledger_path=ledger)
        # a ledger that records no study hash cannot be checked, so it
        # is not resumed either
        (tmp_path / "ledger.csv.json").unlink()
        with pytest.raises(ValueError, match="study None"):
            _study(space, n_trials=2, seed=2, strategy="random",
                   ledger_path=ledger)
        assert len(read_ledger(ledger, space)) == 1

    def test_ledger_header_mismatch(self, tmp_path):
        bad = tmp_path / "ledger.csv"
        bad.write_text("trial,obj\n")
        with pytest.raises(ValueError, match="header"):
            read_ledger(bad, SearchSpace.gbm())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_trials_rank_last(self, tmp_path):
        # trials whose paths overflow train no finite epoch; they must
        # not abort the study and must sort behind every finished trial
        res = _study(OVERFLOWING_SPACE, n_trials=6,
                     cfg=_tiny(paths=32),
                     eval_paths=_eval_paths(32, seed=99), seed=3,
                     strategy="random")
        statuses = [t.status for t in res.trials]
        assert "ok" in statuses and "failed" in statuses
        for t in res.trials:
            if t.status != "ok":
                assert t.objective == math.inf
        assert res.ranked[0].status == "ok"
        assert res.best.objective < math.inf
        assert {t.status for t in res.ranked[-statuses.count("failed"):]} \
            == {"failed"}

    def test_rerun_reproduces_sequence(self):
        cfg = _tiny(paths=32)
        a = _study(n_trials=3, cfg=cfg, eval_paths=_eval_paths(32),
                   seed=4, strategy="random")
        b = _study(n_trials=3, cfg=cfg, eval_paths=_eval_paths(32),
                   seed=4, strategy="random")
        assert [t.assignment for t in a.trials] == \
            [t.assignment for t in b.trials]
        assert [t.objective for t in a.trials] == \
            [t.objective for t in b.trials]

    def test_n_trials_validation(self):
        with pytest.raises(ValueError):
            _study(n_trials=0)


class TestTrialLabels:
    def test_trade_free_sessions_are_degenerate(self, monkeypatch):
        def no_trades(config, population, seed=None):
            raw = np.ones(config.days * config.steps_per_day + 1)
            return fcn_agents.SessionResult(raw, 0)

        monkeypatch.setattr(fcn_agents, "run_session", no_trades)
        res = _study(SearchSpace.market(), n_trials=1,
                     cfg=_tiny("market", paths=2),
                     seed=0)
        assert res.trials[0].status == "degenerate"
        assert res.trials[0].objective == math.inf

    def test_other_errors_propagate(self):
        def unimplemented(*args, **kwargs):
            raise NotImplementedError("no such simulator")

        with pytest.raises(NotImplementedError):
            _study(objective=unimplemented, seed=0)

    def test_value_errors_propagate(self):
        # a ValueError inside a trial is a bug or a bad input, not a
        # failed trial, so the study stops instead of recording inf
        def broken(*args, **kwargs):
            raise ValueError("bad trial input")

        with pytest.raises(ValueError, match="bad trial input"):
            _study(objective=broken, seed=0)
