"""Search spaces, constrained sampling, the TPE-flavored sampler, studies."""

import math

import numpy as np
import pytest

from hedgelab import fcn_agents, tuner
from hedgelab.instruments import OptionSpec
from hedgelab.risk import RiskMeasure
from hedgelab.tuner import (LR_GRID, SearchSpace, StudyBudget, Trial,
                            default_assignment, default_eval_paths,
                            evaluate_assignment, read_ledger, run_study,
                            sample_trial, trial_paths)

SPEC = OptionSpec("european_call", maturity_days=8)
ERM1 = RiskMeasure("erm", lam=1.0)


def _tiny_budget(**kw):
    base = dict(n_paths=64, epochs=1, minibatch=64, n_eval_paths=64)
    base.update(kw)
    return StudyBudget(**base)


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


class TestTrialPaths:
    def test_gbm_paths_shape_and_seeding(self):
        a = trial_paths("gbm", {"mu": 0.0, "sigma": 0.2}, SPEC,
                        _tiny_budget(), seed=3)
        b = trial_paths("gbm", {"mu": 0.0, "sigma": 0.2}, SPEC,
                        _tiny_budget(), seed=3)
        assert a.shape == (64, 9)
        assert np.array_equal(a, b)

    def test_heston_paths_shape(self):
        a = trial_paths("heston", {"kappa": 0.5, "sigma_init": 0.2,
                                   "rho": -0.5}, SPEC, _tiny_budget(), seed=1)
        assert a.shape == (64, 9)
        assert np.all(a > 0)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            trial_paths("sabr", {}, SPEC, _tiny_budget(), seed=0)

    def test_default_assignments_live_on_grids(self):
        gbm = default_assignment("gbm")
        assert gbm == {"lr": 1e-3, "mu": 0.0, "sigma": 0.2}
        space = SearchSpace.gbm()
        assert gbm["mu"] in space.grids["mu"]
        assert gbm["sigma"] in space.grids["sigma"]
        heston = default_assignment("heston")
        assert heston["kappa"] == 1.0  # prior-study value, off the grid
        assert heston["rho"] == -0.7
        market = default_assignment("market")
        assert SearchSpace.market().satisfies(market)
        with pytest.raises(ValueError):
            default_assignment("sabr")


class TestEvaluate:
    def test_deterministic_objective(self):
        budget = _tiny_budget()
        eval_paths = default_eval_paths("gbm", SPEC, budget, (0, 0xE7A1))
        args = ("gbm", default_assignment("gbm"), SPEC, ERM1, budget,
                eval_paths, (0, 5))
        assert evaluate_assignment(*args) == evaluate_assignment(*args)

    def test_objective_is_finite_price(self):
        budget = _tiny_budget()
        eval_paths = default_eval_paths("gbm", SPEC, budget, (1, 0xE7A1))
        price = evaluate_assignment("gbm", default_assignment("gbm"), SPEC,
                                    ERM1, budget, eval_paths, (1, 0))
        assert math.isfinite(price)
        assert 0.0 < price < 0.5


class TestStudy:
    def test_single_trial(self, tmp_path):
        budget = _tiny_budget()
        res = run_study(SearchSpace.gbm(), "gbm", SPEC, ERM1, n_trials=1,
                        budget=budget, seed=0)
        assert len(res.trials) == 1
        assert res.best is res.trials[0]

    def test_study_smoke_and_ranking(self, tmp_path):
        budget = _tiny_budget()
        res = run_study(SearchSpace.gbm(), "gbm", SPEC, ERM1, n_trials=4,
                        budget=budget, seed=1, strategy="random",
                        ledger_path=tmp_path / "ledger.csv",
                        best_path=tmp_path / "best.json")
        assert len(res.trials) == 4
        objs = [t.objective for t in res.ranked]
        assert objs == sorted(objs)
        assert res.best.objective == min(objs)
        assert (tmp_path / "best.json").read_text().startswith("{")

    def test_ledger_round_trip_and_resume(self, tmp_path):
        budget = _tiny_budget()
        space = SearchSpace.gbm()
        ledger = tmp_path / "ledger.csv"
        first = run_study(space, "gbm", SPEC, ERM1, n_trials=3, budget=budget,
                          seed=2, strategy="random", ledger_path=ledger)
        recorded = read_ledger(ledger, space)
        assert [t.trial_id for t in recorded] == [0, 1, 2]
        assert [t.assignment for t in recorded] == \
            [t.assignment for t in first.trials]
        assert [t.objective for t in recorded] == \
            [t.objective for t in first.trials]

        resumed = run_study(space, "gbm", SPEC, ERM1, n_trials=5,
                            budget=budget, seed=2, strategy="random",
                            ledger_path=ledger)
        assert len(resumed.trials) == 5
        # the first three trials come back verbatim from the ledger
        assert [t.assignment for t in resumed.trials[:3]] == \
            [t.assignment for t in first.trials]
        assert len(read_ledger(ledger, space)) == 5

    def test_ledger_survives_failed_trials(self, tmp_path):
        # failed trials record objective inf; the ledger must read back
        # and resume through them
        space = SearchSpace({"lr": (1e-2, 0.0), "mu": (0.0,),
                             "sigma": (0.2,)})
        budget = _tiny_budget(n_paths=32, n_eval_paths=32)
        eval_paths = trial_paths("gbm", {"mu": 0.0, "sigma": 0.2}, SPEC,
                                 budget, seed=99)
        ledger = tmp_path / "ledger.csv"
        first = run_study(space, "gbm", SPEC, ERM1, n_trials=6,
                          budget=budget, eval_paths=eval_paths, seed=3,
                          strategy="random", ledger_path=ledger)
        assert any(t.objective == math.inf for t in first.trials)
        recorded = read_ledger(ledger, space)
        assert [t.objective for t in recorded] == \
            [t.objective for t in first.trials]
        assert [t.status for t in recorded] == \
            [t.status for t in first.trials]
        resumed = run_study(space, "gbm", SPEC, ERM1, n_trials=8,
                            budget=budget, eval_paths=eval_paths, seed=3,
                            strategy="random", ledger_path=ledger)
        assert len(resumed.trials) == 8

    def test_ledger_header_mismatch(self, tmp_path):
        bad = tmp_path / "ledger.csv"
        bad.write_text("trial,obj\n")
        with pytest.raises(ValueError, match="header"):
            read_ledger(bad, SearchSpace.gbm())

    def test_failed_trials_rank_last(self, tmp_path):
        # a grid containing lr=0 makes some trials fail outright (the
        # optimizer rejects it); those must not abort the study and must
        # sort behind every finished trial
        space = SearchSpace({"lr": (1e-2, 0.0), "mu": (0.0,),
                             "sigma": (0.2,)})
        budget = _tiny_budget(n_paths=32, n_eval_paths=32)
        eval_paths = trial_paths("gbm", {"mu": 0.0, "sigma": 0.2}, SPEC,
                                 budget, seed=99)
        res = run_study(space, "gbm", SPEC, ERM1, n_trials=6, budget=budget,
                        eval_paths=eval_paths, seed=3, strategy="random")
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
        budget = _tiny_budget(n_paths=32, n_eval_paths=32)
        a = run_study(SearchSpace.gbm(), "gbm", SPEC, ERM1, n_trials=3,
                      budget=budget, seed=4, strategy="random")
        b = run_study(SearchSpace.gbm(), "gbm", SPEC, ERM1, n_trials=3,
                      budget=budget, seed=4, strategy="random")
        assert [t.assignment for t in a.trials] == \
            [t.assignment for t in b.trials]
        assert [t.objective for t in a.trials] == \
            [t.objective for t in b.trials]

    def test_n_trials_validation(self):
        with pytest.raises(ValueError):
            run_study(SearchSpace.gbm(), "gbm", SPEC, ERM1, n_trials=0,
                      budget=_tiny_budget())


class TestTrialLabels:
    def test_trade_free_sessions_are_degenerate(self, monkeypatch):
        def no_trades(config, population, seed=None):
            raw = np.ones(config.days * config.steps_per_day + 1)
            return fcn_agents.SessionResult(raw, 0)

        monkeypatch.setattr(fcn_agents, "run_session", no_trades)
        budget = _tiny_budget(n_paths=2)
        eval_paths = trial_paths("gbm", {"mu": 0.0, "sigma": 0.2}, SPEC,
                                 budget, seed=0)
        res = run_study(SearchSpace.market(), "market", SPEC, ERM1,
                        n_trials=1, budget=budget, eval_paths=eval_paths,
                        seed=0)
        assert res.trials[0].status == "degenerate"
        assert res.trials[0].objective == math.inf

    def test_other_errors_propagate(self, monkeypatch):
        def unimplemented(*args, **kwargs):
            raise NotImplementedError("no such simulator")

        budget = _tiny_budget()
        eval_paths = trial_paths("gbm", {"mu": 0.0, "sigma": 0.2}, SPEC,
                                 budget, seed=0)
        monkeypatch.setattr(tuner, "trial_paths", unimplemented)
        with pytest.raises(NotImplementedError):
            run_study(SearchSpace.gbm(), "gbm", SPEC, ERM1, n_trials=1,
                      budget=budget, eval_paths=eval_paths, seed=0)
