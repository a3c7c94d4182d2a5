"""Discrete hyperparameter search over simulator + training knobs.

Grids are the discretized menus from the study this lab mirrors (learning
rate decades; GBM drift/vol steps of 0.05; Heston kappa/initial-vol/rho
steps; market weights, vol decades, window bounds); paired keys carry
ordering constraints (tau_star_min <= tau_star_max, tau_min <= tau_max,
k_min <= k_max) enforced by rejection sampling.

The sampler is TPE-flavored but purely categorical: rank finished trials
by objective, call the top quartile "good", build per-key frequency
tables with add-one smoothing, and draw each key proportionally to the
good/bad frequency ratio.  The first 20 trials (and any history too thin
to split) fall back to uniform sampling.

A study minimizes the indifference price of the trained policy on one
fixed evaluation path set shared by every trial, so objectives are
comparable.  The ledger is an append-only CSV; rerunning a study with an
existing ledger resumes after the recorded trials.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fcn_agents import AgentPopulation, DegenerateSessionError, MarketConfig
from .hedge_core import feature_width
from .instruments import OptionSpec
from .neuralnet import MlpPolicy, policy_price, train
from .risk import RiskMeasure
from .stoch_models import GbmParams, HestonParams

TPE_WARMUP = 20
TPE_GOOD_FRACTION = 0.25


def _steps(lo: float, hi: float, step: float) -> tuple:
    n = int(round((hi - lo) / step))
    return tuple(round(lo + i * step, 10) for i in range(n + 1))


LR_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class SearchSpace:
    grids: dict
    constraints: tuple = ()  # (lo_key, hi_key) pairs, lo <= hi required

    def __post_init__(self):
        for key, grid in self.grids.items():
            if len(grid) == 0:
                raise ValueError(f"empty grid for {key!r}")
        for lo_key, hi_key in self.constraints:
            if lo_key not in self.grids or hi_key not in self.grids:
                raise ValueError(f"constraint on unknown keys ({lo_key}, {hi_key})")
            if min(self.grids[lo_key]) > max(self.grids[hi_key]):
                raise ValueError(f"infeasible constraint {lo_key} <= {hi_key}")

    def keys(self) -> list:
        return sorted(self.grids)

    def satisfies(self, assignment: dict) -> bool:
        return all(assignment[lo] <= assignment[hi]
                   for lo, hi in self.constraints)

    @classmethod
    def gbm(cls) -> "SearchSpace":
        return cls({"lr": LR_GRID,
                    "mu": _steps(-0.25, 0.25, 0.05),
                    "sigma": _steps(0.05, 0.50, 0.05)})

    @classmethod
    def heston(cls) -> "SearchSpace":
        return cls({"lr": LR_GRID,
                    "kappa": _steps(0.0, 0.5, 0.05),
                    "sigma_init": _steps(0.05, 0.50, 0.05),
                    "rho": _steps(-1.0, 1.0, 0.05)})

    @classmethod
    def market(cls) -> "SearchSpace":
        decades = (1, 10, 100, 1000, 10000, 100000)
        return cls({"lr": LR_GRID,
                    "n_agent_step": (1, 5, 10),
                    "w_f": (0, 1, 3, 5, 10, 30, 50),
                    "w_c": (0, 1, 3, 5, 10, 30, 50),
                    "sigma_star": (1e-2, 1e-3, 1e-4),
                    "sigma": (1e-2, 1e-3, 1e-4, 1e-5),
                    "tau_star_min": decades,
                    "tau_star_max": decades,
                    "tau_min": (1, 10, 100, 1000),
                    "tau_max": (1, 10, 100, 1000),
                    "k_min": (0.0, 0.05, 0.1, 0.15, 0.2),
                    "k_max": (0.0, 0.05, 0.1, 0.15, 0.2)},
                   constraints=(("tau_star_min", "tau_star_max"),
                                ("tau_min", "tau_max"),
                                ("k_min", "k_max")))


@dataclass
class Trial:
    trial_id: int
    assignment: dict
    objective: float = math.inf
    status: str = "failed"  # ok | degenerate | failed
    seed: int = 0


def _uniform_assignment(space: SearchSpace, rng) -> dict:
    keys = space.keys()
    for _ in range(100_000):
        a = {k: space.grids[k][rng.integers(len(space.grids[k]))] for k in keys}
        if space.satisfies(a):
            return a
    raise RuntimeError("rejection sampling failed; constraints too tight")


def sample_trial(space: SearchSpace, strategy: str, history, seed) -> dict:
    """Draw one constrained assignment; strategy 'random' or 'tpe_like'."""
    rng = np.random.default_rng(seed)
    if strategy == "random":
        return _uniform_assignment(space, rng)
    if strategy != "tpe_like":
        raise ValueError(f"unknown strategy {strategy!r}")

    finished = [t for t in history if math.isfinite(t.objective)]
    if len(history) < TPE_WARMUP or len(finished) < 4:
        return _uniform_assignment(space, rng)
    finished = sorted(finished, key=lambda t: t.objective)
    n_good = max(1, math.ceil(TPE_GOOD_FRACTION * len(finished)))
    good, bad = finished[:n_good], finished[n_good:]
    if not bad:
        return _uniform_assignment(space, rng)

    weights = {}
    for key in space.keys():
        grid = space.grids[key]
        g_counts = {v: 1.0 for v in grid}  # add-one smoothing
        b_counts = {v: 1.0 for v in grid}
        for t in good:
            g_counts[t.assignment[key]] += 1.0
        for t in bad:
            b_counts[t.assignment[key]] += 1.0
        g_tot = len(good) + len(grid)
        b_tot = len(bad) + len(grid)
        w = np.array([(g_counts[v] / g_tot) / (b_counts[v] / b_tot)
                      for v in grid])
        weights[key] = w / w.sum()

    for _ in range(100_000):
        a = {k: space.grids[k][rng.choice(len(space.grids[k]), p=weights[k])]
             for k in space.keys()}
        if space.satisfies(a):
            return a
    raise RuntimeError("rejection sampling failed; constraints too tight")


@dataclass
class StudyBudget:
    """Desk-scale defaults; the full-scale study is the same code at
    n_paths=10000, epochs=100, n_trials=500."""
    n_paths: int = 1000
    epochs: int = 10
    minibatch: int = 256
    cost_rate: float = 0.0
    n_eval_paths: int = 1000
    market_parallel: int = 1


def trial_paths(generator: str, assignment: dict, spec: OptionSpec,
                budget: StudyBudget, seed: int) -> np.ndarray:
    """Generate one trial's training paths from its simulator assignment."""
    from .cli import generate_paths  # cli imports this module
    n_steps = spec.maturity_days
    if generator == "gbm":
        params = GbmParams(mu=assignment["mu"], sigma=assignment["sigma"],
                           n_steps=n_steps)
    elif generator == "heston":
        params = HestonParams.from_initial_vol(
            assignment["sigma_init"], kappa=assignment["kappa"],
            rho=assignment["rho"], n_steps=n_steps)
    elif generator == "market":
        params = (MarketConfig(agents_per_step=assignment["n_agent_step"],
                               sigma_star=assignment["sigma_star"],
                               sigma=assignment["sigma"], days=n_steps),
                  AgentPopulation(
                      w_f=assignment["w_f"], w_c=assignment["w_c"],
                      tau_star_min=assignment["tau_star_min"],
                      tau_star_max=assignment["tau_star_max"],
                      tau_min=assignment["tau_min"],
                      tau_max=assignment["tau_max"],
                      k_min=assignment["k_min"], k_max=assignment["k_max"]))
    else:
        raise ValueError(f"unknown generator {generator!r}")
    paths, _ = generate_paths(params, budget.n_paths, seed,
                              budget.market_parallel)
    return paths


def default_assignment(generator: str, lr: float = 1e-3) -> dict:
    """The no-tuning baseline: prior-study defaults for each generator."""
    if generator == "gbm":
        return {"lr": lr, "mu": 0.0, "sigma": 0.2}
    if generator == "heston":
        return {"lr": lr, "kappa": 1.0, "sigma_init": 0.2, "rho": -0.7}
    if generator == "market":
        return {"lr": lr, "n_agent_step": 5, "w_f": 1, "w_c": 1,
                "sigma_star": 1e-3, "sigma": 1e-3,
                "tau_star_min": 100, "tau_star_max": 200,
                "tau_min": 1, "tau_max": 20, "k_min": 0.0, "k_max": 0.05}
    raise ValueError(f"unknown generator {generator!r}")


def evaluate_assignment(generator: str, assignment: dict, spec: OptionSpec,
                        measure: RiskMeasure, budget: StudyBudget,
                        eval_paths: np.ndarray, seed_parts) -> float:
    """Full trial pipeline: paths -> train -> price on the shared eval set."""
    ss = np.random.SeedSequence(seed_parts)
    s_path, s_init, s_train = (int(x) for x in ss.generate_state(3))
    paths = trial_paths(generator, assignment, spec, budget, s_path)
    policy = MlpPolicy(feature_width(spec), seed=s_init)
    policy, report = train(policy, paths, spec, measure,
                           lr=assignment["lr"], epochs=budget.epochs,
                           minibatch=budget.minibatch, seed=s_train,
                           cost_rate=budget.cost_rate)
    if report.best_epoch < 0:
        raise ArithmeticError("no finite training epoch")
    price = policy_price(policy, eval_paths, spec, measure, budget.cost_rate)
    if not math.isfinite(price):
        raise ArithmeticError("non-finite evaluation price")
    return price


def default_eval_paths(generator: str, spec: OptionSpec,
                       budget: StudyBudget, seed) -> np.ndarray:
    """Held-out evaluation set from the generator's default assignment."""
    return trial_paths(generator, default_assignment(generator), spec,
                       budget, int(np.random.SeedSequence(seed).generate_state(1)[0]))


class StudyResult(NamedTuple):
    trials: list       # run order
    ranked: list       # ascending objective, failed (inf) last
    best: Trial


def _ledger_row(trial: Trial, keys) -> list:
    return ([trial.trial_id, trial.status, repr(trial.objective), trial.seed]
            + [repr(trial.assignment[k]) for k in keys])


def read_ledger(path, space: SearchSpace) -> list:
    keys = space.keys()
    trials = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["trial_id", "status", "objective", "seed"] + keys
        if header != expected:
            raise ValueError(f"ledger header mismatch: {header} != {expected}")
        for row in reader:
            assignment = {k: ast.literal_eval(v)
                          for k, v in zip(keys, row[4:])}
            # float() rather than literal_eval: failed trials record 'inf'
            trials.append(Trial(int(row[0]), assignment, float(row[2]),
                                row[1], int(row[3])))
    return trials


def run_study(space: SearchSpace, generator: str, spec: OptionSpec,
              measure: RiskMeasure, n_trials: int, budget: StudyBudget,
              eval_paths: Optional[np.ndarray] = None, seed: int = 0,
              strategy: str = "tpe_like", ledger_path=None,
              best_path=None) -> StudyResult:
    """Sequential study; trial randomness keys off (seed, trial index) only,
    so reruns and resumed runs reproduce the same trial sequence."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if eval_paths is None:
        eval_paths = default_eval_paths(generator, spec, budget, (seed, 0xE7A1))
    keys = space.keys()

    trials = []
    if ledger_path and os.path.exists(ledger_path):
        trials = read_ledger(ledger_path, space)
    if ledger_path and not trials:
        with open(ledger_path, "w", newline="") as fh:
            csv.writer(fh).writerow(["trial_id", "status", "objective", "seed"]
                                    + keys)

    for idx in range(len(trials), n_trials):
        ss = np.random.SeedSequence((seed, idx))
        sampler_seed = int(ss.generate_state(4)[3])
        assignment = sample_trial(space, strategy, trials, sampler_seed)
        trial = Trial(idx, assignment, seed=sampler_seed)
        try:
            trial.objective = evaluate_assignment(
                generator, assignment, spec, measure, budget, eval_paths,
                (seed, idx))
            trial.status = "ok"
        except DegenerateSessionError:
            trial.status = "degenerate"
            trial.objective = math.inf
        except (ArithmeticError, FloatingPointError, ValueError):
            trial.status = "failed"
            trial.objective = math.inf
        trials.append(trial)
        if ledger_path:
            with open(ledger_path, "a", newline="") as fh:
                csv.writer(fh).writerow(_ledger_row(trial, keys))

    ranked = sorted(trials, key=lambda t: (t.objective, t.trial_id))
    best = ranked[0]
    if best_path:
        with open(best_path, "w") as fh:
            json.dump({"trial_id": best.trial_id, "objective": best.objective,
                       "status": best.status, "assignment": best.assignment},
                      fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    return StudyResult(trials, ranked, best)
