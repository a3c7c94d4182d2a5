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

Each column of a space states the dotted config keys it sets (``mu``
sets ``gbm.mu``; ``sigma_init`` sets ``heston.v0`` and ``heston.theta``
to its square).  A study scores a trial by the caller's objective of
those settings and builds no simulator and no policy itself; ``hedgelab
tune`` trains each trial's policy as ``train`` does and minimizes its
indifference price on one evaluation set shared by every trial, so
objectives are comparable.

The ledger is an append-only CSV; rerunning a study with an existing
ledger resumes after the recorded trials.  The ledger's JSON sidecar
(same filename + .json) records the study hash, and a ledger is resumed
only by the study whose hash it records.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fcn_agents import DegenerateSessionError

STRATEGIES = ("random", "tpe_like")
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
    # column -> the dotted config key it sets to its value, or a function
    # of its value returning {dotted key: value}
    sets: dict = field(default_factory=dict)

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

    def settings(self, assignment: dict) -> dict:
        """{dotted config key: value} of every column of ``assignment``."""
        out = {}
        for key in self.keys():
            rule = self.sets[key]
            out.update(rule(assignment[key]) if callable(rule)
                       else {rule: assignment[key]})
        return out

    @classmethod
    def gbm(cls) -> "SearchSpace":
        return cls({"lr": LR_GRID,
                    "mu": _steps(-0.25, 0.25, 0.05),
                    "sigma": _steps(0.05, 0.50, 0.05)},
                   sets={"lr": "train.lr", "mu": "gbm.mu",
                         "sigma": "gbm.sigma"})

    @classmethod
    def heston(cls) -> "SearchSpace":
        return cls({"lr": LR_GRID,
                    "kappa": _steps(0.0, 0.5, 0.05),
                    "sigma_init": _steps(0.05, 0.50, 0.05),
                    "rho": _steps(-1.0, 1.0, 0.05)},
                   # sigma_init is the initial and the long-run vol
                   sets={"lr": "train.lr", "kappa": "heston.kappa",
                         "rho": "heston.rho", "sigma_init": lambda v: {
                             "heston.v0": v ** 2, "heston.theta": v ** 2}})

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
                                ("k_min", "k_max")),
                   sets={"lr": "train.lr",
                         "n_agent_step": "market.agents_per_step",
                         "sigma_star": "market.sigma_star",
                         "sigma": "market.sigma",
                         **{key: f"market.population.{key}"
                            for key in ("w_f", "w_c", "tau_star_min",
                                        "tau_star_max", "tau_min", "tau_max",
                                        "k_min", "k_max")}})


@dataclass
class Trial:
    trial_id: int
    assignment: dict
    objective: float = math.inf
    status: str = "failed"  # ok | degenerate | failed
    seed: int = 0


def _constrained_draw(space: SearchSpace, draw_index) -> dict:
    """Redraw whole assignments until one meets the constraints;
    ``draw_index(key)`` picks one position on ``key``'s grid."""
    for _ in range(100_000):
        a = {k: space.grids[k][draw_index(k)] for k in space.keys()}
        if space.satisfies(a):
            return a
    raise RuntimeError("rejection sampling failed; constraints too tight")


def _tpe_weights(space: SearchSpace, history):
    """Per-key grid weights from the good/bad split of finished trials,
    or None while the history is too thin to split."""
    finished = [t for t in history if math.isfinite(t.objective)]
    if len(history) < TPE_WARMUP or len(finished) < 4:
        return None
    finished = sorted(finished, key=lambda t: t.objective)
    n_good = max(1, math.ceil(TPE_GOOD_FRACTION * len(finished)))
    good, bad = finished[:n_good], finished[n_good:]
    if not bad:
        return None

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
    return weights


def sample_trial(space: SearchSpace, strategy: str, history, seed) -> dict:
    """Draw one constrained assignment; strategy 'random' or 'tpe_like'."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    weights = _tpe_weights(space, history) if strategy == "tpe_like" else None
    if weights is None:
        return _constrained_draw(
            space, lambda k: rng.integers(len(space.grids[k])))
    return _constrained_draw(
        space, lambda k: rng.choice(len(space.grids[k]), p=weights[k]))


class TrialFailed(ArithmeticError):
    """A trial trained no finite epoch or priced to a non-finite value."""


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


def study_hash(space: SearchSpace, identity, seed: int,
               strategy: str) -> str:
    """Identity of a study's trial sequence and objectives: the seed,
    the strategy, the space and the caller's ``identity`` of everything
    its objective reads (any JSON-serializable value)."""
    blob = json.dumps({"seed": seed, "identity": identity,
                       "strategy": strategy, "grids": space.grids,
                       "constraints": space.constraints}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_study(space: SearchSpace, n_trials: int, objective, identity,
              seed: int = 0, strategy: str = "tpe_like", ledger_path=None,
              best_path=None) -> StudyResult:
    """Sequential study; trial randomness keys off (seed, trial index) only,
    so reruns and resumed runs reproduce the same trial sequence.
    ``objective(space.settings(assignment), (seed, index))`` scores a
    trial, raising ``TrialFailed`` or ``DegenerateSessionError`` for one
    that cannot be scored; ``identity`` enters the study hash.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    keys = space.keys()
    digest = study_hash(space, identity, seed, strategy)

    trials = []
    if ledger_path and os.path.exists(ledger_path):
        trials = read_ledger(ledger_path, space)
    if trials:
        try:
            with open(str(ledger_path) + ".json") as fh:
                recorded = json.load(fh).get("study_hash")
        except FileNotFoundError:
            recorded = None
        if recorded != digest:
            raise ValueError(f"ledger {ledger_path} belongs to study "
                             f"{recorded}, not to this study {digest}; "
                             f"resume it with the same settings or start "
                             f"a new ledger")
    elif ledger_path:
        with open(ledger_path, "w", newline="") as fh:
            csv.writer(fh).writerow(["trial_id", "status", "objective", "seed"]
                                    + keys)
        with open(str(ledger_path) + ".json", "w") as fh:
            json.dump({"study_hash": digest}, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for idx in range(len(trials), n_trials):
        ss = np.random.SeedSequence((seed, idx))
        sampler_seed = int(ss.generate_state(4)[3])
        assignment = sample_trial(space, strategy, trials, sampler_seed)
        trial = Trial(idx, assignment, seed=sampler_seed)
        try:
            trial.objective = objective(space.settings(assignment),
                                        (seed, idx))
            trial.status = "ok"
        except DegenerateSessionError:
            trial.status = "degenerate"
            trial.objective = math.inf
        except TrialFailed:
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
