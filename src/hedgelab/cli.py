"""Config-driven experiment runner.

Subcommands: gen-paths, train, price, tune, stats, reproduce-table.
Config is a YAML tree merged over built-in defaults, then over
HEDGELAB__section__key environment overrides, then over CLI flags; every
merge checks keys and leaf types, and the option, measure and simulator
sections are then built into their typed parameters.  A run that
completes writes its manifest (resolved config, its hash, seed, versions)
next to its outputs, and every CSV is written with repr floats so a rerun
with the same config and seed is byte-identical.

Exit codes: 0 success, 2 config/validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import fields, replace

import numpy as np
import yaml

from . import __version__
from .fcn_agents import AgentPopulation, MarketConfig, simulate_paths
from .hedge_core import feature_width, features_matrix
from .instruments import OptionSpec, payoff_batch
from .market_data import extract_windows, load_series, stylized_stats, write_stats_csv
from .neuralnet import (MlpPolicy, _fan_out, _openblas_function,
                        _price_features, load_policy, save_policy, train,
                        write_report_csv)
from .paths_io import save_paths
from .risk import RiskMeasure
from .stoch_models import GbmParams, HestonParams, gbm_paths, heston_paths
from .tuner import SearchSpace, TrialFailed, run_study

ENV_PREFIX = "HEDGELAB__"
# where a run writes without --out; not a config key, so not in manifests
DEFAULT_OUT = "out"


def _field_defaults(cls, *not_keys) -> dict:
    """The defaults of ``cls``'s fields, in field order, but ``not_keys``."""
    return {f.name: f.default for f in fields(cls) if f.name not in not_keys}


# typed sections: their dataclasses' defaults, less the fields the run sets
# (n_steps, days, the market's seed) and measure.kind, which has none
DEFAULT_CONFIG = {
    "seed": 0,
    "cost_rate": 0.0,
    "generator": "gbm",
    "gbm": _field_defaults(GbmParams, "n_steps"),
    "heston": _field_defaults(HestonParams, "n_steps"),
    "market": {**_field_defaults(MarketConfig, "days", "seed"),
               "population": _field_defaults(AgentPopulation)},
    "option": _field_defaults(OptionSpec),
    "measure": {"kind": "erm", **_field_defaults(RiskMeasure, "kind")},
    "train": {"paths": 1000, "epochs": 10, "lr": 1e-3, "minibatch": 256,
              "val_split": 0.2},
    "eval": {"source": None, "n_paths": 1000, "stride": 1},
    "tune": {"trials": 20},
    "stats": {"n_paths": 1000, "max_lag": 20, "bin_width": 0.5},
    "checkpoint": None,
}

# the type a leaf whose default is null takes when it is set
NULLABLE = {"market.order_ttl": int, "eval.source": str, "checkpoint": str}

# (flag, config key it sets, subcommands that take it)
FLAGS = (("--seed", "seed", ("gen-paths", "train", "price", "tune", "stats",
                             "reproduce-table")),
         ("--paths", "train.paths", ("gen-paths", "train")),
         ("--paths", "stats.n_paths", ("stats",)),
         ("--epochs", "train.epochs", ("train",)),
         ("--trials", "tune.trials", ("tune",)))

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}

_COUNT = (lambda v: v >= 1, ">= 1")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
# config key -> (test, the range it accepts), checked by build_params
RANGES = {"seed": _NONNEGATIVE, "cost_rate": _NONNEGATIVE,
          "train.paths": _COUNT, "train.epochs": _NONNEGATIVE,
          "train.lr": _POSITIVE, "train.minibatch": _COUNT,
          "train.val_split": (lambda v: 0 <= v < 1, "in [0, 1)"),
          "eval.n_paths": _COUNT, "eval.stride": _COUNT,
          "tune.trials": _COUNT, "stats.n_paths": _COUNT,
          "stats.max_lag": _COUNT, "stats.bin_width": _POSITIVE}
GENERATORS = ("gbm", "heston", "market")
# config key -> the values it accepts, checked by build_params
CHOICES = {"generator": GENERATORS}


# ---------------------------------------------------------------- config --

def _lookup(tree: dict, key: str):
    """``tree["a"]["b"]`` for the key "a.b"."""
    for part in key.split("."):
        tree = tree[part]
    return tree


def _check_leaf(key: str, value) -> None:
    """Reject a value whose type differs from the default's at ``key``.

    Numbers take int or float, int-valued defaults take only int, and
    bool is never a number.
    """
    kind = NULLABLE.get(key, type(_lookup(DEFAULT_CONFIG, key)))
    if value is None and key in NULLABLE:
        return
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        null = " or null" if key in NULLABLE else ""
        raise ValueError(f"config key {key!r} expects {_TYPE_NAMES[kind]}"
                         f"{null}, got {value!r}")


def _deep_merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        here = f"{path}{key}"
        if key not in base:
            what = "section" if isinstance(value, dict) else "key"
            raise ValueError(f"unknown config {what} {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {here!r} expects a mapping")
            _deep_merge(base[key], value, here + ".")
        else:
            _check_leaf(here, value)
            base[key] = value


def _nest(dotted: str, value) -> dict:
    """{"a": {"b": value}} for the key "a.b"."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def _apply_env(cfg: dict, environ) -> None:
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        parts = [p.lower() for p in name[len(ENV_PREFIX):].split("__") if p]
        if not parts:
            raise ValueError(f"malformed override variable {name!r}")
        try:
            _deep_merge(cfg, _nest(".".join(parts),
                                   yaml.safe_load(environ[name])))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def load_config(path=None, environ=None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            data = yaml.safe_load(fh)
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config root must be a mapping")
        _deep_merge(cfg, data)
    if environ is not None:
        _apply_env(cfg, environ)
    return cfg


def _build(cls, section: dict, name: str, **extra):
    """``cls(**section)``, with a rejected value reported under ``name``."""
    leaves = {k: v for k, v in section.items() if not isinstance(v, dict)}
    try:
        return cls(**leaves, **extra)
    except ValueError as exc:
        raise ValueError(f"config section {name!r}: {exc}") from None


def build_params(cfg: dict):
    """Typed (option, measure, simulator params) of a merged config.

    Every simulator section is built, used or not, so each one is
    range-checked by its dataclass; the run sizes in ``RANGES`` and the
    named choices in ``CHOICES`` are checked here.
    """
    for key, (accepts, bounds) in RANGES.items():
        value = _lookup(cfg, key)
        if not accepts(value):
            raise ValueError(f"config key {key!r} must be {bounds}, "
                             f"got {value!r}")
    for key, choices in CHOICES.items():
        value = _lookup(cfg, key)
        if value not in choices:
            names = ", ".join(repr(c) for c in choices)
            raise ValueError(f"config key {key!r} must be one of {names}, "
                             f"got {value!r}")
    spec = _build(OptionSpec, cfg["option"], "option")
    measure = _build(RiskMeasure, cfg["measure"], "measure")
    n_steps = spec.maturity_days
    sims = {"gbm": _build(GbmParams, cfg["gbm"], "gbm", n_steps=n_steps),
            "heston": _build(HestonParams, cfg["heston"], "heston",
                             n_steps=n_steps),
            "market": (_build(MarketConfig, cfg["market"], "market",
                              days=n_steps),
                       _build(AgentPopulation, cfg["market"]["population"],
                              "market.population"))}
    return spec, measure, sims[cfg["generator"]]


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_manifest(out_dir, cfg: dict, command: str, seed: int) -> None:
    manifest = {"command": command,
                "config": cfg,
                "config_hash": config_hash(cfg),
                "seed": seed,
                "versions": {"hedgelab": __version__,
                             "numpy": np.__version__,
                             "python": platform.python_version()}}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _derive(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((int(seed),) + tags).generate_state(1)[0])


# ---------------------------------------------------------------- paths --

def generate_paths(params, n_paths: int, seed: int, parallel: int = 1):
    """Paths from typed simulator params: ``GbmParams``, ``HestonParams``
    or a ``(MarketConfig, AgentPopulation)`` pair.  Returns (paths, info)."""
    if isinstance(params, GbmParams):
        paths, regen = gbm_paths(params, n_paths, seed, return_regen_count=True)
        return paths, {"regenerated": regen}
    if isinstance(params, HestonParams):
        return heston_paths(params, n_paths, seed), {}
    config, population = params
    paths, rejected = simulate_paths(replace(config, seed=seed), population,
                                     n_paths, parallel=parallel)
    return paths, {"rejected_sessions": rejected}


def evaluation_paths(cfg: dict, sim, seed: int, parallel: int = 1):
    """Eval set: windows of a user CSV when eval.source is set, else a
    fresh batch from the configured generator.  Returns (paths, label)."""
    ev = cfg["eval"]
    if ev["source"]:
        closes = load_series(ev["source"]).closes
        window_days = cfg["option"]["maturity_days"] + 1
        if closes.size < window_days:
            raise ValueError(f"{ev['source']}: not enough rows for one window")
        paths = extract_windows(closes, window_days, ev["stride"])
        label = os.path.splitext(os.path.basename(ev["source"]))[0]
        return paths, label
    paths, _ = generate_paths(sim, ev["n_paths"], seed, parallel)
    return paths, "synthetic"


def _train_seeds(seed: int) -> list:
    """The (paths, init, train) seeds of a run seeded ``seed``."""
    return [_derive(seed, tag) for tag in (1, 2, 3)]


def _train_policy(cfg, spec, measure, sim, seeds, parallel):
    """(policy, report) trained on ``train.*`` paths of ``sim``, drawn,
    initialized and shuffled by the three ``seeds``."""
    paths, _ = generate_paths(sim, cfg["train"]["paths"], seeds[0], parallel)
    return _fit_policy(cfg, spec, measure, paths, seeds[1:])


def _fit_policy(cfg, spec, measure, paths, seeds):
    """``_train_policy`` on drawn ``paths``, with the (init, train)
    ``seeds``."""
    s_init, s_train = seeds
    tr = cfg["train"]
    policy = MlpPolicy(feature_width(spec), seed=s_init)
    return train(policy, paths, spec, measure, lr=tr["lr"],
                 epochs=tr["epochs"], minibatch=tr["minibatch"],
                 seed=s_train, cost_rate=cfg["cost_rate"],
                 val_split=tr["val_split"])


def _checkpoint_policy(cfg: dict) -> MlpPolicy:
    """The policy of ``checkpoint``, refused unless it was trained to
    hedge the configured option; the generator and measure may differ."""
    try:
        policy, meta = load_policy(cfg["checkpoint"])
    except ValueError as exc:
        raise ValueError(f"config key 'checkpoint': {exc}") from None
    for key, value in cfg["option"].items():
        if meta["option"][key] != value:
            raise ValueError(f"config key 'option.{key}' is {value!r}; "
                             f"'checkpoint' hedges {meta['option'][key]!r}")
    return policy


def trial_config(cfg: dict, settings: dict) -> dict:
    """A copy of ``cfg`` with a trial's {dotted key: value} settings."""
    trial_cfg = copy.deepcopy(cfg)
    for key, value in settings.items():
        _deep_merge(trial_cfg, _nest(key, value))
    return trial_cfg


def tune_objective(cfg, spec, measure, eval_paths, parallel):
    """A study's ``objective(settings, seed_parts)``: the indifference
    price on ``eval_paths`` of a policy trained as ``train`` trains one,
    on ``cfg`` with the trial's settings, seeded by ``seed_parts``."""
    feats = features_matrix(eval_paths, spec)
    payoffs = payoff_batch(spec, eval_paths)

    def objective(settings: dict, seed_parts) -> float:
        trial_cfg = trial_config(cfg, settings)
        _, _, sim = build_params(trial_cfg)
        seeds = [int(s) for s in
                 np.random.SeedSequence(seed_parts).generate_state(3)]
        policy, report = _train_policy(trial_cfg, spec, measure, sim, seeds,
                                       parallel)
        if report.best_epoch < 0:
            raise TrialFailed("no finite training epoch")
        price = _price_features(policy, feats, eval_paths, payoffs, measure,
                                cfg["cost_rate"])
        if not math.isfinite(price):
            raise TrialFailed("non-finite evaluation price")
        return price
    return objective


# ---------------------------------------------------------- subcommands --

def cmd_gen_paths(args, cfg, spec, measure, sim, out_dir) -> int:
    paths, info = generate_paths(sim, cfg["train"]["paths"],
                                 _derive(cfg["seed"], 1), args.parallel)
    meta = {"generator": cfg["generator"], "seed": cfg["seed"],
            "config_hash": config_hash(cfg), **info}
    save_paths(os.path.join(out_dir, "paths.csv"), paths, meta)
    print(f"wrote {paths.shape[0]} paths x {paths.shape[1]} samples "
          f"to {out_dir}/paths.csv")
    return 0


def cmd_train(args, cfg, spec, measure, sim, out_dir) -> int:
    policy, report = _train_policy(cfg, spec, measure, sim,
                                   _train_seeds(cfg["seed"]), args.parallel)
    save_policy(policy, os.path.join(out_dir, "checkpoint.npz"),
                config_hash=config_hash(cfg), option=cfg["option"],
                cost_rate=cfg["cost_rate"], generator=cfg["generator"])
    write_report_csv(report, os.path.join(out_dir, "training_report.csv"))
    for line in report.diagnostics:
        print(f"note: {line}")
    print(f"best epoch {report.best_epoch}: validation price "
          f"{report.best_price!r}")
    return 0


def cmd_price(args, cfg, spec, measure, sim, out_dir) -> int:
    seed = cfg["seed"]
    # the eval set first: a bad eval.source fails before any training
    paths, label = evaluation_paths(cfg, sim, _derive(seed, 4), args.parallel)
    if cfg["checkpoint"]:
        policy = _checkpoint_policy(cfg)
    else:
        policy, _ = _train_policy(cfg, spec, measure, sim, _train_seeds(seed),
                                  args.parallel)
    price = _price_features(policy, features_matrix(paths, spec), paths,
                            payoff_batch(spec, paths), measure,
                            cfg["cost_rate"])
    out_path = os.path.join(out_dir, "price.csv")
    with open(out_path, "w", newline="") as fh:
        fh.write("derivative,dataset,measure,generator,price\n")
        fh.write(f"{spec.kind},{label},{measure.label()},"
                 f"{cfg['generator']},{repr(price)}\n")
    print(f"{spec.kind} under {measure.label()} on {label}: {price!r}")
    return 0


def cmd_tune(args, cfg, spec, measure, sim, out_dir) -> int:
    tu = cfg["tune"]
    eval_paths, _ = evaluation_paths(cfg, sim, _derive(cfg["seed"], 0xE7A1),
                                     args.parallel)
    # every key a trial reads; the trial count only extends the study
    identity = {"config": {**cfg, "tune": {k: v for k, v in tu.items()
                                            if k != "trials"}},
                "eval_paths": hashlib.sha256(np.ascontiguousarray(
                    eval_paths, dtype=float).tobytes()).hexdigest()}
    result = run_study(getattr(SearchSpace, cfg["generator"])(), tu["trials"],
                       tune_objective(cfg, spec, measure, eval_paths,
                                      args.parallel),
                       identity, seed=cfg["seed"],
                       ledger_path=os.path.join(out_dir, "ledger.csv"),
                       best_path=os.path.join(out_dir, "best.json"))
    print(f"best trial {result.best.trial_id} "
          f"({result.best.status}): objective {result.best.objective!r}")
    return 0


def cmd_stats(args, cfg, spec, measure, sim, out_dir) -> int:
    seed = _derive(cfg["seed"], 5)
    if cfg["eval"]["source"]:
        paths, label = evaluation_paths(cfg, sim, seed, args.parallel)
    else:
        paths, _ = generate_paths(sim, cfg["stats"]["n_paths"], seed,
                                  args.parallel)
        label = cfg["generator"]
    st = stylized_stats(paths, max_lag=cfg["stats"]["max_lag"],
                        bin_width=cfg["stats"]["bin_width"])
    write_stats_csv(st, os.path.join(out_dir, "kurtosis.csv"),
                    os.path.join(out_dir, "histogram.csv"))
    k1 = st.kurtosis_by_lag.get(1)
    print(f"{label}: lag-1 kurtosis {k1!r} over {paths.shape[0]} paths")
    return 0


def cmd_reproduce_table(args, cfg, base_spec, _measure, sim, out_dir) -> int:
    """Desk-scale sweep over the derivative x measure x dataset table;
    the configured option kind and measure are the sweep's to set.

    This thread draws each cell's training paths in cell order (market
    sessions on ``--parallel`` processes), and the cells train through
    ``neuralnet._fan_out`` on every usable core as their paths arrive.
    A cell's policy does not depend on the thread that trains it."""
    seed = cfg["seed"]
    measures = [RiskMeasure("erm", lam=1.0), RiskMeasure("erm", lam=10.0),
                RiskMeasure("cvar", alpha=0.90), RiskMeasure("cvar", alpha=0.95),
                RiskMeasure("cvar", alpha=0.99)]
    derivatives = ["european_call", "lookback_call"]
    eval_sets = []
    for i, label in enumerate(["development", "test"]):
        paths, _ = generate_paths(sim, cfg["eval"]["n_paths"],
                                  _derive(seed, 6 + i), args.parallel)
        eval_sets.append((label, paths))
    specs = [replace(base_spec, kind=kind) for kind in derivatives]

    def cells():
        for d_idx, spec in enumerate(specs):
            for m_idx, measure in enumerate(measures):
                s_path, *fit_seeds = _train_seeds(_derive(seed, 8, d_idx,
                                                          m_idx))
                paths, _ = generate_paths(sim, cfg["train"]["paths"], s_path,
                                          args.parallel)
                yield spec, measure, paths, fit_seeds

    policies = {}

    def fit(cell):
        spec, measure, paths, fit_seeds = cell
        policies[spec.kind, measure] = _fit_policy(cfg, spec, measure, paths,
                                                   fit_seeds)[0]

    _fan_out(fit, cells(), len(specs) * len(measures))
    prices = {}
    for label, paths in eval_sets:  # built after, not during, training
        # a European's features are the first columns of a lookback's
        feats = features_matrix(paths, specs[-1])
        for spec in specs:
            spec_feats = np.ascontiguousarray(feats[..., :feature_width(spec)])
            payoffs = payoff_batch(spec, paths)
            for measure in measures:
                prices[spec.kind, measure, label] = _price_features(
                    policies[spec.kind, measure], spec_feats, paths, payoffs,
                    measure, cfg["cost_rate"])
        del feats, spec_feats
    rows = [(kind, label, measure.label(), cfg["generator"],
             prices[kind, measure, label])
            for kind in derivatives for measure in measures
            for label, _ in eval_sets]
    out_path = os.path.join(out_dir, "results.csv")
    with open(out_path, "w", newline="") as fh:
        fh.write("derivative,dataset,measure,generator,price\n")
        for kind, label, mlabel, gen, price in rows:
            fh.write(f"{kind},{label},{mlabel},{gen},{repr(price)}\n")
            print(f"{kind:14s} {label:12s} {mlabel:18s} {price!r}")
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


# ----------------------------------------------------------------- main --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgelab",
        description="Deep-hedging laboratory: simulators, training, "
                    "indifference pricing, tuning, stylized facts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("gen-paths", cmd_gen_paths), ("train", cmd_train),
                     ("price", cmd_price), ("tune", cmd_tune),
                     ("stats", cmd_stats),
                     ("reproduce-table", cmd_reproduce_table)]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default=DEFAULT_OUT, help="output directory")
        for flag, key, commands in FLAGS:
            if name in commands:
                p.add_argument(flag, type=int, default=None,
                               help=f"set config key {key}")
        p.add_argument("--parallel", type=int, default=1,
                       help="worker processes for simulation")
        p.set_defaults(func=fn)
    return parser


def pin_blas() -> None:
    """OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is set (see the README's determinism contract)."""
    if {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}.isdisjoint(os.environ):
        setter = _openblas_function("set_num_threads")
        if setter is not None:
            setter(1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_blas()
    try:
        cfg = load_config(args.config, environ=os.environ)
        for flag, key, commands in FLAGS:
            value = getattr(args, flag[2:], None)
            if args.command in commands and value is not None:
                _deep_merge(cfg, _nest(key, value))
        if args.parallel < 1:
            raise ValueError(f"option '--parallel' must be >= 1, "
                             f"got {args.parallel}")
        spec, measure, sim = build_params(cfg)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        rc = args.func(args, cfg, spec, measure, sim, out_dir)
        # only a run that succeeded may replace the directory's manifest:
        # a refused tune resume leaves the ledger's own manifest in place
        write_manifest(out_dir, cfg, args.command, cfg["seed"])
        return rc
    except (ValueError, KeyError, FileNotFoundError, yaml.YAMLError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1
        print(f"failure ({args.command}): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
