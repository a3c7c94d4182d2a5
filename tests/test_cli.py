"""Config plumbing and end-to-end subcommand runs at toy budgets."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import hedgelab
from _reference import load_paths
from hedgelab.cli import (CHOICES, DEFAULT_CONFIG, FLAGS, NULLABLE, RANGES,
                          config_hash, load_config, main)
from hedgelab import cli, neuralnet
from hedgelab.neuralnet import load_policy


def _write_cfg(tmp_path, tree, name="config.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(tree))
    return p


def _fresh_env() -> dict:
    """The environment of a fresh process that imports this hedgelab and
    reads no ``HEDGELAB__`` overrides."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HEDGELAB__")}
    env["PYTHONPATH"] = str(Path(hedgelab.__file__).parents[1])
    return env


TINY_TRAIN = {"train": {"paths": 60, "epochs": 2, "minibatch": 64},
              "eval": {"n_paths": 40}}


class TestLoadConfig:
    def test_defaults_returned_and_isolated(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG
        cfg["train"]["epochs"] = 999
        assert DEFAULT_CONFIG["train"]["epochs"] == 10

    def test_yaml_merge_nested(self, tmp_path):
        p = _write_cfg(tmp_path, {"train": {"epochs": 3},
                                  "gbm": {"sigma": 0.3},
                                  "seed": 11})
        cfg = load_config(p)
        assert cfg["train"]["epochs"] == 3
        assert cfg["train"]["lr"] == 1e-3  # untouched sibling
        assert cfg["gbm"] == {"mu": 0.0, "sigma": 0.3}
        assert cfg["seed"] == 11

    def test_unknown_key_rejected(self, tmp_path):
        p = _write_cfg(tmp_path, {"train": {"epochz": 3}})
        with pytest.raises(ValueError, match="train.epochz"):
            load_config(p)

    def test_scalar_for_section_rejected(self, tmp_path):
        p = _write_cfg(tmp_path, {"train": 5})
        with pytest.raises(ValueError, match="mapping"):
            load_config(p)

    def test_non_mapping_root_rejected(self, tmp_path):
        p = tmp_path / "config.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ValueError, match="root"):
            load_config(p)

    def test_empty_file_is_defaults(self, tmp_path):
        p = tmp_path / "config.yaml"
        p.write_text("")
        assert load_config(p) == DEFAULT_CONFIG

    def test_env_overrides(self):
        cfg = load_config(environ={"HEDGELAB__TRAIN__EPOCHS": "5",
                                   "HEDGELAB__GBM__SIGMA": "0.25",
                                   "HEDGELAB__MEASURE__KIND": "cvar",
                                   "HEDGELAB__SEED": "42",
                                   "UNRELATED": "ignored"})
        assert cfg["train"]["epochs"] == 5
        assert cfg["gbm"]["sigma"] == 0.25
        assert cfg["measure"]["kind"] == "cvar"
        assert cfg["seed"] == 42

    def test_env_unknown_section(self):
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(environ={"HEDGELAB__NOPE__X": "1"})

    def test_env_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(environ={"HEDGELAB__TRAIN__EPOCHZ": "1"})

    def test_env_applies_after_yaml(self, tmp_path):
        p = _write_cfg(tmp_path, {"seed": 5})
        cfg = load_config(p, environ={"HEDGELAB__SEED": "9"})
        assert cfg["seed"] == 9

    def test_default_config_hash_is_pinned(self):
        # the typed sections come from their dataclasses' defaults, in
        # field order; a moved or renamed field changes this hash
        cfg = load_config()
        assert config_hash(cfg) == "e537815c183699a7"
        assert list(cfg["gbm"]) == ["mu", "sigma"]


class TestConfigHash:
    def test_stable_and_order_insensitive(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 16

    def test_sensitive_to_values(self):
        cfg = load_config()
        h0 = config_hash(cfg)
        cfg["train"]["epochs"] = 11
        assert config_hash(cfg) != h0


class TestMainErrors:
    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        p = _write_cfg(tmp_path, {"train": {"bogus": 1}})
        rc = main(["gen-paths", "--config", str(p),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error (gen-paths):")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["gen-paths", "--config", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("command, env, tree, key", [
        ("gen-paths", {"HEDGELAB__GBM": "5"}, None, "gbm"),
        ("gen-paths", {"HEDGELAB__TRAIN__EPOCHS": "[1,2]"}, None,
         "train.epochs"),
        ("gen-paths", {"HEDGELAB__MARKET__POPULATION": "3"}, None,
         "market.population"),
        ("gen-paths", {}, {"option": {"strike": [1]}}, "option.strike"),
        ("price", {}, {"measure": {"kind": "cvar", "alpha": None}},
         "measure.alpha"),
        ("gen-paths", {}, {"train": {"paths": True}}, "train.paths"),
        ("gen-paths", {}, {"heston": {"rho": 2.0}}, "heston"),
        # the output directory is --out alone, never a config key
        ("gen-paths", {}, {"out": "elsewhere"}, "out"),
        ("gen-paths", {"HEDGELAB__OUT": "elsewhere"}, None, "out"),
        # run sizes are range-checked before anything runs
        ("train", {}, {"train": {"minibatch": 0}}, "train.minibatch"),
        ("train", {}, {"train": {"lr": -0.1}}, "train.lr"),
        ("train", {}, {"train": {"epochs": -1}}, "train.epochs"),
        ("train", {}, {"train": {"val_split": 1.0}}, "train.val_split"),
        ("gen-paths", {}, {"train": {"paths": 0}}, "train.paths"),
        ("gen-paths", {"HEDGELAB__SEED": "-1"}, None, "seed"),
        ("price", {}, {"cost_rate": -0.5}, "cost_rate"),
        ("price", {}, {"eval": {"n_paths": 0}}, "eval.n_paths"),
        ("price", {}, {"eval": {"stride": 0}}, "eval.stride"),
        ("tune", {}, {"tune": {"trials": 0}}, "tune.trials"),
        # gone: trials train on train.*, the tune eval set is eval.*, the
        # space is the generator's
        ("tune", {}, {"tune": {"n_paths": 1000}}, "tune.n_paths"),
        ("tune", {}, {"tune": {"epochs": 10}}, "tune.epochs"),
        ("tune", {}, {"tune": {"eval_n_paths": 30}}, "tune.eval_n_paths"),
        ("stats", {}, {"stats": {"n_paths": 0}}, "stats.n_paths"),
        ("stats", {}, {"stats": {"max_lag": 0}}, "stats.max_lag"),
        ("stats", {}, {"stats": {"bin_width": -1}}, "stats.bin_width"),
        ("gen-paths --parallel 0", {}, None, "--parallel"),
        ("gen-paths --parallel -4", {}, None, "--parallel"),
        # named choices too, before a tune writes its ledger
        ("gen-paths --paths 5", {}, {"generator": "sabr"}, "generator"),
        ("tune", {}, {"tune": {"strategy": "bogus"}}, "tune.strategy"),
        ("tune", {}, {"tune": {"space": "gbm"}}, "tune.space"),
        ("tune", {"HEDGELAB__GENERATOR": "sabr"}, None, "generator"),
        # a checkpoint prices only the option it was trained to hedge
        ("price", {}, {"checkpoint": "TRAINED",
                       "option": {"maturity_days": 5}}, "option.maturity_days"),
        ("price", {}, {"checkpoint": "TRAINED", "option": {"strike": 1.1}},
         "option.strike"),
        ("price", {}, {"checkpoint": "VERSION_1"}, "checkpoint"),
    ])
    def test_bad_value_exits_2_naming_its_key(self, tmp_path, monkeypatch,
                                              capsys, request, command, env,
                                              tree, key):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        argv = [*command.split(), "--out", str(out)]
        if tree is not None:
            if "checkpoint" in tree:
                tree = {**tree, "checkpoint": str(
                    request.getfixturevalue("checkpoints")[tree["checkpoint"]])}
            argv += ["--config", str(_write_cfg(tmp_path, tree))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        if tree is not None and "checkpoint" in tree:
            assert "'checkpoint'" in err
        assert not (out / "manifest.json").exists()
        assert not (out / "ledger.csv").exists()
        assert not (out / "price.csv").exists()

    @pytest.mark.parametrize("command", ["price", "tune", "stats"])
    def test_too_short_eval_source_exits_2_naming_it(self, tmp_path,
                                                     command):
        # 10 closes where a 20-day option needs 21; in a fresh process, so
        # stderr holds everything the run printed there
        src = tmp_path / "short.csv"
        src.write_text("date,close\n" + "".join(
            f"2024-01-{i + 1:02d},{1.0 + i / 100!r}\n" for i in range(10)))
        cfg = _write_cfg(tmp_path, {
            "train": {"paths": 30, "epochs": 1, "minibatch": 64},
            "tune": {"trials": 2}, "eval": {"source": str(src)}})
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from hedgelab.cli import "
             "main; sys.exit(main(sys.argv[1:]))", command, "--config",
             str(cfg), "--out", str(tmp_path / "out")],
            env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error ({command}): {src}: not enough rows for one window"]

    def test_price_reads_eval_source_before_training(self, tmp_path,
                                                     monkeypatch, capsys):
        # a bad eval.source is refused before the policy trains
        src = tmp_path / "short.csv"
        src.write_text("date,close\n" + "".join(
            f"2024-01-{i + 1:02d},{1.0 + i / 100!r}\n" for i in range(10)))

        def no_training(*args, **kwargs):
            pytest.fail("price trained before reading eval.source")

        monkeypatch.setattr(cli, "_train_policy", no_training)
        cfg = _write_cfg(tmp_path, {"eval": {"source": str(src)}})
        assert main(["price", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error (price): {src}: not enough rows for one window"]

    def test_every_checked_key_is_a_config_key(self):
        # a stale key would make every command exit 2 through KeyError
        keys = [*RANGES, *CHOICES, *NULLABLE, *(key for _, key, _ in FLAGS)]
        for key in keys:
            tree = DEFAULT_CONFIG
            for part in key.split("."):
                assert isinstance(tree, dict) and part in tree, key
                tree = tree[part]

    def test_flag_of_another_subcommand_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2


# Runs each argv through main in a fresh process and prints, as JSON,
# whether any scipy module was loaded after the import and after each run.
_SCIPY_LOADED = """
import json, sys
from hedgelab.cli import main
def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.")
               for name in sys.modules)
loaded = [scipy_loaded()]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(scipy_loaded())
print(json.dumps(loaded))
"""

TINY_MARKET = {"generator": "market",
               "market": {"n_agents": 20, "agents_per_step": 4,
                          "preopen_steps": 20, "steps_per_day": 5}}


def _scipy_loaded(tmp_path, runs):
    """scipy's presence after the import and after each run."""
    argvs = []
    for i, (command, tree) in enumerate(runs):
        cfg = _write_cfg(tmp_path, tree, name=f"config{i}.yaml")
        argvs.append([command, "--config", str(cfg),
                      "--out", str(tmp_path / f"out{i}")])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LOADED,
                           json.dumps(argvs)], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


TINY_RUN = {"train": {"paths": 30, "epochs": 1, "minibatch": 64},
            "eval": {"n_paths": 20}, "stats": {"n_paths": 20},
            "tune": {"trials": 2}}
SUBCOMMANDS = ("gen-paths", "stats", "train", "price", "tune",
               "reproduce-table")


class TestColdStart:
    """No subcommand loads scipy, a test-only dependency: N and its
    inverse come from hedgelab.normal.  A fresh process is needed: this
    one has loaded scipy.special as the tests' oracle."""

    def test_gbm_and_market_paths_and_stats_never_load_it(self, tmp_path):
        gbm = {"train": {"paths": 20}, "stats": {"n_paths": 20}}
        market = {**TINY_MARKET, "train": {"paths": 3},
                  "stats": {"n_paths": 3}}
        runs = [("gen-paths", gbm), ("stats", gbm),
                ("gen-paths", market), ("stats", market)]
        assert _scipy_loaded(tmp_path, runs) == [False] * 5

    def test_market_price_never_loads_it(self, tmp_path):
        market = {**TINY_MARKET, "train": {"paths": 5, "epochs": 1},
                  "eval": {"n_paths": 3}}
        assert _scipy_loaded(tmp_path, [("price", market)]) == [False] * 2

    @pytest.mark.parametrize("generator", ["gbm", "heston"])
    def test_no_subcommand_loads_it(self, tmp_path, generator):
        # Heston steps take N^-1, and features, training and pricing N
        tree = {**TINY_RUN, "generator": generator}
        runs = [(command, tree) for command in SUBCOMMANDS]
        assert _scipy_loaded(tmp_path, runs) == [False] * 7


# Runs gen-paths through main in a fresh process and prints OpenBLAS's
# thread count after it, or -1 if numpy's BLAS is not OpenBLAS.
_BLAS_THREADS_AFTER_RUN = """
import ctypes, sys
import numpy as np
from hedgelab.cli import main
assert main(["gen-paths", "--paths", "5", "--out", sys.argv[1]]) == 0
blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
for name in ("scipy_openblas_get_num_threads64_",
             "openblas_get_num_threads64_", "openblas_get_num_threads"):
    if hasattr(blas, name):
        print(getattr(blas, name)())
        break
else:
    print(-1)
"""


class TestBlasThreads:
    """The CLI runs OpenBLAS on one thread unless the user chose a count;
    a fresh process is needed, since BLAS reads its variables at load."""

    @pytest.mark.parametrize("variables, expected", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "2"}, 2)])
    def test_unset_means_one_thread(self, tmp_path, variables, expected):
        env = {k: v for k, v in _fresh_env().items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(variables)
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_AFTER_RUN,
                               str(tmp_path / "out")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        threads = int(proc.stdout.splitlines()[-1])
        if threads == -1:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert threads == expected


class TestFlagsInManifest:
    def test_train_flags_match_checkpoint_hash(self, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--paths", "300", "--epochs", "1",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["paths"] == 300
        assert manifest["config"]["train"]["epochs"] == 1
        _, meta = load_policy(out / "checkpoint.npz")
        assert manifest["config_hash"] == meta["config_hash"]

    def test_gen_paths_records_path_count(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gen-paths", "--paths", "7", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["paths"] == 7

    def test_stats_paths_sets_stats_count(self, tmp_path):
        out = tmp_path / "out"
        assert main(["stats", "--paths", "12", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stats"]["n_paths"] == 12
        assert manifest["config"]["train"]["paths"] == 1000


class TestGenPaths:
    def test_smoke_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["gen-paths", "--paths", "50", "--out", str(out)])
        assert rc == 0
        paths, meta = load_paths(out / "paths.csv")
        assert paths.shape == (50, 21)
        assert np.all(paths[:, 0] == 1.0)
        assert meta["generator"] == "gbm"
        assert meta["seed"] == 0
        assert "config_hash" in meta and "regenerated" in meta
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-paths"
        assert manifest["config_hash"] == meta["config_hash"]
        assert set(manifest["versions"]) == {"hedgelab", "numpy", "python"}

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-paths", "--paths", "30", "--out", str(out_a)]) == 0
        assert main(["gen-paths", "--paths", "30", "--out", str(out_b)]) == 0
        assert (out_a / "paths.csv").read_bytes() == \
            (out_b / "paths.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == \
            (out_b / "manifest.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["gen-paths", "--paths", "10", "--out", str(out_a)])
        main(["gen-paths", "--paths", "10", "--seed", "7",
              "--out", str(out_b)])
        a, _ = load_paths(out_a / "paths.csv")
        b, _ = load_paths(out_b / "paths.csv")
        assert not np.array_equal(a, b)
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_heston_generator(self, tmp_path):
        p = _write_cfg(tmp_path, {"generator": "heston"})
        out = tmp_path / "out"
        rc = main(["gen-paths", "--config", str(p), "--paths", "12",
                   "--out", str(out)])
        assert rc == 0
        paths, meta = load_paths(out / "paths.csv")
        assert paths.shape == (12, 21)
        assert np.all(paths > 0)
        assert meta["generator"] == "heston"

    def test_market_generator(self, tmp_path):
        p = _write_cfg(tmp_path, TINY_MARKET)
        out = tmp_path / "out"
        rc = main(["gen-paths", "--config", str(p), "--paths", "3",
                   "--out", str(out)])
        assert rc == 0
        paths, meta = load_paths(out / "paths.csv")
        assert paths.shape == (3, 21)
        assert "rejected_sessions" in meta


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    cfg = _write_cfg(tmp, TINY_TRAIN)
    out = tmp / "train_out"
    rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return tmp, cfg, out


@pytest.fixture(scope="module")
def checkpoints(trained, tmp_path_factory):
    """The trained checkpoint, and the same weights under a version-1
    record, which stored no option."""
    _, _, out = trained
    with np.load(out / "checkpoint.npz") as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    old = {"version": 1, "in_width": meta["in_width"],
           "config_hash": meta["config_hash"]}
    arrays["meta"] = np.frombuffer(json.dumps(old).encode(), dtype=np.uint8)
    v1 = tmp_path_factory.mktemp("v1") / "checkpoint.npz"
    np.savez(v1, **arrays)
    return {"TRAINED": out / "checkpoint.npz", "VERSION_1": v1}


class TestTrainAndPrice:
    def test_train_artifacts(self, trained):
        _, _, out = trained
        assert (out / "checkpoint.npz").exists()
        lines = (out / "training_report.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,val_price"
        assert len(lines) == 3  # two epochs
        float(lines[1].split(",")[1])

    def test_checkpoint_records_what_it_hedges(self, trained):
        _, _, out = trained
        _, meta = load_policy(out / "checkpoint.npz")
        assert meta["version"] == 2
        assert meta["option"] == DEFAULT_CONFIG["option"]
        assert (meta["cost_rate"], meta["generator"]) == (0.0, "gbm")

    def test_price_with_checkpoint(self, trained, tmp_path):
        tmp, _, out = trained
        cfg = _write_cfg(tmp_path, {**TINY_TRAIN,
                                    "checkpoint": str(out / "checkpoint.npz")})
        price_out = tmp_path / "price_out"
        rc = main(["price", "--config", str(cfg), "--out", str(price_out)])
        assert rc == 0
        lines = (price_out / "price.csv").read_text().strip().split("\n")
        assert lines[0] == "derivative,dataset,measure,generator,price"
        kind, dataset, measure, gen, price = lines[1].split(",")
        assert (kind, dataset, gen) == ("european_call", "synthetic", "gbm")
        assert measure == "erm(lambda=1)"
        assert 0.0 < float(price) < 0.5

    def test_price_rerun_byte_identical(self, trained, tmp_path):
        _, _, out = trained
        cfg = _write_cfg(tmp_path, {**TINY_TRAIN,
                                    "checkpoint": str(out / "checkpoint.npz")})
        outs = []
        for name in ("p1", "p2"):
            po = tmp_path / name
            assert main(["price", "--config", str(cfg),
                         "--out", str(po)]) == 0
            outs.append((po / "price.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_checkpoint_width_mismatch_exits_2(self, trained, tmp_path,
                                               capsys):
        _, _, out = trained
        cfg = _write_cfg(tmp_path, {
            **TINY_TRAIN,
            "checkpoint": str(out / "checkpoint.npz"),
            "option": {"kind": "lookback_call"}})
        rc = main(["price", "--config", str(cfg),
                   "--out", str(tmp_path / "po")])
        assert rc == 2
        # the lookback's extra feature: refused by the option kind
        err = capsys.readouterr().err
        assert "'option.kind'" in err and "'checkpoint'" in err

    def test_price_on_csv_eval_source(self, trained, tmp_path):
        _, _, out = trained
        rows = ["date,close"]
        closes = np.exp(np.random.default_rng(0)
                        .normal(0, 0.01, 40).cumsum()) * 4000
        for i, c in enumerate(closes):
            rows.append(f"2024-01-{i + 1:02d},{c:.2f}" if i < 31
                        else f"2024-02-{i - 30:02d},{c:.2f}")
        src = tmp_path / "index_dev.csv"
        src.write_text("\n".join(rows) + "\n")
        cfg = _write_cfg(tmp_path, {
            **TINY_TRAIN,
            "checkpoint": str(out / "checkpoint.npz"),
            "eval": {"source": str(src)}})
        price_out = tmp_path / "po"
        rc = main(["price", "--config", str(cfg), "--out", str(price_out)])
        assert rc == 0
        line = (price_out / "price.csv").read_text().strip().split("\n")[1]
        assert line.split(",")[1] == "index_dev"  # dataset label = file stem

    @pytest.mark.parametrize("close", ["nan", "inf", "-inf"])
    def test_non_finite_eval_close_exits_2(self, trained, tmp_path, capsys,
                                           close):
        _, _, out = trained
        src = tmp_path / "series.csv"
        closes = [f"{1.0 + i / 100!r}" for i in range(25)]
        closes[10] = close
        src.write_text("date,close\n" + "".join(
            f"2024-01-{i + 1:02d},{c}\n" for i, c in enumerate(closes)))
        cfg = _write_cfg(tmp_path, {
            **TINY_TRAIN,
            "checkpoint": str(out / "checkpoint.npz"),
            "eval": {"source": str(src)}})
        rc = main(["price", "--config", str(cfg),
                   "--out", str(tmp_path / "po")])
        assert rc == 2
        assert f"{src} row 12: non-positive or non-finite close" in (
            capsys.readouterr().err)

    def test_bad_eval_window_exits_2(self, trained, tmp_path, capsys):
        _, _, out = trained
        src = tmp_path / "series.csv"
        src.write_text("date,close\n2024-01-02,1.0\n2024-01-03,1.01\n")
        cfg = _write_cfg(tmp_path, {
            **TINY_TRAIN,
            "checkpoint": str(out / "checkpoint.npz"),
            "eval": {"source": str(src), "window_days": 10}})
        rc = main(["price", "--config", str(cfg),
                   "--out", str(tmp_path / "po")])
        assert rc == 2
        assert "window_days" in capsys.readouterr().err


class TestStats:
    def test_smoke_and_determinism(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"stats": {"n_paths": 40}})
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = main(["stats", "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            kurt = (out / "kurtosis.csv").read_text()
            hist = (out / "histogram.csv").read_text()
            outs.append((kurt, hist))
        assert outs[0] == outs[1]
        lines = outs[0][0].strip().split("\n")
        assert lines[0] == "lag,kurtosis"
        assert len(lines) == 21  # default max_lag 20
        assert outs[0][1].startswith("bin_center,mass\n")


TINY_TUNE = {"tune": {"trials": 2},
             "train": {"paths": 40, "epochs": 1, "minibatch": 64},
             "eval": {"n_paths": 40}}


def _tune(tmp_path, name, tree):
    """(ledger.csv, its study hash) of a tune run on ``tree``."""
    out = tmp_path / name
    cfg = _write_cfg(tmp_path, tree, name=f"{name}.yaml")
    assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
    return ((out / "ledger.csv").read_text(),
            json.loads((out / "ledger.csv.json").read_text())["study_hash"])


class TestTune:
    def test_smoke_artifacts(self, tmp_path):
        cfg = _write_cfg(tmp_path, TINY_TUNE)
        out = tmp_path / "out"
        rc = main(["tune", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        ledger = (out / "ledger.csv").read_text().strip().split("\n")
        assert ledger[0] == "trial_id,status,objective,seed,lr,mu,sigma"
        assert len(ledger) == 3
        best = json.loads((out / "best.json").read_text())
        assert set(best) == {"trial_id", "objective", "status", "assignment"}
        assert best["status"] == "ok"

    def test_resume_under_another_seed_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, TINY_TUNE)
        out = tmp_path / "lt"
        assert main(["tune", "--config", str(cfg), "--out", str(out),
                     "--seed", "0", "--trials", "2"]) == 0
        recorded = json.loads((out / "ledger.csv.json").read_text())
        ledger = (out / "ledger.csv").read_bytes()
        capsys.readouterr()
        rc = main(["tune", "--config", str(cfg), "--out", str(out),
                   "--seed", "1", "--trials", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert recorded["study_hash"] in err
        assert err.count("study ") == 2  # the ledger's hash and this one's
        assert (out / "ledger.csv").read_bytes() == ledger
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0

    def test_simulator_section_reaches_trials_and_hash(self, tmp_path):
        tree = {**TINY_TUNE, "generator": "heston"}
        ledger, digest = _tune(tmp_path, "base", tree)
        rough, rough_digest = _tune(tmp_path, "rough",
                                    {**tree, "heston": {"vol_of_vol": 1.5}})
        assert rough_digest != digest
        rows = [[row.split(",") for row in text.splitlines()[1:]]
                for text in (ledger, rough)]
        # the same trials, scored on other paths
        assert [r[4:] for r in rows[0]] == [r[4:] for r in rows[1]]
        assert [r[2] for r in rows[0]] != [r[2] for r in rows[1]]

    def test_val_split_reaches_trials_and_hash(self, tmp_path):
        # a trial trains as `train` does, validating on train.val_split
        ledger, digest = _tune(tmp_path, "base", TINY_TUNE)
        half, half_digest = _tune(tmp_path, "half", {
            **TINY_TUNE, "train": {**TINY_TUNE["train"], "val_split": 0.5}})
        assert half_digest != digest
        rows = [[row.split(",") for row in text.splitlines()[1:]]
                for text in (ledger, half)]
        assert [r[4:] for r in rows[0]] == [r[4:] for r in rows[1]]
        assert [r[2] for r in rows[0]] != [r[2] for r in rows[1]]

    def test_eval_source_scores_the_trials(self, tmp_path):
        closes = np.exp(np.random.default_rng(3)
                        .normal(0, 0.01, 80).cumsum()) * 4000
        src = tmp_path / "index.csv"
        src.write_text("date,close\n" + "".join(
            f"{np.datetime64('2024-01-01') + i},{c:.6f}\n"
            for i, c in enumerate(closes)))
        ledger, digest = _tune(tmp_path, "synthetic", TINY_TUNE)
        windows, windows_digest = _tune(
            tmp_path, "windows",
            {**TINY_TUNE, "eval": {"source": str(src)}})
        assert windows_digest != digest
        assert windows != ledger


class TestReproduceTable:
    def test_table_rows_and_determinism(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "train": {"paths": 30, "epochs": 1, "minibatch": 64},
            "eval": {"n_paths": 30}})
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["reproduce-table", "--config", str(cfg),
                       "--out", str(out)])
            assert rc == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().split("\n")
        assert lines[0] == "derivative,dataset,measure,generator,price"
        assert len(lines) == 21  # 2 derivatives x 5 measures x 2 datasets
        kinds = {l.split(",")[0] for l in lines[1:]}
        assert kinds == {"european_call", "lookback_call"}
        measures = {l.split(",")[2] for l in lines[1:]}
        assert measures == {"erm(lambda=1)", "erm(lambda=10)",
                            "cvar(alpha=0.9)", "cvar(alpha=0.95)",
                            "cvar(alpha=0.99)"}

    def test_main_thread_draws_the_paths_and_cells_fan_out(
            self, tmp_path, monkeypatch):
        # every path set (2 eval sets, 10 cells' training sets) is drawn
        # on the main thread, so a market pool is never forked from a
        # helper, while the cells train on a helper too
        from hedgelab import cli
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        drawn, trained = [], []
        generate, fit = cli.generate_paths, cli.train

        def recording_generate(*args):
            drawn.append(threading.current_thread())
            return generate(*args)

        def recording_train(*args, **kwargs):
            trained.append(threading.current_thread())
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_paths", recording_generate)
        monkeypatch.setattr(cli, "train", recording_train)
        cfg = _write_cfg(tmp_path, {
            "train": {"paths": 30, "epochs": 1, "minibatch": 64},
            "eval": {"n_paths": 30}})
        assert main(["reproduce-table", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        main_thread = threading.main_thread()
        assert len(drawn) == 12
        assert all(t is main_thread for t in drawn)
        assert len(trained) == 10
        assert any(t is not main_thread for t in trained)

    @pytest.mark.parametrize("generator", ["gbm", "heston", "market"])
    def test_results_do_not_depend_on_threads_or_parallel(
            self, tmp_path, monkeypatch, generator):
        tree = {"generator": generator,
                "train": {"paths": 30, "epochs": 1, "minibatch": 64},
                "eval": {"n_paths": 30}}
        if generator == "market":
            tree.update(TINY_MARKET)
        cfg = _write_cfg(tmp_path, tree)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        tables = {}
        for threads in (1, 2):  # cells one after another, then fanned out
            monkeypatch.setattr(neuralnet, "FORWARD_THREADS", threads)
            for parallel in ("1", "2"):
                out = tmp_path / f"threads{threads}-parallel{parallel}"
                assert main(["reproduce-table", "--config", str(cfg),
                             "--out", str(out), "--parallel", parallel]) == 0
                tables[threads, parallel] = (out / "results.csv").read_bytes()
        assert len(tables) == 4 and len(set(tables.values())) == 1

    def test_each_eval_set_is_featurized_once(self, tmp_path, monkeypatch,
                                              capsys):
        # rows (and stdout) run derivative, then measure, then eval set,
        # while all ten policies are priced one eval set at a time from
        # that set's lookback features, whose first columns are the
        # European's
        from hedgelab import cli
        calls = []
        featurize = cli.features_matrix
        monkeypatch.setattr(cli, "features_matrix", lambda paths, spec: (
            calls.append((spec.kind, paths.shape[0])),
            featurize(paths, spec))[1])
        cfg = _write_cfg(tmp_path, {
            "train": {"paths": 30, "epochs": 1, "minibatch": 64},
            "eval": {"n_paths": 25}})
        out = tmp_path / "out"
        assert main(["reproduce-table", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert calls == [("lookback_call", 25)] * 2
        rows = [l.split(",") for l in
                (out / "results.csv").read_text().strip().split("\n")[1:]]
        measures = ["erm(lambda=1)", "erm(lambda=10)", "cvar(alpha=0.9)",
                    "cvar(alpha=0.95)", "cvar(alpha=0.99)"]
        assert [r[:3] for r in rows] == [
            [kind, label, m] for kind in ("european_call", "lookback_call")
            for m in measures for label in ("development", "test")]
        printed = capsys.readouterr().out.strip().split("\n")
        assert [line.split() for line in printed[:-1]] == [
            [kind, label, m, price] for kind, label, m, _, price in rows]
