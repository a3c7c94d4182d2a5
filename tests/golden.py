"""The byte contract as data: the sha256 of every ``.csv``, ``.json`` and
``.npz`` artifact and of the stdout of the six subcommands on three
configs, beside the build those bytes depend on.

    PYTHONPATH=src python tests/golden.py    # rewrites tests/golden.json

``test_golden.py`` regenerates the digests and compares them with the
file.  A change that moves bytes on purpose reruns this script and names
each digest that moved.  ``np.savez`` stamps its members with a fixed
date, so checkpoint bytes repeat.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

GOLDEN = Path(__file__).with_name("golden.json")
SUBCOMMANDS = (("gen-paths", ["--paths", "25"]), ("train", []), ("price", []),
               ("tune", []), ("stats", []), ("reproduce-table", []))
# criterion 10's config; the other two change what it generates and prices
SMALL = {"train": {"paths": 40, "epochs": 2, "minibatch": 64},
         "eval": {"n_paths": 30}, "tune": {"trials": 2},
         "stats": {"n_paths": 30}}
CONFIGS = {
    "criterion10": SMALL,
    "heston-lookback-cvar": {**SMALL, "generator": "heston",
                             "option": {"kind": "lookback_call"},
                             "measure": {"kind": "cvar", "alpha": 0.9},
                             "cost_rate": 0.002},
    # the tests' TINY_MARKET
    "tiny-market": {**SMALL, "generator": "market",
                    "market": {"n_agents": 20, "agents_per_step": 4,
                               "preopen_steps": 20, "steps_per_day": 5}},
}
# (run name, config name, --parallel)
RUNS = (("criterion10", "criterion10", 1),
        ("heston-lookback-cvar", "heston-lookback-cvar", 1),
        ("tiny-market-p1", "tiny-market", 1),
        ("tiny-market-p2", "tiny-market", 2))
SEED = 5
DIGESTED = (".csv", ".json", ".npz")


def host() -> dict:
    """What the digests depend on besides the code: numpy, the OpenBLAS
    build and core, numpy's enabled CPU features, and Python (which the
    manifests record)."""
    import numpy as np

    from hedgelab.neuralnet import _openblas_function

    def openblas(suffix):
        fn = _openblas_function(suffix)
        if fn is None:
            return None
        fn.restype = ctypes.c_char_p
        return fn().decode().strip()

    core = getattr(np, "_core", None) or np.core
    features = core._multiarray_umath.__cpu_features__
    return {"numpy": np.__version__,
            "openblas_config": openblas("get_config"),
            "openblas_corename": openblas("get_corename"),
            "cpu_features": sorted(k for k, on in features.items() if on),
            "python": platform.python_version()}


def _run_all(workdir: Path) -> None:
    """Every run's subcommands in this process, each into
    ``<run>/<subcommand>/`` with its stdout beside its artifacts."""
    from hedgelab.cli import main

    for run, config, parallel in RUNS:
        cfg = workdir / f"{config}.yaml"
        cfg.write_text(yaml.safe_dump(CONFIGS[config]))
        for command, extra in SUBCOMMANDS:
            out = Path(run) / command
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = main([command, "--config", str(cfg), "--seed", str(SEED),
                           "--out", str(out), "--parallel", str(parallel),
                           *extra])
            if rc != 0:
                raise RuntimeError(f"{run} {command} exited {rc}")
            (out / "stdout").write_text(stdout.getvalue())


def digests(workdir) -> dict:
    """{"<run>/<subcommand>/<file>": sha256} of one fresh process's runs
    in ``workdir``, at one BLAS thread."""
    workdir = Path(workdir)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HEDGELAB__") and k != "OMP_NUM_THREADS"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    # relative --out paths, so stdout names no host directory
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--run", str(workdir)], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return {str(p.relative_to(workdir)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.glob("*/*/*"))
            if p.suffix in DIGESTED or p.name == "stdout"}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        record = {"host": host(), "digests": digests(tmp)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        _run_all(Path(sys.argv[2]))
    else:
        main()
