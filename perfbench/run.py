"""Benchmark for hedgelab: one workload per run, checked, timed, optionally traced.

    python3 perfbench/run.py --workload market-paths --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: hedgelab is imported from
``src/`` next to this directory, never from an installed copy.  Each run
makes its inputs from ``--seed``, sets up, runs one checked warm-up
operation, then repeats the same operation until ``--seconds`` have
passed.  Every operation's output is checked against the warm-up's
(the program is seed-deterministic); the warm-up's output is checked
against the references in ``oracles.py``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
traced and untraced operations and prints the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Problems found by the checks go to stderr.  Outputs, the result JSON
and the last traced operation's spans go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
# glibc mallopt parameters and the fixed values the benchmark runs with
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))
from perfbench import oracles  # noqa: E402
from perfbench.trace import LAYER_METRICS, Tracer  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
              "items_per_s": "1/s"}

STRIKE = 1.0
N_DAYS = 20


def import_program() -> None:
    """Import hedgelab from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "hedgelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hedgelab sources under {src}")
    sys.path.insert(0, str(src))
    import hedgelab
    if Path(hedgelab.__file__).resolve().parent != src / "hedgelab":
        raise SystemExit(f"perfbench: imported hedgelab from "
                         f"{hedgelab.__file__}, not {src}")
    import hedgelab.cli  # noqa: F401  (every layer module loads through it)


def pin_malloc() -> None:
    """Fix glibc's malloc thresholds at the values its dynamic adjustment
    moves towards.  Left dynamic, they depend on the allocation history,
    and identical heston-table operations took 100k to 300k page faults
    (0.4 s to 1.1 s of system time) with no change in the program."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc: nothing to pin
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def program_seed(seed: int, *tags: int) -> int:
    import numpy as np
    ss = np.random.SeedSequence((seed % 2**32,) + tags)
    return int(ss.generate_state(1)[0])


def _write_yaml(path: Path, config: dict) -> None:
    import yaml
    path.write_text(yaml.safe_dump(config, sort_keys=True))


class CliWorkload:
    """One `hedgelab <command>` call, sized through a YAML config."""

    command = ""
    config: dict = {}

    def __init__(self, seed: int, out: Path):
        self.cli = sys.modules["hedgelab.cli"]
        cfg = out / "config.yaml"
        _write_yaml(cfg, self.config)
        self.op_dir = out / "op"
        self.argv = [self.command, "--config", str(cfg),
                     "--seed", str(program_seed(seed)),
                     "--out", str(self.op_dir), "--parallel", "1"]

    def run(self):
        rc = self.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"hedgelab {self.command} exited {rc}")

    def read_csv(self, name: str) -> list:
        with open(self.op_dir / name, newline="") as fh:
            return list(csv.reader(fh))


class MarketPaths(CliWorkload):
    """`hedgelab gen-paths` on the chartist-heavy agent market."""

    name = "market-paths"
    command = "gen-paths"
    n_sessions = 40
    config = {"generator": "market",
              "market": {"agents_per_step": 10,
                         "population": {"w_c": 3.0, "tau_star_min": 50,
                                        "tau_star_max": 150, "tau_min": 1,
                                        "tau_max": 10}},
              "train": {"paths": n_sessions}}

    def collect(self, _):
        return [[float(x) for x in row] for row in self.read_csv("paths.csv")[1:]]

    def check(self, paths) -> list:
        return oracles.check_market_paths(paths, self.n_sessions, N_DAYS)

    def work(self, _, wall: float):
        """(items done, seconds they took) in one operation."""
        return self.n_sessions, wall


class GbmHedge:
    """GBM paths -> CVaR(0.95) training -> held-out indifference price."""

    name = "gbm-hedge"
    sigma = 0.2
    alpha = 0.95
    n_train = 10_000
    n_eval = 10_000
    epochs = 2
    lr = 5e-3

    def __init__(self, seed: int, out: Path):
        from hedgelab import (hedge_core, instruments, neuralnet, risk,
                              stoch_models)
        self.m = (hedge_core, instruments, neuralnet, risk, stoch_models)
        self.spec = instruments.OptionSpec("european_call", STRIKE, N_DAYS)
        self.measure = risk.RiskMeasure("cvar", alpha=self.alpha)
        self.params = stoch_models.GbmParams(mu=0.0, sigma=self.sigma,
                                             n_steps=N_DAYS)
        self.seeds = [program_seed(seed, tag) for tag in range(4)]

    def run(self):
        hedge_core, instruments, neuralnet, risk, stoch_models = self.m
        spec = self.spec
        paths, _ = stoch_models.gbm_paths(self.params, self.n_train,
                                          self.seeds[0],
                                          return_regen_count=True)
        policy = neuralnet.MlpPolicy(hedge_core.feature_width(spec),
                                     seed=self.seeds[1])
        t0 = perf_counter()
        policy, _ = neuralnet.train(policy, paths, spec, self.measure,
                                    lr=self.lr, epochs=self.epochs,
                                    minibatch=256, seed=self.seeds[2])
        train_s = perf_counter() - t0
        ev = stoch_models.gbm_paths(self.params, self.n_eval, self.seeds[3])
        feats = hedge_core.features_matrix(ev, spec)
        deltas = policy.forward_np(
            feats.reshape(-1, feats.shape[2])).reshape(ev.shape[0], -1)
        pl, _, _ = hedge_core.pl_core(ev, deltas,
                                      instruments.payoff_batch(spec, ev), 0.0)
        price = risk.indifference_price(pl, self.measure)
        return price, ev, deltas, train_s

    def collect(self, result):
        price, ev, deltas, _ = result
        return price, ev.tolist(), deltas.tolist()

    def check(self, output) -> list:
        price, ev, deltas = output
        return oracles.check_gbm_hedge(price, ev, deltas, self.alpha,
                                       STRIKE, self.sigma)

    def work(self, result, wall: float):
        return self.n_train * self.epochs, result[3]


class HestonTable(CliWorkload):
    """`hedgelab reproduce-table` on Heston QE-M paths."""

    name = "heston-table"
    command = "reproduce-table"
    v0 = 0.04
    config = {"generator": "heston",
              "heston": {"kappa": 1.0, "theta": v0, "v0": v0,
                         "vol_of_vol": 0.2, "rho": -0.7},
              "train": {"paths": 500, "epochs": 2},
              "eval": {"n_paths": 3000}}
    n_rows = 20

    def collect(self, _):
        rows = self.read_csv("results.csv")
        if rows[0] != ["derivative", "dataset", "measure", "generator",
                       "price"]:
            raise ValueError(f"unexpected results.csv header {rows[0]}")
        return [(d, s, m, g, float(p)) for d, s, m, g, p in rows[1:]]

    def check(self, rows) -> list:
        return oracles.check_price_table(rows, "heston", STRIKE,
                                         self.v0 ** 0.5, N_DAYS)

    def work(self, _, wall: float):
        return self.n_rows, wall


WORKLOADS = {w.name: w for w in (MarketPaths, GbmHedge, HestonTable)}


class Runner:
    """Counts attempted and failed operations and collects check problems."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.peak_rss_mb = None

    def attempt(self):
        """One operation: its wall seconds and (items, seconds) of work,
        or None when the program raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = self.w.run()
        except Exception:  # a program fault counts as a failed operation
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        wall = perf_counter() - t0
        if self.peak_rss_mb is None:
            # after one operation: the heap keeps growing a little with
            # each repeat, so a later reading depends on the run's length
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        output = self.w.collect(result)
        if self.reference is None:
            self.reference = output
            self.problems += self.w.check(output)
        elif output != self.reference:
            self.problems.append(f"operation {self.attempted} output differs "
                                 f"from the first operation's")
        return wall, self.w.work(result, wall)


def measure(runner, seconds: float) -> dict:
    runner.attempt()  # warm-up, checked and not timed
    done = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not done:
        timed = runner.attempt()
        if timed is not None:
            done.append(timed)
        elif perf_counter() >= deadline:
            break
    if not done:
        raise SystemExit("perfbench: every operation failed")
    print("perfbench: operation walls " + " ".join(f"{w:.4f}" for w, _ in done),
          file=sys.stderr)
    # Means, not medians: on a shared host one operation's time flips
    # between a fast and a slow mode; a median jumps with it, a mean moves
    # with the share of the run spent in each.
    return {"wall_s": sum(w for w, _ in done) / len(done),
            "items_per_s": (sum(n for _, (n, _) in done)
                            / sum(t for _, (_, t) in done)),
            "peak_rss_mb": runner.peak_rss_mb}


def measure_traced(runner, seconds: float, trace_path: Path) -> dict:
    """Alternate traced and untraced operations; per-layer medians."""
    tracer = Tracer()
    runner.attempt()  # warm-up, checked and not traced
    traced, untraced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not (traced and untraced):
        trace_this = len(traced) <= len(untraced)
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                timed = runner.attempt()
            finally:
                tracer.restore()
        else:
            timed = runner.attempt()
        if timed is None:
            if perf_counter() >= deadline:
                break
        elif trace_this:
            traced.append(tracer.layer_metrics(timed[0]))
        else:
            untraced.append(timed[0])
    if not (traced and untraced):
        raise SystemExit("perfbench: every operation failed")
    tracer.save(trace_path)
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    return metrics


def setup(workload_name: str, seed: int):
    """Everything before the timed section: imports, config, inputs."""
    import_program()
    out = OUT / workload_name
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload_name](seed, out), out


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit (used to time set-up)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    for var in [v for v in os.environ if v.startswith("HEDGELAB__")]:
        del os.environ[var]  # the CLI would read them as config overrides
    pin_malloc()
    workload, out = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    runner = Runner(workload)
    tag = f"trace{args.trace}-seed{args.seed}"
    if args.trace:
        values = measure_traced(runner, args.seconds, out / "spans.npz")
        units = LAYER_METRICS
    else:
        values = measure(runner, args.seconds)
        values["setup_s"] = setup_seconds(args)
        units = END_TO_END
    for line in runner.problems:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    result = {"correct": not runner.problems,
              "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    text = json.dumps(result)
    (out / f"result-{tag}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
