"""Policy network, optimizer, and training-loop behavior."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import Tensor, layer_norm, reference_minibatch_loss
import hedgelab
from hedgelab import neuralnet
from hedgelab.hedge_core import features_matrix
from hedgelab.instruments import OptionSpec, payoff_batch
from hedgelab.neuralnet import (FORWARD_BLOCK_ROWS, HIDDEN_WIDTH, Adam,
                                MlpPolicy, TrainReport, load_policy,
                                minibatch_loss, save_policy, train,
                                write_report_csv)
from hedgelab.risk import RiskMeasure, indifference_price

ERM1 = RiskMeasure("erm", lam=1.0)


def _randomized_policy(in_width=4, seed=0):
    """Policy with a non-zero head so outputs actually vary."""
    policy = MlpPolicy(in_width, seed=seed)
    rng = np.random.default_rng(seed + 1)
    state = policy.get_state()
    state[-2] = rng.normal(0.0, 0.3, state[-2].shape)
    state[-1] = rng.normal(0.0, 0.1, state[-1].shape)
    policy.set_state(state)
    return policy


def _gbm_like_paths(n, steps=8, seed=0):
    rng = np.random.default_rng(seed)
    incr = rng.normal(0.0, 0.2 / np.sqrt(250), (n, steps))
    return np.exp(np.cumsum(np.concatenate(
        [np.zeros((n, 1)), incr], axis=1), axis=1))


class TestMlpPolicy:
    def test_zero_head_outputs_zero(self):
        policy = MlpPolicy(4, seed=3)
        x = np.random.default_rng(0).normal(size=(17, 4))
        assert np.all(policy.forward_np(x) == 0.0)
        assert np.all(policy(x)[0] == 0.0)

    def test_construction_deterministic(self):
        a = MlpPolicy(5, seed=11).get_state()
        b = MlpPolicy(5, seed=11).get_state()
        c = MlpPolicy(5, seed=12).get_state()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_param_count_and_shapes(self):
        policy = MlpPolicy(4)
        assert len(policy.params) == 14  # 3 x (W, b, gain, bias) + head
        assert policy.params[0].shape == (4, 32)
        assert policy.params[-2].shape == (32, 1)

    def test_duplicated_rows_identical_outputs(self):
        policy = _randomized_policy()
        row = np.random.default_rng(2).normal(size=(1, 4))
        out = policy.forward_np(np.tile(row, (5, 1)))
        assert np.all(out == out[0])

    def test_graph_and_numpy_forward_agree(self):
        policy = _randomized_policy(seed=4)
        x = np.random.default_rng(5).normal(size=(23, 4))
        np.testing.assert_array_equal(policy(x)[0], policy.forward_np(x))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            MlpPolicy(0)
        policy = MlpPolicy(4)
        with pytest.raises(ValueError):
            policy.forward_np(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            policy(np.zeros(4))

    def test_set_state_validation(self):
        policy = MlpPolicy(4)
        with pytest.raises(ValueError):
            policy.set_state(policy.get_state()[:-1])
        bad = policy.get_state()
        bad[0] = bad[0][:, :16]
        with pytest.raises(ValueError):
            policy.set_state(bad)

    def test_forward_np_rows_independent(self):
        policy = _randomized_policy()
        x = np.random.default_rng(1).normal(size=(9, 4))
        halves = np.concatenate([policy.forward_np(x[:4]),
                                 policy.forward_np(x[4:])])
        np.testing.assert_allclose(policy.forward_np(x), halves,
                                   rtol=1e-12, atol=1e-15)


# Prices each case with one unblocked ``_forward`` call and with the
# blocked ``forward_np`` on 1, 2 and 3 threads, and saves all of them to
# the npz named by argv[1].
_BLOCKED_FORWARD_CASES = """
import sys
import numpy as np
from hedgelab import neuralnet
from hedgelab.neuralnet import FORWARD_BLOCK_ROWS as B, MlpPolicy

sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
arrays = {}
for width in (4, 5):
    policy = MlpPolicy(width, seed=width)
    rng = np.random.default_rng(width)
    policy.set_state([p + rng.normal(0.0, 0.5, p.shape)
                      for p in policy.get_state()])
    # a batch below one block, then 1, 2, 3 and 7 blocks and a remainder
    for rows in [B // 3 + 1] + [k * B + r for k in (1, 2, 3, 7)
                                for r in (0, 1, B - 1)]:
        x = rng.normal(size=(rows, width))
        arrays[f"{width}_{rows}_whole"] = policy._forward(x)
        for threads in (1, 2, 3):
            neuralnet.FORWARD_THREADS = threads
            arrays[f"{width}_{rows}_{threads}"] = policy.forward_np(x)
np.savez(sys.argv[1], **arrays)
"""


def _blocked_forward_cases(tmp_path, blas_threads: str) -> dict:
    """{case: {"whole": ..., 1: ..., 2: ..., 3: ...}} at a BLAS thread
    count fixed before numpy loads, in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               OMP_NUM_THREADS=blas_threads,
               PYTHONPATH=str(Path(hedgelab.__file__).parents[1]))
    out = tmp_path / "forward.npz"
    subprocess.run([sys.executable, "-c", _BLOCKED_FORWARD_CASES, str(out)],
                   env=env, check=True, timeout=120)
    with np.load(out) as blob:
        cases = {}
        for key in blob.files:
            case, run = key.rsplit("_", 1)
            cases.setdefault(case, {})[
                run if run == "whole" else int(run)] = blob[key]
    assert len(cases) == 26
    return cases


class TestBlockedForward:
    def test_blocks_equal_one_unblocked_pass(self, tmp_path):
        # OpenBLAS splits rows between its threads at points that depend
        # on the thread count, and rows past a split can round
        # differently, so only a one-thread BLAS fixes the reference bits
        for case, runs in _blocked_forward_cases(tmp_path, "1").items():
            whole = runs["whole"]
            assert np.unique(whole).size > whole.size // 2
            for threads in (1, 2, 3):
                assert np.array_equal(runs[threads], whole), (case, threads)

    def test_threads_change_no_bit_at_two_blas_threads(self, tmp_path):
        for case, runs in _blocked_forward_cases(tmp_path, "2").items():
            for threads in (2, 3):
                assert np.array_equal(runs[threads], runs[1]), (case, threads)

    def test_wrong_width_raises_before_any_block(self):
        policy = MlpPolicy(4)
        for x in (np.zeros((FORWARD_BLOCK_ROWS + 1, 5)), np.zeros((0, 5)),
                  np.zeros(4)):
            with pytest.raises(ValueError,
                               match=r"expected \(batch, 4\) features"):
                policy.forward_np(x)

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        policy = _randomized_policy()
        forward, caller = policy._forward, threading.get_ident()
        failed = []

        def fail_in_a_helper(x):
            if threading.get_ident() != caller:
                failed.append(x.shape[0])
                raise RuntimeError("block failed")
            return forward(x)

        monkeypatch.setattr(policy, "_forward", fail_in_a_helper)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            policy.forward_np(np.zeros((4 * FORWARD_BLOCK_ROWS, 4)))
        assert failed == [FORWARD_BLOCK_ROWS]  # the helper stops at once
        assert threading.active_count() == before

    def test_forked_child_runs_the_forward(self, monkeypatch):
        # no pool or thread outlives a call, so a child forked after one
        # has none to wait on
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        policy = _randomized_policy()
        x = np.random.default_rng(6).normal(size=(4 * FORWARD_BLOCK_ROWS, 4))
        expected = policy.forward_np(x)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(policy.forward_np, (x,)).get(timeout=60)
        assert np.array_equal(got, expected)

    def test_memory_is_one_block_per_thread(self, monkeypatch):
        # each thread holds one block's intermediates (about 3.5 arrays at
        # a time); two threads fit the bound whatever the host's CPUs
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        policy = _randomized_policy()
        x = np.random.default_rng(3).normal(size=(50 * FORWARD_BLOCK_ROWS, 4))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = policy.forward_np(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_array = FORWARD_BLOCK_ROWS * HIDDEN_WIDTH * 8
        assert peak <= out.nbytes + 8 * block_array


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(0.0, 3.0, (40, 32)))
    gain = Tensor(np.ones(32))
    bias = Tensor(np.zeros(32))
    out = layer_norm(h, gain, bias).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_policy_gradients_match_finite_differences():
    policy = _randomized_policy(seed=7)
    x = np.random.default_rng(8).normal(size=(6, 4))
    target = np.random.default_rng(9).normal(size=6)

    def loss_value():
        d = policy.forward_np(x) - target
        return float(np.mean(d * d))

    out, backward = policy(x)
    grads = backward(2.0 * (out - target) / x.shape[0])

    rng = np.random.default_rng(10)
    h = 1e-6
    for p, g in zip(policy.params, grads):
        flat = p.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size),
                              replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value()
            flat[idx] = keep - h
            dn = loss_value()
            flat[idx] = keep
            fd = (up - dn) / (2 * h)
            assert g.reshape(-1)[idx] == pytest.approx(fd, rel=1e-4,
                                                       abs=1e-8)


def _both_losses(policy, paths, spec, measure, cost_rate):
    """(loss, gradients) of one minibatch from ``minibatch_loss`` and from
    the reference engine's graph."""
    args = (policy, features_matrix(paths, spec), paths,
            payoff_batch(spec, paths), measure, cost_rate)
    out = []
    for loss_fn in (minibatch_loss, reference_minibatch_loss):
        loss = loss_fn(*args)
        out.append((loss.value, loss.backward()))
    return out


def _same_bits(a, b):
    return (np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _flatten(paths, flat):
    """Paths whose price does not move at some steps, so the gain's
    gradient is zero in those rows: one step of every path ("step"),
    every step but the last ("but_last") or every step ("all")."""
    paths = paths.copy()
    if flat == "step":
        paths[:, 3] = paths[:, 2]
    elif flat == "but_last":
        paths[:, 1:-1] = paths[:, :1]
    elif flat == "all":
        paths[:] = paths[:, :1]
    return paths


# at-most-one-non-zero-row and all-zero cases: a one-path CVaR tail on
# paths that move only at their last step, and on flat paths; ERM with
# lambda large enough that exp underflows to 0 for all but the worst paths
@example(seed=1, lookback=False, batch=2, use_cvar=True, cost_rate=0.0,
         dead_unit=None, flat="but_last", lam=3.0)
@example(seed=2, lookback=True, batch=9, use_cvar=True, cost_rate=0.0,
         dead_unit=0, flat="all", lam=3.0)
@example(seed=3, lookback=False, batch=9, use_cvar=False, cost_rate=0.0,
         dead_unit=None, flat=None, lam=1e5)
# ERM over 9 paths whose mean, sum * (1/9), differs from np.mean's sum / 9
# in the last bit
@example(seed=0, lookback=False, batch=9, use_cvar=False, cost_rate=0.0,
         dead_unit=0, flat=None, lam=3.0)
@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 31 - 1), lookback=st.booleans(),
       batch=st.sampled_from([1, 2, 9]), use_cvar=st.booleans(),
       cost_rate=st.sampled_from([0.0, 0.004]),
       dead_unit=st.sampled_from([None, 0, 1, 2]),
       flat=st.sampled_from([None, "step", "but_last", "all"]),
       lam=st.sampled_from([3.0, 1e5]))
def test_policy_node_gradients_equal_reference_graph(
        seed, lookback, batch, use_cvar, cost_rate, dead_unit, flat, lam):
    spec = OptionSpec("lookback_call" if lookback else "european_call",
                      maturity_days=5)
    measure = (RiskMeasure("cvar", alpha=0.7) if use_cvar
               else RiskMeasure("erm", lam=lam))
    policy = MlpPolicy(5 if lookback else 4, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    state = [p + rng.normal(0.0, 0.3, p.shape) for p in policy.get_state()]
    if dead_unit is not None:
        # gain = bias = 0 pins unit 7 of that block at exactly 0 before
        # the ReLU in every row, where relu'(0) = 0 must hold
        state[4 * dead_unit + 2][7] = 0.0
        state[4 * dead_unit + 3][7] = 0.0
    policy.set_state(state)
    paths = _flatten(_gbm_like_paths(batch, steps=5, seed=seed % 997), flat)

    (loss, fused), (ref_loss, graph) = _both_losses(policy, paths, spec,
                                                    measure, cost_rate)
    assert _same_bits(loss, ref_loss)
    assert len(fused) == len(graph) == 14
    for a, b in zip(fused, graph):
        assert _same_bits(a, b)
    if dead_unit is not None:
        assert fused[4 * dead_unit + 2][7] == 0.0
        assert fused[4 * dead_unit + 3][7] == 0.0


# Losses and gradients at the benchmark's minibatch shape (256 paths x 20
# steps), from minibatch_loss and from the reference graph, saved to the
# npz named by argv[1].  Rows past a few dozen reach OpenBLAS's
# large-shape kernels, which the hypothesis test above never does.
_MINIBATCH_GRADIENT_CASES = """
import sys
import numpy as np
from hedgelab.instruments import OptionSpec
from hedgelab.neuralnet import MlpPolicy
from hedgelab.risk import RiskMeasure
from test_neuralnet import _both_losses, _gbm_like_paths

cvar = RiskMeasure("cvar", alpha=0.95)
cases = [(w, cvar, c) for w in (4, 5) for c in (0.0, 0.002)]
cases += [(4, RiskMeasure("erm", lam=1.0), 0.002),
          (4, RiskMeasure("erm", lam=1.0), 0.0),
          (5, RiskMeasure("erm", lam=1e5), 0.002)]
arrays = {}
for i, (width, measure, cost_rate) in enumerate(cases):
    paths = _gbm_like_paths(256, steps=20, seed=i)
    spec = OptionSpec("lookback_call" if width == 5 else "european_call",
                      maturity_days=20)
    policy = MlpPolicy(width, seed=i)
    rng = np.random.default_rng(i)
    policy.set_state([p + rng.normal(0.0, 0.3, p.shape)
                      for p in policy.get_state()])
    (loss, fused), (ref_loss, graph) = _both_losses(policy, paths, spec,
                                                    measure, cost_rate)
    arrays[f"{i}_loss_fused"], arrays[f"{i}_loss_graph"] = loss, ref_loss
    for j, (a, b) in enumerate(zip(fused, graph)):
        arrays[f"{i}_{j}_fused"], arrays[f"{i}_{j}_graph"] = a, b
np.savez(sys.argv[1], **arrays)
"""


def test_minibatch_gradients_equal_reference_graph(tmp_path):
    # one BLAS thread fixes the reference bits (see TestBlockedForward)
    tests_dir = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(hedgelab.__file__).parents[1]),
                    str(tests_dir)]))
    out = tmp_path / "gradients.npz"
    subprocess.run([sys.executable, "-c", _MINIBATCH_GRADIENT_CASES,
                    str(out)], env=env, check=True, timeout=300)
    with np.load(out) as blob:
        names = sorted(k[:-len("_fused")] for k in blob.files
                       if k.endswith("_fused"))
        assert len(names) == 7 * (1 + 14)
        for name in names:
            fused, graph = blob[name + "_fused"], blob[name + "_graph"]
            assert fused.shape == graph.shape
            assert fused.tobytes() == graph.tobytes(), name
            assert np.any(fused != 0.0), name


def test_train_on_reference_graph_is_byte_identical(monkeypatch):
    paths = _gbm_like_paths(50, seed=11)
    spec = OptionSpec("european_call", maturity_days=8)
    measure = RiskMeasure("cvar", alpha=0.8)

    def run():
        policy, report = train(MlpPolicy(4, seed=5), paths, spec, measure,
                               lr=1e-2, epochs=2, minibatch=8, seed=2,
                               cost_rate=0.002)
        return [p.tobytes() for p in policy.get_state()], report

    fused = run()
    monkeypatch.setattr(neuralnet, "minibatch_loss", reference_minibatch_loss)
    assert run() == fused


class TestAdam:
    def test_first_step_closed_form(self):
        p = np.zeros(3)
        opt = Adam([p], lr=0.01)
        opt.step([np.array([1.0, -2.0, 0.5])])
        # bias-corrected first step collapses to -lr * sign(grad)
        np.testing.assert_allclose(p, [-0.01, 0.01, -0.01], rtol=1e-6)

    def test_state_round_trip(self):
        p = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step([np.array([1.0, 1.0])])
        snap = opt.get_state()
        opt.step([np.array([-1.0, 2.0])])
        opt.set_state(snap)
        assert opt.t == 1
        np.testing.assert_array_equal(opt.m[0], (1.0 - 0.9) * np.ones(2))

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestTrain:
    def test_zero_epochs_is_identity(self):
        policy = MlpPolicy(4, seed=0)
        before = policy.get_state()
        paths = _gbm_like_paths(16)
        spec = OptionSpec("european_call", maturity_days=8)
        policy, report = train(policy, paths, spec, ERM1, lr=1e-2, epochs=0)
        assert report.val_prices == [] and report.best_epoch == -1
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, policy.get_state()))

    def test_input_validation(self):
        policy = MlpPolicy(4)
        spec = OptionSpec("european_call", maturity_days=8)
        with pytest.raises(ValueError):
            train(policy, np.ones(5), spec, ERM1, lr=1e-2, epochs=1)
        with pytest.raises(ValueError):
            train(policy, _gbm_like_paths(4), spec, ERM1, lr=1e-2,
                  epochs=1, val_split=1.0)
        with pytest.raises(ValueError, match="minibatch"):
            train(policy, _gbm_like_paths(4), spec, ERM1, lr=1e-2,
                  epochs=1, minibatch=0)

    def test_single_repeated_path_learns_to_trade(self):
        # identical paths make PL deterministic: any positive trading gain
        # lowers the price below the raw payoff, and more is always better,
        # so a few epochs must strictly improve on the unhedged start
        path = _gbm_like_paths(1, steps=8, seed=3)
        paths = np.tile(path, (8, 1))
        spec = OptionSpec("european_call", maturity_days=8)
        payoff = float(payoff_batch(spec, paths)[0])
        policy = MlpPolicy(4, seed=0)
        policy, report = train(policy, paths, spec, ERM1, lr=1e-2,
                               epochs=10, seed=0, val_split=0.0)
        assert report.best_epoch >= 0
        finite = [l for l in report.train_losses if np.isfinite(l)]
        assert finite[-1] < finite[0]
        assert report.best_price < payoff

    def test_best_epoch_tracks_val_minimum(self):
        paths = _gbm_like_paths(40, seed=5)
        spec = OptionSpec("european_call", maturity_days=8)
        policy = MlpPolicy(4, seed=1)
        _, report = train(policy, paths, spec, ERM1, lr=1e-2, epochs=4,
                          seed=2)
        prices = np.array(report.val_prices)
        assert report.best_epoch == int(np.nanargmin(prices))
        assert report.best_price == np.nanmin(prices)

    def test_reproducible_end_to_end(self):
        paths = _gbm_like_paths(30, seed=6)
        spec = OptionSpec("european_call", maturity_days=8)
        runs = []
        for _ in range(2):
            policy = MlpPolicy(4, seed=3)
            policy, report = train(policy, paths, spec, ERM1, lr=1e-2,
                                   epochs=3, seed=7)
            runs.append((policy.get_state(), report.val_prices))
        assert runs[0][1] == runs[1][1]
        assert all(np.array_equal(a, b)
                   for a, b in zip(runs[0][0], runs[1][0]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in log")
    def test_nan_paths_roll_back(self):
        paths = _gbm_like_paths(20, seed=8)
        paths[0, 3] = -paths[0, 3]  # log-return of a negative price: nan
        spec = OptionSpec("european_call", maturity_days=8)
        policy = MlpPolicy(4, seed=0)
        before = policy.get_state()
        policy, report = train(policy, paths, spec, ERM1, lr=1e-2,
                               epochs=3, minibatch=32, seed=0)
        assert report.diagnostics  # every epoch hits the poisoned batch
        assert report.best_epoch == -1
        assert all(np.isfinite(p).all() for p in policy.params)
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, policy.get_state()))

    def test_consecutive_rollbacks_restore_the_last_finite_epoch(
            self, monkeypatch):
        # validation fails at epochs 1 and 2, so epochs 2 and 3 must both
        # start from the weights epoch 0 ended with
        paths = _gbm_like_paths(20, seed=4)
        spec = OptionSpec("european_call", maturity_days=8)
        forward = MlpPolicy.__call__
        starts = []

        def recording_forward(policy, x):
            starts.append(policy.get_state())
            return forward(policy, x)

        prices = iter([0.1, float("nan"), float("nan"), 0.1])
        monkeypatch.setattr(MlpPolicy, "__call__", recording_forward)
        monkeypatch.setattr(neuralnet, "policy_price",
                            lambda *args: next(prices))
        _, report = train(MlpPolicy(4, seed=0), paths, spec, ERM1, lr=1e-2,
                          epochs=4, minibatch=16, seed=0)
        assert len(starts) == 4  # 16 training paths: one minibatch an epoch
        assert report.diagnostics == [
            f"epoch {e}: non-finite evaluation, rolled back" for e in (1, 2)]
        assert not all(np.array_equal(a, b)
                       for a, b in zip(starts[0], starts[1]))
        for epoch in (2, 3):
            assert all(np.array_equal(a, b)
                       for a, b in zip(starts[1], starts[epoch])), epoch

    def test_training_reduces_erm_price_on_gbm(self):
        # risk-averse enough (lam=10) that hedging has a visible in-sample
        # edge over the unhedged book at this path count
        paths = _gbm_like_paths(200, steps=20, seed=9)
        spec = OptionSpec("european_call", maturity_days=20)
        measure = RiskMeasure("erm", lam=10.0)
        policy = MlpPolicy(4, seed=0)
        policy, report = train(policy, paths, spec, measure, lr=3e-3,
                               epochs=12, seed=1, val_split=0.0)
        unhedged = indifference_price(-payoff_batch(spec, paths), measure)
        assert report.best_price < 0.95 * unhedged


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        policy = _randomized_policy(seed=13)
        p = tmp_path / "ckpt.npz"
        save_policy(policy, p, config_hash="abc123")
        loaded, meta = load_policy(p)
        assert meta["in_width"] == 4
        assert meta["config_hash"] == "abc123"
        x = np.random.default_rng(0).normal(size=(7, 4))
        np.testing.assert_array_equal(loaded.forward_np(x),
                                      policy.forward_np(x))

    def test_version_check(self, tmp_path):
        policy = MlpPolicy(4)
        p = tmp_path / "ckpt.npz"
        save_policy(policy, p)
        with np.load(p) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 99
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8)
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_policy(p)


def test_report_csv_format(tmp_path):
    report = TrainReport(val_prices=[0.5, float("nan"), 0.25])
    p = tmp_path / "report.csv"
    write_report_csv(report, p)
    lines = p.read_text().strip().split("\n")
    assert lines == ["epoch,val_price", "0,0.5", "1,nan", "2,0.25"]
