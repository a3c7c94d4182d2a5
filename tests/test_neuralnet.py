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

from _reference import (Tensor, layer_norm, reference_forward,
                        reference_minibatch_loss)
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


# Runs each case through one unblocked reference forward and, on 1, 2
# and 3 threads, through the blocked pricing forward ``forward_np`` and
# the training forward ``__call__``, and saves all of them to the npz
# named by argv[1].
_BLOCKED_FORWARD_CASES = """
import sys
import numpy as np
from _reference import reference_forward
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
        arrays[f"{width}_{rows}_whole"] = reference_forward(policy, x)[0]
        for threads in (1, 2, 3):
            neuralnet.FORWARD_THREADS = threads
            arrays[f"{width}_{rows}_np{threads}"] = policy.forward_np(x)
            arrays[f"{width}_{rows}_call{threads}"] = policy(x)[0]
np.savez(sys.argv[1], **arrays)
"""


def _subprocess_env(blas_threads: str) -> dict:
    """The environment of a fresh interpreter that imports hedgelab and
    the tests' modules, with BLAS at ``blas_threads`` threads from the
    start."""
    return dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                OMP_NUM_THREADS=blas_threads,
                PYTHONPATH=os.pathsep.join(
                    [str(Path(hedgelab.__file__).parents[1]),
                     str(Path(__file__).parent)]))


def _blocked_forward_cases(tmp_path, blas_threads: str) -> dict:
    """{case: {"whole": ..., "np1": ..., "call1": ..., ...}} at a BLAS
    thread count fixed before numpy loads, in a fresh interpreter."""
    out = tmp_path / "forward.npz"
    subprocess.run([sys.executable, "-c", _BLOCKED_FORWARD_CASES, str(out)],
                   env=_subprocess_env(blas_threads), check=True,
                   timeout=120)
    with np.load(out) as blob:
        cases = {}
        for key in blob.files:
            case, run = key.rsplit("_", 1)
            cases.setdefault(case, {})[run] = blob[key]
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
            for run in ("np1", "np2", "np3", "call1", "call2", "call3"):
                assert np.array_equal(runs[run], whole), (case, run)

    def test_threads_change_no_bit_at_two_blas_threads(self, tmp_path):
        for case, runs in _blocked_forward_cases(tmp_path, "2").items():
            for forward in ("np", "call"):
                for threads in (2, 3):
                    assert np.array_equal(runs[f"{forward}{threads}"],
                                          runs[f"{forward}1"]), (
                        case, forward, threads)

    def test_wrong_width_raises_before_any_block(self):
        policy = MlpPolicy(4)
        for x in (np.zeros((FORWARD_BLOCK_ROWS + 1, 5)), np.zeros((0, 5)),
                  np.zeros(4)):
            with pytest.raises(ValueError,
                               match=r"expected \(batch, 4\) features"):
                policy.forward_np(x)

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        x = np.zeros((4 * FORWARD_BLOCK_ROWS, 4))
        rows = _fail_in_a_helper(monkeypatch, _randomized_policy().forward_np,
                                 x)
        assert rows.stop - rows.start == FORWARD_BLOCK_ROWS

    def test_helper_error_in_training_reaches_the_caller(self, monkeypatch):
        # the training forward gives each of the 2 threads one block
        x = np.zeros((4 * FORWARD_BLOCK_ROWS, 4))
        rows = _fail_in_a_helper(monkeypatch, _randomized_policy(), x)
        assert rows.stop - rows.start == 2 * FORWARD_BLOCK_ROWS

    def test_helper_error_in_backward_reaches_the_caller(self, monkeypatch):
        # the helper fails on one of the four weight-gradient products
        x = np.random.default_rng(4).normal(size=(4 * FORWARD_BLOCK_ROWS, 4))
        _, backward = _randomized_policy()(x)
        g = np.zeros(x.shape[0])
        g[::7] = 1.0
        index, _, b = _fail_in_a_helper(monkeypatch, backward, g)
        assert index in (0, 4, 8, 12)
        assert b.shape[0] == x.shape[0]

    @pytest.mark.parametrize("blas_threads", [1, 2])
    def test_backward_products_beside_the_chain_at_one_blas_thread(
            self, monkeypatch, blas_threads):
        # the backward's products, and the pricing and training forwards'
        # blocks, go to a helper beside a one-thread BLAS; beside a
        # multi-thread BLAS the caller runs them all
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: blas_threads)
        starts = []

        class CountingThread(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        def started(call, *args):
            starts.clear()
            result = call(*args)
            return len(starts), result

        monkeypatch.setattr(threading, "Thread", CountingThread)
        policy = _randomized_policy()
        x = np.random.default_rng(2).normal(size=(4 * FORWARD_BLOCK_ROWS, 4))
        g = np.zeros(x.shape[0])
        g[::7] = 1.0
        n_pricing, _ = started(policy.forward_np, x)
        n_training, (_, backward) = started(policy, x)
        n_backward, _ = started(backward, g)
        helpers = 1 if blas_threads == 1 else 0
        assert (n_pricing, n_training, n_backward) == (helpers,) * 3

    def test_small_cvar_batch_runs_the_dense_chain(self, monkeypatch):
        # a CVaR tail of several rows in a batch under
        # GATHER_MIN_BATCH_ROWS rows: the in-place chain over all rows,
        # its products on this thread, and the reference graph's bits
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        chains, starts = [], []
        chain = MlpPolicy._chain

        def recording_chain(policy, g, cache, grads, rows):
            chains.append((g.shape[0], np.count_nonzero(g), rows))
            return chain(policy, g, cache, grads, rows)

        class CountingThread(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(MlpPolicy, "_chain", recording_chain)
        monkeypatch.setattr(threading, "Thread", CountingThread)
        paths = _gbm_like_paths(9, steps=5, seed=3)
        spec = OptionSpec("european_call", maturity_days=5)
        args = (_randomized_policy(), features_matrix(paths, spec), paths,
                payoff_batch(spec, paths), RiskMeasure("cvar", alpha=0.7),
                0.0)
        loss = minibatch_loss(*args)  # its forward's 2 blocks: a helper
        starts.clear()
        fused = loss.backward()
        graph = reference_minibatch_loss(*args).backward()
        [(n, nonzero, rows)] = chains
        assert n == 45 < neuralnet.GATHER_MIN_BATCH_ROWS
        assert 2 <= nonzero < n
        assert isinstance(rows, slice) and rows == slice(None)
        assert starts == []
        assert all(_same_bits(a, b) for a, b in zip(fused, graph))

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        policy = _randomized_policy()
        x = np.random.default_rng(5).normal(size=(4 * FORWARD_BLOCK_ROWS, 4))
        g = np.zeros(x.shape[0])
        g[::7] = 1.0
        before = threading.active_count()
        policy.forward_np(x)
        assert threading.active_count() == before
        _, backward = policy(x)
        assert threading.active_count() == before
        backward(g)
        assert threading.active_count() == before

    def test_forked_child_runs_the_forward(self, monkeypatch):
        # no pool or thread outlives a call, so a child forked after one
        # has none to wait on
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        policy = _randomized_policy()
        x = np.random.default_rng(6).normal(size=(4 * FORWARD_BLOCK_ROWS, 4))
        expected = policy.forward_np(x)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(policy.forward_np, (x,)).get(timeout=60)
        assert np.array_equal(got, expected)

    def test_forked_child_trains_after_train(self, monkeypatch):
        # the training forward's helpers are gone once train returns
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        expected = _train_state()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_train_state).get(timeout=120)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_memory_is_one_block_per_thread(self, monkeypatch):
        # each thread holds one block's scratch (two float arrays, the
        # std and a mask), beside the shared tiles; two threads fit the
        # bound whatever the host's CPUs and BLAS threads
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
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

    def test_training_forward_holds_its_cache_and_one_block_per_thread(
            self, monkeypatch):
        # the cache is filled in place: beyond it and the positions, the 2
        # threads' masks and the shared tiles fit in two (block, 32) float
        # arrays
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        policy = _randomized_policy()
        n = 5 * FORWARD_BLOCK_ROWS
        x = np.random.default_rng(3).normal(size=(n, 4))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out, _ = policy(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per hidden block: two float (n, 32) arrays and the (n, 1) std
        cache_bytes = 3 * n * (2 * 8 * HIDDEN_WIDTH + 8)
        block_array = (n // 2) * HIDDEN_WIDTH * 8
        assert peak <= cache_bytes + out.nbytes + 2 * block_array


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_blas_threads_reads_openblas(blas_threads):
    if neuralnet._openblas_function("get_num_threads") is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from hedgelab import neuralnet; print(neuralnet._blas_threads())"],
        env=_subprocess_env(blas_threads), capture_output=True, text=True,
        check=True, timeout=120)
    assert proc.stdout.split() == [blas_threads]


# Row counts below, at and above one tile (256 rows) and one pricing
# block (2048 rows), the benchmark's minibatch and a large odd batch.
SWEEP_ROWS = (1, 7, 8, 255, 256, 257, 2047, 2048, 2049, 5120, 20_020)


@pytest.fixture
def set_blas_threads():
    """OpenBLAS's thread-count setter, with this process's count restored
    after the test; skips under another BLAS."""
    setter = neuralnet._openblas_function("set_num_threads")
    if setter is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before = neuralnet._blas_threads()
    yield setter
    setter(before)


def _perturbed_policy(width, seed):
    policy = MlpPolicy(width, seed=seed)
    rng = np.random.default_rng(seed)
    policy.set_state([p + rng.normal(0.0, 0.5, p.shape)
                      for p in policy.get_state()])
    return policy


class TestRowSweep:
    def test_forwards_and_cache_equal_reference_forward(
            self, monkeypatch, set_blas_threads):
        # one BLAS thread fixes the reference bits (see TestBlockedForward)
        set_blas_threads(1)
        forward, tiled = MlpPolicy._forward, set()

        def recording_forward(policy, cache, out, tiles):
            tiled.add(tiles is not None
                      and out.shape[0] % neuralnet.TILE_ROWS == 0)
            forward(policy, cache, out, tiles)

        monkeypatch.setattr(MlpPolicy, "_forward", recording_forward)
        policy = _perturbed_policy(5, 3)
        rng = np.random.default_rng(4)
        for rows in SWEEP_ROWS:
            x = rng.normal(size=(rows, 5))
            whole, reference_cache = reference_forward(policy, x)
            for threads in (1, 2, 3):
                monkeypatch.setattr(neuralnet, "FORWARD_THREADS", threads)
                assert _same_bits(policy.forward_np(x), whole), (rows, threads)
                arrays = neuralnet._training_arrays(rows)
                out, _ = policy(x, arrays)
                assert _same_bits(out, whole), (rows, threads)
                for a, b in zip(arrays, reference_cache[1:], strict=True):
                    assert _same_bits(a, b), (rows, threads)
        assert tiled == {True, False}  # tiled and broadcast blocks ran

    def test_what_blas_threads_change(self, set_blas_threads):
        # the pricing forward, and the training forward with its dense
        # (every row non-zero, as under ERM) and sparse (a 5% tail, as
        # under CVaR) backward, at one and at two BLAS threads.  The
        # positions and every gradient but the weights' keep their bits.
        # The weight gradients sum over the rows in one product, and
        # OpenBLAS 0.3.31 (SkylakeX) at two threads changed their last
        # bits at 2049 and 20 020 rows, so the README's bit contract
        # keeps the BLAS thread count.
        policy = _perturbed_policy(5, 6)
        rng = np.random.default_rng(7)
        weights = {0, 4, 8, 12}
        for rows in SWEEP_ROWS:
            x = rng.normal(size=(rows, 5))
            dense = rng.normal(size=rows)
            sparse = np.where(rng.random(rows) < 0.05, dense, 0.0)
            runs = []
            for threads in (1, 2):
                set_blas_threads(threads)
                assert neuralnet._blas_threads() == threads
                run = [("forward_np", policy.forward_np(x))]
                for g in (dense, sparse):
                    out, backward = policy(x)
                    run.append(("positions", out))
                    run += enumerate(backward(g))
                runs.append(run)
            assert len(runs[0]) == 1 + 2 * 15
            for (what, a), (_, b) in zip(*runs):
                if what in weights:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
                else:
                    assert _same_bits(a, b), (rows, what)


class TestFanOut:
    def test_fan_out_inside_an_item_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        starts, inner = [], []

        class CountingThread(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)

        def item(i):
            neuralnet._fan_out(lambda j: inner.append((i, j)), range(3), 3)

        neuralnet._fan_out(item, range(4), 4)
        assert len(starts) == 1  # the outer call's helper
        assert sorted(inner) == [(i, j) for i in range(4) for j in range(3)]
        # the flag ends with the items: a later call starts its helper
        neuralnet._fan_out(lambda i: None, range(2), 2)
        assert len(starts) == 2

    def test_serial_fan_out_runs_each_item_as_it_is_yielded(
            self, monkeypatch):
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
        events = []

        def items():
            for i in range(3):
                events.append(("yield", i))
                yield i

        def serial_fan_out():
            events.clear()
            neuralnet._fan_out(lambda i: events.append(("run", i)), items(),
                               3)
            return events == [(e, i) for i in range(3)
                              for e in ("yield", "run")]

        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 1)
        assert serial_fan_out()
        # inside an item, whatever FORWARD_THREADS says
        monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
        nested = []
        neuralnet._fan_out(lambda _: nested.append(serial_fan_out()),
                           range(1), 1)
        assert nested == [True]


def _fail_in_a_helper(monkeypatch, call, *args):
    """Runs ``call(*args)`` on 2 threads (as beside a one-thread BLAS,
    whatever this process's BLAS runs) with every ``_fan_out`` item
    failing on the helper thread, checks that the error reaches the
    caller and leaves no thread behind, and returns the one item the
    helper got.  The caller's items wait until the helper has failed, so
    the helper always gets one."""
    monkeypatch.setattr(neuralnet, "FORWARD_THREADS", 2)
    monkeypatch.setattr(neuralnet, "_blas_threads", lambda: 1)
    fan_out, caller = neuralnet._fan_out, threading.get_ident()
    failed, helper_failed = [], threading.Event()

    def failing_fan_out(work, items, n_items):
        def fail_in_a_helper(item):
            if threading.get_ident() != caller:
                failed.append(item)
                helper_failed.set()
                raise RuntimeError("helper failed")
            assert helper_failed.wait(timeout=60)
            work(item)

        fan_out(fail_in_a_helper, items, n_items)

    monkeypatch.setattr(neuralnet, "_fan_out", failing_fan_out)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        call(*args)
    assert len(failed) == 1  # the helper stops at once
    assert threading.active_count() == before
    return failed[0]


def _train_state():
    """Weights after a small two-epoch CVaR training of 64-path
    minibatches."""
    policy, _ = train(MlpPolicy(4, seed=5), _gbm_like_paths(300, seed=12),
                      OptionSpec("european_call", maturity_days=8),
                      RiskMeasure("cvar", alpha=0.8), lr=1e-2, epochs=2,
                      minibatch=64, seed=2)
    return policy.get_state()


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


# Batches of 1, 2 and 9 paths (5 to 45 rows) are under
# GATHER_MIN_BATCH_ROWS, so the backward takes its dense chain, zero rows
# and all; 16 paths are 80 rows, where a CVaR(0.7) tail of 5 paths takes
# the gathered chain (the first example below) and ERM the dense one.
# _MINIBATCH_GRADIENT_CASES checks both at larger shapes.
@example(seed=4, lookback=True, batch=16, use_cvar=True, cost_rate=0.004,
         dead_unit=1, flat=None, lam=3.0)
# At-most-one-non-zero-row and all-zero cases: a one-path CVaR tail on
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
       batch=st.sampled_from([1, 2, 9, 16]), use_cvar=st.booleans(),
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
# steps), at shapes on both sides of the backward's choice of chain (see
# ``MlpPolicy._backward``) and at ERM row counts that are multiples of
# neither 8 nor 256, from the reference graph and from minibatch_loss on
# 1, 2 and 3 threads, saved to the npz named by argv[1].  Rows past a few
# dozen reach OpenBLAS's large-shape kernels, which the hypothesis test
# above never does.  The training forward's positions and cache arrays
# are saved as digests, beside those of one unblocked reference forward;
# the cache is copied before the backward, which in its dense chain
# overwrites it.
_MINIBATCH_GRADIENT_CASES = """
import hashlib
import sys
import numpy as np
from _reference import reference_forward
from hedgelab import neuralnet
from hedgelab.hedge_core import features_matrix
from hedgelab.instruments import OptionSpec
from hedgelab.neuralnet import MlpPolicy
from hedgelab.risk import RiskMeasure
from test_neuralnet import _both_losses, _gbm_like_paths

sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
forward, backward, seen = MlpPolicy.__call__, MlpPolicy._backward, []

def recording_forward(policy, x, arrays=None):
    out, grads = forward(policy, x, arrays)
    seen.append(out)
    return out, grads

def recording_backward(policy, g, cache):
    seen.extend(a.copy() for a in cache)
    return backward(policy, g, cache)

def digests(arrays):
    return np.array([f"{a.dtype}{a.shape}" + hashlib.sha256(a.tobytes())
                     .hexdigest() for a in arrays])

MlpPolicy.__call__, MlpPolicy._backward = recording_forward, recording_backward
cvar = RiskMeasure("cvar", alpha=0.95)
cases = [(w, cvar, c, 256, 20) for w in (4, 5) for c in (0.0, 0.002)]
cases += [(4, RiskMeasure("erm", lam=1.0), 0.002, 256, 20),
          (4, RiskMeasure("erm", lam=1.0), 0.0, 256, 20),
          (5, RiskMeasure("erm", lam=1e5), 0.002, 256, 20),
          # the gathered chain: a 60-row tail, then a 20-row tail (under
          # the 38 rows where the transposed view's kernel changes) of an
          # 80-row batch
          (4, RiskMeasure("cvar", alpha=0.99), 0.002, 256, 20),
          (5, RiskMeasure("cvar", alpha=0.8), 0.0, 4, 20),
          # a 1-row tail of a 64-row batch: the dense chain, in place
          (4, RiskMeasure("cvar", alpha=0.99), 0.0, 64, 1),
          # dense, in place: 259 and 2020 rows, so the threads' blocks
          # are partly tiled and partly broadcast
          (4, RiskMeasure("erm", lam=1.0), 0.0, 37, 7),
          (5, RiskMeasure("erm", lam=10.0), 0.002, 101, 20)]
arrays = {}
for i, (width, measure, cost_rate, n_paths, steps) in enumerate(cases):
    paths = _gbm_like_paths(n_paths, steps=steps, seed=i)
    spec = OptionSpec("lookback_call" if width == 5 else "european_call",
                      maturity_days=steps)
    policy = MlpPolicy(width, seed=i)
    rng = np.random.default_rng(i)
    policy.set_state([p + rng.normal(0.0, 0.3, p.shape)
                      for p in policy.get_state()])
    out, cache = reference_forward(
        policy, features_matrix(paths, spec).reshape(-1, width))
    arrays[f"{i}_forward_whole"] = digests([out] + cache)
    for threads in (1, 2, 3):
        neuralnet.FORWARD_THREADS = threads
        seen.clear()
        (loss, fused), (ref_loss, graph) = _both_losses(policy, paths, spec,
                                                        measure, cost_rate)
        # the fused loss records its positions and, at backward(), its
        # cache; the reference graph records neither
        assert len(seen) == 11
        arrays[f"{i}_forward_{threads}"] = digests(seen)
        arrays[f"{i}_loss_{threads}"] = loss
        for j, a in enumerate(fused):
            arrays[f"{i}_{j}_{threads}"] = a
    arrays[f"{i}_loss_graph"] = ref_loss
    for j, b in enumerate(graph):
        arrays[f"{i}_{j}_graph"] = b
np.savez(sys.argv[1], **arrays)
"""


def _minibatch_cases(tmp_path, blas_threads: str) -> dict:
    """{name: {"graph": ..., "1": ..., "2": ..., "3": ...}}: per case, its
    loss, its 14 gradients and its forward digests, at a BLAS thread
    count fixed before numpy loads, in a fresh interpreter."""
    out = tmp_path / "gradients.npz"
    subprocess.run([sys.executable, "-c", _MINIBATCH_GRADIENT_CASES,
                    str(out)], env=_subprocess_env(blas_threads), check=True,
                   timeout=600)
    with np.load(out) as blob:
        cases = {}
        for key in blob.files:
            name, run = key.rsplit("_", 1)
            cases.setdefault(name, {})[run] = blob[key]
    assert len(cases) == 12 * (1 + 14 + 1)
    return cases


def test_minibatch_gradients_equal_reference_graph(tmp_path):
    # one BLAS thread fixes the reference bits (see TestBlockedForward)
    for name, runs in _minibatch_cases(tmp_path, "1").items():
        if name.endswith("_forward"):
            # the training forward's positions and 10 cache arrays
            assert runs["whole"].size == 11
            for threads in ("1", "2", "3"):
                assert np.array_equal(runs[threads], runs["whole"]), (
                    name, threads)
            continue
        graph = runs["graph"]
        assert np.any(graph != 0.0), name
        for threads in ("1", "2", "3"):
            fused = runs[threads]
            assert fused.shape == graph.shape
            assert fused.tobytes() == graph.tobytes(), (name, threads)


def test_training_step_threads_change_no_bit_at_two_blas_threads(tmp_path):
    for name, runs in _minibatch_cases(tmp_path, "2").items():
        for threads in ("2", "3"):
            assert runs[threads].shape == runs["1"].shape
            assert runs[threads].tobytes() == runs["1"].tobytes(), (
                name, threads)


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

        def recording_forward(policy, x, arrays=None):
            starts.append(policy.get_state())
            return forward(policy, x, arrays)

        prices = iter([0.1, float("nan"), float("nan"), 0.1])
        monkeypatch.setattr(MlpPolicy, "__call__", recording_forward)
        monkeypatch.setattr(neuralnet, "_price_features",
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

    def test_minibatches_refill_one_cache(self, monkeypatch):
        # 40 training paths in minibatches of 16: each minibatch refills
        # the cache arrays that train owns, the short last one a prefix
        forward = MlpPolicy.__call__
        caches = []

        def recording_forward(policy, x, arrays=None):
            caches.append(arrays)
            return forward(policy, x, arrays)

        monkeypatch.setattr(MlpPolicy, "__call__", recording_forward)
        train(MlpPolicy(4, seed=0), _gbm_like_paths(50, seed=4),
              OptionSpec("european_call", maturity_days=8), ERM1, lr=1e-2,
              epochs=2, minibatch=16, seed=0)
        first = caches[0]
        assert len(first) == 9 and len(caches) == 6
        for i, arrays in enumerate(caches):
            rows = 8 * (8 if i % 3 == 2 else 16)
            for a, b in zip(arrays, first):
                assert a.shape[0] == rows and a.base is b.base
                assert a.flags.c_contiguous

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
        option = {"kind": "european_call", "strike": 1.0, "maturity_days": 5}
        save_policy(policy, p, option=option, cost_rate=0.001,
                    generator="heston", config_hash="abc123")
        loaded, meta = load_policy(p)
        assert meta["in_width"] == 4
        assert meta["config_hash"] == "abc123"
        assert meta["option"] == option
        assert (meta["cost_rate"], meta["generator"]) == (0.001, "heston")
        x = np.random.default_rng(0).normal(size=(7, 4))
        np.testing.assert_array_equal(loaded.forward_np(x),
                                      policy.forward_np(x))

    def test_version_check(self, tmp_path):
        policy = MlpPolicy(4)
        p = tmp_path / "ckpt.npz"
        save_policy(policy, p, option={}, cost_rate=0.0, generator="gbm")
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
