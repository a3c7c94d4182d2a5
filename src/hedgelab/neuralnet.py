"""Hedging policy network, Adam, and the training loop minimizing -u(PL).

The policy is one shared 4-affine-layer MLP (3 hidden width-32 blocks of
affine -> layer norm -> ReLU, then a linear head) applied at every
hedging step; time-to-maturity rides in as a feature, so step-batching
collapses into a single matmul per layer.  The final layer starts at
zero: epoch 0 is exactly the unhedged position, which keeps tail-based
measures (CVaR) from thrashing during warm-up.

The forward pass is written once, ``MlpPolicy._forward``, for one row
block, and ``_fan_out``, the one loop that hands work to every usable
core (while BLAS runs one thread), runs the blocks.  A block of whole
256-row tiles adds and multiplies its bias and gain vectors without
numpy's per-row broadcast.  Pricing (``forward_np``) runs cache-sized
blocks on scratch; training (``__call__``) runs one block per core into
the full-size cache (per hidden block: centered pre-activation, row std,
output), which ``train`` owns and refills, and which the hand-derived
MLP backward (``_backward``) reads.  ``minibatch_loss`` is one training
step's loss and gradient: the risk measure and the PL differentiated in
closed form, then that backward.  Its chain comes in two forms, and
``_backward`` alone picks one: the dense chain writes its steps into the
cache itself and runs its four weight products as it goes (ERM, and
small batches or single-row tails under CVaR); the gathered chain (a
CVaR tail in a large batch) works on the non-zero rows only, and the
same loop runs its four full-shape weight products beside it.  Either
way its bits equal a dense serial pass's.  ``cli.cmd_reproduce_table``
trains its cells through ``_fan_out`` too; a fan-out inside a cell then
runs on the cell's thread.

``_price_features`` is the one pricing pass (policy -> PL ->
indifference price) from built features and payoffs, so training's
validation, ``price``, ``tune`` and the table build those once per
path set and reuse them across epochs and policies.  Adam's moment
decays and epsilon are the constants ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``; only its learning rate is a setting.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .hedge_core import features_matrix, pl_core, position_change_matrix
from .instruments import OptionSpec, payoff_batch
from .risk import ERM, RiskMeasure, cvar_tail, indifference_price

__all__ = ["MlpPolicy", "Adam", "TrainReport", "minibatch_loss", "train",
           "save_policy", "load_policy", "write_report_csv"]

HIDDEN_WIDTH = 32
LN_EPS = 1e-5
# Rows of the bias and gain tiles (see ``MlpPolicy._forward``).  On a
# (1024, 32) block, ``c += bt`` took 14.3 us broadcast, 10.5 us against
# 32-row tiles and 6.1 us against 256-row tiles (8192-value inner
# loops).
TILE_ROWS = 256
# Rows per ``forward_np`` block.  A block's scratch (two (rows, 32)
# float64 arrays of 512 KiB, the std and the mask) stays in a 2 MiB L2
# cache, where a whole pricing batch's does not.  On a 2-vCPU Xeon
# (OpenBLAS core SkylakeX) at one BLAS thread and two forward threads,
# 60 000 rows with tiled bias and gain took 15.5 ms in 2048-row blocks,
# 16.8 ms in 1024-, 17.2 ms in 4096- and 22.3 ms in 512-row blocks
# (medians of 5 alternated rounds); broadcast, 1024-row blocks took
# 19.2 ms.  A multiple of ``TILE_ROWS``, so every full block is tiled,
# and of 8, so every block starts on the row boundaries of BLAS's
# unrolled kernels, as in one unblocked call.
FORWARD_BLOCK_ROWS = 2048
# threads per forward or backward call while OpenBLAS runs one thread
# (see ``_fan_out``): the CPUs this process may run on
FORWARD_THREADS = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# Batch rows from which the backward runs its gathered chain (see
# ``MlpPolicy._backward``): above the 38 rows where OpenBLAS switches
# kernels, with margin.
GATHER_MIN_BATCH_ROWS = 64
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CHECKPOINT_VERSION = 2


class MlpPolicy:
    """Width-32 MLP mapping a per-step feature row to one position."""

    def __init__(self, in_width: int, seed: int = 0):
        if in_width < 1:
            raise ValueError("in_width must be >= 1")
        self.in_width = in_width
        rng = np.random.default_rng(seed)
        w = HIDDEN_WIDTH
        self.params = []
        self._layers = []
        fan = in_width
        for _ in range(3):
            bound = np.sqrt(6.0 / fan)
            wt = rng.uniform(-bound, bound, (fan, w))
            bt, gain, bias = np.zeros(w), np.ones(w), np.zeros(w)
            self._layers.append((wt, bt, gain, bias))
            self.params += [wt, bt, gain, bias]
            fan = w
        # zero head: the untrained policy holds no position
        head_w, head_b = np.zeros((w, 1)), np.zeros(1)
        self._layers.append((head_w, head_b))
        self.params += [head_w, head_b]

    def _forward(self, cache: list, out: np.ndarray, tiles) -> None:
        """Positions of one row block, written into ``out``.

        ``cache`` holds the block's features, then per hidden block the
        centered pre-activation, the row std and the block's output (the
        next input): what ``_backward`` reads.  The output array holds the
        squares, then the normalized activations, on the way.  Each step
        is an allocating forward's ufunc on the same operands in the same
        order, written into one of these arrays, so the bits are the same.

        ``tiles`` is ``_tiles``'s value or None.  With it, a block whose
        rows are a multiple of ``TILE_ROWS`` adds and multiplies its
        (32,) vectors as contiguous tiles over ``(rows / TILE_ROWS,
        TILE_ROWS * 32)`` views: numpy broadcasts a (32,) vector with one
        32-value inner loop per row, which costs more than the arithmetic.
        Each element meets the same operand either way."""
        rows = out.shape[0]
        tiled = tiles is not None and rows % TILE_ROWS == 0
        mask = np.empty((rows, HIDDEN_WIDTH), dtype=bool)
        for k, (wt, bt, gain, bias) in enumerate(self._layers[:-1]):
            h, centered, sd, nxt = cache[3 * k:3 * k + 4]
            # views of the same memory (the blocks are C-contiguous)
            wide_centered, wide_nxt = centered, nxt
            if tiled:
                bt, gain, bias = tiles[k]
                wide_centered, wide_nxt = (
                    a.reshape(-1, TILE_ROWS * HIDDEN_WIDTH)
                    for a in (centered, nxt))
            np.matmul(h, wt, out=centered)
            wide_centered += bt
            # row means as np.mean takes them (a sum, then a true divide
            # by the count), without its per-call Python
            np.add.reduce(centered, axis=1, keepdims=True, out=sd)
            sd /= HIDDEN_WIDTH
            centered -= sd
            np.multiply(centered, centered, out=nxt)
            np.add.reduce(nxt, axis=1, keepdims=True, out=sd)
            sd /= HIDDEN_WIDTH
            sd += LN_EPS
            np.sqrt(sd, out=sd)
            np.divide(centered, sd, out=nxt)
            wide_nxt *= gain
            wide_nxt += bias
            # x * (x > 0) is -0 where x < 0; np.maximum(x, 0) is +0 there
            np.greater(nxt, 0.0, out=mask)  # relu'(0) = 0
            nxt *= mask
        head_w, head_b = self._layers[-1]
        out[:] = (cache[-1] @ head_w + head_b).reshape(-1)

    def _tiles(self, blocks: list):
        """Per hidden block, its ``bt``, ``gain`` and ``bias`` vectors
        repeated over ``TILE_ROWS`` rows, for ``_forward``; None when no
        block of ``blocks`` has a multiple of ``TILE_ROWS`` rows."""
        if all((b.stop - b.start) % TILE_ROWS for b in blocks):
            return None
        return [tuple(np.tile(v, TILE_ROWS) for v in layer[1:])
                for layer in self._layers[:-1]]

    def _backward(self, g: np.ndarray, cache: list) -> list:
        """Gradient of each parameter, in ``params`` order, given the
        gradient ``g`` of the positions ``_forward`` cached.

        The chain (``_chain``) runs from the head back to the first block
        and yields each weight gradient's product as soon as it has the
        operands.  Here alone it picks its form.  It runs dense, in place
        on the cache, when every row of ``g`` is non-zero (ERM), when the
        batch has fewer than ``GATHER_MIN_BATCH_ROWS`` rows, or when fewer
        than 2 rows are non-zero, and this thread runs each product before
        the chain overwrites its operand (on a 2-vCPU Xeon at one BLAS
        thread, a 5120-row backward took 7.0 ms so, against 9.7 ms with
        allocating steps beside helper products; medians of 300 calls).
        Otherwise (a CVaR tail in a large batch) it runs on copies of the
        non-zero rows, and the products go to helper threads (see
        ``_fan_out``) beside it.  At one BLAS thread, ``(m, 32) @ W.T``
        through the transposed view switches kernels at 38 rows, and from
        there on its rows equal the gathered rows' product with a
        contiguous ``W^T``, while a single row goes through numpy's
        matrix-vector path: hence the bounds.  Each product's operands and
        shape are those of a serial pass, so its bits do not depend on
        the thread that runs it.  The cache is dead once its gradient is
        taken.
        """
        g = g.reshape(-1, 1)
        nonzero = np.flatnonzero(g)
        grads = [None] * len(self.params)

        def weight_gradient(item):
            i, a, b = item
            grads[i] = a @ b

        if (nonzero.size == g.shape[0] or nonzero.size < 2
                or g.shape[0] < GATHER_MIN_BATCH_ROWS):
            for item in self._chain(g, cache, grads, slice(None)):
                weight_gradient(item)
        else:
            # the head's and the 3 blocks' products
            _fan_out(weight_gradient,
                     self._chain(g, cache, grads, nonzero), 4)
        return grads

    def _chain(self, g: np.ndarray, cache: list, grads: list, rows):
        """Head, then 3 x (ReLU mask -> layer norm -> affine) in reverse,
        on the cache's ``rows`` (a slice of all of them, written in place,
        or the indices of the non-zero rows, gathered into copies): the
        non-product gradients go straight into ``grads``, and each weight
        gradient is yielded as ``(index, a, b)``, ``grads[index] = a @
        b``, for ``_backward`` to run.

        Each step is the product or sum that reverse-mode differentiation
        of the forward composed from elementary autodiff nodes performs,
        in the same order (the centered activations collect their
        division term before their two square terms), so the gradients
        equal that graph's bit for bit.  A step writes its result with
        ``out=`` into an array whose value is no longer read: the
        incoming gradient, the centered activations, or the block's
        output once its ReLU mask and normalized activations (the
        forward's own ufuncs on the same operands) have been taken from
        it.

        A row whose position gradient is zero stays zero through every
        block, so gathered rows run the elementwise steps, row sums and
        axis-0 sums on the non-zero rows only (the CVaR tail's).  A zero
        row adds only signed zeros, and numpy's sums start from +0, so
        the sums keep their bits.  (A non-finite activation in a zero row
        would have made them NaN; it reaches the head's input, so the
        dense head gradient is NaN either way.)  The weight gradients sum
        over rows, and OpenBLAS picks their kernel by shape, so they keep
        the full ``(n, .)`` shape, the non-zero rows scattered into
        zeros.  The head's outer product (K = 1) has one multiplication
        per element; the product into the next block is ``rows @ W^T``
        with a contiguous ``W^T`` (see ``_backward``).
        """
        inv_w = 1.0 / HIDDEN_WIDTH
        head_w, _ = self._layers[-1]
        sparse = not isinstance(rows, slice)
        yield 12, cache[-1].T, g
        grads[13] = g.sum(axis=0)
        g = g[rows] @ head_w.T
        for k in (2, 1, 0):
            wt, _, gain, _ = self._layers[k]
            cached = cache[3 * k + 1:3 * k + 4]
            centered, sd, nxt = (a[rows] for a in cached)
            g *= nxt > 0.0
            np.divide(centered, sd, out=nxt)
            nxt *= g
            d_gain = nxt.sum(axis=0)
            d_bias = g.sum(axis=0)
            g *= gain
            np.negative(g, out=nxt)
            nxt *= centered
            nxt /= sd * sd
            d_sd = nxt.sum(axis=1, keepdims=True)
            # back through the sqrt and the variance's row mean
            d_sq = d_sd * 0.5 / sd * inv_w
            g /= sd
            centered *= d_sq
            g += centered
            g += centered
            # back through the centering: subtract the row mean
            d_mean = g.sum(axis=1, keepdims=True)
            np.negative(d_mean, out=d_mean)
            d_mean *= inv_w
            g += d_mean
            full = g
            if sparse:
                # the cache's centered activations, gathered already
                full = cached[0]
                full[...] = 0.0
                full[rows] = g
            yield 4 * k, cache[3 * k].T, full
            grads[4 * k + 1:4 * k + 4] = g.sum(axis=0), d_gain, d_bias
            if k:
                # into the centered activations, spent above
                np.matmul(g, np.ascontiguousarray(wt.T) if sparse else wt.T,
                          out=centered)
                g = centered

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.in_width:
            raise ValueError(
                f"expected (batch, {self.in_width}) features, got {x.shape}")

    def __call__(self, x: np.ndarray, arrays: list | None = None):
        """Positions for a (batch, in_width) feature array, and the
        function that maps their gradient to the parameters' gradients,
        to be called once (it may overwrite the cache).  ``arrays`` are
        cache arrays for as many rows to fill in place (an earlier call's
        gradient function on them must not run again), or None for new
        ones.  One block (a multiple of 8 rows) per thread fills the
        cache: on a 2-vCPU Xeon a 5120-row minibatch took 6.0-7.5 ms
        serial, and on two threads 4.2-5.6 ms in 1024-row, 3.9-4.2 in
        2560-row blocks.  Blocks started on multiples of ``TILE_ROWS``
        gained nothing: 2880 rows took 1.05 ms in 1536- and 1344-row
        blocks as in two of 1440, and 1280 rows 0.72 ms in 768- and
        512-row blocks against 0.53 ms in two of 640."""
        self._check(x)
        n = x.shape[0]
        cache = [x] + (_training_arrays(n) if arrays is None else arrays)
        out = np.empty(n)
        blocks = _row_blocks(n, 8 * -(-n // (8 * FORWARD_THREADS)))
        tiles = self._tiles(blocks)
        _fan_out(lambda rows: self._forward([a[rows] for a in cache],
                                            out[rows], tiles),
                 blocks, len(blocks))
        return out, lambda g: self._backward(g, cache)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Positions for a (batch, in_width) array, without a cache: blocks
        of ``FORWARD_BLOCK_ROWS`` rows, each on scratch that its three
        layers share (two (block, 32) float arrays and the std)."""
        self._check(x)
        out = np.empty(x.shape[0])
        blocks = _row_blocks(x.shape[0], FORWARD_BLOCK_ROWS)
        tiles = self._tiles(blocks)
        _fan_out(lambda rows: self._forward(
            [x[rows]] + _scratch(rows.stop - rows.start) * 3, out[rows],
            tiles), blocks, len(blocks))
        return out

    def get_state(self) -> list:
        return [p.copy() for p in self.params]

    def set_state(self, state) -> None:
        """Copy ``state`` into the parameters; the caller's arrays stay
        its own."""
        if len(state) != len(self.params):
            raise ValueError("state length mismatch")
        for p, arr in zip(self.params, state):
            if p.shape != arr.shape:
                raise ValueError("state shape mismatch")
        for p, arr in zip(self.params, state):
            p[...] = arr


def _scratch(n: int) -> list:
    """A hidden block's ``_forward`` arrays for ``n`` rows: the centered
    pre-activation, the row std and the output."""
    return [np.empty((n, HIDDEN_WIDTH)), np.empty((n, 1)),
            np.empty((n, HIDDEN_WIDTH))]


@functools.cache
def _openblas_function(suffix: str):
    """OpenBLAS's ``*_<suffix>`` function in numpy's BLAS, as a ctypes
    function returning an int, or None when numpy links another BLAS."""
    import ctypes
    blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                 f"openblas_{suffix}"):
        if hasattr(blas, name):
            return getattr(blas, name)
    return None


def _blas_threads() -> int:
    """OpenBLAS's thread count at this moment (``cli.pin_blas`` sets it
    after import), or 1 under another BLAS."""
    getter = _openblas_function("get_num_threads")
    return 1 if getter is None else getter()


def _training_arrays(n: int) -> list:
    """The training forward's cache arrays for ``n`` rows, after the
    features: one ``_scratch`` per hidden block (7.6 MiB at 5120 rows)."""
    return _scratch(n) + _scratch(n) + _scratch(n)


def _row_blocks(n: int, block_rows: int) -> list:
    """Slices of ``block_rows`` rows covering ``0..n``.  A single leftover
    row joins the last block, since numpy multiplies a one-row matrix
    with a matrix-vector kernel that sums in another order.  With blocks
    starting on multiples of 8 and BLAS at one thread, each row's bits
    equal one unblocked pass's."""
    blocks, lo = [], 0
    while lo < n:
        hi = lo + block_rows if n - lo > block_rows + 1 else n
        blocks.append(slice(lo, hi))
        lo = hi
    return blocks


_ITEM = threading.local()  # .running: this thread is in a _fan_out item


def _fan_out(work, items, n_items: int) -> None:
    """``work(item)`` for each of the ``n_items`` items that the iterable
    ``items`` yields, on this thread and, while OpenBLAS runs one
    thread, up to ``FORWARD_THREADS - 1`` helpers started for the call
    (numpy releases the GIL inside its loops and products).  This thread
    puts each item on a queue as ``items`` yields it, so the helpers
    start on the first items while later ones are still being computed,
    and then takes items off the queue itself until it is empty.  The
    helpers are joined before the call returns, and a helper's exception
    is raised here; once any thread has failed, no thread starts another
    item.  Without helpers, this thread runs each item as ``items``
    yields it, before asking for the next.

    A ``_fan_out`` called inside an item starts no helpers: the items
    of the outer call already share the cores.  So ``reproduce-table``
    trains its cells on every core, and each cell's forwards and
    backwards run on the thread that took the cell.  On a 2-vCPU host,
    the ten trainings of the benchmark's ``heston-table`` (500 paths, 2
    epochs each) took 0.147 s this way, with the tiled forward and the
    in-place ERM chain, against 0.218 s one after another, before
    those, with each forward and backward on both cores (medians of 12
    runs in 4 alternated rounds).

    When BLAS runs more than one thread, this thread runs every item
    itself: helpers would contend with BLAS's own threads for the
    cores.  On a 2-vCPU host at two BLAS threads, criterion 4's ERM
    training took 135-151 s with the backward's products on a helper
    and 57 s without, and a 10 000-path, 3-epoch ERM ``train`` took
    1.34-1.66 s with the forwards' helpers and 1.29-1.33 s without (5
    alternated runs each).

    ``queue`` is imported on first use, so a subcommand that runs no
    policy (``gen-paths``, ``stats``) does not pay the 1 ms it adds to
    ``import hedgelab.cli``."""
    nested = getattr(_ITEM, "running", False)

    def run(item):
        _ITEM.running = True
        try:
            work(item)
        finally:
            _ITEM.running = nested

    threads = (1 if nested or _blas_threads() != 1
               else min(FORWARD_THREADS, n_items))
    if threads < 2:
        for item in items:
            run(item)
        return
    import queue

    todo, errors, helpers = queue.SimpleQueue(), [], []

    def drain():
        for item in iter(todo.get, None):
            if not errors:
                try:
                    run(item)
                except BaseException as exc:  # raised below, after the joins
                    errors.append(exc)

    try:
        for _ in range(threads - 1):
            helper = threading.Thread(target=drain)
            helper.start()
            helpers.append(helper)
        for item in items:
            if errors:
                break
            todo.put(item)
    except BaseException as exc:  # raised below, after the joins
        errors.append(exc)
    for _ in range(len(helpers) + 1):
        todo.put(None)  # one end mark per draining thread
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


class Adam:
    def __init__(self, params, lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads) -> None:
        """Update each parameter in place from its gradient in ``grads``."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v,
                              strict=True):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def get_state(self):
        return self.t, [m.copy() for m in self.m], [v.copy() for v in self.v]

    def set_state(self, state) -> None:
        self.t, ms, vs = state[0], state[1], state[2]
        self.m = [m.copy() for m in ms]
        self.v = [v.copy() for v in vs]


@dataclass
class TrainReport:
    val_prices: list = field(default_factory=list)   # one per epoch (nan: aborted)
    train_losses: list = field(default_factory=list)
    best_epoch: int = -1
    best_price: float = float("nan")
    diagnostics: list = field(default_factory=list)


def minibatch_loss(policy: MlpPolicy, feats: np.ndarray, paths: np.ndarray,
                   payoffs: np.ndarray, measure: RiskMeasure,
                   cost_rate: float, arrays: list | None = None) -> Tensor:
    """Training loss -u(PL) of one minibatch, with its gradient.

    feats: (B, n, width) policy features, paths: (B, n+1) prices,
    payoffs: (B,); ``arrays``: the policy forward's cache arrays to
    refill (see ``MlpPolicy.__call__``).  The gradient runs back through
    the risk measure and the PL in closed form, then through
    ``MlpPolicy._backward``.  Each step is the product or sum that
    reverse-mode differentiation of the loss composed from elementary
    nodes performs, in the same order, so the loss and the gradients
    equal that graph's bit for bit.  Hence the ERM mean is
    ``sum * (1/m)``, not ``np.mean``.
    """
    b, n, width = feats.shape
    deltas, policy_backward = policy(feats.reshape(-1, width), arrays)
    deltas = deltas.reshape(b, n)
    pl, _, _ = pl_core(paths, deltas, payoffs, cost_rate)
    m = pl.size
    if measure.kind == ERM:
        lam = measure.lam
        y = pl * (-lam)
        shift = float(np.max(y))
        e = np.exp(y - shift)
        mean = e.sum() * (1.0 / m)
        loss = -((np.log(mean) + shift) * (-1.0 / lam))
    else:
        tail = cvar_tail(pl, measure.alpha)
        loss = -(pl[tail].sum() * (1.0 / tail.size))

    def grads():
        if measure.kind == ERM:
            g_pl = -1.0 * (-1.0 / lam) / mean * (1.0 / m) * e * (-lam)
        else:
            g_pl = np.zeros(m)
            g_pl[tail] = -1.0 * (1.0 / tail.size)
        # trading gain: sum_i delta_i * (S_{i+1} - S_i)
        g = g_pl[:, None] * (paths[:, 1:] - paths[:, :-1])
        if cost_rate != 0.0:
            # cost: c * sum_i S_i * |changes_i|, with sign(0) = 0
            to_changes = position_change_matrix(n)
            changes = deltas @ to_changes.T
            g = g + ((-g_pl * cost_rate)[:, None] * paths
                     * np.sign(changes)) @ to_changes
        return policy_backward(g.reshape(-1))

    return Tensor(float(loss), grads)


def _price_features(policy: MlpPolicy, feats: np.ndarray, paths: np.ndarray,
                    payoffs: np.ndarray, measure: RiskMeasure,
                    cost_rate: float) -> float:
    """Indifference price of ``payoffs`` over ``paths`` hedged by
    ``policy``, from the paths' features ``feats`` (the blocked forward
    pass, then the PL)."""
    deltas = policy.forward_np(
        feats.reshape(-1, feats.shape[2])).reshape(paths.shape[0], -1)
    pl, _, _ = pl_core(paths, deltas, payoffs, cost_rate)
    return indifference_price(pl, measure)


def train(policy: MlpPolicy, paths: np.ndarray, spec: OptionSpec,
          measure: RiskMeasure, lr: float, epochs: int,
          minibatch: int = 256, seed: int = 0, cost_rate: float = 0.0,
          val_split: float = 0.2):
    """Minimize -u(PL) over paths with Adam; keep the best-epoch weights.

    Paths are split train/validation by index (last val_split fraction);
    every epoch reshuffles the training paths, and the objective tracked
    for model selection is the indifference price on the validation set
    (lower means the book needs less premium, i.e. hedges better).  An
    epoch's training loss is the mean of its minibatch losses.  A
    non-finite minibatch loss aborts the epoch, and a non-finite
    validation price discards it; both roll parameters and optimizer back
    to the last finite epoch.  Returns (policy, report) with the
    best-epoch parameters installed.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[0] < 1 or paths.shape[1] < 2:
        raise ValueError("paths must be (n_paths, n_steps+1) with n_steps >= 1")
    if not (0.0 <= val_split < 1.0):
        raise ValueError("val_split must lie in [0, 1)")
    if minibatch < 1:
        raise ValueError("minibatch must be >= 1")

    n = paths.shape[0]
    n_val = int(round(val_split * n))
    if n_val == 0 or n_val == n:
        train_paths = val_paths = paths  # too few paths to split; validate in-sample
    else:
        train_paths, val_paths = paths[:-n_val], paths[-n_val:]

    feats_tr = features_matrix(train_paths, spec)
    pay_tr = payoff_batch(spec, train_paths)

    report = TrainReport()
    if epochs == 0:
        return policy, report
    feats_val = features_matrix(val_paths, spec)
    pay_val = payoff_batch(spec, val_paths)

    opt = Adam(policy.params, lr)
    rng = np.random.default_rng(seed)
    n_tr = train_paths.shape[0]
    bs = min(minibatch, n_tr)

    best_state = policy.get_state()
    finite_state = policy.get_state()
    finite_opt = opt.get_state()
    # one forward cache for the whole training, refilled by every
    # minibatch (a shorter last one fills a row prefix); each loss's
    # gradient is taken before the next forward
    steps = feats_tr.shape[1]
    arrays = _training_arrays(bs * steps)

    for epoch in range(epochs):
        order = rng.permutation(n_tr)
        losses = []
        fault = ""
        for lo in range(0, n_tr, bs):
            idx = order[lo:lo + bs]
            loss = minibatch_loss(policy, feats_tr[idx], train_paths[idx],
                                  pay_tr[idx], measure, cost_rate,
                                  [a[:idx.size * steps] for a in arrays])
            if not np.isfinite(loss.value):
                fault = "loss"
                break
            opt.step(loss.backward())
            losses.append(loss.value)
        if not fault:
            val_price = _price_features(policy, feats_val, val_paths,
                                        pay_val, measure, cost_rate)
            if not np.isfinite(val_price):
                fault = "evaluation"
        if fault:
            policy.set_state(finite_state)
            opt.set_state(finite_opt)
            report.diagnostics.append(
                f"epoch {epoch}: non-finite {fault}, rolled back")
            report.val_prices.append(float("nan"))
            report.train_losses.append(float("nan"))
            continue

        report.val_prices.append(val_price)
        report.train_losses.append(float(np.mean(losses)))
        finite_state = policy.get_state()
        finite_opt = opt.get_state()
        if report.best_epoch < 0 or val_price < report.best_price:
            report.best_epoch = epoch
            report.best_price = val_price
            best_state = policy.get_state()

    policy.set_state(best_state)
    return policy, report


def save_policy(policy: MlpPolicy, path, *, option: dict, cost_rate: float,
                generator: str, config_hash: str = "") -> None:
    """Versioned npz checkpoint; its metadata records what the policy was
    trained to hedge: the option section, the cost rate, the generator."""
    meta = json.dumps({"version": CHECKPOINT_VERSION,
                       "in_width": policy.in_width,
                       "config_hash": config_hash, "option": option,
                       "cost_rate": cost_rate, "generator": generator})
    arrays = {f"p{i}": p for i, p in enumerate(policy.params)}
    np.savez(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8), **arrays)


def load_policy(path):
    """Returns (policy, metadata dict)."""
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["meta"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        policy = MlpPolicy(meta["in_width"])
        policy.set_state([blob[f"p{i}"] for i in range(len(policy.params))])
    return policy, meta


def write_report_csv(report: TrainReport, path) -> None:
    """epoch,val_price rows for external plotting."""
    with open(path, "w", newline="") as fh:
        fh.write("epoch,val_price\n")
        for i, vp in enumerate(report.val_prices):
            fh.write(f"{i},{repr(vp)}\n")
