"""Hedging policy network, Adam, and the training loop minimizing -u(PL).

The policy is one shared 4-affine-layer MLP (3 hidden width-32 blocks of
affine -> layer norm -> ReLU, then a linear head) applied at every
hedging step; time-to-maturity rides in as a feature, so step-batching
collapses into a single matmul per layer.  The final layer starts at
zero: epoch 0 is exactly the unhedged position, which keeps tail-based
measures (CVaR) from thrashing during warm-up.

The forward pass is written once, ``MlpPolicy._forward``.  Pricing calls
it over fixed row blocks (``forward_np``); training calls it through
``__call__``, which adds one autodiff node whose backward is the
hand-derived MLP gradient, so the rest of the loss (PL, risk measure)
stays on the graph.  That backward works only on the rows whose
position gradient is non-zero (under CVaR, the tail paths' rows) and
keeps its matrix products at the full batch shape, so its bits equal a
dense pass's.

``policy_price`` is the one graph-free pricing pass (features -> policy
-> PL -> indifference price), shared by training's validation and every
caller that prices a trained policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .hedge_core import features_matrix, pl_core
from .instruments import OptionSpec, payoff_batch
from .risk import RiskMeasure, indifference_price, utility

__all__ = ["MlpPolicy", "Adam", "TrainReport", "gradients", "policy_price",
           "train", "save_policy", "load_policy", "write_report_csv"]

HIDDEN_WIDTH = 32
LN_EPS = 1e-5
# Rows per ``forward_np`` block.  A block's (rows, 32) float64
# intermediates (256 KiB each) stay in a 2 MiB L2 cache, where a whole
# pricing batch's do not.  On a 2-vCPU Xeon at one BLAS thread, 60 000
# rows took 69 ms in 1024-row blocks, 72-74 ms in 512- or 2048-row
# blocks, 104 ms in 4096-row blocks and 129 ms unblocked.  A multiple of
# 8, so every block starts on the row boundaries of BLAS's unrolled
# kernels, as in one unblocked call.
FORWARD_BLOCK_ROWS = 1024
CHECKPOINT_VERSION = 1


class MlpPolicy:
    """Width-32 MLP mapping a per-step feature row to one position."""

    def __init__(self, in_width: int, seed: int = 0):
        if in_width < 1:
            raise ValueError("in_width must be >= 1")
        self.in_width = in_width
        rng = np.random.default_rng(seed)
        w = HIDDEN_WIDTH

        def affine(fan_in, fan_out):
            bound = np.sqrt(6.0 / fan_in)
            return (Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)),
                           requires_grad=True),
                    Tensor(np.zeros(fan_out), requires_grad=True))

        self.params = []
        self._layers = []
        fan = in_width
        for _ in range(3):
            wt, bt = affine(fan, w)
            gain = Tensor(np.ones(w), requires_grad=True)
            bias = Tensor(np.zeros(w), requires_grad=True)
            self._layers.append((wt, bt, gain, bias))
            self.params += [wt, bt, gain, bias]
            fan = w
        # zero head: the untrained policy holds no position
        head_w = Tensor(np.zeros((w, 1)), requires_grad=True)
        head_b = Tensor(np.zeros(1), requires_grad=True)
        self._layers.append((head_w, head_b))
        self.params += [head_w, head_b]

    def _forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        """Positions for a (batch, in_width) feature array.

        With ``cache`` it appends, per hidden block, the block's input,
        the centered pre-activation, the row std, the normalized
        activations and the ReLU mask, then the head's input: what
        ``_backward`` needs.  Without it, each intermediate is rebound as
        soon as the next exists and the biases are added in place, so one
        ``forward_np`` block holds at most three (block, 32) float arrays
        at a time.
        """
        if x.ndim != 2 or x.shape[1] != self.in_width:
            raise ValueError(
                f"expected (batch, {self.in_width}) features, got {x.shape}")

        def keep(*arrays):
            if cache is not None:
                cache.extend(arrays)

        h = x
        for wt, bt, gain, bias in self._layers[:-1]:
            keep(h)
            h = h @ wt.data
            h += bt.data
            centered = h - h.mean(axis=1, keepdims=True)
            sd = np.sqrt((centered * centered).mean(axis=1, keepdims=True)
                         + LN_EPS)
            h = centered / sd
            keep(centered, sd, h)
            h = h * gain.data
            h += bias.data
            mask = h > 0.0  # relu'(0) = 0
            h *= mask
            keep(mask)
        keep(h)
        head_w, head_b = self._layers[-1]
        return (h @ head_w.data + head_b.data).reshape(-1)

    def _backward(self, g: np.ndarray, cache: list) -> list:
        """Gradient of each parameter, in ``params`` order, given the
        gradient ``g`` of the positions ``_forward`` cached.

        Head, then 3 x (ReLU mask -> layer norm -> affine) in reverse.
        Each step is the product or sum that reverse-mode differentiation
        of the forward composed from elementary autodiff nodes performs,
        in the same order (the centered activations collect their
        division term before their two square terms), so the gradients
        equal that graph's bit for bit.

        A row whose position gradient is zero stays zero through every
        block, so the elementwise steps, row sums and axis-0 sums run on
        the non-zero rows only (under CVaR, the tail paths' rows).  A
        zero row adds only signed zeros, and numpy's sums start from +0,
        so the sums keep their bits.  (A non-finite activation in a zero
        row would have made them NaN; it reaches the head's input, so
        the dense head gradient is NaN either way.)  The matrix products
        do not keep their bits: OpenBLAS picks its kernel by shape, so
        they keep the full ``(n, .)`` shape, on the gathered rows
        scattered into zeros, and the head stays dense.  When every row
        is non-zero nothing is gathered.
        """
        inv_w = 1.0 / HIDDEN_WIDTH
        head_w, _ = self._layers[-1]
        g = g.reshape(-1, 1)
        n = g.shape[0]
        grads = [cache[-1].T @ g, g.sum(axis=0)]
        nonzero = np.flatnonzero(g)
        sparse = nonzero.size < n
        rows = nonzero if sparse else slice(None)
        g = (g @ head_w.data.T)[rows]
        for k in (2, 1, 0):
            wt, _, gain, _ = self._layers[k]
            h = cache[5 * k]
            centered, sd, q, mask = (a[rows]
                                     for a in cache[5 * k + 1:5 * k + 5])
            g = g * mask
            d_gain = (g * q).sum(axis=0)
            d_bias = g.sum(axis=0)
            g = g * gain.data
            d_sd = (-g * centered / (sd * sd)).sum(axis=1, keepdims=True)
            # back through the sqrt and the variance's row mean
            d_sq = d_sd * 0.5 / sd * inv_w
            g = g / sd + d_sq * centered + d_sq * centered
            # back through the centering: subtract the row mean
            g = g + -g.sum(axis=1, keepdims=True) * inv_w
            full = g
            if sparse:
                full = np.zeros((n, HIDDEN_WIDTH))
                full[rows] = g
            grads = [h.T @ full, g.sum(axis=0), d_gain, d_bias] + grads
            if k:
                g = (full @ wt.data.T)[rows]
        return grads

    def __call__(self, x: np.ndarray) -> Tensor:
        """Positions as one graph node whose parents are the parameters;
        x is (batch, in_width)."""
        cache = []
        out = self._forward(x, cache)

        def backward(g):
            for p, grad in zip(self.params, self._backward(g, cache)):
                p._accumulate(grad)

        return Tensor._node(out, tuple(self.params), backward)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Positions for a (batch, in_width) array, without a graph.

        Rows are independent, so ``_forward`` runs over blocks of
        ``FORWARD_BLOCK_ROWS`` rows, each written into one preallocated
        output.  A single row left after the last full block joins that
        block instead: numpy multiplies a one-row matrix with a
        matrix-vector kernel, which sums in another order than the
        matrix-matrix kernel of a longer block.  With BLAS at one thread
        the bits therefore equal one unblocked ``_forward`` call's.
        """
        if x.ndim != 2 or x.shape[1] != self.in_width:
            raise ValueError(
                f"expected (batch, {self.in_width}) features, got {x.shape}")
        n, b = x.shape[0], FORWARD_BLOCK_ROWS
        out = np.empty(n)
        lo = 0
        while lo < n:
            hi = lo + b if n - lo > b + 1 else n
            out[lo:hi] = self._forward(x[lo:hi])
            lo = hi
        return out

    def get_state(self) -> list:
        return [p.data.copy() for p in self.params]

    def set_state(self, state) -> None:
        if len(state) != len(self.params):
            raise ValueError("state length mismatch")
        for p, arr in zip(self.params, state):
            if p.data.shape != arr.shape:
                raise ValueError("state shape mismatch")
            p.data = np.asarray(arr, dtype=float)


def gradients(loss: Tensor, params) -> list:
    """Reverse-mode dloss/dp for each parameter; loss must be scalar."""
    for p in params:
        p.grad = None
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in params]


class Adam:
    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

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


def policy_price(policy: MlpPolicy, paths: np.ndarray, spec: OptionSpec,
                 measure: RiskMeasure, cost_rate: float = 0.0) -> float:
    """Indifference price of ``spec`` hedged by ``policy`` over ``paths``,
    evaluated without building a graph."""
    feats = features_matrix(paths, spec)
    deltas = policy.forward_np(
        feats.reshape(-1, feats.shape[2])).reshape(paths.shape[0], -1)
    pl, _, _ = pl_core(paths, deltas, payoff_batch(spec, paths), cost_rate)
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

    opt = Adam(policy.params, lr)
    rng = np.random.default_rng(seed)
    n_tr = train_paths.shape[0]
    bs = min(minibatch, n_tr)

    best_state = policy.get_state()
    finite_state = policy.get_state()
    finite_opt = opt.get_state()

    for epoch in range(epochs):
        order = rng.permutation(n_tr)
        losses = []
        fault = ""
        for lo in range(0, n_tr, bs):
            idx = order[lo:lo + bs]
            # ``loss`` keeps this minibatch's graph alive until the next
            # one is built; freeing it here instead lets the allocator
            # hand the pages back and fault them in again every step
            deltas = policy(feats_tr[idx].reshape(-1, feats_tr.shape[2]))
            pl, _, _ = pl_core(train_paths[idx],
                               deltas.reshape(idx.size, -1), pay_tr[idx],
                               cost_rate)
            loss = -utility(pl, measure)
            if not np.isfinite(loss.data):
                fault = "loss"
                break
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        del deltas, pl, loss  # the validation pass reuses the graph's memory
        if not fault:
            val_price = policy_price(policy, val_paths, spec, measure,
                                     cost_rate)
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


def save_policy(policy: MlpPolicy, path, config_hash: str = "") -> None:
    """Versioned npz checkpoint with embedded metadata."""
    meta = json.dumps({"version": CHECKPOINT_VERSION,
                       "in_width": policy.in_width,
                       "config_hash": config_hash})
    arrays = {f"p{i}": p.data for i, p in enumerate(policy.params)}
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
