"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

A ``Tensor`` wraps a float64 ``numpy.ndarray`` together with a gradient
buffer and a backward closure.  The engine carries the training loss
from the policy's positions onward (profit and loss -> risk measure) as
one differentiable graph; the policy network itself enters as a single
node built by ``MlpPolicy.__call__``, whose backward is hand-derived and
hands each parameter its gradient through ``_accumulate``.

Module-level helpers (``exp``, ``log``, ``mean``, ``data_of``) dispatch
on the argument type so the same formula can run on plain arrays
(pricing) or on tensors (training).

Conventions fixed here and asserted by tests:
  * d|x|/dx at 0 = 0  (sign(0) = 0)
  * ``backward()`` is only defined for scalar roots.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "exp", "log", "mean", "data_of"]


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense float64 tensor node of a reverse-mode computation graph."""

    # numpy must not swallow us in mixed expressions; reflected ops run instead
    __array_ufunc__ = None
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    @classmethod
    def _node(cls, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else _as_array(g)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar root, filling ``grad`` on the graph."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar root node")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    # -- elementwise arithmetic (broadcasting) ------------------------------

    def __add__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + o.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if o.requires_grad:
                o._accumulate(_unbroadcast(g, o.data.shape))

        return Tensor._node(out_data, (self, o), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._node(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else Tensor(-_as_array(other)))

    def __mul__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * o.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * o.data, self.data.shape))
            if o.requires_grad:
                o._accumulate(_unbroadcast(g * self.data, o.data.shape))

        return Tensor._node(out_data, (self, o), bw)

    __rmul__ = __mul__

    def __matmul__(self, other):
        o = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ o.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(g @ o.data.T)
            if o.requires_grad:
                o._accumulate(self.data.T @ g)

        return Tensor._node(out_data, (self, o), bw)

    def __abs__(self):
        out_data = np.abs(self.data)
        sign = np.sign(self.data)  # sign(0) = 0: fixed subgradient at the kink

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * sign)

        return Tensor._node(out_data, (self,), bw)

    # -- nonlinearities ------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._node(out_data, (self,), bw)

    def log(self):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._node(np.log(self.data), (self,), bw)

    # -- reductions and shape ops --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            gg = g if keepdims else np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(gg, self.data.shape).copy())

        return Tensor._node(out_data, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape

        def bw(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._node(self.data.reshape(shape), (self,), bw)

    def take_rows(self, indices: np.ndarray):
        """Gather rows along axis 0; gradients flow back to the picked rows."""
        idx = np.asarray(indices)
        out_data = self.data[idx]

        def bw(g):
            if self.requires_grad:
                buf = np.zeros_like(self.data)
                np.add.at(buf, idx, g)
                self._accumulate(buf)

        return Tensor._node(out_data, (self,), bw)


def data_of(x) -> np.ndarray:
    """Raw ndarray view of either a Tensor or an array-like."""
    return x.data if isinstance(x, Tensor) else _as_array(x)


def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Tensor) else np.log(x)


def mean(x, axis=None):
    return x.mean(axis=axis) if isinstance(x, Tensor) else _as_array(x).mean(axis=axis)
