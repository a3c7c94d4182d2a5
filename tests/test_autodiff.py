"""Gradient correctness of the reference reverse-mode engine.

The engine (tests/_reference.py) is the oracle that the closed-form
training gradient is checked against, so it is checked itself: every op
gets a central finite-difference check, and the fixed subgradient
conventions (relu'(0) = 0, d|x|/dx|_0 = 0) are asserted exactly, since
the hedging loss sits right on those kinks whenever a position does not
move.  relu, sqrt and div are the nodes of the reference policy graph,
checked here like the engine's own.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _reference import Tensor, data_of, div, exp, log, mean, relu, sqrt


def _fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f(x)
        flat[i] = old - h
        dn = f(x)
        flat[i] = old
        gf[i] = (up - dn) / (2.0 * h)
    return g


def _check(build, x0: np.ndarray, rtol: float = 1e-6) -> None:
    """build(tensor) -> scalar Tensor; compares backward() to FD."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    fd = _fd_grad(lambda arr: float(build(Tensor(arr)).data), x0)
    np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=1e-8)


def test_square_at_three():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    y.backward()
    assert float(y.data) == 9.0
    assert float(x.grad) == pytest.approx(6.0, abs=1e-12)


def test_arithmetic_chain_matches_fd():
    x0 = np.array([[0.5, -1.2, 2.0], [0.1, 0.9, -0.4]])
    _check(lambda t: (div(t * 2.0 + 1.0, t * t + 3.0) - t).sum(), x0)


def test_reflected_ops_against_plain_arrays():
    # numpy must not consume the Tensor: __array_ufunc__ = None forces
    # the reflected path, keeping the graph alive through mixed math
    a = np.array([1.0, 2.0])
    t = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    out = a * (a + t) - div(a, t)
    assert isinstance(out, Tensor)
    out.sum().backward()
    # d/dt [ (a+t)a - a/t ] = a + a/t^2
    np.testing.assert_allclose(t.grad, a + a / np.array([9.0, 16.0]))


def test_matmul_grads():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    out = (a @ b).sum()
    out.backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b0.T)
    np.testing.assert_allclose(b.grad, a0.T @ np.ones((3, 2)))


def test_exp_log_sqrt_chain():
    x0 = np.array([0.3, 1.7, 2.5])
    _check(lambda t: (sqrt(t.exp().log()) * t).sum(), x0)


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    relu(x).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_abs_subgradient_zero_at_kink():
    x = Tensor(np.array([-3.0, 0.0, 0.5]), requires_grad=True)
    abs(x).sum().backward()
    np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])


def test_broadcasting_unbroadcasts_gradients():
    a = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)  # row-broadcast
    c = Tensor(np.array([[2.0]]), requires_grad=True)          # full broadcast
    out = (a * b + c).sum()
    out.backward()
    assert a.grad.shape == (4, 3)
    np.testing.assert_allclose(b.grad, np.full(3, 4.0))
    np.testing.assert_allclose(c.grad, np.array([[12.0]]))


def test_sum_axis_keepdims_grads():
    x0 = np.arange(12.0).reshape(3, 4) / 7.0
    _check(lambda t: (t.sum(axis=0) * np.arange(4.0)).sum(), x0)
    _check(lambda t: (t.sum(axis=1, keepdims=True) * 2.0).sum(), x0)
    _check(lambda t: t.mean(axis=1).sum(), x0)


def test_reshape_roundtrip_grad():
    x0 = np.arange(6.0).reshape(2, 3)
    _check(lambda t: (t.reshape(3, 2) * np.arange(6.0).reshape(3, 2)).sum(), x0)


def test_take_rows_accumulates_duplicate_indices():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
    picked = x.take_rows(np.array([0, 0, 2]))
    picked.sum().backward()
    np.testing.assert_array_equal(x.grad, [[2.0], [0.0], [1.0]])


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_reused_node_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = x * x + x  # x appears three times in the graph
    y.backward()
    assert float(x.grad) == pytest.approx(5.0)


def test_dispatch_helpers_cover_both_paths():
    arr = np.array([0.5, 1.5])
    t = Tensor(arr, requires_grad=True)
    for fn, ref in [(exp, np.exp), (log, np.log)]:
        np.testing.assert_allclose(fn(arr), ref(arr))
        np.testing.assert_allclose(fn(t).data, ref(arr))
    assert float(mean(arr)) == pytest.approx(1.0)
    assert isinstance(mean(t), Tensor)
    np.testing.assert_array_equal(data_of(t), arr)
    np.testing.assert_array_equal(data_of(arr), arr)


@given(st.integers(0, 2 ** 31 - 1))
def test_random_expression_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.2, 2.0, size=(3, 3))  # positive: log/sqrt safe
    w = rng.normal(size=(3, 3))

    def build(t):
        h = relu(t @ w) + sqrt(t)
        return (h * h).mean() + abs(t - 1.0).sum() * 0.1 + t.exp().log().sum()

    _check(build, x0, rtol=1e-5)
