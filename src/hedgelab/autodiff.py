"""The training loss of one minibatch, as the optimizer consumes it.

``neuralnet.minibatch_loss`` returns a ``Tensor``: the loss value and a
closure that returns the gradient of that loss with respect to each
policy parameter.  The gradient is written out in closed form; no graph
is recorded.  The class keeps the name of the reverse-mode engine it
replaced because the benchmark's tracer (``perfbench/trace.py``) binds
``hedgelab.autodiff.Tensor.backward`` by name and times each call as
the minibatch backward pass.
"""

from __future__ import annotations

__all__ = ["Tensor"]


class Tensor:
    """Scalar loss of one minibatch and the way back to its gradients."""

    __slots__ = ("value", "_grads")

    def __init__(self, value: float, grads):
        self.value = value
        self._grads = grads

    def backward(self) -> list:
        """Gradient of the loss for each parameter, in ``params`` order."""
        return self._grads()
