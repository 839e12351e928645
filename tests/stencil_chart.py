"""A chart differentiated by stencils: the tests' oracle for maps without a closed form.

The package's charts are all spread charts with closed-form derivatives;
``FunctionChart`` wraps any map (N, dim) -> (N, ambient_dim) instead, and
differentiates it by the 4th-order central stencils of ``momentangle.fd``.
"""

from __future__ import annotations

import numpy as np

from momentangle import fd

STEP = 1e-3  # the stencil step of every derivative


class AssembledHessian:
    """An assembled hessian H (N, m, d, d) in the form an order-2 jet keeps its second
    derivatives: it slices by points, and ``trace(gi)`` is sum g^ab H_ab (N, 2m), real
    parts first, as stacked per-point products."""

    def __init__(self, H: np.ndarray):
        self.H = H

    def __getitem__(self, s: slice) -> AssembledHessian:
        return AssembledHessian(self.H[s])

    def trace(self, gi: np.ndarray) -> np.ndarray:
        n, d = gi.shape[:2]
        real = np.concatenate([self.H.real, self.H.imag], axis=1).reshape(n, -1, d * d)
        return (real @ gi.reshape(n, d * d, 1))[..., 0]


class FunctionChart:
    """The chart of ``fn``: its jacobian and hessian are stencils of ``value`` at
    ``STEP``. ``jet`` gives them together, as a sample holds them."""

    def __init__(self, fn, dim: int, ambient_dim: int):
        self.fn = fn
        self.dim = dim
        self.ambient_dim = ambient_dim

    def value(self, S: np.ndarray) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(S, dtype=float)))

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        return fd.jacobian(self.value, S, STEP)

    def hessian(self, S: np.ndarray) -> np.ndarray:
        return fd.hessian(self.value, S, STEP)

    def jet(self, S: np.ndarray, order: int) -> tuple:
        """(value, jacobian[, hessian]) through ``order``, each from its own stencil; the
        hessian as an ``AssembledHessian``."""
        jet = tuple(f(S) for f in (self.value, self.jacobian)[: order + 1])
        return jet + (AssembledHessian(self.hessian(S)),) if order == 2 else jet
