"""A chart differentiated by stencils: the tests' oracle for maps without a closed form.

The package's charts are all spread charts with closed-form derivatives;
``FunctionChart`` wraps any map (N, dim) -> (N, ambient_dim) instead, and
differentiates it by the 4th-order central stencils of ``momentangle.fd``.
"""

from __future__ import annotations

import numpy as np

from momentangle import fd

STEP = 1e-3  # the stencil step of every derivative


class FunctionChart:
    """The chart of ``fn``: its jacobian and hessian are stencils of ``value`` at
    ``STEP``, and its third derivative a stencil of the hessian. ``jet`` gives
    them together, as a sample holds them."""

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

    def third(self, S: np.ndarray) -> np.ndarray:
        """Third derivatives (N, m, d, d, d); the last axis differentiates the hessian."""
        return fd.jacobian(self.hessian, S, STEP)

    def jet(self, S: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """(value, jacobian, ...) through ``order``, each from its own stencil."""
        return tuple(f(S) for f in (self.value, self.jacobian, self.hessian, self.third)[: order + 1])
