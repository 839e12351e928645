"""Tensor quadrature grids on boxes: the trapezoid rule on periodic axes,
Gauss-Legendre on the others.

A variational check integrates over the whole of N on a global chart. Its
azimuths and phases are periodic, where the trapezoid rule converges
geometrically in the node count (exactly, on trigonometric polynomials of
degree below it); its polar angles are not, and take Gauss-Legendre, whose
nodes avoid the poles where the chart degenerates.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_1d(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_rule(int(n))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def trapezoid_1d(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point trapezoid rule of the period [lo, hi): equal weights, the first node at lo."""
    width = hi - lo
    return lo + width * np.arange(n) / n, np.full(n, width / n)


def tensor_grid(lo, hi, nodes, periodic) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on the box [lo, hi]; returns (points, weights).

    ``nodes`` holds the node count of each axis. The axes in ``periodic``
    take the trapezoid rule over one period [lo, hi), the others
    Gauss-Legendre.
    """
    axes = [(trapezoid_1d if a in periodic else gauss_legendre_1d)(float(l), float(h), n)
            for a, (l, h, n) in enumerate(zip(lo, hi, nodes, strict=True))]
    S = np.stack([g.reshape(-1) for g in np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=-1)
    return S, functools.reduce(np.multiply.outer, [w for _, w in axes]).reshape(-1)
