"""Tensor Gauss-Legendre grids on boxes and smooth bump weights."""

from __future__ import annotations

import numpy as np


def gauss_legendre_1d(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def tensor_grid(lo, hi, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Product Gauss-Legendre rule on the box [lo, hi]; returns (points, weights).

    ``nodes`` is an int or a per-axis sequence.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = lo.size
    if np.isscalar(nodes) or isinstance(nodes, (int, np.integer)):
        nodes = [int(nodes)] * d
    axes = [gauss_legendre_1d(lo[a], hi[a], nodes[a]) for a in range(d)]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    S = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    W = np.ones(S.shape[0])
    for wg in wgrids:
        W = W * wg.reshape(-1)
    return S, W


def bump_profile(t: np.ndarray) -> np.ndarray:
    """C-infinity profile: 1 at 0, identically 0 outside (-1, 1)."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    tt = np.where(inside, t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(1.0 - 1.0 / (1.0 - tt * tt))
    out[inside] = vals[inside]
    return out


def bump_poly(t: np.ndarray, power: int = 4) -> np.ndarray:
    """Polynomial cutoff (1 - t^2)^power on (-1, 1), 0 outside.

    Only C^{power-1} at the edge, but with polynomially bounded derivatives,
    so Gauss-Legendre rules resolve it at far lower node counts than the
    exponential profile; used where a localizer sits inside a quadrature.
    """
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, (1.0 - np.minimum(t * t, 1.0)) ** power, 0.0)


def bump_poly_dsq(t: np.ndarray) -> np.ndarray:
    """Derivative of ``bump_poly(t)`` (power 4) with respect to t^2: -4 (1 - t^2)^3.

    Zero outside (-1, 1). By the chain rule d/dt bump_poly = 2 t * this, and a
    radial cutoff bump_poly(|x - x0| / rho) has gradient
    2 (x - x0) / rho^2 * this, with no division by |x - x0|.
    """
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, -4.0 * (1.0 - np.minimum(t * t, 1.0)) ** 3, 0.0)


def box_bump(S: np.ndarray, lo, hi, axes=None) -> np.ndarray:
    """Product bump in the selected axes, constant 1 in the others."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if axes is None:
        axes = range(lo.size)
    out = np.ones(S.shape[0])
    for a in axes:
        t = 2.0 * (S[:, a] - lo[a]) / (hi[a] - lo[a]) - 1.0
        out = out * bump_profile(t)
    return out
