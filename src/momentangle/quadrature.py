"""Tensor Gauss-Legendre grids on boxes and smooth bump weights."""

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


def bump_profile_derivative(t: np.ndarray) -> np.ndarray:
    """d/dt of ``bump_profile``: -2 t / (1 - t^2)^2 times the profile, 0 outside."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    tt = t[inside]
    out[inside] = bump_profile(tt) * (-2.0 * tt / (1.0 - tt * tt) ** 2)
    return out


def bump_poly(t: np.ndarray) -> np.ndarray:
    """Polynomial cutoff (1 - t^2)^4 on (-1, 1), 0 outside.

    Only C^3 at the edge, but with polynomially bounded derivatives,
    so Gauss-Legendre rules resolve it at far lower node counts than the
    exponential profile; used where a localizer sits inside a quadrature.
    """
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, (1.0 - np.minimum(t * t, 1.0)) ** 4, 0.0)


def bump_poly_dsq(t: np.ndarray) -> np.ndarray:
    """Derivative of ``bump_poly(t)`` with respect to t^2: -4 (1 - t^2)^3.

    Zero outside (-1, 1). By the chain rule d/dt bump_poly = 2 t * this, and a
    radial cutoff bump_poly(|x - x0| / rho) has gradient
    2 (x - x0) / rho^2 * this, with no division by |x - x0|.
    """
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, -4.0 * (1.0 - np.minimum(t * t, 1.0)) ** 3, 0.0)


def bump_poly_dsq2(t: np.ndarray) -> np.ndarray:
    """Second derivative of ``bump_poly(t)`` with respect to t^2: 12 (1 - t^2)^2.

    Zero outside (-1, 1); the Hessian of a radial cutoff takes it with
    ``bump_poly_dsq`` through the chain rule in s = |x - x0|^2 / rho^2.
    """
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, 12.0 * (1.0 - np.minimum(t * t, 1.0)) ** 2, 0.0)


def _box_coordinates(S, lo, hi, axes) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray]:
    """S as (N, d), {axis: its coordinate rescaled from [lo, hi] to [-1, 1]}, and the box widths."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = range(lo.size) if axes is None else axes
    return S, {a: 2.0 * (S[:, a] - lo[a]) / (hi[a] - lo[a]) - 1.0 for a in axes}, hi - lo


def box_bump(S: np.ndarray, lo, hi, axes=None) -> np.ndarray:
    """Product bump in the selected axes, constant 1 in the others."""
    S, t, _ = _box_coordinates(S, lo, hi, axes)
    out = np.ones(S.shape[0])
    for ta in t.values():
        out = out * bump_profile(ta)
    return out


def box_bump_gradient(S: np.ndarray, lo, hi, axes=None) -> np.ndarray:
    """Gradient (N, d) of ``box_bump`` in S: the product rule over its factors."""
    S, t, width = _box_coordinates(S, lo, hi, axes)
    out = np.zeros_like(S)
    for a, ta in t.items():
        factor = (2.0 / width[a]) * bump_profile_derivative(ta)
        for b, tb in t.items():
            if b != a:
                factor = factor * bump_profile(tb)
        out[:, a] = factor
    return out
