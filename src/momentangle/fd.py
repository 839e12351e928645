"""Batched 4th-order central finite-difference stencils.

All functions accept maps f : (N, d) -> (N, *out) so that the caller's
vectorization (e.g. a chart over a batch of points) is exploited: every stencil point of
every batch element goes through ``f`` in a single call.
"""

from __future__ import annotations

import numpy as np

# (offsets in steps, weights) of the first and second derivative
_D1 = ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0))
_D2 = ((-2, -1, 0, 1, 2), (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0))


def jacobian(f, S, step: float) -> np.ndarray:
    """First derivatives of f at the rows of S; result shape (N, *out, d)."""
    S = np.asarray(S, dtype=float)
    single = S.ndim == 1
    if single:
        S = S[None, :]
    N, d = S.shape
    offs, wts = _D1
    pts = []
    for a in range(d):
        for o in offs:
            P = S.copy()
            P[:, a] += o * step
            pts.append(P)
    vals = np.asarray(f(np.concatenate(pts, axis=0)))
    out_shape = vals.shape[1:]
    vals = vals.reshape(d, len(offs), N, *out_shape)
    wts_arr = np.asarray(wts).reshape(1, len(offs), *([1] * (vals.ndim - 2)))
    deriv = (vals * wts_arr).sum(axis=1) / step  # (d, N, *out)
    # C order, so a point's derivative has the same memory layout in any
    # batch, and so does everything computed from it
    J = np.ascontiguousarray(np.moveaxis(deriv, 0, -1))  # (N, *out, d)
    return J[0] if single else J


def hessian(f, S, step: float) -> np.ndarray:
    """Second derivatives of f at the rows of S; result shape (N, *out, d, d)."""
    S = np.asarray(S, dtype=float)
    single = S.ndim == 1
    if single:
        S = S[None, :]
    N, d = S.shape
    offs2, wts2 = _D2
    offs1, wts1 = _D1

    pts = []
    layout = []  # (kind, a, b, n_points)
    for a in range(d):
        for o in offs2:
            P = S.copy()
            P[:, a] += o * step
            pts.append(P)
        layout.append(("diag", a, a, len(offs2)))
    for a in range(d):
        for b in range(a + 1, d):
            for o1 in offs1:
                for o2 in offs1:
                    P = S.copy()
                    P[:, a] += o1 * step
                    P[:, b] += o2 * step
                    pts.append(P)
            layout.append(("mixed", a, b, len(offs1) ** 2))
    vals = np.asarray(f(np.concatenate(pts, axis=0)))
    out_shape = vals.shape[1:]
    H = np.zeros((N, *out_shape, d, d), dtype=vals.dtype)
    cursor = 0
    for kind, a, b, count in layout:
        chunk = vals[cursor * N : (cursor + count) * N].reshape(count, N, *out_shape)
        cursor += count
        if kind == "diag":
            w = np.asarray(wts2).reshape(count, *([1] * (chunk.ndim - 1)))
            H[..., a, a] = (chunk * w).sum(axis=0) / step**2
        else:
            w = np.outer(wts1, wts1).reshape(count, *([1] * (chunk.ndim - 1)))
            val = (chunk * w).sum(axis=0) / step**2
            H[..., a, b] = val
            H[..., b, a] = val
    return H[0] if single else H

