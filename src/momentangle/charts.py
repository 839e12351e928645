"""Local parametrizations of quadric-built submanifolds and Newton retraction.

A chart maps parameter vectors to ambient points; derivatives come either
from closed forms (``PolytopeChart`` is exact through third order, and the
phase directions of torus-spread charts are exact) or from central finite
differences of the chart map itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import fd
from .quadric_config import QuadricConfiguration

TWO_PI = 2.0 * np.pi


class NonConvergenceError(RuntimeError):
    pass


def c2r(z: np.ndarray) -> np.ndarray:
    """View C^m as R^{2m}: real parts first, then imaginary parts."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def r2c(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    m = x.shape[-1] // 2
    return x[..., :m] + 1j * x[..., m:]


# ---------------------------------------------------------------------------
# Newton retraction onto the quadric set


def _newton(values, jac_gram, apply_step, U, c, tol, max_iter):
    """Newton steps on the batch U until every point's own residual is at most
    1e-14 * scale. A converged point takes zero steps from then on, which
    leave it bit-identical, so its result does not depend on its batch."""
    scale = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
    for _ in range(max_iter):
        F = values(U)
        moving = np.abs(F).max(axis=-1) > 1e-14 * scale
        if not np.any(moving):
            return U
        JJt = jac_gram(U)
        if JJt.shape[-1] == 1:
            # one quadric: the Gram system is a division
            gram = JJt[..., 0]
            if not np.all(gram):
                raise NonConvergenceError("singular constraint jacobian: zero Gram entry")
            lam = F / gram
        else:
            try:
                lam = np.linalg.solve(JJt, F[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError(f"singular constraint jacobian: {exc}") from exc
        U = apply_step(U, np.where(moving[..., None], lam, 0.0))
    F = values(U)
    res = float(np.max(np.abs(F))) if F.size else 0.0
    if res > tol:
        raise NonConvergenceError(f"Newton projection stalled at residual {res:.3e}")
    return U


def project_real(Q: QuadricConfiguration, U, tol: float = 1e-10, max_iter: int = 60) -> np.ndarray:
    """Least-norm Newton retraction of real points onto the real quadric set."""
    U = np.array(U, dtype=float, copy=True)
    if Q.num_quadrics == 0:
        return U
    G = Q.gamma_float()
    c = Q.c_float()

    # einsum, not matmul: its sums do not depend on the batch, so neither does a point's retraction
    def values(u):
        return np.einsum("jk,...k->...j", G, u * u) - c

    def jac_gram(u):
        return 4.0 * np.einsum("jk,lk,...k->...jl", G, G, u * u)

    def apply_step(u, lam):
        return u - 2.0 * np.einsum("jk,...j->...k", G, lam) * u

    return _newton(values, jac_gram, apply_step, U, c, tol, max_iter)


def real_tangent_basis(Q: QuadricConfiguration, u0: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent space of the real quadric set at u0."""
    m = Q.ambient_dim
    if Q.num_quadrics == 0:
        return np.eye(m)
    J = 2.0 * Q.gamma_float() * np.asarray(u0, dtype=float)[None, :]  # (k, m)
    full_q, _ = np.linalg.qr(J.T, mode="complete")  # (m, m)
    basis = full_q[:, Q.num_quadrics :].T
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.min() < 1e-10 * max(1.0, sv.max()):
        raise NonConvergenceError("degenerate constraint Jacobian at the base point")
    return basis


# ---------------------------------------------------------------------------
# charts


class Chart:
    """Parameter space -> ambient map with derivative hooks.

    ``ambient`` is "complex" (values in C^m) or "real" (values in R^D).
    Subclasses may override ``jacobian``/``hessian``/``third`` with exact
    formulas; the defaults differentiate ``value`` by 4th-order central
    stencils, and ``third`` differentiates ``hessian`` the same way.
    """

    dim: int
    ambient_dim: int
    ambient: str = "complex"

    def value(self, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        return fd.jacobian(self.value, S, step)

    def hessian(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        return fd.hessian(self.value, S, step)

    def third(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        """Third derivatives (N, m, d, d, d); the last axis differentiates the hessian."""
        return fd.jacobian(lambda Sb: self.hessian(Sb, step), S, step)


class FunctionChart(Chart):
    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int, ambient_dim: int,
                 ambient: str = "complex"):
        self.fn = fn
        self.dim = dim
        self.ambient_dim = ambient_dim
        self.ambient = ambient

    def value(self, S: np.ndarray) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(S, dtype=float)))


def _split_params(S: np.ndarray, nv: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, phi) blocks of a batch of parameters of a spread chart."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape[-1] != dim:
        raise ValueError(f"chart expects {dim} parameters, got {S.shape[-1]}")
    return S[:, :nv], S[:, nv:]


class TorusSpreadChart(Chart):
    """Chart (v, phi) -> phases(phi) * u(v) for a torus-spread real locus.

    ``u(v)`` moves the base point along an orthonormal tangent basis of the
    real locus of ``project_cfg`` and retracts back by Newton; the phases run
    through exp(2 pi i <row_j, phi>) over ``phase_rows`` (which may be a
    subset of the projection rows, as for the lifted submanifolds of a
    double configuration). Phase derivatives are exact; only the v-part is
    differentiated numerically. Unlike ``PolytopeChart`` it accepts any base
    on the real locus, including points on the boundary of the orthant.
    """

    def __init__(
        self,
        project_cfg: QuadricConfiguration,
        u0,
        phase_rows: np.ndarray | None = None,
        newton_tol: float = 1e-10,
    ):
        self.project_cfg = project_cfg
        u0 = np.asarray(u0, dtype=float)
        if np.max(np.abs((u0 * u0) @ project_cfg.gamma_float().T - project_cfg.c_float())
                  if project_cfg.num_quadrics else 0.0) > 1e-8:
            raise ValueError("base point is not on the real quadric set")
        self.u0 = project_real(project_cfg, u0, tol=newton_tol)
        self.tangent = real_tangent_basis(project_cfg, self.u0)  # (nv, m)
        self.phase_rows = (
            project_cfg.gamma_float() if phase_rows is None else np.asarray(phase_rows, dtype=float)
        )
        self.nv = self.tangent.shape[0]
        self.nphi = self.phase_rows.shape[0]
        self.dim = self.nv + self.nphi
        self.ambient_dim = project_cfg.ambient_dim
        self.newton_tol = newton_tol

    # real part of the chart
    def u_map(self, V: np.ndarray) -> np.ndarray:
        V = np.atleast_2d(np.asarray(V, dtype=float))
        # a tensor grid over (v, phi), and each of its stencils, repeats every v
        # over consecutive rows: retract each run of equal rows once
        first = np.ones(V.shape[0], dtype=bool)
        first[1:] = np.any(V[1:] != V[:-1], axis=1)
        distinct = V if first.all() else V[first]
        U = project_real(self.project_cfg, self.u0[None, :] + distinct @ self.tangent,
                         tol=self.newton_tol)
        return U if distinct is V else U[np.cumsum(first) - 1]

    def _phases(self, Phi: np.ndarray) -> np.ndarray:
        return np.exp(1j * TWO_PI * (Phi @ self.phase_rows))

    def _split(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _split_params(S, self.nv, self.dim)

    def value(self, S: np.ndarray) -> np.ndarray:
        V, Phi = self._split(S)
        return self._phases(Phi) * self.u_map(V)

    def jacobian(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        S = np.atleast_2d(np.asarray(S, dtype=float))
        V, Phi = S[:, : self.nv], S[:, self.nv :]
        phases = self._phases(Phi)  # (N, m)
        z = phases * self.u_map(V)
        N, m = z.shape
        J = np.zeros((N, m, self.dim), dtype=complex)
        if self.nv:
            Ju = fd.jacobian(self.u_map, V, step)  # (N, m, nv)
            J[:, :, : self.nv] = phases[:, :, None] * Ju
        for j in range(self.nphi):
            J[:, :, self.nv + j] = 1j * TWO_PI * self.phase_rows[j][None, :] * z
        return J

    def hessian(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        S = np.atleast_2d(np.asarray(S, dtype=float))
        V, Phi = S[:, : self.nv], S[:, self.nv :]
        phases = self._phases(Phi)
        z = phases * self.u_map(V)
        N, m = z.shape
        d = self.dim
        H = np.zeros((N, m, d, d), dtype=complex)
        if self.nv:
            Hu = fd.hessian(self.u_map, V, step)  # (N, m, nv, nv)
            H[:, :, : self.nv, : self.nv] = phases[:, :, None, None] * Hu
            Ju = fd.jacobian(self.u_map, V, step)
            Jzv = phases[:, :, None] * Ju  # (N, m, nv)
            for j in range(self.nphi):
                cross = 1j * TWO_PI * self.phase_rows[j][None, :, None] * Jzv
                H[:, :, : self.nv, self.nv + j] = cross
                H[:, :, self.nv + j, : self.nv] = cross
        for j in range(self.nphi):
            for l in range(self.nphi):
                H[:, :, self.nv + j, self.nv + l] = (
                    (1j * TWO_PI) ** 2 * self.phase_rows[j] * self.phase_rows[l] * z
                )
        return H


class PolytopeChart(Chart):
    """Chart (v, phi) -> phases(phi) * sqrt(x0 + B v) over the open orthant.

    The real quadric locus is the branched cover of the polytope
    {x >= 0 : Gamma x = c} by x = u^2, so on the open orthant it is the graph
    u = sqrt(x) over the polytope's interior. ``x0`` is an interior point
    (Gamma x0 = c, x0 > 0) and the columns of ``B`` an orthonormal basis of
    ker Gamma. The jacobian B / (2u), the hessian -B_a B_b / (4u^3), the
    third derivative 3 B_a B_b B_c / (8u^5) and the phase terms are exact,
    so ``step`` is not read. Parameters must keep x0 + B v in the open
    orthant; ``value`` raises otherwise.
    """

    def __init__(self, Q: QuadricConfiguration, x0, phase_rows: np.ndarray | None = None):
        x0 = np.asarray(x0, dtype=float)
        G = Q.gamma_float()
        if np.any(x0 <= 0.0):
            raise ValueError("polytope chart needs a point of the open orthant")
        if Q.num_quadrics and np.max(np.abs(G @ x0 - Q.c_float())) > 1e-8:
            raise ValueError("base point is not on the polytope")
        self.x0 = x0
        self.u0 = np.sqrt(x0)
        m, k = Q.ambient_dim, Q.num_quadrics
        # the last m - k columns of a complete QR of Gamma^T span ker Gamma
        self.B = np.linalg.qr(G.T, mode="complete")[0][:, k:] if k else np.eye(m)
        self.phase_rows = G if phase_rows is None else np.asarray(phase_rows, dtype=float)
        self.nv = m - k
        self.nphi = self.phase_rows.shape[0]
        self.dim = self.nv + self.nphi
        self.ambient_dim = m

    def _parts(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phases, u, z) at the rows of S."""
        V, Phi = _split_params(S, self.nv, self.dim)
        x = self.x0 + V @ self.B.T
        if np.any(x <= 0.0):
            raise ValueError("chart parameters leave the open orthant")
        u = np.sqrt(x)
        phases = np.exp(1j * TWO_PI * (Phi @ self.phase_rows))
        return phases, u, phases * u

    def value(self, S: np.ndarray) -> np.ndarray:
        return self._parts(S)[2]

    def jacobian(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        phases, u, z = self._parts(S)
        Jv = (phases / (2.0 * u))[:, :, None] * self.B  # (N, m, nv)
        Jphi = 1j * TWO_PI * z[:, :, None] * self.phase_rows.T  # (N, m, nphi)
        return np.concatenate([Jv, Jphi], axis=2)

    def hessian(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        phases, u, z = self._parts(S)
        B, R = self.B, self.phase_rows.T  # (m, nv), (m, nphi)
        Jv = (phases / (2.0 * u))[:, :, None] * B
        Hvv = -(phases / (4.0 * u**3))[:, :, None, None] * (B[:, :, None] * B[:, None, :])
        Hvphi = 1j * TWO_PI * Jv[:, :, :, None] * R[:, None, :]
        Hphiphi = (1j * TWO_PI) ** 2 * z[:, :, None, None] * (R[:, :, None] * R[:, None, :])
        top = np.concatenate([Hvv, Hvphi], axis=3)
        bottom = np.concatenate([np.swapaxes(Hvphi, 2, 3), Hphiphi], axis=3)
        return np.concatenate([top, bottom], axis=2)

    def third(self, S: np.ndarray, step: float = 1e-3) -> np.ndarray:
        """d_a d_b d_c z = phases * (3/8 BBB / u^5 - 1/4 sym EBB / u^3
        + 1/2 sym EEB / u + EEE u), by the product rule on phases * u with
        the u-derivatives B / (2u), -BB / (4u^3) and 3 BBB / (8u^5)."""
        phases, u, _ = self._parts(S)
        # per-direction factors: d u / u on v, d phases / phases on phi
        Bx = np.concatenate([self.B, np.zeros((self.ambient_dim, self.nphi))], axis=1)
        Ex = np.concatenate([np.zeros_like(self.B), 1j * TWO_PI * self.phase_rows.T], axis=1)

        def outer(a, b, c):
            return a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]

        def sym(a, b):  # a a b summed over the three places of b
            return outer(a, a, b) + outer(a, b, a) + outer(b, a, a)

        terms = np.stack([outer(Bx, Bx, Bx), sym(Bx, Ex), sym(Ex, Bx), outer(Ex, Ex, Ex)])
        coeff = np.stack([0.375 / u**5, -0.25 / u**3, 0.5 / u, u], axis=-1)  # (N, m, 4)
        return phases[:, :, None, None, None] * np.einsum("njk,kjabc->njabc", coeff, terms)
