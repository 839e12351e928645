"""Local parametrizations of quadric-built submanifolds.

A chart maps parameter vectors to ambient points. The spread charts
(``PolytopeChart``, ``TorusSpreadChart``, ``CircleSpreadChart``) carry
closed-form derivatives; the defaults of ``Chart`` differentiate ``value``
by central finite differences, which only ``FunctionChart`` (the controls)
relies on.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import fd
from .quadric_config import QuadricConfiguration

TWO_PI = 2.0 * np.pi
STEP = 1e-3  # the stencil step of the default chart derivatives
NEWTON_STEPS = 60  # at most, for the nearest point of a spread chart


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
# charts


class Chart:
    """Parameter space -> C^m map with derivative hooks.

    Subclasses may override ``jacobian``/``hessian``/``third`` with exact
    formulas; the defaults differentiate ``value`` by 4th-order central
    stencils at ``STEP``, and ``third`` differentiates ``hessian`` the same
    way.
    """

    dim: int
    ambient_dim: int

    def value(self, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        return fd.jacobian(self.value, S, STEP)

    def hessian(self, S: np.ndarray) -> np.ndarray:
        return fd.hessian(self.value, S, STEP)

    def third(self, S: np.ndarray) -> np.ndarray:
        """Third derivatives (N, m, d, d, d); the last axis differentiates the hessian."""
        return fd.jacobian(self.hessian, S, STEP)


class FunctionChart(Chart):
    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int, ambient_dim: int):
        self.fn = fn
        self.dim = dim
        self.ambient_dim = ambient_dim

    def value(self, S: np.ndarray) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(S, dtype=float)))


def _split_params(S: np.ndarray, nv: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, phi) blocks of a batch of parameters of a spread chart."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape[-1] != dim:
        raise ValueError(f"chart expects {dim} parameters, got {S.shape[-1]}")
    return S[:, :nv], S[:, nv:]


def _phases(Phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.exp(1j * TWO_PI * (Phi @ rows))


def _phase_product(z: np.ndarray, Jv: np.ndarray, rows: np.ndarray, Hvv: np.ndarray | None = None):
    """The jacobian, and given ``Hvv`` also the hessian, of z = phases(phi) * u(v).

    ``Jv`` (N, m, nv) and ``Hvv`` (N, m, nv, nv) are the v-derivatives of z,
    the phases times those of u. The phi-derivatives follow from
    d phases / d phi_j = 2 pi i row_j phases, by the product rule.
    """
    R = rows.T  # (m, nphi)
    N, m, nv = Jv.shape
    d = nv + R.shape[1]
    J = np.empty((N, m, d), dtype=complex)
    J[:, :, :nv] = Jv
    J[:, :, nv:] = 1j * TWO_PI * z[:, :, None] * R
    if Hvv is None:
        return J
    H = np.empty((N, m, d, d), dtype=complex)
    H[:, :, :nv, :nv] = Hvv
    H[:, :, :nv, nv:] = 1j * TWO_PI * Jv[:, :, :, None] * R[:, None, :]
    H[:, :, nv:, :nv] = np.swapaxes(H[:, :, :nv, nv:], 2, 3)
    H[:, :, nv:, nv:] = (1j * TWO_PI) ** 2 * z[:, :, None, None] * (R[:, :, None] * R[:, None, :])
    return J, H


def _solve_small(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """K^-1 rhs for a batch (N, k, k) of Gram matrices; one quadric is a division."""
    if K.shape[-1] == 1:
        if not np.all(K):
            raise NonConvergenceError("singular constraint jacobian: zero Gram entry")
        return rhs / K
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"singular constraint jacobian: {exc}") from exc


class TorusSpreadChart(Chart):
    """Chart (v, phi) -> phases(phi) * u(v) for a torus-spread real locus.

    ``u(v)`` is the point of the real locus of ``project_cfg`` nearest to
    p = u0 + T v, with T an orthonormal basis of the locus' tangent space at
    u0. It solves u - p = 2 u (Gamma^T mu) and Gamma (u u) = c, so
    u = p / s with s = 1 - 2 Gamma^T mu, and Newton runs on the k
    multipliers mu alone. The derivatives of u are exact: the implicit
    function theorem on the same system (``_solve_linearized``). The phases
    run through exp(2 pi i <row_j, phi>) over ``phase_rows`` (which may be a
    subset of the projection rows, as for the lifted submanifolds of a
    double configuration). Unlike ``PolytopeChart`` it accepts any base on
    the real locus, including points on the boundary of the orthant.
    """

    def __init__(
        self,
        project_cfg: QuadricConfiguration,
        u0,
        phase_rows: np.ndarray | None = None,
        newton_tol: float = 1e-10,
    ):
        G, c = project_cfg.gamma_float(), project_cfg.c_float()
        u0 = np.asarray(u0, dtype=float)
        if G.size and np.max(np.abs(G @ (u0 * u0) - c)) > 1e-8:
            raise ValueError("base point is not on the real quadric set")
        k = project_cfg.num_quadrics
        J = 2.0 * G * u0  # the constraint jacobian (k, m) at u0
        sv = np.linalg.svd(J, compute_uv=False)
        if sv.size and sv.min() < 1e-10 * max(1.0, sv.max()):
            raise NonConvergenceError("degenerate constraint Jacobian at the base point")
        self.project_cfg, self.G, self.c, self.u0 = project_cfg, G, c, u0
        # the last m - k columns of a complete QR of J^T span the tangent space
        self.tangent = np.linalg.qr(J.T, mode="complete")[0][:, k:].T  # (nv, m)
        self.phase_rows = G if phase_rows is None else np.asarray(phase_rows, dtype=float)
        self.nv = self.tangent.shape[0]
        self.nphi = self.phase_rows.shape[0]
        self.dim = self.nv + self.nphi
        self.ambient_dim = project_cfg.ambient_dim
        self.newton_tol = newton_tol

    def _nearest(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, s): the nearest points u = P / s of the real locus to the rows of P.

        Newton on mu from mu = 0, until each point's own residual is at most
        1e-14 * scale. A converged point takes no further step, so its
        result does not depend on its batch (einsum, not matmul: its sums
        do not depend on the batch either).
        """
        G, c = self.G, self.c
        scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
        mu = np.zeros((P.shape[0], G.shape[0]))
        for step in range(NEWTON_STEPS + 1):
            s = 1.0 - 2.0 * np.einsum("jk,nj->nk", G, mu)
            U = P / s
            F = np.einsum("jk,nk->nj", G, U * U) - c
            moving = ~np.all(np.abs(F) <= 1e-14 * scale, axis=1)  # a NaN keeps moving
            if not moving.any() or step == NEWTON_STEPS:
                break
            mu[moving] -= _solve_small(self._gram(U[moving], s[moving]), F[moving][:, :, None])[:, :, 0]
        if not np.all(np.abs(F) <= self.newton_tol):
            raise NonConvergenceError(f"Newton projection stalled at residual {np.abs(F).max():.3e}")
        return U, s

    def _gram(self, U: np.ndarray, s: np.ndarray) -> np.ndarray:
        """K = 4 Gamma diag(u^2 / s) Gamma^T (N, k, k): d(Gamma (u u)) / d mu."""
        return 4.0 * np.einsum("jk,lk,nk->njl", self.G, self.G, U * U / s)

    def _solve_linearized(self, U, s, r1, r2) -> tuple[np.ndarray, np.ndarray]:
        """(x, Gamma^T y) solving s x - 2 (Gamma^T y) u = r1, 2 Gamma (u x) = r2.

        The right-hand sides run along the last axis of r1 (N, m, A) and
        r2 (N, k, A). Eliminating x = (r1 + 2 u Gamma^T y) / s leaves
        K y = r2 - 2 Gamma (u r1 / s), with K the Newton matrix.
        """
        G = self.G
        rhs = r2 - 2.0 * np.einsum("jk,nka->nja", G, (U / s)[:, :, None] * r1)
        gy = np.einsum("jk,nja->nka", G, _solve_small(self._gram(U, s), rhs))
        return (r1 + 2.0 * U[:, :, None] * gy) / s[:, :, None], gy

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """u and its v-derivatives up to ``order`` (at most 2) at the rows of V.

        Differentiating s u = p and Gamma (u u) = c along v_a gives
        s du_a - 2 (Gamma^T dmu_a) u = T_a and 2 Gamma (u du_a) = 0; once
        more along v_b, the same system in d2u_ab with the right-hand sides
        2 (Gamma^T dmu_b) du_a + 2 (Gamma^T dmu_a) du_b and
        -2 Gamma (du_a du_b). A tensor grid over (v, phi), and each of its
        stencils, repeats every v over consecutive rows: each run of equal
        rows is solved once.
        """
        first = np.ones(V.shape[0], dtype=bool)
        first[1:] = np.any(V[1:] != V[:-1], axis=1)
        U, s = self._nearest(self.u0 + np.einsum("na,ak->nk", V[first], self.tangent))
        N, m = U.shape
        parts = [U]
        if order >= 1:
            du, gdmu = self._solve_linearized(U, s, np.broadcast_to(self.tangent.T, (N, m, self.nv)), 0.0)
            parts.append(du)
        if order >= 2:
            r1 = 2.0 * (gdmu[:, :, None, :] * du[:, :, :, None] + gdmu[:, :, :, None] * du[:, :, None, :])
            r2 = -2.0 * np.einsum("jk,nka,nkb->njab", self.G, du, du)
            d2u, _ = self._solve_linearized(U, s, r1.reshape(N, m, -1), r2.reshape(N, len(self.c), -1))
            parts.append(d2u.reshape(N, m, self.nv, self.nv))
        if first.all():
            return tuple(parts)
        idx = np.cumsum(first) - 1
        return tuple(x[idx] for x in parts)

    def value(self, S: np.ndarray) -> np.ndarray:
        V, Phi = _split_params(S, self.nv, self.dim)
        return _phases(Phi, self.phase_rows) * self._u(V, 0)[0]

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        V, Phi = _split_params(S, self.nv, self.dim)
        phases = _phases(Phi, self.phase_rows)
        U, du = self._u(V, 1)
        return _phase_product(phases * U, phases[:, :, None] * du, self.phase_rows)

    def hessian(self, S: np.ndarray) -> np.ndarray:
        V, Phi = _split_params(S, self.nv, self.dim)
        phases = _phases(Phi, self.phase_rows)
        U, du, d2u = self._u(V, 2)
        return _phase_product(phases * U, phases[:, :, None] * du, self.phase_rows,
                              phases[:, :, None, None] * d2u)[1]


class CircleSpreadChart(Chart):
    """Chart (a, phi) -> exp(2 pi i <phi, rows>) * (A cos a + B sin a + C).

    A circle of the real locus spread by the phase subgroup of ``rows`` (one
    row, or several), with ``periods`` the periods of (a, phi_1, ...). Its
    derivatives are cos and sin times the phase, exact.
    """

    def __init__(self, A, B, C, rows, periods: tuple[float, ...]):
        self.ABC = np.array([A, B, C], dtype=float)  # (3, m)
        self.phase_rows = np.atleast_2d(np.asarray(rows, dtype=float))
        # one exponential per distinct column of the rows, not per coordinate
        self._rates, self._of_rate = np.unique(self.phase_rows, axis=1, return_inverse=True)
        self._of_rate = self._of_rate.ravel()
        self.dim = 1 + self.phase_rows.shape[0]
        self.ambient_dim = self.ABC.shape[1]
        self.periods = periods

    def _parts(self, S: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """(phases, u and its a-derivatives up to ``order``) at the rows of S.

        Each is a trigonometric row (cos, sin, 1), (-sin, cos, 0) or
        (-cos, -sin, 0) times (A, B, C), one small matmul.
        """
        a, Phi = _split_params(S, 1, self.dim)
        cos, sin = np.cos(a), np.sin(a)
        one, zero = np.ones_like(a), np.zeros_like(a)
        trig = ([cos, sin, one], [-sin, cos, zero], [-cos, -sin, zero])[: order + 1]
        phases = np.exp(1j * TWO_PI * (Phi @ self._rates))[:, self._of_rate]
        return (phases,) + tuple(np.concatenate(t, axis=1) @ self.ABC for t in trig)

    def value(self, S: np.ndarray) -> np.ndarray:
        phases, u = self._parts(S, 0)
        return phases * u

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        phases, u, du = self._parts(S, 1)
        return _phase_product(phases * u, (phases * du)[:, :, None], self.phase_rows)

    def hessian(self, S: np.ndarray) -> np.ndarray:
        phases, u, du, d2u = self._parts(S, 2)
        return _phase_product(phases * u, (phases * du)[:, :, None], self.phase_rows,
                              (phases * d2u)[:, :, None, None])[1]


class PolytopeChart(Chart):
    """Chart (v, phi) -> phases(phi) * sqrt(x0 + B v) over the open orthant.

    The real quadric locus is the branched cover of the polytope
    {x >= 0 : Gamma x = c} by x = u^2, so on the open orthant it is the graph
    u = sqrt(x) over the polytope's interior. ``x0`` is an interior point
    (Gamma x0 = c, x0 > 0) and the columns of ``B`` an orthonormal basis of
    ker Gamma. The jacobian B / (2u), the hessian -B_a B_b / (4u^3), the
    third derivative 3 B_a B_b B_c / (8u^5) and the phase terms are exact.
    Parameters must keep x0 + B v in the open orthant; ``value`` raises
    otherwise.
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
        phases = _phases(Phi, self.phase_rows)
        return phases, u, phases * u

    def value(self, S: np.ndarray) -> np.ndarray:
        return self._parts(S)[2]

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        phases, u, z = self._parts(S)
        return _phase_product(z, (phases / (2.0 * u))[:, :, None] * self.B, self.phase_rows)

    def hessian(self, S: np.ndarray) -> np.ndarray:
        phases, u, z = self._parts(S)
        B = self.B
        Jv = (phases / (2.0 * u))[:, :, None] * B
        Hvv = -(phases / (4.0 * u**3))[:, :, None, None] * (B[:, :, None] * B[:, None, :])
        return _phase_product(z, Jv, self.phase_rows, Hvv)[1]

    def third(self, S: np.ndarray) -> np.ndarray:
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
