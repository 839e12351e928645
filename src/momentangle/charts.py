"""Local parametrizations of quadric-built submanifolds.

Every chart is a spread chart (v, phi) -> phases(phi) * u(v): a map u into
the real locus, times the phases exp(2 pi i <row_j, phi>). Each chart
supplies u's v-derivatives, and one product rule (``_phase_product``) gives
its derivatives through third order, all in closed form. ``Chart.jet``
gives them together, from one solve of u.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .quadric_config import QuadricConfiguration

TWO_PI = 2.0 * np.pi
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


def _split_params(S: np.ndarray, nv: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, phi) blocks of a batch of parameters of a spread chart."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape[-1] != dim:
        raise ValueError(f"chart expects {dim} parameters, got {S.shape[-1]}")
    return S[:, :nv], S[:, nv:]


@functools.cache
def _blocks(n: int) -> tuple:
    """The blocks of an n-th derivative, for each count k of v axes from n
    down to 0: for each choice of k of the n axes, which axes are v, and the
    transpose that moves a block with its k v axes first to that choice."""
    out = []
    for k in range(n, -1, -1):
        choices = []
        for vaxes in itertools.combinations(range(n), k):
            axes = vaxes + tuple(i for i in range(n) if i not in vaxes)  # the place of each block axis
            transpose = (0, 1) + tuple(2 + axes.index(i) for i in range(n))
            choices.append((tuple(i in vaxes for i in range(n)), transpose))
        out.append((k, choices))
    return tuple(out)


def _phase_product(phases: np.ndarray, us: tuple[np.ndarray, ...], rows: np.ndarray) -> np.ndarray:
    """The derivative of order n = len(us) - 1 of z = phases(phi) * u(v): z, J, H or T.

    ``us`` holds u (N, m) and its v-derivatives (N, m, nv, ..., nv) up to
    order n. Since d phases / d phi_j = 2 pi i row_j phases, the block with
    v axes A and phi axes P is phases * d_A u * prod_{j in P} 2 pi i row_j.
    The block with its k v axes first is computed once, and fills each
    choice of k of the n axes by a transpose.
    """
    n = len(us) - 1
    if n == 0:
        return phases * us[0]
    N, m = phases.shape
    nv, nphi = us[1].shape[2], rows.shape[0]
    E = 1j * TWO_PI * rows.T  # (m, nphi)
    D = np.empty((N, m) + (nv + nphi,) * n, dtype=complex)
    v, phi = slice(None, nv), slice(nv, None)
    for k, choices in _blocks(n):  # k v axes, then n - k phi axes
        block = phases.reshape((N, m) + (1,) * k) * us[k]
        if k < n:  # times the product of E over the phi axes
            Ek = E.reshape((m,) + (1,) * k + (nphi,) + (1,) * (n - k - 1))
            Epow = Ek if k == n - 1 else Epow * Ek
            block = block.reshape(block.shape + (1,) * (n - k)) * Epow
        for is_v, transpose in choices:
            D[(Ellipsis,) + tuple(v if b else phi for b in is_v)] = block.transpose(transpose)
    return D


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


class Chart:
    """A spread chart (v, phi) -> phases(phi) * u(v) into C^m.

    Subclasses set ``nv``, ``nphi``, ``dim = nv + nphi``, ``ambient_dim``
    and ``phase_rows``, and supply ``_u(V, order)``: u and its
    v-derivatives up to ``order`` at the rows of V. ``jet`` is the product
    rule on those, once per order; ``value``, ``jacobian`` and ``hessian``
    each read one entry of a jet.
    """

    nv: int
    nphi: int
    dim: int
    ambient_dim: int
    phase_rows: np.ndarray

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    @functools.cached_property
    def _rates(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct columns of the phase rows, and the one of each coordinate:
        one exponential per distinct column, not per coordinate."""
        keys = [column.tobytes() for column in self.phase_rows.T]
        firsts = sorted(set(keys.index(key) for key in keys))
        return self.phase_rows[:, firsts], np.array([firsts.index(keys.index(key)) for key in keys])

    def jet_and_base(self, S: np.ndarray, order: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """(jet, u): the derivatives (z, J, ..., D^order) at the rows of S and the
        points u(v) (N, m) under them, from one ``_u`` call and one phase computation."""
        V, Phi = _split_params(S, self.nv, self.dim)
        rates, of_rate = self._rates
        # einsum, not matmul: a point's sums do not depend on its batch
        phases = np.exp(1j * TWO_PI * np.einsum("nj,jk->nk", Phi, rates))[:, of_rate]
        us = self._u(V, order)
        return tuple(_phase_product(phases, us[: n + 1], self.phase_rows) for n in range(order + 1)), us[0]

    def jet(self, S: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """(z, J, ..., D^order): z (N, m), J (N, m, d), H (N, m, d, d), T (N, m, d, d, d)."""
        return self.jet_and_base(S, order)[0]

    def value(self, S: np.ndarray) -> np.ndarray:
        return self.jet(S, 0)[0]

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        return self.jet(S, 1)[1]

    def hessian(self, S: np.ndarray) -> np.ndarray:
        return self.jet(S, 2)[2]


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
        """u and its v-derivatives up to ``order`` (at most 3) at the rows of V.

        Differentiating s u = p and Gamma (u u) = c along v_a gives
        s du_a - 2 w1_a u = T_a and 2 Gamma (u du_a) = 0, with
        w1 = Gamma^T dmu; once more along v_b, the same system in d2u_ab
        (and w2 = Gamma^T d2mu) with the right-hand sides
        2 (w1_b du_a + w1_a du_b) and -2 Gamma (du_a du_b); once more along
        v_c, the same system in d3u_abc with 2 sym(w1 d2u + du w2) and
        -2 Gamma sym(du d2u), each sym the sum over the three ways to pick
        the single index. A tensor grid over (v, phi) repeats every v over
        consecutive rows: each run of equal rows is solved once.
        """
        first = np.ones(V.shape[0], dtype=bool)
        first[1:] = np.any(V[1:] != V[:-1], axis=1)
        U, s = self._nearest(self.u0 + np.einsum("na,ak->nk", V[first], self.tangent))
        (N, m), nv, k = U.shape, self.nv, len(self.c)
        parts = [U]
        if order >= 1:
            du, w1 = self._solve_linearized(U, s, np.broadcast_to(self.tangent.T, (N, m, nv)), 0.0)
            parts.append(du)
        if order >= 2:
            r1 = 2.0 * (w1[:, :, None, :] * du[:, :, :, None] + w1[:, :, :, None] * du[:, :, None, :])
            r2 = -2.0 * np.einsum("jk,nka,nkb->njab", self.G, du, du)
            d2u, w2 = self._solve_linearized(U, s, r1.reshape(N, m, -1), r2.reshape(N, k, -1))
            d2u, w2 = d2u.reshape(N, m, nv, nv), w2.reshape(N, m, nv, nv)
            parts.append(d2u)
        if order >= 3:
            def sym(X):  # X_abc + X_bca + X_cab
                return X + X.transpose(0, 1, 3, 4, 2) + X.transpose(0, 1, 4, 2, 3)

            r1 = 2.0 * sym(w1[:, :, None, None, :] * d2u[..., None] + du[:, :, None, None, :] * w2[..., None])
            r2 = -2.0 * np.einsum("jk,nkabc->njabc", self.G, sym(du[:, :, None, None, :] * d2u[..., None]))
            d3u, _ = self._solve_linearized(U, s, r1.reshape(N, m, -1), r2.reshape(N, k, -1))
            parts.append(d3u.reshape(N, m, nv, nv, nv))
        if first.all():
            return tuple(parts)
        idx = np.cumsum(first) - 1
        return tuple(x[idx] for x in parts)

    # defined in this class's own namespace, where perfbench/spans.py wraps them by name
    value, jacobian, hessian = Chart.value, Chart.jacobian, Chart.hessian


class CircleSpreadChart(Chart):
    """Chart (a, phi) -> exp(2 pi i <phi, rows>) * (A cos a + B sin a + C).

    A circle of the real locus (or any plane conic: A, B, C may be complex)
    spread by the phase subgroup of ``rows`` (none, one row, or several),
    with ``periods`` the periods of (a, phi_1, ...). u's a-derivatives
    cycle: B cos a - A sin a, then C - u, then minus the first.
    """

    def __init__(self, A, B, C, rows, periods: tuple[float, ...]):
        ABC = np.array([A, B, C], dtype=complex)  # (3, m)
        # the real and imaginary part of each coordinate in turn, so the
        # elementwise terms run in real arithmetic and view back as complex
        self._parts = ABC.view(float)  # (3, 2m)
        self.ambient_dim = ABC.shape[1]
        self.phase_rows = np.asarray(rows, dtype=float).reshape(-1, self.ambient_dim)
        self.nv, self.nphi = 1, self.phase_rows.shape[0]
        self.dim = 1 + self.nphi
        self.periods = periods

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        A, B, C = self._parts
        cos, sin = np.cos(V), np.sin(V)
        rim = cos * A + sin * B
        parts = [rim + C]
        if order >= 1:
            tangent = cos * B - sin * A
            parts += [tangent, -rim, -tangent][:order]
        N, m = V.shape[0], self.ambient_dim
        return tuple(x.view(complex).reshape((N, m) + (1,) * n) for n, x in enumerate(parts))


class PolytopeChart(Chart):
    """Chart (v, phi) -> phases(phi) * sqrt(x0 + B v) over the open orthant.

    The real quadric locus is the branched cover of the polytope
    {x >= 0 : Gamma x = c} by x = u^2, so on the open orthant it is the graph
    u = sqrt(x) over the polytope's interior. ``x0`` is an interior point
    (Gamma x0 = c, x0 > 0) and the columns of ``B`` an orthonormal basis of
    ker Gamma, so u's v-derivatives are B / (2u), -B_a B_b / (4u^3) and
    3 B_a B_b B_c / (8u^5). Parameters must keep x0 + B v in the open
    orthant; every derivative raises otherwise.
    """

    def __init__(self, Q: QuadricConfiguration, x0, phase_rows: np.ndarray | None = None):
        x0 = np.asarray(x0, dtype=float)
        G = Q.gamma_float()
        if np.any(x0 <= 0.0):
            raise ValueError("polytope chart needs a point of the open orthant")
        if Q.num_quadrics and np.max(np.abs(G @ x0 - Q.c_float())) > 1e-8:
            raise ValueError("base point is not on the polytope")
        self.x0 = x0
        m, k = Q.ambient_dim, Q.num_quadrics
        # the last m - k columns of a complete QR of Gamma^T span ker Gamma
        self.B = np.linalg.qr(G.T, mode="complete")[0][:, k:] if k else np.eye(m)
        self.phase_rows = G if phase_rows is None else np.asarray(phase_rows, dtype=float)
        self.nv = m - k
        self.nphi = self.phase_rows.shape[0]
        self.dim = self.nv + self.nphi
        self.ambient_dim = m

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        x = self.x0 + np.einsum("na,ka->nk", V, self.B)
        if np.any(x <= 0.0):
            raise ValueError("chart parameters leave the open orthant")
        u = np.sqrt(x)
        B, parts = self.B, [u]
        if order >= 1:
            parts.append((0.5 / u)[:, :, None] * B)
        if order >= 2:
            parts.append((-0.25 / u**3)[:, :, None, None] * (B[:, :, None] * B[:, None, :]))
        if order >= 3:
            BBB = B[:, :, None, None] * B[:, None, :, None] * B[:, None, None, :]
            parts.append((0.375 / u**5)[:, :, None, None, None] * BBB)
        return tuple(parts)
