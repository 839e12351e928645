"""Local parametrizations of quadric-built submanifolds.

Every chart is a spread chart (v, phi) -> phases(phi) * u(v): a map u into
the real locus, times the phases exp(2 pi i <row_j, phi>). Each chart
supplies u's v-derivatives, and one product rule (``_phase_product``) gives
its derivatives through second order in one pass, all in closed form: no
check reads a third. ``Chart.jet`` gives them together, from one solve of u.
Its order 2 keeps the second derivatives as the product rule's factors
(``PhaseHessian``): the checks read them only through the trace
sum g^ab H_ab, which contracts those factors block by block, so only
``Chart.hessian`` assembles the (N, m, d, d) array. ``global_chart``
covers the whole of N wherever its real locus is a product of ellipsoids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exact_linalg import IntegerMatrix, inverse, solve_square
from .quadric_config import NOT_COMPUTED, QuadricConfiguration, float_array, membership_residuals

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


def _split_params(S: np.ndarray, nv: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, phi) blocks of a batch of parameters of a spread chart."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape[-1] != dim:
        raise ValueError(f"chart expects {dim} parameters, got {S.shape[-1]}")
    return S[:, :nv], S[:, nv:]


def _phase_product(phases: np.ndarray, us: tuple[np.ndarray, ...], rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The derivatives of z = phases(phi) * u(v) through order n = len(us) - 1 (at most 2):
    (z, J[, H]), from one pass.

    ``us`` holds u (N, m) and its v-derivatives (N, m, nv, ..., nv) up to
    order n. Since d phases / d phi_j = 2 pi i row_j phases, the block with
    v axes A and phi axes P is phases * d_A u * prod_{j in P} 2 pi i row_j;
    the hessian's phi-v block is the transpose of its v-phi block.
    """
    z = phases * us[0]
    if len(us) == 1:
        return (z,)
    E = 1j * TWO_PI * rows.T  # (m, nphi)
    dv = phases[:, :, None] * us[1]
    J = np.concatenate([dv, z[:, :, None] * E], axis=2)
    if len(us) == 2:
        return z, J
    dvE = dv[:, :, :, None] * E[:, None, :]
    phiphi = z[:, :, None, None] * (E[:, None, :] * E[:, :, None])
    return z, J, np.concatenate([np.concatenate([phases[:, :, None, None] * us[2], dvE], axis=3),
                                 np.concatenate([np.swapaxes(dvE, 2, 3), phiphi], axis=3)], axis=2)


@dataclass(frozen=True)
class PhaseHessian:
    """The second derivatives of z = phases(phi) * u(v) at N points, kept as the product
    rule's factors: ``phases`` (N, m) and ``us`` = (u, Du, D^2u), (N, m), (N, m, nv) and
    (N, m, nv, nv), with ``rows`` the phase rows R (nphi, m) and E = 2 pi i R^T.

    The hessian's blocks are phases D^2u (vv), phases Du E (v phi, and its transpose
    phi v) and z E E (phi phi). ``trace`` contracts g^-1 against them block by block;
    ``assemble`` builds the (N, m, d, d) array. A slice slices the points.
    """

    phases: np.ndarray
    us: tuple[np.ndarray, np.ndarray, np.ndarray]
    rows: np.ndarray

    def __getitem__(self, s: slice) -> PhaseHessian:
        return PhaseHessian(self.phases[s], tuple(x[s] for x in self.us), self.rows)

    def assemble(self) -> np.ndarray:
        return _phase_product(self.phases, self.us, self.rows)[2]

    def trace(self, gi: np.ndarray) -> np.ndarray:
        """sum_ab g^ab H_ab (N, 2m), real parts first, for g^-1 ``gi`` (N, d, d):
        phases (<g^vv, D^2u> + 2 pi i sum_a du_a (g^v phi R)_a) - (2 pi)^2 z diag(R^T g^phiphi R),
        with g^v phi the v-phi block plus the transposed phi-v block. Every product is stacked
        per point, so a point's row does not depend on its batch."""
        (u, du, d2u), R = self.us, self.rows
        N, m, nv = du.shape
        vv = (d2u.reshape(N, m, nv * nv) @ gi[:, :nv, :nv].reshape(N, nv * nv, 1))[..., 0]
        cross = (gi[:, :nv, nv:] + np.swapaxes(gi[:, nv:, :nv], 1, 2)) @ R  # (N, nv, m)
        vphi = (du[:, :, None, :] @ np.swapaxes(cross, 1, 2)[:, :, :, None])[..., 0, 0]
        phiphi = ((gi[:, nv:, nv:] @ R) * R).sum(axis=1)
        tr = self.phases * (vv + 1j * TWO_PI * vphi) - TWO_PI**2 * (self.phases * u) * phiphi
        return c2r(tr)


class Chart:
    """A spread chart (v, phi) -> phases(phi) * u(v) into C^m.

    Subclasses set ``nv``, ``nphi``, ``dim = nv + nphi``, ``ambient_dim``
    and ``phase_rows``, and supply ``_u(V, order)``: u and its
    v-derivatives up to ``order`` at the rows of V. ``jet`` is the product
    rule on those, in one pass; ``value`` and ``jacobian`` each read one
    entry of a jet, and ``hessian`` assembles the second derivatives that
    an order-2 jet keeps as factors.
    """

    nv: int
    nphi: int
    dim: int
    ambient_dim: int
    phase_rows: np.ndarray

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def jet(self, S: np.ndarray, order: int) -> tuple:
        """(z, J[, second]) at the rows of S through ``order`` (at most 2), from one ``_u`` call
        and one phase computation: z (N, m), J (N, m, d) and, at order 2, the ``PhaseHessian``."""
        if order > 2:
            raise ValueError(f"a chart jet goes through order 2, not {order}")
        V, Phi = _split_params(S, self.nv, self.dim)
        # einsum, not matmul: a point's sums do not depend on its batch
        phases = np.exp(1j * TWO_PI * np.einsum("nj,jk->nk", Phi, self.phase_rows))
        us = self._u(V, order)
        jet = _phase_product(phases, us[:2], self.phase_rows)
        return jet + (PhaseHessian(phases, us, self.phase_rows),) if order == 2 else jet

    def value(self, S: np.ndarray) -> np.ndarray:
        return self.jet(S, 0)[0]

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        return self.jet(S, 1)[1]

    def hessian(self, S: np.ndarray) -> np.ndarray:
        """The assembled second derivatives (N, m, d, d) at the rows of S."""
        return self.jet(S, 2)[2].assemble()


class TorusSpreadChart(Chart):
    """Chart (v, phi) -> phases(phi) * u(v) of a torus-spread real locus, at any regular base.

    The real locus is the branched cover x = u^2 of the polytope
    {x >= 0 : Gamma x = c}, so near u0 it is the graph over the non-basic
    coordinates F: u_F = u0_F + v and u_S = sign(u0_S) sqrt(x0_S - M u_F^2),
    with M = Gamma_S^-1 Gamma_F and x0_S = Gamma_S^-1 c exact. The k basic
    columns S maximize |det(Gamma_S diag u0_S)|. Then du_S = -M diag(u_F) / u_S
    and d2u_S[a, b] = -(M_a delta_ab + du_S[a] du_S[b]) / u_S. Parameters must
    keep x_S > 0; every derivative raises otherwise. The phases run over
    ``phase_rows`` (default Gamma's rows; a subset of the stacked rows for the
    lift of a double configuration). Unlike ``PolytopeChart`` it takes bases
    on the boundary of the orthant.
    """

    def __init__(self, project_cfg: QuadricConfiguration, u0, phase_rows: np.ndarray | None = None):
        G = project_cfg.gamma_float()
        u0 = np.asarray(u0, dtype=float)
        if membership_residuals(project_cfg, u0) > 1e-8:
            raise ValueError("base point is not on the real quadric set")
        k, m = G.shape
        subsets = np.array(list(itertools.combinations(range(m), k)), dtype=int).reshape(math.comb(m, k), k)
        blocks = np.moveaxis((2.0 * G * u0)[:, subsets], 1, 0)  # the constraint jacobian's k x k blocks
        best = int(np.argmax(np.abs(np.linalg.det(blocks))))
        sv = np.linalg.svd(blocks[best], compute_uv=False)
        if sv.size and sv.min() < 1e-10 * max(1.0, sv.max()):
            raise NonConvergenceError("degenerate constraint Jacobian at the base point")
        S, F, rows = subsets[best], np.setdiff1d(np.arange(m), subsets[best]), project_cfg.gamma.entries
        # Gamma_S^-1 [Gamma | c] in exact arithmetic: the identity on S, M on F and x0_S last
        inv = np.array(inverse(IntegerMatrix([[row[j] for j in S] for row in rows], cols=k)), dtype=object)
        aug = np.array([row + (level,) for row, level in zip(rows, project_cfg.c)], dtype=object)
        exact = (inv.reshape(k, k) @ aug.reshape(k, m + 1)).astype(float)
        self.project_cfg, self.u0, self.basic, self.free = project_cfg, u0, S, F
        self.M, self.x0 = exact[:, F], exact[:, m]
        self.phase_rows = G if phase_rows is None else np.asarray(phase_rows, dtype=float)
        self.nv, self.nphi, self.ambient_dim = m - k, self.phase_rows.shape[0], m
        self.dim = self.nv + self.nphi

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """u and its v-derivatives up to ``order`` (at most 2) at the rows of V, elementwise
        but for one einsum (not matmul: a point's sums do not depend on its batch)."""
        S, F, M = self.basic, self.free, self.M
        uF = self.u0[F] + V
        xS = self.x0 - np.einsum("sa,na->ns", M, uF * uF)
        if np.any(xS <= 0.0):
            raise ValueError("chart parameters leave the graph's domain: a basic coordinate reaches 0")
        uS = np.sign(self.u0[S]) * np.sqrt(xS)
        (N, nv), m = V.shape, self.ambient_dim
        u = np.empty((N, m))
        u[:, F], u[:, S] = uF, uS
        parts = [u]
        if order >= 1:
            duS = -M * uF[:, None, :] / uS[:, :, None]  # (N, k, nv)
            du = np.zeros((N, m, nv))
            du[:, F], du[:, S] = np.eye(nv), duS
            parts.append(du)
        if order >= 2:
            d2u = np.zeros((N, m, nv, nv))
            d2u[:, S] = -(M[:, :, None] * np.eye(nv) + duS[:, :, :, None] * duS[:, :, None, :]) / uS[:, :, None, None]
            parts.append(d2u)
        return tuple(parts)

    # defined in this class's own namespace, where perfbench/spans.py wraps them by name
    value, jacobian, hessian = Chart.value, Chart.jacobian, Chart.hessian


class CircleSpreadChart(Chart):
    """Chart (a, phi) -> exp(2 pi i <phi, rows>) * (A cos a + B sin a + C).

    A circle of the real locus (or any plane conic: A, B, C may be complex)
    spread by the phase subgroup of ``rows`` (none, one row, or several).
    u's a-derivatives are B cos a - A sin a, then C - u.
    """

    def __init__(self, A, B, C, rows):
        ABC = np.array([A, B, C], dtype=complex)  # (3, m)
        # the real and imaginary part of each coordinate in turn, so the
        # elementwise terms run in real arithmetic and view back as complex
        self._parts = ABC.view(float)  # (3, 2m)
        self.ambient_dim = ABC.shape[1]
        self.phase_rows = np.asarray(rows, dtype=float).reshape(-1, self.ambient_dim)
        self.nv, self.nphi = 1, self.phase_rows.shape[0]
        self.dim = 1 + self.nphi

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        A, B, C = self._parts
        cos, sin = np.cos(V), np.sin(V)
        rim = cos * A + sin * B
        parts = [rim + C]
        if order >= 1:
            tangent = cos * B - sin * A
            parts += [tangent, -rim][:order]
        N, m = V.shape[0], self.ambient_dim
        return tuple(x.view(complex).reshape((N, m) + (1,) * n) for n, x in enumerate(parts))


class PolytopeChart(Chart):
    """Chart (v, phi) -> phases(phi) * sqrt(x0 + B v) over the open orthant.

    The real quadric locus is the branched cover of the polytope
    {x >= 0 : Gamma x = c} by x = u^2, so on the open orthant it is the graph
    u = sqrt(x) over the polytope's interior. ``x0`` is an interior point
    (Gamma x0 = c, x0 > 0) and the columns of ``B`` an orthonormal basis of
    ker Gamma, so u's v-derivatives are B / (2u) and -B_a B_b / (4u^3).
    Parameters must keep x0 + B v in the open orthant; every derivative
    raises otherwise.
    """

    def __init__(self, Q: QuadricConfiguration, x0, phase_rows: np.ndarray | None = None):
        x0 = np.asarray(x0, dtype=float)
        G = Q.gamma_float()
        if np.any(x0 <= 0.0):
            raise ValueError("polytope chart needs a point of the open orthant")
        if membership_residuals(Q, np.sqrt(x0)) > 1e-8:
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
        return tuple(parts)


@functools.cache
def _derivative_counts(nv: int, n: int) -> np.ndarray:
    """For each of the nv^n axis tuples of an n-th derivative, in C order, how often
    each of the nv axes occurs in it: (nv^n, nv), read-only."""
    counts = np.zeros((nv**n, nv), dtype=int)
    for t, axes in enumerate(itertools.product(range(nv), repeat=n)):
        for a in axes:
            counts[t, a] += 1
    counts.flags.writeable = False
    return counts


# the parameter box of each kind of axis of a global chart
AXIS_BOXES = {"polar": (-0.5 * np.pi, 0.5 * np.pi), "azimuth": (0.0, TWO_PI), "phase": (0.0, 1.0)}
# the nodes of every patch over the whole of N (``ChartPatch.over``) on the axes whose integrands
# are not trigonometric polynomials on an ellipsoid that is not round (``GlobalChart.node_counts``):
# Gauss-Legendre on the polar angles, the trapezoid rule on the azimuths between unequal columns.
# Each ratio's numerator is exact along the other axes, and its scale integral |X| dA, not a
# polynomial in them, is a quadrature estimate that normalizes
WHOLE_NODES = {"polar": 12, "azimuth": 12}


class GlobalChart(Chart):
    """The covering chart (t, phi) -> phases(phi) * u(t) of a product of ellipsoids.

    u_k = r_k * prod_j f_kj(t_j), with f_kj the factor 1, cos or sin that
    the integer table ``factors`` (m, nv) names by 0, 1 or 2. ``kinds`` names
    each parameter axis: "polar" on (-pi/2, pi/2), "azimuth" on [0, 2 pi)
    and "phase" on [0, 1); ``lo`` and ``hi`` hold the box and ``periodic``
    the axes that are not polar. A derivative differentiates each factor as
    often as its angle occurs: cos -> -sin -> -cos.
    """

    def __init__(self, radii, factors, phase_rows, kinds: tuple[str, ...]):
        self.radii = np.asarray(radii, dtype=float)
        self.factors = np.asarray(factors, dtype=int)
        self.phase_rows = np.asarray(phase_rows, dtype=float)
        self.kinds = tuple(kinds)
        self.ambient_dim = self.radii.size
        self.nv, self.nphi = self.factors.shape[1], self.phase_rows.shape[0]
        self.dim = self.nv + self.nphi
        self.lo, self.hi = (np.array([AXIS_BOXES[kind][end] for kind in self.kinds]) for end in (0, 1))
        self.periodic = tuple(a for a, kind in enumerate(self.kinds) if kind != "polar")

    def node_counts(self, frequencies, azimuth_degree: int) -> list[int]:
        """``frequencies[j] + 1`` nodes on phase j, ``azimuth_degree + 1`` on each azimuth whose
        two coordinates have equal columns of Gamma (equal radius and equal phase column), and
        ``WHOLE_NODES[kind]`` on every other axis. The metric and the area element do not move with
        the phases, nor with such an azimuth: rotating the plane of its two coordinates is a
        unitary symmetry of C^m that commutes with the torus and maps N to itself. So an
        integrand of those degrees is a trigonometric polynomial along these axes, and the
        trapezoid rule of n nodes is exact on degrees below n. The table is read only on the
        polar axes and on the other azimuths."""
        return ([azimuth_degree + 1 if kind == "azimuth" and self._rotates_equal_columns(a) else WHOLE_NODES[kind]
                 for a, kind in enumerate(self.kinds[:self.nv])] + [int(top) + 1 for top in frequencies])

    def _rotates_equal_columns(self, a: int) -> bool:
        """Whether the two coordinates of azimuth a, its cos and its sin, have equal columns of Gamma."""
        (i,), (j,) = (np.flatnonzero(self.factors[:, a] == f) for f in (1, 2))
        return self.radii[i] == self.radii[j] and np.array_equal(self.phase_rows[:, i], self.phase_rows[:, j])

    def _u(self, V: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        (N, nv), m = V.shape, self.ambient_dim
        c, s = np.cos(V), np.sin(V)
        one, zero = np.ones_like(c), np.zeros_like(c)
        # the derivatives 0..2 of each factor at each angle: (N, factor, nv, 3)
        table = np.stack([np.stack([one, zero, zero], -1),
                          np.stack([c, -s, -c], -1),
                          np.stack([s, c, -s], -1)], axis=1)
        F = table[:, self.factors, np.arange(nv), :]  # (N, m, nv, 3)
        parts = []
        for n in range(order + 1):
            counts = _derivative_counts(nv, n)
            D = self.radii[:, None] * F[:, :, np.arange(nv), counts].prod(axis=-1)  # (N, m, nv^n)
            parts.append(D.reshape((N, m) + (nv,) * n))
        return tuple(parts)


def _sphere_factors(n: int) -> list[list[int]]:
    """The factor table (n, n - 1) of hyperspherical coordinates of S^(n-1):
    x_0 = C cos b, x_1 = C sin b with C the cosines of the n - 2 polar angles
    a_1, ..., and x_i = cos a_1 ... cos a_(n-i-1) sin a_(n-i) for i >= 2; the
    azimuth b is the last angle."""
    if n == 1:
        return [[]]
    table = [[1] * (n - 1), [1] * (n - 2) + [2]]
    for i in range(2, n):
        p = n - i  # x_i ends in sin a_p
        table.append([1] * (p - 1) + [2] + [0] * (n - 1 - p))
    return table


def global_chart(Q: QuadricConfiguration) -> GlobalChart | None:
    """The covering chart of N when its real locus is a product of ellipsoids, else None.

    Column i of Gamma is g_i p_i, with g_i its gcd and p_i primitive. If the
    p_i take exactly k values, Gamma (u u) = c reads P l = c with P the k
    distinct p as columns and l_j = sum over the class of p_j of g_i u_i^2;
    if every level l_j is positive, each class is an ellipsoid with radii
    sqrt(l_j / g_i). Each block of coordinates then takes hyperspherical
    angles, and N takes the phases phi in [0, 1)^k through the rows of D Gamma,
    D the dual basis (``Q.dual_basis``): the unit phi-box is one fundamental
    domain of the torus. D Gamma is exact and integer, since Gamma's columns
    lie in the lattice D is dual to. The cover has the same multiplicity at
    almost every point of N, which every ratio of the variational checks
    cancels. Computed once per configuration and kept on it.
    """
    if Q._global_chart is NOT_COMPUTED:
        Q._global_chart = _solve_global_chart(Q)
    return Q._global_chart


def _solve_global_chart(Q: QuadricConfiguration) -> GlobalChart | None:
    classes: dict[tuple[int, ...], list[int]] = {}
    gcds = []
    for i, column in enumerate(zip(*Q.gamma.entries)):
        g = math.gcd(*column)
        if g == 0:
            return None
        classes.setdefault(tuple(x // g for x in column), []).append(i)
        gcds.append(g)
    k, m = Q.num_quadrics, Q.ambient_dim
    if len(classes) != k:
        return None
    primitive = list(classes)
    levels = solve_square([[p[r] for p in primitive] for r in range(k)], Q.c)
    if levels is None or min(levels) <= 0:
        return None
    squares, nv = [0] * m, sum(len(block) - 1 for block in classes.values())
    factors, kinds = np.zeros((m, nv), dtype=int), []
    for level, block in zip(levels, classes.values()):
        first = len(kinds)
        kinds += ["polar"] * (len(block) - 2) + ["azimuth"] * (len(block) > 1)
        for i, row in zip(block, _sphere_factors(len(block))):
            squares[i] = level / gcds[i]
            factors[i, first:len(kinds)] = row
    rows = [float_array([sum(d * g for d, g in zip(dual, column)) for column in zip(*Q.gamma.entries)], f"D Gamma[{j}]")
            for j, dual in enumerate(Q.dual_basis)]
    return GlobalChart(np.sqrt(float_array(squares, "squared radius")), factors, rows, tuple(kinds) + ("phase",) * k)
