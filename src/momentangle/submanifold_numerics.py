"""Numerical differential geometry on quadric intersections and their
torus-spread Lagrangians: frames, symplectic pairings, mean curvature,
variational derivatives, codifferential residuals, conserved-quantity drift.

The symplectic form is the paper's constant one,
omega(u, v) = OMEGA_SCALE * sum_k (x_k(u) y_k(v) - y_k(u) x_k(v)) with
OMEGA_SCALE = -1/pi, which makes z -> (|z_k|^2) exactly the moment map for
torus generators parametrized as exp(2 pi i <gamma_k, phi>). Every verdict
computed here is invariant under that scale.

Points of a chart travel as a ``ChartSample``, which holds their jet,
solved once through the order its checks read; every pointwise check takes
one and returns one value per point, shape (N,).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .charts import (
    Chart,
    NonConvergenceError,
    PolytopeChart,
    TorusSpreadChart,
    c2r,
    r2c,
)
from .quadrature import bump_poly, bump_poly_dsq, bump_poly_dsq2
from .quadric_config import QuadricConfiguration, membership_residuals
from .torus_actions import orbit_volume, torus_point, torus_subgroup

TWO_PI = 2.0 * np.pi
OMEGA_SCALE = -1.0 / np.pi


class InvarianceError(ValueError):
    """A function claimed invariant under the torus action is not."""


@dataclass
class MetricSpec:
    """The knobs behind the ``--tol`` names.

    Every field is set by exactly one tolerance name (``cli._TOL_FIELDS``)
    and read by some check.
    """

    tol_membership: float = 1e-10
    newton_tol: float = 1e-10


DEFAULT_SPEC = MetricSpec()


@dataclass
class ChartSample:
    """Points of one chart evaluated together: ``params`` (N, d) and their ``jet``
    (z, J, ..., D^order), the chart's one evaluation through the order the
    sample's checks read. ``points`` (N, m) is the jet's order 0, and
    ``bases`` (N, m) the point of the real locus under each. A slice slices
    the jet; one point is the sample ``s[i:i + 1]``. The pointwise residual
    functions take a whole sample and return one value per point.
    """

    chart: Chart
    params: np.ndarray
    jet: tuple[np.ndarray, ...]
    bases: np.ndarray

    @classmethod
    def at(cls, chart: Chart, params: np.ndarray, order: int) -> ChartSample:
        """The sample of ``chart`` at ``params`` through ``order``; its bases are u(v) of the same solve."""
        jet, u = chart.jet_and_base(params, order)
        return cls(chart, params, jet, u.real)

    @property
    def points(self) -> np.ndarray:
        return self.jet[0]

    def __len__(self) -> int:
        return self.params.shape[0]

    def __getitem__(self, s: slice) -> ChartSample:
        if not isinstance(s, slice):
            raise TypeError("a ChartSample takes slices; one point is sample[i:i + 1]")
        return ChartSample(self.chart, self.params[s], tuple(D[s] for D in self.jet), self.bases[s])


# ---------------------------------------------------------------------------
# symplectic pairing helpers


def omega_matrix(m: int) -> np.ndarray:
    """Matrix of the symplectic form on R^{2m} in the (x..., y...) stacking."""
    Om = np.zeros((2 * m, 2 * m))
    Om[:m, m:] = np.eye(m)
    Om[m:, :m] = -np.eye(m)
    return OMEGA_SCALE * Om


def omega_pair(u, v) -> float | np.ndarray:
    """omega(u, v) for complex vectors; equals OMEGA_SCALE * Im <u, v>_Hermitian."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return OMEGA_SCALE * np.imag(np.sum(np.conj(u) * v, axis=-1))


def frame_symplectic_residual(vectors: np.ndarray) -> float | np.ndarray:
    """max |omega(e_i, e_j)| over all pairs from a set of complex vectors.

    Batched over leading axes: a stack (N, d, m) of sets gives N values.
    """
    V = np.asarray(vectors, dtype=complex)
    gram = V.conj() @ np.swapaxes(V, -2, -1)
    worst = np.abs(OMEGA_SCALE * np.imag(gram)).max(axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# chart samples and frames


def chart_point(
    chart: Chart,
    params: Sequence[float],
    Q: QuadricConfiguration | None = None,
    spec: MetricSpec = DEFAULT_SPEC,
) -> ChartSample:
    """The one-point sample of ``chart`` at ``params``, checked against ``Q`` if given.

    It carries the jet through third order, every order a check reads. Its
    base is |z|: the real locus is invariant under coordinatewise sign
    changes, so |z| is the real point in the orthant under a spread point.
    """
    S = np.asarray(params, dtype=float)[None, :]
    jet = chart.jet(S, 3)
    if Q is not None:
        res = float(membership_residuals(Q, jet[0]).max())
        if res > spec.tol_membership:
            raise ValueError(f"chart point violates the quadric system: residual {res:.3e}")
    return ChartSample(chart, S, jet, np.abs(jet[0]))


def chart_N(
    Q: QuadricConfiguration,
    u0,
    v: Sequence[float],
    phi: Sequence[float],
    spec: MetricSpec = DEFAULT_SPEC,
) -> ChartSample:
    """Point of the torus-spread Lagrangian over base u0 at parameters (v, phi)."""
    chart = TorusSpreadChart(Q, u0, newton_tol=spec.newton_tol)
    params = np.concatenate([np.asarray(v, dtype=float), np.asarray(phi, dtype=float)])
    return chart_point(chart, params, Q=Q, spec=spec)


def tangent_frames(Q: QuadricConfiguration | None, sample: ChartSample) -> np.ndarray:
    """Orthonormal frames (N, d, m) spanning the chart jacobian's columns at each sample.

    Raises if any jacobian is rank deficient or, given ``Q``, if any frame
    fails to annihilate the quadric differentials at the sample's points.
    """
    J = sample.jet[1]  # (N, m, d)
    Jr = np.concatenate([J.real, J.imag], axis=-2)  # (N, 2m, d)
    Qm, R = np.linalg.qr(Jr)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    if np.any(diag.min(axis=-1) < 1e-8 * np.maximum(1.0, diag.max(axis=-1))):
        raise NonConvergenceError("chart jacobian is rank deficient; chart degenerate here")
    vectors = r2c(np.swapaxes(Qm, -2, -1))
    if Q is not None:
        # frame vectors must annihilate the quadric differentials
        grads = 2.0 * Q.gamma_float() * sample.points[:, None, :]  # complex rows <-> real gradients
        pair = np.real(vectors @ np.conj(np.swapaxes(grads, -2, -1)))
        if np.abs(pair).max() > 1e-6:
            raise NonConvergenceError("frame fails to annihilate the constraint differentials")
    return vectors


def tangent_frame_Z(Q: QuadricConfiguration, Z: np.ndarray) -> np.ndarray:
    """Orthonormal frames (N, 2m - k, m) of the tangent spaces of the quadric intersection at the rows of Z."""
    k = Q.num_quadrics
    grads = c2r(2.0 * Q.gamma_float() * np.asarray(Z, dtype=complex)[:, None, :])  # (N, k, 2m)
    full, _ = np.linalg.qr(np.swapaxes(grads, -2, -1), mode="complete")
    return r2c(np.swapaxes(full[:, :, k:], -2, -1))


def lagrangian_residual(Q: QuadricConfiguration | None, sample: ChartSample) -> np.ndarray:
    """max |omega(e_i, e_j)| over an orthonormal tangent frame, per sample, from one batched QR."""
    return frame_symplectic_residual(tangent_frames(Q, sample))


# ---------------------------------------------------------------------------
# curvature


def _curvature_batch(Jr: np.ndarray, g: np.ndarray, Hess: np.ndarray) -> np.ndarray:
    """The unnormalized mean curvature vector H_real (N, 2m): trace_g of the
    normal projection of the second derivatives, from the real jacobian
    Jr (N, 2m, d), the induced metric g (N, d, d) and the jet's hessian
    (N, m, d, d)."""
    Hr = np.concatenate([Hess.real, Hess.imag], axis=-3)
    ginv = np.linalg.inv(g)
    tr = np.einsum("nab,niab->ni", ginv, Hr)
    Qm, _ = np.linalg.qr(Jr)
    tang = np.einsum("nia,na->ni", Qm, np.einsum("nia,ni->na", Qm, tr))
    return tr - tang


def minimality_residual_in_Z(Q: QuadricConfiguration, sample: ChartSample) -> np.ndarray:
    """Norm of the mean curvature component tangent to the quadric set, per sample.

    The second fundamental form of the submanifold inside the quadric
    intersection is the intersection-tangential part of the flat one, so
    this is |H| of the embedding into the quadric set.
    """
    _, J, Hess = sample.jet[:3]
    Jr = np.concatenate([J.real, J.imag], axis=-2)
    H = _curvature_batch(Jr, np.einsum("nia,nib->nab", Jr, Jr), Hess)
    grads = c2r(2.0 * Q.gamma_float() * sample.points[:, None, :])  # (N, k, 2m), the normals to Z
    stacked = np.concatenate([Jr, np.swapaxes(grads, -2, -1)], axis=-1)
    Qm, _ = np.linalg.qr(stacked)
    tang = np.einsum("nia,na->ni", Qm, np.einsum("nia,ni->na", Qm, H))
    return np.linalg.norm(H - tang, axis=-1)


# ---------------------------------------------------------------------------
# Hamiltonian fields


class VectorField(NamedTuple):
    """An ambient vector field with its real derivative.

    ``value`` maps points (N, m) to field values (N, m). ``derivative(P, V)``
    maps the points and d ambient vectors at each, (N, d, m), to DX(P)[V]
    (N, d, m). The derivative is real-linear in V, so fields with conj(z)
    terms are covered. Calling the field gives its value.
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, P: np.ndarray) -> np.ndarray:
        return self.value(P)


def _field_from_gradient(grad_vals: np.ndarray) -> np.ndarray:
    """The X with i_X omega = df, from df packed as d/dx + i d/dy.

    On flat C^m, -omega inverts in closed form: X = -i grad f / OMEGA_SCALE.
    """
    return -1j * np.asarray(grad_vals, dtype=complex) / OMEGA_SCALE


def hamiltonian_field_batch(grad: Callable[[np.ndarray], np.ndarray], Z) -> np.ndarray:
    """Hamiltonian field over a batch (N, m) of points from a closed-form gradient.

    ``grad`` maps the batch to the real gradients packed as complex vectors
    (d/dx + i d/dy).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    return _field_from_gradient(grad(Z))


def hamiltonian_vector_field(
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> VectorField:
    """The Hamiltonian field of f with its derivative, both in closed form.

    X = -i grad f / OMEGA_SCALE is linear in grad f, so DX[V] = -i Hess f[V] /
    OMEGA_SCALE. ``hess(Z, V)`` applies the Hessian of f at the points Z
    (N, m) to ambient vectors V (N, d, m), packed like ``grad``.
    """
    return VectorField(
        lambda Z: hamiltonian_field_batch(grad, Z),
        lambda Z, V: _field_from_gradient(hess(Z, V)),
    )


def _poly_scalar(m: int, rng: np.random.Generator) -> tuple[Callable, Callable, Callable]:
    """Random real polynomial of degree <= 2 in the real coordinates, its gradient and Hessian.

    All are batched; the gradient lin + 2 quad x is packed as d/dx + i d/dy,
    and ``hess(z, V)`` applies the Hessian 2 quad to ambient vectors V
    (N, d, m), packed the same way.
    """
    lin = rng.standard_normal(2 * m)
    quad = rng.standard_normal((2 * m, 2 * m))
    quad = 0.5 * (quad + quad.T)

    def f(z):
        xr = c2r(np.atleast_2d(np.asarray(z, dtype=complex)))
        return xr @ lin + np.einsum("ni,ij,nj->n", xr, quad, xr)

    def grad(z):
        xr = c2r(np.atleast_2d(np.asarray(z, dtype=complex)))
        return r2c(lin + 2.0 * xr @ quad)

    def hess(z, V):
        return r2c(2.0 * c2r(V) @ quad)

    return f, grad, hess


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The real inner product of packed complex vectors along the last axis."""
    return np.real(np.sum(np.conj(a) * b, axis=-1))


def _radial_cutoff(
    poly: tuple[Callable, Callable, Callable], z0: np.ndarray, rho: float
) -> tuple[Callable, Callable, Callable]:
    """poly localized by bump_poly(|z - z0| / rho), with its gradient and Hessian.

    The cutoff is b(s) = (1 - s)^4 in s = |z - z0|^2 / rho^2, with b' =
    ``bump_poly_dsq`` and b'' = ``bump_poly_dsq2``, and grad s = 2 (z - z0) /
    rho^2, so no division by |z - z0|. Gradient and Hessian are the product
    rule inside the support and 0 outside; the polynomial is evaluated only
    at the points inside.
    """
    poly_f, poly_grad, poly_hess = poly

    def dist(z):
        d = np.atleast_2d(np.asarray(z, dtype=complex)) - z0
        return d, np.sqrt(np.sum(np.abs(d) ** 2, axis=-1)) / rho

    def f(z):
        return bump_poly(dist(z)[1]) * poly_f(z)

    def grad(z):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        d, r = dist(z)
        out = np.zeros_like(d)
        inside = r < 1.0
        d, r, z = d[inside], r[inside], z[inside]
        cut_grad = (2.0 / rho**2) * bump_poly_dsq(r)[:, None] * d
        out[inside] = bump_poly(r)[:, None] * poly_grad(z) + poly_f(z)[:, None] * cut_grad
        return out

    def hess(z, V):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        d, r = dist(z)
        out = np.zeros(V.shape, dtype=complex)
        inside = r < 1.0
        d, r, z, V = d[inside], r[inside], z[inside], V[inside]
        b, b1, b2 = (fn(r)[:, None, None] for fn in (bump_poly, bump_poly_dsq, bump_poly_dsq2))
        p, gp = poly_f(z)[:, None, None], poly_grad(z)[:, None, :]
        gs = (2.0 / rho**2) * d[:, None, :]  # grad s
        gp_v, gs_v = _real_dot(gp, V)[..., None], _real_dot(gs, V)[..., None]
        out[inside] = (b * poly_hess(z, V) + b1 * (gs * gp_v + gp * gs_v)
                       + p * (b2 * gs * gs_v + (2.0 / rho**2) * b1 * V))
        return out

    return f, grad, hess


def noether_drift(
    Q: QuadricConfiguration,
    f: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    rng: np.random.Generator | None = None,
) -> float:
    """max |dmu/dt| of the quadric moment values at z along the Hamiltonian field of f.

    ``grad`` is f's closed-form gradient, packed as for
    ``hamiltonian_field_batch``. The rate is exact: d|z_k|^2/dt =
    2 Re(conj(z_k) X_k), so dmu/dt = Gamma 2 Re(conj(z) X). ``f`` must be
    invariant under the configuration's torus; invariance is spot-checked
    at random torus elements and an ``InvarianceError`` is raised on
    violation.
    """
    z = np.asarray(z, dtype=complex)
    rng = np.random.default_rng(7) if rng is None else rng
    f0 = float(np.asarray(f(z[None, :]))[0])
    for _ in range(8):
        phases = torus_point(Q, rng.uniform(0.0, 1.0, Q.num_quadrics))
        fv = float(np.asarray(f((phases * z)[None, :]))[0])
        if abs(fv - f0) > 1e-8 * (1.0 + abs(f0)):
            raise InvarianceError("function is not invariant under the configuration torus")
    X = hamiltonian_field_batch(grad, z)[0]
    rate = Q.gamma_float() @ (2.0 * np.real(np.conj(z) * X))
    return float(np.abs(rate).max())


# ---------------------------------------------------------------------------
# patches and variations


@dataclass
class ChartPatch:
    """The nodes of a tensor Gauss-Legendre grid on a chart box as one
    sample, with their weights ``w`` and optional compact bump weights.

    ``bump_axes`` lists the parameter axes along which the deformation must
    vanish at the boundary (periodic/full axes carry no bump). The ambient
    is flat C^m. The sample is built through ``order``: 1 for volumes and
    their derivatives, 2 for the curvature integral. The induced metric
    ``g`` (N, d, d), the area element ``elem`` and, at order 2, the real
    mean curvature ``curvature`` (N, 2m) are computed at construction, once
    for every field. Boxes have dimension at most 4.
    """

    chart: Chart
    lo: np.ndarray
    hi: np.ndarray
    nodes: int | Sequence[int]
    order: int
    bump_axes: tuple[int, ...] = ()
    sample: ChartSample = field(init=False)
    w: np.ndarray = field(init=False)
    g: np.ndarray = field(init=False)
    elem: np.ndarray = field(init=False)
    curvature: np.ndarray | None = field(init=False)

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.lo.size != self.chart.dim:
            raise ValueError("box dimension disagrees with the chart")
        if self.chart.dim > 4:
            raise ValueError(f"patch boxes have dimension at most 4, got {self.chart.dim}")
        S, self.w = quadrature.tensor_grid(self.lo, self.hi, self.nodes)
        self.sample = ChartSample.at(self.chart, S, self.order)
        J = self.sample.jet[1]
        Jr = np.concatenate([J.real, J.imag], axis=1)
        self.g = np.swapaxes(Jr, 1, 2) @ Jr
        self.elem = np.sqrt(np.linalg.det(self.g))
        self.curvature = _curvature_batch(Jr, self.g, self.sample.jet[2]) if self.order == 2 else None

    def bump_at(self, S: np.ndarray) -> np.ndarray:
        if not self.bump_axes:
            return np.ones(np.atleast_2d(S).shape[0])
        return quadrature.box_bump(S, self.lo, self.hi, self.bump_axes)

    def bump_gradient_at(self, S: np.ndarray) -> np.ndarray:
        """Gradient (N, d) of the bump in the chart parameters (0 with no bump axes)."""
        return quadrature.box_bump_gradient(S, self.lo, self.hi, self.bump_axes)


def patch_volume(patch: ChartPatch) -> float:
    return float(np.sum(patch.w * patch.elem))


def patch_volume_derivative(patch: ChartPatch, X: VectorField) -> float:
    """d/dt at t=0 of the patch volume under z -> z + t * bump * X(z).

    Jacobi's formula, with no difference in t: with
    J_Y = bump * DX(P)[J_P] + X(P) (x) grad bump, the deformed metric
    g(t) = (J_P + t J_Y)^T (J_P + t J_Y) has dg/dt = J_Y^T J_P + J_P^T J_Y,
    and dVol/dt = sum w * sqrt(det g) * 1/2 tr(g^-1 dg/dt), from the
    patch's chart data and the field's closed-form derivative (``X`` is a
    ``VectorField``). The variation is free: deformed points are not
    re-projected onto the quadric set.
    """
    return patch_volume_and_derivative(patch, X)[1]


def patch_volume_and_derivative(patch: ChartPatch, X: VectorField) -> tuple[float, float]:
    """(vol(patch), dVol/dt) as in ``patch_volume_derivative``, from the patch's jacobian and metric."""
    if not isinstance(X, VectorField):
        raise TypeError("a volume derivative needs a VectorField with its derivative")
    P, S, g, elem = patch.sample.points, patch.sample.params, patch.g, patch.elem
    JP = np.swapaxes(patch.sample.jet[1], 1, 2)  # (N, d, m): the chart's columns as ambient vectors
    JY = X.derivative(P, JP)
    if patch.bump_axes:
        JY = (patch.bump_at(S)[:, None, None] * JY
              + patch.bump_gradient_at(S)[:, :, None] * np.asarray(X(P))[:, None, :])
    JY = c2r(JY)
    # only the nodes the deformation moves contribute; a localized field moves few
    moved = np.flatnonzero(np.any(JY, axis=(1, 2)))
    half_dg = c2r(JP[moved]) @ np.swapaxes(JY[moved], 1, 2)
    rate = np.trace(np.linalg.solve(g[moved], half_dg), axis1=1, axis2=2)
    return float(np.sum(patch.w * elem)), float(np.sum((patch.w * elem)[moved] * rate))


def first_variation_integral(patch: ChartPatch, X: Callable[[np.ndarray], np.ndarray]) -> float:
    """The curvature quadrature -integral <H, X> * bump dA over a patch.

    By the first variation formula this equals ``patch_volume_derivative``
    for the same field, from independent (second-derivative) chart data, so
    it reads a patch of order 2.
    """
    if patch.curvature is None:
        raise ValueError("the curvature integral reads a patch of order 2")
    P, S = patch.sample.points, patch.sample.params
    Xr = c2r(X(P))
    return -float(np.sum(patch.w * patch.bump_at(S) * np.einsum("ni,ni->n", patch.curvature, Xr) * patch.elem))


def stationarity_ratio(patch: ChartPatch, Xf: VectorField, localized: bool = False) -> float:
    """|dVol/dt| of a candidate field over the scale max|Xf| * vol(patch).

    ``Xf`` is the candidate field; max|Xf| is the largest modulus of a field
    component on the quadrature nodes. A submanifold of unit mean curvature changes volume at about the
    rate max|Xf| * vol(patch), so a stationary variation reads near 0 and a
    volume-changing one reads of the order of |H|. With ``localized`` the candidate must vanish on the
    outermost shell of the patch box; a field that leaks raises.
    """
    S = patch.sample.params
    Xvals = np.asarray(Xf(patch.sample.points))
    xmax = float(np.abs(Xvals).max())
    if localized:
        margin = 0.08 * (patch.hi - patch.lo)
        near = np.any((S < patch.lo + margin) | (S > patch.hi - margin), axis=1)
        leak = float(np.abs(Xvals[near]).max()) if near.any() else 0.0
        if leak > 1e-8 * max(xmax, 1e-12):
            raise RuntimeError("localized field leaks outside the chart patch")
    vol, dvol = patch_volume_and_derivative(patch, Xf)
    return abs(dvol) / (xmax * vol)


def hminimality_residual(Q: QuadricConfiguration | None, sample: ChartSample) -> np.ndarray:
    """|delta(i_H omega)| at each sample, computed in chart coordinates.

    The 1-form alpha_a = omega(H, J_a) (H the normal part of g^bc Hess_bc)
    is sharped with the induced metric, W = g^-1 alpha, and its
    codifferential is the negative divergence
    -(d_c W^c + 1/2 tr(g^-1 d_c g) W^c). Every d_c is the product rule on
    the sample's jacobian J, hessian and third derivative, so a chart with
    closed-form derivatives takes no stencil.
    """
    _, J, Hess, T = sample.jet
    J, Hess, T = (np.concatenate([X.real, X.imag], axis=1) for X in (J, Hess, T))
    Om = omega_matrix(sample.chart.ambient_dim)
    g = np.einsum("nia,nib->nab", J, J)
    gi = np.linalg.inv(g)
    dg = np.einsum("niac,nib->ncab", Hess, J)
    dg = dg + np.swapaxes(dg, 2, 3)  # d_c g_ab
    dgi = -gi[:, None] @ dg @ gi[:, None]  # d_c g^ab
    # H = tr - J y, tr = g^ab Hess_ab, y = g^-1 J^T tr
    tr = np.einsum("nab,niab->ni", gi, Hess)
    dtr = np.einsum("ncab,niab->nic", dgi, Hess) + np.einsum("nab,niabc->nic", gi, T)
    Jtr = np.einsum("nia,ni->na", J, tr)
    dJtr = np.einsum("niac,ni->nac", Hess, tr) + np.einsum("nia,nic->nac", J, dtr)
    y = np.einsum("nab,nb->na", gi, Jtr)
    dy = np.einsum("ncab,nb->nac", dgi, Jtr) + np.einsum("nab,nbc->nac", gi, dJtr)
    H = tr - np.einsum("nia,na->ni", J, y)
    dH = dtr - np.einsum("niac,na->nic", Hess, y) - np.einsum("nia,nac->nic", J, dy)
    OmJ = np.einsum("ij,nja->nia", Om, J)
    alpha = np.einsum("ni,nia->na", H, OmJ)
    dalpha = np.einsum("nic,nia->nac", dH, OmJ) + np.einsum("ni,ij,njac->nac", H, Om, Hess)
    W = np.einsum("nab,nb->na", gi, alpha)
    div = np.einsum("naab,nb->n", dgi, alpha) + np.einsum("nab,nba->n", gi, dalpha)
    # d_c log sqrt(det g); dg is symmetric in (a, b), and these subscripts
    # follow its layout, so a point's sum runs in the same order in any batch
    log_sqrtg = 0.5 * np.einsum("nab,ncab->nc", gi, dg)
    return np.abs(div + np.einsum("nc,nc->n", log_sqrtg, W))


# ---------------------------------------------------------------------------
# co-area

def coarea_orbit_volume_check(Q: QuadricConfiguration, nodes: int) -> tuple[float, float]:
    """Volume of a chart patch of the spread submanifold vs the fiber integral.

    Both sides run over one ``PolytopeChart`` at x0 = real_base_point(Q)**2
    and over the v-box [-a, a]^(m-k) whose half-width a is half that of the
    largest cube about x0 in the orthant, so x0 + B v >= x0 / 2 on it.
    Upstairs: Riemannian volume of the chart box (v-box) x (one fundamental
    domain of the phase torus, reached by running the unit phi-box through a
    dual-lattice basis so each orbit is covered exactly once).
    Downstairs: integral of the orbit-volume function over the same v-box of
    the real locus, with the base metric from the exact jacobian B / (2u).
    The chart's metric has no v-phi block, so sqrt det g is the base area
    element times the orbit volume at every node, and the two numbers agree
    to rounding.
    """
    T = torus_subgroup(Q)
    dual = np.array(
        [[float(x) for x in row] for row in T.dual_basis.entries], dtype=float
    ).reshape(T.dim, T.dim)
    chart = PolytopeChart(Q, real_base_point(Q) ** 2, phase_rows=dual @ Q.gamma_float())
    with np.errstate(divide="ignore"):
        half = np.full(chart.nv, 0.5 * np.min(chart.x0 / np.abs(chart.B).sum(axis=1)))
    lo = np.concatenate([-half, np.zeros(chart.nphi)])
    hi = np.concatenate([half, np.ones(chart.nphi)])
    upstairs = patch_volume(ChartPatch(chart=chart, lo=lo, hi=hi, nodes=nodes, order=1))

    Sv, wv = quadrature.tensor_grid(-half, half, nodes)
    Z, J = chart.jet(np.concatenate([Sv, np.zeros((len(Sv), chart.nphi))], axis=1), 1)
    Ju = J[:, :, : chart.nv].real  # B / (2u) at phi = 0
    elem = np.sqrt(np.linalg.det(np.swapaxes(Ju, 1, 2) @ Ju))
    vo = orbit_volume(Q, Z)
    return upstairs, float(np.sum(wv * np.asarray(vo) * elem))


# ---------------------------------------------------------------------------
# sampling


def real_base_point(Q: QuadricConfiguration) -> np.ndarray:
    """A strictly positive point of the real quadric locus, from an exact LP."""
    t = Q.positive_solution
    if t is None:
        raise ValueError("no strictly positive solution; configuration has empty interior")
    return np.sqrt(np.array([float(x) for x in t]))


# Samples stop at this fraction of the way from x0 to the first face of the
# polytope, so every sample keeps x >= (1 - SAMPLE_REACH) * x0 coordinatewise
# (x >= 0.1 on every catalog instance): the chart's derivatives grow like
# powers of 1 / u, and stay bounded away from the faces.
SAMPLE_REACH = 0.5


def sample_chart_points(
    Q: QuadricConfiguration,
    count: int,
    rng: np.random.Generator,
    spec: MetricSpec = DEFAULT_SPEC,
    phase_rows: np.ndarray | None = None,
    *,
    order: int,
) -> ChartSample:
    """Random points of one ``PolytopeChart`` at x0 = real_base_point(Q)**2, evaluated through ``order``.

    Each sample moves x from x0 along a uniformly random unit direction of
    ker Gamma, by a uniform fraction of ``SAMPLE_REACH`` times the distance
    to the first face, capped at |x0| (a direction may meet no face), and
    takes uniform phases over ``phase_rows`` (default: the rows of Gamma).
    Every point is checked against the quadrics at ``spec.tol_membership``.
    """
    chart = PolytopeChart(Q, real_base_point(Q) ** 2, phase_rows=phase_rows)
    W = rng.standard_normal((count, chart.nv))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    dx = W @ chart.B.T
    with np.errstate(divide="ignore"):
        to_face = np.where(dx < 0.0, chart.x0 / -dx, np.inf).min(axis=1)
    reach = SAMPLE_REACH * np.minimum(to_face, np.linalg.norm(chart.x0))
    V = (reach * rng.uniform(0.0, 1.0, count))[:, None] * W
    Phi = rng.uniform(0.0, 1.0, (count, chart.nphi))
    sample = ChartSample.at(chart, np.concatenate([V, Phi], axis=1), order)
    res = float(membership_residuals(Q, sample.points).max())
    if res > spec.tol_membership:
        raise ValueError(f"chart point violates the quadric system: residual {res:.3e}")
    return sample
