"""Numerical differential geometry on quadric intersections and their
torus-spread Lagrangians: frames, symplectic pairings, mean curvature,
variational derivatives, codifferential residuals, conserved-quantity drift.

Conventions live in one place (``MetricSpec``). The symplectic form is
omega(u, v) = omega_scale * sum_k (x_k(u) y_k(v) - y_k(u) x_k(v)); the
default scale -1/pi makes z -> (|z_k|^2) exactly the moment map for torus
generators parametrized as exp(2 pi i <gamma_k, phi>). Every verdict
computed here is invariant under that scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fd, lp, quadrature
from .charts import (
    Chart,
    NonConvergenceError,
    PolytopeChart,
    TorusSpreadChart,
    c2r,
    project_complex,
    project_real,
    r2c,
)
from .quadric_config import (
    QuadricConfiguration,
    membership_residual,
    membership_residuals,
    moment_map,
)
from .torus_actions import orbit_volume, torus_point

TWO_PI = 2.0 * np.pi


class InvarianceError(ValueError):
    """A function claimed invariant under the torus action is not."""


@dataclass
class MetricSpec:
    """Symplectic/metric conventions, steps and the tolerance bundle."""

    omega_scale: float = -1.0 / np.pi
    tol_membership: float = 1e-10
    tol_curvature: float = 1e-6
    step: float = 1e-4  # t-derivatives of deformed volumes
    step_chart: float = 1e-3  # chart jacobians / hessians
    step_divergence: float = 3e-3  # outer derivative in the codifferential
    step_gradient: float = 3e-3  # gradients of ambient scalar functions
    fd_order: int = 4
    newton_tol: float = 1e-10
    newton_max_iter: int = 60


DEFAULT_SPEC = MetricSpec()


@dataclass
class ChartPoint:
    """A point of a constructed submanifold with the chart that produced it."""

    chart: Chart
    params: np.ndarray
    point: np.ndarray
    base: np.ndarray | None = None


@dataclass
class ChartSample:
    """Points of one chart drawn together: ``params`` (N, d), ``points`` (N, m).

    ``bases`` (N, m) holds the point of the real locus under each sample.
    Indexing gives a ``ChartPoint`` (a slice gives a ``ChartSample``), so a
    sample also reads as a sequence of points. The pointwise residual
    functions take a whole sample and return one value per point.
    """

    chart: Chart
    params: np.ndarray
    points: np.ndarray
    bases: np.ndarray

    def __len__(self) -> int:
        return self.params.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ChartSample(self.chart, self.params[i], self.points[i], self.bases[i])
        return ChartPoint(self.chart, self.params[i], self.points[i], self.bases[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _batch(p: ChartPoint | ChartSample) -> tuple[np.ndarray, np.ndarray]:
    """(params (N, d), points (N, m)) of a sample, or of one point as N = 1."""
    if isinstance(p, ChartSample):
        return p.params, p.points
    return p.params[None, :], p.point[None, :]


def _per_point(p: ChartPoint | ChartSample, values: np.ndarray) -> float | np.ndarray:
    """The values of a sample, or the float of one point."""
    return values if isinstance(p, ChartSample) else float(values[0])


@dataclass
class TangentFrame:
    vectors: np.ndarray  # (dim, m) complex, orthonormal as real 2m-vectors
    jacobian: np.ndarray  # (m, dim) complex chart jacobian


# ---------------------------------------------------------------------------
# symplectic pairing helpers


def omega_matrix(m: int, spec: MetricSpec = DEFAULT_SPEC) -> np.ndarray:
    """Matrix of the symplectic form on R^{2m} in the (x..., y...) stacking."""
    Om = np.zeros((2 * m, 2 * m))
    Om[:m, m:] = np.eye(m)
    Om[m:, :m] = -np.eye(m)
    return spec.omega_scale * Om


def omega_pair(u, v, spec: MetricSpec = DEFAULT_SPEC) -> float | np.ndarray:
    """omega(u, v) for complex vectors; equals omega_scale * Im <u, v>_Hermitian."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return spec.omega_scale * np.imag(np.sum(np.conj(u) * v, axis=-1))


def frame_symplectic_residual(
    vectors: np.ndarray, spec: MetricSpec = DEFAULT_SPEC
) -> float | np.ndarray:
    """max |omega(e_i, e_j)| over all pairs from a set of complex vectors.

    Batched over leading axes: a stack (N, d, m) of sets gives N values.
    """
    V = np.asarray(vectors, dtype=complex)
    gram = V.conj() @ np.swapaxes(V, -2, -1)
    worst = np.abs(spec.omega_scale * np.imag(gram)).max(axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# chart points and frames


def chart_point(
    chart: Chart,
    params: Sequence[float],
    Q: QuadricConfiguration | None = None,
    spec: MetricSpec = DEFAULT_SPEC,
) -> ChartPoint:
    params = np.asarray(params, dtype=float)
    z = chart.value(params[None, :])[0]
    if Q is not None and chart.ambient == "complex":
        res = membership_residual(Q, z)
        if res > spec.tol_membership:
            raise ValueError(f"chart point violates the quadric system: residual {res:.3e}")
    return ChartPoint(chart=chart, params=params, point=z, base=getattr(chart, "u0", None))


def chart_N(
    Q: QuadricConfiguration,
    u0,
    v: Sequence[float],
    phi: Sequence[float],
    spec: MetricSpec = DEFAULT_SPEC,
) -> ChartPoint:
    """Point of the torus-spread Lagrangian over base u0 at parameters (v, phi)."""
    chart = TorusSpreadChart(Q, u0, newton_tol=spec.newton_tol)
    params = np.concatenate([np.asarray(v, dtype=float), np.asarray(phi, dtype=float)])
    return chart_point(chart, params, Q=Q, spec=spec)


def _real_jacobian(chart: Chart, S: np.ndarray, spec: MetricSpec) -> np.ndarray:
    J = chart.jacobian(np.atleast_2d(S), spec.step_chart, spec.fd_order)
    if chart.ambient == "complex":
        return np.concatenate([J.real, J.imag], axis=-2)
    return np.asarray(J, dtype=float)


def _tangent_frames(
    Q: QuadricConfiguration | None, chart: Chart, S: np.ndarray, Z: np.ndarray, spec: MetricSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frames (N, d, m) of the chart at the rows of S, and its jacobians (N, m, d).

    Raises if any jacobian is rank deficient or, given ``Q``, if any frame
    fails to annihilate the quadric differentials at the points ``Z``.
    """
    J = chart.jacobian(S, spec.step_chart, spec.fd_order)  # (N, m, d)
    Jr = np.concatenate([J.real, J.imag], axis=-2)  # (N, 2m, d)
    Qm, R = np.linalg.qr(Jr)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    if np.any(diag.min(axis=-1) < 1e-8 * np.maximum(1.0, diag.max(axis=-1))):
        raise NonConvergenceError("chart jacobian is rank deficient; chart degenerate here")
    vectors = r2c(np.swapaxes(Qm, -2, -1))
    if Q is not None:
        # frame vectors must annihilate the quadric differentials
        grads = 2.0 * Q.gamma_float() * Z[:, None, :]  # complex rows <-> real gradients
        pair = np.real(vectors @ np.conj(np.swapaxes(grads, -2, -1)))
        if np.abs(pair).max() > 1e-6:
            raise NonConvergenceError("frame fails to annihilate the constraint differentials")
    return vectors, J


def tangent_frame_N(
    Q: QuadricConfiguration | None, p: ChartPoint, spec: MetricSpec = DEFAULT_SPEC
) -> TangentFrame:
    """Orthonormal tangent frame spanning the chart jacobian's column space."""
    vectors, J = _tangent_frames(Q, p.chart, p.params[None, :], p.point[None, :], spec)
    return TangentFrame(vectors=vectors[0], jacobian=J[0])


def tangent_frame_Z(
    Q: QuadricConfiguration, z, spec: MetricSpec = DEFAULT_SPEC
) -> np.ndarray:
    """Orthonormal frame of the tangent space of the quadric intersection at z."""
    z = np.asarray(z, dtype=complex)
    m, k = Q.ambient_dim, Q.num_quadrics
    grads = c2r(2.0 * Q.gamma_float() * z[None, :])  # (k, 2m)
    full, _ = np.linalg.qr(grads.T, mode="complete")
    return r2c(full[:, k:].T)


def lagrangian_residual(
    Q: QuadricConfiguration | None, p: ChartPoint | ChartSample, spec: MetricSpec = DEFAULT_SPEC
) -> float | np.ndarray:
    """max |omega(e_i, e_j)| over an orthonormal tangent frame at the point.

    A ``ChartSample`` gives one value per point, from one batched QR.
    """
    S, Z = _batch(p)
    vectors, _ = _tangent_frames(Q, p.chart, S, Z, spec)
    return _per_point(p, frame_symplectic_residual(vectors, spec))


# ---------------------------------------------------------------------------
# curvature


def _curvature_batch(chart: Chart, S: np.ndarray, spec: MetricSpec):
    """Mean curvature trace data for a batch of chart parameters.

    Returns (H_real (N, D), Jr (N, D, d), g (N, d, d)) with D the real
    ambient dimension. H = trace_g of the normal projection of the chart's
    second derivatives, the unnormalized mean curvature vector.
    """
    S = np.atleast_2d(S)
    J = chart.jacobian(S, spec.step_chart, spec.fd_order)
    Hess = chart.hessian(S, spec.step_chart, spec.fd_order)
    if chart.ambient == "complex":
        Jr = np.concatenate([J.real, J.imag], axis=-2)
        Hr = np.concatenate([Hess.real, Hess.imag], axis=-3)
    else:
        Jr = np.asarray(J, dtype=float)
        Hr = np.asarray(Hess, dtype=float)
    g = np.einsum("nia,nib->nab", Jr, Jr)
    ginv = np.linalg.inv(g)
    tr = np.einsum("nab,niab->ni", ginv, Hr)
    Qm, _ = np.linalg.qr(Jr)
    tang = np.einsum("nia,na->ni", Qm, np.einsum("nia,ni->na", Qm, tr))
    return tr - tang, Jr, g


def mean_curvature_ambient(
    Q: QuadricConfiguration | None, p: ChartPoint, spec: MetricSpec = DEFAULT_SPEC
) -> np.ndarray:
    """Unnormalized mean curvature vector of the chart's submanifold in flat space."""
    H, Jr, _ = _curvature_batch(p.chart, p.params[None, :], spec)
    h = H[0]
    norm = np.linalg.norm(h)
    if norm > 0:
        resid = np.abs(Jr[0].T @ h).max()
        if resid > spec.tol_curvature * max(1.0, norm):
            raise NonConvergenceError(
                f"mean curvature not numerically normal to the submanifold ({resid:.3e})"
            )
    return r2c(h)


def minimality_residual_in_Z(
    Q: QuadricConfiguration, p: ChartPoint | ChartSample, spec: MetricSpec = DEFAULT_SPEC
) -> float | np.ndarray:
    """Norm of the mean curvature component tangent to the quadric set.

    The second fundamental form of the submanifold inside the quadric
    intersection is the intersection-tangential part of the flat one, so
    this is |H| of the embedding into the quadric set. A ``ChartSample``
    gives one value per point.
    """
    S, Z = _batch(p)
    H, Jr, _ = _curvature_batch(p.chart, S, spec)
    grads = c2r(2.0 * Q.gamma_float() * Z[:, None, :])  # (N, k, 2m), the normals to Z
    stacked = np.concatenate([Jr, np.swapaxes(grads, -2, -1)], axis=-1)
    Qm, _ = np.linalg.qr(stacked)
    tang = np.einsum("nia,na->ni", Qm, np.einsum("nia,ni->na", Qm, H))
    return _per_point(p, np.linalg.norm(H - tang, axis=-1))


# ---------------------------------------------------------------------------
# Hamiltonian fields


def _field_from_gradient(grad_vals: np.ndarray, spec: MetricSpec) -> np.ndarray:
    """The X with i_X omega = df, from df packed as d/dx + i d/dy.

    On flat C^m, -omega inverts in closed form: X = -i grad f / omega_scale.
    """
    return -1j * np.asarray(grad_vals, dtype=complex) / spec.omega_scale


def hamiltonian_field(
    f: Callable[[np.ndarray], np.ndarray],
    z,
    spec: MetricSpec = DEFAULT_SPEC,
    grad: Callable | None = None,
    check: bool = True,
) -> np.ndarray:
    """The vector field X with i_X omega = df at z (flat ambient space).

    ``f`` maps a batch (N, m) of complex points to real values. ``grad``,
    if given, must return the real gradient packaged as a complex vector
    (d/dx + i d/dy); otherwise the gradient is a finite difference of f.
    The solution is spot-checked against a direct directional derivative
    of f unless ``check`` is disabled.
    """
    z = np.asarray(z, dtype=complex)
    m = z.shape[-1]
    if grad is not None:
        df = np.asarray(grad(z), dtype=complex)
    else:
        df = r2c(
            fd.gradient(lambda xr: np.asarray(f(r2c(xr))), c2r(z), spec.step_gradient, spec.fd_order)
        )
    X = _field_from_gradient(df, spec)
    if check:
        rng = np.random.default_rng(1729)
        scale = float(np.abs(c2r(df)).max()) + 1e-12
        for _ in range(3):
            v = r2c(rng.standard_normal(2 * m))
            v = v / np.linalg.norm(c2r(v))
            step = spec.step_gradient
            line = lambda t: np.asarray(f(z[None, :] + np.reshape(t, (-1, 1)) * v))
            offs, wts = fd._D1[spec.fd_order]
            dfi = sum(w * line(o * step) for o, w in zip(offs, wts))[0] / step
            if abs(omega_pair(X, v, spec) - dfi) > 1e-6 * max(1.0, scale):
                raise NonConvergenceError("hamiltonian field failed the pairing spot-check")
    return X


def hamiltonian_field_batch(
    grad: Callable[[np.ndarray], np.ndarray], Z, spec: MetricSpec = DEFAULT_SPEC
) -> np.ndarray:
    """Hamiltonian field over a batch (N, m) of points from a closed-form gradient.

    ``grad`` maps the batch to the real gradients packed as complex vectors
    (d/dx + i d/dy), as for ``hamiltonian_field``; no spot-check.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    return _field_from_gradient(grad(Z), spec)


def hamiltonian_pairing_residual(
    f, z, X, spec: MetricSpec = DEFAULT_SPEC, probes: int = 8, seed: int = 99
) -> float:
    """max over random directions |omega(X, v) - direction derivative of f|."""
    z = np.asarray(z, dtype=complex)
    m = z.shape[-1]
    rng = np.random.default_rng(seed)
    worst = 0.0
    offs, wts = fd._D1[spec.fd_order]
    for _ in range(probes):
        v = r2c(rng.standard_normal(2 * m))
        v = v / np.linalg.norm(c2r(v))
        line = lambda t: np.asarray(f(z[None, :] + np.reshape(t, (-1, 1)) * v))
        dfi = sum(w * line(o * spec.step_gradient) for o, w in zip(offs, wts))[0] / spec.step_gradient
        worst = max(worst, abs(float(omega_pair(X, v, spec)) - float(dfi)))
    return worst


def noether_drift(
    Q: QuadricConfiguration,
    f: Callable[[np.ndarray], np.ndarray],
    p: ChartPoint | np.ndarray,
    spec: MetricSpec = DEFAULT_SPEC,
    rng: np.random.Generator | None = None,
    grad: Callable | None = None,
) -> float:
    """Drift of the quadric moment values along the Hamiltonian field of f.

    ``f`` must be invariant under the configuration's torus; invariance is
    spot-checked at random torus elements and an ``InvarianceError`` is
    raised on violation.
    """
    z = np.asarray(p.point if isinstance(p, ChartPoint) else p, dtype=complex)
    rng = np.random.default_rng(7) if rng is None else rng
    f0 = float(np.asarray(f(z[None, :]))[0])
    for _ in range(8):
        phases = torus_point(Q, rng.uniform(0.0, 1.0, Q.num_quadrics))
        fv = float(np.asarray(f((phases * z)[None, :]))[0])
        if abs(fv - f0) > 1e-8 * (1.0 + abs(f0)):
            raise InvarianceError("function is not invariant under the configuration torus")
    X = hamiltonian_field(f, z, spec, grad=grad, check=False)
    h = 1e-3
    mu_plus = moment_map(Q, z + h * X)
    mu_minus = moment_map(Q, z - h * X)
    return float(np.abs((mu_plus - mu_minus) / (2.0 * h)).max())


# ---------------------------------------------------------------------------
# patches and variations


@dataclass
class ChartPatch:
    """Quadrature grid on a chart box, with optional compact bump weights.

    ``bump_axes`` lists the parameter axes along which the deformation must
    vanish at the boundary (periodic/full axes carry no bump). For real
    ambient charts an ``ambient_metric`` callable gives the metric matrix
    field; the flat metric is used otherwise. The tensor Gauss-Legendre
    rule is kept to boxes of dimension at most 4; a larger box raises.
    """

    chart: Chart
    lo: np.ndarray
    hi: np.ndarray
    nodes: int | Sequence[int] = 16
    bump_axes: tuple[int, ...] = ()
    ambient_metric: Callable[[np.ndarray], np.ndarray] | None = None
    S: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)
    _curvature: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.lo.size != self.chart.dim:
            raise ValueError("box dimension disagrees with the chart")
        if self.chart.dim > 4:
            raise ValueError(f"patch boxes have dimension at most 4, got {self.chart.dim}")
        self.S, self.w = quadrature.tensor_grid(self.lo, self.hi, self.nodes)

    def bump_at(self, S: np.ndarray) -> np.ndarray:
        if not self.bump_axes:
            return np.ones(np.atleast_2d(S).shape[0])
        return quadrature.box_bump(S, self.lo, self.hi, self.bump_axes)

    def curvature_on_nodes(self, spec: MetricSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, real mean curvature, area element) on the nodes.

        Computed once per chart step and stencil order: the chart and the
        nodes are fixed, so every field integrated over the patch reuses them.
        """
        key = (spec.step_chart, spec.fd_order)
        if key not in self._curvature:
            Hr, _, g = _curvature_batch(self.chart, self.S, spec)
            self._curvature[key] = (self.chart.value(self.S), Hr, np.sqrt(np.linalg.det(g)))
        return self._curvature[key]


def _ambient_real(chart: Chart, vals: np.ndarray) -> np.ndarray:
    return c2r(vals) if chart.ambient == "complex" else np.asarray(vals, dtype=float)


def patch_volume(patch: ChartPatch, spec: MetricSpec = DEFAULT_SPEC) -> float:
    Jr = _real_jacobian(patch.chart, patch.S, spec)
    if patch.ambient_metric is None:
        g = np.einsum("nia,nib->nab", Jr, Jr)
    else:
        G = patch.ambient_metric(patch.chart.value(patch.S))
        g = np.einsum("nia,nij,njb->nab", Jr, G, Jr)
    return float(np.sum(patch.w * np.sqrt(np.linalg.det(g))))


def patch_volume_derivative(
    patch: ChartPatch,
    X: Callable[[np.ndarray], np.ndarray],
    spec: MetricSpec = DEFAULT_SPEC,
) -> float:
    """d/dt at t=0 of the patch volume under z -> z + t * bump * X(z).

    The deformation is affine in t, so one stencil of the stacked map
    (chart point, bump * field) gives the deformed jacobians J_P + t * J_Y
    for every t; the t-derivative is the central difference of the volume
    at t = +-step. On a metric ambient the metric is taken at the deformed
    nodes P0 + t * Y0. The variation is free: deformed points are not
    re-projected onto the quadric set.
    """
    return patch_volume_and_derivative(patch, X, spec)[1]


def patch_volume_and_derivative(
    patch: ChartPatch,
    X: Callable[[np.ndarray], np.ndarray],
    spec: MetricSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """(vol(patch), dVol/dt) from the one stencil of ``patch_volume_derivative``.

    vol(patch) is the stencil's volume at t = 0, so a caller that needs both
    differentiates the chart once.
    """
    chart = patch.chart

    def stacked(Sb):
        P = chart.value(Sb)
        field = np.asarray(X(P))
        bump = patch.bump_at(Sb).reshape(-1, *([1] * (P.ndim - 1)))
        return np.concatenate([_ambient_real(chart, P), _ambient_real(chart, bump * field)], axis=1)

    J = fd.jacobian(stacked, patch.S, spec.step_chart, spec.fd_order)
    D = J.shape[1] // 2
    JP, JY = J[:, :D], J[:, D:]
    if patch.ambient_metric is not None:
        PY0 = stacked(patch.S)
        P0, Y0 = PY0[:, :D], PY0[:, D:]

    def vol(t):
        Jt = JP + t * JY
        if patch.ambient_metric is None:
            g = np.einsum("nia,nib->nab", Jt, Jt)
        else:
            G = patch.ambient_metric(P0 + t * Y0)
            g = np.einsum("nia,nij,njb->nab", Jt, G, Jt)
        return float(np.sum(patch.w * np.sqrt(np.linalg.det(g))))

    h = spec.step
    return vol(0.0), (vol(h) - vol(-h)) / (2.0 * h)


def first_variation_integral(
    patch: ChartPatch,
    X: Callable[[np.ndarray], np.ndarray],
    spec: MetricSpec = DEFAULT_SPEC,
) -> float:
    """The curvature quadrature -integral <H, X> * bump dA over a flat-ambient patch.

    By the first variation formula this equals ``patch_volume_derivative``
    for the same field, from independent (second-derivative) chart data.
    """
    if patch.ambient_metric is not None:
        raise ValueError("the curvature quadrature needs a flat ambient")
    P, Hr, elem = patch.curvature_on_nodes(spec)
    Xr = _ambient_real(patch.chart, X(P))
    return -float(np.sum(patch.w * patch.bump_at(patch.S) * np.einsum("ni,ni->n", Hr, Xr) * elem))


def stationarity_ratio(
    patch: ChartPatch,
    Xf: Callable,
    spec: MetricSpec,
    localized: bool = False,
) -> float:
    """|dVol/dt| of a candidate field over the scale max|Xf| * vol(patch).

    ``Xf`` maps ambient points to the candidate field; max|Xf| is the largest
    modulus of a field component on the quadrature nodes. A submanifold of
    unit mean curvature changes volume at about the rate max|Xf| * vol(patch),
    so a stationary variation reads near 0 and a volume-changing one reads
    of the order of |H|. With ``localized`` the candidate must vanish on the
    outermost shell of the patch box; a field that leaks raises.
    """
    Xvals = np.asarray(Xf(patch.chart.value(patch.S)))
    xmax = float(np.abs(Xvals).max())
    if localized:
        margin = 0.08 * (patch.hi - patch.lo)
        near = np.any((patch.S < patch.lo + margin) | (patch.S > patch.hi - margin), axis=1)
        leak = float(np.abs(Xvals[near]).max()) if near.any() else 0.0
        if leak > 1e-8 * max(xmax, 1e-12):
            raise RuntimeError("localized field leaks outside the chart patch")
    vol, dvol = patch_volume_and_derivative(patch, Xf, spec)
    return abs(dvol) / (xmax * vol)


def hminimality_residual(
    Q: QuadricConfiguration | None, p: ChartPoint | ChartSample, spec: MetricSpec = DEFAULT_SPEC
) -> float | np.ndarray:
    """|delta(i_H omega)| at the point, computed in chart coordinates.

    The 1-form alpha = i_H omega is restricted to the submanifold, sharped
    with the induced metric, and its codifferential is the negative
    divergence -(1/sqrt g) d_a (sqrt g W^a), evaluated by central
    differences of the chart quantities. A ``ChartSample`` gives one value
    per point, from one stencil over all of them.
    """
    chart = p.chart
    m = chart.ambient_dim
    Om = omega_matrix(m, spec)

    def sqrtg_W(Sb):
        Hr, Jr, g = _curvature_batch(chart, Sb, spec)
        alpha = np.einsum("ni,ij,nja->na", Hr, Om, Jr)
        W = np.linalg.solve(g, alpha[..., None])[..., 0]
        return np.sqrt(np.linalg.det(g))[:, None] * W

    S, _ = _batch(p)
    Jout = fd.jacobian(sqrtg_W, S, spec.step_divergence, spec.fd_order)  # (N, d, d)
    div = np.trace(Jout, axis1=-2, axis2=-1)
    _, _, g0 = _curvature_batch(chart, S, spec)
    return _per_point(p, np.abs(div / np.sqrt(np.linalg.det(g0))))


# ---------------------------------------------------------------------------
# co-area

def coarea_orbit_volume_check(
    Q: QuadricConfiguration,
    base,
    v_lo,
    v_hi,
    nodes: int = 20,
    spec: MetricSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Volume of a chart patch of the spread submanifold vs the fiber integral.

    Upstairs: Riemannian volume of the chart box (v-box) x (one fundamental
    domain of the phase torus, reached by running the unit phi-box through a
    dual-lattice basis so each orbit is covered exactly once).
    Downstairs: integral of the orbit-volume function over the same v-box of
    the real locus. Both sides run over the same covering chart in v, so the
    deck-group multiplicity there cancels and the two numbers agree on the
    nose.
    """
    from .torus_actions import torus_subgroup

    T = torus_subgroup(Q)
    dual = np.array(
        [[float(x) for x in row] for row in T.dual_basis.entries], dtype=float
    ).reshape(T.dim, T.dim)
    chart = TorusSpreadChart(Q, base, phase_rows=dual @ Q.gamma_float(), newton_tol=spec.newton_tol)
    k = Q.num_quadrics
    v_lo = np.atleast_1d(np.asarray(v_lo, dtype=float))
    v_hi = np.atleast_1d(np.asarray(v_hi, dtype=float))
    lo = np.concatenate([v_lo, np.zeros(k)])
    hi = np.concatenate([v_hi, np.ones(k)])
    patch = ChartPatch(chart=chart, lo=lo, hi=hi, nodes=nodes)
    upstairs = patch_volume(patch, spec)

    Sv, wv = quadrature.tensor_grid(v_lo, v_hi, nodes)
    U = chart.u_map(Sv)
    Ju = fd.jacobian(chart.u_map, Sv, spec.step_chart, spec.fd_order)
    gbase = np.einsum("nia,nib->nab", Ju, Ju)
    elem = np.sqrt(np.linalg.det(gbase))
    vo = orbit_volume(Q, U.astype(complex))
    fiber_integral = float(np.sum(wv * np.asarray(vo) * elem))
    return upstairs, fiber_integral


# ---------------------------------------------------------------------------
# sampling


def real_base_point(Q: QuadricConfiguration) -> np.ndarray:
    """A strictly positive point of the real quadric locus, from an exact LP."""
    t = lp.positive_combination(Q.gamma.columns(), Q.c)
    if t is None:
        raise ValueError("no strictly positive solution; configuration has empty interior")
    return np.sqrt(np.array([float(x) for x in t]))


# Samples stop at this fraction of the way from x0 to the first face of the
# polytope, so every sample keeps x >= (1 - SAMPLE_REACH) * x0 coordinatewise
# (x >= 0.1 on every catalog instance). The divergence stencil moves x by at
# most 2 * step_divergence = 6e-3, so it stays in the open orthant, where
# u = sqrt(x) is smooth.
SAMPLE_REACH = 0.5


def sample_chart_points(
    Q: QuadricConfiguration,
    count: int,
    rng: np.random.Generator,
    spec: MetricSpec = DEFAULT_SPEC,
    phase_rows: np.ndarray | None = None,
) -> ChartSample:
    """Random points of one ``PolytopeChart`` at x0 = real_base_point(Q)**2.

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
    S = np.concatenate([V, Phi], axis=1)
    Z = chart.value(S)
    res = float(membership_residuals(Q, Z).max())
    if res > spec.tol_membership:
        raise ValueError(f"chart point violates the quadric system: residual {res:.3e}")
    bases = chart.value(np.concatenate([V, np.zeros_like(Phi)], axis=1)).real
    return ChartSample(chart, S, Z, bases)


def project_to_quadrics(
    Q: QuadricConfiguration, point, mode: str | None = None, spec: MetricSpec = DEFAULT_SPEC
) -> np.ndarray:
    """Newton retraction of an ambient point onto the quadric set (either mode)."""
    mode = Q.mode if mode is None else mode
    if mode == "real":
        return project_real(Q, np.asarray(point, dtype=float), tol=spec.tol_membership,
                            max_iter=spec.newton_max_iter)
    return project_complex(Q, np.asarray(point, dtype=complex), tol=spec.tol_membership,
                           max_iter=spec.newton_max_iter)
