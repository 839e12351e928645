"""Numerical differential geometry on quadric intersections and their
torus-spread Lagrangians: frames, symplectic pairings, mean curvature,
variational derivatives, the Lagrangian angle, conserved-quantity drift.

The symplectic form is the paper's constant one,
omega(u, v) = OMEGA_SCALE * sum_k (x_k(u) y_k(v) - y_k(u) x_k(v)) with
OMEGA_SCALE = -1/pi, which makes z -> (|z_k|^2) exactly the moment map for
torus generators parametrized as exp(2 pi i <gamma_k, phi>). Every verdict
computed here is invariant under that scale.

Points of a chart travel as a ``ChartSample``, which holds their jet,
solved once through the order its checks read, and their geometry, computed
once on first read; every pointwise check takes one and returns one value
per point, shape (N,). At order 2 the jet keeps the second derivatives as
the chart's product-rule factors, and the mean curvature contracts g^-1
against them, so no (N, m, d, d) hessian is built. The metric is inverted
once and factored once, g = L L^T: the orthonormal frame E = J g^-1 L, the
rank test on diag L and the area element prod diag L all read that one
Cholesky factor. Frames are real, (N, 2m, d) with the real parts first:
omega pairs their columns as OMEGA_SCALE (X^T Y - Y^T X), X and Y the real
and imaginary halves, and the projection onto the tangent space is
E E^T = J g^-1 J^T. A ``ChartPatch`` is a sample with quadrature weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .charts import (
    Chart,
    GlobalChart,
    NonConvergenceError,
    PolytopeChart,
    c2r,
    r2c,
)
from .quadric_config import QuadricConfiguration, float_array, membership_residuals
from .torus_actions import orbit_volume, torus_point

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


DEFAULT_SPEC = MetricSpec()


@dataclass
class ChartSample:
    """Points of one chart evaluated together: ``params`` (N, d) and their ``jet``
    (z, J[, second]), the chart's one evaluation through the order the
    sample's checks read. ``points`` (N, m) is the jet's order 0. At order 2
    the jet keeps the second derivatives in the chart's own form, which
    slices like the arrays and whose ``trace(g^-1)`` gives sum g^ab H_ab
    (N, 2m): a spread chart keeps its product-rule factors
    (``charts.PhaseHessian``), so no sample builds its (N, m, d, d) hessian.
    A slice slices the jet; one point is the sample ``s[i:i + 1]``. The
    pointwise residual functions take a whole sample and return one value
    per point. Its geometry in flat C^m = R^2m is computed on first read
    and kept, for every check to read: the real jacobian J, the metric
    g = J^T J, g^-1, the one Cholesky factor g = L L^T, which gives the
    real orthonormal frame E = J g^-1 L and the area element prod diag L,
    and the mean curvature, whose normal part E E^T projects out. Every
    per-point product is stacked, (N, a, b) @
    (N, b, c) or (N, a, b) @ (b, c), so each point's row is computed by
    the same operations in any batch.
    """

    chart: Chart
    params: np.ndarray
    jet: tuple[np.ndarray, ...]

    @classmethod
    def at(cls, chart: Chart, params, order: int) -> ChartSample:
        """The sample of ``chart`` at ``params`` (one row per point) through ``order``."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return cls(chart, params, chart.jet(params, order))

    def on(self, Q: QuadricConfiguration, spec: MetricSpec) -> ChartSample:
        """This sample, once every point's relative defect on ``Q`` is checked at ``spec.tol_membership``."""
        res = float(membership_residuals(Q, self.points).max())
        if res > spec.tol_membership:
            raise ValueError(f"chart point violates the quadric system: residual {res:.3e}")
        return self

    @property
    def points(self) -> np.ndarray:
        return self.jet[0]

    def __len__(self) -> int:
        return self.params.shape[0]

    def __getitem__(self, s: slice) -> ChartSample:
        if not isinstance(s, slice):
            raise TypeError("a ChartSample takes slices; one point is sample[i:i + 1]")
        return ChartSample(self.chart, self.params[s], tuple(D[s] for D in self.jet))

    @functools.cached_property
    def real_jacobian(self) -> np.ndarray:  # (N, 2m, d): real parts first, then imaginary parts
        return np.concatenate([self.jet[1].real, self.jet[1].imag], axis=1)

    @functools.cached_property
    def metric(self) -> np.ndarray:  # g = J^T J (N, d, d)
        return np.swapaxes(self.real_jacobian, 1, 2) @ self.real_jacobian

    @functools.cached_property
    def metric_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.metric)

    @functools.cached_property
    def metric_factor(self) -> np.ndarray:  # L (N, d, d), lower triangular, g = L L^T
        try:
            return np.linalg.cholesky(self.metric)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError("chart jacobian is rank deficient; chart degenerate here") from exc

    @functools.cached_property
    def area(self) -> np.ndarray:  # sqrt det g = prod diag L (N,)
        return np.prod(np.diagonal(self.metric_factor, axis1=1, axis2=2), axis=1)

    @functools.cached_property
    def frame(self) -> np.ndarray:  # J g^-1 L = J L^-T (N, 2m, d): orthonormal columns spanning each tangent space
        return self.real_jacobian @ (self.metric_inverse @ self.metric_factor)

    @functools.cached_property
    def curvature(self) -> np.ndarray:
        """The unnormalized mean curvature vector H (N, 2m): trace_g of the normal
        projection of the second derivatives, H = tr - E E^T tr with
        tr = g^ab Hess_ab contracted by the jet's second derivatives against
        the cached g^-1, and E the frame (E E^T = J g^-1 J^T)."""
        if len(self.jet) < 3:
            raise ValueError("the mean curvature reads a sample of order 2")
        E = self.frame
        tr = self.jet[2].trace(self.metric_inverse)[..., None]
        return (tr - E @ (np.swapaxes(E, 1, 2) @ tr))[..., 0]


# ---------------------------------------------------------------------------
# symplectic pairing helpers


def frame_symplectic_residual(frame: np.ndarray) -> float | np.ndarray:
    """max |omega(e_i, e_j)| over the columns of a real frame (2m, d), real parts first.

    With X and Y the real and imaginary halves of the columns,
    omega(e_i, e_j) = OMEGA_SCALE (X^T Y - Y^T X)_ij. Batched over leading
    axes: a stack (N, 2m, d) of frames gives N values.
    """
    E = np.asarray(frame, dtype=float)
    m = E.shape[-2] // 2
    XtY = np.swapaxes(E[..., :m, :], -2, -1) @ E[..., m:, :]
    worst = abs(OMEGA_SCALE) * np.abs(XtY - np.swapaxes(XtY, -2, -1)).max(axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


def times_i(E: np.ndarray) -> np.ndarray:
    """i E for real vectors (..., 2m, d), real parts first: (x, y) -> (-y, x)."""
    m = E.shape[-2] // 2
    return np.concatenate([-E[..., m:, :], E[..., :m, :]], axis=-2)


# ---------------------------------------------------------------------------
# chart samples and frames


def tangent_frames(Q: QuadricConfiguration | None, sample: ChartSample) -> np.ndarray:
    """The sample's real orthonormal tangent frames ``sample.frame`` (N, 2m, d), checked.

    Raises if a column of any chart jacobian is nearly in the span of the
    earlier ones: diag L_a < 1e-7 |J_a|, where diag L_a / |J_a| is the sine
    of its angle to them, at any scale of the chart, above the sqrt(eps) =
    1.5e-8 to which g = J^T J resolves it. Given ``Q``, raises if any frame
    fails to annihilate the quadric differentials at the sample's points.
    """
    diag = np.diagonal(sample.metric_factor, axis1=-2, axis2=-1)
    if np.any(diag < 1e-7 * np.sqrt(np.diagonal(sample.metric, axis1=-2, axis2=-1))):
        raise NonConvergenceError("chart jacobian is rank deficient; chart degenerate here")
    E = sample.frame
    if Q is not None:
        grads = c2r(2.0 * Q.gamma_float() * sample.points[:, None, :])  # (N, k, 2m), the real gradients
        if np.any(np.abs(grads @ E) > 1e-6):
            raise NonConvergenceError("frame fails to annihilate the constraint differentials")
    return E


def tangent_frame_Z(Q: QuadricConfiguration, Z: np.ndarray) -> np.ndarray:
    """Real orthonormal frames (N, 2m, 2m - k) of the tangent spaces of the quadric intersection at the rows of Z."""
    k = Q.num_quadrics
    grads = c2r(2.0 * Q.gamma_float() * np.asarray(Z, dtype=complex)[:, None, :])  # (N, k, 2m)
    full, _ = np.linalg.qr(np.swapaxes(grads, -2, -1), mode="complete")
    return full[:, :, k:]


def lagrangian_residual(Q: QuadricConfiguration | None, sample: ChartSample) -> np.ndarray:
    """max |omega(e_i, e_j)| over the sample's orthonormal tangent frame, per point."""
    return frame_symplectic_residual(tangent_frames(Q, sample))


# ---------------------------------------------------------------------------
# curvature


def minimality_residual_in_Z(Q: QuadricConfiguration, sample: ChartSample) -> np.ndarray:
    """Norm of the mean curvature component tangent to the quadric set, per sample.

    The second fundamental form of the submanifold inside the quadric
    intersection is the intersection-tangential part of the flat one, so
    this is |H| of the embedding into the quadric set. H is normal to N, so
    its part off span(J, normals to Z) is H less its projection onto the k
    normals made orthogonal to J through the frame: n - E E^T n, whose QR
    (N, 2m, k) projects.
    """
    H, E = sample.curvature, sample.frame
    normals = np.swapaxes(c2r(2.0 * Q.gamma_float() * sample.points[:, None, :]), 1, 2)  # (N, 2m, k)
    Qn, _ = np.linalg.qr(normals - E @ (np.swapaxes(E, 1, 2) @ normals))
    H = H[..., None]
    return np.linalg.norm((H - Qn @ (np.swapaxes(Qn, 1, 2) @ H))[..., 0], axis=-1)


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


def hamiltonian_field_batch(grad: Callable[[np.ndarray], np.ndarray], Z) -> np.ndarray:
    """Hamiltonian field over a batch (N, m) of points from a closed-form gradient.

    ``grad`` maps the batch to the real gradients packed as complex vectors
    (d/dx + i d/dy). The X with i_X omega = df: on flat C^m, -omega inverts in
    closed form, X = -i grad f / OMEGA_SCALE.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    return -1j * np.asarray(grad(Z), dtype=complex) / OMEGA_SCALE


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
        lambda Z, V: -1j * np.asarray(hess(Z, V), dtype=complex) / OMEGA_SCALE,
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


def is_torus_invariant(
    Q: QuadricConfiguration, f: Callable[[np.ndarray], np.ndarray], z: np.ndarray, rng: np.random.Generator
) -> bool:
    """The invariance spot check of f at z: 8 random torus elements drawn from ``rng``, in one
    call of ``f`` on the batch (8, m) of rotated points, against the size of f on the orbit:
    |f(g z) - f(z)| <= 1e-8 max(|f(z)|, max |f(g z)|), at any scale of z. ``f`` maps points
    (n, m) to values (n,) or, for H functions stacked, (n, H)."""
    f0 = np.asarray(f(z[None, :]), dtype=float)[0]
    phases = torus_point(Q, rng.uniform(0.0, 1.0, (8, Q.num_quadrics)))
    rotated = np.asarray(f(phases * z), dtype=float)
    return not np.any(np.abs(rotated - f0) > 1e-8 * np.maximum(np.abs(f0), np.abs(rotated).max(axis=0)))


def noether_drift(
    Q: QuadricConfiguration,
    f: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    rng: np.random.Generator | None = None,
) -> float | np.ndarray:
    """The largest relative drift of the quadric moment values at z along the Hamiltonian field of f.

    ``grad`` is f's closed-form gradient, packed as for
    ``hamiltonian_field_batch``. The rate is exact: d|z_k|^2/dt =
    2 Re(conj(z_k) X_k), so dmu/dt = Gamma 2 Re(conj(z) X). Each quadric's
    rate is divided by the sum of the magnitudes of its terms,
    |sum_k gamma_jk 2 Re(conj(z_k) X_k)| / sum_k |gamma_jk| |2 conj(z_k) X_k|,
    the componentwise backward error of Oettli and Prager, so the drift
    reads the same at every scale of z and of Gamma. ``f`` must be
    invariant under the configuration's torus: an ``InvarianceError`` is
    raised where ``is_torus_invariant`` fails. H Hamiltonians run stacked
    on one draw of the torus: ``f`` maps points (n, m) to values (n, H),
    ``grad`` to gradients (n, H, m), and the drift is one value per
    Hamiltonian, (H,).
    """
    z = np.asarray(z, dtype=complex)
    rng = np.random.default_rng(7) if rng is None else rng
    if not is_torus_invariant(Q, f, z, rng):
        raise InvarianceError("function is not invariant under the configuration torus")
    X = hamiltonian_field_batch(grad, z)[0]
    G = Q.gamma_float()
    terms = 2.0 * np.conj(z) * X  # (m,) or (H, m)
    rate = np.abs(G @ np.real(terms)[..., None])  # (k, 1) or (H, k, 1)
    size = np.abs(G) @ np.abs(terms)[..., None]
    # a row whose terms all vanish has rate 0 and reads 0
    worst = (rate / np.where(size > 0.0, size, 1.0)).max(axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# patches and variations


# the most nodes a patch may take. Each node keeps its jet and a few (2m, d)
# and (d, d) blocks of geometry: the C^3 stationarity check on 65,520 nodes
# peaks about 70 MB above the interpreter
NODE_BUDGET = 2**16


def within_node_budget(nodes: Sequence[int]) -> bool:
    """Whether a tensor grid of ``nodes`` nodes per axis fits ``NODE_BUDGET``."""
    return math.prod(nodes) <= NODE_BUDGET


def whole_nodes(chart: GlobalChart | None, phase_degrees: Callable, azimuth_degree: int) -> list[int] | None:
    """The node counts (``GlobalChart.node_counts``) of the patch over the whole of N on ``chart`` for
    integrands of degree ``phase_degrees(chart.phase_rows)`` along the phases and ``azimuth_degree``
    along an azimuth between equal columns; None without a chart or above ``NODE_BUDGET``."""
    if chart is None:
        return None
    nodes = chart.node_counts(phase_degrees(chart.phase_rows), azimuth_degree)
    return nodes if within_node_budget(nodes) else None


@dataclass
class ChartPatch(ChartSample):
    """A sample on the nodes of a tensor quadrature grid, with their weights ``w``: the integral
    of f over the patch is sum(w * f * area). A grid takes at most ``NODE_BUDGET`` nodes. A
    slice of a patch is a plain ``ChartSample``."""

    w: np.ndarray

    @classmethod
    def grid(cls, chart: Chart, lo, hi, nodes: Sequence[int], order: int, periodic: Sequence[int]) -> ChartPatch:
        """The patch of ``chart`` on the box [lo, hi] through ``order``: the axes in ``periodic``
        take the trapezoid rule over one period, the others Gauss-Legendre
        (``quadrature.tensor_grid``)."""
        if np.size(lo) != chart.dim:
            raise ValueError("box dimension disagrees with the chart")
        if not within_node_budget(nodes):
            raise ValueError(f"a patch of {math.prod(nodes)} nodes exceeds the node budget of {NODE_BUDGET}")
        S, w = quadrature.tensor_grid(lo, hi, nodes, periodic)
        return cls(chart, S, chart.jet(S, order), w)

    @classmethod
    def over(cls, chart: GlobalChart, nodes: Sequence[int], order: int) -> ChartPatch:
        """The patch over the whole of N: the box and periodic axes of a global chart."""
        return cls.grid(chart, chart.lo, chart.hi, nodes, order, chart.periodic)


def patch_volume_derivative(patch: ChartPatch, X: VectorField) -> float:
    """d/dt at t=0 of the patch volume under z -> z + t * X(z).

    Jacobi's formula, with no difference in t: with J_Y = DX(P)[J_P], the
    deformed metric g(t) = (J_P + t J_Y)^T (J_P + t J_Y) has
    dg/dt = J_Y^T J_P + J_P^T J_Y,
    and dVol/dt = sum w * sqrt(det g) * 1/2 tr(g^-1 dg/dt), from the
    patch's metric and the field's closed-form derivative (``X`` is a
    ``VectorField``). The variation is free: deformed points are not
    re-projected onto the quadric set.
    """
    if not isinstance(X, VectorField):
        raise TypeError("a volume derivative needs a VectorField with its derivative")
    JY = X.derivative(patch.points, np.swapaxes(patch.jet[1], 1, 2))  # the chart's columns as ambient vectors
    half_dg = np.swapaxes(patch.real_jacobian, 1, 2) @ np.swapaxes(c2r(JY), 1, 2)
    rate = np.einsum("nab,nba->n", patch.metric_inverse, half_dg)
    return float(np.sum(patch.w * patch.area * rate))


def first_variation_integral(patch: ChartPatch, X: Callable[[np.ndarray], np.ndarray]) -> float:
    """The curvature quadrature -integral <H, X> dA over a patch.

    By the first variation formula this equals ``patch_volume_derivative``
    for the same field, from independent (second-derivative) chart data, so
    it reads a patch of order 2.
    """
    Xr = c2r(X(patch.points))
    return -float(np.sum(patch.w * np.einsum("ni,ni->n", patch.curvature, Xr) * patch.area))


def variation_scale(patch: ChartPatch, X: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral |X| dA over the patch's RMS radius R = sqrt(integral |z|^2 dA / integral dA):
    the rate at which a submanifold of mean curvature 1/R changes volume under X. A
    volume rate over it has no units, and no unitary change of frame moves it."""
    dA = patch.w * patch.area
    radius = np.sqrt(np.sum(dA * (np.abs(patch.points) ** 2).sum(axis=1)) / np.sum(dA))
    return float(np.sum(dA * np.linalg.norm(X(patch.points), axis=1)) / radius)


def stationarity_ratio(patch: ChartPatch, Xf: VectorField) -> float:
    """|dVol/dt| of a candidate field over its ``variation_scale``.

    A stationary variation reads near 0 and a volume-changing one reads of
    the order of R |H|, at every scale of N: the radial field z -> z reads
    the dimension of N wherever N lies on a round sphere.
    """
    return abs(patch_volume_derivative(patch, Xf)) / variation_scale(patch, Xf)


def hminimality_residual(Q: QuadricConfiguration | None, sample: ChartSample) -> np.ndarray:
    """|alpha - alpha_theta|_g at each sample: the 1-form i_H omega against the angle form.

    In a spread chart z = phases(phi) * u(v), u real and R the phase rows,
    det_C(dz) = prod phases * (2 pi i)^k * det_R[d_v u | diag(u) R^T], so the
    Lagrangian angle theta = arg det_C(dz) has the constant differential
    d theta = 2 pi sum_k R_jk d phi_j. The metric has no v-phi block and
    does not depend on phi, so theta is harmonic, and H = J grad theta
    (Oh, Math. Z. 212, 1993): alpha_a = omega(H, J_a) equals
    alpha_theta = -OMEGA_SCALE d theta, which is 2 sum_k R_jk on phase axis
    j and 0 on the v axes. Then delta(i_H omega) = 0, with no third
    derivative. The residual reads alpha from the sample's cached
    curvature, real jacobian and g^-1, and its g-norm
    sqrt((alpha - alpha_theta)^T g^-1 (alpha - alpha_theta)); a chart whose
    curvature is off reads it nonzero. Where the chart's dimension is not
    the ambient one, N has no Lagrangian angle, and where the jet's u has
    an imaginary part the angle form is not alpha_theta: both raise.
    """
    chart = sample.chart
    if chart.dim != chart.ambient_dim:
        raise ValueError(f"no Lagrangian angle: a chart of dimension {chart.dim} in C^{chart.ambient_dim}")
    H, J, gi = sample.curvature[..., None], sample.real_jacobian, sample.metric_inverse
    if np.any(np.imag(sample.jet[2].us[0])):
        raise ValueError("no angle form from the phase rows: the chart's u is not real")
    # alpha_a = omega(H, J_a) = OMEGA_SCALE <J_a, i H>
    iH = OMEGA_SCALE * times_i(H)
    angle = np.concatenate([np.zeros(chart.nv), 2.0 * chart.phase_rows.sum(axis=1)])
    delta = np.swapaxes(J, 1, 2) @ iH - angle[:, None]
    return np.sqrt((np.swapaxes(delta, 1, 2) @ (gi @ delta))[:, 0, 0])


# ---------------------------------------------------------------------------
# co-area

def coarea_orbit_volume_check(Q: QuadricConfiguration, sample: ChartSample) -> np.ndarray:
    """The co-area identity's relative mismatch at each point of a sample of a product chart.

    vol(N) is the integral over the real locus of the orbit volume V_orb.
    On a chart (v, phi) -> phases(phi) * u(v) over Gamma's rows the metric
    has no v-phi block, so at every point sqrt det g is the base area
    element sqrt det g_vv times sqrt det of the orbit Gram matrix. Moving
    the phase box onto one fundamental domain of the torus (through the
    dual basis D) scales the upstairs element by the dual covolume
    |det D| = 1 / ``Q.lattice_index``, and V_orb carries the same factor: the two sides
    sqrt det g |det D| and sqrt det g_vv V_orb(z) agree to rounding.
    """
    nv = sample.chart.nv
    upstairs = sample.area / Q.lattice_index
    downstairs = np.sqrt(np.linalg.det(sample.metric[:, :nv, :nv])) * orbit_volume(Q, sample.points)
    return np.abs(upstairs - downstairs) / np.maximum(np.maximum(upstairs, downstairs), 1e-12)


# ---------------------------------------------------------------------------
# sampling


def real_base_point(Q: QuadricConfiguration) -> np.ndarray:
    """A strictly positive point of the real quadric locus, from an exact LP."""
    t = Q.positive_solution
    if t is None:
        raise ValueError("no strictly positive solution; configuration has empty interior")
    return np.sqrt(float_array(t, "base point x"))


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
    return ChartSample.at(chart, np.concatenate([V, Phi], axis=1), order).on(Q, spec)
