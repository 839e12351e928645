"""Composite verification procedures.

Each procedure runs one family of checks over a configured instance and
returns a ``VerificationReport``; the table ``CHECKS`` says which command
runs which of them, and where. All randomness is drawn from explicit
seeds, so reports are bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .charts import CircleSpreadChart, GlobalChart, c2r, global_chart
from .polytope import PolytopePresentation, embed_point, enumerate_vertices, is_delzant, is_simple
from .quadric_config import (
    QuadricConfiguration,
    boundedness_check,
    gale_dual,
    nondegeneracy_check,
)
from .reduction_catalog import (
    DoubleConfiguration,
    cp_chart_verify,
    cp_lift_nodes,
    ntilde_lagrangian_residual,
    stack_report,
    stacked_tangent_horizontal_residual,
)
from .report import (
    CONTROL_BOUND,
    TOL_COAREA_REL,
    TOL_HMINIMAL,
    TOL_LAGRANGIAN,
    TOL_MINIMAL,
    TOL_NOETHER,
    TOL_STATIONARITY,
    TOL_VARIATION_CIRCLE,
    TOL_VARIATION_REL,
    TOL_VO_SYMMETRY,
    VerificationReport,
)
from .submanifold_numerics import (
    DEFAULT_SPEC,
    NODE_BUDGET,
    OMEGA_SCALE,
    stationarity_ratio,
    ChartPatch,
    ChartSample,
    MetricSpec,
    coarea_orbit_volume_check,
    first_variation_integral,
    frame_symplectic_residual,
    hamiltonian_vector_field,
    hminimality_residual,
    is_torus_invariant,
    lagrangian_residual,
    minimality_residual_in_Z,
    noether_drift,
    patch_volume_derivative,
    sample_chart_points,
    tangent_frame_Z,
    tangent_frames,
    times_i,
    variation_scale,
    whole_nodes,
    VectorField,
    _poly_scalar,
)
from .torus_actions import freeness_check, orbit_generators, orbit_volume

TWO_PI = 2.0 * np.pi
# the number of random fields the first-variation report checks
VARIATION_FIELDS = 5


# the gates of CHECKS; a report that refuses a configuration reads the same gate
def _always(subject) -> bool:
    return True


# the variational checks integrate over the whole of N, on its global chart,
# on one quadric in C^m with m in their dims: (1, 2) for the first variation,
# (2, 3) for stationarity. Each runs where its node counts are not None,
# which needs the whole-N patch to fit the node budget
def _one_quadric_chart(Q: QuadricConfiguration, dims: tuple[int, int]) -> GlobalChart | None:
    return global_chart(Q) if Q.num_quadrics == 1 and Q.ambient_dim in dims else None


def _whole_nodes(chart: GlobalChart | None) -> list[int] | None:
    """The node counts of the patch over the whole of N on its global chart (``whole_nodes``). The
    integrands of a field of degree at most 1 are products of two coordinates or their conjugates,
    times factors that no phase moves: along phase j, of degree at most 2 max_k |R_jk|, R the chart's
    phase rows, and of degree at most 2 along an azimuth that turns two equal columns."""
    return whole_nodes(chart, lambda rows: 2 * np.abs(rows).max(axis=1), 2)


def _whole_chart(Q: QuadricConfiguration, dims: tuple[int, int], report: str) -> GlobalChart:
    chart = _one_quadric_chart(Q, dims)
    if _whole_nodes(chart) is None:
        raise ValueError(f"{report} report runs on one quadric in C^{dims[0]} or C^{dims[1]} with a global chart "
                         f"whose patch fits {NODE_BUDGET} nodes")
    return chart


# ---------------------------------------------------------------------------
# exact reports


def gale_report(P: PolytopePresentation) -> VerificationReport:
    """Exact orthogonality of the dual and its level.

    The level is Gamma applied to the image of the first vertex of P under
    the facet map x -> A^T x + b (``embed_point``). It reaches c through a
    point of P, not through the product Gamma b that sets c, so a dual
    whose level or rows are off fails it.
    """
    rep = VerificationReport()
    Q = gale_dual(P)
    rep.add_bool("gale-orthogonality-exact", Q.gamma.matmul(P.normal_matrix().transpose()).is_zero())
    image = embed_point(P, enumerate_vertices(P).vertices[0])
    level = tuple(sum(g * y for g, y in zip(row, image)) for row in Q.gamma.entries)
    rep.add_bool("gale-image-level-exact", level == Q.c)
    return rep


def polytope_report(P: PolytopePresentation) -> VerificationReport:
    rep = VerificationReport()
    simple = is_simple(P)
    rep.add_bool("simple", bool(simple), detail=str(simple.witness) if not simple else "")
    if simple:
        delz = is_delzant(P)
        rep.add_bool("delzant", bool(delz), detail=str(delz.witness) if not delz else "")
    return rep


def nondegeneracy_report(Q: QuadricConfiguration) -> VerificationReport:
    rep = VerificationReport()
    rep.add_bool("bounded", boundedness_check(Q))
    nd = nondegeneracy_check(Q)
    rep.add_bool("nondegenerate-a", nd.cond_a)
    rep.add_bool("nondegenerate-b", nd.cond_b, detail=str(nd.witness_b) if not nd.cond_b else "")
    rep.add_bool("nondegenerate-c", nd.cond_c)
    return rep


def freeness_report(Q: QuadricConfiguration) -> VerificationReport:
    rep = VerificationReport()
    free = freeness_check(Q)
    rep.add_bool("torus-free", bool(free), detail=str(free.witness) if not free else "")
    return rep


def delzant_freeness_report(P: PolytopePresentation) -> VerificationReport:
    """P is Delzant iff the torus of its Gale dual acts freely.

    A Delzant polytope is simple, so a non-simple P must give a non-free
    action. The two sides are decided independently: the polytope side from
    the vertices, the quadric side from the feasible bases.
    """
    rep = VerificationReport()
    delzant = bool(is_simple(P)) and bool(is_delzant(P))
    rep.add_bool("delzant-equals-freeness", delzant == bool(freeness_check(gale_dual(P))))
    return rep


# ---------------------------------------------------------------------------
# pointwise numeric reports: each reads the command's sample of N (through
# the jet order of its CHECKS entry) and draws none of its own


def point_residual_report(Q: QuadricConfiguration, sample: ChartSample) -> VerificationReport:
    """Lagrangian residual at the sample's points, and its negative control.

    The negative control reads the same residual on a frame that is not
    isotropic: the tangent frame of the quadric set Z where m > k, and where
    Z = N (m = k) the pair [e, i e], e the first unit tangent vector of N,
    which reads |OMEGA_SCALE| = 1/pi. Every frame is real, (N, 2m, d).
    """
    rep = VerificationReport()
    lag = float(lagrangian_residual(Q, sample).max())
    rep.add("lagrangian-residual", lag, TOL_LAGRANGIAN, samples=len(sample))
    if Q.ambient_dim > Q.num_quadrics:
        frames = tangent_frame_Z(Q, sample.points[:5])
    else:
        e = tangent_frames(Q, sample)[:5, :, :1]
        frames = np.concatenate([e, times_i(e)], axis=-1)
    ctrl = float(frame_symplectic_residual(frames).max())
    rep.add_lower_bound("lagrangian-negative-control", ctrl, CONTROL_BOUND)
    return rep


def minimality_report(Q: QuadricConfiguration, sample: ChartSample) -> VerificationReport:
    """Mean curvature of N in the quadric set Z at the sample's points."""
    rep = VerificationReport()
    rep.add("minimality-in-Z-residual", minimality_residual_in_Z(Q, sample).max(), TOL_MINIMAL, samples=len(sample))
    return rep


def unequal_torus_control(spec: MetricSpec = DEFAULT_SPEC) -> float:
    """In-sphere mean-curvature norm of the unequal-radii product torus.

    The torus (rho_1 e^{i a}, rho_2 e^{2 pi i phi}) with radius ratio
    0.9 : 1.1, rescaled onto the unit 3-sphere, is a torus-invariant
    product but not the balanced one, so it is far from minimal in the
    sphere.
    """
    Q = QuadricConfiguration.from_rows([(1, 1)], [1])
    rho = np.array([0.9, 1.1]) / np.sqrt(0.81 + 1.21)
    chart = CircleSpreadChart([rho[0], 0.0], [1j * rho[0], 0.0], [0.0, rho[1]], [0.0, 1.0])
    p = ChartSample.at(chart, [0.4, 1.1 / TWO_PI], 2).on(Q, spec)
    return float(minimality_residual_in_Z(Q, p)[0])


def hminimality_report(Q: QuadricConfiguration, sample: ChartSample) -> VerificationReport:
    """The 1-form i_H omega against the Lagrangian angle's form at the sample's points, through order 2:
    the two agree exactly where H = J grad theta, so delta(i_H omega) = 0 (``hminimality_residual``)."""
    rep = VerificationReport()
    rep.add("hminimality-residual", hminimality_residual(Q, sample).max(), TOL_HMINIMAL, samples=len(sample))
    return rep


def ellipse_control() -> tuple[float, float]:
    """|i_H omega|_g of the ellipse (cos t, 0.6 sin t) at t = pi/4 and its closed form.

    For a curve in C^1, i_H omega pairs H with the unit tangent, so its
    g-norm is |OMEGA_SCALE| |H| = |OMEGA_SCALE| kappa, kappa = ab / w^(3/2)
    with w = a^2 sin^2 t + b^2 cos^2 t. It controls the curvature that
    ``hminimality_residual`` reads, from the sample's cached curvature; the
    residual itself refuses the chart, whose u is not real. Returns
    (numeric, |OMEGA_SCALE| kappa).
    """
    a, b, t = 1.0, 0.6, np.pi / 4
    chart = CircleSpreadChart([a], [1j * b], [0.0], [])
    numeric = abs(OMEGA_SCALE) * float(np.linalg.norm(ChartSample.at(chart, [t], 2).curvature[0]))
    w = a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2
    return numeric, abs(OMEGA_SCALE) * a * b / w**1.5


def _noether_hamiltonians(m: int) -> list[tuple[Callable, Callable]]:
    """sum |z_k|^2, sum |z_k|^4 and sum k |z_k|^2 on C^m, each with its gradient.

    The gradients 2z, 4|z|^2 z and 2kz are packed as d/dx + i d/dy. All
    three are torus-invariant for every configuration.
    """
    weights = np.arange(1.0, m + 1)
    return [
        (lambda zz: (np.abs(zz) ** 2).sum(axis=-1), lambda zz: 2.0 * zz),
        (lambda zz: (np.abs(zz) ** 4).sum(axis=-1), lambda zz: 4.0 * np.abs(zz) ** 2 * zz),
        (lambda zz: (weights * np.abs(zz) ** 2).sum(axis=-1), lambda zz: 2.0 * weights * zz),
    ]


def noether_report(Q: QuadricConfiguration, sample: ChartSample, seed: int) -> VerificationReport:
    """Moment drift along invariant Hamiltonian fields at the sample's first point;
    rejection of a non-invariant one by the invariance spot check (``is_torus_invariant``).
    The invariant Hamiltonians run stacked, on one draw of the torus from ``seed + 1``; the
    non-invariant one draws from ``seed + 2``."""
    rep = VerificationReport(seed=seed)
    z = sample.points[0]
    fs, grads = zip(*_noether_hamiltonians(Q.ambient_dim))
    drift = noether_drift(Q, lambda zz: np.stack([f(zz) for f in fs], axis=-1),
                          lambda zz: np.stack([grad(zz) for grad in grads], axis=-2), z,
                          rng=np.random.default_rng(seed + 1))
    rep.add("noether-drift", float(drift.max()), TOL_NOETHER, samples=len(fs))
    invariant = is_torus_invariant(Q, lambda zz: zz[..., 0].real, z, np.random.default_rng(seed + 2))  # Re z_1
    rep.add_bool("noninvariant-rejected", not invariant)
    return rep


def vo_symmetry_report(Q: QuadricConfiguration, sample: ChartSample) -> VerificationReport:
    """The orbit volume at z against the volume its generators span at conj(z), relative.

    Coordinatewise conjugation is an isometry that maps the orbit through z
    onto the orbit through conj(z), so ``orbit_volume(Q, z)`` (from |z|^2)
    must equal sqrt det(G G^T) / lattice_index, G the real rows (k, 2m) of
    ``orbit_generators(Q, conj(z))``. The record is the largest relative
    mismatch over the sample's points.
    """
    rep = VerificationReport()
    G = c2r(orbit_generators(Q, np.conj(sample.points)))
    spanned = np.sqrt(np.linalg.det(G @ np.swapaxes(G, -2, -1))) / Q.lattice_index
    vol = orbit_volume(Q, sample.points)
    rep.add("orbit-volume-conjugation", float((np.abs(spanned - vol) / vol).max()), TOL_VO_SYMMETRY,
            samples=len(sample))
    return rep


def coarea_report(Q: QuadricConfiguration, sample: ChartSample) -> VerificationReport:
    """The co-area identity sqrt det g |det D| = sqrt det g_vv V_orb at the sample's points."""
    rep = VerificationReport()
    rep.add("coarea-relative-mismatch", coarea_orbit_volume_check(Q, sample).max(), TOL_COAREA_REL)
    return rep


# ---------------------------------------------------------------------------
# variational reports


def circle_variation_values(chart: GlobalChart) -> tuple[float, float]:
    """(dVol/dt, -integral <H, X>) for a circle, on its global chart, under the radial unit field:
    each reads 2 pi at every radius."""
    patch = ChartPatch.over(chart, _whole_nodes(chart), order=2)

    def radial_derivative(z, V):
        # the part of V orthogonal to z, over |z|
        z = z[:, None, :]
        return (V - z * np.real(np.conj(z) * V) / np.abs(z) ** 2) / np.abs(z)

    radial = VectorField(lambda z: z / np.abs(z), radial_derivative)
    return patch_volume_derivative(patch, radial), first_variation_integral(patch, radial)


def _random_matrix_field(m: int, rng: np.random.Generator) -> VectorField:
    """The affine field z -> A z + B conj(z) + c0 with random complex A, B, c0."""
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    c0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)

    def derivative(z, V):
        # one (N d, m) matmul: a stacked (N, d, m) matmul runs N small products
        flat = V.reshape(-1, m)
        return (flat @ A.T + np.conj(flat) @ B.T).reshape(V.shape)

    return VectorField(lambda z: z @ A.T + np.conj(z) @ B.T + c0, derivative)


def first_variation_report(Q: QuadricConfiguration, seed: int = 0) -> VerificationReport:
    """Volume derivative against the curvature quadrature, over the whole of N.

    Supported on the circle (ambient dim 1: the sharp radial-field values)
    and on the spread torus of one quadric in C^2 with a global chart
    (random matrix-valued fields). Each field's record is the difference
    of the two over its ``variation_scale``.
    """
    rep = VerificationReport(seed=seed)
    chart = _whole_chart(Q, (1, 2), "first-variation")
    if Q.ambient_dim == 1:
        dv, comp = circle_variation_values(chart)
        rep.add("circle-dvol", abs(dv - TWO_PI), TOL_VARIATION_CIRCLE)
        rep.add("circle-curvature-integral", abs(comp - TWO_PI), TOL_VARIATION_CIRCLE)
        rep.add("circle-consistency", abs(dv - comp), TOL_VARIATION_CIRCLE)
        return rep
    patch = ChartPatch.over(chart, _whole_nodes(chart), order=2)
    rng = np.random.default_rng(seed)
    for i in range(VARIATION_FIELDS):
        X = _random_matrix_field(Q.ambient_dim, rng)
        dv = patch_volume_derivative(patch, X)
        comp = first_variation_integral(patch, X)
        rep.add(f"first-variation-field-{i}", abs(dv - comp) / variation_scale(patch, X), TOL_VARIATION_REL)
    return rep


def hamiltonian_stationarity_report(Q: QuadricConfiguration, seed: int = 0, *, n_fields: int) -> VerificationReport:
    """Volume stationarity of N under global Hamiltonian fields, over the whole of N.

    Each Hamiltonian is a random polynomial of degree at most 2
    (``_poly_scalar``); its field comes from the closed-form gradient, and
    its derivative from the closed-form Hessian. Each record is
    ``stationarity_ratio``: |dVol/dt| over ``variation_scale``, the rate at
    which a submanifold of curvature 1/R, R the patch's RMS radius, would
    change volume.
    """
    rep = VerificationReport(seed=seed)
    chart = _whole_chart(Q, (2, 3), "stationarity")
    patch = ChartPatch.over(chart, _whole_nodes(chart), order=1)
    rng = np.random.default_rng(seed)
    for i in range(n_fields):
        _, grad, hess = _poly_scalar(Q.ambient_dim, rng)
        ratio = stationarity_ratio(patch, hamiltonian_vector_field(grad, hess))
        rep.add(f"hamiltonian-stationarity-{i}", ratio, TOL_STATIONARITY)
    return rep


# ---------------------------------------------------------------------------
# double-configuration reports


def ntilde_report(D: DoubleConfiguration, samples: int, seed: int, spec: MetricSpec) -> VerificationReport:
    """Lagrangian residual of the reduced submanifold, tested through the lift.

    The lift runs through the polytope chart of the stacked system with the
    second system's phases only. The negative control reads the whole
    tangent space of the stacked quadric set at the sample's first point.
    """
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    pts = sample_chart_points(D.stacked, samples, rng, spec, phase_rows=D.delta_cfg.gamma_float(), order=1)
    worst = float(ntilde_lagrangian_residual(D, pts).max())
    rep.add("ntilde-lagrangian-residual", worst, TOL_LAGRANGIAN, samples=samples)
    ctrl = float(stacked_tangent_horizontal_residual(D, pts.points[:1])[0])
    rep.add_lower_bound("ntilde-negative-control", ctrl, CONTROL_BOUND)
    return rep


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """The report ``run(subject, sample=, seed=, samples=, spec=)`` on a subject ("P" polytope,
    "Q" quadrics, "D" double), which each of ``commands`` runs where ``applies(subject)`` holds.
    ``order`` is the jet order of the command's sample of N that the report reads, or None if it
    reads no sample; the command draws one sample through the highest order its entries read."""

    key: str
    subject: str
    applies: Callable
    commands: tuple[str, ...]
    order: int | None
    run: Callable


# in record order. Each run looks its procedure up in this module when
# called, so a patched module attribute is the one that runs.
ALL = ("report-all",)
CHECKS = (
    Check("gale", "P", _always, ALL, None, lambda P, **_: gale_report(P)),
    Check("polytope", "P", _always, ALL, None, lambda P, **_: polytope_report(P)),
    Check("delzant-freeness", "P", _always, ALL, None, lambda P, **_: delzant_freeness_report(P)),
    Check("nondegeneracy", "Q", _always, ("check-nondeg", *ALL), None, lambda Q, **_: nondegeneracy_report(Q)),
    Check("freeness", "Q", _always, ("check-free", *ALL), None, lambda Q, **_: freeness_report(Q)),
    Check("lagrangian", "Q", _always, ("verify-lagrangian", "verify-minimal", *ALL), 1,
          lambda Q, sample, **_: point_residual_report(Q, sample)),
    Check("minimality", "Q", _always, ("verify-minimal", *ALL), 2,
          lambda Q, sample, **_: minimality_report(Q, sample)),
    Check("vo-symmetry", "Q", _always, ALL, 0, lambda Q, sample, **_: vo_symmetry_report(Q, sample)),
    Check("noether", "Q", _always, ("verify-noether", *ALL), 0,
          lambda Q, sample, seed, **_: noether_report(Q, sample, seed)),
    Check("hminimality", "Q", _always, ("verify-hminimal", *ALL), 2,
          lambda Q, sample, **_: hminimality_report(Q, sample)),
    Check("variation", "Q", lambda Q: _whole_nodes(_one_quadric_chart(Q, (1, 2))) is not None,
          ("verify-variation", *ALL), None, lambda Q, seed, **_: first_variation_report(Q, seed=seed)),
    Check("coarea", "Q", lambda Q: Q.num_quadrics == 1 and Q.ambient_dim in (2, 3), ALL, 1,
          lambda Q, sample, **_: coarea_report(Q, sample)),
    Check("stationarity", "Q", lambda Q: _whole_nodes(_one_quadric_chart(Q, (2, 3))) is not None,
          ("verify-hminimal", *ALL), None,
          lambda Q, seed, **_: hamiltonian_stationarity_report(Q, seed=seed, n_fields=3)),
    Check("stack", "D", _always, ALL, None, lambda D, **_: stack_report(D.checks)),
    Check("ntilde", "D", _always, ("verify-ntilde", *ALL), None,
          lambda D, seed, samples, spec, **_: ntilde_report(D, samples=samples, seed=seed, spec=spec)),
    Check("projective", "D", lambda D: cp_lift_nodes(D) is not None, ("verify-ntilde", *ALL), None,
          lambda D, seed, **_: cp_chart_verify(D, seed=seed)),
)
