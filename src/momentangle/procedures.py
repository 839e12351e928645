"""Composite verification procedures.

Each procedure runs one family of checks over a configured instance and
returns a ``VerificationReport``; the table ``CHECKS`` says which command
runs which of them, and where. All randomness is drawn from explicit
seeds, so reports are bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .charts import CircleSpreadChart, TorusSpreadChart
from .exact_linalg import RationalMatrix
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
    is_projective,
    ntilde_lagrangian_residual,
    one_quadric_torus_chart,
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
    OMEGA_SCALE,
    stationarity_ratio,
    ChartPatch,
    MetricSpec,
    chart_point,
    coarea_orbit_volume_check,
    first_variation_integral,
    frame_symplectic_residual,
    hamiltonian_vector_field,
    hminimality_residual,
    lagrangian_residual,
    minimality_residual_in_Z,
    noether_drift,
    patch_volume_derivative,
    sample_chart_points,
    tangent_frame_Z,
    tangent_frames,
    InvarianceError,
    VectorField,
    _poly_scalar,
    _radial_cutoff,
)
from .torus_actions import freeness_check, orbit_volume

TWO_PI = 2.0 * np.pi
# the number of random fields the first-variation report checks
VARIATION_FIELDS = 5


# the gates of CHECKS; a report that refuses a configuration reads the same gate
def _always(subject) -> bool:
    return True


def _one_quadric_in_C1_or_C2(Q: QuadricConfiguration) -> bool:
    return Q.num_quadrics == 1 and Q.ambient_dim in (1, 2)


def _one_quadric_in_C2_or_C3(Q: QuadricConfiguration) -> bool:
    return Q.num_quadrics == 1 and Q.ambient_dim in (2, 3)


# ---------------------------------------------------------------------------
# exact reports


def gale_report(P: PolytopePresentation, seed: int = 0) -> VerificationReport:
    """Exact orthogonality of the dual and its level.

    The level is Gamma applied to the image of the first vertex of P under
    the facet map x -> A^T x + b (``embed_point``). It reaches c through a
    point of P, not through the product Gamma b that sets c, so a dual
    whose level or rows are off fails it. The report draws nothing, so
    ``seed`` only labels it.
    """
    rep = VerificationReport(seed=seed)
    Q = gale_dual(P)
    gamma = Q.gamma.to_rational()
    prod = gamma.matmul(P.normal_matrix().transpose())
    rep.add_bool("gale-orthogonality-exact", prod.is_zero())
    image = embed_point(P, enumerate_vertices(P).vertices[0])
    level = gamma.matmul(RationalMatrix([[x] for x in image], cols=1))
    rep.add_bool("gale-image-level-exact", tuple(row[0] for row in level.entries) == Q.c)
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


def quadrics_core_report(Q: QuadricConfiguration) -> VerificationReport:
    rep = nondegeneracy_report(Q)
    rep.extend(freeness_report(Q))
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
# pointwise numeric reports


def point_residual_report(
    Q: QuadricConfiguration,
    samples: int = 100,
    seed: int = 0,
    spec: MetricSpec = DEFAULT_SPEC,
    with_minimal: bool = True,
) -> VerificationReport:
    """Lagrangian and in-quadric-set minimality residuals at random chart points.

    The negative control reads the same residual on a frame that is not
    isotropic: the tangent frame of the quadric set Z where m > k, and where
    Z = N (m = k) the pair {e, i e}, e the first unit tangent vector of N,
    which reads |OMEGA_SCALE| = 1/pi.
    """
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    pts = sample_chart_points(Q, samples, rng, spec, order=2 if with_minimal else 1)
    lag = float(lagrangian_residual(Q, pts).max())
    rep.add("lagrangian-residual", lag, TOL_LAGRANGIAN, samples=samples)
    if Q.ambient_dim > Q.num_quadrics:
        frames = tangent_frame_Z(Q, pts.points[:5])
    else:
        e = tangent_frames(Q, pts[:5])[:, 0]
        frames = np.stack([e, 1j * e], axis=1)
    ctrl = float(frame_symplectic_residual(frames).max())
    rep.add_lower_bound("lagrangian-negative-control", ctrl, CONTROL_BOUND)
    if with_minimal:
        mini = float(minimality_residual_in_Z(Q, pts).max())
        rep.add("minimality-in-Z-residual", mini, TOL_MINIMAL, samples=samples)
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
    chart = CircleSpreadChart([rho[0], 0.0], [1j * rho[0], 0.0], [0.0, rho[1]], [0.0, 1.0], (TWO_PI, 1.0))
    p = chart_point(chart, np.array([0.4, 1.1 / TWO_PI]), Q=Q, spec=spec)
    return float(minimality_residual_in_Z(Q, p)[0])


def hminimality_report(
    Q: QuadricConfiguration,
    points: int,
    seed: int = 0,
    spec: MetricSpec = DEFAULT_SPEC,
) -> VerificationReport:
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    pts = sample_chart_points(Q, points, rng, spec, order=3)
    worst = float(hminimality_residual(Q, pts).max())
    rep.add("hminimality-residual", worst, TOL_HMINIMAL, samples=points)
    return rep


def ellipse_control() -> tuple[float, float]:
    """Codifferential residual of the ellipse (cos t, 0.6 sin t) at t = pi/4 and its closed form.

    For a plane curve the 1-form contraction of the mean curvature has
    codifferential proportional to the arclength derivative of the
    curvature, so any noncircular ellipse is a sharp negative control.
    Returns (numeric residual, |OMEGA_SCALE| * |dkappa/ds|).
    """
    a, b, t = 1.0, 0.6, np.pi / 4
    chart = CircleSpreadChart([a], [1j * b], [0.0], [], (TWO_PI,))
    numeric = float(hminimality_residual(None, chart_point(chart, np.array([t])))[0])
    w = a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2
    dkappa_dt = a * b * (-1.5) * (a * a - b * b) * np.sin(2 * t) / w**2.5
    ds_dt = np.sqrt(w)
    oracle = abs(OMEGA_SCALE) * abs(dkappa_dt / ds_dt)
    return numeric, oracle


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


def noether_report(
    Q: QuadricConfiguration, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> VerificationReport:
    """Moment drift along invariant Hamiltonian fields; rejection of a non-invariant one."""
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    z = sample_chart_points(Q, 1, rng, spec, order=0).points[0]
    fields = _noether_hamiltonians(Q.ambient_dim)
    worst = 0.0
    for f, grad in fields:
        worst = max(worst, noether_drift(Q, f, grad, z, rng=np.random.default_rng(seed + 1)))
    rep.add("noether-drift", worst, TOL_NOETHER, samples=len(fields))
    rejected = False
    e1 = np.eye(Q.ambient_dim)[0]  # the gradient of Re z_1
    try:
        noether_drift(Q, lambda zz: zz[..., 0].real, lambda zz: e1 + 0.0 * zz, z, rng=np.random.default_rng(seed + 2))
    except InvarianceError:
        rejected = True
    rep.add_bool("noninvariant-rejected", rejected)
    return rep


def vo_symmetry_report(
    Q: QuadricConfiguration, samples: int = 100, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> VerificationReport:
    """Orbit volume is invariant under coordinatewise conjugation."""
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    Z = sample_chart_points(Q, samples, rng, spec, order=0).points
    diff = np.abs(np.asarray(orbit_volume(Q, Z)) - np.asarray(orbit_volume(Q, np.conj(Z))))
    rep.add("orbit-volume-conjugation", float(diff.max()), TOL_VO_SYMMETRY, samples=samples)
    return rep


def coarea_report(Q: QuadricConfiguration, seed: int = 0) -> VerificationReport:
    """Patch volume upstairs vs integral of the orbit volume over the base patch, on 20 nodes an axis.

    The check is exact and draws nothing, so ``seed`` only labels the report.
    """
    rep = VerificationReport(seed=seed)
    up, fib = coarea_orbit_volume_check(Q, nodes=20)
    rel = abs(up - fib) / max(abs(up), abs(fib), 1e-12)
    rep.add("coarea-relative-mismatch", rel, TOL_COAREA_REL)
    return rep


# ---------------------------------------------------------------------------
# variational reports


def circle_variation_values(spec: MetricSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """(dVol/dt, -integral <H, X>) for the unit circle under the radial field."""
    Q = QuadricConfiguration.from_rows([(1,)], [1])
    chart = TorusSpreadChart(Q, [1.0], newton_tol=spec.newton_tol)
    patch = ChartPatch(chart=chart, lo=[0.0], hi=[1.0], nodes=32, order=2)

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


def first_variation_report(
    Q: QuadricConfiguration, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> VerificationReport:
    """Volume derivative against the curvature quadrature for bump-localized fields.

    Supported on the circle (ambient dim 1: the sharp radial-field values)
    and on the spread torus of the one-quadric system in C^2 (random
    matrix-valued fields under a two-axis bump).
    """
    rep = VerificationReport(seed=seed)
    if not _one_quadric_in_C1_or_C2(Q):
        raise ValueError("first-variation report runs on one quadric in C^1 or C^2")
    if Q.ambient_dim == 1:
        dv, comp = circle_variation_values(spec)
        rep.add("circle-dvol", abs(dv - TWO_PI), TOL_VARIATION_CIRCLE)
        rep.add("circle-curvature-integral", abs(comp - TWO_PI), TOL_VARIATION_CIRCLE)
        rep.add("circle-consistency", abs(dv - comp), TOL_VARIATION_CIRCLE)
        return rep
    chart = one_quadric_torus_chart(Q)
    lo = [0.3, 0.05]
    hi = [5.9, 0.95]
    # the bump-weighted integrands need 48 nodes per axis: at 24 the
    # quadrature error alone reached 1.6e-2 of |dv| + |comp| on some seeds
    patch = ChartPatch(chart=chart, lo=lo, hi=hi, nodes=48, order=2, bump_axes=(0, 1))
    rng = np.random.default_rng(seed)
    for i in range(VARIATION_FIELDS):
        X = _random_matrix_field(Q.ambient_dim, rng)
        dv = patch_volume_derivative(patch, X)
        comp = first_variation_integral(patch, X)
        rel = abs(dv - comp) / (abs(dv) + abs(comp) + 1e-9)
        rep.add(f"first-variation-field-{i}", rel, TOL_VARIATION_REL)
    return rep


def hamiltonian_stationarity_report(
    Q: QuadricConfiguration,
    seed: int = 0,
    spec: MetricSpec = DEFAULT_SPEC,
    n_fields: int = 5,
) -> VerificationReport:
    """Volume stationarity of the spread Lagrangian under Hamiltonian fields.

    For the closed surface (one quadric in C^2) global polynomial
    Hamiltonians act on a full covering chart; in C^3, where the real locus
    has no global chart, the Hamiltonians are localized by an ambient cutoff
    so the variation vanishes outside one chart patch. Each field comes from
    the Hamiltonian's closed-form gradient, and its derivative from the
    closed-form Hessian. Each record is
    ``stationarity_ratio``: |dVol/dt| over max|X_f| * vol(patch), the rate
    at which a unit-curvature submanifold would change volume.
    """
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    if not _one_quadric_in_C2_or_C3(Q):
        raise ValueError("stationarity report runs on one quadric in C^2 or C^3")
    localized = Q.ambient_dim == 3
    if not localized:
        chart = one_quadric_torus_chart(Q)
        patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24, order=1)
    else:
        base = sample_chart_points(Q, 1, rng, spec, order=0).bases[0]
        chart = TorusSpreadChart(Q, base, newton_tol=spec.newton_tol)
        lo = [-0.65, -0.65, -0.15]
        hi = [0.65, 0.65, 0.15]
        # the ambient cutoff is narrow in the phase direction: resolve it harder
        patch = ChartPatch(chart=chart, lo=lo, hi=hi, nodes=[20, 20, 36], order=1)
        z0 = chart.value(np.zeros((1, 3)))[0]
        rho = 0.4

    for i in range(n_fields):
        poly = _poly_scalar(Q.ambient_dim, rng)
        _, grad, hess = _radial_cutoff(poly, z0, rho) if localized else poly
        Xf = hamiltonian_vector_field(grad, hess)
        ratio = stationarity_ratio(patch, Xf, localized=localized)
        rep.add(f"hamiltonian-stationarity-{i}", ratio, TOL_STATIONARITY)
    return rep


# ---------------------------------------------------------------------------
# double-configuration reports


def ntilde_report(
    D: DoubleConfiguration, samples: int = 100, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> VerificationReport:
    """Lagrangian residual of the reduced submanifold, tested through the lift.

    The lift runs through the polytope chart of the stacked system with the
    second system's phases only.
    """
    rep = VerificationReport(seed=seed)
    rng = np.random.default_rng(seed)
    pts = sample_chart_points(D.stacked, samples, rng, spec, phase_rows=D.delta_cfg.gamma_float(), order=1)
    worst = float(ntilde_lagrangian_residual(D, pts).max())
    rep.add("ntilde-lagrangian-residual", worst, TOL_LAGRANGIAN, samples=samples)
    chart = pts.chart
    p0 = chart_point(chart, np.concatenate([np.zeros(chart.nv), 0.17 * np.ones(chart.nphi)]),
                     Q=D.stacked, spec=spec)
    ctrl = float(stacked_tangent_horizontal_residual(D, p0.points)[0])
    rep.add_lower_bound("ntilde-negative-control", ctrl, CONTROL_BOUND)
    return rep


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """The report ``run(subject, seed=, samples=, spec=)`` on a subject ("P" polytope, "Q" quadrics,
    "D" double), which each of ``commands`` runs where ``applies(subject)`` holds."""

    key: str
    subject: str
    applies: Callable
    commands: tuple[str, ...]
    run: Callable


# in record order; report-all runs every entry but the parts of "core" and
# "minimality" that check-nondeg, check-free and verify-lagrangian run alone.
# Each run looks its procedure up in this module when called, so a patched
# module attribute is the one that runs.
ALL = ("report-all",)
CHECKS = (
    Check("gale", "P", _always, ALL, lambda P, seed, **_: gale_report(P, seed=seed)),
    Check("polytope", "P", _always, ALL, lambda P, **_: polytope_report(P)),
    Check("delzant-freeness", "P", _always, ALL, lambda P, **_: delzant_freeness_report(P)),
    Check("nondegeneracy", "Q", _always, ("check-nondeg",), lambda Q, **_: nondegeneracy_report(Q)),
    Check("freeness", "Q", _always, ("check-free",), lambda Q, **_: freeness_report(Q)),
    Check("core", "Q", _always, ALL, lambda Q, **_: quadrics_core_report(Q)),
    Check("lagrangian", "Q", _always, ("verify-lagrangian",),
          lambda Q, **kw: point_residual_report(Q, **kw, with_minimal=False)),
    Check("minimality", "Q", _always, ("verify-minimal", *ALL), lambda Q, **kw: point_residual_report(Q, **kw)),
    Check("vo-symmetry", "Q", _always, ALL, lambda Q, **kw: vo_symmetry_report(Q, **kw)),
    Check("noether", "Q", _always, ("verify-noether", *ALL), lambda Q, samples, **kw: noether_report(Q, **kw)),
    Check("hminimality", "Q", _always, ("verify-hminimal", *ALL),
          lambda Q, samples, **kw: hminimality_report(Q, points=min(samples, 20), **kw)),
    Check("variation", "Q", _one_quadric_in_C1_or_C2, ("verify-variation", *ALL),
          lambda Q, samples, **kw: first_variation_report(Q, **kw)),
    Check("coarea", "Q", _one_quadric_in_C2_or_C3, ALL, lambda Q, seed, **_: coarea_report(Q, seed=seed)),
    Check("stationarity", "Q", _one_quadric_in_C2_or_C3, ("verify-hminimal", *ALL),
          lambda Q, samples, **kw: hamiltonian_stationarity_report(Q, n_fields=3, **kw)),
    Check("stack", "D", _always, ALL, lambda D, **_: stack_report(D.checks)),
    Check("ntilde", "D", _always, ("verify-ntilde", *ALL), lambda D, **kw: ntilde_report(D, **kw)),
    Check("projective", "D", lambda D: is_projective(D.gamma_cfg), ("verify-ntilde", *ALL),
          lambda D, samples, **kw: cp_chart_verify(D, samples=min(samples, 50), **kw)),
)
