"""Composite verification procedures.

Each procedure runs one family of checks over a configured instance and
returns a ``VerificationReport``; the command-line driver and the test
suite both dispatch through these. All randomness is drawn from explicit
seeds, so reports are bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .charts import FunctionChart, TorusSpreadChart, c2r, r2c
from .polytope import PolytopePresentation, embed_point, is_delzant, is_simple
from .quadrature import bump_poly, bump_poly_dsq
from .quadric_config import (
    QuadricConfiguration,
    boundedness_check,
    gale_dual,
    nondegeneracy_check,
)
from .reduction_catalog import (
    DoubleConfiguration,
    cp_chart_verify,
    ntilde_lagrangian_residual,
    one_quadric_torus_chart,
    stacked_tangent_horizontal_residual,
)
from .report import VerificationReport
from .submanifold_numerics import (
    DEFAULT_SPEC,
    stationarity_ratio,
    ChartPatch,
    MetricSpec,
    chart_point,
    coarea_orbit_volume_check,
    first_variation_integral,
    frame_symplectic_residual,
    hamiltonian_field_batch,
    hminimality_residual,
    lagrangian_residual,
    minimality_residual_in_Z,
    noether_drift,
    patch_volume_derivative,
    sample_chart_points,
    tangent_frame_Z,
    InvarianceError,
)
from .torus_actions import freeness_check, orbit_volume

TWO_PI = 2.0 * np.pi

# residual tolerances used by the standard reports
TOL_LAGRANGIAN = 1e-8
TOL_MINIMAL = 1e-4
TOL_HMINIMAL = 1e-4
TOL_NOETHER = 1e-8
TOL_VO_SYMMETRY = 1e-12
TOL_COAREA_REL = 1e-3
TOL_VARIATION_REL = 1e-3
TOL_VARIATION_CIRCLE = 1e-4
TOL_STATIONARITY = 1e-3
CONTROL_BOUND = 0.1


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# exact reports


def gale_report(P: PolytopePresentation, seed: int = 0, samples: int = 20) -> VerificationReport:
    """Exact orthogonality of the dual and constancy of the embedded image."""
    rep = VerificationReport(seed=seed)
    Q = gale_dual(P)
    prod = Q.gamma.to_rational().matmul(P.normal_matrix().transpose())
    rep.add_bool("gale-orthogonality-exact", prod.is_zero())
    rng = _rng(seed)
    ok = True
    for _ in range(samples):
        x = [
            Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 17)))
            for _ in range(P.dim)
        ]
        y = embed_point(P, x)
        img = [
            sum(
                (Fraction(Q.gamma.entries[j][k]) * y[k] for k in range(P.num_facets)),
                Fraction(0),
            )
            for j in range(Q.num_quadrics)
        ]
        ok = ok and tuple(img) == Q.c
    rep.add_bool("gale-image-level-exact", ok)
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
    rep = VerificationReport()
    rep.add_bool("delzant-equals-freeness", bool(is_delzant(P)) == bool(freeness_check(gale_dual(P))))
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
    """Lagrangian and in-quadric-set minimality residuals at random chart points."""
    rep = VerificationReport(seed=seed)
    rng = _rng(seed)
    pts = sample_chart_points(Q, samples, rng, spec)
    lag = float(lagrangian_residual(Q, pts, spec).max())
    rep.add("lagrangian-residual", lag, TOL_LAGRANGIAN, samples=samples)
    ctrl = max(
        frame_symplectic_residual(tangent_frame_Z(Q, p.point, spec), spec) for p in pts[:5]
    )
    rep.add_lower_bound("lagrangian-negative-control", ctrl, CONTROL_BOUND)
    if with_minimal:
        mini = float(minimality_residual_in_Z(Q, pts, spec).max())
        rep.add("minimality-in-Z-residual", mini, TOL_MINIMAL, samples=samples)
    return rep


def unequal_torus_control(spec: MetricSpec = DEFAULT_SPEC) -> float:
    """In-sphere mean-curvature norm of the unequal-radii product torus.

    The torus with radius ratio 0.9 : 1.1, rescaled onto the unit 3-sphere,
    is a torus-invariant product but not the balanced one, so it is far
    from minimal in the sphere.
    """
    Q = QuadricConfiguration.from_rows([(1, 1)], [1])
    rho = np.array([0.9, 1.1]) / np.sqrt(0.81 + 1.21)

    def fn(S):
        return rho * np.exp(1j * S)

    chart = FunctionChart(fn, dim=2, ambient_dim=2)
    p = chart_point(chart, np.array([0.4, 1.1]), Q=Q, spec=spec)
    return minimality_residual_in_Z(Q, p, spec)


def hminimality_report(
    Q: QuadricConfiguration,
    points: int = 20,
    seed: int = 0,
    spec: MetricSpec = DEFAULT_SPEC,
) -> VerificationReport:
    rep = VerificationReport(seed=seed)
    rng = _rng(seed)
    pts = sample_chart_points(Q, points, rng, spec)
    worst = float(hminimality_residual(Q, pts, spec).max())
    rep.add("hminimality-residual", worst, TOL_HMINIMAL, samples=points)
    return rep


def ellipse_control(
    a: float = 1.0, b: float = 0.6, t: float = np.pi / 4, spec: MetricSpec = DEFAULT_SPEC
) -> tuple[float, float]:
    """Codifferential residual of an ellipse and its closed-form value.

    For a plane curve the 1-form contraction of the mean curvature has
    codifferential proportional to the arclength derivative of the
    curvature, so any noncircular ellipse is a sharp negative control.
    Returns (numeric residual, |omega_scale| * |dkappa/ds|).
    """

    def fn(S):
        return (a * np.cos(S[:, 0]) + 1j * b * np.sin(S[:, 0]))[:, None]

    chart = FunctionChart(fn, dim=1, ambient_dim=1)
    p = chart_point(chart, np.array([t]), spec=spec)
    numeric = hminimality_residual(None, p, spec)
    w = a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2
    dkappa_dt = a * b * (-1.5) * (a * a - b * b) * np.sin(2 * t) / w**2.5
    ds_dt = np.sqrt(w)
    oracle = abs(spec.omega_scale) * abs(dkappa_dt / ds_dt)
    return numeric, oracle


def noether_report(
    Q: QuadricConfiguration, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> VerificationReport:
    """Moment drift along invariant Hamiltonian fields; rejection of a non-invariant one."""
    rep = VerificationReport(seed=seed)
    rng = _rng(seed)
    z = sample_chart_points(Q, 1, rng, spec)[0].point

    fields: list[tuple[str, Callable]] = [
        ("sum-moduli", lambda zz: (np.abs(zz) ** 2).sum(axis=-1)),
        ("sum-moduli-squared", lambda zz: (np.abs(zz) ** 4).sum(axis=-1)),
        ("weighted-moduli", lambda zz: (np.arange(1.0, zz.shape[-1] + 1) * np.abs(zz) ** 2).sum(axis=-1)),
    ]
    worst = 0.0
    for name, f in fields:
        worst = max(worst, noether_drift(Q, f, z, spec, rng=_rng(seed + 1)))
    rep.add("noether-drift", worst, TOL_NOETHER, samples=len(fields))
    rejected = False
    try:
        noether_drift(Q, lambda zz: zz[..., 0].real, z, spec, rng=_rng(seed + 2))
    except InvarianceError:
        rejected = True
    rep.add_bool("noninvariant-rejected", rejected)
    return rep


def vo_symmetry_report(
    Q: QuadricConfiguration, samples: int = 100, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> VerificationReport:
    """Orbit volume is invariant under coordinatewise conjugation."""
    rep = VerificationReport(seed=seed)
    rng = _rng(seed)
    Z = sample_chart_points(Q, samples, rng, spec).points
    diff = np.abs(np.asarray(orbit_volume(Q, Z)) - np.asarray(orbit_volume(Q, np.conj(Z))))
    rep.add("orbit-volume-conjugation", float(diff.max()), TOL_VO_SYMMETRY, samples=samples)
    return rep


def coarea_report(
    Q: QuadricConfiguration, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC, nodes: int = 20
) -> VerificationReport:
    """Patch volume upstairs vs integral of the orbit volume over the base patch."""
    rep = VerificationReport(seed=seed)
    rng = _rng(seed)
    base = sample_chart_points(Q, 1, rng, spec)[0].base
    nv = Q.ambient_dim - Q.num_quadrics
    up, fib = coarea_orbit_volume_check(Q, base, [-0.45] * nv, [0.55] * nv, nodes=nodes, spec=spec)
    rel = abs(up - fib) / max(abs(up), abs(fib), 1e-12)
    rep.add("coarea-relative-mismatch", rel, TOL_COAREA_REL)
    return rep


# ---------------------------------------------------------------------------
# variational reports


def circle_variation_values(spec: MetricSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """(dVol/dt, -integral <H, X>) for the unit circle under the radial field."""
    Q = QuadricConfiguration.from_rows([(1,)], [1])
    chart = TorusSpreadChart(Q, [1.0], newton_tol=spec.newton_tol)
    patch = ChartPatch(chart=chart, lo=[0.0], hi=[1.0], nodes=32)
    radial = lambda z: z / np.abs(z)
    return patch_volume_derivative(patch, radial, spec), first_variation_integral(patch, radial, spec)


def _random_matrix_field(m: int, rng: np.random.Generator) -> Callable:
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    c0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)

    def X(z):
        return z @ A.T + np.conj(z) @ B.T + c0

    return X


def first_variation_report(
    Q: QuadricConfiguration, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC, n_fields: int = 5
) -> VerificationReport:
    """Volume derivative against the curvature quadrature for bump-localized fields.

    Supported on the circle (ambient dim 1: the sharp radial-field values)
    and on the spread torus of the one-quadric system in C^2 (random
    matrix-valued fields under a two-axis bump).
    """
    rep = VerificationReport(seed=seed)
    if Q.num_quadrics != 1:
        raise ValueError("first-variation report runs on one-quadric configurations")
    if Q.ambient_dim == 1:
        dv, comp = circle_variation_values(spec)
        rep.add("circle-dvol", abs(dv - TWO_PI), TOL_VARIATION_CIRCLE)
        rep.add("circle-curvature-integral", abs(comp - TWO_PI), TOL_VARIATION_CIRCLE)
        rep.add("circle-consistency", abs(dv - comp), TOL_VARIATION_CIRCLE)
        return rep
    if Q.ambient_dim != 2:
        raise ValueError("first-variation report implemented for ambient dimension 1 or 2")
    chart = one_quadric_torus_chart(Q)
    lo = [0.3, 0.05]
    hi = [5.9, 0.95]
    # the bump-weighted integrands need 48 nodes per axis: at 24 the
    # quadrature error alone reached 1.6e-2 of |dv| + |comp| on some seeds
    patch = ChartPatch(chart=chart, lo=lo, hi=hi, nodes=48, bump_axes=(0, 1))
    rng = _rng(seed)
    for i in range(n_fields):
        X = _random_matrix_field(Q.ambient_dim, rng)
        dv = patch_volume_derivative(patch, X, spec)
        comp = first_variation_integral(patch, X, spec)
        rel = abs(dv - comp) / (abs(dv) + abs(comp) + 1e-9)
        rep.add(f"first-variation-field-{i}", rel, TOL_VARIATION_REL)
    return rep


def _poly_scalar(m: int, rng: np.random.Generator) -> tuple[Callable, Callable]:
    """Random real polynomial of degree <= 2 in the real coordinates and its gradient.

    Both are batched; the gradient lin + 2 quad x is packed as d/dx + i d/dy.
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

    return f, grad


def _radial_cutoff(
    poly: tuple[Callable, Callable], z0: np.ndarray, rho: float
) -> tuple[Callable, Callable]:
    """poly localized by bump_poly(|z - z0| / rho), with its product-rule gradient.

    The cutoff is (1 - s)^4 in s = |z - z0|^2 / rho^2, so its gradient is
    bump_poly_dsq * 2 (z - z0) / rho^2 inside the support and 0 outside;
    the polynomial is evaluated only at the points inside.
    """
    poly_f, poly_grad = poly

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

    return f, grad


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
    the Hamiltonian's closed-form gradient. Each record is
    ``stationarity_ratio``: |dVol/dt| over max|X_f| * vol(patch), the rate
    at which a unit-curvature submanifold would change volume.
    """
    rep = VerificationReport(seed=seed)
    rng = _rng(seed)
    if Q.num_quadrics != 1 or Q.ambient_dim not in (2, 3):
        raise ValueError("stationarity report implemented for one quadric in C^2 or C^3")
    localized = Q.ambient_dim == 3
    if not localized:
        chart = one_quadric_torus_chart(Q)
        patch = ChartPatch(chart=chart, lo=[0.0, 0.0], hi=list(chart.periods), nodes=24)
    else:
        base = sample_chart_points(Q, 1, rng, spec)[0].base
        chart = TorusSpreadChart(Q, base, newton_tol=spec.newton_tol)
        lo = [-0.65, -0.65, -0.15]
        hi = [0.65, 0.65, 0.15]
        # the ambient cutoff is narrow in the phase direction: resolve it harder
        patch = ChartPatch(chart=chart, lo=lo, hi=hi, nodes=[20, 20, 36])
        z0 = chart.value(np.zeros((1, 3)))[0]
        rho = 0.4

    for i in range(n_fields):
        poly = _poly_scalar(Q.ambient_dim, rng)
        _, grad = _radial_cutoff(poly, z0, rho) if localized else poly
        Xf = lambda z: hamiltonian_field_batch(grad, z, spec)
        ratio = stationarity_ratio(patch, Xf, spec, localized=localized)
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
    rng = _rng(seed)
    pts = sample_chart_points(D.stacked, samples, rng, spec, phase_rows=D.delta_cfg.gamma_float())
    worst = float(ntilde_lagrangian_residual(D, pts, spec).max())
    rep.add("ntilde-lagrangian-residual", worst, TOL_LAGRANGIAN, samples=samples)
    chart = pts.chart
    p0 = chart_point(chart, np.concatenate([np.zeros(chart.nv), 0.17 * np.ones(chart.nphi)]),
                     Q=D.stacked, spec=spec)
    ctrl = stacked_tangent_horizontal_residual(D, p0.point, spec)
    rep.add_lower_bound("ntilde-negative-control", ctrl, CONTROL_BOUND)
    return rep


# the projective-chart verification lives with the catalog machinery
cp_chart_report = cp_chart_verify
