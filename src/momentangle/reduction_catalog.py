"""Worked families, topology descriptors, stacked double configurations and
the projective verification, run on the circle-invariant lift in C^m.

The catalog names the desk-scale instances every verification command can
address: polytopes ("triangle", "square", "simplex:n", "cube:n",
"product:p,q", "bad-triangle"), quadric systems ("one-quadric:m",
"two-quadrics:p,q"), and double configurations ("cp2-torus", "rp2").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .charts import CircleSpreadChart, TorusSpreadChart, c2r, r2c
from .exact_linalg import IntegerMatrix
from .polytope import PolytopePresentation
from .quadric_config import (
    NondegeneracyReport,
    QuadricConfiguration,
    nondegeneracy_check,
    boundedness_check,
    two_quadrics_canonical,
)
from .report import TOL_LAGRANGIAN, TOL_STATIONARITY, VerificationReport
from .submanifold_numerics import (
    DEFAULT_SPEC,
    ChartPatch,
    ChartSample,
    MetricSpec,
    _poly_scalar,
    _radial_cutoff,
    chart_point,
    frame_symplectic_residual,
    hamiltonian_vector_field,
    lagrangian_residual,
    real_base_point,
    stationarity_ratio,
    tangent_frame_Z,
)
from .torus_actions import freeness_check, orbit_generators

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# topology descriptors


@dataclass(frozen=True)
class TopologyDescriptor:
    name: str
    parameters: dict
    facts: tuple[str, ...]
    trivial: bool | None = None  # None: parity pattern outside the decided cases

    def __str__(self):
        return self.name


def classify_N(Q: QuadricConfiguration, l: int | None = None) -> TopologyDescriptor:
    """Topological type of the torus-spread submanifold for 1 or 2 quadrics.

    For two quadrics the twisting number l is caller-supplied; only its
    range and the parity-decidable bundle facts are validated here.
    """
    k = Q.num_quadrics
    m = Q.ambient_dim
    if k == 1:
        row = Q.gamma.entries[0]
        if len(set(row)) != 1 or row[0] <= 0:
            raise ValueError(
                "one-quadric classification applies to the free sphere case "
                "(all coefficients equal and positive)"
            )
        facts = [f"Z = S^{2 * m - 1}", f"R = S^{m - 1}"]
        if m % 2 == 0:
            name = f"S^{m-1} x S^1"
            facts.append("the spread of the sphere by the diagonal circle is a product")
        else:
            name = f"K^{m}"
            facts.append(f"K^{m}: {m}-dimensional Klein bottle")
        return TopologyDescriptor(name=name, parameters={"m": m}, facts=tuple(facts))
    if k == 2:
        can = two_quadrics_canonical(Q)
        p, q = can.p, can.q
        if l is None:
            raise ValueError("two-quadric classification needs the twisting parameter l")
        if not (0 <= l <= p):
            raise ValueError(f"twisting parameter l={l} outside [0, {p}]")
        facts = [
            f"Z = S^{2*p-1} x S^{2*q-1}",
            f"R = S^{p-1} x S^{q-1}",
            f"total space of an N({q})-bundle over N({p})",
            f"bundle over T^2 with fiber S^{p-1} x S^{q-1}",
            "bundle over the real toric base with fiber T^2",
        ]
        if p % 2 == 0 and q % 2 == 0 and l % 2 == 0:
            trivial = True
            facts.append(f"trivial bundle: N_{l}({p},{q}) = N({p}) x N({q})")
            if (p, q) == (2, 2):
                facts.append("trivial bundle: T^4 = T^2 x T^2")
        elif p % 2 == 0 and q % 2 == 0 and l % 2 == 1:
            trivial = False
            facts.append(f"nontrivial N({q})-bundle over N({p})")
            if (p, q) == (2, 2):
                facts.append("nontrivial T^2 bundle over T^2")
        else:
            trivial = None
        return TopologyDescriptor(
            name=f"N_{l}({p},{q})", parameters={"p": p, "q": q, "l": l}, facts=tuple(facts),
            trivial=trivial,
        )
    raise ValueError("classification implemented for one or two quadrics only")


# ---------------------------------------------------------------------------
# double configurations


class StackValidationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class DoubleConfiguration:
    gamma_cfg: QuadricConfiguration
    delta_cfg: QuadricConfiguration
    stacked: QuadricConfiguration
    checks: dict

    @property
    def ambient_dim(self) -> int:
        return self.gamma_cfg.ambient_dim


def stack_report(checks: dict) -> VerificationReport:
    """One record per check of a double, in the order they ran.

    The second system's own boundedness and freeness are informational:
    their records pass and carry the verdict. Every other check is
    required: nondegeneracy of each system, and boundedness and freeness
    of the first system and of the stack (freeness of the stack is freeness
    of the second torus on the reduced space).
    """
    rep = VerificationReport()
    for name, check in checks.items():
        passed = check.all_ok if isinstance(check, NondegeneracyReport) else bool(check)
        informational = name in ("bounded_delta", "free_delta")
        rep.add_bool(name, passed or informational, detail=f"informational: {passed}" if informational else "")
    return rep


def stack_double(
    gamma_cfg: QuadricConfiguration, delta_cfg: QuadricConfiguration
) -> DoubleConfiguration:
    """Stack two quadric systems; refuse, with a witness, a double that fails a check of ``stack_report``."""
    if gamma_cfg.ambient_dim != delta_cfg.ambient_dim:
        raise StackValidationError("ambient dimensions disagree")
    m = gamma_cfg.ambient_dim
    rows = list(gamma_cfg.gamma.entries) + list(delta_cfg.gamma.entries)
    c = list(gamma_cfg.c) + list(delta_cfg.c)
    try:
        stacked = QuadricConfiguration(IntegerMatrix(rows, cols=m), c)
    except ValueError as exc:
        raise StackValidationError(f"stacked system rejected: {exc}", witness="dependent rows") from exc

    checks: dict = {}
    for label, cfg in (("gamma", gamma_cfg), ("delta", delta_cfg), ("stacked", stacked)):
        if cfg.num_quadrics == 0:
            continue
        checks[f"nondeg_{label}"] = nondegeneracy_check(cfg)
        checks[f"bounded_{label}"] = boundedness_check(cfg)
        checks[f"free_{label}"] = freeness_check(cfg)

    failed = [r.name for r in stack_report(checks).records if not r.passed]
    if failed:
        # every system's nondegeneracy is refused before any boundedness or freeness
        name = min(failed, key=lambda name: not name.startswith("nondeg"))
        check = checks[name]
        witness = check.witness_b if isinstance(check, NondegeneracyReport) else getattr(check, "witness", None)
        raise StackValidationError(f"stacked configuration fails {name}", witness=witness)
    return DoubleConfiguration(gamma_cfg, delta_cfg, stacked, checks)


def ntilde_chart(
    D: DoubleConfiguration,
    base,
    v: Sequence[float],
    phi_delta: Sequence[float],
    spec: MetricSpec = DEFAULT_SPEC,
) -> ChartSample:
    """One-point sample of the lift of the reduced-space Lagrangian into the first system.

    The base moves on the intersection of the two real loci; only the
    second system's torus supplies phases.
    """
    chart = TorusSpreadChart(
        D.stacked, base, phase_rows=D.delta_cfg.gamma_float(), newton_tol=spec.newton_tol
    )
    params = np.concatenate([np.asarray(v, dtype=float), np.asarray(phi_delta, dtype=float)])
    return chart_point(chart, params, Q=D.stacked, spec=spec)


def _horizontal_residual(D: DoubleConfiguration, z: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Symplectic residual of the first-torus-horizontal part of given tangent columns.

    Batched: points ``z`` (N, m) and columns (N, m, d) give N residuals.
    """
    orb = orbit_generators(D.gamma_cfg, z)  # (N, k_gamma, m)
    orb_r = np.swapaxes(c2r(orb), -2, -1)  # (N, 2m, k)
    Qo, _ = np.linalg.qr(orb_r)
    cols_r = np.concatenate([columns.real, columns.imag], axis=-2)  # (N, 2m, d)
    horiz = cols_r - Qo @ (np.swapaxes(Qo, -2, -1) @ cols_r)
    Qh, R = np.linalg.qr(horiz)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    # columns of a rank-deficient horizontal part are dropped: zero vectors pair to 0
    keep = diag > 1e-9 * np.maximum(1.0, diag.max(axis=-1, keepdims=True))
    frame = r2c(np.swapaxes(Qh * keep[:, None, :], -2, -1))
    return frame_symplectic_residual(frame)


def ntilde_lagrangian_residual(D: DoubleConfiguration, sample: ChartSample) -> np.ndarray:
    """Symplectic pairing residual of the reduced Lagrangian, tested upstairs, per sample.

    The horizontal complement of the first torus orbit inside the lifted
    tangent space pairs to zero exactly when the reduced submanifold is
    Lagrangian for the reduced form.
    """
    z, J = sample.jet[:2]  # (N, m), (N, m, d)
    return _horizontal_residual(D, z, J)


def stacked_tangent_horizontal_residual(D: DoubleConfiguration, Z: np.ndarray) -> np.ndarray:
    """Same reduction but for the full tangent space of the stacked quadric set, at the rows of Z.

    Serves as the negative control: the reduced image of the whole
    intersection is not Lagrangian, so this residual is far from zero.
    """
    frames = tangent_frame_Z(D.stacked, Z)  # (N, dim, m) complex
    return _horizontal_residual(D, Z, np.swapaxes(frames, -2, -1))


# ---------------------------------------------------------------------------
# projective reduction, checked upstairs


def is_projective(Q_gamma: QuadricConfiguration) -> bool:
    """Whether a first system reduces C^m to CP^(m-1): one quadric, equal coefficients.

    Its level set is then the round sphere |z|^2 = c / gamma, T_gamma is the
    diagonal circle, and every orbit on the sphere has the same length.
    """
    return Q_gamma.num_quadrics == 1 and len(set(Q_gamma.gamma.entries[0])) == 1


def circle_invariants(z: np.ndarray) -> np.ndarray:
    """q(z) = (conj(z_k) z_l)_{k<=l}, the invariants of the diagonal circle, batched."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    K, L = np.triu_indices(z.shape[-1])
    return np.conj(z[:, K]) * z[:, L]


def circle_invariant_hamiltonian(
    F: tuple[Callable, Callable, Callable], m: int
) -> tuple[Callable, Callable, Callable]:
    """f = F o q on C^m, with its gradient and Hessian by the chain rule.

    ``F`` is a function of q with its gradient and Hessian, batched and
    packed as ``_poly_scalar``'s. With M the upper triangle holding F's
    gradient at q(z), the packed gradient of f is A z, A = conj(M) + M^T
    (Hermitian). Its derivative along V is A V + A' z, with A' built the
    same way from F's Hessian applied to dq = conj(V_k) z_l + conj(z_k) V_l.
    """
    F_f, F_grad, F_hess = F
    K, L = np.triu_indices(m)

    def hermitian(G):  # A = conj(M) + M^T, M the upper triangle holding G
        A = np.zeros(G.shape[:-1] + (m, m), dtype=complex)
        A[..., K, L] = np.conj(G)
        A[..., L, K] += G
        return A

    def f(z):
        return F_f(circle_invariants(z))

    def grad(z):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        return np.einsum("nkl,nl->nk", hermitian(F_grad(circle_invariants(z))), z)

    def hess(z, V):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        q = circle_invariants(z)
        dq = np.conj(V[..., K]) * z[:, None, L] + np.conj(z[:, None, K]) * V[..., L]
        return (np.einsum("nkl,ndl->ndk", hermitian(F_grad(q)), V)
                + np.einsum("ndkl,nl->ndk", hermitian(F_hess(q, dq)), z))

    return f, grad, hess


# ---------------------------------------------------------------------------
# the named catalog


def _catalog_ints(name: str, count: int, least: int) -> tuple[int, ...]:
    """The ``count`` comma-separated parameters after the colon of a catalog name.

    Raises ``KeyError`` when one is missing or not a plain decimal integer,
    or when one is below ``least``, the smallest value that builds.
    """
    params = name.split(":", 1)[1].split(",")
    if len(params) != count or not all(p.isascii() and p.isdigit() for p in params):
        raise KeyError(f"catalog instance {name!r} takes {count} integer parameter(s)")
    values = tuple(int(p) for p in params)
    if min(values) < least:
        raise KeyError(f"catalog instance {name!r} needs parameters of at least {least}")
    return values


def catalog_polytope(name: str) -> PolytopePresentation:
    if name == "triangle":
        return PolytopePresentation([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])
    if name == "bad-triangle":
        return PolytopePresentation([(1, 0), (0, 1), (-1, -2)], [0, 0, 1])
    if name == "square":
        return PolytopePresentation([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1])
    if name.startswith("simplex:"):
        (n,) = _catalog_ints(name, 1, 1)
        normals = [tuple(int(i == k) for i in range(n)) for k in range(n)] + [(-1,) * n]
        return PolytopePresentation(normals, [0] * n + [1])
    if name.startswith("cube:"):
        (n,) = _catalog_ints(name, 1, 1)
        normals, offsets = [], []
        for k in range(n):
            normals.append(tuple(int(i == k) for i in range(n)))
            offsets.append(0)
            normals.append(tuple(-int(i == k) for i in range(n)))
            offsets.append(1)
        return PolytopePresentation(normals, offsets)
    if name.startswith("product:"):
        p, q = _catalog_ints(name, 2, 2)
        n1, n2 = p - 1, q - 1
        n = n1 + n2
        normals, offsets = [], []
        for k in range(n1):
            normals.append(tuple(int(i == k) for i in range(n)))
            offsets.append(0)
        normals.append(tuple(-1 if i < n1 else 0 for i in range(n)))
        offsets.append(1)
        for k in range(n2):
            normals.append(tuple(int(i == n1 + k) for i in range(n)))
            offsets.append(0)
        normals.append(tuple(-1 if i >= n1 else 0 for i in range(n)))
        offsets.append(1)
        return PolytopePresentation(normals, offsets)
    raise KeyError(f"unknown catalog polytope {name!r}")


def catalog_quadrics(name: str) -> QuadricConfiguration:
    if name.startswith("one-quadric:"):
        (m,) = _catalog_ints(name, 1, 1)
        return QuadricConfiguration.from_rows([(1,) * m], [1])
    if name.startswith("two-quadrics:"):
        p, q = _catalog_ints(name, 2, 1)
        m = p + q
        return QuadricConfiguration.from_rows(
            [(1,) * m, (1,) * p + (-1,) * q], [2, 0]
        )
    raise KeyError(f"unknown catalog quadric configuration {name!r}")


def catalog_double(name: str) -> DoubleConfiguration:
    if name == "cp2-torus":
        g = QuadricConfiguration.from_rows([(1, 1, 1)], [2])
        d = QuadricConfiguration.from_rows([(1, 1, 2)], [3])
        return stack_double(g, d)
    if name == "rp2":
        g = QuadricConfiguration.from_rows([(1, 1, 1)], [1])
        d = QuadricConfiguration(IntegerMatrix([], cols=3), [])
        return stack_double(g, d)
    raise KeyError(f"unknown catalog double configuration {name!r}")


POLYTOPE_NAMES = (
    "triangle",
    "square",
    "bad-triangle",
    "simplex:2",
    "simplex:3",
    "simplex:4",
    "cube:2",
    "cube:3",
    "product:2,2",
    "product:2,3",
    "product:3,3",
)
QUADRIC_NAMES = ("one-quadric:2", "one-quadric:3", "one-quadric:4", "two-quadrics:2,2")
DOUBLE_NAMES = ("cp2-torus", "rp2")


def catalog_names() -> tuple[str, ...]:
    return POLYTOPE_NAMES + QUADRIC_NAMES + DOUBLE_NAMES


# ---------------------------------------------------------------------------
# explicit full-cover charts for the closed low-dimensional cases


def one_quadric_torus_chart(Q: QuadricConfiguration) -> CircleSpreadChart:
    """Global (theta, phi) chart of the spread of the circle (ambient dim 2).

    z = sqrt(c / gamma) exp(2 pi i gamma phi) (cos theta, sin theta). Covers
    the closed surface (as a 2:1 deck cover); both axes are periodic with
    periods 2*pi and 1/gamma.
    """
    if Q.num_quadrics != 1 or Q.ambient_dim != 2:
        raise ValueError("global chart implemented for one quadric in C^2")
    gamma = Q.gamma.entries[0][0]
    root = np.sqrt(float(Q.c[0]) / gamma)
    return CircleSpreadChart([root, 0.0], [0.0, root], [0.0, 0.0], [gamma, gamma],
                             (TWO_PI, 1.0 / gamma))


def cp2_torus_lift_chart(D: DoubleConfiguration) -> CircleSpreadChart:
    """Global (angle, phi_gamma, phi_delta) chart of the lifted torus of the cp2 instance:
    exp(2 pi i (phi_gamma (1, 1, 1) + phi_delta (1, 1, 2))) (cos angle, sin angle, 1)."""
    return CircleSpreadChart(np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], D.stacked.gamma_float(),
                             (TWO_PI, 1.0, 1.0))


# ---------------------------------------------------------------------------
# projective verification

CP_CUTOFF_RADIUS = 0.42  # the ball cutoff of the localized Hamiltonians, in q-space


class CpSetup(NamedTuple):
    """What ``cp_chart_verify`` measures on: a sample of the lift chart for
    the Lagrangian residual, the stationarity patch, and the circle-invariant
    Hamiltonian's gradient and Hessian on C^m."""

    sample: ChartSample
    patch: ChartPatch
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    localized: bool


def _phase_half_width(u0: np.ndarray, row: np.ndarray, rho: float) -> float:
    """Twice the reach of the q-ball of radius rho about q(u0) along the phases of ``row``.

    The reach is the first phi of a grid on (0, 1/2] at which
    exp(2 pi i phi row) u0 leaves the ball; the factor 2 covers the ball's
    wider reach away from the axis.
    """
    phi = np.linspace(0.0, 0.5, 501)[1:]
    dist = np.linalg.norm(circle_invariants(np.exp(1j * TWO_PI * phi[:, None] * row) * u0)
                          - circle_invariants(u0), axis=1)
    out = np.flatnonzero(dist >= rho)
    return 2.0 * float(phi[out[0]] if out.size else phi[-1])


def cp_chart_setup(
    D: DoubleConfiguration, samples: int = 50, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> CpSetup:
    """The lift sample, patch and Hamiltonian of ``cp_chart_verify`` at ``seed``.

    The lift is the spread chart of the stacked system with its default
    phase rows, the first torus's first. The patch takes one node along that
    phase: every integrand is constant along the circle. The cp2 torus uses
    its global chart and one random Hamiltonian quadratic in q; the others a
    box centred on the real base point, with the Hamiltonian cut off by a
    ball in q-space around q(base) and each second-torus phase half-width
    from the ball's reach along that phase.
    """
    if not is_projective(D.gamma_cfg):
        raise ValueError("projective verification needs a first system of one quadric "
                         "with equal coefficients")
    rng = np.random.default_rng(seed)
    m = D.ambient_dim
    localized = not (D.stacked.gamma.entries == ((1, 1, 1), (1, 1, 2)) and D.stacked.c == (2, 3))
    # the samples sit at the circle's phase 0: every residual is constant along it
    if not localized:
        chart = cp2_torus_lift_chart(D)
        S = np.stack([rng.uniform(0, TWO_PI, samples), np.zeros(samples),
                      rng.uniform(0, 1, samples)], axis=-1)
        lo, hi, nodes = np.zeros(3), np.array(chart.periods), [18, 1, 18]
    else:
        base = real_base_point(D.stacked)
        chart = TorusSpreadChart(D.stacked, base, newton_tol=spec.newton_tol)
        nv, ndelta = chart.nv, chart.nphi - 1
        S = np.concatenate([0.3 * rng.uniform(-1, 1, (samples, nv)), np.zeros((samples, 1)),
                            rng.uniform(0, 1, (samples, ndelta))], axis=-1)
        # v in [-0.5, 0.5], one period of the circle, and each second-torus
        # phase out to twice the cutoff's reach along it
        hi = np.array([0.5] * nv + [0.5 / abs(D.gamma_cfg.gamma.entries[0][0])]
                      + [_phase_half_width(base, row, CP_CUTOFF_RADIUS)
                         for row in D.delta_cfg.gamma_float()])
        lo, nodes = -hi, [40] * nv + [1] + [40] * ndelta
    sample = ChartSample.at(chart, S, 1)
    patch = ChartPatch(chart=chart, lo=lo, hi=hi, nodes=nodes, order=1)
    # the Hamiltonians of the C^m check, as functions of the circle invariants
    poly = _poly_scalar(m * (m + 1) // 2, rng)
    if localized:
        poly = _radial_cutoff(poly, circle_invariants(base)[0], CP_CUTOFF_RADIUS)
    _, grad, hess = circle_invariant_hamiltonian(poly, m)
    return CpSetup(sample, patch, grad, hess, localized)


def cp_chart_verify(
    D: DoubleConfiguration,
    samples: int,
    seed: int = 0,
    spec: MetricSpec = DEFAULT_SPEC,
) -> VerificationReport:
    """Verification of the reduced Lagrangian in CP^(m-1), on its lift in flat C^m.

    The lift is invariant under the diagonal circle T_gamma, whose orbits on
    the level set all have the same length V_orb, so vol(reduced) =
    vol(lift) / V_orb. The reduced submanifold is Lagrangian exactly when
    the lift is, and a circle-invariant Hamiltonian's flow descends to the
    reduced flow, so the lift's Lagrangian residual and its volume
    stationarity under such Hamiltonians (functions of ``circle_invariants``)
    check the reduced claims. On the localized instances
    ``stationarity_ratio`` checks that the field vanishes near the patch
    boundary.
    """
    rep = VerificationReport(seed=seed)
    setup = cp_chart_setup(D, samples, seed, spec)
    lag = float(lagrangian_residual(D.stacked, setup.sample).max())
    rep.add("cp-lagrangian-residual", lag, TOL_LAGRANGIAN, samples=samples)
    X = hamiltonian_vector_field(setup.grad, setup.hess)
    ratio = stationarity_ratio(setup.patch, X, setup.localized)
    rep.add("cp-hamiltonian-stationarity", ratio, TOL_STATIONARITY)
    return rep
