"""Worked families, topology descriptors, stacked double configurations and
the projective-chart verification path.

The catalog names the desk-scale instances every verification command can
address: polytopes ("triangle", "square", "simplex:n", "cube:n",
"product:p,q", "bad-triangle"), quadric systems ("one-quadric:m",
"two-quadrics:p,q"), and double configurations ("cp2-torus", "rp2").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .charts import Chart, CircleSpreadChart, TorusSpreadChart, c2r, r2c
from .exact_linalg import IntegerMatrix
from .polytope import PolytopePresentation
from .quadric_config import (
    NondegeneracyReport,
    QuadricConfiguration,
    nondegeneracy_check,
    boundedness_check,
    two_quadrics_canonical,
)
from .report import VerificationReport
from .submanifold_numerics import (
    DEFAULT_SPEC,
    stationarity_ratio,
    ChartPatch,
    ChartPoint,
    ChartSample,
    MetricField,
    MetricSpec,
    VectorField,
    _batch,
    _per_point,
    _poly_scalar,
    _radial_cutoff,
    chart_point,
    frame_symplectic_residual,
)
from .torus_actions import freeness_check, orbit_generators
from .verdict import Verdict

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


def stack_double(
    gamma_cfg: QuadricConfiguration, delta_cfg: QuadricConfiguration
) -> DoubleConfiguration:
    """Stack two quadric systems and validate the reduction prerequisites.

    Required: nondegeneracy of each nonempty system and of the stack;
    boundedness and torus-freeness of the first system and of the stack
    (freeness of the stack is freeness of the second torus on the reduced
    space). The second system's own boundedness/freeness are reported but
    not required. Failures refuse construction and carry a witness.
    """
    if gamma_cfg.ambient_dim != delta_cfg.ambient_dim:
        raise StackValidationError("ambient dimensions disagree")
    m = gamma_cfg.ambient_dim
    rows = list(gamma_cfg.gamma.entries) + list(delta_cfg.gamma.entries)
    c = list(gamma_cfg.c) + list(delta_cfg.c)
    try:
        stacked = QuadricConfiguration(IntegerMatrix(rows, cols=m), c, mode="complex")
    except ValueError as exc:
        raise StackValidationError(f"stacked system rejected: {exc}", witness="dependent rows") from exc

    checks: dict = {}
    for label, cfg in (("gamma", gamma_cfg), ("delta", delta_cfg), ("stacked", stacked)):
        if cfg.num_quadrics == 0:
            continue
        checks[f"nondeg_{label}"] = nondegeneracy_check(cfg)
        checks[f"bounded_{label}"] = boundedness_check(cfg)
        checks[f"free_{label}"] = freeness_check(cfg)

    required: list[tuple[str, object]] = []
    for label in ("gamma", "delta", "stacked"):
        if f"nondeg_{label}" in checks:
            required.append((f"nondeg_{label}", checks[f"nondeg_{label}"].all_ok))
    for label in ("gamma", "stacked"):
        if f"bounded_{label}" in checks:
            required.append((f"bounded_{label}", checks[f"bounded_{label}"]))
        if f"free_{label}" in checks:
            required.append((f"free_{label}", bool(checks[f"free_{label}"])))
    for name, ok in required:
        if not ok:
            witness = None
            check_obj = checks[name]
            if isinstance(check_obj, Verdict):
                witness = check_obj.witness
            elif isinstance(check_obj, NondegeneracyReport):
                witness = check_obj.witness_b
            raise StackValidationError(f"stacked configuration fails {name}", witness=witness)
    return DoubleConfiguration(gamma_cfg, delta_cfg, stacked, checks)


def ntilde_chart(
    D: DoubleConfiguration,
    base,
    v: Sequence[float],
    phi_delta: Sequence[float],
    spec: MetricSpec = DEFAULT_SPEC,
) -> ChartPoint:
    """Chart of the lift of the reduced-space Lagrangian into the first system.

    The base moves on the intersection of the two real loci; only the
    second system's torus supplies phases.
    """
    chart = TorusSpreadChart(
        D.stacked, base, phase_rows=D.delta_cfg.gamma_float(), newton_tol=spec.newton_tol
    )
    params = np.concatenate([np.asarray(v, dtype=float), np.asarray(phi_delta, dtype=float)])
    return chart_point(chart, params, Q=D.stacked, spec=spec)


def _horizontal_residual(D: DoubleConfiguration, z: np.ndarray, columns: np.ndarray,
                         spec: MetricSpec) -> np.ndarray:
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
    return frame_symplectic_residual(frame, spec)


def ntilde_lagrangian_residual(
    D: DoubleConfiguration, p: ChartPoint | ChartSample, spec: MetricSpec = DEFAULT_SPEC
) -> float | np.ndarray:
    """Symplectic pairing residual of the reduced Lagrangian, tested upstairs.

    The horizontal complement of the first torus orbit inside the lifted
    tangent space pairs to zero exactly when the reduced submanifold is
    Lagrangian for the reduced form. A ``ChartSample`` gives one value per
    point.
    """
    S, Z = _batch(p)
    J = p.chart.jacobian(S)  # (N, m, d)
    return _per_point(p, _horizontal_residual(D, Z, J, spec))


def stacked_tangent_horizontal_residual(
    D: DoubleConfiguration, z, spec: MetricSpec = DEFAULT_SPEC
) -> float:
    """Same reduction but for the full tangent space of the stacked quadric set.

    Serves as the negative control: the reduced image of the whole
    intersection is not Lagrangian, so this residual is far from zero.
    """
    from .submanifold_numerics import tangent_frame_Z

    frame = tangent_frame_Z(D.stacked, z, spec)  # (dim, m) complex
    return float(_horizontal_residual(D, np.asarray(z, complex)[None, :], frame.T[None], spec)[0])


# ---------------------------------------------------------------------------
# projective chart pipeline (single-quadric first system)


def cp_affine_index(z: np.ndarray) -> int:
    """Chart choice: the largest-modulus coordinate, lowest index on ties."""
    return int(np.argmax(np.abs(np.asarray(z))))


def cp_affine_coords(z: np.ndarray, j: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if np.min(np.abs(z[..., j])) < 1e-12:
        raise ValueError("chosen affine chart degenerates: dividing coordinate vanishes")
    w = np.delete(z, j, axis=-1)
    return w / z[..., j : j + 1]


def _sphere_radius_sq(Q_gamma: QuadricConfiguration) -> float:
    """a = c / gamma, the squared radius of the sphere level set of a single equal-coefficient quadric."""
    row = Q_gamma.gamma.entries[0] if Q_gamma.num_quadrics == 1 else None
    if row is None or len(set(row)) != 1:
        raise ValueError("projective chart needs a single quadric with equal coefficients")
    return float(Q_gamma.c[0] / row[0])


def _complex_coords(W: np.ndarray) -> np.ndarray:
    """Affine coordinates w = W[:n] + i W[n:] from real chart coordinates (..., 2n)."""
    n = W.shape[-1] // 2
    return W[..., :n] + 1j * W[..., n:]


def _real_chart_blocks(H: np.ndarray, omega_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(Re, omega_scale * Im) of the Hermitian form u* H v in the real chart basis.

    The basis is e_1..e_n, i e_1..i e_n, so with H = A + iB the metric is
    [[A, -B], [B, A]] and the form is omega_scale * [[B, A], [-A, B]].
    """
    A, B = H.real, H.imag
    G = np.concatenate([np.concatenate([A, -B], axis=-1), np.concatenate([B, A], axis=-1)], axis=-2)
    Om = np.concatenate([np.concatenate([B, A], axis=-1), np.concatenate([-A, B], axis=-1)], axis=-2)
    return G, omega_scale * Om


def cp_reduced_tensors(
    Q_gamma: QuadricConfiguration, W: np.ndarray, spec: MetricSpec = DEFAULT_SPEC
) -> tuple[np.ndarray, np.ndarray]:
    """Metric and symplectic form of the reduced space in an affine chart.

    The quotient of the sphere |z|^2 = a by the diagonal circle is CP^{m-1}
    with a times the Fubini-Study form. In affine coordinates w, with
    rho = 1 + |w|^2, its Hermitian matrix is H(w) = a (I / rho - w w* / rho^2);
    the metric is Re and the symplectic form omega_scale * Im of u* H v. It
    is the same in every affine chart. W holds real chart coordinates (N, D);
    returns (G, Omega) with shape (N, D, D), D = 2(m-1).
    """
    a = _sphere_radius_sq(Q_gamma)
    w = _complex_coords(np.atleast_2d(np.asarray(W, dtype=float)))
    rho = 1.0 + np.sum(np.abs(w) ** 2, axis=-1)[:, None, None]
    H = a * (np.eye(w.shape[-1]) / rho - w[:, :, None] * np.conj(w[:, None, :]) / rho**2)
    return _real_chart_blocks(H, spec.omega_scale)


def cp_reduced_tensor_derivatives(
    Q_gamma: QuadricConfiguration, W: np.ndarray, V: np.ndarray, spec: MetricSpec = DEFAULT_SPEC
) -> tuple[np.ndarray, np.ndarray]:
    """(DG[V], DOmega[V]) of ``cp_reduced_tensors`` at the points W (N, D) along V (N, ..., D).

    Any number of directions per point; the result has shape (N, ..., D, D).
    DH[V] = a (-I drho / rho^2 - (v w* + w v*) / rho^2 + 2 w w* drho / rho^3),
    with v the direction as a complex vector and drho = 2 Re(w* v).
    """
    a = _sphere_radius_sq(Q_gamma)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    V = np.asarray(V, dtype=float)
    lead = (slice(None),) + (None,) * (V.ndim - 2)
    w = _complex_coords(W)[lead]  # broadcast against the directions
    v = _complex_coords(V)
    rho = (1.0 + np.sum(np.abs(w) ** 2, axis=-1))[..., None, None]
    drho = (2.0 * np.real(np.sum(np.conj(w) * v, axis=-1)))[..., None, None]
    ww = w[..., :, None] * np.conj(w[..., None, :])
    vw = v[..., :, None] * np.conj(w[..., None, :])
    DH = a * (-np.eye(w.shape[-1]) * drho / rho**2
              - (vw + np.conj(np.swapaxes(vw, -2, -1))) / rho**2
              + 2.0 * ww * drho / rho**3)
    return _real_chart_blocks(DH, spec.omega_scale)


def cp_reduced_metric(Q_gamma: QuadricConfiguration, spec: MetricSpec = DEFAULT_SPEC) -> MetricField:
    """The reduced metric of ``cp_reduced_tensors`` with its closed-form derivative."""
    return MetricField(
        lambda W: cp_reduced_tensors(Q_gamma, W, spec)[0],
        lambda W, V: cp_reduced_tensor_derivatives(Q_gamma, W, V, spec)[0],
    )


def cp_hamiltonian_field(
    Q_gamma: QuadricConfiguration,
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: MetricSpec = DEFAULT_SPEC,
) -> VectorField:
    """The Hamiltonian field X = -Omega^-1 grad f of the reduced form, with its derivative.

    ``grad(W)`` (N, D) and ``hess(W, V)`` (N, d, D) are the chart gradient
    and Hessian of f. Differentiating Omega X = -grad f gives
    DX[V] = -Omega^-1 (Hess f V + DOmega[V] X).
    """

    def value(W):
        _, Om = cp_reduced_tensors(Q_gamma, W, spec)
        return np.linalg.solve(-Om, grad(W)[..., None])[..., 0]

    def derivative(W, V):
        _, Om = cp_reduced_tensors(Q_gamma, W, spec)
        X = np.linalg.solve(-Om, grad(W)[..., None])  # (N, D, 1)
        _, DOm = cp_reduced_tensor_derivatives(Q_gamma, W, V, spec)  # (N, d, D, D)
        rhs = hess(W, V) + (DOm @ X[:, None])[..., 0]  # (N, d, D)
        return np.swapaxes(np.linalg.solve(-Om, np.swapaxes(rhs, 1, 2)), 1, 2)

    return VectorField(value, derivative)


class CpChart(Chart):
    """The affine projective chart w = z_rest / z_j of a lift chart, in real coordinates.

    Its jacobian is the chain rule dw = (dz_rest - w dz_j) / z_j on the
    lift's jacobian.
    """

    ambient = "real"

    def __init__(self, lift_chart: Chart, j: int):
        self.lift_chart = lift_chart
        self.j = j
        self.dim = lift_chart.dim
        self.ambient_dim = 2 * (lift_chart.ambient_dim - 1)

    def value(self, S: np.ndarray) -> np.ndarray:
        return c2r(cp_affine_coords(self.lift_chart.value(S), self.j))

    def jacobian(self, S: np.ndarray) -> np.ndarray:
        j = self.j
        z = self.lift_chart.value(S)
        w = cp_affine_coords(z, j)
        J = self.lift_chart.jacobian(S)  # (N, m, d)
        dw = (np.delete(J, j, axis=1) - w[:, :, None] * J[:, j : j + 1]) / z[:, j, None, None]
        return np.concatenate([dw.real, dw.imag], axis=1)


def cp_lagrangian_residual(
    D: DoubleConfiguration, chart: CpChart, params: np.ndarray, spec: MetricSpec = DEFAULT_SPEC
) -> float:
    """max |omega_red(f_i, f_j)| over a reduced-metric-orthonormal chart frame."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    J = chart.jacobian(params)  # (N, D, d)
    G, Om = cp_reduced_tensors(D.gamma_cfg, chart.value(params), spec)
    L = np.linalg.cholesky(np.swapaxes(J, 1, 2) @ G @ J)
    F = J @ np.swapaxes(np.linalg.inv(L), 1, 2)
    return float(np.abs(np.swapaxes(F, 1, 2) @ Om @ F).max())


# ---------------------------------------------------------------------------
# the named catalog


def catalog_polytope(name: str) -> PolytopePresentation:
    if name == "triangle":
        return PolytopePresentation([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])
    if name == "bad-triangle":
        return PolytopePresentation([(1, 0), (0, 1), (-1, -2)], [0, 0, 1])
    if name == "square":
        return PolytopePresentation([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1])
    if name.startswith("simplex:"):
        n = int(name.split(":", 1)[1])
        normals = [tuple(int(i == k) for i in range(n)) for k in range(n)] + [(-1,) * n]
        return PolytopePresentation(normals, [0] * n + [1])
    if name.startswith("cube:"):
        n = int(name.split(":", 1)[1])
        normals, offsets = [], []
        for k in range(n):
            normals.append(tuple(int(i == k) for i in range(n)))
            offsets.append(0)
            normals.append(tuple(-int(i == k) for i in range(n)))
            offsets.append(1)
        return PolytopePresentation(normals, offsets)
    if name.startswith("product:"):
        p, q = (int(t) for t in name.split(":", 1)[1].split(","))
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
        m = int(name.split(":", 1)[1])
        return QuadricConfiguration.from_rows([(1,) * m], [1])
    if name.startswith("two-quadrics:"):
        p, q = (int(t) for t in name.split(":", 1)[1].split(","))
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
        d = QuadricConfiguration(IntegerMatrix([], cols=3), [], mode="complex")
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
    """Global (angle, phi_delta) chart of the lifted torus of the cp2 instance:
    exp(2 pi i phi (1, 1, 2)) (cos angle, sin angle, 1)."""
    return CircleSpreadChart(np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], [1, 1, 2], (TWO_PI, 1.0))


# ---------------------------------------------------------------------------
# projective chart verification

CP_TOL_LAGRANGIAN = 1e-8
CP_TOL_STATIONARITY = 1e-3
CP_CUTOFF_RADIUS = 0.42  # the ball cutoff of the localized Hamiltonians, in chart coordinates


class CpSetup(NamedTuple):
    """What ``cp_chart_verify`` measures on: the affine chart, the Lagrangian
    residual's sample parameters, the stationarity patch, and the random
    chart Hamiltonian's gradient and Hessian in real chart coordinates."""

    chart: CpChart
    sample_S: np.ndarray
    patch: ChartPatch
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    localized: bool


def cp_chart_setup(
    D: DoubleConfiguration, samples: int = 50, seed: int = 0, spec: MetricSpec = DEFAULT_SPEC
) -> CpSetup:
    """The chart, samples, patch and Hamiltonian of ``cp_chart_verify`` at ``seed``.

    The torus instance uses its global chart and one random quadratic
    Hamiltonian; the others a chart box around the real base point and the
    Hamiltonian cut off by a ball around the box centre.
    """
    _sphere_radius_sq(D.gamma_cfg)  # raises unless the first system is one equal-coefficient quadric
    rng = np.random.default_rng(seed)
    is_torus = D.delta_cfg.num_quadrics == 1 and D.ambient_dim == 3
    if is_torus and D.delta_cfg.gamma.entries[0] == (1, 1, 2) and D.gamma_cfg.c == (Fraction(2),):
        lift = cp2_torus_lift_chart(D)
        sample_S = np.stack(
            [rng.uniform(0, TWO_PI, samples), rng.uniform(0, 1, samples)], axis=-1
        )
        box = ([0.0, 0.0], list(lift.periods))
        localized = False
    else:
        from .submanifold_numerics import real_base_point
        base = real_base_point(D.stacked)
        lift = TorusSpreadChart(
            D.stacked, base, phase_rows=D.delta_cfg.gamma_float(), newton_tol=spec.newton_tol
        )
        nv = lift.nv
        sample_S = np.concatenate(
            [0.3 * rng.uniform(-1, 1, (samples, nv)), rng.uniform(0, 1, (samples, lift.nphi))],
            axis=-1,
        )
        box = ([-0.5] * nv + [0.0] * lift.nphi, [0.5] * nv + [1.0] * lift.nphi)
        localized = True

    chart = CpChart(lift, cp_affine_index(lift.value(sample_S[:1])[0]))
    nodes = 40 if localized else 18
    patch = ChartPatch(chart=chart, lo=box[0], hi=box[1], nodes=nodes,
                       ambient_metric=cp_reduced_metric(D.gamma_cfg, spec))
    W0 = chart.value(np.zeros((1, chart.dim)) if localized else sample_S[:1])[0]
    # the Hamiltonians of the C^m check, on the chart coordinates read as C^(D/2)
    poly = _poly_scalar(chart.ambient_dim // 2, rng)
    _, grad, hess = _radial_cutoff(poly, r2c(W0), CP_CUTOFF_RADIUS) if localized else poly
    return CpSetup(chart, sample_S, patch, lambda W: c2r(grad(r2c(W))),
                   lambda W, V: c2r(hess(r2c(W), r2c(V))), localized)


def cp_chart_verify(
    D: DoubleConfiguration,
    samples: int = 50,
    seed: int = 0,
    spec: MetricSpec = DEFAULT_SPEC,
) -> VerificationReport:
    """Affine-chart verification in the reduced projective space.

    Checks the reduced-form Lagrangian residual of the reduced submanifold
    and its volume stationarity under a reduced-form Hamiltonian field, with
    the quotient metric and form in closed form (``cp_reduced_tensors``).
    On the localized instances ``stationarity_ratio`` checks that the field
    vanishes near the patch boundary.
    """
    rep = VerificationReport(seed=seed)
    setup = cp_chart_setup(D, samples, seed, spec)
    lag = cp_lagrangian_residual(D, setup.chart, setup.sample_S, spec)
    rep.add("cp-lagrangian-residual", lag, CP_TOL_LAGRANGIAN, samples=samples)
    X = cp_hamiltonian_field(D.gamma_cfg, setup.grad, setup.hess, spec)
    ratio = stationarity_ratio(setup.patch, X, setup.localized)
    rep.add("cp-hamiltonian-stationarity", ratio, CP_TOL_STATIONARITY)
    return rep
