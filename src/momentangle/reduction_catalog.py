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

from .charts import c2r, global_chart
from .exact_linalg import IntegerMatrix
from .polytope import PolytopePresentation
from .quadric_config import (
    NondegeneracyReport,
    QuadricConfiguration,
    nondegeneracy_check,
    boundedness_check,
    two_quadrics_signature,
)
from .report import TOL_LAGRANGIAN, TOL_STATIONARITY, VerificationReport
from .submanifold_numerics import (
    NODE_BUDGET,
    ChartPatch,
    ChartSample,
    _poly_scalar,
    frame_symplectic_residual,
    hamiltonian_vector_field,
    lagrangian_residual,
    stationarity_ratio,
    tangent_frame_Z,
    whole_nodes,
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

    For two quadrics N is N_l(p, q), with (p, q) from
    ``two_quadrics_signature``: p columns of Gamma lie counterclockwise of
    c and q clockwise, decided exactly and with no bound on the entries.
    The twisting number l is caller-supplied; only its range, 0 <= l <= p,
    and the parity-decidable bundle facts are validated here.
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
        p, q = two_quadrics_signature(Q)
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


def _horizontal_residual(D: DoubleConfiguration, z: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Symplectic residual of the first-torus-horizontal part of given real tangent columns.

    Batched: points ``z`` (N, m) and columns (N, 2m, d), real parts first, give N residuals.
    """
    orb = orbit_generators(D.gamma_cfg, z)  # (N, k_gamma, m)
    Qo, _ = np.linalg.qr(np.swapaxes(c2r(orb), -2, -1))  # (N, 2m, k)
    horiz = columns - Qo @ (np.swapaxes(Qo, -2, -1) @ columns)
    Qh, R = np.linalg.qr(horiz)
    # a column whose horizontal part, off the earlier ones, is below 1e-9 of its own
    # length is dropped, at any scale of the columns: zero vectors pair to 0
    keep = np.abs(np.diagonal(R, axis1=-2, axis2=-1)) > 1e-9 * np.linalg.norm(columns, axis=-2)
    return frame_symplectic_residual(Qh * keep[:, None, :])


def ntilde_lagrangian_residual(D: DoubleConfiguration, sample: ChartSample) -> np.ndarray:
    """Symplectic pairing residual of the reduced Lagrangian, tested upstairs, per sample.

    The horizontal complement of the first torus orbit inside the lifted
    tangent space pairs to zero exactly when the reduced submanifold is
    Lagrangian for the reduced form.
    """
    return _horizontal_residual(D, sample.points, sample.real_jacobian)


def stacked_tangent_horizontal_residual(D: DoubleConfiguration, Z: np.ndarray) -> np.ndarray:
    """Same reduction but for the full tangent space of the stacked quadric set, at the rows of Z.

    Serves as the negative control: the reduced image of the whole
    intersection is not Lagrangian, so this residual is far from zero.
    """
    return _horizontal_residual(D, Z, tangent_frame_Z(D.stacked, Z))


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


def _simplex_product(dims: Sequence[int]) -> PolytopePresentation:
    """The product of standard simplices of dimensions ``dims``.

    Factor j contributes its coordinate facets x_i >= 0 and then its far
    facet sum x_i <= 1, over its own block of coordinates.
    """
    n = sum(dims)
    normals, offsets = [], []
    start = 0
    for d in dims:
        block = range(start, start + d)
        normals += [tuple(int(i == k) for i in range(n)) for k in block]
        normals.append(tuple(-int(i in block) for i in range(n)))
        offsets += [0] * d + [1]
        start += d
    return PolytopePresentation(normals, offsets)


def catalog_polytope(name: str) -> PolytopePresentation:
    if name == "triangle":
        return _simplex_product((2,))
    if name == "bad-triangle":
        return PolytopePresentation([(1, 0), (0, 1), (-1, -2)], [0, 0, 1])
    if name == "square":
        return PolytopePresentation([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1])
    if name.startswith("simplex:"):
        return _simplex_product(_catalog_ints(name, 1, 1))
    if name.startswith("cube:"):
        (n,) = _catalog_ints(name, 1, 1)
        return _simplex_product((1,) * n)
    if name.startswith("product:"):
        return _simplex_product(tuple(p - 1 for p in _catalog_ints(name, 2, 2)))
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
# projective verification

class CpSetup(NamedTuple):
    """What ``cp_chart_verify`` measures on: the patch over the whole lift, whose
    nodes the Lagrangian residual reads, and the circle-invariant Hamiltonian's
    gradient and Hessian on C^m."""

    patch: ChartPatch
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]


def cp_lift_nodes(D: DoubleConfiguration) -> list[int] | None:
    """The node counts (``whole_nodes``) of the patch over the whole lift, on the stacked system's
    global chart, where the first system is projective; else None. The Hamiltonian is quadratic in
    the circle invariants q, so each integrand is a sum of products of two q (or their conjugates)
    times factors that no phase moves: of degree 2 (max_k R_jk - min_k R_jk) along phase j, R the
    phase rows, so 0 along the first, the circle, and 4 along an azimuth. Every azimuth of a lift
    turns two equal columns: its first row has equal entries a, so one class's g p share g = a / p_0."""
    chart = global_chart(D.stacked) if is_projective(D.gamma_cfg) else None
    return whole_nodes(chart, lambda rows: 2 * (rows.max(axis=1) - rows.min(axis=1)), 4)


def cp_chart_setup(D: DoubleConfiguration, seed: int) -> CpSetup:
    """The lift patch (``cp_lift_nodes``) and the Hamiltonian of ``cp_chart_verify`` at ``seed``:
    one random quadratic polynomial in the circle invariants, drawn from ``default_rng(seed)``."""
    nodes = cp_lift_nodes(D)
    if nodes is None:
        raise ValueError("projective verification needs a first system of one quadric with equal "
                         "coefficients and a stacked system whose real locus is a product of ellipsoids, "
                         f"on a patch of at most {NODE_BUDGET} nodes")
    m = D.ambient_dim
    patch = ChartPatch.over(global_chart(D.stacked), nodes, order=1)
    # the Hamiltonian of the C^m check, as a function of the circle invariants
    _, grad, hess = circle_invariant_hamiltonian(_poly_scalar(m * (m + 1) // 2, np.random.default_rng(seed)), m)
    return CpSetup(patch, grad, hess)


def cp_chart_verify(D: DoubleConfiguration, seed: int = 0) -> VerificationReport:
    """Verification of the reduced Lagrangian in CP^(m-1), on its lift in flat C^m.

    The lift is invariant under the diagonal circle T_gamma, whose orbits on
    the level set all have the same length V_orb, so vol(reduced) =
    vol(lift) / V_orb. The reduced submanifold is Lagrangian exactly when
    the lift is, and a circle-invariant Hamiltonian's flow descends to the
    reduced flow, so the lift's Lagrangian residual and its volume
    stationarity under such Hamiltonians (functions of ``circle_invariants``)
    check the reduced claims, both on the nodes of one patch over the whole lift.
    """
    rep = VerificationReport(seed=seed)
    setup = cp_chart_setup(D, seed)
    rep.add("cp-lagrangian-residual", float(lagrangian_residual(D.stacked, setup.patch).max()), TOL_LAGRANGIAN,
            samples=len(setup.patch))
    ratio = stationarity_ratio(setup.patch, hamiltonian_vector_field(setup.grad, setup.hess))
    rep.add("cp-hamiltonian-stationarity", ratio, TOL_STATIONARITY)
    return rep
