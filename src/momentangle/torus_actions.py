"""The compact torus acting through a quadric configuration, and its orbits.

The subgroup of the ambient coordinate torus determined by integer quadric
coefficients is parametrized as phi -> (exp(2 pi i <gamma_k, phi>))_k; its
period lattice is the dual of the lattice spanned by the coefficient
columns. Orbit volumes are measured in the flat metric with the dual
lattice's fundamental domain as the unit of phi-volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from .exact_linalg import (
    IntegerMatrix,
    RationalMatrix,
    det,
    det_int,
    hermite_row_form,
    inverse,
    snf_diagonal,
)
from .quadric_config import QuadricConfiguration, degenerate_support, feasible_bases
from .verdict import Verdict

TWO_PI = 2.0 * np.pi


class NonFreePointError(ValueError):
    """The orbit through the point is degenerate (nontrivial stabilizer)."""


@dataclass(frozen=True)
class TorusSubgroup:
    """Column lattice of the coefficients and the dual (period) lattice."""

    lattice_basis: IntegerMatrix  # rows: Hermite basis of the column lattice
    dual_basis: RationalMatrix  # rows: basis of the dual lattice
    dim: int

    @property
    def dual_covolume(self) -> Fraction:
        return abs(det(self.dual_basis))


def torus_subgroup(Q: QuadricConfiguration) -> TorusSubgroup:
    k = Q.num_quadrics
    if k == 0:
        return TorusSubgroup(IntegerMatrix([], cols=0), RationalMatrix([], cols=0), 0)
    basis = hermite_row_form(IntegerMatrix(Q.gamma.columns(), cols=k))
    if basis.rows != k:
        raise ValueError("coefficient columns do not span a full-rank lattice")
    dual = inverse(basis.to_rational().transpose())
    return TorusSubgroup(basis, dual, k)


def two_torsion_elements(T: TorusSubgroup) -> list[tuple[Fraction, ...]]:
    """Representatives of the half-dual modulo the dual lattice, 2^dim of them."""
    out = []
    for eps in product((0, 1), repeat=T.dim):
        vec = [Fraction(0)] * T.dim
        for i, e in enumerate(eps):
            if e:
                for j in range(T.dim):
                    vec[j] += T.dual_basis.entries[i][j] / 2
        out.append(tuple(vec))
    return out


def torus_point(Q: QuadricConfiguration, phi: Sequence[float]) -> np.ndarray:
    """Coordinatewise phases exp(2 pi i <gamma_k, phi>) of the subgroup element."""
    phi = np.asarray(phi, dtype=float)
    angles = phi @ Q.gamma_float()
    return np.exp(2j * np.pi * angles)


def freeness_check(Q: QuadricConfiguration) -> Verdict:
    """Does the torus act freely on the (complex) quadric intersection?

    Every support realized by a point of the zero set contains the support
    of a feasible basis, and columns that generate the column lattice still
    do with more columns added. So the action is free iff no feasible basis
    has a zero coordinate and every feasible basis S has |det gamma_S| equal
    to the lattice index, the product of the Smith diagonal. The witness is
    the first non-generating support by (size, lex): the
    ``nondegeneracy_check`` (b) witness if there is one, () when c = 0 puts
    the origin, fixed by the whole torus, on the zero set; else the first
    bad S.
    """
    bases = feasible_bases(Q)
    witness = degenerate_support(bases)
    if witness is not None:
        return Verdict(False, witness=witness, detail="fewer than k columns carry c")
    index = prod(snf_diagonal(IntegerMatrix(Q.gamma.columns(), cols=Q.num_quadrics)))
    for S, _ in bases:
        gamma_S = IntegerMatrix([[row[i] for i in S] for row in Q.gamma.entries], cols=len(S))
        if abs(det_int(gamma_S)) != index:
            return Verdict(False, witness=S, detail="support columns generate a proper sublattice")
    return Verdict(True)


def orbit_generators(Q: QuadricConfiguration, z) -> np.ndarray:
    """Derivatives at phi = 0 of the torus action, one per phi-coordinate."""
    if Q.mode != "complex":
        raise ValueError("orbit generators live on the complex quadric set")
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != Q.ambient_dim:
        raise ValueError("point dimension mismatch")
    return TWO_PI * 1j * Q.gamma_float() * z[..., None, :]


def orbit_gram(Q: QuadricConfiguration, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    sq = np.abs(z) ** 2
    G = Q.gamma_float()
    return TWO_PI**2 * np.einsum("jk,lk,...k->...jl", G, G, sq)


def orbit_volume(Q: QuadricConfiguration, z) -> float | np.ndarray:
    """Riemannian volume of the torus orbit through z (batched over z).

    Equal to sqrt(det Gram) of the generators times the covolume of the dual
    lattice's fundamental domain. Raises for degenerate orbits.
    """
    T = torus_subgroup(Q)
    gram = orbit_gram(Q, z)
    dets = np.linalg.det(gram)
    scale = np.maximum(np.abs(gram).max(axis=(-2, -1)), 1e-300) ** Q.num_quadrics
    if np.any(dets <= 1e-24 * scale):
        raise NonFreePointError("singular orbit Gram matrix: point has a stabilizer")
    vol = np.sqrt(dets) * float(T.dual_covolume)
    return float(vol) if vol.ndim == 0 else vol


def conjugate(z) -> np.ndarray:
    """Coordinatewise complex conjugation (an involution preserving all |z_k|)."""
    return np.conj(np.asarray(z))
