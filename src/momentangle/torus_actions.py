"""The compact torus acting through a quadric configuration, and its orbits.

The subgroup of the ambient coordinate torus determined by integer quadric
coefficients is parametrized as phi -> (exp(2 pi i <gamma_k, phi>))_k; its
period lattice is the dual of the lattice spanned by the coefficient
columns. Orbit volumes are measured in the flat metric with the dual
lattice's fundamental domain as the unit of phi-volume.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .quadric_config import QuadricConfiguration, degenerate_support, feasible_bases
from .verdict import Verdict

TWO_PI = 2.0 * np.pi


class NonFreePointError(ValueError):
    """The orbit through the point is degenerate (nontrivial stabilizer)."""


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
    to the lattice index, |det| of the Hermite basis of the column lattice
    (``Q.lattice_index``); each basis carries its det gamma_S. The witness
    is the first non-generating support by (size, lex): the
    ``nondegeneracy_check`` (b) witness if there is one, () when c = 0
    puts the origin, fixed by the whole torus, on the zero set; else the
    first bad S.
    """
    bases = feasible_bases(Q)
    witness = degenerate_support(bases)
    if witness is not None:
        return Verdict(False, witness=witness, detail="fewer than k columns carry c")
    for S, _, det in bases:
        if abs(det) != Q.lattice_index:
            return Verdict(False, witness=S, detail="support columns generate a proper sublattice")
    return Verdict(True)


def orbit_generators(Q: QuadricConfiguration, z) -> np.ndarray:
    """Derivatives at phi = 0 of the torus action, one per phi-coordinate."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != Q.ambient_dim:
        raise ValueError("point dimension mismatch")
    return TWO_PI * 1j * Q.gamma_float() * z[..., None, :]


def orbit_volume(Q: QuadricConfiguration, z) -> float | np.ndarray:
    """Riemannian volume of the torus orbit through z (batched over z).

    Equal to sqrt(det Gram) of the generators, with the Gram matrix
    (2 pi)^2 (Gamma |z|^2) Gamma^T, times the covolume of the dual lattice's
    fundamental domain. Raises for degenerate orbits.
    """
    G = Q.gamma_float()
    gram = TWO_PI**2 * (G * (np.abs(np.asarray(z, dtype=complex)) ** 2)[..., None, :]) @ G.T
    dets = np.linalg.det(gram)
    scale = np.maximum(np.abs(gram).max(axis=(-2, -1)), 1e-300) ** Q.num_quadrics
    if np.any(dets <= 1e-24 * scale):
        raise NonFreePointError("singular orbit Gram matrix: point has a stabilizer")
    vol = np.sqrt(dets) / Q.lattice_index
    return float(vol) if vol.ndim == 0 else vol
