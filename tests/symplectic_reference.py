"""The symplectic form written out two ways, the tests' independent references for it.

The package applies omega = OMEGA_SCALE * sum dx_k ^ dy_k by closed forms
(``i X`` and ``Im <u, v>``); these build its matrix and its pairing directly.
"""

from __future__ import annotations

import numpy as np

from momentangle.submanifold_numerics import OMEGA_SCALE


def omega_matrix(m: int) -> np.ndarray:
    """Matrix of the symplectic form on R^{2m} in the (x..., y...) stacking."""
    Om = np.zeros((2 * m, 2 * m))
    Om[:m, m:] = np.eye(m)
    Om[m:, :m] = -np.eye(m)
    return OMEGA_SCALE * Om


def omega_pair(u, v) -> float | np.ndarray:
    """omega(u, v) for complex vectors; equals OMEGA_SCALE * Im <u, v>_Hermitian."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return OMEGA_SCALE * np.imag(np.sum(np.conj(u) * v, axis=-1))
