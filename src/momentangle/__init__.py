"""Moment-angle manifolds from polytope data, with numerical verification of
minimal and Hamiltonian-minimal Lagrangian submanifolds built from them."""

from .exact_linalg import (
    IntegerMatrix,
    RationalMatrix,
    rational_nullspace,
    smith_normal_form,
    sublattice_equals_lattice,
)
from .polytope import (
    EmptyPolytopeError,
    PolytopePresentation,
    UnboundedPolytopeError,
    VertexSet,
    embed_point,
    enumerate_vertices,
    is_delzant,
    is_simple,
)
from .quadric_config import (
    CanonicalFormError,
    NondegeneracyReport,
    QuadricConfiguration,
    boundedness_check,
    gale_dual,
    membership_residual,
    moment_map,
    nondegeneracy_check,
    two_quadrics_canonical,
)
from .torus_actions import (
    NonFreePointError,
    TorusSubgroup,
    conjugate,
    freeness_check,
    orbit_generators,
    orbit_volume,
    torus_point,
    torus_subgroup,
)
from .charts import NonConvergenceError
from .submanifold_numerics import (
    OMEGA_SCALE,
    ChartPatch,
    ChartSample,
    InvarianceError,
    MetricSpec,
    VectorField,
    chart_N,
    coarea_orbit_volume_check,
    first_variation_integral,
    hamiltonian_vector_field,
    hminimality_residual,
    lagrangian_residual,
    minimality_residual_in_Z,
    noether_drift,
    patch_volume_derivative,
    sample_chart_points,
    tangent_frames,
)
from .reduction_catalog import (
    DoubleConfiguration,
    StackValidationError,
    TopologyDescriptor,
    catalog_double,
    catalog_names,
    catalog_polytope,
    catalog_quadrics,
    classify_N,
    cp_chart_verify,
    ntilde_chart,
    ntilde_lagrangian_residual,
    stack_double,
)
from .report import CheckRecord, VerificationReport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
