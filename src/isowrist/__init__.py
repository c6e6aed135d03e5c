"""Four-revolute serial spherical wrists with isotropic architecture.

Enumerates all 32 solutions of the defining eight-quadratic system,
classifies them into the eight distinct isotropic wrists, and verifies
every construction with independent numerical oracles.
"""

from .classify import (
    CanonicalSignature,
    ClassMember,
    PostureGeometry,
    SolutionMap,
    WristClass,
    antipodal_map_table,
    canonical_signature,
    distinct_wrists,
    isotropic_posture_geometry,
    reflection_map_table,
)
from .kinematics import (
    DHChain,
    IsotropyReport,
    angular_velocity,
    dh_from_axes,
    forward_axes,
    isotropy_report,
    jacobian_from_axes,
)
from .solver import (
    BEZOUT_COUNT,
    BKK_BOUND_CITED,
    OracleReport,
    SOLUTION_CATALOG,
    SolutionRecord,
    TRIVIAL_SET_INDEX,
    enumerate_solutions,
    oracle_root_hunt,
    residuals,
    solve_closed_form,
)
from .spheregeom import (
    IsotropyCheck,
    PlatonicSolid,
    PointSet,
    TETRAHEDRON,
    antipodal_exchange,
    isotropy_of,
    platonic_vertices,
    project_onto_line,
    reflect_about_line,
    reflect_about_plane,
    rotation_about_axis,
    second_moment,
)

__version__ = "0.1.0"

__all__ = [
    "BEZOUT_COUNT",
    "BKK_BOUND_CITED",
    "CanonicalSignature",
    "ClassMember",
    "DHChain",
    "IsotropyCheck",
    "IsotropyReport",
    "OracleReport",
    "PlatonicSolid",
    "PointSet",
    "PostureGeometry",
    "SOLUTION_CATALOG",
    "SolutionMap",
    "SolutionRecord",
    "TETRAHEDRON",
    "TRIVIAL_SET_INDEX",
    "WristClass",
    "angular_velocity",
    "antipodal_exchange",
    "antipodal_map_table",
    "canonical_signature",
    "dh_from_axes",
    "distinct_wrists",
    "enumerate_solutions",
    "forward_axes",
    "isotropic_posture_geometry",
    "isotropy_of",
    "isotropy_report",
    "jacobian_from_axes",
    "oracle_root_hunt",
    "platonic_vertices",
    "project_onto_line",
    "reflect_about_line",
    "reflect_about_plane",
    "reflection_map_table",
    "residuals",
    "rotation_about_axis",
    "second_moment",
    "solve_closed_form",
]
