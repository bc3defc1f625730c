"""Exact solvers for covering points by lines, circles, vertical parabolas
and (in R^3) planes: polynomial kernels, subset-sweep inclusion-exclusion
deciders, richness-driven branching, and a brute-force oracle for
cross-checking. All geometry is exact rational."""

from .curve_branch import (
    BranchConfig,
    CoverResult,
    SearchStats,
    budget_partitions,
    curve_cover,
    recursion_depth,
)
from .geometry import (
    CIRCLE2,
    FAMILIES,
    LINE2,
    PLANE3,
    VPARABOLA2,
    Curve,
    FamilySpec,
    Flat,
    GeometryError,
    Plane3,
    Point,
    check_cover,
    curve_covers,
    enumerate_candidates,
    family_by_tag,
    incidence_layer,
    pt,
)
from .inclusion_exclusion import (
    CapExceededError,
    CoverableCounter,
    extract_cover,
    ie_decide,
    ie_sums,
)
from .instances import Instance, InvalidInstanceError, generate, load_instance, parse_instance, save_instance, serialize_instance
from .kernel import KernelResult, curve_kernel, plane_kernel_r3
from .oracle import oracle_min_cover
from .plane_branch import extend_lines, plane_cover
