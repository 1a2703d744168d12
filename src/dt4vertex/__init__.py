"""Exact equivariant DT/PT vertex computations on toric Calabi-Yau 4-folds.

Subpackages by layer: exactalg (exact arithmetic), partitions and ptconfig
(fixed-point combinatorics), vertexcalc (characters, redistribution, Euler
roots, vertex series), signsearch (sign solving), toric (global geometries
and series), cache and cli (persistence and the reproduction harness).
"""

from .exactalg import (
    DivisionNotUnit,
    FactoredWeightProduct,
    LambdaRat,
    NotPolynomial,
    QSeries,
    TLaurent,
    bar_involution,
    weight_form,
)
from .partitions import (
    EdgeData,
    PlanePartition,
    SolidPartition,
    cm_complete,
    enumerate_dt,
    enumerate_pointlike,
    f_statistic,
    renormalized_volume,
)
from .ptconfig import (
    BoxConfig,
    LegModule,
    TooManyLegs,
    boxconfig_character,
    build_leg_module,
    enumerate_boxconfigs,
    oracle_submodules,
)
from .signsearch import SignAssignment, check_dtpt, check_nekrasov, solve_signed_sum
from .toric import (
    GlobalFixedPoint,
    InsertionClass,
    ToricGeometry,
    check_affine_implies_toric,
    chi_of,
    enumerate_global_fixed_points,
    global_series,
    insertion_value,
    load_geometry,
    local_curve_full_check,
)
from .vertexcalc import (
    SqrtEuler,
    TFixedObstruction,
    dt_character,
    dt_vertex_series,
    edge_F,
    euler_sqrt,
    pt_vertex_series,
    redistribute_edge,
    redistribute_vertex,
)

__version__ = "0.1.0"

# the arithmetic kernels are pure Python; recorded in benchmark provenance
BACKEND = "python"
