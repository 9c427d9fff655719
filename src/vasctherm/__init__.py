"""Thermal regulation of thin vascular composites: a reduced-order 2D model.

A nonlinear heat balance (conduction with temperature-dependent
properties, surface convection and radiation, applied flux) over a thin
plate, coupled to a coolant-carrying channel embedded as a curve. Finite
element discretization on structured triangles, damped Newton solves,
and fixed-order BDF time stepping, with postprocessing for the mean
surface temperature, outlet temperature, thermal efficiency, arc-length
profiles, heat flux vectors, and min/max bound checks.
"""

__version__ = "0.1.0"

from .assembly import (
    BoundaryData,
    DiscreteSystem,
    RateWeights,
    SurfaceExchange,
    TermMask,
    ThermalProblem,
    apply_constraints,
)
from .geometry import Domain2D, LayoutParams, VasculaturePath, arc_length, generate_layout
from .materials import (
    Coolant,
    PropertyCurve,
    SolidMaterial,
    builtin_material,
    eval_curve,
    heat_capacity_rate,
    load_material_file,
    water_coolant,
)
from .mesh import (
    ChannelMesh,
    MeshStats,
    build_structured_mesh,
    embed_vasculature,
    mesh_stats,
    mesh_without_channel,
    tag_boundary,
)
from .postprocess import (
    BoundsReport,
    Observables,
    arc_length_profile,
    check_bounds,
    energy_balance,
    heat_flux_field,
    mean_surface_temperature,
    outlet_temperature,
)
from .solvers import (
    NewtonSettings,
    SolverError,
    TransientSettings,
    linear_solve,
    solve_steady,
    solve_transient,
)
from .verification import (
    ConvergenceTable,
    MMSCase,
    jacobian_check,
    mms_convergence,
    scalar_reference,
    scalar_steady_root,
)
