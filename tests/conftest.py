import numpy as np
import pytest
from hypothesis import settings

from vasctherm.assembly import BoundaryData, SurfaceExchange, ThermalProblem
from vasctherm.geometry import Domain2D, LayoutParams, generate_layout
from vasctherm.materials import Coolant, PropertyCurve, SolidMaterial, builtin_material, water_coolant
from vasctherm.mesh import (
    DIRICHLET,
    NEUMANN,
    build_structured_mesh,
    embed_vasculature,
    mesh_without_channel,
    tag_boundary,
)

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the run; few examples keep the suite's time.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("tier1")

WIDE = (200.0, 600.0)


def wide_material(name="wide", k=(5.0, 0.01), c=(560.0, 1.2), density=1600.0):
    """Material with clamp kinks far outside the probed temperature range."""
    return SolidMaterial(
        name=name,
        density=density,
        specific_heat=PropertyCurve(c, WIDE, "J/(kg*K)"),
        conductivity=PropertyCurve(k, WIDE, "W/(m*K)"),
    )


def no_channel_problem(n=4, f0=1000.0, emissivity=0.0, material=None, order=1, h_T=21.0):
    dom = Domain2D()
    mesh = mesh_without_channel(build_structured_mesh(dom, n, order))
    return ThermalProblem(
        mesh=mesh,
        solid=material or builtin_material("cfrp_like", "CMP"),
        coolant=Coolant(1000.0, 4183.0, 0.0),
        load=f0,
        surface=SurfaceExchange(h_T=h_T, emissivity=emissivity, theta_amb=296.42),
    )


def channel_problem(n=10, f0=1000.0, material=None, layout=None, order=1,
                    flow_ml_per_min=1.0, emissivity=0.97, reverse=False, h_T=21.0):
    dom = Domain2D()
    path = generate_layout(dom, layout or LayoutParams(kind="u_shape"))
    if reverse:
        path = path.reversed()
    mesh = embed_vasculature(build_structured_mesh(dom, n, order), path)
    return ThermalProblem(
        mesh=mesh,
        solid=material or builtin_material("cfrp_like", "TDMP"),
        coolant=water_coolant(flow_ml_per_min),
        load=f0,
        surface=SurfaceExchange(h_T=h_T, emissivity=emissivity, theta_amb=296.42),
        bcs=BoundaryData(theta_inlet=296.42),
    )


def mixed_boundary_problem(order=1, n=4):
    """Channel plus dirichlet left edge, a callable flux elsewhere and a callable load."""
    base = channel_problem(n=n, order=order)
    mesh = tag_boundary(base.mesh, lambda x, y: DIRICHLET if x < 1e-12 else NEUMANN)
    return ThermalProblem(
        mesh=mesh, solid=wide_material(), coolant=base.coolant,
        load=lambda x, y, t: 800.0 + 3000.0 * x * y + 500.0 * x, surface=base.surface,
        bcs=BoundaryData(theta_inlet=296.42, theta_p=lambda x, y: 300.0 + 100.0 * y,
                         q_p=lambda x, y, t: 1.5 + 40.0 * x * y + 5.0 * x - 0.01 * t),
    )


def barycentric_gradients(mesh):
    """(T, 3, 2) gradients of the barycentric coordinates, from the inverse of each affine map."""
    corners = mesh.nodes[mesh.triangles[:, :3]]
    P = np.concatenate([np.ones(corners.shape[:2] + (1,)), corners], axis=2)  # rows [1, x, y]
    return np.linalg.inv(P)[:, 1:].transpose(0, 2, 1)


@pytest.fixture(scope="session")
def unit_square_mesh():
    """Unit square triangulation for exact-integral checks."""
    dom = Domain2D(width=1.0, height=1.0, thickness=0.005)
    return mesh_without_channel(build_structured_mesh(dom, 8))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
