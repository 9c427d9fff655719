import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, strategies as st

from conftest import (
    WIDE, barycentric_gradients, channel_problem, mixed_boundary_problem, no_channel_problem,
    wide_material,
)
from vasctherm.assembly import (
    BoundaryData,
    RateWeights,
    SurfaceExchange,
    TermMask,
    ThermalProblem,
    apply_constraints,
    assemble_raw,
    plan_for,
)
from vasctherm import assembly, elements, verification
from vasctherm.elements import GAUSS_1D_1, GAUSS_1D_2, edge_shape
from vasctherm.geometry import LAYOUT_KINDS, Domain2D, LayoutParams, VasculaturePath, generate_layout
from vasctherm.materials import (
    Coolant,
    SolidMaterial,
    builtin_material,
    constant_curve,
    curve_derivative,
    eval_curve,
)
from vasctherm.mesh import (
    DIRICHLET,
    NEUMANN,
    ChannelMesh,
    build_structured_mesh,
    embed_vasculature,
    mesh_without_channel,
    nested_dissection,
    tag_boundary,
    triangle_areas,
)
from vasctherm.postprocess import energy_balance
from vasctherm.solvers import solve_steady
from vasctherm.verification import jacobian_check, toggle_masks


def single_triangle_mesh(thickness=1.0):
    """One unit right triangle, handy for hand-checked element matrices."""
    dom = Domain2D(width=1.0, height=1.0, thickness=thickness)
    return ChannelMesh(
        domain=dom, n=1, element_order=1,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        boundary_tags=np.array([NEUMANN] * 3, dtype=object),
        channel_nodes=np.empty(0, dtype=int), channel_mids=np.empty(0, dtype=int),
        channel_tangents=np.empty((0, 2)), channel_lengths=np.empty(0),
        inlet_node=None, outlet_node=None, snap_error=0.0,
    )


def test_equilibrium_residual_vanishes():
    prob = channel_problem(n=10, f0=0.0)
    theta = np.full(prob.n_dofs, prob.surface.theta_amb)
    system = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    assert np.max(np.abs(system.residual)) < 1e-12


def test_single_triangle_conduction_is_cotangent_stiffness():
    k, d = 2.5, 0.7
    mesh = single_triangle_mesh(thickness=d)
    solid = SolidMaterial("const", 1000.0, constant_curve(900.0), constant_curve(k))
    prob = ThermalProblem(
        mesh=mesh, solid=solid, coolant=Coolant(1000.0, 4183.0, 0.0), load=0.0,
        surface=SurfaceExchange(h_T=0.0, emissivity=0.0, theta_amb=300.0),
    )
    theta = np.array([300.0, 310.0, 320.0])
    system = assemble_raw(prob, theta, terms=TermMask(radiation=False))
    expected = d * k * 0.5 * np.array([
        [2.0, -1.0, -1.0],
        [-1.0, 1.0, 0.0],
        [-1.0, 0.0, 1.0],
    ])
    assert np.allclose(system.jacobian.toarray(), expected, atol=1e-14)
    assert np.allclose(system.residual, expected @ theta, atol=1e-11)


def test_jacobian_matches_finite_differences_small_state():
    prob = channel_problem(n=4)
    gap = jacobian_check(prob, trials=1, seed=3)
    assert gap <= 1e-6


def test_transient_zero_rate_reduces_to_steady(rng):
    prob = channel_problem(n=6)
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    steady = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    rate = RateWeights(coeff=0.0, rhs=np.zeros(prob.n_dofs))
    trans = apply_constraints(assemble_raw(prob, theta, rate=rate), prob.constraints)
    assert np.allclose(trans.residual, steady.residual, atol=1e-14)
    assert np.allclose((trans.jacobian - steady.jacobian).toarray(), 0.0, atol=1e-14)


def test_mass_matrix_row_sums_are_lumped_areas():
    # with constant c_s and theta_dot == 1, the mass residual row i is
    # d rho c times the nodal area share int N_i
    n = 5
    prob = no_channel_problem(n=n, f0=0.0, material=wide_material(c=(900.0, 0.0)), h_T=0.0)
    theta = np.full(prob.n_dofs, 320.0)
    rate = RateWeights(coeff=0.0, rhs=np.ones(prob.n_dofs))
    only_mass = TermMask(conduction=False, radiation=False, channel=False)
    system = assemble_raw(prob, theta, rate=rate, terms=only_mass)
    mass_rows = system.residual  # load term is zero (f0 = 0)
    d, rho, c = prob.mesh.domain.thickness, prob.solid.density, 900.0
    areas = np.zeros(prob.n_dofs)
    corner_share = (0.1 / n) ** 2 / 2.0 / 3.0
    for tri in prob.mesh.triangles:
        areas[tri] += corner_share
    assert np.allclose(mass_rows, d * rho * c * areas, rtol=1e-12)


def test_mass_jacobian_matches_finite_differences():
    prob = no_channel_problem(n=3, material=wide_material(), h_T=0.0)
    mask = TermMask(conduction=False, radiation=False, channel=False)
    assert jacobian_check(prob, trials=2, terms=mask, seed=1) <= 1e-6


CHANNEL_ONLY = TermMask(conduction=False, radiation=False, mass=False)  # on a problem with h_T = 0


def per_edge_channel_matrix(mesh):
    """Dense int_Sigma w_i dtheta/ds from a Gauss loop over the chain edges with their lengths."""
    a, b = mesh.channel_nodes[:-1], mesh.channel_nodes[1:]
    edges = np.column_stack([a, b] if mesh.element_order == 1 else [a, b, mesh.channel_mids])
    xi, wgt = GAUSS_1D_1 if mesh.element_order == 1 else GAUSS_1D_2
    C = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for nodes, ell in zip(edges, mesh.channel_lengths):
        for g in range(len(xi)):
            N, dNdxi = edge_shape(mesh.element_order, xi[g:g + 1])
            C[np.ix_(nodes, nodes)] += wgt[g] * 0.5 * ell * np.outer(N[0], (2.0 / ell) * dNdxi[0])
    return C


def channel_matrix(plan):
    """The n x n channel operator: plan.chain_op placed on the rows and columns of plan.chain."""
    op = plan.chain_op.tocoo()
    return sp.csr_matrix((op.data, (plan.chain[op.row], plan.chain[op.col])), shape=(plan.n, plan.n))


def test_channel_term_uniform_field_vanishes():
    prob = channel_problem(n=8, f0=0.0, h_T=0.0)
    theta = np.full(prob.n_dofs, 310.0)
    res = assemble_raw(prob, theta, terms=CHANNEL_ONLY).residual
    assert np.max(np.abs(res)) == 0.0


def test_channel_term_single_edge_hand_value():
    grid = build_structured_mesh(Domain2D(), 2)
    mesh = embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]])))
    theta = np.full(mesh.n_nodes, 310.0)
    a, b = mesh.channel_nodes[0], mesh.channel_nodes[1]
    theta[a] = 300.0  # only the first edge sees a gradient
    res = 0.0697 * (channel_matrix(plan_for(mesh)) @ theta)
    # first edge: chi (theta_b - theta_a) = 0.697 W split equally by the 1-point rule
    assert res[[a, b]] == pytest.approx([0.3485, 0.3485], rel=1e-12)
    assert np.count_nonzero(res) == 2
    assert np.sum(res) == pytest.approx(0.697, rel=1e-12)


def test_channel_term_orientation_flips_sign():
    grid = build_structured_mesh(Domain2D(), 4)
    path = VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]]))
    fwd = embed_vasculature(grid, path)
    rev = embed_vasculature(grid, path.reversed())
    theta = np.linspace(300.0, 340.0, fwd.n_nodes)
    rf = 0.07 * (channel_matrix(plan_for(fwd)) @ theta)
    rr = 0.07 * (channel_matrix(plan_for(rev)) @ theta)
    assert np.max(np.abs(rf)) > 0.0
    assert np.allclose(rr, -rf, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_channel_operator_matches_per_edge_gauss_loop(order, rng):
    prob = channel_problem(n=6, order=order, f0=0.0, h_T=0.0)
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    ref = per_edge_channel_matrix(prob.mesh)
    plan = plan_for(prob.mesh)
    assert np.max(np.abs(channel_matrix(plan).toarray() - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.unique(plan.chan_slots).size == plan.chan_slots.size == plan.chain_op.nnz
    full = assemble_raw(prob, theta, terms=CHANNEL_ONLY)
    lean = assemble_raw(prob, theta, terms=CHANNEL_ONLY, jacobian=False)
    scale = prob.chi * np.max(theta)
    assert np.max(np.abs(full.residual - prob.chi * (ref @ theta))) <= 1e-14 * scale
    assert np.array_equal(lean.residual, full.residual)
    J = full.jacobian.toarray()
    assert np.max(np.abs(J - prob.chi * ref)) <= 1e-15 * prob.chi * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("reverse", [False, True])
def test_chain_operator_is_the_channel_on_its_rows(order, reverse, rng):
    # the residual applies the channel term through the chain's rows only; outside them
    # the full matrix is empty, and on them it must give the same sums bit for bit
    plan = plan_for(channel_problem(n=6, order=order, reverse=reverse).mesh)
    channel = channel_matrix(plan)
    assert np.array_equal(plan.chain, np.flatnonzero(np.diff(channel.indptr)))
    assert channel[:, plan.chain].nnz == channel.nnz
    assert np.array_equal(plan.chain_op.toarray(), channel[plan.chain][:, plan.chain].toarray())
    theta = rng.uniform(300.0, 360.0, plan.n)
    assert np.array_equal(plan.chain_op @ theta[plan.chain], (channel @ theta)[plan.chain])


LAYOUTS = {  # the layouts that build_problem makes of each kind by default
    "u_shape": LayoutParams(),
    "serpentine": LayoutParams(kind="serpentine", spacing=0.02),
    "asymmetric": LayoutParams(kind="asymmetric", spacing=0.05, offset=0.005),
}


@given(n=st.integers(2, 10), order=st.sampled_from([1, 2]), kind=st.sampled_from(LAYOUT_KINDS),
       reverse=st.booleans())
def test_channel_operator_conserves_energy(n, order, kind, reverse):
    # column sums telescope along the chain to theta_out - theta_in; row sums vanish
    path = generate_layout(Domain2D(), LAYOUTS[kind])
    try:
        mesh = embed_vasculature(build_structured_mesh(Domain2D(), n, order),
                                 path.reversed() if reverse else path)
    except ValueError:  # the layout does not fit this grid
        assume(False)
    channel = channel_matrix(plan_for(mesh))
    ends = np.zeros(mesh.n_nodes)
    ends[mesh.outlet_node], ends[mesh.inlet_node] = 1.0, -1.0
    assert np.max(np.abs(np.ones(mesh.n_nodes) @ channel - ends)) <= 1e-14
    assert np.array_equal(channel @ np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes))


def test_constraints_built_once_and_read_only(rng):
    base = mixed_boundary_problem()
    calls = []

    def theta_p(x, y):
        calls.append(1)
        return 300.0 + 100.0 * y

    prob = ThermalProblem(
        mesh=base.mesh, solid=base.solid, coolant=base.coolant, load=base.load,
        surface=base.surface, bcs=BoundaryData(theta_inlet=296.42, theta_p=theta_p),
    )
    constraints = prob.constraints
    for _ in range(3):
        apply_constraints(assemble_raw(prob, random_state(prob, rng, True), jacobian=False), prob.constraints)
    assert len(calls) == 1
    assert prob.constraints is constraints
    for arr in (constraints.ids, constraints.values, constraints.free,
                constraints.slots, constraints.indptr, constraints.indices):
        assert not arr.flags.writeable


@pytest.mark.parametrize("order", [1, 2])
def test_problems_on_one_mesh_compute_its_order_once(order, monkeypatch):
    orders = []

    def ordering(mesh):
        orders.append(mesh)
        return real(mesh)

    real = assembly.nested_dissection
    monkeypatch.setattr(assembly, "nested_dissection", ordering)
    prob = mixed_boundary_problem(order=order)
    other = dataclasses.replace(prob, load=500.0, bcs=dataclasses.replace(prob.bcs, theta_p=310.0))
    a, b = prob.constraints, other.constraints
    assert a is not b and orders == [prob.mesh]
    assert np.array_equal(a.ids, b.ids) and not np.array_equal(a.values, b.values)
    assert np.array_equal(a.free, b.free)
    order_of = plan_for(prob.mesh).order
    assert not order_of.flags.writeable
    assert np.array_equal(np.sort(order_of), np.arange(prob.n_dofs))
    assert a.free.tolist() == [i for i in order_of.tolist() if i not in set(a.ids.tolist())]


def test_all_neumann_constrains_only_inlet():
    prob = channel_problem(n=6)
    constraints = prob.constraints
    assert constraints.ids.tolist() == [prob.mesh.inlet_node]
    assert constraints.values[0] == pytest.approx(296.42)


def test_assembly_and_energy_audit_build_no_constraints():
    # assemble_raw fills every DOF; only a caller that eliminates the constraints builds them
    prob = mixed_boundary_problem()
    theta = np.full(prob.n_dofs, prob.surface.theta_amb)
    assemble_raw(prob, theta)
    assemble_raw(prob, theta, jacobian=False)
    energy_balance(theta, prob)
    assert prob not in assembly._CONSTRAINTS_CACHE
    prob.constraints
    assert prob in assembly._CONSTRAINTS_CACHE
    changed = dataclasses.replace(prob, load=500.0)  # a new value, with no constraints yet
    assert changed not in assembly._CONSTRAINTS_CACHE


def test_problem_fields_cannot_be_assigned():
    prob = channel_problem(n=4)
    prob.constraints
    for f in dataclasses.fields(prob):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prob, f.name, getattr(prob, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.load = float("nan")
    assert {f.name for f in dataclasses.fields(prob)} == {"mesh", "solid", "coolant", "load", "surface", "bcs"}


def test_replaced_problem_pins_its_own_inlet():
    # the inlet temperature is a constraint: a changed problem must not solve with the old one
    prob = channel_problem(n=10)
    old = prob.constraints
    hot = dataclasses.replace(prob, bcs=BoundaryData(theta_inlet=330.0))
    assert hot.constraints is not old and old.values.tolist() == [296.42]
    theta = solve_steady(hot)
    assert theta[hot.mesh.inlet_node] == 330.0
    fresh = ThermalProblem(mesh=prob.mesh, solid=prob.solid, coolant=prob.coolant, load=prob.load,
                           surface=prob.surface, bcs=BoundaryData(theta_inlet=330.0))
    assert np.array_equal(theta, solve_steady(fresh))


def test_zero_flow_removes_inlet_constraint():
    prob = channel_problem(n=6, flow_ml_per_min=0.0)
    constraints = prob.constraints
    assert constraints.ids.size == 0 and constraints.values.size == 0
    assert constraints.free.size == prob.n_dofs


def test_dirichlet_everywhere_constrained_count():
    grid = build_structured_mesh(Domain2D(), 6)
    mesh = tag_boundary(
        embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]]))),
        lambda x, y: DIRICHLET,
    )
    prob = channel_problem(n=6)
    prob = ThermalProblem(
        mesh=mesh, solid=prob.solid, coolant=prob.coolant, load=prob.load,
        surface=prob.surface,
        bcs=BoundaryData(theta_inlet=296.42, theta_p=296.42),
    )
    ids, vals = prob.constraints.ids, prob.constraints.values
    boundary_nodes = 4 * 6  # boundary node count on an n=6 grid
    # inlet lies on the boundary, so it is already among the dirichlet nodes
    assert len(ids) == len(np.unique(ids)) == len(vals) == boundary_nodes


@pytest.mark.parametrize("theta_p", [350.0, 296.42 + 1e-6])  # the values may differ by at most 1e-9 K
def test_conflicting_inlet_prescription_rejected(theta_p):
    grid = build_structured_mesh(Domain2D(), 6)
    mesh = tag_boundary(
        embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]]))),
        lambda x, y: DIRICHLET,
    )
    base = channel_problem(n=6)
    prob = ThermalProblem(
        mesh=mesh, solid=base.solid, coolant=base.coolant, load=base.load,
        surface=base.surface,
        bcs=BoundaryData(theta_inlet=296.42, theta_p=theta_p),
    )
    with pytest.raises(ValueError, match="conflicting"):
        prob.constraints


def test_constrained_dof_eliminated_and_solution_exact(rng):
    prob = channel_problem(n=6)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    raw = assemble_raw(prob, theta)
    system = apply_constraints(raw, prob.constraints)
    inlet = prob.mesh.inlet_node
    free = prob.constraints.free  # in elimination order
    assert np.array_equal(np.sort(free), np.delete(np.arange(prob.n_dofs), inlet))
    assert system.jacobian.shape == (free.size, free.size)
    assert np.array_equal(system.residual, raw.residual[free])
    assert solve_steady(prob)[inlet] == 296.42


def test_linear_case_matrix_symmetric_positive_definite():
    # eps = 0, chi = 0, constant k: steady operator is linear and SPD
    prob = no_channel_problem(n=5, emissivity=0.0)
    theta = np.full(prob.n_dofs, 310.0)
    system = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    J = system.jacobian.toarray()
    assert np.allclose(J, J.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(J)) > 0.0


@pytest.mark.parametrize("make, time", [
    (lambda: channel_problem(n=8), 0.0),
    (lambda: mixed_boundary_problem(order=1), 3.0),
    (lambda: mixed_boundary_problem(order=2), 3.0),
], ids=["channel", "mixed-p1", "mixed-p2"])
def test_partition_of_unity_energy_identity(make, time, rng):
    # summing the full residual's rows, conduction and channel included, over the
    # all-ones test function reproduces postprocess.energy_balance, which skips
    # both (on states that satisfy the constraints, which tie the chain end to
    # theta_inlet); the mixed problems add a callable load, a flux and dirichlet edges
    prob = make()
    theta = random_state(prob, rng, True)
    raw = assemble_raw(prob, theta, time)
    assert np.sum(raw.residual) == pytest.approx(-energy_balance(theta, prob, time), abs=1e-9)


@pytest.mark.parametrize("order,degree", [(1, 1), (2, 2)])
def test_polynomial_loads_integrated_exactly(order, degree):
    dom = Domain2D()
    mesh = mesh_without_channel(build_structured_mesh(dom, 4, element_order=order))
    coeff = 3000.0

    def load(x, y, t):
        return coeff * x**degree + 100.0

    prob = ThermalProblem(
        mesh=mesh, solid=wide_material(), coolant=Coolant(1000.0, 4183.0, 0.0),
        load=load, surface=SurfaceExchange(h_T=0.0, emissivity=0.0, theta_amb=296.42),
    )
    theta = np.full(prob.n_dofs, 296.42)
    raw = assemble_raw(prob, theta, terms=TermMask(conduction=False))
    total = -np.sum(raw.residual)
    # int over the 0.1 x 0.1 square: coeff * H * W^(d+1)/(d+1) + 100 * area
    exact = coeff * 0.1 * 0.1 ** (degree + 1) / (degree + 1) + 100.0 * 0.01
    assert total == pytest.approx(exact, rel=1e-13)


def test_neumann_flux_enters_residual():
    dom = Domain2D()
    mesh = mesh_without_channel(build_structured_mesh(dom, 4))
    prob = ThermalProblem(
        mesh=mesh, solid=wide_material(), coolant=Coolant(1000.0, 4183.0, 0.0),
        load=0.0, surface=SurfaceExchange(h_T=21.0, emissivity=0.0, theta_amb=296.42),
        bcs=BoundaryData(q_p=2.5),  # W/m, d-premultiplied outward flux
    )
    theta = np.full(prob.n_dofs, 296.42)
    raw = assemble_raw(prob, theta)
    # sum over all hats = total outward boundary flux = q_p * perimeter
    assert np.sum(raw.residual) == pytest.approx(2.5 * 0.4, rel=1e-12)


def test_apply_constraints_preserves_symmetric_pattern(rng):
    prob = channel_problem(n=5)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    pattern = (system.jacobian != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


def random_state(prob, rng, on_constraints):
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    if on_constraints:
        theta[prob.constraints.ids] = prob.constraints.values
    return theta


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("transient", [False, True])
@pytest.mark.parametrize("on_constraints", [True, False])
def test_residual_only_matches_full_bitwise(order, transient, on_constraints, rng):
    for prob in (channel_problem(n=4, order=order), mixed_boundary_problem(order=order)):
        theta = random_state(prob, rng, on_constraints)
        rate = None
        if transient:
            rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs))
        for mask in toggle_masks():
            full = assemble_raw(prob, theta, time=2.0, rate=rate, terms=mask)
            lean = assemble_raw(prob, theta, time=2.0, rate=rate, terms=mask, jacobian=False)
            assert np.array_equal(lean.residual, full.residual)
            assert lean.jacobian is None
            assert np.array_equal(
                apply_constraints(lean, prob.constraints).residual,
                apply_constraints(full, prob.constraints).residual)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("transient", [False, True])
@pytest.mark.parametrize("make", [mixed_boundary_problem, lambda order: channel_problem(n=4, order=order)],
                         ids=["callable-load", "constant-load"])
def test_assembly_only_reads_its_inputs_and_repeats_bitwise(make, order, transient, rng):
    # assemble_raw scales and sums its own tables in place; it must write none it was given
    prob = make(order=order)
    theta = random_state(prob, rng, True)
    rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs)) if transient else None
    given = [theta] if rate is None else [theta, rate.rhs]
    copies = [a.copy() for a in given]
    for a in given:
        a.flags.writeable = False
    first = assemble_raw(prob, theta, time=2.0, rate=rate)
    for jacobian in (False, True, False, True):
        again = assemble_raw(prob, theta, time=2.0, rate=rate, jacobian=jacobian)
        assert np.array_equal(again.residual, first.residual)
        if jacobian:
            assert again.jacobian.data is not first.jacobian.data
            assert np.array_equal(again.jacobian.data, first.jacobian.data)
    assert all(np.array_equal(a, c) for a, c in zip(given, copies))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("transient", [False, True])
def test_constant_property_scales_as_its_table_would(monkeypatch, order, transient, rng):
    # a constant curve enters as its float, eval_curve's table of copies gives the same bits,
    # and a NaN temperature leaves the same rows NaN
    prob = channel_problem(n=4, order=order, material=builtin_material("cfrp_like", "CMP"))
    theta = random_state(prob, rng, True)
    broken = theta.copy()
    broken[prob.n_dofs // 2] = np.nan
    rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs)) if transient else None
    as_float = [assemble_raw(prob, th, time=2.0, rate=rate) for th in (theta, broken)]
    monkeypatch.setattr(assembly, "_property_at", eval_curve)
    as_table = [assemble_raw(prob, th, time=2.0, rate=rate) for th in (theta, broken)]
    assert np.array_equal(as_float[0].residual, as_table[0].residual)
    assert np.array_equal(as_float[0].jacobian.data, as_table[0].jacobian.data)
    assert np.isnan(as_float[1].residual).any()
    assert np.array_equal(np.isnan(as_float[1].residual), np.isnan(as_table[1].residual))


def dense_reference_jacobian(prob, theta, rate):
    """Element-by-element accumulation of the exact linearization.

    Rule, shape values and gradients come from elements.TRI_RULE_DEG2/DEG4,
    elements.tri_shape and elements.grad_shape at every quadrature point, and
    the areas from mesh.triangle_areas; nothing is read from the plan's tables.
    """
    mesh, solid, surf = prob.mesh, prob.solid, prob.surface
    lam, weights = elements.TRI_RULE_DEG2 if mesh.element_order == 1 else elements.TRI_RULE_DEG4
    areas = triangle_areas(mesh)
    glam = barycentric_gradients(mesh)
    d, es = mesh.domain.thickness, surf.emissivity * assembly.STEFAN_BOLTZMANN
    J = np.zeros((prob.n_dofs, prob.n_dofs))
    thdot = rate.coeff * theta + rate.rhs
    for e, nodes in enumerate(mesh.triangles):
        th_e, J_e = theta[nodes], np.zeros((len(nodes), len(nodes)))
        for q, weight in enumerate(weights):
            N = elements.tri_shape(mesh.element_order, lam[q:q + 1])[0]
            G = elements.grad_shape(mesh.element_order, lam[q], glam[e:e + 1])[0]
            w = weight * areas[e]
            th, thd = N @ th_e, N @ thdot[nodes]
            gw = G @ (G.T @ th_e)
            J_e += w * d * eval_curve(solid.conductivity, th) * (G @ G.T)
            J_e += w * d * curve_derivative(solid.conductivity, th) * np.outer(gw, N)
            J_e += w * (surf.h_T + 4.0 * es * th**3) * np.outer(N, N)
            J_e += w * d * solid.density * (
                eval_curve(solid.specific_heat, th) * rate.coeff
                + curve_derivative(solid.specific_heat, th) * thd) * np.outer(N, N)
        J[np.ix_(nodes, nodes)] += J_e
    return J + prob.chi * per_edge_channel_matrix(mesh)


def dense_reference_residual(prob, theta, time, rate):
    """Triangle-by-triangle, point-by-point accumulation of every residual term.

    Conduction, convection, radiation, the load (constant or callable), the
    BDF mass term, the Neumann flux edge by edge and the channel from the
    per-edge Gauss loop; nothing is read from the plan's element tables.
    """
    mesh, solid, surf = prob.mesh, prob.solid, prob.surface
    lam, weights = elements.TRI_RULE_DEG2 if mesh.element_order == 1 else elements.TRI_RULE_DEG4
    glam = barycentric_gradients(mesh)
    d, es = mesh.domain.thickness, surf.emissivity * assembly.STEFAN_BOLTZMANN
    R = np.zeros(prob.n_dofs)
    thdot = rate.coeff * theta + rate.rhs
    for e, nodes in enumerate(mesh.triangles):
        corners = mesh.nodes[nodes[:3]]
        (ux, uy), (vx, vy) = corners[1] - corners[0], corners[2] - corners[0]
        area = 0.5 * abs(ux * vy - uy * vx)
        th_e = theta[nodes]
        for q, weight in enumerate(weights):
            N = elements.tri_shape(mesh.element_order, lam[q:q + 1])[0]
            G = elements.grad_shape(mesh.element_order, lam[q], glam[e:e + 1])[0]
            x, y = lam[q] @ corners
            f = prob.load(x, y, time) if callable(prob.load) else prob.load
            th, w = N @ th_e, weight * area
            R[nodes] += w * d * eval_curve(solid.conductivity, th) * (G @ (G.T @ th_e))
            R[nodes] += w * N * (surf.h_T * (th - surf.theta_amb) + es * (th**4 - surf.theta_amb**4) - f)
            R[nodes] += w * N * d * solid.density * eval_curve(solid.specific_heat, th) * (N @ thdot[nodes])
    for edge, tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != NEUMANN:
            continue
        pa, pb = mesh.nodes[edge[0]], mesh.nodes[edge[1]]
        for xi, wgt in zip(*GAUSS_1D_2):
            N, _ = edge_shape(mesh.element_order, np.array([xi]))
            x, y = pa + 0.5 * (1.0 + xi) * (pb - pa)
            q_p = prob.bcs.q_p(x, y, time) if callable(prob.bcs.q_p) else prob.bcs.q_p
            R[edge] += wgt * 0.5 * np.linalg.norm(pb - pa) * q_p * N[0]
    return R + prob.chi * (per_edge_channel_matrix(mesh) @ theta)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("make", [mixed_boundary_problem, lambda order: channel_problem(n=4, order=order)],
                         ids=["mixed", "channel"])
def test_residual_matches_dense_reference(make, order, rng):
    prob = make(order=order)
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs))
    R = assemble_raw(prob, theta, time=2.0, rate=rate, jacobian=False).residual
    ref = dense_reference_residual(prob, theta, 2.0, rate)
    assert np.max(np.abs(R - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [1, 2])
def test_jacobian_matches_dense_reference(order, rng):
    prob = channel_problem(n=4, order=order, material=wide_material())
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs))
    J = assemble_raw(prob, theta, rate=rate).jacobian.toarray()
    ref = dense_reference_jacobian(prob, theta, rate)
    assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [1, 2])
def test_restricted_jacobian_is_free_block_of_raw(order, rng):
    prob = mixed_boundary_problem(order=order)
    ids = prob.constraints.ids
    assert prob.mesh.inlet_node in ids and ids.size > 1  # the inlet and a dirichlet edge
    free = prob.constraints.free  # in elimination order
    assert np.array_equal(np.sort(free), np.delete(np.arange(prob.n_dofs), ids))
    theta = random_state(prob, rng, True)
    rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs))
    raw = assemble_raw(prob, theta, time=2.0, rate=rate)
    system = apply_constraints(raw, prob.constraints)
    assert np.array_equal(system.jacobian.toarray(), raw.jacobian.toarray()[np.ix_(free, free)])
    assert np.array_equal(system.residual, raw.residual[free])


def test_csr_pattern_canonical_and_fixed(rng):
    # raw Jacobians share the plan's pattern, restricted ones the restriction's
    prob = mixed_boundary_problem(order=2)
    rate = RateWeights(coeff=1.0, rhs=np.zeros(prob.n_dofs))
    raw = [
        assemble_raw(prob, random_state(prob, rng, True)),
        assemble_raw(prob, random_state(prob, rng, False), rate=rate),
        assemble_raw(prob, random_state(prob, rng, True), rate=rate),
    ]
    n_free = prob.n_dofs - prob.constraints.ids.size
    for systems in (raw, [apply_constraints(s, prob.constraints) for s in raw]):
        first = systems[0].jacobian
        for J in (s.jacobian for s in systems):
            for i in range(J.shape[0]):
                row = J.indices[J.indptr[i]:J.indptr[i + 1]]
                assert np.all(np.diff(row) > 0)  # sorted, no duplicates
            assert np.array_equal(J.indptr, first.indptr)
            assert np.array_equal(J.indices, first.indices)
    assert first.shape == (n_free, n_free)


def test_cached_index_arrays_read_only(rng):
    prob = mixed_boundary_problem()
    system = apply_constraints(assemble_raw(prob, random_state(prob, rng, True)), prob.constraints)
    plan, cut = plan_for(prob.mesh), prob.constraints
    for arr in (plan.indptr, plan.indices, plan.tri_nodes, plan.tri_slots, plan.chan_slots, plan.chain,
                plan.chain_op.data, plan.chain_op.indices, plan.chain_op.indptr,
                plan.qp_NN, plan.gp_MN, plan.lam_GG, plan.K_ref, plan.neu_xy, plan.neu_w, plan.neu_nodes,
                plan.areas, plan.qp_N, plan.qp_dA, plan.qp_xy, plan.lam_grad, plan.gp_map, plan.gp_gradN,
                cut.ids, cut.values, cut.free, cut.slots, cut.indptr, cut.indices):
        assert not arr.flags.writeable
    J = system.jacobian
    assert np.shares_memory(J.indices, cut.indices)
    assert J.indices.dtype == J.indptr.dtype == plan.indices.dtype
    # the restricted pattern holds only the free DOFs' entries: no explicit zeros
    assert J.nnz == cut.slots.size < plan.nnz and J.shape[0] == cut.free.size
    with pytest.raises(ValueError):
        J.eliminate_zeros()
    J.has_sorted_indices = False
    with pytest.raises(ValueError):
        J.sort_indices()
    assert np.array_equal(
        plan.indices, assemble_raw(prob, random_state(prob, rng, True)).jacobian.indices)


def reference_dissection(mesh):
    """Nested dissection by plain recursion over boxes of grid points: the order and every cut.

    Each cut is the pair (node ids of the box below the cut line, node ids
    of the box above it).
    """
    k = mesh.element_order
    m = k * mesh.n
    spacing = np.array([mesh.domain.width, mesh.domain.height]) / m
    node_at = {tuple(p): i for i, p in enumerate(np.rint(mesh.nodes / spacing).astype(int).tolist())}
    order, cuts = [], []

    def points(lo, hi):  # row by row
        return [node_at[x, y] for y in range(lo[1], hi[1] + 1) for x in range(lo[0], hi[0] + 1)
                if (x, y) in node_at]

    def visit(lo, hi):
        extent = [hi[a] - lo[a] + 1 for a in (0, 1)]
        # the corner line nearest the middle, the upper one on a tie
        mid = [min(range(0, m + 1, k), key=lambda c: (abs(2 * c - lo[a] - hi[a]), -c)) for a in (0, 1)]
        longer_first = sorted((0, 1), key=lambda a: -extent[a])  # x first on a tie
        axes = [a for a in longer_first if lo[a] < mid[a] < hi[a]]
        if extent[0] * extent[1] <= 8 or not axes:
            order.extend(points(lo, hi))
            return
        a, c = axes[0], mid[axes[0]]
        below_hi, above_lo, line_lo, line_hi = list(hi), list(lo), list(lo), list(hi)
        below_hi[a], above_lo[a], line_lo[a], line_hi[a] = c - 1, c + 1, c, c
        cuts.append((points(lo, below_hi), points(above_lo, hi)))
        visit(lo, below_hi)
        visit(above_lo, hi)
        order.extend(points(line_lo, line_hi))

    visit((0, 0), (m, m))
    return order, cuts


def _dissection_case(kind, n, order):
    if kind == "mms_dirichlet":
        return verification._mms_problem(verification.mms_case_cmp(), verification._mms_mesh(n, order, False))
    if kind == "no_channel":
        return no_channel_problem(n=n, order=order)
    return channel_problem(n=n, order=order, layout=LayoutParams(kind=kind))


DISSECTION_CASES = [
    (kind, n, order)
    for order in (1, 2)
    for kind, sizes in (("u_shape", (3, 7, 40)), ("serpentine", (3, 7, 40)),
                        ("mms_dirichlet", (2, 3, 7, 40)), ("no_channel", (2,)))
    for n in sizes
]


@pytest.mark.parametrize("kind, n, order", DISSECTION_CASES)
def test_free_dofs_are_numbered_in_nested_dissection_order(kind, n, order):
    prob = _dissection_case(kind, n, order)
    cut = prob.constraints
    ids = set(cut.ids.tolist())
    reference, cuts = reference_dissection(prob.mesh)
    assert nested_dissection(prob.mesh).tolist() == reference
    # a deterministic permutation of the unconstrained ids, in the dissection's order
    assert cut.free.tolist() == [i for i in reference if i not in ids]
    assert np.array_equal(cut.free, _dissection_case(kind, n, order).constraints.free)
    # every row of the restricted pattern sorted, without duplicates
    starts = np.zeros(cut.indices.size, dtype=bool)
    starts[cut.indptr[:-1][np.diff(cut.indptr) > 0]] = True
    assert np.all(np.diff(cut.indices)[~starts[1:]] > 0)
    # no restricted entry couples the two sides of any cut
    pattern = sp.csr_matrix((np.ones(cut.indices.size), cut.indices, cut.indptr), shape=(cut.free.size,) * 2)
    rank = np.full(prob.n_dofs, -1)
    rank[cut.free] = np.arange(cut.free.size)
    assert len(cuts) > 0 or n == 2
    for below, above in cuts:
        rows, cols = (r[r >= 0] for r in (rank[below], rank[above]))
        assert pattern[rows][:, cols].nnz == 0


def test_nested_dissection_rejects_nodes_off_the_grid():
    mesh = no_channel_problem(n=3).mesh
    nodes = mesh.nodes.copy()
    nodes[4] = nodes[5]  # two nodes on one grid point
    with pytest.raises(ValueError, match="grid"):
        nested_dissection(dataclasses.replace(mesh, nodes=nodes))


@pytest.mark.parametrize("order", [1, 2])
def test_element_tables_put_the_triangle_last(order):
    """Every per-triangle table that assemble_raw reads runs over the triangles last, contiguously."""
    mesh = mixed_boundary_problem(order=order).mesh
    plan = plan_for(mesh)
    T, nen = mesh.triangles.shape
    nq, ng = plan.gp_map.shape
    per_triangle = {
        "tri_nodes": (plan.tri_nodes, (nen, T)),
        "qp_dA": (plan.qp_dA, (nq, T)),
        "gp_gradN": (plan.gp_gradN, (ng, 2, nen, T)),
        "lam_GG": (plan.lam_GG, (9, T)),
    }
    constant = {  # contracted against a per-triangle table by one GEMM
        "qp_N": (plan.qp_N, (nq, nen)),
        "gp_map": (plan.gp_map, (nq, ng)),
        "qp_NN": (plan.qp_NN, (nen * nen, nq)),
        "gp_MN": (plan.gp_MN, (ng * nen, nq)),
        "K_ref": (plan.K_ref, (nen * nen, ng * 9)),
    }
    for name, (arr, shape) in {**per_triangle, **constant}.items():
        assert arr.shape == shape, name
        assert arr.flags.c_contiguous and not arr.flags.writeable, name
    assert np.array_equal(plan.tri_nodes, mesh.triangles.T)
    assert plan.tri_slots.shape == (nen * nen * T,)
    # entry (i, j) of triangle e sits at slot tri_slots[(i * nen + j) * T + e]
    rows = np.repeat(np.arange(plan.n), np.diff(plan.indptr))
    slots = plan.tri_slots.reshape(nen, nen, T)
    for i in range(nen):
        for j in range(nen):
            assert np.array_equal(rows[slots[i, j]], mesh.triangles[:, i])
            assert np.array_equal(plan.indices[slots[i, j]], mesh.triangles[:, j])


def _gated(fn, builds):
    """fn behind a two-party barrier: two racing callers both pass it unless a lock holds one back."""
    barrier = threading.Barrier(2, timeout=0.5)

    def wrapper(*args):
        builds.append(1)
        try:
            barrier.wait()
        except threading.BrokenBarrierError:  # the other caller never came: the lock held it back
            pass
        return fn(*args)
    return wrapper


def _race(fn):
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(fn) for _ in range(2)]
        return [f.result(timeout=60) for f in futures]


def test_plan_shared_across_threads(monkeypatch, rng):
    base = channel_problem(n=8)
    grid = build_structured_mesh(Domain2D(), 8)
    prob = ThermalProblem(  # fresh mesh: nothing is cached for it yet
        mesh=embed_vasculature(grid, generate_layout(Domain2D(), LayoutParams())),
        solid=base.solid, coolant=base.coolant, load=base.load, surface=base.surface,
        bcs=base.bcs,
    )
    basis_builds, constraint_builds = [], []
    monkeypatch.setattr(elements, "build_basis", _gated(elements.build_basis, basis_builds))
    monkeypatch.setattr(assembly, "_build_constraints", _gated(assembly._build_constraints, constraint_builds))
    plans = _race(lambda: plan_for(prob.mesh))
    assert len(basis_builds) == 1 and plans[0] is plans[1]
    constraints = _race(lambda: prob.constraints)
    assert len(constraint_builds) == 1 and constraints[0] is constraints[1]

    # assemblies running concurrently on the shared plan agree bitwise with serial ones
    thetas = [random_state(base, rng, True) for _ in range(8)]
    serial = [apply_constraints(assemble_raw(base, th), base.constraints) for th in thetas]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda th: apply_constraints(assemble_raw(base, th), base.constraints), thetas))
    finally:
        sys.setswitchinterval(switch)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.residual, b.residual)
        assert np.array_equal(a.jacobian.data, b.jacobian.data)


def test_zero_length_channel_edge_rejected():
    mesh = channel_problem(n=4).mesh
    lengths = mesh.channel_lengths.copy()
    lengths[1] = 0.0
    with pytest.raises(ValueError, match="zero-length"):
        plan_for(dataclasses.replace(mesh, channel_lengths=lengths))
