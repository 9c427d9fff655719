import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import WIDE, channel_problem, mixed_boundary_problem, no_channel_problem, wide_material
from vasctherm.assembly import (
    BoundaryData,
    EllipticityError,
    RateWeights,
    SurfaceExchange,
    TermMask,
    ThermalProblem,
    apply_constraints,
    assemble_raw,
    channel_line_term,
    plan_for,
)
from vasctherm.elements import GAUSS_1D_1, GAUSS_1D_2, basis_for, edge_shape
from vasctherm.geometry import Domain2D, LayoutParams, VasculaturePath, generate_layout
from vasctherm.materials import (
    Coolant,
    PropertyCurve,
    SolidMaterial,
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
    tag_boundary,
)
from vasctherm.postprocess import energy_balance
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
    system = apply_constraints(assemble_raw(prob, theta))
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
    system = assemble_raw(prob, theta, terms=TermMask(convection=False, radiation=False))
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
    steady = apply_constraints(assemble_raw(prob, theta))
    rate = RateWeights(coeff=0.0, rhs=np.zeros(prob.n_dofs))
    trans = apply_constraints(assemble_raw(prob, theta, rate=rate))
    assert np.allclose(trans.residual, steady.residual, atol=1e-14)
    assert np.allclose((trans.jacobian - steady.jacobian).toarray(), 0.0, atol=1e-14)


def test_mass_matrix_row_sums_are_lumped_areas():
    # with constant c_s and theta_dot == 1, the mass residual row i is
    # d rho c times the nodal area share int N_i
    n = 5
    prob = no_channel_problem(n=n, f0=0.0, material=wide_material(c=(900.0, 0.0)))
    theta = np.full(prob.n_dofs, 320.0)
    rate = RateWeights(coeff=0.0, rhs=np.ones(prob.n_dofs))
    only_mass = TermMask(conduction=False, convection=False, radiation=False, channel=False)
    system = assemble_raw(prob, theta, rate=rate, terms=only_mass)
    mass_rows = system.residual  # load term is zero (f0 = 0)
    d, rho, c = prob.mesh.domain.thickness, prob.solid.density, 900.0
    areas = np.zeros(prob.n_dofs)
    corner_share = (0.1 / n) ** 2 / 2.0 / 3.0
    for tri in prob.mesh.triangles:
        areas[tri] += corner_share
    assert np.allclose(mass_rows, d * rho * c * areas, rtol=1e-12)


def test_mass_jacobian_matches_finite_differences():
    prob = no_channel_problem(n=3, material=wide_material())
    mask = TermMask(conduction=False, convection=False, radiation=False, channel=False)
    assert jacobian_check(prob, trials=2, terms=mask, seed=1) <= 1e-6


def test_channel_term_uniform_field_vanishes():
    prob = channel_problem(n=8)
    theta = np.full(prob.n_dofs, 310.0)
    _, res, _ = channel_line_term(prob.mesh, theta, prob.chi)
    assert np.max(np.abs(res)) == 0.0


def test_channel_term_single_edge_hand_value():
    grid = build_structured_mesh(Domain2D(), 2)
    mesh = embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]])))
    theta = np.full(mesh.n_nodes, 300.0)
    a, b = mesh.channel_nodes[0], mesh.channel_nodes[1]
    theta[b] = 310.0
    nodes, res, _ = channel_line_term(mesh, theta, 0.0697)
    # first edge: chi (theta_b - theta_a) = 0.697 W split equally by the 1-point rule
    assert res[0] == pytest.approx([0.3485, 0.3485], rel=1e-12)
    assert np.sum(res[0]) == pytest.approx(0.697, rel=1e-12)


def test_channel_term_orientation_flips_sign():
    grid = build_structured_mesh(Domain2D(), 4)
    path = VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]]))
    fwd = embed_vasculature(grid, path)
    rev = embed_vasculature(grid, path.reversed())
    theta = np.linspace(300.0, 340.0, fwd.n_nodes)
    _, rf, _ = channel_line_term(fwd, theta, 0.07)
    _, rr, _ = channel_line_term(rev, theta, 0.07)
    assert np.allclose(rr[::-1], -rf, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_channel_term_matches_per_call_tables(order, rng):
    # reference: the edge tables rebuilt on every call, in the same arithmetic order
    mesh = channel_problem(n=6, order=order).mesh
    theta, chi = rng.uniform(300.0, 360.0, mesh.n_nodes), 0.0697
    a, b = mesh.channel_nodes[:-1], mesh.channel_nodes[1:]
    ref_nodes = np.column_stack([a, b] if order == 1 else [a, b, mesh.channel_mids])
    ell = mesh.channel_lengths
    ref_res, ref_jac = np.zeros(ref_nodes.shape), np.zeros(ref_nodes.shape + (ref_nodes.shape[1],))
    xi, wgt = GAUSS_1D_1 if order == 1 else GAUSS_1D_2
    for g in range(len(xi)):
        N, dNdxi = edge_shape(order, xi[g:g + 1])
        dNds = (2.0 / ell)[:, None] * dNdxi[0]
        scale = chi * wgt[g] * 0.5 * ell
        ref_res += (scale * np.einsum("ek,ek->e", dNds, theta[ref_nodes]))[:, None] * N[0]
        ref_jac += scale[:, None, None] * np.einsum("i,ek->eik", N[0], dNds)
    nodes, res, jac = channel_line_term(mesh, theta, chi)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(res, ref_res)
    assert np.array_equal(jac, ref_jac)
    _, lean, none = channel_line_term(mesh, theta, chi, jacobian=False)
    assert np.array_equal(lean, ref_res) and none is None


def test_constrained_values_built_once_and_read_only(rng):
    base = mixed_boundary_problem()
    calls = []

    def theta_p(x, y):
        calls.append(1)
        return 300.0 + 100.0 * y

    prob = ThermalProblem(
        mesh=base.mesh, solid=base.solid, coolant=base.coolant, load=base.load,
        surface=base.surface, bcs=BoundaryData(theta_inlet=296.42, theta_p=theta_p),
    )
    ids, vals = prob.constrained_values()
    for _ in range(3):
        apply_constraints(assemble_raw(prob, random_state(prob, rng, True), jacobian=False))
    again = prob.constrained_values()
    assert len(calls) == 1
    assert again[0] is ids and again[1] is vals
    assert not ids.flags.writeable and not vals.flags.writeable


def test_all_neumann_constrains_only_inlet():
    prob = channel_problem(n=6)
    ids, vals = prob.constrained_values()
    assert ids.tolist() == [prob.mesh.inlet_node]
    assert vals[0] == pytest.approx(296.42)


def test_zero_flow_removes_inlet_constraint():
    prob = channel_problem(n=6, flow_ml_per_min=0.0)
    ids, vals = prob.constrained_values()
    assert ids.size == 0 and vals.size == 0


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
    ids, vals = prob.constrained_values()
    boundary_nodes = 4 * 6  # boundary node count on an n=6 grid
    # inlet lies on the boundary, so it is already among the dirichlet nodes
    assert len(ids) == len(np.unique(ids)) == len(vals) == boundary_nodes


def test_conflicting_inlet_prescription_rejected():
    grid = build_structured_mesh(Domain2D(), 6)
    mesh = tag_boundary(
        embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]]))),
        lambda x, y: DIRICHLET,
    )
    base = channel_problem(n=6)
    prob = ThermalProblem(
        mesh=mesh, solid=base.solid, coolant=base.coolant, load=base.load,
        surface=base.surface,
        bcs=BoundaryData(theta_inlet=296.42, theta_p=350.0),
    )
    with pytest.raises(ValueError, match="conflicting"):
        prob.constrained_values()


def test_constrained_row_is_identity_and_solution_exact(rng):
    prob = channel_problem(n=6)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = apply_constraints(assemble_raw(prob, theta))
    inlet = prob.mesh.inlet_node
    row = system.jacobian.getrow(inlet).toarray().ravel()
    expected = np.zeros(prob.n_dofs)
    expected[inlet] = 1.0
    assert np.allclose(row, expected)
    assert system.residual[inlet] == pytest.approx(theta[inlet] - 296.42)


def test_linear_case_matrix_symmetric_positive_definite():
    # eps = 0, chi = 0, constant k: steady operator is linear and SPD
    prob = no_channel_problem(n=5, emissivity=0.0)
    theta = np.full(prob.n_dofs, 310.0)
    system = apply_constraints(assemble_raw(prob, theta))
    J = system.jacobian.toarray()
    assert np.allclose(J, J.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(J)) > 0.0


def test_partition_of_unity_energy_identity(rng):
    # summing raw residual rows over the all-ones test function reproduces
    # the global balance used by postprocess.energy_balance (on states that
    # satisfy the inlet prescription, which ties the chain end to theta_inlet)
    prob = channel_problem(n=8)
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    theta[prob.mesh.inlet_node] = prob.bcs.theta_inlet
    raw = assemble_raw(prob, theta)
    assert np.sum(raw.residual) == pytest.approx(-energy_balance(theta, prob), abs=1e-9)


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


def test_ellipticity_violation_raises():
    sinking = PropertyCurve((3.0, -0.01), WIDE)  # negative above 300 K
    prob = no_channel_problem(n=3, material=wide_material(k=(3.0, -0.01)))
    prob = ThermalProblem(
        mesh=prob.mesh, solid=SolidMaterial("bad", 1600.0, constant_curve(900.0), sinking),
        coolant=prob.coolant, load=prob.load, surface=prob.surface,
    )
    theta = np.full(prob.n_dofs, 400.0)
    with pytest.raises(EllipticityError):
        apply_constraints(assemble_raw(prob, theta))


def test_apply_constraints_preserves_symmetric_pattern(rng):
    prob = channel_problem(n=5)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = apply_constraints(assemble_raw(prob, theta))
    pattern = (system.jacobian != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


def random_state(prob, rng, on_constraints):
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    if on_constraints:
        ids, vals = prob.constrained_values()
        theta[ids] = vals
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
            assert (lean.jacobian is None) == on_constraints
            assert np.array_equal(
                apply_constraints(lean).residual, apply_constraints(full).residual)


def dense_reference_jacobian(prob, theta, rate):
    """Element-by-element accumulation of the exact linearization."""
    mesh, solid, surf = prob.mesh, prob.solid, prob.surface
    basis = basis_for(mesh)
    d, es = mesh.domain.thickness, surf.emissivity * surf.sigma
    J = np.zeros((prob.n_dofs, prob.n_dofs))
    thdot = rate.coeff * theta + rate.rhs
    for e, nodes in enumerate(mesh.triangles):
        th_e, J_e = theta[nodes], np.zeros((len(nodes), len(nodes)))
        for q, weight in enumerate(basis.qp_weights):
            N, G = basis.qp_N[q], basis.qp_gradN[q, e]
            w = weight * basis.areas[e]
            th, thd = N @ th_e, N @ thdot[nodes]
            gw = G @ (G.T @ th_e)
            J_e += w * d * eval_curve(solid.conductivity, th) * (G @ G.T)
            J_e += w * d * curve_derivative(solid.conductivity, th) * np.outer(gw, N)
            J_e += w * (surf.h_T + 4.0 * es * th**3) * np.outer(N, N)
            J_e += w * d * solid.density * (
                eval_curve(solid.specific_heat, th) * rate.coeff
                + curve_derivative(solid.specific_heat, th) * thd) * np.outer(N, N)
        J[np.ix_(nodes, nodes)] += J_e
    cn, _, cjac = channel_line_term(mesh, theta, prob.chi)
    for nodes, block in zip(cn, cjac):
        J[np.ix_(nodes, nodes)] += block
    return J


@pytest.mark.parametrize("order", [1, 2])
def test_jacobian_matches_dense_reference(order, rng):
    prob = channel_problem(n=4, order=order, material=wide_material())
    theta = rng.uniform(300.0, 360.0, prob.n_dofs)
    rate = RateWeights(coeff=1.5, rhs=-rng.uniform(300.0, 360.0, prob.n_dofs))
    J = assemble_raw(prob, theta, rate=rate).jacobian.toarray()
    ref = dense_reference_jacobian(prob, theta, rate)
    assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_csr_pattern_canonical_and_fixed(rng):
    prob = mixed_boundary_problem(order=2)
    rate = RateWeights(coeff=1.0, rhs=np.zeros(prob.n_dofs))
    systems = [
        assemble_raw(prob, random_state(prob, rng, True)),
        assemble_raw(prob, random_state(prob, rng, False), rate=rate),
        apply_constraints(assemble_raw(prob, random_state(prob, rng, True), rate=rate)),
    ]
    first = systems[0].jacobian
    for J in (s.jacobian for s in systems):
        for i in range(J.shape[0]):
            row = J.indices[J.indptr[i]:J.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates
        assert np.array_equal(J.indptr, first.indptr)
        assert np.array_equal(J.indices, first.indices)


def test_cached_index_arrays_read_only(rng):
    prob = mixed_boundary_problem()
    system = apply_constraints(assemble_raw(prob, random_state(prob, rng, True)))
    plan = system.plan
    assert plan is plan_for(prob.mesh)
    for arr in (plan.indptr, plan.indices, plan.tri_slots, plan.chan_slots, plan.diag_slots):
        assert not arr.flags.writeable
    J = system.jacobian
    assert np.shares_memory(J.indices, plan.indices)
    assert np.any(J.data == 0.0)  # constrained rows/columns hold explicit zeros
    with pytest.raises(ValueError):
        J.eliminate_zeros()
    J.has_sorted_indices = False
    with pytest.raises(ValueError):
        J.sort_indices()
    assert np.array_equal(
        plan.indices, assemble_raw(prob, random_state(prob, rng, True)).jacobian.indices)


def test_plan_shared_across_threads(rng):
    grid = build_structured_mesh(Domain2D(), 8)
    base = channel_problem(n=8)
    thetas = [random_state(base, rng, True) for _ in range(16)]
    serial = [apply_constraints(assemble_raw(base, th)) for th in thetas]
    prob = ThermalProblem(  # fresh mesh: its plan is built under contention
        mesh=embed_vasculature(grid, generate_layout(Domain2D(), LayoutParams())),
        solid=base.solid, coolant=base.coolant, load=base.load, surface=base.surface,
        bcs=base.bcs,
    )
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda th: apply_constraints(assemble_raw(prob, th)), th)
                       for th in thetas]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert len({id(s.plan) for s in threaded}) == 1
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.residual, b.residual)
        assert np.array_equal(a.jacobian.data, b.jacobian.data)
        assert np.array_equal(a.jacobian.indices, b.jacobian.indices)
