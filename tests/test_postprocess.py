import dataclasses

import numpy as np
import pytest

from conftest import (
    barycentric_gradients, channel_problem, mixed_boundary_problem, no_channel_problem, wide_material,
)
from vasctherm import elements
from vasctherm.assembly import STEFAN_BOLTZMANN, RateWeights, assemble_raw
from vasctherm.materials import eval_curve
from vasctherm.mesh import NEUMANN, build_structured_mesh, mesh_without_channel, triangle_areas
from vasctherm.geometry import Domain2D
from vasctherm.postprocess import (
    _load_sign_range,
    _qp_sign_range,
    arc_length_profile,
    channel_peclet,
    check_bounds,
    efficiency_from_total,
    energy_balance,
    heat_flux_field,
    mean_surface_temperature,
    observables_for,
    outlet_temperature,
    series_observables,
    total_load,
)
from vasctherm.solvers import TransientSettings, solve_steady, solve_transient

AMB = 296.42


def test_mst_constant_field(unit_square_mesh):
    theta = np.full(unit_square_mesh.n_nodes, 300.0)
    assert mean_surface_temperature(theta, unit_square_mesh) == pytest.approx(300.0)


def test_mst_linear_field_exact(unit_square_mesh):
    theta = 290.0 + 20.0 * unit_square_mesh.nodes[:, 0]
    assert mean_surface_temperature(theta, unit_square_mesh) == pytest.approx(300.0, rel=1e-13)


def test_mst_refinement_invariant_for_linear_fields():
    dom = Domain2D(width=1.0, height=1.0, thickness=0.005)
    vals = []
    for n in (4, 8, 16):
        mesh = mesh_without_channel(build_structured_mesh(dom, n))
        theta = 290.0 + 20.0 * mesh.nodes[:, 0]
        vals.append(mean_surface_temperature(theta, mesh))
    assert np.ptp(vals) < 1e-12


def test_outlet_temperature_nodal():
    prob = channel_problem(n=6)
    theta = np.full(prob.n_dofs, 305.0)
    assert outlet_temperature(theta, prob.mesh) == 305.0
    profile = arc_length_profile(theta, prob.mesh, n_samples=7)
    assert profile[-1, 1] == outlet_temperature(theta, prob.mesh)


def test_efficiency_hand_value():
    total = 0.01 * 1000.0  # area * f0 for a uniform load
    assert efficiency_from_total(306.42, 296.42, 0.0697, total) == pytest.approx(0.0697, rel=1e-12)
    assert efficiency_from_total(296.42, 296.42, 0.0697, total) == 0.0


def test_efficiency_linear_in_delta_theta():
    e1 = efficiency_from_total(300.0, 296.0, 0.07, 0.01 * 1000.0)
    e2 = efficiency_from_total(304.0, 296.0, 0.07, 0.01 * 1000.0)
    assert e2 == pytest.approx(2.0 * e1)


def test_efficiency_zero_load_raises():
    with pytest.raises(ValueError):
        efficiency_from_total(300.0, 296.0, 0.07, 0.01 * 0.0)


def test_arc_profile_constant_field_flat():
    prob = channel_problem(n=8)
    theta = np.full(prob.n_dofs, 311.0)
    profile = arc_length_profile(theta, prob.mesh, n_samples=13)
    assert np.allclose(profile[:, 1], 311.0)
    assert profile[0, 0] == 0.0
    assert profile[-1, 0] == pytest.approx(np.sum(prob.mesh.channel_lengths))


def test_arc_profile_starts_at_inlet_value():
    prob = channel_problem(n=10)
    fld = solve_steady(prob)
    profile = arc_length_profile(fld, prob.mesh, n_samples=41)
    assert profile[0, 1] == pytest.approx(296.42, abs=1e-9)
    assert profile[-1, 1] == pytest.approx(outlet_temperature(fld, prob.mesh), abs=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_arc_profile_reproduces_polynomials_of_the_element_order(order):
    # theta = s**order on the chain nodes (and the midside nodes) is interpolated exactly
    mesh = channel_problem(n=6, order=order).mesh
    s = mesh.channel_arc_coords()
    theta = np.zeros(mesh.n_nodes)
    theta[mesh.channel_nodes] = s**order
    if order == 2:
        theta[mesh.channel_mids] = (0.5 * (s[:-1] + s[1:]))**2
    profile = arc_length_profile(theta, mesh, n_samples=37)
    assert np.allclose(profile[:, 1], profile[:, 0]**order, rtol=0.0, atol=1e-14)


def test_arc_profile_linear_interpolation_midpoint():
    prob = channel_problem(n=4)
    mesh = prob.mesh
    theta = np.zeros(mesh.n_nodes)
    theta[mesh.channel_nodes] = np.arange(len(mesh.channel_nodes), dtype=float)
    s_mid = 0.5 * (mesh.channel_arc_coords()[0] + mesh.channel_arc_coords()[1])
    profile = arc_length_profile(theta, mesh, n_samples=2 * len(mesh.channel_nodes) - 1)
    row = np.argmin(np.abs(profile[:, 0] - s_mid))
    assert profile[row, 1] == pytest.approx(0.5)


def test_heat_flux_constant_field_zero():
    prob = channel_problem(n=5)
    theta = np.full(prob.n_dofs, 300.0)
    q = heat_flux_field(theta, prob)
    assert np.allclose(q, 0.0)


def test_heat_flux_linear_field_exact():
    prob = no_channel_problem(n=5, material=wide_material(k=(2.0, 0.0)))
    slope = 150.0
    theta = 300.0 + slope * prob.mesh.nodes[:, 0]
    q = heat_flux_field(theta, prob)
    assert np.allclose(q[:, 0], -2.0 * slope, rtol=1e-12)
    assert np.allclose(q[:, 1], 0.0, atol=1e-9)


def test_heat_flux_dissipative_orientation():
    # P1 gradients are constant per triangle: the flux opposes grad theta at every quadrature point
    prob = channel_problem(n=10)
    fld = solve_steady(prob)
    q = heat_flux_field(fld, prob)
    glam = barycentric_gradients(prob.mesh)
    for lam in elements.TRI_RULE_DEG2[0]:
        gradN = elements.grad_shape(1, lam, glam)
        grad = np.einsum("tnc,tn->tc", gradN, fld[prob.mesh.triangles])
        assert np.all(np.einsum("tc,tc->t", q, grad) <= 1e-12)


def test_energy_balance_equilibrium_zero():
    prob = channel_problem(n=6, f0=0.0)
    theta = np.full(prob.n_dofs, AMB)
    assert energy_balance(theta, prob) == pytest.approx(0.0, abs=1e-12)


def test_energy_balance_closed_form_scenario():
    prob = no_channel_problem(n=4, emissivity=0.0)
    fld = solve_steady(prob)
    assert abs(energy_balance(fld, prob)) < 1e-7


def test_energy_balance_low_conductivity_channel_run():
    from vasctherm.materials import builtin_material

    prob = channel_problem(n=20, material=builtin_material("gfrp_like", "TDMP"))
    fld = solve_steady(prob)
    assert abs(energy_balance(fld, prob)) <= 0.005 * 10.0


def test_check_bounds_heated_lower_bound():
    prob = channel_problem(n=10, f0=1000.0)
    fld = solve_steady(prob)
    rep = check_bounds(fld, prob)
    assert rep.min_hypothesis_met
    assert rep.pass_min
    assert rep.phi_min == pytest.approx(AMB)
    assert rep.min_violation == 0.0


def test_check_bounds_cooled_upper_bound():
    prob = channel_problem(n=10, f0=-500.0, emissivity=0.0)
    fld = solve_steady(prob)
    rep = check_bounds(fld, prob)
    assert rep.max_hypothesis_met
    assert rep.pass_max
    assert rep.max_violation == 0.0


def test_check_bounds_equilibrium_tight():
    prob = channel_problem(n=5, f0=0.0)
    fld = solve_steady(prob)
    rep = check_bounds(fld, prob)
    assert rep.pass_min and rep.pass_max
    assert rep.theta_min == pytest.approx(rep.phi_min)
    assert rep.theta_max == pytest.approx(rep.phi_max)
    assert rep.min_violation == 0.0 and rep.max_violation == 0.0


def test_check_bounds_hypothesis_flags():
    prob = channel_problem(n=5, f0=-100.0)  # f <= 0 breaks the minimum hypothesis
    fld = np.full(prob.n_dofs, AMB)
    rep = check_bounds(fld, prob)
    assert not rep.min_hypothesis_met
    assert rep.max_hypothesis_met


def test_check_bounds_radiation_requires_nonnegative_field():
    prob = channel_problem(n=5)
    fld = np.full(prob.n_dofs, AMB)
    fld[0] = -1.0
    rep = check_bounds(fld, prob)
    assert not rep.min_hypothesis_met  # emissivity > 0 and theta < 0 somewhere
    prob0 = channel_problem(n=5, emissivity=0.0)
    rep0 = check_bounds(fld, prob0)
    assert rep0.min_hypothesis_met is (True if prob0.load >= 0 else False)


def test_observables_row_and_series():
    prob = channel_problem(n=6)
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=3.0))
    rows = series_observables(prob, series, 1.0)
    assert len(rows) == 3
    assert [r.t for r in rows] == [1.0, 2.0, 3.0]
    assert all(np.isfinite(r.mst) for r in rows)
    assert all(np.isfinite(r.eta) for r in rows)


def test_observables_eta_undefined_without_load():
    prob = channel_problem(n=5, f0=0.0)
    fld = solve_steady(prob)
    obs = observables_for(prob, fld)
    assert np.isnan(obs.eta)
    assert obs.mst == pytest.approx(AMB)


@pytest.mark.parametrize("side", ["min", "max"])
def test_check_bounds_fails_a_state_0_01_K_beyond_its_bound(side):
    # phi_min = phi_max = ambient here; the tolerance is 1e-6 * theta_amb, about 0.3 mK
    prob = channel_problem(n=5)
    fld = np.full(prob.n_dofs, AMB)
    fld[7] += -0.01 if side == "min" else 0.01
    rep = check_bounds(fld, prob)
    assert rep.tolerance == 1e-6 * AMB
    assert getattr(rep, f"{side}_violation") == pytest.approx(0.01)
    assert not getattr(rep, f"pass_{side}")
    fld[7] = AMB + (-0.5 if side == "min" else 0.5) * rep.tolerance
    assert getattr(check_bounds(fld, prob), f"pass_{side}")


def test_arc_profile_has_101_rows_from_inlet_to_outlet_by_default():
    prob = channel_problem(n=8)
    profile = arc_length_profile(np.full(prob.n_dofs, AMB), prob.mesh)
    ends = prob.mesh.nodes[prob.mesh.channel_nodes]
    assert profile.shape == (101, 2)
    assert profile[0, 0] == 0.0
    assert profile[-1, 0] == pytest.approx(np.sum(np.linalg.norm(np.diff(ends, axis=0), axis=1)), rel=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_heat_flux_takes_the_conductivity_at_the_centroid_temperature(order):
    # a temperature-dependent k_s on a linear field: q = -k_s(theta_c) grad theta per triangle
    material = wide_material()
    prob = no_channel_problem(n=4, order=order, material=material)
    grad = np.array([150.0, 80.0])
    theta = 300.0 + prob.mesh.nodes @ grad
    centroids = prob.mesh.nodes[prob.mesh.triangles[:, :3]].mean(axis=1)
    k = eval_curve(material.conductivity, 300.0 + centroids @ grad)
    assert np.ptp(k) > 0.01  # the conductivity varies across the plate
    assert np.allclose(heat_flux_field(theta, prob), -k[:, None] * grad, rtol=1e-12, atol=0.0)


def test_channel_peclet_of_one_edge_by_hand():
    prob = channel_problem(n=10)  # TDMP: k_s depends on the temperature it is sampled at
    mesh = prob.mesh
    a, b = mesh.nodes[mesh.channel_nodes[:2]]
    chi = prob.coolant.density * prob.coolant.flow_rate * prob.coolant.specific_heat
    k_amb = eval_curve(prob.solid.conductivity, AMB)
    expected = chi * np.linalg.norm(b - a) / (2.0 * mesh.domain.thickness * k_amb)
    assert channel_peclet(prob)[0] == pytest.approx(expected, rel=1e-12)


def test_bound_structure_orders_mst():
    # phi_min <= MST <= max nodal theta for a heated solution
    prob = channel_problem(n=10)
    fld = solve_steady(prob)
    rep = check_bounds(fld, prob)
    mst = mean_surface_temperature(fld, prob.mesh)
    assert rep.phi_min <= mst <= rep.theta_max


def test_channel_peclet_small_at_desk_scale():
    prob = channel_problem(n=40 // 4)
    pe = channel_peclet(prob)
    assert pe.shape == (len(prob.mesh.channel_lengths),)
    assert np.all(pe < 1.0)


def per_point_reference(problem, theta, time):
    """MST, supplied power, energy residual and sign ranges, one quadrature point at a time.

    The rule comes from elements.TRI_RULE_DEG2/DEG4 and the areas from
    mesh.triangle_areas; nothing is read from the plan's tables.
    """
    mesh, surf = problem.mesh, problem.surface
    lam, weights = elements.TRI_RULE_DEG2 if mesh.element_order == 1 else elements.TRI_RULE_DEG4
    areas = triangle_areas(mesh)
    corners = mesh.nodes[mesh.triangles[:, :3]]
    theta_e = theta[mesh.triangles]
    integral = supplied = convected = radiated = 0.0
    f_lo, f_hi = np.inf, -np.inf
    for q, weight in enumerate(weights):
        w = weight * areas
        th_q = theta_e @ elements.tri_shape(mesh.element_order, lam[q:q + 1])[0]
        x, y = (corners * lam[q][None, :, None]).sum(axis=1).T
        f_q = np.broadcast_to(problem.load(x, y, time), x.shape)
        integral += np.sum(w * th_q)
        supplied += np.sum(w * f_q)
        convected += np.sum(w * surf.h_T * (th_q - surf.theta_amb))
        radiated += np.sum(w * surf.emissivity * STEFAN_BOLTZMANN * (th_q**4 - surf.theta_amb**4))
        f_lo, f_hi = min(f_lo, np.min(f_q)), max(f_hi, np.max(f_q))
    boundary = 0.0
    q_lo, q_hi = np.inf, -np.inf
    for edge, tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != NEUMANN:
            continue
        pa, pb = mesh.nodes[edge[0]], mesh.nodes[edge[1]]
        for xi in (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)):
            x, y = pa + 0.5 * (1.0 + xi) * (pb - pa)
            qv = problem.bcs.q_p(x, y, time)
            boundary += 0.5 * np.linalg.norm(pb - pa) * qv  # the edge shapes sum to one
            q_lo, q_hi = min(q_lo, qv), max(q_hi, qv)
    extracted = problem.chi * (theta[mesh.outlet_node] - problem.bcs.theta_inlet)
    return {
        "mst": integral / np.sum(areas),
        "supplied": supplied,
        "energy": supplied - convected - radiated - extracted - boundary,
        "energy_scale": abs(supplied) + abs(convected) + abs(radiated) + abs(extracted) + abs(boundary),
        "f_range": (f_lo, f_hi),
        "q_range": (q_lo, q_hi),
    }


@pytest.mark.parametrize("order", [1, 2])
def test_quadrature_reductions_match_per_point_loops(order, rng):
    prob = mixed_boundary_problem(order=order)
    time = 3.0
    for _ in range(3):
        theta = rng.uniform(300.0, 360.0, prob.n_dofs)
        ref = per_point_reference(prob, theta, time)
        obs = observables_for(prob, theta, time)
        assert obs.mst == pytest.approx(ref["mst"], rel=1e-13)
        assert total_load(prob, time) == pytest.approx(ref["supplied"], rel=1e-13)
        eta = prob.chi * (theta[prob.mesh.outlet_node] - prob.bcs.theta_inlet) / ref["supplied"]
        assert obs.eta == pytest.approx(eta, rel=1e-13)
        for energy in (obs.energy_residual, energy_balance(theta, prob, time)):
            assert abs(energy - ref["energy"]) <= 1e-13 * ref["energy_scale"]
        assert _load_sign_range(prob, time) == pytest.approx(ref["f_range"], rel=1e-13)
        assert _qp_sign_range(prob, time) == pytest.approx(ref["q_range"], rel=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_constant_data_resolves_like_its_callable(order, rng):
    # a constant load and flux are resolved once, as floats: given as floats or as
    # callables of the same values, every consumer gives bitwise the same numbers
    base = mixed_boundary_problem(order=order)
    as_floats = dataclasses.replace(base, load=800.0, bcs=dataclasses.replace(base.bcs, q_p=2.5))
    as_calls = dataclasses.replace(base, load=lambda x, y, t: 800.0,
                                   bcs=dataclasses.replace(base.bcs, q_p=lambda x, y, t: 2.5))
    time = 3.0
    theta = rng.uniform(300.0, 360.0, base.n_dofs)
    theta[base.constraints.ids] = base.constraints.values
    for rate in (None, RateWeights(coeff=1.0, rhs=-rng.uniform(300.0, 360.0, base.n_dofs))):
        a, b = (assemble_raw(prob, theta, time, rate) for prob in (as_floats, as_calls))
        assert np.array_equal(a.residual, b.residual)
        assert np.array_equal(a.jacobian.data, b.jacobian.data)
    for reduction in (total_load, _load_sign_range, _qp_sign_range):
        assert reduction(as_floats, time) == reduction(as_calls, time)
    assert energy_balance(theta, as_floats, time) == energy_balance(theta, as_calls, time)
