import dataclasses
import weakref

import numpy as np
import pytest

from conftest import channel_problem, mixed_boundary_problem, no_channel_problem, wide_material
from vasctherm import assembly, cli, elements, verification
from vasctherm.assembly import STEFAN_BOLTZMANN, RateWeights, SurfaceExchange, TermMask, apply_constraints
from vasctherm.materials import builtin_material, constant_curve
from vasctherm.verification import (
    ConvergenceRow,
    ConvergenceTable,
    MMSCase,
    column_groups,
    jacobian_check,
    mms_case_channel,
    mms_case_cubic,
    mms_case_cmp,
    mms_case_tdmp,
    mms_convergence,
    scalar_reference,
    scalar_steady_root,
    toggle_masks,
)

AMB = 296.42


def test_mms_constant_exact_at_any_resolution():
    case = MMSCase(
        name="constant",
        theta_exact=lambda x, y: np.full_like(np.asarray(x, dtype=float), 310.0),
        source=lambda x, y: np.full_like(np.asarray(x, dtype=float), 21.0 * (310.0 - AMB)),
        conductivity=constant_curve(2.0, (250.0, 500.0)),
    )
    [table] = mms_convergence([case], mesh_sizes=(4, 8))
    assert all(r.l2_error < 1e-9 for r in table.rows)


def test_mms_bilinear_p1_second_order():
    [table] = mms_convergence([mms_case_cmp()], mesh_sizes=(8, 16, 32))
    assert table.slope == pytest.approx(2.0, abs=0.2)


def test_mms_tdmp_p1_second_order():
    [table] = mms_convergence([mms_case_tdmp()], mesh_sizes=(8, 16, 32))
    assert table.slope == pytest.approx(2.0, abs=0.2)


def test_mms_channel_variant_second_order():
    [table] = mms_convergence([mms_case_channel()], mesh_sizes=(8, 16, 32))
    assert table.slope == pytest.approx(2.0, abs=0.2)


def test_mms_p2_reproduces_quadratic_exactly():
    # a quadratic exact field lies in the P2 space and all integrands stay
    # within the quadrature degree, so the discrete solution is exact
    [table] = mms_convergence([mms_case_tdmp()], mesh_sizes=(4, 8), element_order=2)
    assert all(r.l2_error < 1e-10 for r in table.rows)


def test_mms_p2_third_order_on_cubic_field():
    [table] = mms_convergence([mms_case_cubic()], mesh_sizes=(4, 8, 16), element_order=2)
    assert table.slope == pytest.approx(3.0, abs=0.4)


def test_mms_cases_share_one_mesh_per_size_and_channel_flag(monkeypatch):
    cases = [mms_case_cmp(), mms_case_channel(), mms_case_tdmp()]
    seen = []  # (case name, n, has_channel, on the previous solve's mesh)
    meshes = []  # a weak reference to the mesh of each solve
    real = verification.solve_steady

    def solve(problem, *args, **kwargs):
        mesh = problem.mesh
        # the mesh solved on is the only one alive
        assert all(ref() is None for ref in meshes if ref() is not mesh)
        seen.append((problem.solid.name, mesh.n, mesh.has_channel, bool(meshes) and meshes[-1]() is mesh))
        meshes.append(weakref.ref(mesh))
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(verification, "solve_steady", solve)
    tables = mms_convergence(cases, mesh_sizes=(4, 8))
    assert seen == [
        ("cmp_bilinear", 4, False, False), ("tdmp_quadratic", 4, False, True), ("channel_compatible", 4, True, False),
        ("cmp_bilinear", 8, False, False), ("tdmp_quadratic", 8, False, True), ("channel_compatible", 8, True, False)]
    monkeypatch.undo()
    for case, table in zip(cases, tables):  # each table is bitwise the case's table alone
        assert table == mms_convergence([case], mesh_sizes=(4, 8))[0]


def test_convergence_table_requires_decreasing_h():
    rows = (ConvergenceRow(0.1, 1.0, 1.0), ConvergenceRow(0.2, 0.5, 0.5))
    with pytest.raises(ValueError):
        ConvergenceTable(rows=rows, slope=2.0)


def test_jacobian_check_linear_problem_machine_accurate():
    prob = no_channel_problem(n=3, emissivity=0.0)  # CMP constants, chi = 0
    gap = jacobian_check(prob, trials=2, seed=11)
    assert gap <= 1e-9


def test_jacobian_check_full_nonlinear_problem():
    prob = channel_problem(n=4, material=wide_material())
    gap = jacobian_check(prob, trials=2, seed=5)
    assert gap <= 1e-5


def test_jacobian_mutation_detected(monkeypatch):
    # dropping the property-derivative blocks (k_s', c_s') must break the check
    prob = channel_problem(n=4, material=wide_material())
    monkeypatch.setattr("vasctherm.assembly.curve_derivative",
                        lambda curve, theta: np.zeros_like(theta))
    gap = jacobian_check(prob, trials=2, seed=5)
    assert gap > 1e-5


@pytest.mark.parametrize("poisoned", ["fd_residuals", "jacobian"])
def test_jacobian_check_keeps_a_nan_gap_of_a_later_trial(monkeypatch, poisoned):
    # NaN in trial 2 of 2 only: the finite-difference residuals or the analytic
    # Jacobian; either must surface as a NaN gap, which the verify gate fails
    real = verification.assemble_raw
    full_calls = []

    def assemble(problem, theta, *args, jacobian=True, **kwargs):
        system = real(problem, theta, *args, jacobian=jacobian, **kwargs)
        if jacobian:
            full_calls.append(theta)
        if len(full_calls) == 2:
            if poisoned == "fd_residuals" and not jacobian:
                system.residual[:] = np.nan
            if poisoned == "jacobian" and jacobian:
                system.jacobian.data[:] = np.nan
        return system

    monkeypatch.setattr(verification, "assemble_raw", assemble)
    assert np.isnan(jacobian_check(cli._verify_problem(), trials=2, seed=0))
    assert len(full_calls) == 2


def _column_by_column_check(problem, trials, terms, seed):
    """jacobian_check as it differenced one free column per central difference."""
    rng = np.random.default_rng(seed)
    n = problem.n_dofs
    constraints = problem.constraints
    gaps = []
    for _ in range(trials):
        theta = rng.uniform(*verification.FD_THETA_RANGE, size=n)
        theta[constraints.ids] = constraints.values
        if terms.mass:
            prev = rng.uniform(*verification.FD_THETA_RANGE, size=n)
            rate = RateWeights(coeff=1.0 / verification.FD_RATE_DT, rhs=-prev / verification.FD_RATE_DT)
        else:
            rate = None
        base = apply_constraints(assembly.assemble_raw(problem, theta, rate=rate, terms=terms), constraints)
        J = base.jacobian.toarray()
        J_fd = np.empty_like(J)
        for col, j in enumerate(constraints.free):
            h = verification.FD_STEP * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            rp, rm = (
                apply_constraints(
                    assembly.assemble_raw(problem, state, rate=rate, terms=terms, jacobian=False), constraints
                ).residual
                for state in (tp, tm)
            )
            J_fd[:, col] = (rp - rm) / (2.0 * h)
        denom = np.linalg.norm(J)
        gaps.append(np.linalg.norm(J_fd - J) / denom if denom != 0 else np.linalg.norm(J_fd))
    return float(np.max(gaps, initial=0.0))


GROUPED_CHECK_CASES = {
    "p1_verify": cli._verify_problem,
    "p1_mms": lambda: verification._mms_problem(mms_case_tdmp(), verification._mms_mesh(5, 1, False)),
    "p2_mms": lambda: verification._mms_problem(mms_case_cubic(), verification._mms_mesh(4, 2, False)),
    "p2_channel": lambda: channel_problem(n=5, order=2, material=wide_material()),
    "p1_mixed": lambda: mixed_boundary_problem(order=1, n=5),
}


@pytest.mark.parametrize("case", GROUPED_CHECK_CASES)
def test_grouped_jacobian_check_is_bitwise_the_column_by_column_one(case):
    prob = GROUPED_CHECK_CASES[case]()
    for mask in toggle_masks():
        assert jacobian_check(prob, trials=2, terms=mask, seed=7) == _column_by_column_check(prob, 2, mask, 7)


@pytest.mark.parametrize("case", GROUPED_CHECK_CASES)
def test_column_groups_share_no_row(case):
    constraints = GROUPED_CHECK_CASES[case]().constraints
    indptr, indices = constraints.indptr, constraints.indices
    groups = column_groups(constraints)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(constraints.free.size))
    for cols in groups:
        rows = np.concatenate([indices[indptr[c]:indptr[c + 1]] for c in cols])
        assert rows.size == np.unique(rows).size
    assert len(groups) < constraints.free.size


def test_column_group_counts():
    assert len(column_groups(cli._verify_problem().constraints)) == 8  # of 15 free columns
    mms = verification._mms_problem(mms_case_cmp(), verification._mms_mesh(32, 1, False))
    assert (len(column_groups(mms.constraints)), mms.constraints.free.size) == (13, 961)


def test_verify_builds_five_bases_and_orderings(tmp_path, monkeypatch, capsys):
    # three MMS meshes shared by both cases, the Jacobian check's mesh and the scalar problem's
    counts = {"basis": 0, "order": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(elements, "build_basis", counting("basis", elements.build_basis))
    monkeypatch.setattr(assembly, "nested_dissection", counting("order", assembly.nested_dissection))
    assert cli.main(["verify", "--out", str(tmp_path / "verify")]) == cli.EXIT_OK
    assert counts == {"basis": 5, "order": 5}


def test_toggle_masks_enumeration():
    masks = toggle_masks()
    assert len(masks) == 16
    combos = {(m.conduction, m.radiation, m.channel, m.mass) for m in masks}
    assert len(combos) == 16
    assert {f.name for f in dataclasses.fields(TermMask)} == {"conduction", "radiation", "channel", "mass"}


def test_scalar_reference_flat_without_load():
    prob = no_channel_problem(n=2, f0=0.0, emissivity=0.97)
    ref = scalar_reference(prob, t_end=50.0)
    assert np.allclose(ref.values, AMB)
    assert ref.steady_root == pytest.approx(AMB, abs=1e-9)


def test_scalar_steady_root_closed_form_no_radiation():
    root = scalar_steady_root(1000.0, 21.0, 0.0, AMB)
    assert root == pytest.approx(AMB + 1000.0 / 21.0, abs=1e-9)


def test_scalar_steady_root_radiative_frozen_digits():
    root = scalar_steady_root(1000.0, 21.0, 0.97, AMB)
    assert root == pytest.approx(332.31737817729083, abs=1e-8)
    root2 = scalar_steady_root(2000.0, 21.0, 0.97, AMB)
    assert root2 == pytest.approx(365.260268841688, abs=1e-7)


def test_scalar_reference_approaches_root():
    prob = no_channel_problem(n=2, f0=1000.0, emissivity=0.97)
    ref = scalar_reference(prob, t_end=3000.0, dt=0.02)
    assert ref.values[-1] == pytest.approx(ref.steady_root, abs=1e-3)


def _tdmp_through_both_clamps():
    # from 280 K, below c_s's fitted range, to above 423.15 K within 300 s
    base = no_channel_problem(n=2, f0=2e4, emissivity=0.97,
                              material=builtin_material("cfrp_like", "TDMP"))
    return dataclasses.replace(base, surface=SurfaceExchange(h_T=21.0, emissivity=0.97, theta_amb=280.0))


@pytest.mark.parametrize("make", [cli._scalar_problem, _tdmp_through_both_clamps])
def test_scalar_reference_clamp_matches_the_builtin_clamp(make):
    # the reference clamps c_s's argument with conditional expressions; the RK4
    # trajectory must equal, bit for bit, that of min(max(u, lo), hi)
    prob = make()
    ref = scalar_reference(prob, t_end=300.0)
    surf, curve = prob.surface, prob.solid.specific_heat
    lo, hi = curve.valid_range
    es, drho = surf.emissivity * STEFAN_BOLTZMANN, prob.mesh.domain.thickness * prob.solid.density

    def rhs(u):
        t, c = min(max(u, lo), hi), 0.0
        for coef in curve.coefficients[::-1]:
            c = c * t + coef
        return (float(prob.load) - surf.h_T * (u - surf.theta_amb)
                - es * (u**4 - surf.theta_amb**4)) / (drho * c)

    dt, u, values = 0.01, float(surf.theta_amb), [float(surf.theta_amb)]
    for k in range(1, 30001):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if k % 100 == 0:
            values.append(u)
    assert np.array_equal(ref.values, np.array(values))
    assert np.array_equal(ref.times, np.arange(301.0))
    if make is _tdmp_through_both_clamps:
        assert ref.values[0] < lo and ref.values[-1] > hi


def test_scalar_reference_rejects_nonuniform_scenarios():
    with pytest.raises(ValueError):
        scalar_reference(channel_problem(n=4))
    prob = dataclasses.replace(no_channel_problem(n=2), load=lambda x, y, t: 1000.0 + x)
    with pytest.raises(ValueError):
        scalar_reference(prob)
