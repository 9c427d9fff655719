import dataclasses

import numpy as np
import pytest

from conftest import channel_problem, no_channel_problem, wide_material
from vasctherm import cli, verification
from vasctherm.assembly import STEFAN_BOLTZMANN, SurfaceExchange, TermMask
from vasctherm.materials import builtin_material, constant_curve
from vasctherm.verification import (
    ConvergenceRow,
    ConvergenceTable,
    MMSCase,
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
    table = mms_convergence(case, mesh_sizes=(4, 8))
    assert all(r.l2_error < 1e-9 for r in table.rows)


def test_mms_bilinear_p1_second_order():
    table = mms_convergence(mms_case_cmp(), mesh_sizes=(8, 16, 32))
    assert table.slope == pytest.approx(2.0, abs=0.2)


def test_mms_tdmp_p1_second_order():
    table = mms_convergence(mms_case_tdmp(), mesh_sizes=(8, 16, 32))
    assert table.slope == pytest.approx(2.0, abs=0.2)


def test_mms_channel_variant_second_order():
    table = mms_convergence(mms_case_channel(), mesh_sizes=(8, 16, 32))
    assert table.slope == pytest.approx(2.0, abs=0.2)


def test_mms_p2_reproduces_quadratic_exactly():
    # a quadratic exact field lies in the P2 space and all integrands stay
    # within the quadrature degree, so the discrete solution is exact
    table = mms_convergence(mms_case_tdmp(), mesh_sizes=(4, 8), element_order=2)
    assert all(r.l2_error < 1e-10 for r in table.rows)


def test_mms_p2_third_order_on_cubic_field():
    table = mms_convergence(mms_case_cubic(), mesh_sizes=(4, 8, 16), element_order=2)
    assert table.slope == pytest.approx(3.0, abs=0.4)


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
