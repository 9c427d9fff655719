import numpy as np
import pytest
import scipy.sparse as sp

from conftest import channel_problem, no_channel_problem, wide_material
from vasctherm.assembly import DiscreteSystem, SurfaceExchange, ThermalProblem, assemble_steady
from vasctherm.materials import Coolant
from vasctherm.solvers import (
    NewtonError,
    NewtonSettings,
    SingularSystemError,
    TransientError,
    TransientSettings,
    linear_solve,
    solve_steady,
    solve_transient,
)
from vasctherm.verification import scalar_reference, scalar_steady_root

AMB = 296.42
LINEAR_ROOT = 344.03904761904766  # amb + 1000/21, hand value
RADIATIVE_ROOT = 332.31737817729083  # bisection of the radiative balance, frozen


def test_equilibrium_converges_immediately():
    prob = channel_problem(n=6, f0=0.0)
    log = []
    fld = solve_steady(prob, log=log)
    assert np.allclose(fld.values, AMB)
    assert log[-1].iteration <= 1


def test_closed_form_linear_equilibrium():
    prob = no_channel_problem(n=3, emissivity=0.0)
    fld = solve_steady(prob)
    assert np.ptp(fld.values) < 1e-10
    assert fld.values[0] == pytest.approx(LINEAR_ROOT, abs=1e-6)


def test_radiative_equilibrium_matches_bisection_oracle():
    prob = no_channel_problem(n=3, emissivity=0.97)
    fld = solve_steady(prob)
    root = scalar_steady_root(1000.0, 21.0, 0.97, AMB)
    assert root == pytest.approx(RADIATIVE_ROOT, abs=1e-8)
    assert fld.values[0] == pytest.approx(root, abs=1e-4)


def test_newton_quadratic_convergence_near_root():
    prob = channel_problem(n=10)
    log = []
    solve_steady(prob, log=log)
    norms = [rec.residual_norm for rec in log if rec.residual_norm > 0]
    # ratio ||R_{k+1}|| / ||R_k||^2 stays bounded over the tail iterations
    ratios = [norms[k + 1] / norms[k] ** 2 for k in range(len(norms) - 2, len(norms) - 1)]
    assert all(r < 1e3 for r in ratios)
    assert all(rec.damping == 1.0 for rec in log if rec.iteration > 0)


def test_solve_steady_nonconvergence_reports():
    prob = channel_problem(n=6, f0=2000.0)
    with pytest.raises(NewtonError) as err:
        solve_steady(prob, NewtonSettings(abs_tol=1e-12, rel_tol=1e-16, max_iters=1))
    assert err.value.theta is not None
    assert err.value.residual_norm > 0


def test_kelvin_positivity_flagged():
    prob = no_channel_problem(n=3, f0=-1.0e7, emissivity=0.0)
    with pytest.warns(RuntimeWarning, match="kelvin"):
        solve_steady(prob)


def test_transient_equilibrium_fixed_point():
    prob = channel_problem(n=5, f0=0.0)
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=5.0))
    assert len(series) == 6
    assert series.times[0] == 0.0
    for fld in series.fields:
        assert np.allclose(fld.values, AMB, atol=1e-12)


def test_transient_matches_scalar_rk4_reference():
    prob = no_channel_problem(n=2, emissivity=0.97)
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=200.0))
    ref = scalar_reference(prob, t_end=200.0)
    fem = np.array([f.values[0] for f in series.fields])
    rk = ref.at(series.times)
    assert np.max(np.abs(fem - rk) / rk) < 5e-3
    # spatially uniform data stays spatially uniform
    assert max(np.ptp(f.values) for f in series.fields) < 1e-10


def test_bdf2_self_convergence_order():
    prob = no_channel_problem(n=2, emissivity=0.97)
    end = {}
    for dt in (2.0, 1.0, 0.5):
        series = solve_transient(prob, TransientSettings(dt=dt, t_end=150.0))
        end[dt] = series.final.values[0]
    e_coarse = abs(end[2.0] - end[1.0])
    e_fine = abs(end[1.0] - end[0.5])
    order = np.log2(e_coarse / e_fine)
    assert order >= 1.8


def test_bdf1_available_and_first_order():
    prob = no_channel_problem(n=2, emissivity=0.0)
    end = {}
    for dt in (4.0, 2.0, 1.0):
        series = solve_transient(prob, TransientSettings(dt=dt, t_end=100.0, bdf_order=1))
        end[dt] = series.final.values[0]
    order = np.log2(abs(end[4.0] - end[2.0]) / abs(end[2.0] - end[1.0]))
    assert 0.8 <= order <= 1.3


def test_transient_approaches_steady_state():
    # at 1500 s the transient sits within 0.2 K of the steady solution
    prob = channel_problem(n=10, material=wide_material(), f0=1000.0)
    series = solve_transient(prob, TransientSettings(dt=5.0, t_end=1500.0))
    steady = solve_steady(prob)
    assert np.max(np.abs(series.final.values - steady.values)) <= 0.2


def test_transient_failure_carries_partial_series():
    prob = channel_problem(n=5, f0=2000.0)
    with pytest.raises(TransientError) as err:
        solve_transient(
            prob,
            TransientSettings(dt=500.0, t_end=1500.0),
            NewtonSettings(abs_tol=1e-14, rel_tol=1e-16, max_iters=1, line_search=False),
        )
    assert err.value.series is not None
    assert len(err.value.series) >= 1


def test_transient_requires_integer_step_count():
    with pytest.raises(ValueError):
        TransientSettings(dt=7.0, t_end=100.0).n_steps


def test_linear_solve_identity_jacobian(rng):
    n = 12
    residual = rng.normal(size=n)
    system = DiscreteSystem(
        residual=residual, jacobian=sp.identity(n, format="csr"),
        constrained_dofs={}, theta=np.zeros(n),
    )
    assert np.allclose(linear_solve(system), -residual)


def test_linear_solve_direct_vs_iterative_agree(rng):
    prob = no_channel_problem(n=6, emissivity=0.0)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = assemble_steady(prob, theta)
    d1 = linear_solve(system, method="direct")
    d2 = linear_solve(system, method="iterative")
    assert np.linalg.norm(d1 - d2) / np.linalg.norm(d1) < 1e-8


def test_linear_solve_permutation_invariance(rng):
    prob = no_channel_problem(n=5, emissivity=0.0)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = assemble_steady(prob, theta)
    n = system.n
    perm = rng.permutation(n)
    P = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    permuted = DiscreteSystem(
        residual=P @ system.residual, jacobian=(P @ system.jacobian @ P.T).tocsr(),
        constrained_dofs={}, theta=P @ system.theta,
    )
    d_perm = P.T @ linear_solve(permuted)
    assert np.allclose(d_perm, linear_solve(system), atol=1e-10)


def test_singular_system_reported():
    # pure-neumann laplacian with no sinks is singular
    prob = ThermalProblem(
        mesh=no_channel_problem(n=3).mesh,
        solid=wide_material(),
        coolant=Coolant(1000.0, 4183.0, 0.0),
        load=5.0,
        surface=SurfaceExchange(h_T=0.0, emissivity=0.0, theta_amb=AMB),
    )
    theta = np.full(prob.n_dofs, 300.0)
    system = assemble_steady(prob, theta)
    with pytest.raises(SingularSystemError):
        linear_solve(system)


def test_solver_log_rows_have_step_and_damping():
    prob = channel_problem(n=5)
    log = []
    solve_transient(prob, TransientSettings(dt=1.0, t_end=3.0), log=log)
    steps = {rec.step for rec in log}
    assert steps == {1, 2, 3}
    assert all(0.0 <= rec.damping <= 1.0 for rec in log)


def test_non_finite_initial_residual_raises_newton_error():
    base = channel_problem(n=4)
    prob = ThermalProblem(
        mesh=base.mesh, solid=base.solid, coolant=base.coolant, surface=base.surface,
        bcs=base.bcs, load=lambda x, y, t: np.where(x > 0.05, np.nan, 1000.0),
    )
    with pytest.raises(NewtonError, match="non-finite"):
        solve_steady(prob)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_trials_are_never_accepted():
    # the first Newton step lands near 1e115 K, where theta^4 overflows at every damping
    log = []
    with pytest.raises(NewtonError, match="non-finite") as err:
        solve_steady(channel_problem(n=4, f0=1e120), log=log)
    assert all(np.isfinite(rec.residual_norm) for rec in log)
    assert np.isfinite(err.value.residual_norm)


def test_transient_series_ignores_earlier_log_records():
    prob = channel_problem(n=5)
    settings = TransientSettings(dt=1.0, t_end=4.0)
    fresh = solve_transient(prob, settings)
    log = []
    solve_steady(prob, log=log)
    assert log  # steady records, step 0, precede the transient ones
    shared = solve_transient(prob, settings, log=log)
    assert shared.newton_iters == fresh.newton_iters
    assert shared.residual_norms == fresh.residual_norms
