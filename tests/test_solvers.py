import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import channel_problem, no_channel_problem, wide_material
from vasctherm.assembly import (
    DiscreteSystem,
    RateWeights,
    SurfaceExchange,
    ThermalProblem,
    apply_constraints,
    assemble_raw,
)
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
            NewtonSettings(abs_tol=1e-14, rel_tol=1e-16, max_iters=1),
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
        constraints=(np.empty(0, dtype=int), np.empty(0)), theta=np.zeros(n),
    )
    assert np.allclose(linear_solve(system), -residual)


def test_linear_solve_permutation_invariance(rng):
    prob = no_channel_problem(n=5, emissivity=0.0)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = apply_constraints(assemble_raw(prob, theta))
    n = system.n
    perm = rng.permutation(n)
    P = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    permuted = DiscreteSystem(
        residual=P @ system.residual, jacobian=(P @ system.jacobian @ P.T).tocsr(),
        constraints=system.constraints, theta=P @ system.theta,
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
    system = apply_constraints(assemble_raw(prob, theta))
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


def _with_load(base, load):
    return ThermalProblem(
        mesh=base.mesh, solid=base.solid, coolant=base.coolant, surface=base.surface,
        bcs=base.bcs, load=load,
    )


def _jump_load(t_jump, before, after):
    return lambda x, y, t: np.full(np.shape(x), after if t >= t_jump else before)


def _count_splu(monkeypatch):
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


@pytest.mark.parametrize("n, order", [(10, 1), (6, 2)])
def test_chord_steps_match_full_newton(n, order):
    # each chord-Newton step against full Newton on the same step inputs
    prob = channel_problem(n=n, order=order)
    dt = 1.0
    series = solve_transient(prob, TransientSettings(dt=dt, t_end=30.0))
    fields = [f.values for f in series.fields]
    for k in range(1, len(fields)):
        if k == 1:
            rate, guess = RateWeights(coeff=1.0 / dt, rhs=-fields[0] / dt), fields[0]
        else:
            rate = RateWeights(coeff=1.5 / dt, rhs=(-2.0 * fields[k - 1] + 0.5 * fields[k - 2]) / dt)
            guess = 2.0 * fields[k - 1] - fields[k - 2]
        oracle = solve_steady(prob, theta_guess=guess, time=k * dt, rate=rate)
        assert np.max(np.abs(fields[k] - oracle.values)) <= 1e-7, f"step {k}"


def test_chord_transient_reuses_one_factor_per_bdf_coefficient(monkeypatch):
    calls = _count_splu(monkeypatch)
    log = []
    solve_transient(channel_problem(n=10), TransientSettings(dt=1.0, t_end=30.0), log=log)
    # one factor for the BDF1 start-up step and one for the BDF2 steps
    assert len(calls) == 2
    assert [(rec.step, rec.iteration) for rec in log if rec.factorized] == [(1, 1), (2, 1)]
    assert sum(1 for rec in log if rec.iteration > 0) > 30


@pytest.mark.parametrize("after", [1e6, 1e8])
def test_load_jump_forces_a_fresh_factor(after):
    # at 1e6 W/m^2 the stale factor's contraction falls behind REFACTOR_RATIO; at 1e8 the
    # first stale step raises the residual and is redone with a fresh factor
    prob = _with_load(channel_problem(n=10), _jump_load(10.0, 1000.0, after))
    settings = NewtonSettings()
    log = []
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=12.0), settings, log=log)
    assert not {rec.step for rec in log if rec.factorized} & set(range(3, 10))
    for before, rec in zip(log, log[1:]):
        if rec.iteration > 0 and not rec.factorized:
            assert rec.residual_norm < before.residual_norm  # a stale step is kept only if it reduces
    jump = [rec for rec in log if rec.step == 10]
    assert any(rec.factorized for rec in jump)
    assert jump[-1].residual_norm <= max(settings.abs_tol, settings.rel_tol * jump[0].residual_norm)
    assert len(series) == 13


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_stale_step_is_refactored_never_accepted(monkeypatch):
    calls = _count_splu(monkeypatch)
    prob = _with_load(channel_problem(n=4), _jump_load(5.0, 1000.0, 1e120))
    log = []
    with pytest.raises(TransientError) as err:
        solve_transient(prob, TransientSettings(dt=1.0, t_end=10.0), log=log)
    assert isinstance(err.value.cause, NewtonError)
    assert len(err.value.series) == 5
    assert all(np.isfinite(rec.residual_norm) for rec in log)
    # the stale step of t = 5 s overflows; it is refactored (a third factor) and still fails
    assert len(calls) == 3
    assert [rec.iteration for rec in log if rec.step == 5] == [0]
