import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, strategies as st

from conftest import channel_problem, no_channel_problem, wide_material
from vasctherm import cli, solvers
from vasctherm.assembly import (
    BoundaryData,
    DiscreteSystem,
    RateWeights,
    SurfaceExchange,
    ThermalProblem,
    apply_constraints,
    assemble_raw,
)
from vasctherm.geometry import LAYOUT_KINDS, LayoutParams
from vasctherm.materials import Coolant
from vasctherm.mesh import DIRICHLET, NEUMANN, tag_boundary
from vasctherm.solvers import (
    STEP_TOL,
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
    assert np.allclose(fld, AMB)
    assert log[-1].iteration <= 1


def test_closed_form_linear_equilibrium():
    prob = no_channel_problem(n=3, emissivity=0.0)
    fld = solve_steady(prob)
    assert np.ptp(fld) < 1e-10
    assert fld[0] == pytest.approx(LINEAR_ROOT, abs=1e-6)


def test_radiative_equilibrium_matches_bisection_oracle():
    prob = no_channel_problem(n=3, emissivity=0.97)
    fld = solve_steady(prob)
    root = scalar_steady_root(1000.0, 21.0, 0.97, AMB)
    assert root == pytest.approx(RADIATIVE_ROOT, abs=1e-8)
    assert fld[0] == pytest.approx(root, abs=1e-4)


def test_newton_quadratic_convergence_near_root(monkeypatch):
    monkeypatch.setattr(solvers, "REFACTOR_RATIO", 0.0)  # full Newton: a fresh factor every iteration
    prob = channel_problem(n=10)
    log = []
    solve_steady(prob, log=log)
    assert all(rec.factorized for rec in log[1:])
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


def test_newton_stops_at_the_residual_round_off_floor():
    # k_s near 1e8 W/(m*K): the residual stalls near 1.3e-7 W, above the 1e-8 W tolerance
    prob = channel_problem(n=6, material=wide_material(k=(0.01, 0.01, 800.0)))
    log = []
    theta = solve_steady(prob, log=log)
    assert np.all(np.isfinite(theta))
    assert len(log) - 1 < NewtonSettings().max_iters
    stop, before = log[-1], log[-2]
    assert stop.damping == 0.0 and stop.factorized == 1 and stop.update_norm <= STEP_TOL
    assert stop.residual_norm == before.residual_norm > NewtonSettings().abs_tol
    with pytest.raises(NewtonError) as err:  # one iteration fewer ends on the iterate the stop keeps
        solve_steady(prob, NewtonSettings(max_iters=before.iteration))
    assert np.array_equal(theta, err.value.theta)


def test_kelvin_positivity_flagged():
    prob = no_channel_problem(n=3, f0=-1.0e7, emissivity=0.0)
    with pytest.warns(RuntimeWarning, match="kelvin"):
        solve_steady(prob)


def test_transient_equilibrium_fixed_point():
    prob = channel_problem(n=5, f0=0.0)
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=5.0))
    assert series.shape == (6, prob.n_dofs)
    assert np.allclose(series, AMB, atol=1e-12)


def test_transient_matches_scalar_rk4_reference():
    prob = no_channel_problem(n=2, emissivity=0.97)
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=200.0))
    ref = scalar_reference(prob, t_end=200.0)
    fem = series[:, 0]
    rk = ref.at(1.0 * np.arange(len(series)))
    assert np.max(np.abs(fem - rk) / rk) < 5e-3
    # spatially uniform data stays spatially uniform
    assert np.max(np.ptp(series, axis=1)) < 1e-10


def test_bdf2_self_convergence_order():
    prob = no_channel_problem(n=2, emissivity=0.97)
    end = {}
    for dt in (2.0, 1.0, 0.5):
        series = solve_transient(prob, TransientSettings(dt=dt, t_end=150.0))
        end[dt] = series[-1, 0]
    e_coarse = abs(end[2.0] - end[1.0])
    e_fine = abs(end[1.0] - end[0.5])
    order = np.log2(e_coarse / e_fine)
    assert order >= 1.8


def test_bdf1_available_and_first_order():
    prob = no_channel_problem(n=2, emissivity=0.0)
    end = {}
    for dt in (4.0, 2.0, 1.0):
        series = solve_transient(prob, TransientSettings(dt=dt, t_end=100.0, bdf_order=1))
        end[dt] = series[-1, 0]
    order = np.log2(abs(end[4.0] - end[2.0]) / abs(end[2.0] - end[1.0]))
    assert 0.8 <= order <= 1.3


def test_transient_approaches_steady_state():
    # at 1500 s the transient sits within 0.2 K of the steady solution
    prob = channel_problem(n=10, material=wide_material(), f0=1000.0)
    series = solve_transient(prob, TransientSettings(dt=5.0, t_end=1500.0))
    steady = solve_steady(prob)
    assert np.max(np.abs(series[-1] - steady)) <= 0.2


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_accept_rejects_non_finite_iterates(bad):
    with pytest.raises(NewtonError, match="non-finite"):
        solvers._accept(np.array([AMB, bad, AMB]))


@pytest.mark.parametrize("field, bad", [("dt", np.nan), ("t_end", np.nan), ("dt", np.inf), ("t_end", -np.inf)])
def test_transient_settings_refuse_non_finite_times(field, bad):
    # a NaN dt or t_end failed converting the step count to an int
    with pytest.raises(ValueError, match=rf"^TransientSettings\.{field} must be finite"):
        TransientSettings(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("abs_tol", np.nan), ("rel_tol", np.nan), ("max_iters", np.nan), ("max_iters", np.inf)])
def test_newton_settings_refuse_non_finite_values(field, bad):
    # accepted before: every comparison with NaN is false
    with pytest.raises(ValueError, match=rf"^NewtonSettings\.{field} must be finite"):
        NewtonSettings(**{field: bad})


def test_transient_requires_integer_step_count():
    with pytest.raises(ValueError):
        TransientSettings(dt=7.0, t_end=100.0).n_steps


def test_linear_solve_identity_jacobian(rng):
    n = 12
    residual = rng.normal(size=n)
    system = DiscreteSystem(residual=residual, jacobian=sp.identity(n, format="csr"))
    delta, update = linear_solve(system, solvers.factorize(system.jacobian))
    assert np.allclose(delta, -residual)
    assert update == np.max(np.abs(delta))


def test_linear_solve_permutation_invariance(rng):
    prob = no_channel_problem(n=5, emissivity=0.0)
    theta = rng.uniform(300.0, 340.0, prob.n_dofs)
    system = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    n = system.residual.size
    perm = rng.permutation(n)
    P = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    permuted = DiscreteSystem(
        residual=P @ system.residual, jacobian=(P @ system.jacobian @ P.T).tocsr(),
    )
    d_perm = P.T @ linear_solve(permuted, solvers.factorize(permuted.jacobian))[0]
    assert np.allclose(d_perm, linear_solve(system, solvers.factorize(system.jacobian))[0], atol=1e-10)


def test_nested_dissection_fills_less_than_mmd():
    """At n=80 P2 the natural-order factor of the restricted Jacobian beats MMD on ascending ids."""
    prob = cli.build_problem(cli.load_config(None, {"mesh": {"n": 80, "element_order": 2}}))
    cut = prob.constraints
    theta = np.full(prob.n_dofs, AMB)
    theta[cut.ids] = cut.values
    J = apply_constraints(assemble_raw(prob, theta), prob.constraints).jacobian
    ascending = np.argsort(cut.free)
    mmd = spla.splu(J[ascending][:, ascending].tocsc(), permc_spec="MMD_AT_PLUS_A")  # the reference only
    assert solvers.factorize(J).nnz <= 0.95 * mmd.nnz  # measured 0.879


@given(n=st.integers(2, 12), order=st.sampled_from([1, 2]), kind=st.sampled_from(LAYOUT_KINDS),
       dirichlet=st.booleans(), flow=st.booleans())
def test_factorize_solves_the_restricted_newton_system(n, order, kind, dirichlet, flow):
    try:
        prob = channel_problem(n=n, order=order, layout=LayoutParams(kind=kind),
                               flow_ml_per_min=1.0 if flow else 0.0)
    except ValueError:  # the layout does not fit on so coarse a grid
        assume(False)
    if dirichlet:
        prob = ThermalProblem(
            mesh=tag_boundary(prob.mesh, lambda x, y: DIRICHLET if x < 1e-12 else NEUMANN),
            solid=prob.solid, coolant=prob.coolant, load=prob.load, surface=prob.surface,
            bcs=BoundaryData(theta_inlet=AMB, theta_p=AMB),
        )
    x, y = prob.mesh.nodes.T
    theta = AMB + 400.0 * x + 150.0 * y  # K, varying over the plate
    theta[prob.constraints.ids] = prob.constraints.values
    system = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    delta = solvers.factorize(system.jacobian).solve(-system.residual)
    gap = np.linalg.norm(system.jacobian @ delta + system.residual)
    assert gap <= 1e-10 * np.linalg.norm(system.residual)


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
    system = apply_constraints(assemble_raw(prob, theta), prob.constraints)
    with pytest.raises(SingularSystemError):
        linear_solve(system, solvers.factorize(system.jacobian))


@pytest.mark.parametrize("small, refused", [(1e-14, True), (1e-12, False)])
def test_factorize_refuses_a_pivot_ratio_of_at_most_1e_13(small, refused):
    # finite and regular, with pivots 1 and small: only the pivot-ratio test can refuse it
    jacobian = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, small]]))
    if refused:
        with pytest.raises(SingularSystemError, match="pivot ratio"):
            solvers.factorize(jacobian)
    else:
        lu = solvers.factorize(jacobian)
        assert np.array_equal(np.sort(np.abs(lu.U.diagonal())), [small, 1.0])


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
    steady_records = len(log)
    shared = solve_transient(prob, settings, log=log)
    assert [rec.step for rec in log[:steady_records]] == [0] * steady_records
    assert {rec.step for rec in log[steady_records:]} == {1, 2, 3, 4}
    assert len(shared) == len(fresh) == 5
    assert np.array_equal(shared, fresh)


def _with_load(base, load):
    return ThermalProblem(
        mesh=base.mesh, solid=base.solid, coolant=base.coolant, surface=base.surface,
        bcs=base.bcs, load=load,
    )


def _jump_load(t_jump, before, after):
    return lambda x, y, t: np.full(np.shape(x), after if t >= t_jump else before)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _predictor(fields, k):
    """The guess solve_transient starts step k from: the polynomial through the last min(4, k) states."""
    if k == 1:
        return fields[0]
    if k == 2:
        return 2.0 * fields[1] - fields[0]
    if k == 3:
        return 3.0 * fields[2] - 3.0 * fields[1] + fields[0]
    return 4.0 * fields[k - 1] - 6.0 * fields[k - 2] + 4.0 * fields[k - 3] - fields[k - 4]


def _rate(fields, k, dt, bdf_order):
    """The BDF weights of step k: BDF1 for the first step and every step of order 1."""
    if bdf_order == 1 or k == 1:
        return RateWeights(coeff=1.0 / dt, rhs=-fields[k - 1] / dt)
    return RateWeights(coeff=1.5 / dt, rhs=(-2.0 * fields[k - 1] + 0.5 * fields[k - 2]) / dt)


@pytest.mark.parametrize("n, order", [(10, 1), (6, 2)])
def test_chord_steps_match_full_newton(monkeypatch, n, order):
    # each chord-Newton step against full Newton (REFACTOR_RATIO = 0) on the same step inputs
    prob = channel_problem(n=n, order=order)
    dt = 1.0
    fields = solve_transient(prob, TransientSettings(dt=dt, t_end=30.0))
    monkeypatch.setattr(solvers, "REFACTOR_RATIO", 0.0)
    for k in range(1, len(fields)):
        oracle = solve_steady(prob, theta_guess=_predictor(fields, k), time=k * dt,
                              rate=_rate(fields, k, dt, 2))
        assert np.max(np.abs(fields[k] - oracle)) <= 1e-7, f"step {k}"


def _capture_guesses(monkeypatch):
    guesses = []
    step = solvers.solve_steady

    def capturing(*args, theta_guess=None, **kwargs):
        guesses.append(np.array(theta_guess, copy=True))
        return step(*args, theta_guess=theta_guess, **kwargs)

    monkeypatch.setattr(solvers, "solve_steady", capturing)
    return guesses


@pytest.mark.parametrize("bdf_order", [1, 2])
def test_steps_start_from_the_four_point_predictor(monkeypatch, bdf_order):
    guesses = _capture_guesses(monkeypatch)
    fields = solve_transient(channel_problem(n=6),
                             TransientSettings(dt=1.0, t_end=8.0, bdf_order=bdf_order))
    assert len(guesses) == len(fields) - 1 == 8
    for k, guess in enumerate(guesses, 1):
        assert np.array_equal(guess, _predictor(fields, k)), f"step {k}"


def _capture_rates(monkeypatch):
    rates = []
    step = solvers.solve_steady

    def capturing(*args, rate=None, **kwargs):
        rates.append(RateWeights(rate.coeff, np.array(rate.rhs, copy=True)))
        return step(*args, rate=rate, **kwargs)

    monkeypatch.setattr(solvers, "solve_steady", capturing)
    return rates


@pytest.mark.parametrize("bdf_order", [1, 2])
def test_steps_take_the_bdf_rate_bitwise(monkeypatch, bdf_order):
    # dt = 0.7 makes the division by dt round, so the rate's operations and their order show
    rates = _capture_rates(monkeypatch)
    dt = 0.7
    fields = solve_transient(channel_problem(n=6),
                             TransientSettings(dt=dt, t_end=8 * dt, bdf_order=bdf_order))
    assert len(rates) == len(fields) - 1 == 8
    for k, rate in enumerate(rates, 1):
        want = _rate(fields, k, dt, bdf_order)
        assert rate.coeff == want.coeff, f"step {k}"
        assert np.array_equal(rate.rhs, want.rhs), f"step {k}"


def _previous_predictor(fields, k, bdf_order):
    """The guesses steps started from before the four-point rule: the last state at
    order 1; at order 2 the last state, then the line, then the quadratic."""
    if bdf_order == 1 or k == 1:
        return fields[k - 1]
    if k == 2:
        return 2.0 * fields[1] - fields[0]
    return 3.0 * fields[k - 1] - 3.0 * fields[k - 2] + fields[k - 3]


@pytest.mark.parametrize("bdf_order", [1, 2])
def test_four_point_predictor_takes_fewer_chord_iterations(bdf_order):
    # over the first 30 steps BDF2 takes two iterations a step from either guess, though the
    # cubic starts closer to the root; 150 steps reach the slower part of the transient
    prob = channel_problem(n=10)
    dt, steps = 1.0, 150
    log = []
    solve_transient(prob, TransientSettings(dt=dt, t_end=steps * dt, bdf_order=bdf_order), log=log)
    fields, previous_log, factors = [np.full(prob.n_dofs, AMB)], [], solvers.ChordFactor()
    for k in range(1, steps + 1):  # the same steps, started from the previous guesses
        fields.append(solve_steady(prob, theta_guess=_previous_predictor(fields, k, bdf_order),
                                   time=k * dt, rate=_rate(fields, k, dt, bdf_order),
                                   log=previous_log, step_index=k, factors=factors))
    iterations = sum(rec.iteration > 0 for rec in log)
    previous = sum(rec.iteration > 0 for rec in previous_log)
    assert iterations <= 0.8 * previous, (iterations, previous)


def test_chord_transient_reuses_one_factor_per_bdf_coefficient(monkeypatch):
    calls = _count_calls(monkeypatch, spla, "splu")
    log = []
    solve_transient(channel_problem(n=10), TransientSettings(dt=1.0, t_end=30.0), log=log)
    # one factor for the BDF1 start-up step and one for the BDF2 steps
    assert len(calls) == 2
    assert [(rec.step, rec.iteration) for rec in log if rec.factorized] == [(1, 1), (2, 1)]
    assert sum(1 for rec in log if rec.iteration > 0) > 30


def _accepted_on_update(rec):
    """A row whose iterate was accepted on its update size, with no residual assembled."""
    return rec.iteration > 0 and np.isnan(rec.residual_norm)


def _assert_rows_well_formed(log):
    """Every iteration logs a finite update; every row but those accepted on an update of at
    most STEP_TOL logs a finite residual."""
    assert all(np.isfinite(rec.update_norm) for rec in log if rec.iteration > 0)
    assert all(rec.update_norm <= solvers.STEP_TOL for rec in log if _accepted_on_update(rec))
    assert all(np.isfinite(rec.residual_norm) for rec in log if not _accepted_on_update(rec))


@pytest.mark.parametrize("after", [1e6, 1e8])
def test_load_jump_forces_a_fresh_factor(after):
    # at 1e6 W/m^2 the stale factor's contraction falls behind REFACTOR_RATIO; at 1e8 the
    # first stale step raises the residual and is redone with a fresh factor
    prob = _with_load(channel_problem(n=10), _jump_load(10.0, 1000.0, after))
    settings = NewtonSettings()
    log = []
    series = solve_transient(prob, TransientSettings(dt=1.0, t_end=12.0), settings, log=log)
    _assert_rows_well_formed(log)
    assert not {rec.step for rec in log if rec.factorized} & set(range(3, 10))
    for before, rec in zip(log, log[1:]):
        if rec.iteration > 0 and not rec.factorized and not _accepted_on_update(rec):
            assert rec.residual_norm < before.residual_norm  # a stale step is kept only if it reduces
    jump = [rec for rec in log if rec.step == 10]
    assert any(rec.factorized for rec in jump)
    last = jump[-1]
    assert (last.residual_norm <= max(settings.abs_tol, settings.rel_tol * jump[0].residual_norm)
            or last.update_norm <= solvers.STEP_TOL)
    assert len(series) == 13


@pytest.mark.parametrize("after, iterations, factors", [
    # the 1e8 jump step builds three factors, so the predictor restarts from its state
    # and never extrapolates across the jump; without the restart steps 11-14 build
    # 12 factors, not 3, and the run takes 83 iterations, not 75
    (1e8, [3, 2, 2, 2, 2, 2, 2, 2, 2, 7, 8, 5, 6, 5, 5, 4, 4, 4, 4, 4],
     [1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    # one factor per step throughout: the window never restarts
    (1e6, [3, 2, 2, 2, 2, 2, 2, 2, 2, 6, 5, 4, 4, 5, 5, 5, 5, 5, 5, 5],
     [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
])
def test_predictor_restarts_after_a_step_with_several_factors(after, iterations, factors):
    prob = _with_load(channel_problem(n=10), _jump_load(10.0, 1000.0, after))
    log = []
    solve_transient(prob, TransientSettings(dt=1.0, t_end=20.0), log=log)
    _assert_rows_well_formed(log)
    steps = range(1, 21)
    assert [sum(rec.iteration > 0 for rec in log if rec.step == k) for k in steps] == iterations
    assert [sum(rec.factorized for rec in log if rec.step == k) for k in steps] == factors


def test_chord_factor_counts_its_builds(monkeypatch):
    calls = _count_calls(monkeypatch, spla, "splu")
    factors = solvers.ChordFactor()
    prob = channel_problem(n=6)
    solve_steady(prob, factors=factors)
    solve_steady(prob, rate=RateWeights(coeff=1.0, rhs=np.full(prob.n_dofs, -AMB)), factors=factors)
    assert factors.builds == len(calls) >= 2


def test_full_newton_factors_once_per_linear_solve_and_chord_less(monkeypatch):
    # full Newton is chord Newton's REFACTOR_RATIO = 0 limit
    factorizations = _count_calls(monkeypatch, spla, "splu")
    solves = _count_calls(monkeypatch, solvers, "linear_solve")
    prob = channel_problem(n=10, f0=5000.0)
    solve_steady(prob)
    assert 1 <= len(factorizations) < len(solves)
    del factorizations[:], solves[:]
    monkeypatch.setattr(solvers, "REFACTOR_RATIO", 0.0)
    solve_steady(prob)
    assert len(factorizations) == len(solves) >= 2


@pytest.mark.parametrize("n, order", [(10, 1), (6, 2)])
def test_steady_solve_without_factors_is_chord_newton(n, order):
    # a solve with no factors passed runs the same chord policy on a private ChordFactor
    prob = channel_problem(n=n, order=order, f0=5000.0)
    own_log, passed_log = [], []
    own = solve_steady(prob, log=own_log)
    passed = solve_steady(prob, log=passed_log, factors=solvers.ChordFactor())
    assert np.array_equal(own, passed)
    rows = [[dataclasses.astuple(rec) for rec in log] for log in (own_log, passed_log)]
    assert np.array_equal(*np.array(rows, dtype=float), equal_nan=True)
    assert sum(rec.factorized for rec in own_log) < len(own_log) - 1


@pytest.mark.parametrize("after", [2e6, 5e6, 1e7])
def test_slowly_contracting_factor_is_replaced(after):
    # after these jumps the stale factor cuts the residual by a steady 0.17-0.19 per iteration,
    # inside REFACTOR_RATIO; the iterations it would still need at that rate force the refactor
    prob = _with_load(channel_problem(n=10), _jump_load(10.0, 1000.0, after))
    log = []
    solve_transient(prob, TransientSettings(dt=1.0, t_end=11.0), log=log)
    jump = [rec for rec in log if rec.step == 10 and rec.iteration > 0]
    assert any(rec.factorized for rec in jump)
    assert len(jump) <= 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_stale_step_is_refactored_never_accepted(monkeypatch):
    calls = _count_calls(monkeypatch, spla, "splu")
    prob = _with_load(channel_problem(n=4), _jump_load(5.0, 1000.0, 1e120))
    log = []
    with pytest.raises(TransientError) as err:
        solve_transient(prob, TransientSettings(dt=1.0, t_end=10.0), log=log)
    assert isinstance(err.value.__cause__, NewtonError)
    assert len(err.value.series) == 5
    _assert_rows_well_formed(log)
    # the stale step of t = 5 s overflows; it is refactored (a third factor) and still fails
    assert len(calls) == 3
    assert [rec.iteration for rec in log if rec.step == 5] == [0]


@pytest.mark.parametrize("bdf_order", [1, 2])
def test_update_size_acceptance_matches_the_residual_test(monkeypatch, bdf_order):
    # STEP_TOL = 0 accepts every step on its assembled residual, as before the update test
    prob = channel_problem(n=10)
    settings = TransientSettings(dt=1.0, t_end=150.0, bdf_order=bdf_order)
    calls = _count_calls(monkeypatch, solvers, "assemble_raw")
    log = []
    series = solve_transient(prob, settings, log=log)
    assemblies = len(calls)
    _assert_rows_well_formed(log)
    assert any(_accepted_on_update(rec) for rec in log)
    monkeypatch.setattr(solvers, "STEP_TOL", 0.0)
    del calls[:]
    residual_log = []
    oracle = solve_transient(prob, settings, log=residual_log)
    assert not any(_accepted_on_update(rec) for rec in residual_log)
    assert np.max(np.abs(series - oracle)) <= 1e-7
    assert assemblies < len(calls)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad, code", [(np.nan, cli.EXIT_OK), (np.inf, cli.EXIT_SOLVER_FAILURE)])
def test_non_finite_update_is_never_accepted(tmp_path, monkeypatch, capsys, bad, code):
    # every update from a reused factor is corrupted, and STEP_TOL = inf lets any update that
    # compares pass the size test: a NaN one does not, so its step is redone with a fresh factor;
    # an infinite one does, and _accept refuses the iterate (a solver failure, exit 3)
    monkeypatch.setattr(solvers, "STEP_TOL", np.inf)
    solve, used, corrupted = solvers.linear_solve, [], []

    def corrupting(system, lu):
        delta, update = solve(system, lu)
        if any(lu is seen for seen in used):
            delta[0] = bad
            update = float(np.max(np.abs(delta)))
            corrupted.append(lu)
        used.append(lu)
        return delta, update

    monkeypatch.setattr(solvers, "linear_solve", corrupting)
    out = tmp_path / "run"
    assert cli.main(["solve", "--out", str(out), "--mesh-n", "4", "--t-end", "5"]) == code
    assert corrupted
    if code == cli.EXIT_OK:
        rows = np.loadtxt(out / "solver_log.csv", delimiter=",", skiprows=1, ndmin=2)
        iterations = rows[rows[:, 1] > 0]
        assert np.all(np.isfinite(iterations[:, 2:])) and np.all(iterations[:, 5] == 1)
    else:
        assert "converged iterate holds non-finite temperatures" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", [0.0, solvers.REFACTOR_RATIO], ids=["full", "chord"])
def test_steady_solve_logs_every_residual(monkeypatch, ratio):
    # the update test is for BDF steps: a steady solve assembles the residual it accepts
    monkeypatch.setattr(solvers, "REFACTOR_RATIO", ratio)
    log = []
    solve_steady(channel_problem(n=10, f0=5000.0), log=log)
    assert len(log) > 2
    assert all(np.isfinite(rec.residual_norm) for rec in log)
    assert all(np.isfinite(rec.update_norm) for rec in log[1:])
