"""Nonlinear steady solves (damped Newton) and BDF time integration.

Each implicit BDF step reuses the steady Newton machinery on the
transient residual. Fixed order 1 or 2 with a constant step: a BDF1
startup step followed by BDF2 keeps the integrator second order without
variable-order bookkeeping. BDF steps run chord Newton: one LU factor is
reused across iterations and steps while it keeps contracting the
residual (Hairer & Wanner, Solving ODEs II, IV.8).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    ALL_TERMS,
    DiscreteSystem,
    RateWeights,
    TemperatureField,
    TermMask,
    ThermalProblem,
    assemble_raw,
    apply_constraints,
)


# Chord Newton refactors once an accepted iterate cuts the residual by less than 1 / REFACTOR_RATIO.
REFACTOR_RATIO = 0.2


class SolverError(RuntimeError):
    pass


class SingularSystemError(SolverError):
    pass


class NewtonError(SolverError):
    def __init__(self, message, log=None, theta=None, residual_norm=None):
        super().__init__(message)
        self.log = log or []
        self.theta = theta
        self.residual_norm = residual_norm


class TransientError(SolverError):
    def __init__(self, message, series=None, cause=None):
        super().__init__(message)
        self.series = series
        self.cause = cause


@dataclass(frozen=True)
class NewtonSettings:
    abs_tol: float = 1e-8  # residual 2-norm, W
    rel_tol: float = 1e-12  # reduction relative to the first residual
    max_iters: int = 25

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class TransientSettings:
    dt: float = 1.0  # s
    t_end: float = 1500.0  # s
    bdf_order: int = 2

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if self.bdf_order not in (1, 2):
            raise ValueError("bdf_order must be 1 or 2")

    @property
    def n_steps(self) -> int:
        steps = round(self.t_end / self.dt)
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        return int(steps)


@dataclass(frozen=True)
class NewtonIteration:
    step: int
    iteration: int
    residual_norm: float
    damping: float
    factorized: bool  # the step came from a fresh LU factor (False on the initial-residual row)


@dataclass(eq=False)
class SolutionSeries:
    """Temperature history: fields[0] is the initial state at t = 0."""

    fields: list[TemperatureField]
    newton_iters: list[int] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([f.time for f in self.fields])

    @property
    def final(self) -> TemperatureField:
        return self.fields[-1]

    def __len__(self) -> int:
        return len(self.fields)


@dataclass(eq=False)
class _ChordFactor:
    """The LU factor that chord Newton reuses, keyed by the BDF coefficient."""

    key: float | None = None
    lu: spla.SuperLU | None = None


def factorize(jacobian) -> spla.SuperLU:
    """Sparse LU of a Newton matrix; a singular one raises SingularSystemError."""
    try:
        lu = spla.splu(jacobian.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports exact singularity
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-13 * pivots.max():
        raise SingularSystemError(
            "numerically singular system: pivot ratio "
            f"{pivots.min():.3e} / {pivots.max():.3e}"
        )
    return lu


def linear_solve(system: DiscreteSystem, lu: spla.SuperLU | None = None) -> np.ndarray:
    """Newton update: solve J delta = -R by sparse LU.

    lu is a factor to back-solve with; without one, system.jacobian is
    factored first.
    """
    if lu is None:
        lu = factorize(system.jacobian)
    delta = lu.solve(-system.residual)
    if not np.all(np.isfinite(delta)):
        raise SingularSystemError("linear solve produced non-finite update (singular system?)")
    return delta


def solve_steady(
    problem: ThermalProblem,
    settings: NewtonSettings | None = None,
    theta_guess: np.ndarray | None = None,
    time: float = 0.0,
    rate: RateWeights | None = None,
    terms: TermMask = ALL_TERMS,
    log: list | None = None,
    step_index: int = 0,
    factors: _ChordFactor | None = None,
) -> TemperatureField:
    """Damped Newton on the (steady or, via rate, transient) residual.

    The guess is first projected onto the constraints so every iterate
    satisfies them exactly and the logged norms are pure weak-form
    residuals in watts. Line-search trials are assembled residual-only;
    the Jacobian is assembled at an accepted iterate only when another
    iteration factors it. A trial whose residual is not finite counts as
    failed, and Newton never accepts one.

    Without factors every iteration factors a fresh Jacobian (full
    Newton). With factors (chord Newton, passed by solve_transient) the
    first residual is assembled residual-only and the stored factor is
    reused; a fresh one is built when none exists for rate.coeff, when
    the last accepted iterate cut the residual by less than
    1 / REFACTOR_RATIO, or when a step with the stale factor does not
    reduce the residual or is not finite. Such a step is never damped or
    accepted: the iteration is redone from the same iterate with a fresh
    factor.
    """
    settings = settings or NewtonSettings()
    if theta_guess is None:
        theta = np.full(problem.n_dofs, problem.surface.theta_amb)
    else:
        theta = np.array(theta_guess, dtype=float, copy=True)
    ids, vals = problem.constrained_values()
    theta[ids] = vals

    def assemble(state, jacobian=True):
        return apply_constraints(
            assemble_raw(problem, state, time=time, rate=rate, terms=terms, jacobian=jacobian)
        )

    chord = factors is not None
    system = assemble(theta, jacobian=not chord)
    rnorm = float(np.linalg.norm(system.residual))
    r0 = rnorm
    if log is not None:
        log.append(NewtonIteration(step_index, 0, rnorm, 0.0, False))
    if not np.isfinite(rnorm):
        raise NewtonError(
            f"non-finite residual norm ({rnorm}) at the initial guess",
            log=log, theta=theta, residual_norm=rnorm,
        )
    if rnorm <= settings.abs_tol:
        return _accept(theta, time)

    key = None if rate is None else rate.coeff
    fresh = not chord or factors.lu is None or factors.key != key
    for it in range(1, settings.max_iters + 1):
        if not fresh:
            delta = linear_solve(system, factors.lu)
            lam, trial = 1.0, theta + delta
            trial_system = assemble(trial, jacobian=False)
            trial_norm = float(np.linalg.norm(trial_system.residual))
            fresh = not (np.isfinite(trial_norm) and trial_norm < rnorm)
        if fresh:
            if chord:
                factors.lu = None  # free the stale factor before the Jacobian and its factor are built
            if system.jacobian is None:
                system = assemble(theta)
            if chord:
                factors.lu, factors.key = factorize(system.jacobian), key
            delta = linear_solve(system, factors.lu if chord else None)  # full Newton: freed on return
            lam = 1.0
            while True:
                trial = theta + lam * delta
                trial_system = assemble(trial, jacobian=False)
                trial_norm = float(np.linalg.norm(trial_system.residual))
                finite = bool(np.isfinite(trial_norm))
                if finite and trial_norm < rnorm:
                    break
                if lam <= 1.0 / 64.0:
                    if not finite:
                        raise NewtonError(
                            f"non-finite residual norm ({trial_norm}) in Newton iteration {it} "
                            f"even at damping {lam:g} (residual before it {rnorm:.3e} W)",
                            log=log, theta=theta, residual_norm=rnorm,
                        )
                    break
                lam *= 0.5
        theta, system, rnorm_before, rnorm = trial, trial_system, rnorm, trial_norm
        if log is not None:
            log.append(NewtonIteration(step_index, it, rnorm, lam, fresh))
        if rnorm <= settings.abs_tol or rnorm <= settings.rel_tol * r0:
            return _accept(theta, time)
        fresh = not chord or rnorm > REFACTOR_RATIO * rnorm_before

    raise NewtonError(
        f"Newton did not converge in {settings.max_iters} iterations "
        f"(residual {rnorm:.3e} W, started at {r0:.3e} W)",
        log=log, theta=theta, residual_norm=rnorm,
    )


def _accept(theta: np.ndarray, time: float) -> TemperatureField:
    field_out = TemperatureField(theta, time=time)
    if not np.all(field_out.values > 0.0):
        warnings.warn(
            "accepted solution violates kelvin positivity (theta <= 0 somewhere)",
            RuntimeWarning,
        )
    return field_out


def solve_transient(
    problem: ThermalProblem,
    tsettings: TransientSettings | None = None,
    nsettings: NewtonSettings | None = None,
    log: list | None = None,
) -> SolutionSeries:
    """Integrate from theta_initial with fixed-step BDF1/BDF2.

    The steps share one chord-Newton LU factor (see solve_steady). On a
    Newton failure the partial series is attached to the raised
    TransientError.
    """
    tsettings = tsettings or TransientSettings()
    nsettings = nsettings or NewtonSettings()
    dt = tsettings.dt
    initial = problem.initial_field()
    series = SolutionSeries(fields=[initial], newton_iters=[0], residual_norms=[0.0])
    factors = _ChordFactor()
    theta_prev = initial.values
    theta_prev2 = None

    for k in range(tsettings.n_steps):
        t_next = (k + 1) * dt
        if tsettings.bdf_order == 1 or theta_prev2 is None:
            rate = RateWeights(coeff=1.0 / dt, rhs=-theta_prev / dt)
            guess = theta_prev
        else:
            rate = RateWeights(
                coeff=1.5 / dt, rhs=(-2.0 * theta_prev + 0.5 * theta_prev2) / dt
            )
            guess = 2.0 * theta_prev - theta_prev2  # linear predictor
        step_log: list = [] if log is None else log
        first = len(step_log)
        try:
            field_next = solve_steady(
                problem,
                settings=nsettings,
                theta_guess=guess,
                time=t_next,
                rate=rate,
                log=step_log,
                step_index=k + 1,
                factors=factors,
            )
        except SolverError as exc:
            raise TransientError(
                f"time step {k + 1} (t={t_next:g} s) failed: {exc}",
                series=series, cause=exc,
            ) from exc
        own = step_log[first:]
        series.fields.append(field_next)
        series.newton_iters.append(max((rec.iteration for rec in own), default=0))
        series.residual_norms.append(own[-1].residual_norm if own else 0.0)
        theta_prev2, theta_prev = theta_prev, field_next.values
    return series
