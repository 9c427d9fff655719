"""Nonlinear steady solves (damped Newton) and BDF time integration.

Each implicit BDF step reuses the steady Newton machinery on the
transient residual. Fixed order 1 or 2 with a constant step: a BDF1
startup step followed by BDF2 keeps the integrator second order without
variable-order bookkeeping. A step of either order starts Newton from
the cubic through the last four states (fewer at the first three steps).
On the smooth trajectory of a fixed step this extrapolated starting value
(Fischer 1998, CMAME 163:193) lands closer to the root than DASSL's
predictor through the k+1 states of a formula of order k, so a step needs
fewer chord iterations. Every solve, steady or BDF step, runs chord
Newton: one LU factor is reused across iterations and steps while it
keeps contracting the residual fast enough (Hairer & Wanner, Solving
ODEs II, IV.8). A BDF step whose update with the reused factor is at
most STEP_TOL in every component is accepted on that update, without
assembling the residual that would only confirm it (the correction test
of CVODE's nonlinear solver, Hindmarsh et al. 2005, ACM TOMS 31:363).
With REFACTOR_RATIO = 0 every iteration refactors: full Newton, the
limit that tests compare against.

A temperature state is a nodal ndarray (K), one value per mesh node:
solve_steady returns the accepted iterate, and solve_transient returns the
(n_steps + 1, n_dofs) history whose row k is the state at t = k dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    DiscreteSystem,
    RateWeights,
    ThermalProblem,
    assemble_raw,
    apply_constraints,
)


# Chord Newton refactors once an accepted iterate cuts the residual by less than
# 1 / REFACTOR_RATIO, or when, at the rate it did cut it, reaching the tolerance
# would take more than REFACTOR_ITERS further iterations. At REFACTOR_RATIO = 0 it
# refactors at every iteration: full Newton.
REFACTOR_RATIO = 0.2
REFACTOR_ITERS = 8

# A BDF step with the reused factor is accepted, unassembled, once its update
# moves no node by more than STEP_TOL (K). At 1e-6 K the default scenario's
# history is bitwise that of the residual test alone; at 1e-5 K histories moved by
# up to 1.1e-7 K.
STEP_TOL = 1e-6

# A BDF step starts Newton from the polynomial through the last
# min(PREDICTOR_POINTS, available) states; row m - 1 of PREDICTOR_WEIGHTS
# extrapolates through m of them, newest first. A fifth point took more
# iterations on the default run than four.
PREDICTOR_WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))
PREDICTOR_POINTS = len(PREDICTOR_WEIGHTS)

# Most BDF steps in one transient run: about 67 times the default 1,500. The
# history keeps every state, so this bounds what a scenario can ask to store
# and run; it is not a setting.
MAX_BDF_STEPS = 100_000


class SolverError(RuntimeError):
    pass


class SingularSystemError(SolverError):
    pass


class NewtonError(SolverError):
    def __init__(self, message, theta=None, residual_norm=None):
        super().__init__(message)
        self.theta = theta
        self.residual_norm = residual_norm


class TransientError(SolverError):
    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


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
        if self.t_end / self.dt >= MAX_BDF_STEPS + 0.5:  # before n_steps, which overflows at inf
            raise ValueError(f"t_end / dt exceeds the {MAX_BDF_STEPS} steps a run may take")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class NewtonIteration:
    step: int
    iteration: int
    residual_norm: float  # W; nan on a row accepted on its update without assembling
    update_norm: float  # max |delta| of the Newton update before damping, K; nan on the initial-residual row
    damping: float  # 0 on the initial-residual row and on a round-off-floor stop, which keeps the iterate
    factorized: int  # 1 when the step came from a fresh LU factor, 0 when reused and on the initial-residual row


@dataclass(eq=False)
class ChordFactor:
    """The LU factor that chord Newton reuses, keyed by the BDF coefficient.

    solve_steady keeps a private one unless passed factors;
    solve_transient shares one across its steps. builds counts the
    factors built into it.
    """

    key: float | None = None
    lu: spla.SuperLU | None = None
    builds: int = 0


def factorize(jacobian) -> spla.SuperLU:
    """Sparse LU of a Newton matrix; a singular one raises SingularSystemError.

    SuperLU keeps the matrix's own column order (NATURAL) and runs no
    fill-reducing ordering per call: the restricted Newton system already
    numbers its DOFs in nested-dissection order (Constraints.free). At
    n=80 P2 that factor holds 1.82 M L+U nonzeros, against 2.07 M with
    SuperLU's MMD_AT_PLUS_A ordering of the DOFs in ascending order.
    """
    try:
        lu = spla.splu(jacobian.tocsc(), permc_spec="NATURAL")
    except RuntimeError as exc:  # SuperLU reports exact singularity
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-13 * pivots.max():
        raise SingularSystemError(
            "numerically singular system: pivot ratio "
            f"{pivots.min():.3e} / {pivots.max():.3e}"
        )
    return lu


def linear_solve(system: DiscreteSystem, lu: spla.SuperLU) -> tuple[np.ndarray, float]:
    """Newton update: solve J delta = -R by back-solving with lu, a factor of some J.

    Returns delta and its size max |delta| (K), the one reduction that both
    refuses a non-finite delta (NaN or infinity propagates into the
    maximum) and gives solve_steady its update size.
    """
    delta = lu.solve(-system.residual)
    update = float(np.abs(delta).max())
    if not math.isfinite(update):
        raise SingularSystemError("linear solve produced non-finite update (singular system?)")
    return delta, update


def _norm(residual: np.ndarray) -> float:
    """The residual's 2-norm as np.linalg.norm computes it: the square root of its dot product."""
    return math.sqrt(residual @ residual)


def solve_steady(
    problem: ThermalProblem,
    settings: NewtonSettings | None = None,
    theta_guess: np.ndarray | None = None,
    time: float = 0.0,
    rate: RateWeights | None = None,
    log: list | None = None,
    step_index: int = 0,
    factors: ChordFactor | None = None,
) -> np.ndarray:
    """Damped Newton on the (steady or, via rate, transient) residual.

    The guess is first projected onto the constraints and Newton moves
    only the free DOFs, so every iterate satisfies the constraints exactly
    and the logged norms are pure weak-form residuals in watts.
    Line-search trials are assembled residual-only; the Jacobian is
    assembled at an accepted iterate only when another iteration factors
    it. A trial whose residual is not finite counts as failed, and Newton
    never accepts one.

    Newton is chord Newton on factors, or on a private ChordFactor when
    none is passed (solve_transient shares one across its steps). The
    first residual is assembled residual-only and the stored factor is
    reused; a fresh one is built when none exists for rate.coeff, when
    the last accepted iterate cut the residual by a ratio rho above
    REFACTOR_RATIO, when REFACTOR_ITERS more iterations at that rate
    would still leave the residual above the tolerance
    (rnorm * rho**REFACTOR_ITERS > target, the convergence-rate test of
    CVODE's nonlinear solver), or when a step with the stale factor does
    not reduce the residual or is not finite. Such a step is never damped
    or accepted: the iteration is redone from the same iterate with a
    fresh factor.

    At a BDF step (rate given) a step with the reused factor whose update
    delta has max |delta| <= STEP_TOL (K) is accepted as theta + delta
    without assembling its residual; its log row has a nan
    residual_norm. _accept still rejects an iterate that is not finite.
    The steady solve and every step with a fresh factor accept on the
    residual test, or when a fresh factor's update
    has max |delta| <= STEP_TOL and no damping down to 1/64 lowers the
    residual: the residual then sits at its round-off floor, above the
    tolerance, and the current iterate is returned, logged with damping 0.
    """
    settings = settings or NewtonSettings()
    if theta_guess is None:
        theta = np.full(problem.n_dofs, problem.surface.theta_amb)
    else:
        theta = np.array(theta_guess, dtype=float, copy=True)
    constraints = problem.constraints
    theta[constraints.ids] = constraints.values

    def assemble(state, jacobian=True):
        return apply_constraints(
            assemble_raw(problem, state, time=time, rate=rate, jacobian=jacobian), constraints
        )

    factors = factors or ChordFactor()
    system = assemble(theta, jacobian=False)
    free = constraints.free
    rnorm = _norm(system.residual)
    r0 = rnorm
    if log is not None:
        log.append(NewtonIteration(step_index, 0, rnorm, np.nan, 0.0, 0))
    if not math.isfinite(rnorm):
        raise NewtonError(
            f"non-finite residual norm ({rnorm}) at the initial guess",
            theta=theta, residual_norm=rnorm,
        )
    if rnorm <= settings.abs_tol:
        return _accept(theta)
    target = max(settings.abs_tol, settings.rel_tol * r0)

    key = None if rate is None else rate.coeff
    fresh = factors.lu is None or factors.key != key
    for it in range(1, settings.max_iters + 1):
        if not fresh:
            delta, update = linear_solve(system, factors.lu)
            lam, trial = 1.0, theta.copy()
            trial[free] += delta
            if rate is not None and update <= STEP_TOL:
                theta = _accept(trial)
                if log is not None:
                    log.append(NewtonIteration(step_index, it, np.nan, update, lam, 0))
                return theta
            trial_system = assemble(trial, jacobian=False)
            trial_norm = _norm(trial_system.residual)
            fresh = not (math.isfinite(trial_norm) and trial_norm < rnorm)
        if fresh:
            factors.lu = None  # free the stale factor before the Jacobian and its factor are built
            system = assemble(theta)
            factors.lu, factors.key = factorize(system.jacobian), key
            factors.builds += 1
            delta, update = linear_solve(system, factors.lu)
            lam = 1.0
            while True:
                trial = theta.copy()
                trial[free] += lam * delta
                trial_system = assemble(trial, jacobian=False)
                trial_norm = _norm(trial_system.residual)
                finite = math.isfinite(trial_norm)
                if finite and trial_norm < rnorm:
                    break
                if lam <= 1.0 / 64.0:
                    if not finite:
                        raise NewtonError(
                            f"non-finite residual norm ({trial_norm}) in Newton iteration {it} "
                            f"even at damping {lam:g} (residual before it {rnorm:.3e} W)",
                            theta=theta, residual_norm=rnorm,
                        )
                    if update <= STEP_TOL:  # the residual's round-off floor: keep the iterate
                        if log is not None:
                            log.append(NewtonIteration(step_index, it, rnorm, update, 0.0, 1))
                        return _accept(theta)
                    break
                lam *= 0.5
        theta, system, rnorm_before, rnorm = trial, trial_system, rnorm, trial_norm
        if log is not None:
            log.append(NewtonIteration(step_index, it, rnorm, update, lam, int(fresh)))
        if rnorm <= target:
            return _accept(theta)
        ratio = rnorm / rnorm_before
        fresh = ratio > REFACTOR_RATIO or rnorm * ratio**REFACTOR_ITERS > target

    raise NewtonError(
        f"Newton did not converge in {settings.max_iters} iterations "
        f"(residual {rnorm:.3e} W, started at {r0:.3e} W)",
        theta=theta, residual_norm=rnorm,
    )


def _accept(theta: np.ndarray) -> np.ndarray:
    """The converged iterate; a non-finite value is a Newton failure, never a solution."""
    lo, hi = float(theta.min()), float(theta.max())  # NaN propagates into both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NewtonError("converged iterate holds non-finite temperatures", theta=theta)
    if not lo > 0.0:
        warnings.warn(
            "accepted solution violates kelvin positivity (theta <= 0 somewhere)",
            RuntimeWarning,
        )
    return theta


def solve_transient(
    problem: ThermalProblem,
    tsettings: TransientSettings | None = None,
    nsettings: NewtonSettings | None = None,
    log: list | None = None,
) -> np.ndarray:
    """Integrate from the ambient initial state with fixed-step BDF1/BDF2.

    Returns the (n_steps + 1, n_dofs) history: row k is the state at
    t = k * dt, and row 0 is ambient.

    Newton starts each step, at either order, from the polynomial through
    the last min(PREDICTOR_POINTS, available) states: theta_n for the first
    step, the line 2 theta_n - theta_{n-1} for the second, the quadratic
    3 theta_n - 3 theta_{n-1} + theta_{n-2} for the third and the cubic
    4 theta_n - 6 theta_{n-1} + 4 theta_{n-2} - theta_{n-3} from then on.
    A step that built more than one factor (a jump in the load, say) ends
    the window: the polynomial restarts from its state, theta_n alone, so
    it never extrapolates across the jump. The BDF2 rate still reads the
    states before it.

    The steps share one chord-Newton LU factor (see solve_steady). On a
    Newton failure the rows finished so far are attached to the raised
    TransientError.
    """
    tsettings = tsettings or TransientSettings()
    nsettings = nsettings or NewtonSettings()
    dt = tsettings.dt
    series = np.empty((tsettings.n_steps + 1, problem.n_dofs))
    series[0] = problem.surface.theta_amb
    factors = ChordFactor()
    start = 0  # the oldest row the predictor may read

    for k in range(tsettings.n_steps):
        t_next = (k + 1) * dt
        if tsettings.bdf_order == 1 or k == 0:
            rate = RateWeights(coeff=1.0 / dt, rhs=-series[k] / dt)
        else:
            rate = RateWeights(coeff=1.5 / dt, rhs=(-2.0 * series[k] + 0.5 * series[k - 1]) / dt)
        past = series[max(start, k + 1 - PREDICTOR_POINTS):k + 1][::-1]  # newest first
        weights = PREDICTOR_WEIGHTS[len(past) - 1]
        guess = weights[0] * past[0]
        for w, state in zip(weights[1:], past[1:]):
            guess += w * state
        builds = factors.builds
        try:
            series[k + 1] = solve_steady(
                problem,
                settings=nsettings,
                theta_guess=guess,
                time=t_next,
                rate=rate,
                log=log,
                step_index=k + 1,
                factors=factors,
            )
        except SolverError as exc:
            raise TransientError(
                f"time step {k + 1} (t={t_next:g} s) failed: {exc}",
                series=series[: k + 1],
            ) from exc
        if factors.builds - builds > 1:
            start = k + 1
    return series
