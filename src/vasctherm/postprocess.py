"""Observables and qualitative checks on solved temperature states.

Mean surface temperature, outlet temperature, thermal efficiency, the
arc-length temperature profile, per-element heat flux vectors, the
global energy balance, and verification of the minimum/maximum bounds
(ambient/inlet/prescribed-trace extremes) that steady solutions must
respect when the load and boundary-flux sign hypotheses hold.

A state theta is a nodal ndarray (K); time-dependent terms read time (s), 0 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import TermMask, ThermalProblem, assemble_raw, at_points, plan_for
from .elements import edge_shape, grad_shape, tri_shape
from .materials import eval_curve
from .mesh import ChannelMesh

# The energy audit's terms: conduction rows sum to zero and the channel's stand apart.
_AUDIT_TERMS = TermMask(conduction=False, channel=False)


@dataclass(frozen=True)
class Observables:
    """Scalar diagnostics of one temperature state."""

    t: float  # s
    mst: float  # K
    theta_outlet: float  # K (nan without a channel)
    eta: float  # thermal efficiency (nan when the load vanishes)
    energy_residual: float  # W


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of the min/max bound check on a steady state.

    When the sign hypotheses on f and q_p are not met the corresponding
    pass flag is informational only. With radiation active the bounds
    additionally presuppose a non-negative field; without radiation that
    requirement is waived.
    """

    phi_min: float
    phi_max: float
    theta_min: float
    theta_max: float
    min_violation: float
    max_violation: float
    pass_min: bool
    pass_max: bool
    min_hypothesis_met: bool
    max_hypothesis_met: bool
    tolerance: float


def mean_surface_temperature(theta: np.ndarray, mesh: ChannelMesh) -> float:
    """Domain average of theta via element quadrature, interpolated as the assembly does."""
    plan = plan_for(mesh)
    th_q = plan.basis.qp_N @ theta.take(plan.tri_nodes)  # (nq, T)
    return float(np.sum(plan.basis.qp_dA * th_q)) / float(np.sum(plan.basis.areas))


def outlet_temperature(theta: np.ndarray, mesh: ChannelMesh) -> float:
    if mesh.outlet_node is None:
        return float("nan")
    return float(theta[mesh.outlet_node])


def efficiency_from_total(theta_outlet: float, theta_inlet: float, chi: float, total_load: float) -> float:
    """eta = chi (theta_outlet - theta_inlet) / int_Omega f."""
    if total_load == 0.0:
        raise ValueError("efficiency undefined: total supplied power is zero")
    return chi * (theta_outlet - theta_inlet) / total_load


def arc_length_profile(theta: np.ndarray, mesh: ChannelMesh, n_samples: int = 101) -> np.ndarray:
    """(s, theta) rows at equispaced arc lengths along the snapped channel."""
    if not mesh.has_channel:
        raise ValueError("mesh has no channel to sample")
    s_nodes = mesh.channel_arc_coords()
    samples = np.linspace(0.0, s_nodes[-1], n_samples)
    k = np.clip(np.searchsorted(s_nodes, samples, side="right") - 1, 0, len(s_nodes) - 2)
    u = (samples - s_nodes[k]) / mesh.channel_lengths[k]
    N, _ = edge_shape(mesh.element_order, 2.0 * u - 1.0)  # (n_samples, nodes per edge)
    return np.column_stack([samples, np.einsum("sk,sk->s", N, theta[mesh.channel_edges()[k]])])


def heat_flux_field(theta: np.ndarray, problem: ThermalProblem) -> np.ndarray:
    """q = -k_s(theta) grad theta per element at the centroid, (T, 2)."""
    mesh = problem.mesh
    centroid = np.array([1.0, 1.0, 1.0]) / 3.0
    N = tri_shape(mesh.element_order, centroid[None, :])[0]
    theta_e = theta[mesh.triangles]
    theta_c = theta_e @ N
    gradN = grad_shape(mesh.element_order, centroid, plan_for(mesh).basis.lam_grad)
    grad_theta = np.einsum("tnc,tn->tc", gradN, theta_e)
    k = eval_curve(problem.solid.conductivity, theta_c)
    return -k[:, None] * grad_theta


def channel_peclet(problem: ThermalProblem) -> np.ndarray:
    """Per-edge advection/conduction ratio chi * ell / (2 d k_s(theta_amb)).

    Small values justify the unstabilized Galerkin channel term; the
    conductivity is sampled at ambient.
    """
    mesh = problem.mesh
    if not mesh.has_channel:
        return np.empty(0)
    k = eval_curve(problem.solid.conductivity, float(problem.surface.theta_amb))
    return problem.chi * mesh.channel_lengths / (2.0 * mesh.domain.thickness * k)


def energy_balance(theta: np.ndarray, problem: ThermalProblem, time: float = 0.0) -> float:
    """Supplied power minus all modeled sinks; near zero at steady state.

    residual = int f - int h_T (theta - amb) - int eps sigma (theta^4 - amb^4)
               - int_Gq q_p - chi (theta_outlet - theta_inlet)

    The balance is the residual tested against w = 1, the sum of all hat
    functions (Hughes et al. 2000, JCP 163:467), so it is the negated row
    sum of assemble_raw's residual minus the coolant line. Conduction is
    masked: its rows sum to zero by the partition of unity, so skipping
    them is exact. The channel is masked on purpose: its rows telescope to
    chi (theta_outlet - theta[inlet]), which differs from the audited
    chi (theta_outlet - theta_inlet) on any state off the inlet pin. Once
    the inlet temperature enters as a weak upwind inflow term, the channel
    rows close that gap and the coolant line can go.
    """
    R = assemble_raw(problem, theta, time, terms=_AUDIT_TERMS, jacobian=False).residual
    mesh = problem.mesh
    extracted = 0.0
    if mesh.has_channel and problem.chi != 0.0:
        extracted = problem.chi * (theta[mesh.outlet_node] - problem.bcs.theta_inlet)
    return float(-np.sum(R) - extracted)


def total_load(problem: ThermalProblem, time: float = 0.0) -> float:
    """int_Omega f dOmega with the assembly quadrature."""
    basis = plan_for(problem.mesh).basis
    return float(np.sum(basis.qp_dA * at_points(problem.load, basis.qp_xy, time)))


def _load_sign_range(problem: ThermalProblem, time: float) -> tuple[float, float]:
    f_q = at_points(problem.load, plan_for(problem.mesh).basis.qp_xy, time)
    return float(np.min(f_q)), float(np.max(f_q))


def _qp_sign_range(problem: ThermalProblem, time: float) -> tuple[float, float]:
    plan = plan_for(problem.mesh)
    if not plan.neu_w.size:
        return 0.0, 0.0
    qv = at_points(problem.bcs.q_p, plan.neu_xy, time)
    return float(np.min(qv)), float(np.max(qv))


def bound_candidates(problem: ThermalProblem) -> list[float]:
    """Ambient plus every constrained value: the inlet while coolant flows, and the Dirichlet trace."""
    return [problem.surface.theta_amb, *problem.constraints.values.tolist()]


def check_bounds(theta: np.ndarray, problem: ThermalProblem, time: float = 0.0) -> BoundsReport:
    """Verify phi_min <= theta <= phi_max on the nodal state at time.

    The tolerance is 1e-6 * theta_amb; small discrete violations (e.g.
    from under-integrated radiation) are surfaced, not hidden.
    """
    tol = 1e-6 * problem.surface.theta_amb
    cands = bound_candidates(problem)
    phi_min, phi_max = min(cands), max(cands)
    theta_min, theta_max = float(np.min(theta)), float(np.max(theta))

    f_lo, f_hi = _load_sign_range(problem, time)
    q_lo, q_hi = _qp_sign_range(problem, time)
    amb_ok = problem.surface.theta_amb > 0.0
    nonneg_ok = problem.surface.emissivity == 0.0 or theta_min >= 0.0
    min_hyp = f_lo >= 0.0 and q_hi <= 0.0 and amb_ok and nonneg_ok
    max_hyp = f_hi <= 0.0 and q_lo >= 0.0 and amb_ok and nonneg_ok

    return BoundsReport(
        phi_min=phi_min,
        phi_max=phi_max,
        theta_min=theta_min,
        theta_max=theta_max,
        min_violation=max(0.0, phi_min - theta_min),
        max_violation=max(0.0, theta_max - phi_max),
        pass_min=theta_min >= phi_min - tol,
        pass_max=theta_max <= phi_max + tol,
        min_hypothesis_met=min_hyp,
        max_hypothesis_met=max_hyp,
        tolerance=tol,
    )


def observables_for(problem: ThermalProblem, theta: np.ndarray, time: float = 0.0) -> Observables:
    """Observables of theta at time; theta is interpolated once for the MST and once in the residual."""
    mesh = problem.mesh
    theta_out = outlet_temperature(theta, mesh)
    supplied = total_load(problem, time)
    if supplied == 0.0 or not mesh.has_channel:
        eta = float("nan")
    else:
        eta = efficiency_from_total(theta_out, problem.bcs.theta_inlet, problem.chi, supplied)
    return Observables(
        t=float(time),
        mst=mean_surface_temperature(theta, mesh),
        theta_outlet=theta_out,
        eta=eta,
        energy_residual=energy_balance(theta, problem, time),
    )


def series_observables(problem: ThermalProblem, states: np.ndarray, dt: float) -> list[Observables]:
    """Observables of every state after t = 0; row k of states is the state at t = k * dt."""
    return [observables_for(problem, theta, k * dt) for k, theta in enumerate(states[1:], 1)]
