"""Residual and analytic Jacobian of the coupled heat balance.

The nodal residual collects, per test function w_i:

    R_i = int_Omega d k_s(theta) grad w_i . grad theta
        + int_Omega h_T w_i (theta - theta_amb)
        + int_Omega eps sigma w_i (theta^4 - theta_amb^4)
        + int_Sigma chi w_i grad theta . t_hat
        - int_Omega w_i f
        + int_Gq w_i q_p
        [+ int_Omega d rho_s c_s(theta) w_i theta_dot   in transient assembly]

with material properties evaluated at quadrature-point temperatures. The
Jacobian is the exact linearization, including the k_s' and c_s' terms
from the temperature dependence. Dirichlet constraints (boundary
temperatures plus the channel inlet) are realized by identity rows with
the columns folded into the residual, which preserves a symmetric
sparsity pattern.

The prescribed boundary flux q_p is stored already premultiplied by the
thickness d (units W/m of boundary length), so no thickness factor is
applied here.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import GAUSS_1D_1, GAUSS_1D_2, basis_for, edge_shape
from .materials import Coolant, SolidMaterial, curve_derivative, eval_curve, heat_capacity_rate
from .mesh import ChannelMesh

STEFAN_BOLTZMANN = 5.67e-8  # W/(m^2 K^4)


class EllipticityError(ValueError):
    """k_s evaluated non-positive at a quadrature point."""


@dataclass(frozen=True)
class SurfaceExchange:
    """Top-surface convection/radiation data and the ambient temperature."""

    h_T: float = 21.0  # W/(m^2 K)
    emissivity: float = 0.97
    theta_amb: float = 296.42  # K
    sigma: float = STEFAN_BOLTZMANN

    def __post_init__(self):
        if self.theta_amb <= 0:
            raise ValueError("ambient temperature must be positive (kelvin)")
        if self.h_T < 0:
            raise ValueError("heat transfer coefficient must be non-negative")
        if not 0.0 <= self.emissivity <= 1.0:
            raise ValueError("emissivity must lie in [0, 1]")


@dataclass(frozen=True)
class BoundaryData:
    """Inlet temperature, Dirichlet trace theta_p, and boundary flux q_p.

    theta_p and q_p accept constants or callables; q_p(x, y, t) is the
    d-premultiplied outward flux in W/m.
    """

    theta_inlet: float = 296.42  # K
    theta_p: object = None  # K, required when dirichlet edges exist
    q_p: object = 0.0  # W/m


@dataclass(frozen=True)
class TermMask:
    """Toggles for individual residual terms (testing/diagnostics).

    property_derivatives=False drops the k_s'/c_s' Jacobian blocks, which
    deliberately breaks Newton consistency for mutation checks.
    """

    conduction: bool = True
    convection: bool = True
    radiation: bool = True
    channel: bool = True
    mass: bool = True
    property_derivatives: bool = True


ALL_TERMS = TermMask()


@dataclass(frozen=True)
class RateWeights:
    """BDF rate representation: theta_dot = coeff * theta + rhs."""

    coeff: float
    rhs: np.ndarray = field(repr=False)


@dataclass(eq=False)
class TemperatureField:
    """Nodal temperatures (K) aligned with mesh nodes at one instant."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("temperature field holds non-finite values")

    @property
    def kelvin_positive(self) -> bool:
        return bool(np.all(self.values > 0.0))


@dataclass(eq=False)
class ThermalProblem:
    """Full scenario: mesh, materials, coolant, loads, BCs, initial state."""

    mesh: ChannelMesh
    solid: SolidMaterial
    coolant: Coolant
    load: object = 1000.0  # W/m^2, constant or callable(x, y, t)
    surface: SurfaceExchange = SurfaceExchange()
    bcs: BoundaryData = BoundaryData()
    theta_initial: object = None  # K, defaults to ambient
    conductivity_scale: np.ndarray | None = None  # per-triangle multiplier

    def __post_init__(self):
        if self.conductivity_scale is not None:
            self.conductivity_scale = np.asarray(self.conductivity_scale, dtype=float)
            if self.conductivity_scale.shape != (len(self.mesh.triangles),):
                raise ValueError("conductivity_scale must hold one factor per triangle")
        if np.isscalar(self.load) and not np.isfinite(self.load):
            raise ValueError("load must be finite")
        if np.isscalar(self.bcs.q_p) and not np.isfinite(self.bcs.q_p):
            raise ValueError("q_p must be finite")

    @property
    def chi(self) -> float:
        return heat_capacity_rate(self.coolant)

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_nodes

    def load_at(self, x, y, t):
        if callable(self.load):
            return np.broadcast_to(self.load(x, y, t), np.shape(x)).astype(float)
        return np.full(np.shape(x), float(self.load))

    def qp_at(self, x, y, t):
        if callable(self.bcs.q_p):
            return np.broadcast_to(self.bcs.q_p(x, y, t), np.shape(x)).astype(float)
        return np.full(np.shape(x), float(self.bcs.q_p))

    def initial_field(self) -> TemperatureField:
        if self.theta_initial is None:
            vals = np.full(self.mesh.n_nodes, self.surface.theta_amb)
        elif callable(self.theta_initial):
            vals = np.asarray(
                self.theta_initial(self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]), dtype=float
            )
            vals = np.broadcast_to(vals, (self.mesh.n_nodes,)).copy()
        else:
            vals = np.full(self.mesh.n_nodes, float(self.theta_initial))
        return TemperatureField(vals, time=0.0)

    def constrained_values(self) -> dict[int, float]:
        """node id -> prescribed temperature (inlet plus Dirichlet trace).

        The inlet value is enforced only while coolant actually flows
        (chi > 0); with the flow off there is no fluid entering whose
        temperature could be prescribed, and the zero-flow limit must not
        depend on the nominal flow direction.
        """
        out: dict[int, float] = {}
        mesh = self.mesh
        dirichlet = mesh.dirichlet_nodes()
        if dirichlet.size:
            if self.bcs.theta_p is None:
                raise ValueError("mesh has dirichlet edges but bcs.theta_p is unset")
            if callable(self.bcs.theta_p):
                vals = self.bcs.theta_p(mesh.nodes[dirichlet, 0], mesh.nodes[dirichlet, 1])
                vals = np.broadcast_to(vals, dirichlet.shape)
            else:
                vals = np.full(dirichlet.shape, float(self.bcs.theta_p))
            out.update({int(n): float(v) for n, v in zip(dirichlet, vals)})
        if mesh.has_channel and self.chi > 0.0:
            inlet = int(mesh.inlet_node)
            if inlet in out and abs(out[inlet] - self.bcs.theta_inlet) > 1e-9:
                raise ValueError(
                    f"conflicting prescriptions at inlet node {inlet}: "
                    f"theta_p={out[inlet]} vs theta_inlet={self.bcs.theta_inlet}"
                )
            out[inlet] = float(self.bcs.theta_inlet)
        return out


@dataclass(frozen=True, eq=False)
class AssemblyPlan:
    """Fixed CSR pattern of one mesh and the maps that fill it.

    tri_slots[e * nen * nen + i * nen + j] is the CSR data slot of the
    element-local entry (e, i, j) (chan_slots likewise for the channel
    edges), so a Jacobian's data array is one np.bincount per block. The
    index arrays are read-only: every Jacobian of the mesh shares them.
    P1 gradients are constant per triangle, so the plan also holds the
    per-triangle G G^T; P2 gradients are laid out triangle-major, so the
    conduction blocks of all quadrature points are one batched matmul.
    N (x) N is tabulated per quadrature point.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    tri_slots: np.ndarray = field(repr=False)
    chan_slots: np.ndarray = field(repr=False)
    diag_slots: np.ndarray = field(repr=False)
    qp_NN: np.ndarray = field(repr=False)  # (nq, nen * nen)
    p1_GGt: np.ndarray | None = field(repr=False)  # (T, nen, nen), P1 only
    qp_grads: np.ndarray | None = field(repr=False)  # (T, nen, nq, 2), P2 only
    _constraint_slots: dict = field(default_factory=dict, repr=False)

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        J = sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))
        J.has_canonical_format = True
        return J

    def constraint_slots(self, ids: np.ndarray) -> np.ndarray:
        """Data slots in the rows or columns of the constrained DOFs ids."""
        key = ids.tobytes()
        slots = self._constraint_slots.get(key)
        if slots is None:
            hit = np.zeros(self.n, dtype=bool)
            hit[ids] = True
            in_row = np.repeat(hit, np.diff(self.indptr))
            slots = _read_only(np.flatnonzero(in_row | hit[self.indices]))
            self._constraint_slots[key] = slots
        return slots


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _channel_edge_nodes(mesh: ChannelMesh) -> np.ndarray:
    """(E, k) node ids per chain edge: (a, b) for P1, (a, b, mid) for P2."""
    a, b = mesh.channel_nodes[:-1], mesh.channel_nodes[1:]
    if mesh.element_order == 1:
        return np.column_stack([a, b])
    return np.column_stack([a, b, mesh.channel_mids])


def _entry_keys(nodes: np.ndarray, n: int) -> np.ndarray:
    """row * n + col of every element-local (e, i, j) entry, in ravel order."""
    k = nodes.shape[1]
    rows = np.repeat(nodes, k, axis=1).astype(np.int64)
    cols = np.tile(nodes, (1, k))
    return (rows * n + cols).ravel()


def _build_plan(mesh: ChannelMesh) -> AssemblyPlan:
    n = mesh.n_nodes
    basis = basis_for(mesh)
    tri_keys = _entry_keys(mesh.triangles, n)
    chan_nodes = _channel_edge_nodes(mesh) if mesh.has_channel else np.empty((0, 2), dtype=int)
    chan_keys = _entry_keys(chan_nodes, n)
    keys, inverse = np.unique(np.concatenate([tri_keys, chan_keys]), return_inverse=True)
    idx = np.int32 if max(n, keys.size) < np.iinfo(np.int32).max else np.int64
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    slot_of = inverse.astype(np.intp)  # np.bincount's index type: no per-call cast
    diag = np.searchsorted(keys, np.arange(n, dtype=np.int64) * (n + 1))
    if keys.size == 0 or diag[-1] >= keys.size or np.any(keys[diag] != np.arange(n) * (n + 1)):
        raise ValueError("mesh holds a node that belongs to no triangle")
    N, G = basis.qp_N, basis.qp_gradN  # (nq, nen), (nq, T, nen, 2)
    p1 = mesh.element_order == 1
    return AssemblyPlan(
        n=n,
        indptr=_read_only(indptr),
        indices=_read_only(cols.astype(idx)),
        tri_slots=_read_only(slot_of[:tri_keys.size]),
        chan_slots=_read_only(slot_of[tri_keys.size:]),
        diag_slots=_read_only(diag.astype(idx)),
        qp_NN=_read_only(np.einsum("qi,qj->qij", N, N).reshape(len(N), -1)),
        p1_GGt=_read_only(np.einsum("tic,tjc->tij", G[0], G[0])) if p1 else None,
        qp_grads=None if p1 else _read_only(np.ascontiguousarray(G.transpose(1, 2, 0, 3))),
    )


_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PLAN_LOCK = threading.Lock()


def plan_for(mesh: ChannelMesh) -> AssemblyPlan:
    """The mesh's assembly plan, built on first use and shared by all callers."""
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(mesh)
        if plan is None:
            plan = _build_plan(mesh)
            _PLAN_CACHE[mesh] = plan
    return plan


@dataclass(eq=False)
class DiscreteSystem:
    """Assembled residual/Jacobian pair at a given state.

    jacobian is None for a residual-only assembly; plan is the pattern
    owner that apply_constraints uses to edit the Jacobian in place.
    """

    residual: np.ndarray
    jacobian: sp.csr_matrix | None
    constrained_dofs: dict[int, float]
    theta: np.ndarray = field(repr=False)
    constrained: bool = False
    plan: AssemblyPlan | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.residual.shape[0]


def channel_line_term(mesh: ChannelMesh, theta: np.ndarray, chi: float, jacobian: bool = True):
    """Per-edge channel contributions chi * w * (grad theta . t_hat).

    Returns (nodes, residual, jacobian) with shapes (E, k), (E, k) and
    (E, k, k), where k is 2 for linear and 3 for quadratic edges; the
    jacobian is None when not asked for. The one-point (P1) / two-point
    (P2) Gauss rules integrate the edge terms.
    """
    if not mesh.has_channel:
        empty = np.empty((0, 2))
        return np.empty((0, 2), dtype=int), empty, np.empty((0, 2, 2))
    ell = mesh.channel_lengths
    if np.any(ell <= 0):
        raise ValueError("channel chain holds a zero-length edge")
    nodes = _channel_edge_nodes(mesh)
    xi, wgt = GAUSS_1D_1 if mesh.element_order == 1 else GAUSS_1D_2
    theta_e = theta[nodes]  # (E, k)
    E, k = nodes.shape
    res = np.zeros((E, k))
    jac = np.zeros((E, k, k)) if jacobian else None
    for g in range(len(xi)):
        N, dNdxi = edge_shape(mesh.element_order, xi[g:g + 1])
        N, dNdxi = N[0], dNdxi[0]
        dNds = (2.0 / ell)[:, None] * dNdxi  # (E, k)
        dthds = np.einsum("ek,ek->e", dNds, theta_e)
        scale = chi * wgt[g] * 0.5 * ell  # d(Gamma) = (ell/2) d(xi)
        res += (scale * dthds)[:, None] * N
        if jacobian:
            jac += scale[:, None, None] * np.einsum("i,ek->eik", N, dNds)
    return nodes, res, jac


def _constraint_arrays(constraints: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.fromiter(constraints.keys(), dtype=int, count=len(constraints))
    vals = np.fromiter((constraints[int(i)] for i in ids), dtype=float, count=len(ids))
    return ids, vals


def assemble_raw(
    problem: ThermalProblem,
    theta: np.ndarray,
    time: float = 0.0,
    rate: RateWeights | None = None,
    terms: TermMask = ALL_TERMS,
    jacobian: bool = True,
) -> DiscreteSystem:
    """Assemble residual and (unless jacobian=False) Jacobian without constraint rows.

    Both modes compute the residual with the same operations, so they
    agree bitwise. A residual-only call still assembles the Jacobian when
    theta is off the constraints: folding the constrained columns into
    the residual needs them.
    """
    mesh = problem.mesh
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (mesh.n_nodes,):
        raise ValueError(f"theta must have shape ({mesh.n_nodes},)")
    constraints = problem.constrained_values()
    if not jacobian and constraints:
        ids, vals = _constraint_arrays(constraints)
        jacobian = bool(np.any(theta[ids] != vals))
    basis = basis_for(mesh)
    plan = plan_for(mesh)
    tri = mesh.triangles
    d = mesh.domain.thickness
    surf = problem.surface
    T, nen = tri.shape
    N = basis.qp_N  # (nq, nen)

    theta_e = theta[tri]  # (T, nen)
    th_q = theta_e @ N.T  # (T, nq)
    w = basis.areas[:, None] * basis.qp_weights  # (T, nq)
    # per-quadrature-point coefficients of N_i (residual) and N_i N_j (Jacobian)
    coef_N = np.zeros_like(th_q)
    coef_NN = np.zeros_like(th_q) if jacobian else None
    R_e = np.zeros_like(theta_e)
    J_e = np.zeros((T, nen, nen)) if jacobian else None
    kscale = problem.conductivity_scale

    if terms.conduction:
        k_q = eval_curve(problem.solid.conductivity, th_q)
        if kscale is not None:
            k_q = k_q * kscale[:, None]
        if np.any(k_q <= 0.0):
            raise EllipticityError(
                "conductivity non-positive at a quadrature point "
                f"(min {float(np.min(k_q)):.4g} W/(m*K))"
            )
        wdk = w * d * k_q
        if jacobian and terms.property_derivatives:
            kp_q = curve_derivative(problem.solid.conductivity, th_q)
            if kscale is not None:
                kp_q = kp_q * kscale[:, None]
            wdkp = w * d * kp_q
        if plan.p1_GGt is not None:
            GGt = plan.p1_GGt
            gw = np.einsum("tij,tj->ti", GGt, theta_e)  # grad N_i . grad theta
            kbar = wdk.sum(axis=1)
            R_e += kbar[:, None] * gw
            if jacobian:
                J_e += kbar[:, None, None] * GGt
                if terms.property_derivatives:
                    J_e += gw[:, :, None] * (wdkp @ N)[:, None, :]
        else:
            G = plan.qp_grads  # (T, nen, nq, 2)
            Gs = G.reshape(T, nen, -1)
            grad = (theta_e[:, None, :] @ Gs).reshape(T, 1, -1, 2)  # grad theta per point
            gw = G[..., 0] * grad[..., 0] + G[..., 1] * grad[..., 1]  # (T, nen, nq)
            R_e += (gw @ wdk[:, :, None])[:, :, 0]
            if jacobian:
                J_e += (Gs * np.repeat(wdk, 2, axis=1)[:, None, :]) @ Gs.transpose(0, 2, 1)
                if terms.property_derivatives:
                    J_e += (gw * wdkp[:, None, :]) @ N

    if terms.convection and surf.h_T != 0.0:
        coef_N += w * surf.h_T * (th_q - surf.theta_amb)
        if jacobian:
            coef_NN += w * surf.h_T

    if terms.radiation and surf.emissivity != 0.0:
        es = surf.emissivity * surf.sigma
        coef_N += w * es * (th_q**4 - surf.theta_amb**4)
        if jacobian:
            coef_NN += w * es * 4.0 * th_q**3

    coef_N -= w * problem.load_at(basis.qp_xy[..., 0], basis.qp_xy[..., 1], time).T

    if rate is not None and terms.mass:
        c_q = eval_curve(problem.solid.specific_heat, th_q)
        thdot_q = (rate.coeff * theta + rate.rhs)[tri] @ N.T
        coef = w * d * problem.solid.density
        coef_N += coef * c_q * thdot_q
        if jacobian:
            coef_NN += coef * c_q * rate.coeff
            if terms.property_derivatives:
                coef_NN += coef * curve_derivative(problem.solid.specific_heat, th_q) * thdot_q

    R_e += coef_N @ N
    R = np.bincount(tri.ravel(), weights=R_e.ravel(), minlength=mesh.n_nodes)
    if jacobian:
        J_e += (coef_NN @ plan.qp_NN).reshape(T, nen, nen)
        data = np.bincount(plan.tri_slots, weights=J_e.ravel(), minlength=plan.nnz)

    chi = problem.chi
    if terms.channel and mesh.has_channel and chi != 0.0:
        cn, cres, cjac = channel_line_term(mesh, theta, chi, jacobian=jacobian)
        R += np.bincount(cn.ravel(), weights=cres.ravel(), minlength=mesh.n_nodes)
        if jacobian:
            np.add.at(data, plan.chan_slots, cjac.ravel())

    R += _neumann_flux_vector(problem, time)

    return DiscreteSystem(
        residual=R, jacobian=plan.matrix(data) if jacobian else None,
        constrained_dofs=constraints, theta=theta.copy(), constrained=False, plan=plan,
    )


def _neumann_flux_vector(problem: ThermalProblem, time: float) -> np.ndarray:
    """int_Gq w_i q_p dGamma; zero fast path for the adiabatic default."""
    mesh = problem.mesh
    out = np.zeros(mesh.n_nodes)
    if np.isscalar(problem.bcs.q_p) and float(problem.bcs.q_p) == 0.0:
        return out
    sel = mesh.boundary_tags == "neumann"
    if not np.any(sel):
        return out
    edges = mesh.boundary_edges[sel]
    pa, pb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    ell = np.linalg.norm(pb - pa, axis=1)
    xi, wgt = GAUSS_1D_2
    Nmat, _ = edge_shape(mesh.element_order, xi)
    for g in range(len(xi)):
        frac = 0.5 * (1.0 + xi[g])
        xg = pa[:, 0] + frac * (pb[:, 0] - pa[:, 0])
        yg = pa[:, 1] + frac * (pb[:, 1] - pa[:, 1])
        qv = problem.qp_at(xg, yg, time)
        scale = wgt[g] * 0.5 * ell * qv
        for k in range(edges.shape[1]):
            np.add.at(out, edges[:, k], scale * Nmat[g, k])
    return out


def apply_constraints(system: DiscreteSystem, constraints: dict[int, float] | None = None) -> DiscreteSystem:
    """Replace constrained rows by theta_i - prescribed; fold columns into R.

    Folding keeps the sparsity pattern symmetric and, once the iterate
    satisfies the constraints, leaves the Jacobian an exact derivative of
    the constrained residual. The Jacobian keeps the plan's pattern: the
    constrained rows and columns hold explicit zeros and a unit diagonal.
    """
    if constraints is None:
        constraints = system.constrained_dofs
    plan, J = system.plan, system.jacobian
    if J is not None and plan is None:
        raise ValueError("apply_constraints needs a system assembled by assemble_raw")
    R = system.residual.copy()
    data = None if J is None else J.data.copy()
    if constraints:
        ids, vals = _constraint_arrays(constraints)
        rc = np.zeros(system.n)
        rc[ids] = system.theta[ids] - vals
        if np.any(rc):
            if J is None:
                raise ValueError("folding an off-constraint state needs the Jacobian")
            R -= J @ rc
        R[ids] = rc[ids]
        if J is not None:
            data[plan.constraint_slots(ids)] = 0.0
            data[plan.diag_slots[ids]] = 1.0
    return DiscreteSystem(
        residual=R, jacobian=None if J is None else plan.matrix(data),
        constrained_dofs=dict(constraints), theta=system.theta, constrained=True, plan=plan,
    )


def assemble_steady(
    problem: ThermalProblem,
    theta: np.ndarray,
    time: float = 0.0,
    terms: TermMask = ALL_TERMS,
    constrained: bool = True,
) -> DiscreteSystem:
    """Steady residual/Jacobian at state theta (constraint rows applied)."""
    system = assemble_raw(problem, theta, time=time, rate=None, terms=terms)
    return apply_constraints(system) if constrained else system


def assemble_transient(
    problem: ThermalProblem,
    theta: np.ndarray,
    rate: RateWeights,
    time: float = 0.0,
    terms: TermMask = ALL_TERMS,
    constrained: bool = True,
) -> DiscreteSystem:
    """Transient residual/Jacobian with the BDF mass term included."""
    system = assemble_raw(problem, theta, time=time, rate=rate, terms=terms)
    return apply_constraints(system) if constrained else system


def dump_system(system: DiscreteSystem, path_prefix: str) -> tuple[str, str]:
    """Write residual and Jacobian in matrix-market text format."""
    from scipy.io import mmwrite

    rpath, jpath = f"{path_prefix}_residual.mtx", f"{path_prefix}_jacobian.mtx"
    mmwrite(rpath, system.residual[:, None])
    mmwrite(jpath, system.jacobian)
    return rpath, jpath
