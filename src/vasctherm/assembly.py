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
from .mesh import NEUMANN, ChannelMesh

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
    _constraints: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
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

    def load_at_qp(self, t) -> np.ndarray:
        """f at the volume quadrature points of the assembly, (T, nq)."""
        x, y = basis_for(self.mesh).qp_xy.T  # (T, nq) each
        if callable(self.load):
            return np.broadcast_to(self.load(x, y, t), x.shape).astype(float)
        return np.full(x.shape, float(self.load))

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

    def constrained_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, values): constrained node ids and their prescribed temperatures.

        The Dirichlet nodes come first, in ascending order, then the inlet
        unless it is one of them. The inlet value is enforced only while
        coolant actually flows (chi > 0); with the flow off there is no
        fluid entering whose temperature could be prescribed, and the
        zero-flow limit must not depend on the nominal flow direction.
        The pair is built on the first call and cached as read-only
        arrays; it depends only on the mesh, bcs and coolant.
        """
        if self._constraints is None:
            ids, vals = self._build_constraints()
            self._constraints = _read_only(ids), _read_only(vals)
        return self._constraints

    def _build_constraints(self) -> tuple[np.ndarray, np.ndarray]:
        mesh = self.mesh
        ids = mesh.dirichlet_nodes()
        vals = np.empty(0)
        if ids.size:
            if self.bcs.theta_p is None:
                raise ValueError("mesh has dirichlet edges but bcs.theta_p is unset")
            if callable(self.bcs.theta_p):
                vals = self.bcs.theta_p(mesh.nodes[ids, 0], mesh.nodes[ids, 1])
                vals = np.broadcast_to(vals, ids.shape).astype(float)
            else:
                vals = np.full(ids.shape, float(self.bcs.theta_p))
        if mesh.has_channel and self.chi > 0.0:
            inlet = int(mesh.inlet_node)
            theta_inlet = float(self.bcs.theta_inlet)
            at = np.flatnonzero(ids == inlet)
            if at.size and abs(vals[at[0]] - theta_inlet) > 1e-9:
                raise ValueError(
                    f"conflicting prescriptions at inlet node {inlet}: "
                    f"theta_p={vals[at[0]]} vs theta_inlet={theta_inlet}"
                )
            if at.size:
                vals[at[0]] = theta_inlet
            else:
                ids, vals = np.append(ids, inlet), np.append(vals, theta_inlet)
        return ids, vals


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
    N (x) N is tabulated per quadrature point. The chan_* tables hold
    the channel chain's edge nodes and, per Gauss point g, the edge
    shape values N_g, their arc-length derivatives dN/ds and the products
    N_i dN_j/ds, so the channel term rebuilds none of them per call.
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
    chan_nodes: np.ndarray = field(repr=False)  # (E, k)
    chan_N: np.ndarray = field(repr=False)  # (ng, k)
    chan_dNds: np.ndarray = field(repr=False)  # (ng, E, k)
    chan_NdNds: np.ndarray = field(repr=False)  # (ng, E, k, k)
    chan_half_w: np.ndarray = field(repr=False)  # (ng,) Gauss weights / 2: dGamma = (ell / 2) dxi
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
    xi, wgt = GAUSS_1D_1 if p1 else GAUSS_1D_2
    chan_N, dNdxi = edge_shape(mesh.element_order, xi)  # (ng, k) each
    with np.errstate(divide="ignore"):  # channel_line_term rejects zero-length edges
        inv_half_ell = 2.0 / mesh.channel_lengths
    chan_dNds = inv_half_ell[None, :, None] * dNdxi[:, None, :]  # (ng, E, k)
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
        chan_nodes=_read_only(chan_nodes),
        chan_N=_read_only(chan_N),
        chan_dNds=_read_only(chan_dNds),
        chan_NdNds=_read_only(chan_N[:, None, :, None] * chan_dNds[:, :, None, :]),
        chan_half_w=_read_only(wgt * 0.5),
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

    jacobian is None for a residual-only assembly; constraints is the
    problem's (ids, values) pair; plan is the pattern owner that
    apply_constraints uses to edit the Jacobian in place.
    """

    residual: np.ndarray
    jacobian: sp.csr_matrix | None
    constraints: tuple[np.ndarray, np.ndarray] = field(repr=False)
    theta: np.ndarray = field(repr=False)
    plan: AssemblyPlan | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.residual.shape[0]


def channel_line_term(mesh: ChannelMesh, theta: np.ndarray, chi: float, jacobian: bool = True):
    """Per-edge channel contributions chi * w * (grad theta . t_hat).

    Returns (nodes, residual, jacobian) with shapes (E, k), (E, k) and
    (E, k, k), where k is 2 for linear and 3 for quadratic edges; the
    jacobian is None when not asked for. The one-point (P1) / two-point
    (P2) Gauss rules integrate the edge terms; their tables live in the
    mesh's assembly plan.
    """
    if not mesh.has_channel:
        empty = np.empty((0, 2))
        return np.empty((0, 2), dtype=int), empty, np.empty((0, 2, 2))
    ell = mesh.channel_lengths
    if np.any(ell <= 0):
        raise ValueError("channel chain holds a zero-length edge")
    plan = plan_for(mesh)
    nodes = plan.chan_nodes
    theta_e = theta[nodes]  # (E, k)
    res = np.zeros(nodes.shape)
    jac = np.zeros(plan.chan_NdNds.shape[1:]) if jacobian else None
    for g, half_w in enumerate(plan.chan_half_w):
        dthds = np.einsum("ek,ek->e", plan.chan_dNds[g], theta_e)
        scale = chi * half_w * ell
        res += (scale * dthds)[:, None] * plan.chan_N[g]
        if jacobian:
            jac += scale[:, None, None] * plan.chan_NdNds[g]
    return nodes, res, jac


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
    constraints = ids, vals = problem.constrained_values()
    if not jacobian and ids.size:
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
    w = basis.qp_dA  # (T, nq)
    # per-quadrature-point coefficients of N_i (residual) and N_i N_j (Jacobian)
    coef_N = np.zeros_like(th_q)
    coef_NN = np.zeros_like(th_q) if jacobian else None
    R_e = np.zeros_like(theta_e)
    J_e = np.zeros((T, nen, nen)) if jacobian else None

    if terms.conduction:
        k_q = eval_curve(problem.solid.conductivity, th_q)
        if np.any(k_q <= 0.0):
            raise EllipticityError(
                "conductivity non-positive at a quadrature point "
                f"(min {float(np.min(k_q)):.4g} W/(m*K))"
            )
        wdk = w * d * k_q
        if jacobian and terms.property_derivatives:
            kp_q = curve_derivative(problem.solid.conductivity, th_q)
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

    coef_N -= w * problem.load_at_qp(time)

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

    if not _zero_flux(problem):
        R += _neumann_flux_vector(problem, time)

    return DiscreteSystem(
        residual=R, jacobian=plan.matrix(data) if jacobian else None,
        constraints=constraints, theta=theta.copy(), plan=plan,
    )


def neumann_quadrature(mesh: ChannelMesh):
    """Two-point Gauss rule on the neumann edges.

    Returns the points (2, E, 2), the weights (2, E) that carry the edge
    length, and the edge node ids (E, k) in boundary_edges order.
    """
    edges = mesh.boundary_edges[mesh.boundary_tags == NEUMANN]
    pa, pb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    xi, wgt = GAUSS_1D_2
    points = pa + (0.5 * (1.0 + xi))[:, None, None] * (pb - pa)
    weights = (wgt * 0.5)[:, None] * np.linalg.norm(pb - pa, axis=1)
    return points, weights, edges


def _zero_flux(problem: ThermalProblem) -> bool:
    """q_p is the constant zero (the adiabatic default)."""
    return np.isscalar(problem.bcs.q_p) and float(problem.bcs.q_p) == 0.0


def _neumann_flux_vector(problem: ThermalProblem, time: float) -> np.ndarray:
    """int_Gq w_i q_p dGamma; zero fast path for the adiabatic default."""
    mesh = problem.mesh
    if _zero_flux(problem):
        return np.zeros(mesh.n_nodes)
    points, weights, edges = neumann_quadrature(mesh)
    N, _ = edge_shape(mesh.element_order, GAUSS_1D_2[0])  # (2, k)
    scale = weights * problem.qp_at(points[..., 0], points[..., 1], time)  # (2, E)
    contrib = scale[:, None, :] * N[:, :, None]  # (2, k, E)
    nodes = np.broadcast_to(edges.T, contrib.shape)
    return np.bincount(nodes.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes)


def apply_constraints(system: DiscreteSystem) -> DiscreteSystem:
    """Replace constrained rows by theta_i - prescribed; fold columns into R.

    Folding keeps the sparsity pattern symmetric and, once the iterate
    satisfies the constraints, leaves the Jacobian an exact derivative of
    the constrained residual. The Jacobian keeps the plan's pattern: the
    constrained rows and columns hold explicit zeros and a unit diagonal.
    """
    plan, J = system.plan, system.jacobian
    if J is not None and plan is None:
        raise ValueError("apply_constraints needs a system assembled by assemble_raw")
    ids, vals = system.constraints
    R = system.residual.copy()
    data = None if J is None else J.data.copy()
    if ids.size:
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
        constraints=system.constraints, theta=system.theta, plan=plan,
    )
