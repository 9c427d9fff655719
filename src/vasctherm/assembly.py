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
temperatures plus the channel inlet) are eliminated by the caller, not by
assemble_raw, which covers every DOF: it sets the constrained DOFs to
their values, and apply_constraints(system, constraints) keeps the rows
and columns of the free DOFs, so Newton solves for those alone.

The prescribed boundary flux q_p is stored already premultiplied by the
thickness d (units W/m of boundary length), so no thickness factor is
applied here.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import elements
from .elements import GAUSS_1D_1, GAUSS_1D_2, edge_shape
from .materials import Coolant, SolidMaterial, curve_derivative, eval_curve, heat_capacity_rate
from .mesh import NEUMANN, ChannelMesh, nested_dissection

STEFAN_BOLTZMANN = 5.67e-8  # W/(m^2 K^4)


def _check_kelvin(label: str, theta: float) -> None:
    """Radiation takes theta**4: a temperature must be positive with a finite fourth power."""
    if not 0.0 < theta <= np.finfo(float).max ** 0.25:
        raise ValueError(f"{label} temperature must be positive (kelvin), with a finite fourth power")


@dataclass(frozen=True)
class SurfaceExchange:
    """Top-surface convection/radiation data and the ambient temperature."""

    h_T: float = 21.0  # W/(m^2 K)
    emissivity: float = 0.97
    theta_amb: float = 296.42  # K

    def __post_init__(self):
        _check_kelvin("ambient", self.theta_amb)
        if not 0.0 <= self.h_T <= 1e6:  # ten times boiling or condensing water, W/(m^2 K)
            raise ValueError(f"heat transfer coefficient must lie in [0, 1e6] W/(m^2 K), got {self.h_T:g}")
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

    def __post_init__(self):
        _check_kelvin("inlet", self.theta_inlet)


@dataclass(frozen=True)
class TermMask:
    """Toggles for individual residual terms.

    The Jacobian check differences each combination; the energy audit in
    postprocess masks conduction and channel. h_T = 0 leaves out convection.
    """

    conduction: bool = True
    radiation: bool = True
    channel: bool = True
    mass: bool = True


ALL_TERMS = TermMask()


class RateWeights(NamedTuple):
    """BDF rate representation: theta_dot = coeff * theta + rhs.

    Immutable as a named tuple, which a BDF run builds once per step in
    about two thirds of a frozen dataclass's time.
    """

    coeff: float
    rhs: np.ndarray

    def __repr__(self):
        return f"RateWeights(coeff={self.coeff!r})"


@dataclass(frozen=True, eq=False)
class ThermalProblem:
    """Full scenario: mesh, materials, coolant, loads and BCs; it starts at ambient.

    A problem is a value: dataclasses.replace gives a changed one, with caches of its own.
    """

    mesh: ChannelMesh
    solid: SolidMaterial
    coolant: Coolant
    load: object = 1000.0  # W/m^2, constant or callable(x, y, t)
    surface: SurfaceExchange = SurfaceExchange()
    bcs: BoundaryData = BoundaryData()

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

    @property
    def constraints(self) -> Constraints:
        """The problem's constraints, built once and shared; they depend only on its mesh, bcs and coolant."""
        return _cached(_CONSTRAINTS_CACHE, self, _build_constraints)


def at_points(data, xy: np.ndarray, *t) -> float | np.ndarray:
    """Prescribed data at the points xy (..., 2): a float if constant, else data(x, y, *t) in their shape."""
    if not callable(data):
        return float(data)
    x, y = xy[..., 0], xy[..., 1]
    return np.broadcast_to(data(x, y, *t), x.shape).astype(float)


@dataclass(frozen=True, eq=False)
class Constraints:
    """A problem's constrained DOFs and its mesh's pattern restricted to the free ones.

    ids holds the constrained node ids and values their prescribed
    temperatures: the Dirichlet nodes first, in ascending order, then the
    inlet unless it is one of them. The inlet value is enforced only while
    coolant actually flows (chi > 0); with the flow off there is no fluid
    entering whose temperature could be prescribed, and the zero-flow
    limit must not depend on the nominal flow direction. free holds the
    unconstrained DOF ids in elimination order, the plan's nested-dissection
    order with the constrained ids dropped: restricted DOF k is node
    free[k], so the residual is R[free] and the LU factor needs no
    fill-reducing ordering of its own. Problems on one mesh read that
    order off its one plan, so it is computed once per mesh. slots[k] is
    the plan's data slot of entry k of the restricted CSR pattern (indptr,
    indices; each row sorted), so the restricted Jacobian's data is
    J.data[slots]. The pattern is structurally symmetric: the rows of
    column k are the columns of row k. The arrays are read-only.
    """

    ids: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)


def _build_constraints(problem: ThermalProblem) -> Constraints:
    mesh = problem.mesh
    ids = mesh.dirichlet_nodes()
    vals = np.empty(0)
    if ids.size:
        if problem.bcs.theta_p is None:
            raise ValueError("mesh has dirichlet edges but bcs.theta_p is unset")
        vals = np.full(ids.shape, at_points(problem.bcs.theta_p, mesh.nodes[ids]))
    if mesh.has_channel and problem.chi > 0.0:
        inlet = int(mesh.inlet_node)
        theta_inlet = float(problem.bcs.theta_inlet)
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
    plan = plan_for(mesh)
    keep = np.ones(plan.n, dtype=bool)
    keep[ids] = False
    free = plan.order[keep[plan.order]]
    # The plan's data slots on its pattern, rows and columns taken in the order free.
    slots = sp.csr_matrix((np.arange(plan.nnz), plan.indices, plan.indptr), shape=(plan.n,) * 2)[free][:, free]
    slots.has_sorted_indices = False  # the column selection permutes each row
    slots.sort_indices()
    indptr, indices = (a.astype(plan.indices.dtype, copy=False) for a in (slots.indptr, slots.indices))
    return Constraints(*(_read_only(a) for a in (ids, vals, free, slots.data, indptr, indices)))


@dataclass(frozen=True, eq=False)
class AssemblyPlan:
    """Element tables, fixed CSR pattern and fill maps of one mesh.

    elements.build_basis tabulates the element tables, which
    postprocessing reuses. qp_N[q, i] is N_i at quadrature point q,
    qp_xy[q, e] that point of triangle e, qp_dA the rule weights times the
    areas and lam_grad the barycentric gradients. P1 gradients are
    constant, so P1 has one gradient point per triangle; P2 uses its
    quadrature points.
    gp_map[q, g] = 1 where point q takes its gradient from gradient point
    g, and gp_gradN holds grad N_i there. qp_NN[(i, j), q] = N_i N_j, and
    gp_MN[(g, j), q] = gp_map[q, g] N_j moves k' weights onto the gradient
    points. The stiffness is a reference-tensor GEMM (Kirby & Logg 2006):
    lam_GG[(a, b), e] = grad lambda_a . grad lambda_b and
    K_ref[(i, j), (g, a, b)] = dN_i/dlambda_a dN_j/dlambda_b at gradient
    point g. Every per-triangle table holds the triangle index last, as
    its long C-contiguous axis, so each element-local sum of assemble_raw
    is a whole-mesh row operation and each contraction with a constant
    table is one GEMM. tri_nodes[i, e] is node i of triangle e, and
    tri_slots[(i * nen + j) * T + e] is the CSR data slot of the
    element-local entry (i, j) of triangle e, so a Jacobian's data array is
    one np.bincount over the flattened (nen * nen, T) element table.
    chain_op is the one channel operator: the constant matrix of
    int_Sigma w_i dtheta/ds on the rows and columns of the chain's DOFs,
    chain (ascending), the only rows the term touches, so the term adds
    chi * chain_op @ theta[chain] to the rows chain. chan_slots[m] is the
    data slot of chain_op.data[m], one distinct slot per entry. The neumann
    edges (boundary_edges tagged neumann, in boundary order) carry the
    two-point Gauss rule of the boundary flux: neu_xy[g, e] is point g of
    edge e, neu_w[g, e] its weight times the edge length, and
    neu_nodes[:, e] the edge's node ids. order lists every node id once,
    in the mesh's nested_dissection elimination order; each problem's
    Constraints.free is this order without its constrained ids. Every
    array, the matrix's included, is read-only: all Jacobians and threads
    of the mesh share them.
    """

    n: int
    areas: np.ndarray = field(repr=False)  # (T,)
    qp_N: np.ndarray = field(repr=False)  # (nq, nen)
    qp_dA: np.ndarray = field(repr=False)  # (nq, T)
    qp_xy: np.ndarray = field(repr=False)  # (nq, T, 2)
    lam_grad: np.ndarray = field(repr=False)  # (T, 3, 2)
    gp_map: np.ndarray = field(repr=False)  # (nq, ng)
    gp_gradN: np.ndarray = field(repr=False)  # (ng, 2, nen, T)
    qp_NN: np.ndarray = field(repr=False)  # (nen * nen, nq)
    gp_MN: np.ndarray = field(repr=False)  # (ng * nen, nq)
    lam_GG: np.ndarray = field(repr=False)  # (9, T)
    K_ref: np.ndarray = field(repr=False)  # (nen * nen, ng * 9)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    tri_nodes: np.ndarray = field(repr=False)  # (nen, T)
    tri_slots: np.ndarray = field(repr=False)  # (nen * nen * T,)
    chan_slots: np.ndarray = field(repr=False)
    chain: np.ndarray = field(repr=False)  # (m,)
    chain_op: sp.csr_matrix = field(repr=False)  # (m, m)
    neu_xy: np.ndarray = field(repr=False)  # (2, E, 2)
    neu_w: np.ndarray = field(repr=False)  # (2, E)
    neu_nodes: np.ndarray = field(repr=False)  # (k, E)
    order: np.ndarray = field(repr=False)  # (n,)

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]


def _csr(data: np.ndarray, pattern: AssemblyPlan | Constraints) -> sp.csr_matrix:
    """A square CSR matrix on a fixed, canonical pattern; shares its index arrays."""
    n = pattern.indptr.shape[0] - 1
    J = sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))
    J.has_canonical_format = True
    return J


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _entry_keys(nodes: np.ndarray, n: int) -> np.ndarray:
    """row * n + col of every element-local entry (i, j, e) of nodes (k, E), in ravel order."""
    rows = nodes.astype(np.int64)[:, None, :]
    return (rows * n + nodes[None, :, :]).ravel()


def _row_pointer(rows: np.ndarray, n: int, dtype) -> np.ndarray:
    """CSR indptr of n rows from the sorted row ids of the entries."""
    indptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _build_plan(mesh: ChannelMesh) -> AssemblyPlan:
    n = mesh.n_nodes
    if np.any(mesh.channel_lengths <= 0):
        raise ValueError("channel chain holds a zero-length edge")
    basis = elements.build_basis(mesh)  # through the module, so a rebound build_basis is called
    tri_nodes = np.ascontiguousarray(mesh.triangles.T)
    tri_keys = _entry_keys(tri_nodes, n)
    edges = mesh.channel_edges()
    chan_keys, chan_entry = np.unique(_entry_keys(edges.T, n), return_inverse=True)
    keys, inverse = np.unique(np.concatenate([tri_keys, chan_keys]), return_inverse=True)
    idx = np.int32 if max(n, keys.size) < np.iinfo(np.int32).max else np.int64
    rows, cols = np.divmod(keys, n)
    slot_of = inverse.astype(np.intp)  # np.bincount's index type: no per-call cast
    diag = np.searchsorted(keys, np.arange(n, dtype=np.int64) * (n + 1))
    if keys.size == 0 or diag[-1] >= keys.size or np.any(keys[diag] != np.arange(n) * (n + 1)):
        raise ValueError("mesh holds a node that belongs to no triangle")
    # Every chain edge carries the block B_ij = sum_g w_g N_i dN_j/dxi: the edge
    # length cancels (dGamma = (ell / 2) dxi, d/ds = (2 / ell) d/dxi), and the
    # rule is exact for the integrand's degree (1 for P1, 3 for P2).
    xi, wgt = GAUSS_1D_1 if mesh.element_order == 1 else GAUSS_1D_2
    block = np.einsum("g,gi,gj->ij", wgt, *edge_shape(mesh.element_order, xi))
    chan_rows, chan_cols = np.divmod(chan_keys, n)
    chan_data = np.bincount(chan_entry, weights=np.repeat(block.ravel(), len(edges)), minlength=chan_keys.size)
    chain = np.unique(edges)
    chain_op = sp.csr_matrix((
        chan_data, np.searchsorted(chain, chan_cols).astype(idx),
        _row_pointer(np.searchsorted(chain, chan_rows), chain.size, idx)), shape=(chain.size,) * 2)
    for a in (chain_op.data, chain_op.indices, chain_op.indptr):
        _read_only(a)
    neumann = mesh.boundary_edges[mesh.boundary_tags == NEUMANN]
    pa, pb = mesh.nodes[neumann[:, 0]], mesh.nodes[neumann[:, 1]]
    xi, wgt = GAUSS_1D_2
    return AssemblyPlan(
        n=n,
        **basis,
        indptr=_read_only(_row_pointer(rows, n, idx)),
        indices=_read_only(cols.astype(idx)),
        tri_nodes=_read_only(tri_nodes),
        tri_slots=_read_only(slot_of[:tri_keys.size]),
        chan_slots=_read_only(slot_of[tri_keys.size:]),
        chain=_read_only(chain),
        chain_op=chain_op,
        neu_xy=_read_only(pa + (0.5 * (1.0 + xi))[:, None, None] * (pb - pa)),
        neu_w=_read_only((wgt * 0.5)[:, None] * np.linalg.norm(pb - pa, axis=1)),
        neu_nodes=_read_only(np.ascontiguousarray(neumann.T)),
        order=_read_only(nested_dissection(mesh)),
    )


# mesh -> AssemblyPlan and problem -> Constraints. One lock guards both, reentrant
# because building a problem's constraints takes its mesh's plan.
_PLAN_CACHE = weakref.WeakKeyDictionary()
_CONSTRAINTS_CACHE = weakref.WeakKeyDictionary()
_CACHE_LOCK = threading.RLock()


def _cached(cache: weakref.WeakKeyDictionary, key, build):
    """cache[key], made by build(key) on first use; only a build takes the lock."""
    value = cache.get(key)
    if value is None:
        with _CACHE_LOCK:
            value = cache.get(key)
            if value is None:
                value = cache[key] = build(key)
    return value


def plan_for(mesh: ChannelMesh) -> AssemblyPlan:
    """The mesh's assembly plan, built on first use and shared by all callers."""
    return _cached(_PLAN_CACHE, mesh, _build_plan)


@dataclass(eq=False)
class DiscreteSystem:
    """Assembled residual/Jacobian pair at a given state.

    From assemble_raw it spans every DOF; from apply_constraints, the
    free DOFs of the constraints passed. jacobian is None for a
    residual-only assembly.
    """

    residual: np.ndarray
    jacobian: sp.csr_matrix | None


def assemble_raw(
    problem: ThermalProblem,
    theta: np.ndarray,
    time: float = 0.0,
    rate: RateWeights | None = None,
    terms: TermMask = ALL_TERMS,
    jacobian: bool = True,
) -> DiscreteSystem:
    """Assemble residual and (unless jacobian=False) Jacobian of every DOF.

    Both modes compute the residual with the same operations, so they
    agree bitwise. The residual is one pass over the quadrature points:
    theta is interpolated there once, conduction takes its two einsums over
    the gradient table, and convection, radiation (theta^4 as (theta^2)^2),
    load and BDF mass sum into one pointwise coefficient of N_i that the
    weights qp_dA multiply once. A constant load enters that sum as a
    scalar; a callable one is tabulated at the points. The Jacobian's
    N_i N_j coefficient is summed and weighted the same way, and the
    channel term is applied through the chain's rows only. Every table is
    scaled and summed in place, in the order of the formulas written out
    beside each step, so no operation is added or reordered; theta and
    rate.rhs are only read. The plan is looked up once per call and shared
    with the load and flux tables.
    """
    plan = plan_for(problem.mesh)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (plan.n,):
        raise ValueError(f"theta must have shape ({plan.n},)")
    nodes = plan.tri_nodes  # (nen, T)
    d = problem.mesh.domain.thickness
    surf = problem.surface
    nen, T = nodes.shape
    N = plan.qp_N  # (nq, nen)

    theta_e = theta.take(nodes)  # (nen, T)
    th_q = N @ theta_e  # (nq, T)
    w = plan.qp_dA  # (nq, T)
    R_e = J_e = 0.0  # the conduction part of the element tables

    if terms.conduction:
        # grad theta at the gradient points, and their weights sum_q w d k(theta_q)
        G = plan.gp_gradN  # (ng, 2, nen, T)
        grad = np.einsum("gcit,it->gct", G, theta_e)
        wdk = w * d
        if jacobian:
            wdkp = curve_derivative(problem.solid.conductivity, th_q)
            wdkp *= wdk  # w d k'(theta_q)
            gw = np.einsum("gcit,gct->git", G, grad)  # grad N_i . grad theta
        wdk *= _property_at(problem.solid.conductivity, th_q)  # w d k(theta_q)
        wbar = plan.gp_map.T @ wdk  # (ng, T)
        grad *= wbar[:, None]
        R_e = np.einsum("gcit,gct->it", G, grad)
        if jacobian:
            A = (wbar[:, None] * plan.lam_GG).reshape(-1, T)  # geometry tensor
            J_e = plan.K_ref @ A
            M = (plan.gp_MN @ wdkp).reshape(-1, nen, T)
            J_e += np.einsum("git,gjt->ijt", gw, M).reshape(-1, T)

    # Every other term is a pointwise coefficient times N_i (residual) or N_i N_j
    # (Jacobian). Each term is built in its own table, added to the sum of the
    # terms before it (_add), and the sum is weighted by w once; a constant load
    # stays a scalar, so no table is ever zero-filled.
    coef_N = -at_points(problem.load, plan.qp_xy, time)
    coef_NN = 0.0

    if surf.h_T != 0.0:
        conv = th_q - surf.theta_amb
        conv *= surf.h_T  # h_T (theta - theta_amb)
        coef_N = _add(coef_N, conv)
        coef_NN += surf.h_T

    if terms.radiation and surf.emissivity != 0.0:
        es = surf.emissivity * STEFAN_BOLTZMANN
        th2 = th_q * th_q  # theta^4 as (theta^2)^2: a product, not a call to pow
        if jacobian:
            rad = (4.0 * es) * th2
            rad *= th_q  # 4 es theta^2 theta
            coef_NN = _add(coef_NN, rad)
        th2 *= th2
        th2 -= surf.theta_amb**4
        th2 *= es  # es (theta^4 - theta_amb^4)
        coef_N = _add(coef_N, th2)

    if rate is not None and terms.mass:
        c_q = _property_at(problem.solid.specific_heat, th_q)
        rd = rate.coeff * theta
        rd += rate.rhs
        thdot_q = N @ rd.take(nodes)
        rho_d = d * problem.solid.density
        if jacobian:
            mass = c_q * rate.coeff
            dc_q = curve_derivative(problem.solid.specific_heat, th_q)
            dc_q *= thdot_q
            mass += dc_q
            mass *= rho_d  # rho_d (c rate.coeff + c' theta_dot)
            coef_NN = _add(coef_NN, mass)
        c_q *= rho_d
        c_q *= thdot_q  # rho_d c theta_dot
        coef_N = _add(coef_N, c_q)

    R_e += N.T @ _weighted(coef_N, w)
    R = np.bincount(nodes.ravel(), weights=R_e.ravel(), minlength=plan.n)
    if jacobian:
        J_e += plan.qp_NN @ _weighted(coef_NN, w)
        data = np.bincount(plan.tri_slots, weights=J_e.ravel(), minlength=plan.nnz)

    chi = problem.chi
    if terms.channel and chi != 0.0:
        flow = plan.chain_op @ theta.take(plan.chain)
        flow *= chi
        R[plan.chain] += flow
        if jacobian:
            data[plan.chan_slots] += chi * plan.chain_op.data

    if not zero_flux(problem):
        R += _neumann_flux_vector(problem, plan, time)

    return DiscreteSystem(residual=R, jacobian=_csr(data, plan) if jacobian else None)


def _property_at(curve, th_q: np.ndarray):
    """The curve at the temperatures th_q; a constant curve (CMP) is its value, a float.

    A product with the float has the bits of a product with eval_curve's
    table of copies, without its clamp and Horner passes. A NaN
    temperature still makes the residual NaN: grad theta, theta - theta_amb
    and theta_dot read theta directly.
    """
    if curve.degree == 0:
        return curve.coefficients[0]
    return eval_curve(curve, th_q)


def _add(total, term: np.ndarray) -> np.ndarray:
    """total + term, in total's table when it is one, else in term's.

    Addition commutes bitwise, so either table yields the same sum.
    """
    if isinstance(total, np.ndarray):
        total += term
        return total
    term += total
    return term


def _weighted(coef, w: np.ndarray) -> np.ndarray:
    """coef * w, in coef's table when it is one (it is then a table of assemble_raw's own)."""
    if isinstance(coef, np.ndarray):
        coef *= w
        return coef
    return w * coef


def zero_flux(problem: ThermalProblem) -> bool:
    """q_p is the constant zero (the adiabatic default); a q_p that is not callable is a constant."""
    q_p = problem.bcs.q_p
    return not callable(q_p) and float(q_p) == 0.0


def _neumann_flux_vector(problem: ThermalProblem, plan: AssemblyPlan, time: float) -> np.ndarray:
    """int_Gq w_i q_p dGamma on the plan's neumann edges."""
    N, _ = edge_shape(problem.mesh.element_order, GAUSS_1D_2[0])  # (2, k)
    scale = plan.neu_w * at_points(problem.bcs.q_p, plan.neu_xy, time)  # (2, E)
    contrib = scale[:, None, :] * N[:, :, None]  # (2, k, E)
    nodes = np.broadcast_to(plan.neu_nodes, contrib.shape)
    return np.bincount(nodes.ravel(), weights=contrib.ravel(), minlength=plan.n)


def apply_constraints(system: DiscreteSystem, constraints: Constraints) -> DiscreteSystem:
    """Restrict a system from assemble_raw to the rows and columns of the free DOFs.

    This is the Newton system of the constrained problem at a state that
    satisfies the constraints: the constrained DOFs are fixed at their
    values, so their equations and their columns drop out.
    """
    J = system.jacobian
    return DiscreteSystem(
        residual=system.residual[constraints.free],
        jacobian=None if J is None else _csr(J.data[constraints.slots], constraints),
    )
