"""Independent correctness oracles run as a test battery.

Manufactured solutions verify the spatial discretization order, central
finite differences verify the hand-coded Jacobian blocks term by term,
and a scalar RK4/bisection reference pins the spatially uniform limit.
The sources f* below were derived by hand from the steady balance
  -d div(k_s(theta) grad theta) + h_T (theta - amb) = f*
for the stated exact fields; the derivations are reproduced in the
docstrings so they can be audited without symbolic tooling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    ALL_TERMS,
    BoundaryData,
    RateWeights,
    SurfaceExchange,
    TermMask,
    ThermalProblem,
    apply_constraints,
    assemble_raw,
)
from .elements import TRI_RULE_DEG4, tri_shape
from .geometry import Domain2D, VasculaturePath
from .materials import Coolant, PropertyCurve, SolidMaterial, constant_curve, water_coolant
from .mesh import DIRICHLET, build_structured_mesh, embed_vasculature, mesh_without_channel, tag_boundary
from .solvers import NewtonSettings, solve_steady


@dataclass(frozen=True, eq=False)
class MMSCase:
    """Manufactured steady solution with its hand-derived source."""

    name: str
    theta_exact: object  # callable(x, y) -> K
    source: object  # callable(x, y) -> W/m^2
    conductivity: PropertyCurve
    h_T: float = 21.0
    theta_amb: float = 296.42
    with_channel: bool = False
    chi_flow_ml_per_min: float = 0.0


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    l2_error: float
    max_error: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    slope: float

    def __post_init__(self):
        hs = [r.h for r in self.rows]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("mesh sizes must be strictly decreasing in h")


_DOMAIN = Domain2D()
_D = _DOMAIN.thickness
_WIDE = (250.0, 500.0)


def mms_case_cmp(k: float = 2.0, b: float = 2000.0, theta_amb: float = 296.42, h_T: float = 21.0) -> MMSCase:
    """Bilinear field with constant conductivity.

    theta* = amb + b x y has zero Laplacian, so the source reduces to the
    convection term alone: f* = h_T b x y.
    """

    def theta_exact(x, y):
        return theta_amb + b * x * y

    def source(x, y):
        return h_T * b * x * y

    return MMSCase(
        name="cmp_bilinear",
        theta_exact=theta_exact,
        source=source,
        conductivity=constant_curve(k, _WIDE, "W/(m*K)"),
        h_T=h_T,
        theta_amb=theta_amb,
    )


def mms_case_tdmp(
    k0: float = 5.0, k1: float = 0.01, b: float = 500.0,
    theta_amb: float = 296.42, h_T: float = 21.0,
) -> MMSCase:
    """Quadratic field with conductivity linear in temperature.

    For theta* = amb + b (x^2 + y^2) and k_s = k0 + k1 theta,
      div(k_s grad theta*) = 4 b (k0 + k1 amb) + 8 k1 b^2 (x^2 + y^2),
    so f* = -d [4 b (k0 + k1 amb) + 8 k1 b^2 r^2] + h_T b r^2.
    """

    def theta_exact(x, y):
        return theta_amb + b * (x**2 + y**2)

    def source(x, y):
        r2 = x**2 + y**2
        return -_D * (4.0 * b * (k0 + k1 * theta_amb) + 8.0 * k1 * b**2 * r2) + h_T * b * r2

    return MMSCase(
        name="tdmp_quadratic",
        theta_exact=theta_exact,
        source=source,
        conductivity=PropertyCurve((k0, k1), _WIDE, "W/(m*K)"),
        h_T=h_T,
        theta_amb=theta_amb,
    )


def mms_case_cubic(
    k0: float = 5.0, k1: float = 0.01, b: float = 5.0e3,
    theta_amb: float = 296.42, h_T: float = 21.0,
) -> MMSCase:
    """Cubic field, outside the P2 space, for second-order-element rates.

    For theta* = amb + b (x^3 + y^3) and k_s = k0 + k1 theta,
      div(k_s grad theta*) = 6 b (x + y) k_s(theta*) + 9 k1 b^2 (x^4 + y^4),
    so f* = -d [6 b (x + y)(k0 + k1 theta*) + 9 k1 b^2 (x^4 + y^4)]
            + h_T b (x^3 + y^3).
    """

    def theta_exact(x, y):
        return theta_amb + b * (x**3 + y**3)

    def source(x, y):
        th = theta_exact(x, y)
        return -_D * (6.0 * b * (x + y) * (k0 + k1 * th) + 9.0 * k1 * b**2 * (x**4 + y**4)) \
            + h_T * b * (x**3 + y**3)

    return MMSCase(
        name="tdmp_cubic",
        theta_exact=theta_exact,
        source=source,
        conductivity=PropertyCurve((k0, k1), _WIDE, "W/(m*K)"),
        h_T=h_T,
        theta_amb=theta_amb,
    )


def mms_case_channel(
    k: float = 2.0, b: float = 2000.0, theta_amb: float = 296.42, h_T: float = 21.0
) -> MMSCase:
    """Straight mid-plane channel with a compatible exact field.

    theta* = amb + b (x - 1/2 w)^2 is constant along the channel at
    x = w/2, so grad theta* . t_hat = 0 there and the advective jump
    vanishes for the exact solution while the discrete channel machinery
    stays fully engaged. f* = -2 d k b + h_T b (x - w/2)^2.
    """
    xc = 0.5 * _DOMAIN.width

    def theta_exact(x, y):
        return theta_amb + b * (x - xc) ** 2

    def source(x, y):
        return -2.0 * _D * k * b + h_T * b * (x - xc) ** 2

    return MMSCase(
        name="channel_compatible",
        theta_exact=theta_exact,
        source=source,
        conductivity=constant_curve(k, _WIDE, "W/(m*K)"),
        h_T=h_T,
        theta_amb=theta_amb,
        with_channel=True,
        chi_flow_ml_per_min=1.0,
    )


def _mms_problem(case: MMSCase, n: int, element_order: int) -> ThermalProblem:
    grid = build_structured_mesh(_DOMAIN, n, element_order)
    if case.with_channel:
        path = VasculaturePath(np.array([[0.5 * _DOMAIN.width, _DOMAIN.height],
                                         [0.5 * _DOMAIN.width, 0.0]]))
        mesh = embed_vasculature(grid, path)
    else:
        mesh = mesh_without_channel(grid)
    mesh = tag_boundary(mesh, lambda x, y: DIRICHLET)
    solid = SolidMaterial(
        name=case.name,
        density=1600.0,
        specific_heat=constant_curve(900.0, _WIDE, "J/(kg*K)"),
        conductivity=case.conductivity,
    )
    coolant = (
        water_coolant(case.chi_flow_ml_per_min)
        if case.chi_flow_ml_per_min > 0
        else Coolant(1000.0, 4183.0, 0.0)
    )
    return ThermalProblem(
        mesh=mesh,
        solid=solid,
        coolant=coolant,
        load=lambda x, y, t: case.source(x, y),
        surface=SurfaceExchange(h_T=case.h_T, emissivity=0.0, theta_amb=case.theta_amb),
        bcs=BoundaryData(theta_inlet=case.theta_amb, theta_p=case.theta_exact, q_p=0.0),
    )


def _l2_and_max_error(mesh, theta_h: np.ndarray, exact) -> tuple[float, float]:
    """Quadrature L2 error (degree-4 rule) and nodal max error."""
    lam, w = TRI_RULE_DEG4
    N = tri_shape(mesh.element_order, lam)  # (nq, nen)
    corners = mesh.nodes[mesh.triangles[:, :3]]
    areas = 0.5 * np.abs(
        (corners[:, 1, 0] - corners[:, 0, 0]) * (corners[:, 2, 1] - corners[:, 0, 1])
        - (corners[:, 2, 0] - corners[:, 0, 0]) * (corners[:, 1, 1] - corners[:, 0, 1])
    )
    vals_e = theta_h[mesh.triangles]
    acc = 0.0
    for q in range(len(w)):
        xy = np.einsum("tic,i->tc", corners, lam[q])
        diff = vals_e @ N[q] - exact(xy[:, 0], xy[:, 1])
        acc += w[q] * np.sum(areas * diff**2)
    max_err = float(np.max(np.abs(theta_h - exact(mesh.nodes[:, 0], mesh.nodes[:, 1]))))
    return float(np.sqrt(acc)), max_err


def mms_convergence(case: MMSCase, mesh_sizes=(8, 16, 32, 64), element_order: int = 1) -> ConvergenceTable:
    """Solve the manufactured problem on each mesh and fit the L2 slope."""
    rows = []
    for n in mesh_sizes:
        problem = _mms_problem(case, n, element_order)
        fld = solve_steady(problem, NewtonSettings(abs_tol=1e-10, max_iters=40))
        l2, mx = _l2_and_max_error(problem.mesh, fld.values, case.theta_exact)
        h = float(np.hypot(_DOMAIN.width / n, _DOMAIN.height / n))
        rows.append(ConvergenceRow(h=h, l2_error=l2, max_error=mx))
    logh = np.log([r.h for r in rows])
    logl2 = np.log([max(r.l2_error, 1e-300) for r in rows])
    slope = float(np.polyfit(logh, logl2, 1)[0])
    return ConvergenceTable(rows=tuple(rows), slope=slope)


def toggle_masks() -> list[TermMask]:
    """The 16 on/off combinations of conduction/radiation/channel/mass."""
    masks = []
    for cond, rad, chan, mass in itertools.product((True, False), repeat=4):
        masks.append(TermMask(conduction=cond, radiation=rad, channel=chan, mass=mass))
    return masks


def jacobian_check(
    problem: ThermalProblem,
    trials: int = 5,
    terms: TermMask = ALL_TERMS,
    seed: int = 0,
    rate_dt: float = 1.0,
    theta_range: tuple[float, float] = (290.0, 420.0),
    fd_step: float = 1e-4,
) -> float:
    """Max relative Frobenius gap between assembled and FD Jacobians.

    Random states are projected onto the constraints first so the folded
    constraint columns stay exact derivatives. The mass term is probed
    with a backward-difference rate built from a second random state.
    """
    rng = np.random.default_rng(seed)
    n = problem.n_dofs
    constraints = problem.constrained_values()
    ids = np.fromiter(constraints.keys(), dtype=int) if constraints else np.empty(0, dtype=int)
    vals = np.fromiter((constraints[int(i)] for i in ids), dtype=float) if constraints else np.empty(0)
    worst = 0.0
    for _ in range(trials):
        theta = rng.uniform(*theta_range, size=n)
        theta[ids] = vals
        if terms.mass:
            prev = rng.uniform(*theta_range, size=n)
            rate = RateWeights(coeff=1.0 / rate_dt, rhs=-prev / rate_dt)
        else:
            rate = None
        base = apply_constraints(assemble_raw(problem, theta, rate=rate, terms=terms))
        J = base.jacobian.toarray()
        J_fd = np.empty_like(J)
        for j in range(n):
            h = fd_step * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            rp, rm = (
                apply_constraints(
                    assemble_raw(problem, state, rate=rate, terms=terms, jacobian=False)
                ).residual
                for state in (tp, tm)
            )
            J_fd[:, j] = (rp - rm) / (2.0 * h)
        denom = np.linalg.norm(J)
        gap = np.linalg.norm(J_fd - J) / denom if denom > 0 else np.linalg.norm(J_fd)
        worst = max(worst, float(gap))
    return worst


@dataclass(eq=False)
class ScalarReference:
    """RK4 trajectory of the uniform-field energy balance plus its root."""

    times: np.ndarray
    values: np.ndarray
    steady_root: float
    params: dict = field(default_factory=dict)

    def at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.values)


def scalar_steady_root(
    f0: float, h_T: float, emissivity: float, theta_amb: float,
    sigma: float = 5.67e-8, tol: float = 1e-10,
) -> float:
    """Bisection root of f0 = h_T (u - amb) + eps sigma (u^4 - amb^4)."""
    if h_T <= 0.0 and emissivity <= 0.0:
        raise ValueError("steady balance needs h_T > 0 or emissivity > 0")

    def g(u):
        return f0 - h_T * (u - theta_amb) - emissivity * sigma * (u**4 - theta_amb**4)

    lo = hi = theta_amb
    step = 1.0
    while g(hi) > 0.0:
        hi += step
        step *= 2.0
    step = 1.0
    while g(lo) < 0.0:
        lo = max(lo - step, 1e-12)
        step *= 2.0
        if lo <= 1e-12:
            break
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_reference(
    problem: ThermalProblem,
    t_end: float = 1500.0,
    dt: float = 0.01,
    sample_dt: float = 1.0,
) -> ScalarReference:
    """RK4 integration of d rho_s c_s(theta) dtheta/dt = f0 - sinks.

    Valid for spatially uniform scenarios: constant load, no active
    channel, adiabatic boundary, uniform initial state.
    """
    if callable(problem.load):
        raise ValueError("scalar reference needs a constant load")
    if problem.mesh.has_channel and problem.chi != 0.0:
        raise ValueError("scalar reference needs chi = 0 (no active channel)")
    if np.any(problem.mesh.boundary_tags == DIRICHLET):
        raise ValueError("scalar reference needs an all-neumann boundary")
    if not (np.isscalar(problem.bcs.q_p) and float(problem.bcs.q_p) == 0.0):
        raise ValueError("scalar reference needs q_p = 0")
    theta0 = problem.initial_field().values
    if np.ptp(theta0) != 0.0:
        raise ValueError("scalar reference needs a uniform initial state")

    f0 = float(problem.load)
    surf = problem.surface
    d = problem.mesh.domain.thickness
    rho = problem.solid.density
    c_curve = problem.solid.specific_heat
    # plain-float Horner keeps the long RK4 loop cheap
    c_lo, c_hi = c_curve.valid_range
    c_coeffs = c_curve.coefficients[::-1]
    h_T, es, amb4 = surf.h_T, surf.emissivity * surf.sigma, surf.theta_amb**4
    amb, drho = surf.theta_amb, d * rho

    def rhs(u):
        t = min(max(u, c_lo), c_hi)
        c = 0.0
        for coef in c_coeffs:
            c = c * t + coef
        return (f0 - h_T * (u - amb) - es * (u**4 - amb4)) / (drho * c)

    n_steps = int(round(t_end / dt))
    stride = max(1, int(round(sample_dt / dt)))
    u = float(theta0[0])
    times = [0.0]
    values = [u]
    for k in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if k % stride == 0:
            times.append(k * dt)
            values.append(u)
    root = scalar_steady_root(f0, surf.h_T, surf.emissivity, surf.theta_amb, surf.sigma)
    return ScalarReference(
        times=np.array(times),
        values=np.array(values),
        steady_root=root,
        params={"f0": f0, "h_T": surf.h_T, "emissivity": surf.emissivity,
                "theta_amb": surf.theta_amb, "dt": dt},
    )
