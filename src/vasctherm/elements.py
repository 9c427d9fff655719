"""Lagrange triangle basis and quadrature shared by assembly and postprocessing.

P1 uses the 3-point midpoint rule (degree 2), P2 the 6-point rule
(degree 4). build_basis tabulates a mesh's basis at the quadrature
points and its shape gradients at the gradient points (ElementBasis); it
caches nothing, and the mesh's assembly plan (assembly.plan_for) holds
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import triangle_areas

# barycentric quadrature rules: (points (nq, 3), weights (nq,) summing to 1)
TRI_RULE_DEG2 = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1.0, 1.0, 1.0]) / 3.0,
)

_a1, _b1 = 0.445948490915965, 0.108103018168070
_a2, _b2 = 0.091576213509771, 0.816847572980459
TRI_RULE_DEG4 = (
    np.array([
        [_a1, _a1, _b1], [_a1, _b1, _a1], [_b1, _a1, _a1],
        [_a2, _a2, _b2], [_a2, _b2, _a2], [_b2, _a2, _a2],
    ]),
    np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
)

GAUSS_1D_1 = (np.array([0.0]), np.array([2.0]))
GAUSS_1D_2 = (np.array([-1.0, 1.0]) / np.sqrt(3.0), np.array([1.0, 1.0]))


def tri_shape(order: int, lam: np.ndarray) -> np.ndarray:
    """Shape values at barycentric points lam (nq, 3) -> (nq, nen)."""
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    if order == 1:
        return np.column_stack([l1, l2, l3])
    return np.column_stack([
        l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
        4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1,
    ])


def edge_shape(order: int, xi: np.ndarray):
    """Edge shape values and d/dxi on [-1, 1]; nodes (a, b[, mid])."""
    if order == 1:
        N = np.column_stack([0.5 * (1 - xi), 0.5 * (1 + xi)])
        dN = np.column_stack([-0.5 * np.ones_like(xi), 0.5 * np.ones_like(xi)])
    else:
        N = np.column_stack([0.5 * xi * (xi - 1), 0.5 * xi * (xi + 1), 1 - xi**2])
        dN = np.column_stack([xi - 0.5, xi + 0.5, -2 * xi])
    return N, dN


@dataclass(eq=False)
class ElementBasis:
    """Per-mesh shape values at the quadrature points, shape gradients at the gradient points.

    P1 gradients are constant, so P1 has one gradient point per triangle;
    P2 uses its quadrature points. gp_map[q, g] = 1 where point q takes its
    gradient from gradient point g: all ones for P1, the identity for P2.
    The tables that assembly reads per triangle (qp_dA, gp_gradN) hold the
    triangle index last, as the long contiguous axis, so each element-local
    sum runs over whole-mesh rows. The arrays are read-only.
    """

    areas: np.ndarray  # (T,)
    qp_weights: np.ndarray  # (nq,)
    qp_N: np.ndarray  # (nq, nen)
    qp_dA: np.ndarray = field(repr=False)  # (nq, T): rule weights times areas
    qp_xy: np.ndarray = field(repr=False)  # (nq, T, 2)
    lam_grad: np.ndarray = field(repr=False)  # (T, 3, 2): barycentric gradients
    gp_map: np.ndarray = field(repr=False)  # (nq, ng)
    gp_dNdlam: np.ndarray = field(repr=False)  # (ng, nen, 3): dN_i/dlambda_a
    gp_gradN: np.ndarray = field(repr=False)  # (ng, 2, nen, T)


def _grad_lambda(corners: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Barycentric gradients per triangle -> (T, 3, 2)."""
    x, y = corners[..., 0], corners[..., 1]
    g = np.empty(corners.shape)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = y[:, j] - y[:, k]
        g[:, i, 1] = x[:, k] - x[:, j]
    return g / (2.0 * areas)[:, None, None]


def grad_shape(order: int, lam_point, glam: np.ndarray) -> np.ndarray:
    """Shape gradients at one barycentric point from glam = grad lambda (T, 3, c) -> (T, nen, c)."""
    if order == 1:
        return glam
    l1, l2, l3 = lam_point
    out = np.empty((glam.shape[0], 6, glam.shape[2]))
    out[:, 0] = (4 * l1 - 1) * glam[:, 0]
    out[:, 1] = (4 * l2 - 1) * glam[:, 1]
    out[:, 2] = (4 * l3 - 1) * glam[:, 2]
    out[:, 3] = 4 * (l1 * glam[:, 1] + l2 * glam[:, 0])
    out[:, 4] = 4 * (l2 * glam[:, 2] + l3 * glam[:, 1])
    out[:, 5] = 4 * (l3 * glam[:, 0] + l1 * glam[:, 2])
    return out


def build_basis(mesh) -> ElementBasis:
    corners = mesh.nodes[mesh.triangles[:, :3]]
    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        raise ValueError("triangles must be CCW with positive area")
    glam = _grad_lambda(corners, areas)

    order = mesh.element_order
    lam, w = TRI_RULE_DEG2 if order == 1 else TRI_RULE_DEG4
    gp_lam, gp_map = (lam[:1], np.ones((len(w), 1))) if order == 1 else (lam, np.eye(len(w)))
    dNdlam = np.stack([grad_shape(order, g, np.eye(3)[None])[0] for g in gp_lam])  # grad lambda = I: dN/dlambda
    basis = ElementBasis(
        areas=areas, qp_weights=w, qp_N=tri_shape(order, lam),
        qp_dA=w[:, None] * areas, qp_xy=np.stack([np.einsum("tic,i->tc", corners, q) for q in lam]),
        lam_grad=glam, gp_map=gp_map, gp_dNdlam=dNdlam,
        gp_gradN=np.einsum("gia,tac->gcit", dNdlam, glam, order="C"),
    )
    for a in vars(basis).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return basis
