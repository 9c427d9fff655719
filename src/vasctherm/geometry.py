"""Domain and vasculature geometry.

The coolant channel is an arc-length-parameterized polyline with the
inlet at s = 0. Layout generators emit axis-aligned polylines (U-shape,
serpentine, asymmetric U) whose endpoints sit on the domain boundary, so
they can later be embedded exactly into a structured triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LAYOUT_KINDS = ("u_shape", "serpentine", "asymmetric")


@dataclass(frozen=True)
class Domain2D:
    """Thin rectangular mid-surface with out-of-plane thickness d."""

    width: float = 0.1  # m
    height: float = 0.1  # m
    thickness: float = 0.005  # m

    def __post_init__(self):
        if min(self.width, self.height, self.thickness) <= 0:
            raise ValueError("domain dimensions must be positive")

    def contains(self, points: np.ndarray) -> bool:
        """Whether every point of points (m, 2) lies in the closed rectangle, to 1e-12 m."""
        x, y = points[:, 0], points[:, 1]
        return not (np.any(x < -1e-12) or np.any(x > self.width + 1e-12)
                    or np.any(y < -1e-12) or np.any(y > self.height + 1e-12))


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _segments_intersect(p, q, r, s):
    """Proper or improper intersection of segments pq and rs."""
    d1 = _cross2(q - p, r - p)
    d2 = _cross2(q - p, s - p)
    d3 = _cross2(s - r, p - r)
    d4 = _cross2(s - r, q - r)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a, b, c):
        return (
            abs(_cross2(b - a, c - a)) < 1e-14
            and min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
            and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14
        )

    return on_seg(p, q, r) or on_seg(p, q, s) or on_seg(r, s, p) or on_seg(r, s, q)


@dataclass(frozen=True, eq=False)
class VasculaturePath:
    """Ordered polyline; first vertex is the inlet (s = 0), last the outlet."""

    vertices: np.ndarray = field(repr=False)  # (m, 2) in meters

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("path needs at least two 2D vertices")
        seg = np.diff(v, axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(lengths == 0.0):
            raise ValueError("consecutive path vertices must be distinct")
        # adjacent segments share an endpoint; test all non-adjacent pairs
        for i in range(len(seg)):
            for j in range(i + 2, len(seg)):
                if i == 0 and j == len(seg) - 1 and np.allclose(v[0], v[-1]):
                    raise ValueError("path is closed (inlet equals outlet)")
                if _segments_intersect(v[i], v[i + 1], v[j], v[j + 1]):
                    raise ValueError(f"path self-intersects (segments {i} and {j})")
        object.__setattr__(self, "vertices", v)

    def reversed(self) -> "VasculaturePath":
        """Flow-reversal transform: swap inlet and outlet."""
        return VasculaturePath(self.vertices[::-1].copy())


@dataclass(frozen=True)
class LayoutParams:
    """Parameters for the built-in layout generators.

    spacing is the in-plane leg/pass separation s_v, margin the clearance
    from the domain boundary used by bottom legs and serpentine links,
    offset shifts the asymmetric U sideways (0 recovers u_shape), and
    pass_count only applies to serpentine layouts.
    """

    kind: str = "u_shape"
    spacing: float = 0.03  # m
    margin: float = 0.02  # m
    pass_count: int = 4
    offset: float = 0.0  # m, asymmetric only
    inlet_edge: str = "top"

    def __post_init__(self):
        if self.kind not in LAYOUT_KINDS:
            raise ValueError(f"kind must be one of {LAYOUT_KINDS}, got {self.kind!r}")
        if self.spacing <= 0 or self.margin <= 0:
            raise ValueError("spacing and margin must be positive")
        if self.kind == "serpentine" and self.pass_count < 1:
            raise ValueError("serpentine needs pass_count >= 1")
        if self.inlet_edge not in ("top", "bottom"):
            raise ValueError("inlet_edge must be 'top' or 'bottom'")


def _check_inside(domain: Domain2D, verts: np.ndarray, kind: str):
    if not domain.contains(verts):
        raise ValueError(f"{kind} layout leaves the domain; adjust spacing/margin/offset")
    interior = verts[1:-1]
    if len(interior) and (
        np.any(interior[:, 0] <= 0) or np.any(interior[:, 0] >= domain.width)
        or np.any(interior[:, 1] <= 0) or np.any(interior[:, 1] >= domain.height)
    ):
        raise ValueError(f"{kind} layout touches the boundary away from inlet/outlet")


def generate_layout(domain: Domain2D, params: LayoutParams) -> VasculaturePath:
    """Axis-aligned polyline for one of the three canonical layouts.

    u_shape: down one leg, across the bottom, up the other leg.
    serpentine: pass_count vertical passes joined by horizontal links
    (pass_count=1 degenerates to a single straight channel).
    asymmetric: a U whose legs sit at unequal offsets from the centerline
    (offset=0 reproduces u_shape exactly).
    """
    w, h = domain.width, domain.height
    cx = 0.5 * w
    if params.kind in ("u_shape", "asymmetric"):
        off = params.offset if params.kind == "asymmetric" else 0.0
        x_left = cx - 0.5 * params.spacing + off
        x_right = cx + 0.5 * params.spacing + off
        y_bottom = params.margin
        verts = np.array([
            [x_left, h],
            [x_left, y_bottom],
            [x_right, y_bottom],
            [x_right, h],
        ])
    else:
        p = params.pass_count
        if (p - 1) * params.spacing >= w:  # before the passes are built: p may be huge
            raise ValueError(f"serpentine leaves the plate: {p} passes {params.spacing} m apart "
                             f"span at least its width {w} m")
        xs = cx + (np.arange(p) - 0.5 * (p - 1)) * params.spacing
        y_lo, y_hi = params.margin, h - params.margin
        verts = [[xs[0], h]]
        if p == 1:
            verts.append([xs[0], 0.0])
        else:
            for i in range(p):
                going_down = i % 2 == 0
                if i > 0:
                    # horizontal link at the level where the previous pass ended
                    verts.append([xs[i], y_hi if going_down else y_lo])
                if i == p - 1:
                    verts.append([xs[i], 0.0 if going_down else h])
                else:
                    verts.append([xs[i], y_lo if going_down else y_hi])
        verts = np.array(verts, dtype=float)

    if params.inlet_edge == "bottom":
        verts = verts.copy()
        verts[:, 1] = h - verts[:, 1]
    _check_inside(domain, verts, params.kind)
    return VasculaturePath(verts)


def arc_length(path: VasculaturePath) -> float:
    """Total length of the polyline (m)."""
    seg = np.diff(path.vertices, axis=0)
    return float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
