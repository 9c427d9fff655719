"""Domain and vasculature geometry.

The coolant channel is a simple axis-aligned polyline, parameterized by
arc length with the inlet at s = 0; VasculaturePath refuses any other.
Layout generators emit such polylines (U-shape, serpentine, asymmetric
U) with their endpoints on the domain boundary, so they can later be
embedded exactly into a structured triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .materials import check_finite

LAYOUT_KINDS = ("u_shape", "serpentine", "asymmetric")


@dataclass(frozen=True)
class Domain2D:
    """Thin rectangular mid-surface with out-of-plane thickness d."""

    width: float = 0.1  # m
    height: float = 0.1  # m
    thickness: float = 0.005  # m

    def __post_init__(self):
        check_finite(self, "width", "height", "thickness")
        if min(self.width, self.height, self.thickness) <= 0:
            raise ValueError("domain dimensions must be positive")

    def contains(self, points: np.ndarray) -> bool:
        """Whether every point of points (m, 2) lies in the closed rectangle, to 1e-12 m."""
        x, y = points[:, 0], points[:, 1]
        return not (np.any(x < -1e-12) or np.any(x > self.width + 1e-12)
                    or np.any(y < -1e-12) or np.any(y > self.height + 1e-12))


@dataclass(frozen=True, eq=False)
class VasculaturePath:
    """Simple axis-aligned polyline; first vertex is the inlet (s = 0), last the outlet.

    Each segment is horizontal or vertical: a segment whose |dx| and |dy|
    both exceed 1e-12 m is refused. No two non-adjacent segments may meet,
    so a path that crosses, touches or overlaps itself, or ends where it
    began, is refused. embed_vasculature refuses what snapping then folds
    back or collapses.
    """

    vertices: np.ndarray = field(repr=False)  # (m, 2) in meters

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("path needs at least two 2D vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("VasculaturePath.vertices must be finite")
        seg = np.diff(v, axis=0)
        if np.any(np.all(seg == 0.0, axis=1)):
            raise ValueError("consecutive path vertices must be distinct")
        if np.any(np.all(np.abs(seg) > 1e-12, axis=1)):
            raise ValueError("path must be axis-aligned to embed in a structured grid")
        # An axis-aligned segment is its own bounding box, so two segments meet
        # exactly when their closed boxes overlap. Adjacent ones share a vertex.
        lo, hi = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
        for i in range(len(seg) - 2):
            meets = np.all((lo[i + 2:] <= hi[i]) & (lo[i] <= hi[i + 2:]), axis=1)
            if meets.any():
                j = i + 2 + int(np.argmax(meets))
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
        check_finite(self, "spacing", "margin", "offset")
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
