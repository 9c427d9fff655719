"""Conforming triangulation with an embedded channel edge chain.

A uniform grid of right triangles (fixed diagonal per cell, so assembly
order is reproducible) discretizes the rectangle. The vasculature is
snapped onto grid nodes and realized as a chain of element edges, which
is what makes the channel line integral assemblable edge-by-edge.
Second-order elements add shared midside nodes on every edge.

ChannelMesh is the one mesh type: build_structured_mesh gives it with no
channel and all-neumann tags, embed_vasculature and mesh_without_channel
set only its channel fields, and tag_boundary only its tags.

Numbering contract: corners and cells run row by row from the lower left,
and midside nodes follow the corners in the order the triangles first use
them. Every output file and run-to-run determinism depend on it. LU fill
does not: the Newton system numbers its DOFs in the nested-dissection
order of nested_dissection, which reads node coordinates, not ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Domain2D, VasculaturePath

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Most subdivisions per direction: four times the finest benchmark mesh
# (n=160). It bounds what a scenario can ask to allocate; it is not a setting.
MAX_MESH_N = 640


@dataclass(frozen=True, eq=False)
class ChannelMesh:
    """Triangulation of the domain whose edge subset realizes the channel.

    Corner (ix, iy) of the n x n grid is node iy*(n+1) + ix. channel_nodes
    is the ordered corner-node chain from inlet to outlet, empty without a
    channel; tangents/lengths describe each chain edge in flow direction.
    For second-order elements channel_mids holds the midside node of each
    chain edge. boundary_tags partition the boundary into dirichlet and
    neumann pieces. Every array is read-only: the mesh keys its assembly
    plan, so it must not change under the plan.
    """

    domain: Domain2D
    n: int
    element_order: int
    nodes: np.ndarray = field(repr=False)
    triangles: np.ndarray = field(repr=False)
    boundary_edges: np.ndarray = field(repr=False)
    boundary_tags: np.ndarray = field(repr=False)
    channel_nodes: np.ndarray = field(repr=False)
    channel_mids: np.ndarray = field(repr=False)
    channel_tangents: np.ndarray = field(repr=False)
    channel_lengths: np.ndarray = field(repr=False)
    inlet_node: int | None
    outlet_node: int | None
    snap_error: float

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def has_channel(self) -> bool:
        return self.channel_nodes.size > 0

    def channel_arc_coords(self) -> np.ndarray:
        """Arc-length s of every chain node, starting at 0 at the inlet."""
        return np.concatenate([[0.0], np.cumsum(self.channel_lengths)])

    def channel_edges(self) -> np.ndarray:
        """(E, k) node ids per chain edge in flow order: (a, b) for P1, (a, b, mid) for P2."""
        a, b = self.channel_nodes[:-1], self.channel_nodes[1:]
        if self.element_order == 1:
            return np.column_stack([a, b])
        return np.column_stack([a, b, self.channel_mids])

    def dirichlet_nodes(self) -> np.ndarray:
        """Unique node ids on dirichlet-tagged boundary edges (midside included)."""
        return np.unique(self.boundary_edges[self.boundary_tags == DIRICHLET].ravel())


@dataclass(frozen=True)
class MeshStats:
    n_nodes: int
    n_triangles: int
    h_max: float  # m
    total_area: float  # m^2


def structured_node_count(n: int, element_order: int = 1) -> int:
    """Nodes of build_structured_mesh(domain, n, element_order): corners and midsides form an (order n + 1)^2 grid."""
    return (element_order * n + 1) ** 2


def build_structured_mesh(domain: Domain2D, n: int, element_order: int = 1) -> ChannelMesh:
    """(n+1)^2 corner nodes, 2n^2 right triangles (fixed lower-left diagonal), all-neumann, no channel.

    Cells run row by row from the lower left; the cell with lower-left
    corner c gives (c, c+1, c+n+2) and then (c, c+n+2, c+n+1). Second-order
    elements number their midside nodes after the corners, in the order in
    which a scan of the triangles' edges (a, b), (b, c), (c, a) first meets them.
    """
    if not 2 <= n <= MAX_MESH_N:
        raise ValueError(f"need 2 to {MAX_MESH_N} subdivisions per direction, got {n}")
    if element_order not in (1, 2):
        raise ValueError("element_order must be 1 or 2")
    hx, hy = domain.width / n, domain.height / n
    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    nodes = np.column_stack([(ix * hx).ravel(), (iy * hy).ravel()])

    side = np.arange(n)
    ll = ((n + 1) * side[:, None] + side).ravel()
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    triangles = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    # counter-clockwise from the origin: bottom, right, top, left
    ring = np.concatenate([side, n + (n + 1) * side, (n + 1) ** 2 - 1 - side, (n - side) * (n + 1)])
    boundary_edges = np.column_stack([ring, np.roll(ring, -1)])

    if element_order == 2:
        corners = triangles[:, _EDGE_CORNERS].reshape(-1, 2)
        keys = _edge_keys(corners, len(nodes))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        used = np.sort(first)  # where each edge is first met, in scan order
        mids = len(nodes) + np.searchsorted(used, first)[inverse]
        ends = nodes[corners[used]]
        triangles = np.column_stack([triangles, mids.reshape(-1, 3)])
        nodes = np.vstack([nodes, 0.5 * (ends[:, 0] + ends[:, 1])])
        boundary_edges = np.column_stack([boundary_edges, _midside_nodes(triangles, boundary_edges)])
    tags = np.full(len(boundary_edges), NEUMANN, dtype=object)
    return ChannelMesh(domain, n, element_order, nodes, triangles, boundary_edges, tags,
                       **_channel_fields(nodes, triangles, np.empty(0, dtype=int), 0.0))


# Corner columns of a triangle's edges (a, b), (b, c), (c, a): the edges whose
# midside nodes a P2 triangle holds in its columns 3, 4 and 5.
_EDGE_CORNERS = [0, 1, 1, 2, 2, 0]


def _edge_keys(pairs: np.ndarray, size: int) -> np.ndarray:
    """One integer per undirected edge (a, b) of nodes numbered below size."""
    a, b = pairs[:, 0], pairs[:, 1]
    return np.minimum(a, b) * size + np.maximum(a, b)


def _midside_nodes(triangles: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Midside node of each corner edge (a, b), in either direction, read off P2 triangles."""
    size = int(triangles.max()) + 1
    keys = _edge_keys(triangles[:, _EDGE_CORNERS].reshape(-1, 2), size)
    order = np.argsort(keys, kind="stable")
    found = order[np.searchsorted(keys, _edge_keys(edges, size), sorter=order)]
    return triangles[:, 3:].ravel()[found]


def _snap_index(value: float, h: float, n: int) -> int:
    return int(min(max(round(value / h), 0), n))


def embed_vasculature(mesh: ChannelMesh, path: VasculaturePath) -> ChannelMesh:
    """mesh with its channel along path, snapped onto grid nodes and traced as an edge chain.

    Only the channel fields change: a channel mesh already holds is
    dropped, its boundary tags are kept. Every vertex must lie in the
    domain, to 1e-12 m. Vertices snap to the nearest grid node (reported
    error is at most half a cell); the snapped geometry replaces the
    requested path everywhere downstream, including arc lengths. The path
    is simple and axis-aligned (VasculaturePath checks that), but snapping
    can still collapse it to one node, tilt a segment up to 1e-12 m off its
    axis by rounding its ends apart, fold it back onto itself or move an
    end off the boundary; each is refused.
    """
    if not mesh.domain.contains(path.vertices):
        raise ValueError("channel path leaves the domain: every vertex must lie on the plate")
    n, hx, hy = mesh.n, mesh.domain.width / mesh.n, mesh.domain.height / mesh.n
    snapped = []
    snap_error = 0.0
    for x, y in path.vertices:
        ix, iy = _snap_index(x, hx, n), _snap_index(y, hy, n)
        snap_error = max(snap_error, float(np.hypot(ix * hx - x, iy * hy - y)))
        if not snapped or snapped[-1] != (ix, iy):
            snapped.append((ix, iy))
    if len(snapped) < 2:
        raise ValueError("path collapses to a single node at this resolution")

    chain: list[int] = [snapped[0][1] * (n + 1) + snapped[0][0]]
    for (ix0, iy0), (ix1, iy1) in zip(snapped[:-1], snapped[1:]):
        if ix0 != ix1 and iy0 != iy1:
            raise ValueError("snapped path segment is not axis-aligned")
        dx = np.sign(ix1 - ix0)
        dy = np.sign(iy1 - iy0)
        ix, iy = ix0, iy0
        while (ix, iy) != (ix1, iy1):
            ix, iy = ix + dx, iy + dy
            chain.append(iy * (n + 1) + ix)
    if len(set(chain)) != len(chain):
        raise ValueError("snapped path self-overlaps")

    for label, (ix, iy) in (("inlet", snapped[0]), ("outlet", snapped[-1])):
        if not {ix, iy} & {0, n}:
            raise ValueError(f"channel {label} does not lie on the domain boundary")

    return replace(mesh, **_channel_fields(mesh.nodes, mesh.triangles, np.array(chain, dtype=int), snap_error))


def mesh_without_channel(mesh: ChannelMesh) -> ChannelMesh:
    """mesh with its channel removed (so no inlet constraint); boundary tags are kept."""
    return replace(mesh, **_channel_fields(mesh.nodes, mesh.triangles, np.empty(0, dtype=int), 0.0))


def _channel_fields(nodes: np.ndarray, triangles: np.ndarray, chain: np.ndarray, snap_error: float) -> dict:
    """ChannelMesh's channel fields for a channel along the corner ids of chain, inlet first (none if empty)."""
    vecs = np.diff(nodes[chain], axis=0)
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    if chain.size and triangles.shape[1] == 6:  # P2; without a chain, skip the sort of every edge
        mids = _midside_nodes(triangles, np.column_stack([chain[:-1], chain[1:]]))
    else:
        mids = np.empty(0, dtype=int)
    ends = (int(chain[0]), int(chain[-1])) if chain.size else (None, None)
    return dict(channel_nodes=chain, channel_mids=mids, channel_tangents=vecs / lengths[:, None],
                channel_lengths=lengths, inlet_node=ends[0], outlet_node=ends[1], snap_error=snap_error)


def tag_boundary(mesh: ChannelMesh, spec) -> ChannelMesh:
    """Assign dirichlet/neumann tags to every boundary edge.

    spec is a callable mapping an edge midpoint (x, y) to a tag string. A
    mesh starts all-neumann (adiabatic lateral boundary with q_p = 0).
    """
    tags = []
    for edge in mesh.boundary_edges:
        mid = 0.5 * (mesh.nodes[edge[0]] + mesh.nodes[edge[1]])
        tag = spec(mid[0], mid[1])
        if tag not in (DIRICHLET, NEUMANN):
            raise ValueError(
                f"boundary spec returned {tag!r} at {tuple(mid)}; each edge "
                f"needs exactly one of '{DIRICHLET}'/'{NEUMANN}'"
            )
        tags.append(tag)
    return replace(mesh, boundary_tags=np.array(tags, dtype=object))


# nested_dissection cuts no box of at most this many grid points.
ND_LEAF_POINTS = 8


def nested_dissection(mesh) -> np.ndarray:
    """Every node id once, in nested-dissection elimination order (George 1973, SIAM J. Numer. Anal. 10:345).

    Nodes sit on the grid of spacing (hx, hy) / element_order: node (x, y)
    has grid index rint((x / (hx / order), y / (hy / order))). Starting
    from the whole grid, a box of more than ND_LEAF_POINTS points is cut
    along its longer side (x on a tie; the other side if that one holds
    none) at the corner grid line nearest its middle (the upper one on a
    tie). The order lists the part below the cut, then the part above it,
    then the cut line. A corner line is a vertex separator for P1 and P2:
    no triangle or channel edge crosses it, so no node on one side shares
    a triangle or a chain edge with a node on the other, and eliminating
    either side fills nothing in the other. Leaves and cut lines list
    their points row by row. Boxes of one size and phase against the
    corner lines dissect alike, so each such box is dissected once and
    shifted into place.
    """
    k = mesh.element_order
    m = k * mesh.n  # grid intervals per direction
    spacing = np.array([mesh.domain.width, mesh.domain.height]) / m
    ix, iy = np.rint(mesh.nodes / spacing).astype(np.int64).T
    grid_id = iy * (m + 1) + ix
    node_at = np.full((m + 1) ** 2, -1, dtype=np.int64)
    on_grid = (ix >= 0) & (ix <= m) & (iy >= 0) & (iy <= m)
    node_at[grid_id[on_grid]] = np.flatnonzero(on_grid)
    if np.count_nonzero(node_at >= 0) != len(grid_id):
        raise ValueError("nested dissection needs every node on its own point of the element grid")

    @functools.cache
    def dissect(wx: int, wy: int, px: int, py: int) -> tuple[np.ndarray, np.ndarray]:
        """Offsets (dx, dy), in order, of a wx x wy box's points from its low corner.

        The low corner lies px, py grid points past a corner line.
        """
        cx = k * ((2 * px + wx - 1 + k) // (2 * k)) - px  # the corner lines nearest the middle, as offsets
        cy = k * ((2 * py + wy - 1 + k) // (2 * k)) - py
        cut_x, cut_y = 0 < cx < wx - 1, 0 < cy < wy - 1
        if wx * wy <= ND_LEAF_POINTS or not (cut_x or cut_y):
            dy, dx = np.divmod(np.arange(wx * wy), wx)
            return dx, dy
        if cut_x and (wx >= wy or not cut_y):  # the part above the cut starts one past a corner line
            below, above = dissect(cx, wy, px, py), dissect(wx - cx - 1, wy, 1 % k, py)
            return (np.concatenate([below[0], above[0] + cx + 1, np.full(wy, cx)]),
                    np.concatenate([below[1], above[1], np.arange(wy)]))
        below, above = dissect(wx, cy, px, py), dissect(wx, wy - cy - 1, px, 1 % k)
        return (np.concatenate([below[0], above[0], np.arange(wx)]),
                np.concatenate([below[1], above[1] + cy + 1, np.full(wx, cy)]))

    dx, dy = dissect(m + 1, m + 1, 0, 0)
    nodes = node_at[dy * (m + 1) + dx]
    return nodes[nodes >= 0]


def triangle_areas(mesh) -> np.ndarray:
    """Signed area of every triangle from its corners: positive when CCW."""
    p = mesh.nodes[mesh.triangles[:, :3]]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def mesh_stats(mesh: ChannelMesh) -> MeshStats:
    p = mesh.nodes[mesh.triangles[:, :3]]
    edges = np.stack([
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
    ])
    return MeshStats(
        n_nodes=mesh.n_nodes,
        n_triangles=len(mesh.triangles),
        h_max=float(edges.max()),
        total_area=float(np.sum(np.abs(triangle_areas(mesh)))),
    )
