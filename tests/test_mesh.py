import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vasctherm.assembly import ThermalProblem
from vasctherm.cli import export_mesh_csv
from vasctherm.geometry import Domain2D, LayoutParams, VasculaturePath, arc_length, generate_layout
from vasctherm.materials import Coolant, builtin_material
from vasctherm.mesh import (
    DIRICHLET,
    NEUMANN,
    ChannelMesh,
    build_structured_mesh,
    embed_vasculature,
    mesh_stats,
    mesh_without_channel,
    structured_node_count,
    tag_boundary,
    triangle_areas,
)
from vasctherm.solvers import solve_steady

DOM = Domain2D()


def test_grid_counts_n2():
    grid = build_structured_mesh(DOM, 2)
    assert len(grid.nodes) == 9
    assert len(grid.triangles) == 8
    mesh = mesh_without_channel(grid)
    stats = mesh_stats(mesh)
    assert stats.total_area == pytest.approx(0.01)


@pytest.mark.parametrize("order", [1, 2])
def test_mesh_arrays_are_read_only(order):
    # the mesh keys its assembly plan: an array changed after a solve would disagree with the plan
    grid = build_structured_mesh(DOM, 4, order)
    channel = embed_vasculature(grid, generate_layout(DOM, LayoutParams()))
    fields = {f.name: getattr(channel, f.name) for f in dataclasses.fields(ChannelMesh)}
    by_hand = ChannelMesh(**{name: np.array(v) if isinstance(v, np.ndarray) else v for name, v in fields.items()})
    meshes = [grid, channel, mesh_without_channel(channel), tag_boundary(channel, lambda x, y: DIRICHLET), by_hand]
    for mesh in meshes:
        arrays = {f.name: getattr(mesh, f.name) for f in dataclasses.fields(mesh)
                  if isinstance(getattr(mesh, f.name), np.ndarray)}
        assert len(arrays) == 8
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            mesh.nodes[:] *= 2
        assert mesh_stats(mesh).total_area == pytest.approx(0.01)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_structured_node_count_matches_the_grid(n, order):
    assert structured_node_count(n, order) == len(build_structured_mesh(DOM, n, order).nodes)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_h_max_and_area_independent_of_n(n):
    mesh = mesh_without_channel(build_structured_mesh(DOM, n))
    stats = mesh_stats(mesh)
    assert stats.h_max == pytest.approx((0.1 / n) * np.sqrt(2.0))
    assert stats.total_area == pytest.approx(DOM.width * DOM.height, rel=1e-12)


def test_grid_rejects_tiny_n_and_bad_order():
    with pytest.raises(ValueError):
        build_structured_mesh(DOM, 1)
    with pytest.raises(ValueError):
        build_structured_mesh(DOM, 4, element_order=3)


def test_straight_vertical_channel_edge_count():
    n = 10
    grid = build_structured_mesh(DOM, n)
    mesh = embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]])))
    assert len(mesh.channel_lengths) == n
    assert mesh.inlet_node == mesh.channel_nodes[0]
    assert mesh.outlet_node == mesh.channel_nodes[-1]
    assert np.allclose(mesh.channel_tangents, [0.0, -1.0])
    assert np.all(triangle_areas(mesh) > 0)  # counter-clockwise, non-degenerate


def test_u_shape_snaps_exactly_on_n20():
    grid = build_structured_mesh(DOM, 20)  # h = 5 mm divides all layout coordinates
    path = generate_layout(DOM, LayoutParams(kind="u_shape", spacing=0.03, margin=0.02))
    mesh = embed_vasculature(grid, path)
    assert mesh.snap_error == 0.0
    assert np.sum(mesh.channel_lengths) == pytest.approx(0.19)
    assert arc_length(VasculaturePath(mesh.nodes[mesh.channel_nodes])) == pytest.approx(0.19)


def test_snap_error_reported_within_half_cell():
    grid = build_structured_mesh(DOM, 7)  # 0.035 etc. not on grid lines
    path = generate_layout(DOM, LayoutParams(kind="u_shape", spacing=0.03, margin=0.02))
    mesh = embed_vasculature(grid, path)
    h = 0.1 / 7
    assert 0.0 < mesh.snap_error <= np.hypot(h / 2, h / 2) + 1e-15


def test_chain_lengths_sum_to_snapped_arclength():
    grid = build_structured_mesh(DOM, 20)
    path = generate_layout(DOM, LayoutParams(kind="serpentine", spacing=0.02, pass_count=4))
    mesh = embed_vasculature(grid, path)
    assert np.sum(mesh.channel_lengths) == pytest.approx(
        arc_length(VasculaturePath(mesh.nodes[mesh.channel_nodes])))
    s = mesh.channel_arc_coords()
    assert s[0] == 0.0 and np.all(np.diff(s) > 0)


def test_reversed_path_reverses_chain_and_tangents():
    grid = build_structured_mesh(DOM, 20)
    path = generate_layout(DOM, LayoutParams(kind="u_shape"))
    fwd = embed_vasculature(grid, path)
    rev = embed_vasculature(grid, path.reversed())
    assert np.array_equal(rev.channel_nodes, fwd.channel_nodes[::-1])
    assert np.allclose(rev.channel_tangents, -fwd.channel_tangents[::-1])
    assert rev.inlet_node == fwd.outlet_node and rev.outlet_node == fwd.inlet_node


def test_embed_rejects_interior_endpoint():
    grid = build_structured_mesh(DOM, 10)
    with pytest.raises(ValueError, match="boundary"):
        embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.05]])))


def test_embed_rejects_snapped_overlap():
    grid = build_structured_mesh(DOM, 10)  # h = 1 cm; the two legs below collapse
    verts = np.array([[0.048, 0.1], [0.048, 0.02], [0.052, 0.02], [0.052, 0.1]])
    with pytest.raises(ValueError, match="overlap"):
        embed_vasculature(grid, VasculaturePath(verts))


def test_embed_rejects_path_collapsing_to_one_node():
    grid = build_structured_mesh(DOM, 10)  # h = 1 cm; both ends snap to (0.05, 0.1)
    with pytest.raises(ValueError, match="collapses to a single node"):
        embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.0501, 0.1]])))


def test_embed_rejects_segment_tilted_by_snapping():
    grid = build_structured_mesh(DOM, 10)  # 0.045 m is a cell midpoint: the ends round apart
    path = VasculaturePath(np.array([[0.045 - 4e-13, 0.1], [0.045 + 4e-13, 0.0]]))
    with pytest.raises(ValueError, match="snapped path segment is not axis-aligned"):
        embed_vasculature(grid, path)


@pytest.mark.parametrize("verts", [
    [[0.2, 0.1], [0.2, 0.0]],  # would clamp onto the right edge, 0.1 m from where it was asked
    [[1e300, 0.1], [1e300, 0.0]],
    [[0.05, 0.1 + 1e-9], [0.05, 0.0]],
])
def test_embed_rejects_vertex_outside_the_plate(verts):
    grid = build_structured_mesh(DOM, 4)
    with pytest.raises(ValueError, match="leaves the domain"):
        embed_vasculature(grid, VasculaturePath(np.array(verts)))


def test_embed_accepts_vertex_within_round_off_of_the_edge():
    grid = build_structured_mesh(DOM, 4)
    mesh = embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1 + 5e-13], [0.05, -5e-13]])))
    assert mesh.snap_error <= 1e-12


def test_default_tags_all_neumann():
    grid = build_structured_mesh(DOM, 6)
    mesh = mesh_without_channel(grid)
    assert np.all(mesh.boundary_tags == NEUMANN)
    assert len(mesh.boundary_edges) == 4 * 6


def _assert_same_mesh(a, b):
    """a and b agree in every ChannelMesh field, arrays in dtype and value."""
    for f in dataclasses.fields(ChannelMesh):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("order", [1, 2])
def test_structured_mesh_is_a_channel_mesh_without_channel(order):
    grid = build_structured_mesh(DOM, 4, order)
    assert isinstance(grid, ChannelMesh)
    assert not grid.has_channel and grid.inlet_node is None and grid.outlet_node is None
    assert len(grid.boundary_tags) == len(grid.boundary_edges) and np.all(grid.boundary_tags == NEUMANN)
    plain = mesh_without_channel(grid)
    _assert_same_mesh(plain, grid)
    thetas = [solve_steady(ThermalProblem(mesh=mesh, solid=builtin_material("cfrp_like", "TDMP"),
                                          coolant=Coolant(1000.0, 4183.0, 0.0)))
              for mesh in (grid, plain)]
    assert thetas[0].tobytes() == thetas[1].tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_embedding_again_carries_only_the_new_path(order):
    grid = build_structured_mesh(DOM, 10, order)
    u_shape = embed_vasculature(grid, generate_layout(DOM, LayoutParams(kind="u_shape")))
    straight = VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]]))
    _assert_same_mesh(embed_vasculature(u_shape, straight), embed_vasculature(grid, straight))


@pytest.mark.parametrize("order", [1, 2])
def test_removing_the_channel_gives_the_fresh_grid(order):
    grid = build_structured_mesh(DOM, 10, order)
    embedded = embed_vasculature(grid, generate_layout(DOM, LayoutParams(kind="serpentine")))
    _assert_same_mesh(mesh_without_channel(embedded), grid)
    tagged = tag_boundary(embedded, lambda x, y: DIRICHLET if x < 1e-9 else NEUMANN)
    assert np.array_equal(mesh_without_channel(tagged).boundary_tags, tagged.boundary_tags)


def test_tag_left_edge_dirichlet():
    mesh = mesh_without_channel(build_structured_mesh(DOM, 6))
    tagged = tag_boundary(mesh, lambda x, y: DIRICHLET if x < 1e-9 else NEUMANN)
    n_dir = int(np.sum(tagged.boundary_tags == DIRICHLET))
    n_neu = int(np.sum(tagged.boundary_tags == NEUMANN))
    assert n_dir == 6
    assert n_dir + n_neu == len(tagged.boundary_edges)
    assert len(tagged.dirichlet_nodes()) == 7


def test_tag_spec_must_return_valid_tag():
    mesh = mesh_without_channel(build_structured_mesh(DOM, 4))
    with pytest.raises(ValueError):
        tag_boundary(mesh, lambda x, y: "both")


def _directed_edges(triangles):
    """{(a, b): midside node or None} over every triangle edge, counter-clockwise."""
    out = {}
    for tri in triangles.tolist():
        for k in range(3):
            out[(tri[k], tri[(k + 1) % 3])] = tri[3 + k] if len(tri) == 6 else None
    return out


@given(n=st.integers(2, 24), order=st.sampled_from([1, 2]),
       width=st.floats(1e-3, 1.0), height=st.floats(1e-3, 1.0))
def test_numbering_contract(n, order, width, height):
    grid = build_structured_mesh(Domain2D(width=width, height=height), n, order)
    nodes, tris, bnd = grid.nodes, grid.triangles, grid.boundary_edges
    corners = (n + 1) ** 2
    assert len(nodes) == (order * n + 1) ** 2
    assert np.all(triangle_areas(grid) > 0)
    # the boundary is one closed counter-clockwise loop: each edge has its
    # triangle on the left and none on the right, and no other edge is free
    directed = _directed_edges(tris)
    assert np.array_equal(bnd[:, 1], np.roll(bnd[:, 0], -1))
    assert len(set(bnd[:, 0].tolist())) == len(bnd) == 4 * n
    assert sum((b, a) not in directed for a, b in directed) == len(bnd)
    for edge in bnd.tolist():
        assert (edge[1], edge[0]) not in directed
        assert directed[(edge[0], edge[1])] == (edge[2] if order == 2 else None)
    if order == 1:
        return
    for k in range(3):
        a, b = nodes[tris[:, k]], nodes[tris[:, (k + 1) % 3]]
        assert np.array_equal(nodes[tris[:, 3 + k]], 0.5 * (a + b))
    mids = tris[:, 3:].ravel()
    _, first = np.unique(mids, return_index=True)
    assert np.array_equal(mids[np.sort(first)], np.arange(corners, len(nodes)))
    shared = np.full(len(nodes) - corners, 2)
    shared[bnd[:, 2] - corners] = 1
    assert np.array_equal(np.bincount(mids)[corners:], shared)


def test_p2_numbering_at_n2():
    grid = build_structured_mesh(DOM, 2, element_order=2)
    assert grid.triangles.tolist() == [
        [0, 1, 4, 9, 10, 11], [0, 4, 3, 11, 12, 13], [1, 2, 5, 14, 15, 16], [1, 5, 4, 16, 17, 10],
        [3, 4, 7, 12, 18, 19], [3, 7, 6, 19, 20, 21], [4, 5, 8, 17, 22, 23], [4, 8, 7, 23, 24, 18],
    ]
    assert grid.boundary_edges.tolist() == [
        [0, 1, 9], [1, 2, 14], [2, 5, 15], [5, 8, 22], [8, 7, 24], [7, 6, 20], [6, 3, 21], [3, 0, 13],
    ]


def test_p2_channel_carries_midside_nodes():
    grid = build_structured_mesh(DOM, 10, element_order=2)
    mesh = embed_vasculature(grid, VasculaturePath(np.array([[0.05, 0.1], [0.05, 0.0]])))
    assert len(mesh.channel_mids) == len(mesh.channel_lengths)
    for a, b, mid in zip(mesh.channel_nodes[:-1], mesh.channel_nodes[1:], mesh.channel_mids):
        assert np.allclose(mesh.nodes[mid], 0.5 * (mesh.nodes[a] + mesh.nodes[b]))


def test_p2_dirichlet_includes_midside():
    mesh = mesh_without_channel(build_structured_mesh(DOM, 4, element_order=2))
    tagged = tag_boundary(mesh, lambda x, y: DIRICHLET if x < 1e-9 else NEUMANN)
    assert len(tagged.dirichlet_nodes()) == 2 * 4 + 1


def test_export_mesh_csv(tmp_path):
    grid = build_structured_mesh(DOM, 5)
    mesh = embed_vasculature(grid, generate_layout(DOM, LayoutParams(kind="u_shape", spacing=0.04)))
    files = export_mesh_csv(mesh, str(tmp_path))
    assert sorted(f.rsplit("/", 1)[-1] for f in files) == [
        "boundary_edges.csv", "channel_chain.csv", "nodes.csv", "triangles.csv",
    ]
    lines = (tmp_path / "nodes.csv").read_text().strip().splitlines()
    assert lines[0] == "node_id,x,y"
    assert len(lines) == 1 + len(mesh.nodes)
    chain = (tmp_path / "channel_chain.csv").read_text().strip().splitlines()
    assert len(chain) == 1 + len(mesh.channel_nodes)
