import numpy as np
import pytest

from vasctherm.geometry import Domain2D, LayoutParams, VasculaturePath, arc_length, generate_layout
from vasctherm.mesh import (
    DIRICHLET,
    NEUMANN,
    build_structured_mesh,
    embed_vasculature,
    export_mesh_csv,
    mesh_stats,
    mesh_without_channel,
    tag_boundary,
    triangle_areas,
)

DOM = Domain2D()


def test_grid_counts_n2():
    grid = build_structured_mesh(DOM, 2)
    assert len(grid.nodes) == 9
    assert len(grid.triangles) == 8
    mesh = mesh_without_channel(grid)
    stats = mesh_stats(mesh)
    assert stats.total_area == pytest.approx(0.01)


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


def test_embed_rejects_diagonal_path():
    grid = build_structured_mesh(DOM, 10)
    with pytest.raises(ValueError, match="axis-aligned"):
        embed_vasculature(grid, VasculaturePath(np.array([[0.0, 0.0], [0.1, 0.1]])))


def test_default_tags_all_neumann():
    grid = build_structured_mesh(DOM, 6)
    mesh = mesh_without_channel(grid)
    assert np.all(mesh.boundary_tags == NEUMANN)
    assert len(mesh.boundary_edges) == 4 * 6


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


def test_p2_midside_nodes_shared():
    n = 4
    grid = build_structured_mesh(DOM, n, element_order=2)
    assert len(grid.nodes) == (2 * n + 1) ** 2
    mesh = mesh_without_channel(grid)
    # each interior edge's midnode appears in exactly the two adjacent triangles
    counts = np.zeros(len(grid.nodes), dtype=int)
    for tri in mesh.triangles:
        for mid in tri[3:]:
            counts[mid] += 1
    assert set(counts[counts > 0]) <= {1, 2}
    # midside coordinates really are edge midpoints
    for tri in mesh.triangles[:8]:
        a, b, c, mab, mbc, mca = tri
        assert np.allclose(mesh.nodes[mab], 0.5 * (mesh.nodes[a] + mesh.nodes[b]))
        assert np.allclose(mesh.nodes[mbc], 0.5 * (mesh.nodes[b] + mesh.nodes[c]))
        assert np.allclose(mesh.nodes[mca], 0.5 * (mesh.nodes[c] + mesh.nodes[a]))


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
