import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vasctherm.geometry import (
    Domain2D,
    LayoutParams,
    VasculaturePath,
    arc_length,
    generate_layout,
)
from vasctherm.materials import Coolant

DOM = Domain2D()


def test_domain_defaults_and_validation():
    assert (DOM.width, DOM.height, DOM.thickness) == (0.1, 0.1, 0.005)
    with pytest.raises(ValueError):
        Domain2D(width=-1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: Coolant(1000.0, 4183.0, np.nan), "Coolant.flow_rate"),
    (lambda: Coolant(1000.0, np.inf, 1e-8), "Coolant.specific_heat"),
    (lambda: Coolant(-np.inf, 4183.0, 1e-8), "Coolant.density"),
    (lambda: Domain2D(width=np.nan), "Domain2D.width"),
    (lambda: Domain2D(thickness=np.inf), "Domain2D.thickness"),
    (lambda: LayoutParams(spacing=np.nan), "LayoutParams.spacing"),
    (lambda: LayoutParams(kind="asymmetric", offset=np.inf), "LayoutParams.offset"),
    (lambda: VasculaturePath(np.array([[np.nan, 0.1], [np.nan, 0.0]])), "VasculaturePath.vertices"),
], ids=["coolant-flow-nan", "coolant-c-inf", "coolant-rho-minus-inf", "domain-width-nan",
        "domain-thickness-inf", "layout-spacing-nan", "layout-offset-inf", "path-nan"])
def test_non_finite_inputs_refused_where_built(build, field):
    # accepted, they failed later with a misleading message: a non-finite
    # residual norm, a node off the element grid, or a NaN snapped to an int
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        build()


@pytest.mark.parametrize("kind, bad", [("serpentine", np.nan), ("serpentine", np.inf), ("u_shape", np.nan)])
def test_layout_params_refuse_a_non_finite_pass_count(kind, bad):
    # accepted before; a serpentine then failed inside np.arange in generate_layout
    with pytest.raises(ValueError, match=r"^LayoutParams\.pass_count must be finite"):
        generate_layout(DOM, LayoutParams(kind=kind, pass_count=bad))


@pytest.mark.parametrize("passes", [2.0, 2.5, 1.0])
def test_serpentine_refuses_a_fractional_pass_count(passes):
    # np.arange would build ceil(passes) passes, off the plate's centre
    with pytest.raises(ValueError, match="^serpentine needs an integer pass_count"):
        LayoutParams(kind="serpentine", pass_count=passes)


def test_u_shape_arc_length_hand_sum():
    # legs at x = 0.035 / 0.065, bottom leg at y = 0.02, ports on the top edge
    path = generate_layout(DOM, LayoutParams(kind="u_shape", spacing=0.03, margin=0.02))
    assert np.allclose(path.vertices[0], [0.035, 0.1])
    assert np.allclose(path.vertices[-1], [0.065, 0.1])
    assert arc_length(path) == pytest.approx(0.08 + 0.03 + 0.08)


def test_serpentine_single_pass_is_straight():
    path = generate_layout(DOM, LayoutParams(kind="serpentine", pass_count=1))
    assert len(path.vertices) == 2
    assert np.allclose(path.vertices[:, 0], path.vertices[0, 0])
    assert arc_length(path) == pytest.approx(DOM.height)


def test_serpentine_passes_alternate_and_end_on_boundary():
    path = generate_layout(DOM, LayoutParams(kind="serpentine", spacing=0.02, pass_count=4))
    v = path.vertices
    assert v[0, 1] == DOM.height and v[-1, 1] == DOM.height  # even pass count: both ports on top
    xs = sorted(set(np.round(v[:, 0], 12)))
    assert xs == [0.02, 0.04, 0.06, 0.08]
    odd = generate_layout(DOM, LayoutParams(kind="serpentine", spacing=0.02, pass_count=3))
    assert odd.vertices[-1, 1] == 0.0  # odd pass count exits at the bottom


@pytest.mark.parametrize("passes", [3, 4, 5])
def test_serpentine_margin_at_half_the_height(passes):
    half = LayoutParams(kind="serpentine", spacing=0.02, margin=0.5 * DOM.height, pass_count=passes)
    with pytest.raises(ValueError, match="^serpentine's middle passes have no length"):
        generate_layout(DOM, half)
    # two passes turn once, at the margin, so both keep their length
    two = generate_layout(DOM, dataclasses.replace(half, pass_count=2)).vertices
    assert two[1:3, 1].tolist() == [0.05, 0.05]
    # above half the height the middle passes run backwards: the links lie height - margin from the edges
    deep = generate_layout(DOM, dataclasses.replace(half, margin=0.07)).vertices
    links = deep[1:-1:2, 1]
    assert np.allclose(np.minimum(links, DOM.height - links), DOM.height - 0.07)


def test_asymmetric_zero_offset_matches_u_shape():
    u = generate_layout(DOM, LayoutParams(kind="u_shape", spacing=0.03))
    a = generate_layout(DOM, LayoutParams(kind="asymmetric", spacing=0.03, offset=0.0))
    assert np.allclose(u.vertices, a.vertices)


def test_asymmetric_default_legs_unequal_offsets():
    path = generate_layout(DOM, LayoutParams(kind="asymmetric", spacing=0.05, offset=0.005))
    x_left, x_right = path.vertices[0, 0], path.vertices[-1, 0]
    center = 0.5 * DOM.width
    assert abs(x_left - center) != pytest.approx(abs(x_right - center))


@given(spacing=st.floats(1e-3, 0.099), margin=st.floats(1e-3, 0.099), offset=st.floats(-0.06, 0.06),
       edge=st.sampled_from(["top", "bottom"]))
def test_a_u_is_a_two_pass_serpentine_and_asymmetric_its_shift(spacing, margin, offset, edge):
    # one pass construction builds all three kinds; a U ignores pass_count
    shared = dict(spacing=spacing, margin=margin, inlet_edge=edge)
    u = generate_layout(DOM, LayoutParams(kind="u_shape", pass_count=7, **shared)).vertices
    two = generate_layout(DOM, LayoutParams(kind="serpentine", pass_count=2, **shared)).vertices
    assert u.tobytes() == two.tobytes()
    shifted = u + [offset, 0.0]
    asymmetric = LayoutParams(kind="asymmetric", offset=offset, **shared)
    if 0.0 < shifted[:, 0].min() and shifted[:, 0].max() < DOM.width:
        assert generate_layout(DOM, asymmetric).vertices.tobytes() == shifted.tobytes()
    else:
        with pytest.raises(ValueError, match="^asymmetric layout (leaves|touches)"):
            generate_layout(DOM, asymmetric)


def test_layout_regeneration_is_pure():
    p1 = generate_layout(DOM, LayoutParams(kind="serpentine", pass_count=5, spacing=0.015))
    p2 = generate_layout(DOM, LayoutParams(kind="serpentine", pass_count=5, spacing=0.015))
    assert np.array_equal(p1.vertices, p2.vertices)


def test_layout_leaving_domain_rejected():
    with pytest.raises(ValueError):
        generate_layout(DOM, LayoutParams(kind="u_shape", spacing=0.3))
    with pytest.raises(ValueError):
        generate_layout(DOM, LayoutParams(kind="serpentine", spacing=0.05, pass_count=4))
    with pytest.raises(ValueError, match="leaves the plate"):  # rejected before any array is built
        generate_layout(DOM, LayoutParams(kind="serpentine", pass_count=10**15))


def test_inlet_edge_bottom_mirrors_vertically():
    top = generate_layout(DOM, LayoutParams(kind="u_shape"))
    bot = generate_layout(DOM, LayoutParams(kind="u_shape", inlet_edge="bottom"))
    assert np.allclose(bot.vertices[:, 1], DOM.height - top.vertices[:, 1])


def test_arc_length_two_point():
    path = VasculaturePath(np.array([[0.0, 0.0], [0.0, 0.1]]))
    assert arc_length(path) == pytest.approx(0.1)


def test_arc_length_invariant_under_collinear_insertion():
    path = VasculaturePath(np.array([[0.0, 0.0], [0.0, 0.1]]))
    split = VasculaturePath(np.array([[0.0, 0.0], [0.0, 0.04], [0.0, 0.1]]))
    assert arc_length(split) == pytest.approx(arc_length(path))


def test_reversal_maps_arclength_and_flips_tangent():
    path = generate_layout(DOM, LayoutParams(kind="asymmetric", spacing=0.05, offset=0.005))
    rev = path.reversed()
    assert np.array_equal(rev.vertices, path.vertices[::-1])  # the outlet becomes the inlet
    assert arc_length(rev) == pytest.approx(arc_length(path))
    # the segment at arc length L - s of the reversed path runs against the one at s
    assert np.array_equal(np.diff(rev.vertices, axis=0), -np.diff(path.vertices, axis=0)[::-1])


@pytest.mark.parametrize("verts, message", [
    ([[0.0, 0.0]], "at least two"),
    ([[0.0, 0.0], [0.0, 0.0]], "distinct"),
    ([[0.0, 0.0], [0.1, 0.1]], "axis-aligned"),
    ([[0.02, 0.1], [0.02, 0.05], [0.08, 0.05], [0.08, 0.08], [0.0, 0.08]], "segments 0 and 3"),  # crossing
    ([[0.05, 0.1], [0.05, 0.05], [0.02, 0.05], [0.02, 0.08], [0.05, 0.08]],
     "segments 0 and 3"),  # T-touch: segment 3 ends inside segment 0
    ([[0.02, 0.1], [0.02, 0.05], [0.06, 0.05], [0.06, 0.03], [0.08, 0.03], [0.08, 0.05],
      [0.04, 0.05], [0.04, 0.0]], "segments 1 and 5"),  # collinear overlap: both run along y = 0.05
    ([[0.05, 0.1], [0.05, 0.05], [0.08, 0.05], [0.08, 0.1], [0.05, 0.1]], "segments 0 and 3"),  # closed
], ids=["one-vertex", "repeated-vertex", "diagonal", "crossing", "T-touch", "collinear-overlap", "closed"])
def test_path_validation(verts, message):
    with pytest.raises(ValueError, match=message):
        VasculaturePath(np.array(verts))


def test_path_axis_rule_allows_round_off():
    # |dx| <= 1e-12 m is round-off on a vertical segment; beyond it the segment is tilted
    VasculaturePath(np.array([[0.05, 0.1], [0.05 + 1e-12, 0.0]]))
    with pytest.raises(ValueError, match="axis-aligned"):
        VasculaturePath(np.array([[0.05, 0.1], [0.05 + 2e-12, 0.0]]))


LATTICE = 6  # lattice points per side, scaled onto the 0.1 m plate


@st.composite
def _lattice_paths(draw):
    """Axis-aligned paths whose vertices lie on a LATTICE x LATTICE grid, as integer points."""
    coord = st.integers(0, LATTICE - 1)
    pts = [(draw(coord), draw(coord))]
    for _ in range(draw(st.integers(1, 7))):
        axis = draw(st.integers(0, 1))
        value = draw(coord.filter(lambda c, a=axis: c != pts[-1][a]))
        pts.append((value, pts[-1][1]) if axis == 0 else (pts[-1][0], value))
    return pts


def _lattice_points(a, b):
    """Every lattice point on the axis-aligned segment from a to b."""
    (x0, x1), (y0, y1) = sorted((a[0], b[0])), sorted((a[1], b[1]))
    return {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}


@given(pts=_lattice_paths())
def test_path_refused_exactly_when_non_adjacent_segments_share_a_lattice_point(pts):
    cells = [_lattice_points(a, b) for a, b in zip(pts[:-1], pts[1:])]
    meet = any(cells[i] & cells[j] for i in range(len(cells)) for j in range(i + 2, len(cells)))
    verts = np.array(pts, dtype=float) * (DOM.width / (LATTICE - 1))
    if meet:
        with pytest.raises(ValueError, match="self-intersects"):
            VasculaturePath(verts)
    else:
        VasculaturePath(verts)
