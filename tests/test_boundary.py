"""Tests of boundary tracing, scaling, and the file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudk.boundary import (BoundaryPolyline, boundary_points, export_csv,
                           export_svg, load_csv, normalize_support,
                           parameter_grid, scale_domain, svg_point_count)
from mudk.discretize import StepQuantile, build_measure
from mudk.distributions import (Beta, Discrete, Exponential, Mixture,
                                TruncatedNormal, Uniform)
from mudk.hilbert import pole_levels


def test_parameter_grid_is_sorted_and_clear_of_poles():
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    t = parameter_grid(sq, 64)
    assert t.shape == (64,)
    assert np.all(np.diff(t) > 0)
    assert 0.0 < t[0] and t[-1] < 1.0
    poles = pole_levels(sq)
    gap = np.min(np.abs(t[:, None] - poles[None, :]))
    assert gap > 1.0 / (8 * 64)


def test_parameter_grid_survives_clustered_pole_levels():
    """Vanishing densities pack many jump levels into the last cells."""
    sq = build_measure(Beta(2.0, 5.0).center(), 200)
    t = parameter_grid(sq, 2048)
    assert np.all(np.diff(t) > 0)
    assert t[-1] < 1.0
    poles = np.sort([s for s in pole_levels(sq) if 0 < s < 1])
    gap = np.min(np.abs(t[:, None] - poles[None, :]))
    assert gap > 1e-6


def _loop_parameter_grid(sq, m):
    """Reference: the per-cell loop that masked every pole for each cell."""
    cell = 1.0 / m
    t = (np.arange(1, m + 1) - 0.5) * cell
    poles = pole_levels(sq)
    if poles.size:
        j = np.searchsorted(poles, t)
        dist = np.minimum(np.abs(t - poles[np.clip(j - 1, 0, poles.size - 1)]),
                          np.abs(poles[np.clip(j, 0, poles.size - 1)] - t))
        for i in np.nonzero(dist < 0.25 * cell)[0]:
            lo, hi = i * cell, (i + 1) * cell
            inner = poles[(poles > lo) & (poles < hi)]
            edges = np.concatenate(([lo], inner, [hi]))
            g = int(np.argmax(np.diff(edges)))
            t[i] = 0.5 * (edges[g] + edges[g + 1])
    return t


MIXTURE = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
REFERENCE_LAWS = {
    "uniform": Uniform(-1.0, 1.0).center(),
    "beta": Beta(2.0, 5.0).center(),
    "truncated_normal": TruncatedNormal(0.0, 1.0, -2.0, 2.0).center(),
    "truncated_exponential": Exponential(1.0).center().truncate(3.0),
    "mixture": MIXTURE.center(),
}


@pytest.mark.parametrize("law", sorted(REFERENCE_LAWS))
@pytest.mark.parametrize("n", [200, 2000, 20000])
def test_parameter_grid_matches_the_cell_loop(law, n):
    sq = build_measure(REFERENCE_LAWS[law], n)
    for m in (64, 2048, 8192):
        np.testing.assert_array_equal(parameter_grid(sq, m), _loop_parameter_grid(sq, m))


@st.composite
def step_quantiles(draw):
    """Levels drawn uniformly, clustered near 1 (a vanishing density) or
    equal to grid cell edges and midpoints; some jumps are zero."""
    m = draw(st.sampled_from([1, 2, 7, 64, 1000]))
    kind = draw(st.sampled_from(["uniform", "cluster", "grid"]))
    count = draw(st.integers(1, 300))
    if kind == "uniform":
        levels = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=count, max_size=count))
    elif kind == "cluster":
        levels = list(1.0 - np.geomspace(1e-7, 0.5, count))
    else:
        levels = [k / (2 * m) for k in draw(st.lists(st.integers(1, 2 * m - 1),
                                                     min_size=1, max_size=count))]
    levels = np.unique(levels)
    jumps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                          min_size=levels.size, max_size=levels.size))
    values = np.concatenate(([0.0], np.cumsum(jumps)))
    return StepQuantile(np.concatenate(([0.0], levels, [1.0])), values), m


@settings(max_examples=200, deadline=None)
@given(case=step_quantiles())
def test_parameter_grid_matches_the_cell_loop_on_step_quantiles(case):
    sq, m = case
    ref = _loop_parameter_grid(sq, m)
    if np.all(np.diff(ref) > 0) and 0.0 < ref[0] and ref[-1] < 1.0:
        np.testing.assert_array_equal(parameter_grid(sq, m), ref)
    else:
        with pytest.raises(ValueError):
            parameter_grid(sq, m)


def test_boundary_shape_and_symmetry():
    bp = boundary_points(build_measure(Uniform(-1.0, 1.0), 5), num_points=64)
    assert bp.points.shape == (128, 3)
    assert np.all(np.diff(bp.t) > 0)
    # mirror rows: t odd, x even, y odd
    np.testing.assert_allclose(bp.t + bp.t[::-1], 0.0, atol=1e-15)
    np.testing.assert_allclose(bp.x - bp.x[::-1], 0.0, atol=1e-15)
    np.testing.assert_allclose(bp.y + bp.y[::-1], 0.0, atol=1e-15)


def test_boundary_x_runs_over_step_values():
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    bp = boundary_points(sq, num_points=256)
    assert set(np.unique(bp.x)) == set(sq.values.tolist())
    assert bp.x.min() == -0.6 and bp.x.max() == 1.0


def test_boundary_rejects_submass_quantile():
    sq = build_measure(Beta(2.0, 1.0), 10, scheme="pdf")  # mass 0.9
    with pytest.raises(ValueError, match="total mass"):
        boundary_points(sq, num_points=32)


def test_scale_domain_matches_direct_build():
    n, m = 5, 64
    small = boundary_points(build_measure(Uniform(-1.0, 1.0), n), m)
    big = boundary_points(build_measure(Uniform(-2.0, 2.0), n), m)
    scaled = scale_domain(small, 2.0, 0.0)
    np.testing.assert_allclose(scaled.points, big.points, atol=1e-9)


def test_scale_domain_offset_and_negative_factor():
    bp = boundary_points(build_measure(Uniform(-1.0, 1.0), 4), 32)
    shifted = scale_domain(bp, 1.0, 3.0)
    np.testing.assert_allclose(shifted.x, bp.x + 3.0, atol=1e-15)
    np.testing.assert_allclose(shifted.y, bp.y, atol=1e-15)
    flipped = scale_domain(bp, -1.0, 0.0)
    # reflection keeps the mirror symmetry and flips x
    np.testing.assert_allclose(np.sort(flipped.x), np.sort(-bp.x), atol=1e-15)
    np.testing.assert_allclose(flipped.t + flipped.t[::-1], 0.0, atol=1e-15)
    with pytest.raises(ValueError):
        scale_domain(bp, 0.0, 1.0)


@pytest.mark.parametrize("alpha, beta", [(1.7, -0.3), (-0.9, 0.45)])
def test_scale_domain_rounds_as_the_affine_formula(alpha, beta):
    """In-place `*= alpha`, `+= beta` give the bits of alpha * x + beta."""
    bp = boundary_points(build_measure(Beta(2.0, 5.0), 50), 64)
    scaled = scale_domain(bp, alpha, beta)
    rows = bp.points[::-1] if alpha < 0 else bp.points
    want = np.column_stack([-rows[:, 0] if alpha < 0 else rows[:, 0],
                            alpha * rows[:, 1] + beta, alpha * rows[:, 2]])
    assert np.array_equal(scaled.points, want)
    assert not scaled.points.flags.writeable


def test_scale_domain_composes_transform():
    bp = boundary_points(build_measure(Uniform(-1.0, 1.0), 4), 32)
    twice = scale_domain(scale_domain(bp, 2.0, 1.0), 3.0, -2.0)
    np.testing.assert_allclose(twice.points, scale_domain(bp, 6.0, 1.0).points,
                               rtol=0.0, atol=1e-14)


def test_normalize_support_maps_to_unit_interval():
    dist = Uniform(-3.0, 5.0)
    norm, width, left = normalize_support(dist)
    assert width == 8.0 and left == -3.0
    assert norm.support() == (0.0, 1.0)
    np.testing.assert_allclose(norm.quantile(0.5), 0.5, atol=1e-12)


def test_csv_roundtrip_is_bit_exact(tmp_path):
    bp = boundary_points(build_measure(Beta(2.0, 5.0).center(), 30), 128)
    path = tmp_path / "boundary.csv"
    export_csv(bp, path, header_comment="round trip")
    again = load_csv(path)
    assert np.array_equal(bp.points, again.points)
    text = path.read_text()
    assert text.startswith("# round trip\nt,x,y\n")
    assert text.endswith("\n") and "\r" not in text


def test_load_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)


def test_load_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,y\n-0.5,1,-1\n0.5,1\n")
    with pytest.raises(ValueError, match="columns changed from 3 to 2"):
        load_csv(path)


def test_svg_export(tmp_path):
    bp = boundary_points(build_measure(Uniform(-1.0, 1.0), 5), 64)
    path = tmp_path / "domain.svg"
    export_svg(bp, path)
    text = path.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert svg_point_count(path) == bp.num_points
    assert 'd="M ' in text and text.rstrip().endswith("</svg>")


def _one_string_svg(bp):
    """export_svg's drawing built as one string, every vertex joined by " L "."""
    xmin, xmax, ymin, ymax = bp.bbox()
    w, h = xmax - xmin, ymax - ymin
    side = max(w, h)
    pad = 0.05 * side
    scale = 1000.0 / (side + 2.0 * pad)
    width = (w + 2.0 * pad) * scale
    height = (h + 2.0 * pad) * scale
    px = (bp.x - xmin + pad) * scale
    py = (ymax - bp.y + pad) * scale
    coords = " L ".join(f"{x:.6f} {y:.6f}" for x, y in zip(px, py))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width:.2f}" height="{height:.2f}" '
            f'viewBox="0 0 {width:.2f} {height:.2f}">\n'
            f'  <path d="M {coords} Z" fill="none" stroke="black" stroke-width="1.5"/>\n'
            f'</svg>\n')


@pytest.mark.parametrize("per_half", [1, 255, 256, 257, 512, 513, 1500])
def test_svg_chunks_write_the_one_string_bytes(tmp_path, per_half):
    """Vertex counts below, at and across the write chunk (512) and its multiples."""
    bp = boundary_points(build_measure(Beta(2.0, 5.0).center(), 30), per_half)
    path = tmp_path / "domain.svg"
    export_svg(bp, path)
    assert path.read_bytes() == _one_string_svg(bp).encode()


def test_svg_rejects_degenerate_polyline(tmp_path):
    pts = np.array([[-0.25, 1.0, 0.0], [0.25, 1.0, 0.0]])
    line = BoundaryPolyline(points=pts)
    with pytest.raises(ValueError):
        export_svg(line, tmp_path / "flat.svg")


def test_polyline_validation():
    good = np.array([[-0.5, 1.0, 0.25], [0.5, 1.0, -0.25]])
    BoundaryPolyline(points=good)
    with pytest.raises(ValueError):  # t out of order
        BoundaryPolyline(points=good[::-1])
    broken = good.copy()
    broken[0, 2] = 0.5  # asymmetric y
    broken[1, 2] = 0.75
    with pytest.raises(ValueError):
        BoundaryPolyline(points=broken)
    with pytest.raises(ValueError):  # odd point count
        BoundaryPolyline(points=np.array([[0.5, 1.0, -0.25]]))
    # non-finite x or y: a NaN x in one row, an inf x in both, y at ±inf
    for col, values in ((1, (np.nan, 1.0)), (1, (-np.inf, -np.inf)), (2, (np.inf, -np.inf))):
        broken = good.copy()
        broken[:, col] = values
        with pytest.raises(ValueError, match="finite"):
            BoundaryPolyline(points=broken)


def test_boundary_points_are_immutable():
    bp = boundary_points(build_measure(Uniform(-1.0, 1.0), 4), 16)
    with pytest.raises(ValueError):
        bp.points[0, 0] = 99.0


def test_polyline_copies_a_writeable_array_and_keeps_a_frozen_one():
    rows = np.array([[-0.5, 1.0, 0.25], [0.5, 1.0, -0.25]])
    frozen = rows.copy()
    frozen.flags.writeable = False
    assert BoundaryPolyline(points=frozen).points is frozen
    # a read-only view of the caller's array is copied
    view = rows[:]
    view.flags.writeable = False
    assert not np.shares_memory(BoundaryPolyline(points=view).points, rows)
    # and a writeable array is copied, not frozen in place
    bp = BoundaryPolyline(points=rows)
    assert rows.flags.writeable
    assert not np.shares_memory(bp.points, rows)
    rows[0, 1] = 7.0
    assert bp.points[0, 1] == 1.0
