"""Boundary tracing, scaling and export of the constructed domain.

The domain boundary is parametrized over t in (-1, 1): the point at
parameter t is (q_n(|t|), H(pi t)) where q_n is the step quantile and H
the closed-form conjugate of its even circle extension.  Only the
positive half is computed; the negative half is its mirror image across
the real axis.  Sample parameters are nudged away from the logarithmic
poles at the step breakpoints so every evaluation stays finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._csvio import float_cell, read_floats, write_csv
from ._quad import frozen
from .discretize import StepQuantile
from .distributions import AffineDistribution, Distribution
from .hilbert import hilbert_step_quantile, pole_gap, pole_levels


@dataclass(frozen=True)
class BoundaryPolyline:
    """Sampled boundary as rows (t, x, y), ascending in t."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must form a (K, 3) array of (t, x, y) rows")
        if pts.shape[0] % 2 != 0:
            raise ValueError("need an even number of rows (mirrored halves)")
        k = pts.shape[0]
        if k:
            t = pts[:, 0]
            if np.any(t[1:] <= t[:-1]):
                raise ValueError("t must be strictly increasing")
            if not (-1.0 < t.min() and t.max() < 1.0):
                raise ValueError("t must lie strictly inside (-1, 1)")
            xy = pts[:, 1:]
            scale = 1.0 + max(float(xy.max()), -float(xy.min()))
            # a NaN in x or y makes the scale NaN, and a ±inf makes it inf
            if not np.isfinite(scale):
                raise ValueError("x and y must be finite")
            # row i against its mirror k-1-i: the halves give the same maxima
            half, mirror = k // 2, pts[::-1]
            row = np.empty(half)
            sym = 0.0
            for op, col in ((np.add, 0), (np.subtract, 1), (np.add, 2)):
                op(pts[:half, col], mirror[:half, col], out=row)
                sym += max(float(row.max()), -float(row.min()))
            if sym > 1e-9 * scale:
                raise ValueError("rows must be mirror-symmetric about the real axis")
        object.__setattr__(self, "points", frozen(pts))

    @property
    def t(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 2]

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def bbox(self) -> tuple[float, float, float, float]:
        if not self.num_points:
            raise ValueError("empty polyline has no bounding box")
        return (float(self.x.min()), float(self.x.max()),
                float(self.y.min()), float(self.y.max()))


def _widest_gap_centres(poles, cells, width):
    """Centre of the widest pole-free gap of each cell (i w, (i + 1) w).

    A cell's edges are its two ends and the sorted poles strictly inside
    it, found by a sorted search.  The edges of all the cells lie in one
    flat array, so the gaps are one difference and the widest gap of each
    cell (the first of equal ones) is a segmented maximum.  Memory is
    O(cells + poles), like the grid and the pole levels themselves.
    """
    lo, hi = cells * width, (cells + 1) * width
    first = np.searchsorted(poles, lo, side="right")
    size = np.searchsorted(poles, hi) - first + 2
    at = np.cumsum(size) - size
    # edge k of a cell is its pole first + k - 1, or one of its two ends
    edges = poles[(np.arange(at[-1] + size[-1])
                   + np.repeat(first - at - 1, size)).clip(0, poles.size - 1)]
    edges[at] = lo
    edges[at + size - 1] = hi
    gaps = np.diff(edges)
    gaps[at[1:] - 1] = -1.0     # from one cell's right end to the next cell's left end
    hits = np.flatnonzero(gaps == np.repeat(np.maximum.reduceat(gaps, at), size)[:-1])
    g = hits[np.searchsorted(hits, at)]
    return 0.5 * (edges[g] + edges[g + 1])


def parameter_grid(sq: StepQuantile, num_points: int) -> np.ndarray:
    """Midpoint grid on (0, 1), kept clear of the transform's poles.

    A sample whose midpoint falls within a quarter cell of a pole is
    moved to the center of the widest pole-free gap of its own cell, so
    the grid stays sorted and every sample keeps a clearance far above
    the pole guard radius.  Poles can cluster densely near the levels
    of a vanishing density, which rules out per-pole nudging.
    """
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    m = num_points
    cell = 1.0 / m
    t = (np.arange(1, m + 1) - 0.5) * cell
    poles = pole_levels(sq)
    near = np.flatnonzero(pole_gap(t, poles) < 0.25 * cell)
    if near.size:
        t[near] = _widest_gap_centres(poles, near, cell)
    if np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] >= 1:
        raise ValueError("internal error: pole avoidance broke the grid")
    return t


def boundary_points(sq: StepQuantile, num_points: int = 2048) -> BoundaryPolyline:
    """Trace the domain boundary at 2*num_points parameters.

    Requires total mass 1 (`StepQuantile.unit_mass`, the c.d.f. scheme);
    a step quantile of another mass has no complete boundary
    correspondence.  Recommended resolution is at least four points per
    step.
    """
    if not sq.unit_mass:
        raise ValueError(
            f"boundary tracing needs total mass 1, got {sq.total_mass}; "
            "use the c.d.f. scheme or renormalize")
    t = parameter_grid(sq, num_points)
    x = sq.eval(t)
    y = hilbert_step_quantile(sq, np.pi * t)

    pts = np.empty((2 * num_points, 3))
    pts[:num_points, 0] = -t[::-1]
    pts[:num_points, 1] = x[::-1]
    pts[:num_points, 2] = -y[::-1]
    pts[num_points:, 0] = t
    pts[num_points:, 1] = x
    pts[num_points:, 2] = y
    pts.flags.writeable = False
    return BoundaryPolyline(points=pts)


def scale_domain(bp: BoundaryPolyline, alpha: float, beta: float) -> BoundaryPolyline:
    """Affine image of the domain: (x, y) -> (alpha x + beta, alpha y).

    Solves the scaled problem: if the domain embeds a law X, the image
    embeds alpha X + beta.  alpha must be nonzero.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha == 0.0 or not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError(f"need finite alpha != 0 and finite beta, got ({alpha}, {beta})")
    if alpha < 0:
        # mirror in t to keep rows sorted and symmetric
        pts = bp.points[::-1].copy()
        pts[:, 0] *= -1.0
    else:
        pts = bp.points.copy()
    # in place, with the two roundings of alpha * x + beta
    pts[:, 1:] *= alpha
    pts[:, 1] += beta
    pts.flags.writeable = False
    return BoundaryPolyline(points=pts)


def normalize_support(dist: Distribution) -> tuple[Distribution, float, float]:
    """Affinely map the support onto (0, 1).

    Returns (normalized, alpha, beta) with the original law equal in
    distribution to alpha * normalized + beta; alpha is the support
    width and beta its left edge.
    """
    a, b = dist.support()
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError("normalization needs bounded support of positive width, "
                         f"got ({a}, {b})")
    width = b - a
    return AffineDistribution(dist, 1.0 / width, -a / width), width, a


# ----------------------------------------------------------------- export


def export_csv(bp: BoundaryPolyline, path, header_comment: str | None = None) -> None:
    """Write rows t,x,y at full float precision with LF line endings."""
    write_csv(path, header_comment, ("t", "x", "y"),
              (map(float_cell, row) for row in bp.points))


def load_csv(path) -> BoundaryPolyline:
    """Read a polyline written by export_csv (comment lines ignored).

    A file without rows is refused: no domain has an empty boundary.  The
    rows are read into one array that the polyline keeps, frozen.
    """
    pts = read_floats(path, ("t", "x", "y"))
    if not pts.size:
        raise ValueError("no boundary rows under the column row")
    pts.flags.writeable = False
    return BoundaryPolyline(points=pts)


# vertices per write of export_svg
_SVG_CHUNK = 512


def export_svg(bp: BoundaryPolyline, path) -> None:
    """Render the closed boundary as a single stroked SVG path.

    The drawing is scaled so the padded bounding box spans 1000 user
    units on its larger side, with the y axis flipped to keep the upper
    half of the domain on top.
    """
    if bp.num_points < 2:
        raise ValueError("SVG export needs at least two boundary points")
    xmin, xmax, ymin, ymax = bp.bbox()
    w, h = xmax - xmin, ymax - ymin
    side = max(w, h)
    if side <= 0:
        raise ValueError("SVG export needs a nondegenerate bounding box")
    pad = 0.05 * side
    scale = 1000.0 / (side + 2.0 * pad)
    width = (w + 2.0 * pad) * scale
    height = (h + 2.0 * pad) * scale
    px = (bp.x - xmin + pad) * scale
    py = (ymax - bp.y + pad) * scale
    with open(path, "w", newline="\n") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.2f}" height="{height:.2f}" '
                 f'viewBox="0 0 {width:.2f} {height:.2f}">\n'
                 '  <path d="M ')
        # the vertices joined by " L ", written a chunk at a time
        for i in range(0, bp.num_points, _SVG_CHUNK):
            if i:
                fh.write(" L ")
            chunk = zip(px[i:i + _SVG_CHUNK].tolist(), py[i:i + _SVG_CHUNK].tolist())
            fh.write(" L ".join(f"{x:.6f} {y:.6f}" for x, y in chunk))
        fh.write(' Z" fill="none" stroke="black" stroke-width="1.5"/>\n</svg>\n')


def svg_point_count(path) -> int:
    """Number of vertices in the first path of an SVG file (test helper)."""
    with open(path) as fh:
        text = fh.read()
    match = re.search(r'd="([^"]+)"', text)
    if not match:
        raise ValueError("no path found")
    return len(re.findall(r"[ML]\s", match.group(1)))
