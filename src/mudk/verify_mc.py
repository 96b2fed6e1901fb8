"""Monte Carlo verification of the embedding property.

The domain of a step quantile with values v_1 < ... < v_W is a comb: the
strip v_1 < x < v_W minus the teeth {x = v_j, |y| >= d_j}.  `_comb` reads
it off the polyline once (walls at the distinct x of the lower chain,
d_j the wall's closest rendered approach to the axis, d = 0 at the outer
walls), and both membership and sampling use it.  `point_in_domain`
counts a point as inside when it lies strictly between the outer walls
and farther than a round-off tolerance from every tooth.  The sampler
runs walk on spheres (Muller 1956) from the origin, all walks in numpy
lockstep, until each walk is within `step` of a tooth; it exits at that
tooth's abscissa.  `_nearest_tooth` finds every walk's nearest tooth in
one vectorized pass: the teeth of the two walls around the walk bound
the distance, two sorted searches find the walls within that bound, and
the candidates of many walks are gathered into one flat array and
reduced per walk, an exact tie going to the nearest wall on the left.
Walks are taken in blocks and candidates in chunks, so that one loop
step holds at most `_quad._BLOCK_CELLS` cells, the memory rule of every
blocked kernel.  The exits are compared against the target law with
the two-sided Kolmogorov-Smirnov statistic.  Angles are a counter-based
hash of (seed, walk, sweep), so a walk's exit does not depend on how
many walks run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import _BLOCK_CELLS, chunks
from .boundary import BoundaryPolyline
from .distributions import Distribution


class TopologyError(ValueError):
    """The polyline does not bound a simple mirror-symmetric domain."""


@dataclass(frozen=True)
class ExitSampleSet:
    """Exit abscissas of the completed walks, ordered by walk index."""

    samples: np.ndarray
    walk_ids: np.ndarray
    seed: int
    step: float
    walks: int
    truncated_walks: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "walk_ids", np.asarray(self.walk_ids, dtype=int))

    @property
    def truncation_warning(self) -> bool:
        """True when more than 1% of walks failed to produce a sample."""
        return self.truncated_walks > 0.01 * self.walks


def _lower_chain(bp: BoundaryPolyline):
    """Positive-parameter half as an x-sorted chain with y <= 0."""
    if bp.num_points < 2:
        raise TopologyError("polyline has too few points")
    half = bp.points[bp.points[:, 0] > 0]
    xs, ys = half[:, 1], half[:, 2]
    scale = 1.0 + float(np.max(np.abs(half[:, 1:])))
    if np.any(np.diff(xs) < 0):
        raise TopologyError("boundary chain is not monotone in x")
    if np.any(ys > 1e-9 * scale):
        raise TopologyError("lower boundary chain crosses the real axis")
    return xs, np.minimum(ys, 0.0)


def _comb(bp: BoundaryPolyline):
    """Wall locations and tooth tips of the comb read off the polyline.

    The walls start the runs of equal x in the sorted lower chain; a tip is
    the wall's closest rendered approach to the axis; outer walls have tip 0.
    """
    xs, ys = _lower_chain(bp)
    start = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    tips = -np.maximum.reduceat(ys, start)
    tips[[0, -1]] = 0.0
    return xs[start], tips


def point_in_domain(bp: BoundaryPolyline, point) -> bool:
    """Membership in the comb that `simulate_exit` samples.

    The domain of a step quantile is the strip between the outer walls
    minus the teeth {x = v, |y| >= tip} at the step values v; between
    teeth it is vertically unbounded, which is what makes gap
    distributions contain a full vertical strip.  A point strictly
    between the outer walls, with finite y, is inside when it is
    farther than 1e-12 (relative to the domain scale) from every tooth.
    """
    return _clearance(bp, *_comb(bp), point) > 0.0


def _clearance(bp, locs, tips, point) -> float:
    """Distance from a point to the nearest tooth of the comb (locs, tips),
    or 0.0 where the point is not in the domain of `point_in_domain`."""
    px, py = float(point[0]), float(point[1])
    tol = 1e-12 * (1.0 + float(np.max(np.abs(bp.points[:, 1:]))))
    if not (locs[0] < px < locs[-1] and np.isfinite(py)):
        return 0.0
    dist = float(_nearest_tooth(locs, tips, np.array([px]), np.array([py]))[0][0])
    return dist if dist > tol else 0.0


# The nearest-tooth search under the memory rule of `_quad`: a block of
# _WALK_BLOCK walks keeps about a dozen per-walk arrays (6K cells) and one
# gather about six arrays of _GATHER_CELLS candidates (24K cells), so one
# loop step stays within _BLOCK_CELLS cells.
_WALK_BLOCK = _BLOCK_CELLS // 64
_GATHER_CELLS = _BLOCK_CELLS // 8
# The candidate search reaches this far beyond its bound, relative to
# |x| + bound: more than the round-off of x -+ bound, so no wall whose
# rounded gap equals the bound is left out.
_REACH = 4 * np.finfo(float).eps


def _nearest_tooth(locs, tips, x, y):
    """Distance from each finite (x, y) to the nearest tooth, and its index.

    Tooth j is the pair of rays {x = locs[j], |y| >= tips[j]}, at distance
    hypot(locs[j] - x, max(tips[j] - |y|, 0)) from (x, y).  The nearer of
    the teeth of the two walls around x bounds that distance, so the
    candidates are the walls whose gap to x is within the bound, found by
    two sorted searches.  Points are taken in blocks of _WALK_BLOCK, and
    the candidates of consecutive points are gathered at most _GATHER_CELLS
    at a time (`_quad.chunks`), a point with more on its own (O(walls)
    cells).  On an exact tie the nearest wall left of x wins, else the
    nearest wall at or right of x.
    """
    best = np.empty(x.size)
    near = np.empty(x.size, dtype=int)
    for i in range(0, x.size, _WALK_BLOCK):
        block = slice(i, i + _WALK_BLOCK)
        px, ay = x[block], np.abs(y[block])
        right = np.searchsorted(locs, px)
        bound = np.minimum(
            _tooth_distance(locs, tips, np.maximum(right - 1, 0), px, ay),
            _tooth_distance(locs, tips, np.minimum(right, locs.size - 1), px, ay))
        reach = bound + _REACH * (np.abs(px) + bound)
        lo = np.searchsorted(locs, px - reach)
        hi = np.searchsorted(locs, px + reach, side="right")
        for s in chunks(hi - lo, _GATHER_CELLS):
            best[block][s], near[block][s] = _nearest_candidate(
                locs, tips, px[s], ay[s], right[s], lo[s], hi[s])
    return best, near


def _tooth_distance(locs, tips, j, x, ay):
    """Distance from (x, y) to tooth j, given ay = |y|."""
    return np.hypot(locs[j] - x, np.maximum(tips[j] - ay, 0.0))


def _nearest_candidate(locs, tips, x, ay, right, lo, hi):
    """Nearest tooth of each point among its walls lo..hi-1, in one gather.

    A point's candidates are laid out as the walls left of x (below
    `right`), nearest first, then the walls at or right of x, nearest
    first: the order of a scan outward from x.  The first candidate that
    attains the point's minimum is the one that scan keeps on a tie.
    """
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    # position p of a left run holds wall c - p, of a right run wall p - c
    runs = np.column_stack((right - lo, hi - right)).ravel()
    pivots = np.column_stack((starts + right - 1, starts - lo)).ravel()
    j = np.abs(np.arange(starts[-1] + counts[-1]) - np.repeat(pivots, runs))
    d = _tooth_distance(locs, tips, j, np.repeat(x, counts), np.repeat(ay, counts))
    best = np.minimum.reduceat(d, starts)
    hits = np.flatnonzero(d == np.repeat(best, counts))
    return best, j[hits[np.searchsorted(hits, starts)]]


_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """SplitMix64 output function; a bijection of uint64 arrays."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _angles(seed, walk_ids, sweep):
    """Uniform angles in [0, 2 pi) as a pure function of (seed, walk, sweep).

    Walk w runs its own SplitMix64 stream, seeded by hashing (seed, w),
    and a sweep takes that stream's output at its counter.  Only uint64
    arrays take part: they wrap silently where numpy scalars would warn.
    """
    key = _mix64(np.full(1, seed % 2 ** 64, dtype=np.uint64))
    stream = _mix64(key + walk_ids.astype(np.uint64) * _GAMMA)
    bits = _mix64(stream + (sweep + 1) * _GAMMA % 2 ** 64)
    return (bits >> 11).astype(float) * (2.0 * np.pi / 2 ** 53)


def simulate_exit(bp: BoundaryPolyline, walks: int, step: float, seed: int,
                  max_steps: int = 10_000_000) -> ExitSampleSet:
    """Walk on spheres from the origin until each walk reaches a tooth.

    Each sweep moves every live walk to a uniform point on the largest
    circle around it that avoids all teeth; a walk that lands within
    `step` (the shell width) of a tooth exits at that tooth's abscissa.
    Walks still inside after `max_steps` sweeps are counted as truncated
    and excluded from the sample.
    """
    if walks < 1:
        raise ValueError(f"walks must be >= 1, got {walks}")
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive, got {step}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    locs, tips = _comb(bp)
    origin = _clearance(bp, locs, tips, (0.0, 0.0))
    if origin == 0.0:
        raise TopologyError("origin is not inside the domain")

    exits, ids = np.full(walks, np.nan), np.arange(walks)
    x, y, r = np.zeros(walks), np.zeros(walks), np.repeat(origin, walks)
    for sweep in range(max_steps):
        theta = _angles(seed, ids, sweep)
        x += r * np.cos(theta)
        y += r * np.sin(theta)
        r, near = _nearest_tooth(locs, tips, x, y)
        exits[ids[r < step]] = locs[near[r < step]]
        live = r >= step
        ids, x, y, r = ids[live], x[live], y[live], r[live]
        if not ids.size:
            break
    exited = np.flatnonzero(~np.isnan(exits))
    return ExitSampleSet(samples=exits[exited], walk_ids=exited, seed=seed,
                         step=step, walks=walks,
                         truncated_walks=walks - exited.size)


def ks_distance(samples, dist: Distribution) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against dist.

    The empirical c.d.f. is compared with F on the right of each sample
    and with the left limit F(x-) below it, so a law with atoms is
    measured correctly: samples that match its atoms score 0.  The samples
    are ordered by the stable argsort, for the reason `_quad.cell_edges` gives.
    """
    arr = np.asarray(samples, dtype=float)
    arr = arr[np.argsort(arr, kind="stable")]
    m = arr.size
    if m == 0:
        raise ValueError("need at least one sample")
    f = dist.cdf(arr)
    f_left = dist.cdf_left(arr)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - f), np.max(f_left - (i - 1) / m)))
