"""Monte Carlo verification of the embedding property.

Planar Brownian motion started at the origin is stepped with the Euler
scheme until it leaves the rendered domain; the real parts of the exit
points are then compared against the target law with the two-sided
Kolmogorov-Smirnov statistic.  Walks are independent with their own
counter-based random stream keyed by (seed, walk index), so results are
bit-identical regardless of how many workers run them.

Membership tests come in two flavors.  The simulator uses the mirror
symmetry of the domain: a point is inside when |y| stays below the
interpolated magnitude of the lower boundary chain at its x.  The
public `point_in_domain` instead answers for the underlying comb domain
of the step quantile, whose spikes at the step values are genuinely
unbounded; the polyline merely renders them at finite depth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPolyline
from .distributions import Distribution

_CHUNK = 4096


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


def _walls(xs, ys):
    """Group the chain by exact x value: wall locations and rendered depths."""
    locs, start = np.unique(xs, return_index=True)
    return locs, -np.minimum.reduceat(ys, start)


def point_in_domain(bp: BoundaryPolyline, point) -> bool:
    """Membership in the domain rendered by the polyline.

    The domain of a step quantile is a vertical slab with slit teeth
    along the lines x = v at the step values v; between teeth it is
    vertically unbounded, which is what makes gap distributions contain
    a full vertical strip.  A point strictly between the extreme walls
    is therefore inside unless it sits on a wall line beyond the
    rendered extent of that wall.  Points within 1e-12 (relative to the
    domain scale) of the rendered boundary count as inside.
    """
    px, py = float(point[0]), float(point[1])
    xs, ys = _lower_chain(bp)
    locs, deeps = _walls(xs, ys)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(bp.points[:, 1:]))))

    if px < locs[0] - tol or px > locs[-1] + tol:
        return False
    i = int(np.argmin(np.abs(locs - px)))
    if abs(locs[i] - px) <= tol:
        return abs(py) <= deeps[i] + tol
    return locs[0] < px < locs[-1]


def _resolve_workers(workers, walks):
    cap = os.environ.get("MUDK_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    if workers is None:
        workers = limit
    return max(1, min(workers, limit, walks))


def _run_walk(args):
    walk, seed, sqrt_step, max_steps, xs, ys, x_lo, x_hi = args
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + walk))
    zx = zy = 0.0
    remaining = max_steps
    while remaining > 0:
        n = min(_CHUNK, remaining)
        g = rng.standard_normal((n, 2))
        path_x = zx + np.cumsum(g[:, 0]) * sqrt_step
        path_y = zy + np.cumsum(g[:, 1]) * sqrt_step
        inside = ((path_x > x_lo) & (path_x < x_hi)
                  & (np.abs(path_y) < -np.interp(path_x, xs, ys)))
        if not inside.all():
            k = int(np.argmin(inside))
            return walk, float(path_x[k]), float(path_y[k])
        zx, zy = float(path_x[-1]), float(path_y[-1])
        remaining -= n
    return walk, None, None


def simulate_exit(bp: BoundaryPolyline, walks: int, step: float, seed: int,
                  max_steps: int = 10_000_000, workers: int | None = None) -> ExitSampleSet:
    """Run independent Euler walks from the origin until exit.

    Walks that consume `max_steps` without leaving, or whose exit depth
    reaches the rendered cap of an atom spike, are counted as truncated
    and excluded from the sample.  The per-walk streams make the result
    independent of `workers`.
    """
    if walks < 1:
        raise ValueError(f"walks must be >= 1, got {walks}")
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive, got {step}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    xs, ys = _lower_chain(bp)
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    if not (x_lo < 0.0 < x_hi) or not (-np.interp(0.0, xs, ys) > 0.0):
        raise TopologyError("origin is not inside the domain")

    sqrt_step = float(np.sqrt(step))
    tasks = [(w, seed, sqrt_step, max_steps, xs, ys, x_lo, x_hi)
             for w in range(walks)]
    n_workers = _resolve_workers(workers, walks)
    if n_workers == 1:
        results = [_run_walk(t) for t in tasks]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_walk, tasks, chunksize=64))
    results.sort(key=lambda r: r[0])

    ids, exits = [], []
    truncated = 0
    for walk, ex, ey in results:
        if ex is None:
            truncated += 1
            continue
        if bp.cap_depth is not None and abs(ey) >= bp.cap_depth:
            truncated += 1
            continue
        ids.append(walk)
        exits.append(ex)
    return ExitSampleSet(samples=np.array(exits), walk_ids=np.array(ids, dtype=int),
                         seed=seed, step=step, walks=walks,
                         truncated_walks=truncated)


def ks_distance(samples, dist: Distribution) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against dist."""
    arr = np.sort(np.asarray(samples, dtype=float))
    m = arr.size
    if m == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(dist.cdf(arr), dtype=float)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - f), np.max(f - (i - 1) / m)))
