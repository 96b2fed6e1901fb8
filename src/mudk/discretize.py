"""Discretization of a target law into a step quantile, with L1 error control.

The continuous target on a bounded support (a, b) is replaced by a
finitely supported measure sitting on grid points x_k = a + (b-a)k/n
and on the original atom locations.  Two schemes are provided: the
c.d.f. scheme assigns each kept grid cell its exact probability
F(x_k) - F(x_{k-1}), while the p.d.f. scheme uses left-endpoint density
weights (b-a)/n * f(x_{k-1}) and need not carry total mass one.

The resulting quantile is a step function.  `l1_distance` measures its
L1 gap to the exact quantile, int_0^1 |q - q_n| du, as the equal x-space
integral int |F - F_n| dx against the step c.d.f. F_n, and `rate_bound`
evaluates the a priori estimate (b-a)/n plus the atom correction term,
which vanishes for atomless laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import gauss_legendre
from .distributions import Distribution, bisect_smallest


class UnboundedSupportError(ValueError):
    """Raised when a scheme needing bounded support receives an unbounded law."""


_WIDTH_FLOOR = 1e-15        # level widths below this are unrepresentable
_LEVEL_TOL = 1e-9           # tiling consistency tolerance in level space


@dataclass(frozen=True)
class StepQuantile:
    """Piecewise-constant quantile of a finitely supported measure.

    `breakpoints` holds the m+1 cumulative levels 0 = s_0 <= ... <= s_m,
    `values` the m step values (non-decreasing), and `atom_steps` flags
    the steps that reproduce an original atom of the target (their width
    equals the atom mass exactly).  s_m is 1 for the c.d.f. scheme but
    may differ under the p.d.f. scheme.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    atom_steps: np.ndarray = field(default=None)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        flags = (np.zeros(vals.size, dtype=bool) if self.atom_steps is None
                 else np.asarray(self.atom_steps, dtype=bool))
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ValueError("need m+1 breakpoints for m step values")
        if vals.size == 0:
            raise ValueError("at least one step is required")
        if flags.size != vals.size:
            raise ValueError("atom_steps must align with values")
        if abs(bp[0]) > _LEVEL_TOL:
            raise ValueError(f"first breakpoint must be 0, got {bp[0]}")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(vals) < -1e-12 * (1.0 + np.max(np.abs(vals)))):
            raise ValueError("step values must be non-decreasing")
        bp = bp.copy()
        bp[0] = 0.0
        for arr in (bp, vals, flags):
            arr.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "atom_steps", flags)

    @property
    def num_steps(self) -> int:
        return self.values.size

    @property
    def total_mass(self) -> float:
        return float(self.breakpoints[-1])

    def eval(self, u):
        """Step value at level u; left-continuous, defined on (0, s_m]."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        if arr.size and (np.any(arr <= 0.0) or np.any(arr > self.total_mass + 1e-12)):
            raise ValueError(f"levels must lie in (0, {self.total_mass}]")
        idx = np.searchsorted(self.breakpoints, np.minimum(arr, self.total_mass),
                              side="left") - 1
        idx = np.clip(idx, 0, self.num_steps - 1)
        out = self.values[idx]
        return float(out) if scalar else out

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def l1_norm(self) -> float:
        """Integral of |value| against level width."""
        return float(np.abs(self.values) @ self.widths())

    def mean(self) -> float:
        return float(self.values @ self.widths())


def grid(a: float, b: float, n: int) -> np.ndarray:
    """Uniform grid of n+1 nodes over [a, b]."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"grid needs finite a < b, got ({a}, {b})")
    if n < 1:
        raise ValueError(f"grid needs n >= 1, got {n}")
    return np.linspace(a, b, n + 1)


def _finite_support(dist: Distribution) -> tuple[float, float]:
    a, b = dist.support()
    if not (np.isfinite(a) and np.isfinite(b)):
        raise UnboundedSupportError(
            f"support ({a}, {b}) is unbounded; truncate the law first")
    return a, b


def _atom_layout(dist, xs, atol):
    """Atom list plus flags marking grid nodes that collide with atoms."""
    atoms = dist.atoms()
    node_hits = np.zeros(xs.size, dtype=bool)
    if atoms:
        locs = np.array([loc for loc, _ in atoms])
        node_hits = np.min(np.abs(xs[:, None] - locs[None, :]), axis=1) <= atol
    return atoms, node_hits


def build_measure_cdf(dist: Distribution, n: int) -> StepQuantile:
    """Step quantile of the c.d.f.-scheme discretization.

    Kept cells (both endpoints off the atom set) receive their exact mass
    F(x_k) - F(x_{k-1}) at the right endpoint x_k; atoms keep their exact
    mass at their exact location.  Cells touching an atom are dropped and
    the level range they covered is reassigned to the neighboring atom
    value, so the output still carries total mass one.
    """
    a, b = _finite_support(dist)
    xs = grid(a, b, n)
    atol = 1e-12 * max(1.0, b - a)
    atoms, node_hits = _atom_layout(dist, xs, atol)

    # each entry: [lo_level, hi_level, value, is_atom]
    intervals = [[float(dist.cdf_left(loc)), float(dist.cdf(loc)), loc, True]
                 for loc, _ in atoms]
    intervals = [iv for iv in intervals if iv[1] - iv[0] > _WIDTH_FLOOR]

    F = np.asarray(dist.cdf(xs), dtype=float)
    for k in range(1, n + 1):
        if node_hits[k - 1] or node_hits[k]:
            continue
        lo, hi = float(F[k - 1]), float(F[k])
        if hi - lo <= _WIDTH_FLOOR:
            continue
        inner = [loc for loc, _ in atoms if xs[k - 1] < loc < xs[k]]
        if not inner:
            intervals.append([lo, hi, float(xs[k]), False])
            continue
        # off-grid atoms inside a kept cell: split its mass around them
        cur = lo
        for loc in inner:
            fl = float(dist.cdf_left(loc))
            if fl - cur > _WIDTH_FLOOR:
                intervals.append([cur, fl, loc, False])
            cur = float(dist.cdf(loc))
        if hi - cur > _WIDTH_FLOOR:
            intervals.append([cur, hi, float(xs[k]), False])

    if not intervals:
        raise ValueError("discretization produced no mass; check the target law")
    intervals.sort(key=lambda iv: (iv[0], iv[1]))

    # fill level gaps left by dropped cells, snapping to the adjacent atom value
    tiled = []
    if intervals[0][0] > _LEVEL_TOL:
        tiled.append([0.0, intervals[0][0], intervals[0][2], False])
    for iv in intervals:
        if tiled:
            gap = iv[0] - tiled[-1][1]
            if gap < -_LEVEL_TOL:
                raise ValueError("internal error: overlapping level intervals")
            if gap > _LEVEL_TOL:
                val = iv[2] if iv[3] else (tiled[-1][2] if tiled[-1][3] else iv[2])
                tiled.append([tiled[-1][1], iv[0], val, False])
        tiled.append(iv)
    if tiled[-1][1] < 1.0 - _LEVEL_TOL:
        tiled.append([tiled[-1][1], 1.0, tiled[-1][2], False])

    bps = [0.0]
    vals, flags = [], []
    for lo, hi, val, is_atom in tiled:
        if abs(lo - bps[-1]) > _LEVEL_TOL:
            raise ValueError("internal error: level tiling is not contiguous")
        bps.append(hi)
        vals.append(val)
        flags.append(is_atom)
    total = bps[-1]
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"internal error: total mass {total} != 1")
    bps[-1] = 1.0
    return StepQuantile(np.array(bps), np.array(vals), np.array(flags))


def build_measure_pdf(dist: Distribution, n: int) -> StepQuantile:
    """Step quantile of the p.d.f.-scheme discretization.

    Cell widths are left-endpoint Riemann weights (b-a)/n * f(x_{k-1}),
    so the cumulative levels are partial sums of the density and the
    total mass is generally not one.  Atoms keep their exact mass; cells
    touching an atom are dropped as in the c.d.f. scheme.
    """
    if not dist.has_density:
        raise ValueError("the p.d.f. scheme requires a target with a density")
    a, b = _finite_support(dist)
    xs = grid(a, b, n)
    h = (b - a) / n
    atol = 1e-12 * max(1.0, b - a)
    atoms, node_hits = _atom_layout(dist, xs, atol)

    events = [(loc, mass, loc, True) for loc, mass in atoms if mass > _WIDTH_FLOOR]
    f = np.asarray(dist.pdf(xs), dtype=float)
    for k in range(1, n + 1):
        if node_hits[k - 1] or node_hits[k]:
            continue
        if not np.isfinite(f[k - 1]):
            raise ValueError(f"density is not finite at grid node {xs[k - 1]}")
        w = h * float(f[k - 1])
        if w <= _WIDTH_FLOOR:
            continue
        events.append((float(xs[k]), w, float(xs[k]), False))
    if not events:
        raise ValueError("discretization produced no mass; check the target law")
    events.sort(key=lambda ev: ev[0])

    widths = np.array([w for _, w, _, _ in events])
    bps = np.concatenate(([0.0], np.cumsum(widths)))
    vals = np.array([v for _, _, v, _ in events])
    flags = np.array([fl for _, _, _, fl in events])
    return StepQuantile(bps, vals, flags)


def build_measure(dist: Distribution, n: int, scheme: str = "cdf") -> StepQuantile:
    """Dispatch on the scheme name ('cdf' or 'pdf')."""
    if scheme == "cdf":
        return build_measure_cdf(dist, n)
    if scheme == "pdf":
        return build_measure_pdf(dist, n)
    raise ValueError(f"unknown scheme {scheme!r}; expected 'cdf' or 'pdf'")


# ------------------------------------------------------------- L1 distances


def _cdf_gap(F, G, cuts):
    """Integral of |F - G| over (min(cuts), max(cuts)).

    The L1 distances below all reduce to it through the identity
    int_0^1 |q - q'| du = int |F - F'| dx (Villani, Topics in Optimal
    Transportation, 2.2).  `cuts` must hold
    every x where F or G jumps or loses smoothness, so that F - G changes
    sign at most once per cell, as when G is constant there.  Each cell is
    split at that change, found by bisection, and both sides get the
    Gauss-Legendre cell rule.
    """
    cuts = np.unique(np.asarray(cuts, dtype=float))
    lo, hi = cuts[:-1], cuts[1:]
    # F, G are right-continuous, so their values at lo hold just inside.  A
    # change found within tol of lo is at lo itself: the cell stays whole.
    # Atoms match within 1e-12 (1 + |x|) (`Distribution.cdf_left`), a band
    # this tol never resolves, so it cannot split a cell either.
    tol = 1e-9 * (1.0 + np.abs(hi))
    left_pos = F(lo) > G(lo)
    split = bisect_smallest(lambda x: (F(x) > G(x)) != left_pos, lo, hi, tol=tol)
    split = np.where(split - lo <= tol, lo, split)
    gap = gauss_legendre(lambda x: np.abs(F(x) - G(x)),
                         np.concatenate((lo, split)), np.concatenate((split, hi)))
    return math.fsum(gap)


def _step_cdf(sq: StepQuantile, top: float):
    """C.d.f. of a step quantile: the width of the steps with value <= x,
    capped at `top`, and `top` from the last step value on."""
    levels = np.minimum(sq.breakpoints, top)
    levels[-1] = top
    return lambda x: levels[np.searchsorted(sq.values, x, side="right")]


def l1_distance(dist: Distribution, sq: StepQuantile) -> float:
    """L1 gap between the exact quantile and a step quantile over (0, 1).

    Levels above the step quantile's total mass (p.d.f. scheme) compare
    against its final value; levels past 1 are ignored.  Needs bounded
    support.
    """
    _finite_support(dist)
    cuts = np.concatenate((sq.values, dist.cdf_breakpoints()))
    return _cdf_gap(dist.cdf, _step_cdf(sq, 1.0), cuts)


def tail_defect(dist: Distribution, sq: StepQuantile, delta: float) -> float:
    """Larger of the two end-tail contributions to the L1 gap.

    Levels (0, delta) are the x-integral of |min(F, delta) - min(F_n, delta)|,
    levels (1 - delta, 1) the same with max(., 1 - delta).
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    _finite_support(dist)
    F, G = dist.cdf, _step_cdf(sq, 1.0)
    cuts = np.concatenate((sq.values, dist.cdf_breakpoints(),
                           dist.quantile([delta, 1.0 - delta])))
    low = _cdf_gap(lambda x: np.minimum(F(x), delta),
                   lambda x: np.minimum(G(x), delta), cuts)
    high = _cdf_gap(lambda x: np.maximum(F(x), 1.0 - delta),
                    lambda x: np.maximum(G(x), 1.0 - delta), cuts)
    return max(low, high)


def step_l1_distance(sq1: StepQuantile, sq2: StepQuantile) -> float:
    """Exact L1 distance between two step quantiles.

    Integrates over (0, max total mass), extending the shorter one by its
    final value.
    """
    top = max(sq1.total_mass, sq2.total_mass)
    return _cdf_gap(_step_cdf(sq1, top), _step_cdf(sq2, top),
                    np.concatenate((sq1.values, sq2.values)))


def quantile_l1(dist_a: Distribution, dist_b: Distribution,
                tol: float = 1e-10) -> float:
    """L1 distance between two exact quantiles over (0, 1).

    Cells between the breakpoints of both laws need F_a - F_b to change
    sign at most once each, as for a law and its truncation.  Unbounded
    x-tails are integrated adaptively to absolute tolerance `tol`.
    """
    Fa, Fb = dist_a.cdf, dist_b.cdf
    cuts = np.unique(np.concatenate((dist_a.cdf_breakpoints(),
                                     dist_b.cdf_breakpoints())))
    total = _cdf_gap(Fa, Fb, cuts)
    (a1, b1), (a2, b2) = dist_a.support(), dist_b.support()
    lo, hi = min(a1, a2), max(b1, b2)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        from scipy.integrate import quad

        def gap(x):
            return abs(float(Fa(x)) - float(Fb(x)))

        # a finite end is a cut, so its tail is empty
        for a, b in ((lo, cuts[0]), (cuts[-1], hi)):
            total += quad(gap, a, b, epsabs=tol, epsrel=0.0)[0]
    return total


# ------------------------------------------------------------- rate bounds


@dataclass(frozen=True)
class RateBound:
    """A priori L1 error bound for the c.d.f. scheme at a given n.

    `varpi` is the atom correction: for each atom it charges the mass the
    grid can displace within one cell on either side, weighted by the
    displaced location.  It is exactly 0 for atomless laws, recovering
    the clean (b-a)/n rate.  When the law has a bounded density the
    refined coefficients give the sharper alpha/n + beta/n^2 form.
    """

    n: int
    cell_width: float
    varpi: float
    bound: float
    alpha: float | None = None
    beta: float | None = None

    @property
    def refined_bound(self) -> float | None:
        if self.alpha is None:
            return None
        return self.alpha / self.n + self.beta / self.n ** 2


def rate_bound(dist: Distribution, n: int) -> RateBound:
    """Evaluate the L1 rate bound (b-a)/n + varpi for the c.d.f. scheme."""
    a, b = _finite_support(dist)
    if not a < b:
        raise ValueError(f"support must be a nondegenerate interval, got ({a}, {b})")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h = (b - a) / n
    atol = 1e-12 * max(1.0, b - a)
    atoms = dist.atoms()

    varpi = 0.0
    for i, (loc, _) in enumerate(atoms):
        prev_edge = atoms[i - 1][0] if i > 0 else a
        next_edge = atoms[i + 1][0] if i + 1 < len(atoms) else b
        if loc > prev_edge + atol:
            varpi += loc * (float(dist.cdf_left(loc)) - float(dist.cdf(loc - h)))
        if loc < next_edge - atol:
            varpi += (loc + h) * (float(dist.cdf(loc + h)) - float(dist.cdf(loc)))

    alpha = beta = None
    if dist.has_density:
        edges = [a] + [loc for loc, _ in atoms if a < loc < b] + [b]
        sups = [dist.density_sup(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        alpha = (b - a) * (1.0 + sum(m * (lo + hi)
                                     for m, lo, hi in zip(sups, edges[:-1], edges[1:])))
        beta = (b - a) ** 2 * sum(sups)

    return RateBound(n=n, cell_width=h, varpi=varpi, bound=h + varpi,
                     alpha=alpha, beta=beta)
