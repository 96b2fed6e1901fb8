"""Discretization of a target law into a step quantile, with L1 error control.

The continuous target on a bounded support (a, b) is replaced by a
finitely supported measure sitting on grid points x_k = a + (b-a)k/n
and on the original atom locations.  A cell is kept when neither end
is on an atom.  Two schemes are provided: the c.d.f. scheme assigns each
kept grid cell its exact probability F(x_k) - F(x_{k-1}) and gives a
dropped cell to the atom it touches, so no mass moves by more than one
cell width h and sup_u |q(u) - q_n(u)| <= h; the p.d.f. scheme uses
left-endpoint density weights (b-a)/n * f(x_{k-1}) for the kept cells
and need not carry total mass one.

The resulting quantile is a step function.  `l1_distance` measures the
L1 gap int_0^1 |q - q'| du between any two laws or step quantiles, its
exact quantile and q_n among them, as the equal x-space integral
int |F - F'| dx, and `rate_bound` evaluates the a priori estimate
(b-a)/n plus the atom correction term, which vanishes for atomless laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import apply, cell_edges, frozen, gauss_legendre, row_sums
from .distributions import Distribution, atom_tolerance, bisect_smallest


class UnboundedSupportError(ValueError):
    """Raised when a scheme needing bounded support receives an unbounded law."""


_WIDTH_FLOOR = 1e-15        # level widths below this are unrepresentable
_LEVEL_TOL = 1e-9           # level slack: of s_0, and of dropped-cell pieces
                            # (one this thin merges into the next step)


@dataclass(frozen=True)
class StepQuantile:
    """Piecewise-constant quantile of a finitely supported measure.

    `breakpoints` holds the m+1 cumulative levels 0 = s_0 <= ... <= s_m
    and `values` the m step values (non-decreasing).  s_m is 1 for the
    c.d.f. scheme but may differ under the p.d.f. scheme.

    Every reading (values, c.d.f., jumps, norm, mean) follows one rule,
    q_n(min(u, s_m)) for levels u in (0, 1]: levels past s_m take the final
    value and levels past 1 are ignored.  Only `widths` is raw.  A scalar
    gives a Python float (`_quad.apply`).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ValueError("need m+1 breakpoints for m step values")
        if vals.size == 0:
            raise ValueError("at least one step is required")
        # each check is written so that a NaN fails it; with finite ends,
        # the order checks leave no inf inside
        if not abs(bp[0]) <= _LEVEL_TOL:
            raise ValueError(f"first breakpoint must be 0, got {bp[0]}")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(bp[-1]):
            raise ValueError(f"last breakpoint must be finite, got {bp[-1]}")
        if not (np.isfinite(vals[0]) and np.isfinite(vals[-1])):
            raise ValueError("first and last step values must be finite")
        # a non-decreasing array has its largest magnitude at an end
        tol = 1e-12 * (1.0 + max(abs(vals[0]), abs(vals[-1])))
        if not np.all(np.diff(vals) >= -tol):
            raise ValueError("step values must be non-decreasing")
        # the builders hand over frozen arrays, which are kept (`frozen`)
        if bp[0] != 0.0 or np.signbit(bp[0]):
            bp = np.concatenate(([0.0], bp[1:]))
        object.__setattr__(self, "breakpoints", frozen(bp))
        object.__setattr__(self, "values", frozen(vals))

    @property
    def num_steps(self) -> int:
        return self.values.size

    @property
    def total_mass(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def unit_mass(self) -> bool:
        """Whether s_m is 1 (within 1e-9), as boundary tracing needs."""
        return abs(self.total_mass - 1.0) <= 1e-9

    def _levels(self) -> np.ndarray:
        """The breakpoints as the rule reads them: min(s_j, 1), and s_m as 1."""
        levels = np.minimum(self.breakpoints, 1.0)
        levels[-1] = 1.0
        return levels

    def eval(self, u):
        """Step value at level u in (0, 1]; left-continuous."""
        arr = np.asarray(u, dtype=float)
        if arr.size and not (arr.min() > 0.0 and arr.max() <= 1.0 + 1e-12):
            raise ValueError("levels must lie in (0, 1]")
        # the levels run from 0 to 1, so each u in (0, 1] falls in a step
        return apply(lambda v: self.values[np.searchsorted(self._levels(), v) - 1],
                     np.minimum(arr, 1.0))

    def cdf(self, x):
        """Level of the steps with value <= x, capped at 1; 1 from v_m on."""
        return apply(lambda v: self._levels()[np.searchsorted(self.values, v, side="right")], x)

    def cdf_left(self, x):
        """Left limit of `cdf`: the level of the steps with value < x."""
        return apply(lambda v: self._levels()[np.searchsorted(self.values, v, side="left")], x)

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending levels s_j < 1 with a nonzero jump v_{j+1} - v_j, and those jumps."""
        levels, coeff = self.breakpoints[1:-1], np.diff(self.values)
        live = (coeff != 0.0) & (levels < 1.0)
        return levels[live], coeff[live]

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def l1_norm(self) -> float:
        """Integral of |q_n| over the levels (0, 1]."""
        return float(row_sums(np.abs(self.values), np.diff(self._levels())))

    def mean(self) -> float:
        return float(row_sums(self.values, np.diff(self._levels())))

    def mass_cuts(self) -> np.ndarray:
        """The step values: the c.d.f. is constant between them."""
        return self.values


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


def _cells(dist: Distribution, n: int):
    """Grid of n cells over the support, the atoms, and where they meet.

    Returns the n+1 nodes, the (location, mass) rows of the atoms, the
    mask of nodes within `_node_tolerance` of an atom and the mask of
    kept cells, those with neither end on an atom.  Atoms closer together
    than the `atom_tolerance` within which `Discrete` matches them share
    their left limits, so they are rejected.
    """
    a, b = _finite_support(dist)
    xs = grid(a, b, n)
    atoms = dist.atoms()
    locs = atoms[:, 0]
    near = np.diff(locs) <= atom_tolerance(np.maximum(np.abs(locs[:-1]), np.abs(locs[1:])))
    if np.any(near):
        lo, hi = locs[np.argmax(near):][:2].tolist()
        raise ValueError(f"atoms at {lo!r} and {hi!r} are closer than "
                         "1e-12 (1 + |x|), the tolerance within which atoms are "
                         "matched; merge them into one")
    on_node = np.zeros(n + 1, dtype=bool)
    for node, _ in _nodes_near(xs, locs):
        on_node[node] = True
    return xs, atoms, on_node, ~(on_node[:-1] | on_node[1:])


def _node_tolerance(a, b) -> float:
    """1e-12 max(1, b - a): a grid node on [a, b] this close to a point meets it."""
    return 1e-12 * max(1.0, b - a)


def _nodes_near(xs, points):
    """(nodes, points) pairs with a node within `_node_tolerance` of a point.

    Only the two nodes on either side of each point are looked at.
    """
    atol = _node_tolerance(xs[0], xs[-1])
    right = np.clip(np.searchsorted(xs, points), 1, xs.size - 1)
    for node in (right - 1, right):
        close = np.abs(xs[node] - points) <= atol
        yield node[close], points[close]


def build_measure_cdf(dist: Distribution, n: int) -> StepQuantile:
    """Step quantile of the c.d.f.-scheme discretization.

    Each kept cell (both ends off the atoms) puts its mass F(x_k) - F(x_{k-1})
    at its right end x_k, and each atom keeps its exact mass at its exact
    location.  The cuts are the grid nodes off the atoms and the atoms;
    the piece ending at cut c holds the levels (F(previous cut), F(c-)]
    and takes the value c if its cell is kept or c is an atom.  Otherwise
    it takes the atom at its left end: a dropped cell goes to the atom it
    touches.  So no mass moves by more than one cell width h, and
    sup_u |q(u) - q_n(u)| <= h.  The total mass is one.  F at a node
    within the atom tolerance of a breakpoint of F is taken at the
    breakpoint.
    """
    xs, atoms, on_node, kept = _cells(dist, n)
    locs = atoms[:, 0]
    nodes = np.flatnonzero(~on_node)
    # a node an ulp inside a piece edge, next to an empty cell, would leave
    # a sliver below the width floor, and the next step would take its levels
    at = xs.copy()
    for node, edge in _nodes_near(xs, dist.cdf_breakpoints()):
        at[node] = edge
    F = dist.cdf(at)[nodes]
    x = np.concatenate((xs[nodes], locs))
    order = np.argsort(x, kind="stable")
    x = x[order]
    is_atom = order >= nodes.size
    # the cell (x_{k-1}, x_k] a cut closes, as k
    cell = np.concatenate((nodes, np.searchsorted(xs, locs)))[order]
    in_kept = kept[np.clip(cell, 1, n) - 1]
    left = np.concatenate((F, dist.cdf_left(locs)))[order]
    right = np.concatenate((F, dist.cdf(locs)))[order]
    value = np.where(in_kept | is_atom, x, np.concatenate((x[:1], x[:-1])))

    # each cut gives the piece before it and the atom at it (empty off atoms);
    # a piece no wider than its floor merges into the next step
    levels = np.column_stack((left, right)).ravel()
    values = np.column_stack((value, x)).ravel()
    floor = np.column_stack((np.where(in_kept, _WIDTH_FLOOR, _LEVEL_TOL),
                             np.full(x.size, _WIDTH_FLOOR))).ravel()
    keep = np.diff(levels, prepend=0.0) > floor
    if not np.any(keep):
        raise ValueError("discretization produced no mass; check the target law")
    bps = np.concatenate(([0.0], levels[keep]))
    bps[-1] = 1.0
    values = values[keep]
    bps.flags.writeable = values.flags.writeable = False
    return StepQuantile(bps, values)


def build_measure_pdf(dist: Distribution, n: int) -> StepQuantile:
    """Step quantile of the p.d.f.-scheme discretization.

    Cell widths are left-endpoint Riemann weights (b-a)/n * f(x_{k-1}),
    so the cumulative levels are partial sums of the density and the
    total mass is generally not one.  Atoms keep their exact mass; cells
    touching an atom are dropped as in the c.d.f. scheme.
    """
    if not dist.has_density:
        raise ValueError("the p.d.f. scheme requires a target with a density")
    xs, atoms, _, kept = _cells(dist, n)
    f = dist.pdf(xs)[:-1][kept]
    if not np.all(np.isfinite(f)):
        bad = xs[:-1][kept][np.argmin(np.isfinite(f))]
        raise ValueError(f"density is not finite at grid node {bad}")
    values = np.concatenate((atoms[:, 0], xs[1:][kept]))
    widths = np.concatenate((atoms[:, 1], (xs[-1] - xs[0]) / n * f))
    order = np.argsort(values, kind="stable")
    order = order[widths[order] > _WIDTH_FLOOR]
    if not order.size:
        raise ValueError("discretization produced no mass; check the target law")
    bps = np.concatenate(([0.0], np.cumsum(widths[order])))
    values = values[order]
    bps.flags.writeable = values.flags.writeable = False
    return StepQuantile(bps, values)


def build_measure(dist: Distribution, n: int, scheme: str = "cdf") -> StepQuantile:
    """Dispatch on the scheme name ('cdf' or 'pdf')."""
    if scheme == "cdf":
        return build_measure_cdf(dist, n)
    if scheme == "pdf":
        return build_measure_pdf(dist, n)
    raise ValueError(f"unknown scheme {scheme!r}; expected 'cdf' or 'pdf'")


# -------------------------------------------------------------- L1 distance


def _end_signs(a, b, cuts):
    """Signs of F - G at each cell's left end and of the left limits at its
    right end, and whether F and G both vary on the cell."""
    lo, hi = cuts[:-1], cuts[1:]
    fa, ga, fb, gb = a.cdf(lo), b.cdf(lo), a.cdf_left(hi), b.cdf_left(hi)
    return np.sign(fa - ga), np.sign(fb - gb), (fa != fb) & (ga != gb)


def l1_distance(a, b) -> float:
    """L1 gap int_0^1 |q_a - q_b| du between the quantiles of `a` and `b`.

    Each of `a` and `b` is a law or a step quantile, the latter read by the
    `StepQuantile` rule; supports may be unbounded.  The gap is taken as
    int |F - G| dx (Villani, Topics in Optimal Transportation, 2.2), F and
    G the c.d.f.s of `a` and `b` read with their left limits (`cdf_left`),
    over the cells of both `mass_cuts`.  The cuts of each law hold every x
    where its F jumps or loses smoothness and leave each cell at most 1/64
    of its mass, so F - G changes sign at most once per cell; an unbounded
    tail is left out past the quantile of 2^-52 (or 1 - 2^-52).  A cell is
    split at the smallest float where (F - G) s > 0 (`bisect_smallest`), s
    the sign after the change, when F - G at its left end and F- - G- at
    its right end have opposite signs, or when one of them is 0 and both
    laws vary on the cell: s then comes from the other end, and a cell with
    both ends 0 is halved first.  Every other cell stays whole: with one
    law constant on a cell F - G is monotone there, so a zero end rules a
    change out.  The left limits read an atom at a cut exactly.  Each piece
    gets the Gauss-Legendre cell rule, one bounded block of cells at a time.
    """
    cuts = cell_edges(np.concatenate((a.mass_cuts(), b.mass_cuts())))
    left, right, vary = _end_signs(a, b, cuts)
    blind = vary & (left == 0) & (right == 0)
    if blind.any():
        cuts = cell_edges(np.concatenate((cuts, 0.5 * (cuts[:-1][blind] + cuts[1:][blind]))))
        left, right, vary = _end_signs(a, b, cuts)
    lo, hi = cuts[:-1], cuts[1:]
    side = np.where(right != 0, right, -left)
    cross = (left * right < 0) | (vary & (left * right == 0) & (side != 0))
    s = side[cross]
    split = bisect_smallest(lambda x: (a.cdf(x) - b.cdf(x)) * s > 0, lo[cross], hi[cross])
    gap = gauss_legendre(lambda x: np.abs(a.cdf(x) - b.cdf(x)),
                         np.concatenate((lo[~cross], lo[cross], split)),
                         np.concatenate((hi[~cross], split, hi[cross])))
    return math.fsum(gap)


# ------------------------------------------------------------- rate bounds


@dataclass(frozen=True)
class RateBound:
    """A priori L1 error bound for the c.d.f. scheme at a given n.

    `varpi` is the atom correction: for each atom it charges the mass the
    grid can displace within one cell on either side, weighted by the
    distance of the displaced location from the origin, so it is never
    negative.  It is exactly 0 for atomless laws, recovering the clean
    (b-a)/n rate.  When the law has a bounded density the refined
    coefficients give the sharper alpha/n + beta/n^2 form, with
    alpha = (b-a)/2 and beta = (b-a)^2 sum_i sup_i / 2, sup_i the sup of
    f on the i-th piece between breakpoints of F.  In a kept cell the gap
    is h dF/2 - int (x - mid)(f(x) - f(mid)) dx, so L1 <= h/2 + h^2 TV(f)/4,
    and TV(f), jumps at the piece edges included, is at most 2 sum_i sup_i
    when f is unimodal on each piece.  Neither coefficient depends on
    where the law sits.
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
    atol = _node_tolerance(a, b)
    # each atom is charged on a side where the next atom or support end is
    # farther than the atom tolerance; the charges are summed exactly
    locs = dist.atoms()[:, 0]
    left = np.where(locs > np.append(a, locs[:-1]) + atol,
                    np.abs(locs) * (dist.cdf_left(locs) - dist.cdf(locs - h)), 0.0)
    right = np.where(locs < np.append(locs[1:], b) - atol,
                     np.abs(locs + h) * (dist.cdf(locs + h) - dist.cdf(locs)), 0.0)
    varpi = math.fsum(np.concatenate((left, right)))

    alpha = beta = None
    if dist.has_density:
        # the sup of f on each piece between breakpoints, from 1023 interior
        # points and the law's mass cuts inside it, which find a narrow peak
        edges, cuts = dist.cdf_breakpoints(), dist.mass_cuts()
        sups = [float(np.max(dist.pdf(np.concatenate((np.linspace(lo, hi, 1025)[1:-1],
                                                      cuts[(cuts > lo) & (cuts < hi)])))))
                for lo, hi in zip(edges[:-1], edges[1:])]
        alpha = (b - a) / 2.0
        beta = (b - a) ** 2 * sum(sups) / 2.0

    return RateBound(n=n, cell_width=h, varpi=varpi, bound=h + varpi,
                     alpha=alpha, beta=beta)
