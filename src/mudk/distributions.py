"""Target distributions and their quantile machinery.

The pipeline reads a centered probability law on the real line through
its c.d.f. F, its left limits F(x-) (which differ from F at the atoms)
and, in the p.d.f. scheme, its density f.  The generalized inverse
q(u) = inf{x : F(x) >= u} is provided too.  This module supplies a
small family zoo (uniform, beta, exponential, truncated normal,
discrete, mixtures), affine reparametrizations, and
the truncation operator that folds unbounded tails into an atom at the
origin.

Every law follows one rule, applied in `Distribution` by `_quad.apply`: a
scalar argument gives a Python float back, an array a float array of its
shape, and quantile levels must lie in (0, 1), NaN excluded.

The special functions behind Beta and TruncatedNormal (the regularized
incomplete beta function and the normal c.d.f.) are computed here from
numpy and `math`, so no law loads scipy.  No law has a hand-written
inverse: every quantile bisects the c.d.f. to adjacent floats, and a
level inside the jump of F at an atom is that atom exactly.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ._quad import apply, cell_edges, gauss_legendre, row_sums


_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _ordered(i):
    """Map float bit patterns (int64) to keys that order as the floats do.

    Flipping the magnitude bits of the negative patterns puts -0.0 just
    below 0.0; the map is its own inverse.  A 0-d array stays an array.
    """
    return np.asarray(i ^ ((i >> 63) & _MAGNITUDE))


def atom_tolerance(x):
    """1e-12 (1 + |x|): a point this close to an atom at x meets the atom."""
    return 1e-12 * (1.0 + np.abs(x))


def bisect_smallest(predicate, lo, hi):
    """Smallest float x in (lo, hi] where a monotone predicate turns true.

    `predicate` maps a float array to booleans, false at `lo` and below
    some threshold, true at and above it; `hi` is taken as true and never
    tested, and lo == hi gives hi.  Vectorized over the bracket arrays, it
    halves the ordered bit patterns of the floats, so it ends at adjacent
    floats in at most 64 halvings, whatever the scale of the bracket.
    """
    lo_key = _ordered(np.asarray(lo, dtype=float).view(np.int64))
    hi_key = _ordered(np.asarray(hi, dtype=float).view(np.int64))
    while True:
        mid = (lo_key >> 1) + (hi_key >> 1) + (lo_key & hi_key & 1)     # cannot overflow
        if np.all(mid == lo_key):
            return _ordered(hi_key).view(float)
        hit = predicate(_ordered(mid).view(float))
        hi_key = np.where(hit, mid, hi_key)
        lo_key = np.where(hit, lo_key, mid)


def _normal_pdf(z):
    return np.exp(-z ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------- special functions
#
# The incomplete beta function and the normal c.d.f., on numpy arrays.

_TINY = 1e-300                  # Lentz's stand-in for a zero denominator
_EPS = 2.0 ** -53               # half an ulp of 1
_CF_TOL = 8.0 * _EPS            # a continued-fraction update this close to 1 ends it
_CF_MAX = 100_000               # ~sqrt(max(a, b)) terms are needed
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def _xlog(c, log, t):
    """c * log(t), with 0 * log(t) = 0 also where log(t) = -inf."""
    if c == 0.0:
        return np.zeros_like(t)
    with np.errstate(divide="ignore"):
        return c * log(t)


def _stirling_delta(s):
    """lgamma(s) - ((s - 1/2) ln s - s + ln sqrt(2 pi)), for s > 0."""
    if s < 10.0:
        return math.lgamma(s) - ((s - 0.5) * math.log(s) - s + _LN_SQRT_2PI)
    t = 1.0 / (s * s)
    return (1.0 / 12.0 + t * (-1.0 / 360.0 + t * (1.0 / 1260.0 + t * (
        -1.0 / 1680.0 + t * (1.0 / 1188.0 + t * (-691.0 / 360360.0 + t / 156.0)))))) / s


def _beta_log_front0(a, b):
    """ln(x0^a y0^b / B(a, b)) at the mean x0 = a/(a+b), y0 = 1 - x0.

    Stirling's series cancels the large terms of ln B(a, b) by hand, so
    the front factor below keeps full precision for shapes in the hundreds.
    """
    s = a + b
    return (0.5 * math.log(a * b / (2.0 * math.pi * s))
            - _stirling_delta(a) - _stirling_delta(b) + _stirling_delta(s))


class _BetaSide:
    """I_x(a, b) for 0 < x <= (a+1)/(a+b+2), by its continued fraction.

    Up to that edge the fraction converges, the slower the larger x, so
    the term count that Lentz's method needs at the edge serves every x;
    the fraction is then summed from its last term back.  Beyond the edge
    I_x(a, b) is 1 - I_{1-x}(b, a), on the side with the shapes swapped.
    """

    def __init__(self, a, b, log_front0):
        self.a, self.b, self.log_front0 = a, b, log_front0
        self.edge = (a + 1.0) / (a + b + 2.0)
        # the partial numerators are k_j x; Lentz's method at the edge
        # stops when an update is within a few ulp of 1
        s, x = a + b, self.edge
        terms = [-s / (a + 1.0)]
        c, d = 1.0, 1.0 / _nonzero1(1.0 + terms[0] * x)
        for m in range(1, _CF_MAX):
            m2 = a + 2.0 * m
            for k in (m * (b - m) / ((m2 - 1.0) * m2), -(a + m) * (s + m) / (m2 * (m2 + 1.0))):
                terms.append(k)
                d = 1.0 / _nonzero1(1.0 + k * x * d)
                c = _nonzero1(1.0 + k * x / c)
            if abs(d * c - 1.0) <= _CF_TOL:
                break
        self.terms = terms[::-1]

    def _log_front(self, x, y):
        """ln(x^a y^b / B(a, b)) with y = 1 - x, from its value at the mean.

        With x = x0 (1 + e) and y = y0 (1 + f), a e + b f = 0, so the
        exponent is a (ln(1+e) - e) + b (ln(1+f) - f): near the mean only
        these small remainders meet (TOMS 708's BRCOMP).
        """
        a, b = self.a, self.b
        s = a + b
        lam = a - s * x if a <= b else s * y - b
        e, f = -lam / a, lam / b
        return (self.log_front0 + a * (_log1p_at(e, x, s / a) - e)
                + b * (_log1p_at(f, y, s / b) - f))

    def value(self, x, y):
        """I_x(a, b) for arrays x and y = 1 - x."""
        with np.errstate(all="ignore"):
            front = np.exp(self._log_front(x, y))
            t = 1.0
            for k in self.terms:
                t = 1.0 + (k * x) / t
            return front / (self.a * t)


def _nonzero1(v):
    return v if abs(v) > _TINY else _TINY


def _log1p_at(e, x, scale):
    """ln(1 + e), where 1 + e = scale * x: near e = -1 from x itself."""
    out = np.log1p(e)
    far = e <= -0.6
    if far.any():
        out[far] = np.log(scale * x[far])
    return out


def _ibeta(sides, x):
    """I_x(a, b) for an array x."""
    lower, upper = sides
    flip = x > lower.edge
    value = np.where(np.isnan(x), x, flip)      # 0 at and below x = 0, 1 at and above x = 1
    below = ~flip & (x > 0.0)
    above = flip & (x < 1.0)
    if below.any():
        t = x[below]
        value[below] = lower.value(t, 1.0 - t)
    if above.any():
        t = x[above]
        value[above] = 1.0 - upper.value(1.0 - t, t)
    return value


def _erfc(t):
    return np.fromiter(map(math.erfc, t.ravel().tolist()), float, t.size).reshape(t.shape)


def _two_square(v):
    """(hi, lo) with v*v = hi + lo exactly (Dekker's product)."""
    hi = v * v
    c = 134217729.0 * v                         # 2^27 + 1 splits v in halves
    vh = c - (c - v)
    vl = v - vh
    return hi, ((vh * vh - hi) + 2.0 * vh * vl) + vl * vl


def _ndtr(z):
    """Standard normal c.d.f. of an array, to a few ulp for every z.

    The lower tail is erfc(t)/2 at t = |z|/sqrt(2).  t is rounded, and
    erfc(t) ~ exp(-t^2) turns that rounding into a relative error of
    2 t^2 ulp (1e-13 at z = -37); the factor exp(t^2 - z^2/2), from exact
    squares, takes it out.  Past |z| = 40 the tail is 0 in doubles.
    """
    a = np.minimum(np.abs(z), 40.0)
    t = a * _SQRT_HALF
    t2, t2_lo = _two_square(t)
    z2, z2_lo = _two_square(a)
    tail = 0.5 * _erfc(t) * np.exp((t2 - 0.5 * z2) + (t2_lo - 0.5 * z2_lo))
    return np.where(z < 0.0, tail, 1.0 - tail)


# ---------------------------------------------------------------- base class


class Distribution(abc.ABC):
    """A probability law on R, described through F and q.

    The public `cdf`, `cdf_left`, `pdf` and `quantile` live here alone:
    each converts its argument once (a scalar gives a Python float back,
    an array an array of its shape), refuses quantile levels outside
    (0, 1) once, and calls the array core `_cdf`, `_cdf_left`, `_pdf` or
    `_quantile`.  A law implements `_cdf`, `support` and `mean`, and,
    where it has them, `_pdf` (with `has_density`), `atoms` with their
    `_cdf_left`, and `cdf_breakpoints`.  The one `_quantile` returns an
    atom a for the levels in (F(a-), F(a)], and elsewhere runs
    `bisect_smallest` on `_cdf` over the support, an open end starting
    at the largest float, to the smallest float x with F(x) >= u.  A core
    calls its own law's cores directly and other laws through their
    public methods.
    """

    has_density = False
    _cuts = None                # mass_cuts of the default rule, once computed

    # ---- public interface

    def cdf(self, x):
        """F(x) = P(X <= x), right-continuous."""
        return apply(self._cdf, x)

    def cdf_left(self, x):
        """Left limit F(x-); differs from F(x) only at atoms."""
        return apply(self._cdf_left, x)

    def pdf(self, x):
        """Density of the absolutely continuous part (atoms excluded)."""
        if not self.has_density:
            raise ValueError(f"{type(self).__name__} does not expose a density")
        return apply(self._pdf, x)

    def quantile(self, u):
        """Left-continuous generalized inverse q(u) = inf{x : F(x) >= u}."""
        arr = np.asarray(u, dtype=float)
        # false for a NaN level, which min and max carry
        if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return apply(self._quantile, arr)

    # ---- required of every law

    @abc.abstractmethod
    def _cdf(self, x):
        """F on a float array."""

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """Smallest interval (a, b) carrying all mass; may be infinite."""

    @abc.abstractmethod
    def mean(self) -> float:
        ...

    # ---- shared cores

    def _cdf_left(self, x):
        # F has no jumps; a law with atoms defines its own
        return self._cdf(x)

    def _quantile(self, u):
        # an open end starts at the largest float: the halving spans the line
        big = np.finfo(float).max
        lo, hi = (np.full(u.shape, end) for end in np.clip(self.support(), -big, big))
        locs = self.atoms()[:, 0]
        if locs.size:
            # a level in (F(a-), F(a)] of an atom a is a itself: lo = hi = a
            top = self._cdf(locs)
            k = np.minimum(np.searchsorted(top, u), locs.size - 1)
            on_atom = (self._cdf_left(locs)[k] < u) & (u <= top[k])
            lo, hi = np.where(on_atom, locs[k], lo), np.where(on_atom, locs[k], hi)
        with np.errstate(over="ignore"):
            return bisect_smallest(lambda x: self._cdf(x) >= u, lo, hi)

    # ---- generic structure

    def atoms(self) -> np.ndarray:
        """The atoms as (location, mass) rows of a (k, 2) float array, ascending."""
        return np.empty((0, 2))

    def cdf_breakpoints(self) -> np.ndarray:
        """Ascending, distinct x where F is not smooth: finite ends, atoms, kinks."""
        pts = np.concatenate((self.atoms()[:, 0], self.support()))
        return cell_edges(pts[np.isfinite(pts)])

    def mass_cuts(self) -> np.ndarray:
        """Ascending cuts on whose cells 16-node Gauss-Legendre resolves F;
        every integral of F runs on them.

        The breakpoints of F and the quantiles of the levels k/64 (k = 1..63)
        and 2^-k, 1 - 2^-k (k = 1..52), so a cell holds at most 1/64 of the
        mass however narrow F rises or far a tail reaches.  Kept on the law.
        """
        if self._cuts is None:
            tail = 2.0 ** -np.arange(1, 53)
            levels = np.concatenate((np.arange(1, 64) / 64.0, tail, 1.0 - tail))
            self._cuts = cell_edges(np.concatenate((self.cdf_breakpoints(),
                                                    self.quantile(levels))))
            self._cuts.flags.writeable = False
        return self._cuts

    # ---- transforms

    def center(self) -> "Distribution":
        """Shift so the mean is 0."""
        return AffineDistribution(self, 1.0, -self.mean())

    def truncate(self, bound: float) -> "Distribution":
        """Restrict to [-bound, bound], lumping outside mass at 0."""
        return TruncatedDistribution(self, bound)


# ---------------------------------------------------------------- families


class Uniform(Distribution):
    """Uniform law on (a, b)."""

    has_density = True

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"uniform endpoints must be finite with a < b, got ({a}, {b})")
        self.a, self.b = a, b

    def __repr__(self):
        return f"Uniform({self.a}, {self.b})"

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _pdf(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def support(self):
        return (self.a, self.b)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def mass_cuts(self):
        # F is linear: Gauss-Legendre is exact on the one cell
        return np.array([self.a, self.b])


class Exponential(Distribution):
    """Exponential law with the given rate, supported on (0, inf)."""

    has_density = True

    def __init__(self, rate: float = 1.0):
        rate = float(rate)
        if not (np.isfinite(rate) and rate > 0):
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate

    def __repr__(self):
        return f"Exponential(rate={self.rate})"

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def _pdf(self, x):
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def support(self):
        return (0.0, np.inf)

    def mean(self):
        return 1.0 / self.rate


class Beta(Distribution):
    """Beta(alpha, beta) law on (0, 1), via the regularized incomplete beta."""

    has_density = True

    def __init__(self, alpha: float, beta: float):
        alpha, beta = float(alpha), float(beta)
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"shape {name} must be positive and finite, got {value}")
        self.alpha, self.beta = alpha, beta
        self._log_norm = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
        log_front0 = _beta_log_front0(alpha, beta)
        self._sides = (_BetaSide(alpha, beta, log_front0), _BetaSide(beta, alpha, log_front0))

    def __repr__(self):
        return f"Beta({self.alpha}, {self.beta})"

    def _cdf(self, x):
        return _ibeta(self._sides, x)

    def _pdf(self, x):
        inside = (x >= 0.0) & (x <= 1.0)
        t = np.clip(x, 0.0, 1.0)
        log_f = (_xlog(self.alpha - 1.0, np.log, t) + _xlog(self.beta - 1.0, np.log1p, -t)
                 - self._log_norm)
        return np.where(inside, np.exp(log_f), 0.0)

    def support(self):
        return (0.0, 1.0)

    def mean(self):
        return self.alpha / (self.alpha + self.beta)


class TruncatedNormal(Distribution):
    """Normal(mu, sigma) conditioned on the window (lo, hi).

    A window in the upper tail (alpha > 0) works with upper-tail
    probabilities, whose differences keep their precision there.
    """

    has_density = True

    def __init__(self, mu: float, sigma: float, lo: float, hi: float):
        mu, sigma, lo, hi = (float(v) for v in (mu, sigma, lo, hi))
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"window must be finite with lo < hi, got ({lo}, {hi})")
        self.mu, self.sigma, self.lo, self.hi = mu, sigma, lo, hi
        self._alpha = (lo - mu) / sigma
        self._beta = (hi - mu) / sigma
        self._cum_lo = float(self._cum(self._alpha))
        self._mass = float(self._cum(self._beta)) - self._cum_lo
        if self._mass <= 0:
            raise ValueError("window carries no normal mass")

    def __repr__(self):
        return f"TruncatedNormal({self.mu}, {self.sigma}, window=({self.lo}, {self.hi}))"

    def _cum(self, z):
        """P(Z <= z), or -P(Z > z) for a window in the upper tail."""
        return -_ndtr(-z) if self._alpha > 0.0 else _ndtr(z)

    def _cdf(self, x):
        z = (np.clip(x, self.lo, self.hi) - self.mu) / self.sigma
        return np.clip((self._cum(z) - self._cum_lo) / self._mass, 0.0, 1.0)

    def _pdf(self, x):
        inside = (x >= self.lo) & (x <= self.hi)
        z = (x - self.mu) / self.sigma
        return np.where(inside, _normal_pdf(z) / (self.sigma * self._mass), 0.0)

    def support(self):
        return (self.lo, self.hi)

    def mean(self):
        pa, pb = _normal_pdf(self._alpha), _normal_pdf(self._beta)
        return self.mu + self.sigma * (pa - pb) / self._mass


class Discrete(Distribution):
    """Purely atomic law given as (location, mass) pairs."""

    def __init__(self, atoms):
        rows = np.array([(float(x), float(p)) for x, p in atoms]).reshape(-1, 2)
        if not rows.size:
            raise ValueError("at least one atom is required")
        order = np.argsort(rows[:, 0], kind="stable")
        xs, ps = rows[order, 0], rows[order, 1]
        # each check below is written so that NaN fails it
        if not np.all(np.isfinite(xs)):
            raise ValueError("atom locations must be finite")
        if not np.all(ps > 0):
            raise ValueError("atom masses must be positive")
        if np.any(xs[1:] == xs[:-1]):
            raise ValueError("atom locations must be distinct")
        total = ps.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"atom masses must sum to 1, got {total}")
        self.xs = xs
        self.ps = ps / total
        self.cum = np.cumsum(self.ps)
        self.cum[-1] = 1.0

    def __repr__(self):
        return f"Discrete({self.atoms().tolist()})"

    def _mass_below(self, x):
        """Mass of the atoms strictly below x."""
        idx = np.searchsorted(self.xs, x, side="left")
        return np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)

    def _cdf(self, x):
        return self._mass_below(x + atom_tolerance(x))

    def _cdf_left(self, x):
        return self._mass_below(x - atom_tolerance(x))

    def atoms(self):
        return np.column_stack((self.xs, self.ps))

    def support(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def mean(self):
        return float(row_sums(self.xs, self.ps))


class Mixture(Distribution):
    """Convex combination of component laws."""

    def __init__(self, components):
        comps = [(float(w), d) for w, d in components]
        if not comps:
            raise ValueError("at least one component is required")
        if not all(w > 0 for w, _ in comps):       # false for a NaN weight
            raise ValueError("component weights must be positive")
        total = sum(w for w, _ in comps)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total}")
        self.components = [(w / total, d) for w, d in comps]

    def __repr__(self):
        return f"Mixture({self.components})"

    def _cdf(self, x):
        return sum(w * d.cdf(x) for w, d in self.components)

    def _cdf_left(self, x):
        return sum(w * d.cdf_left(x) for w, d in self.components)

    @property
    def has_density(self):
        return any(d.has_density for _, d in self.components)

    def _pdf(self, x):
        return sum(w * d.pdf(x) for w, d in self.components if d.has_density)

    def atoms(self):
        # equal locations of several components merge, masses summed in order
        rows = np.concatenate([d.atoms() * (1.0, w) for w, d in self.components])
        locs = cell_edges(rows[:, 0])
        mass = np.bincount(np.searchsorted(locs, rows[:, 0]), rows[:, 1], locs.size)
        return np.column_stack((locs, mass))

    def support(self):
        los, his = zip(*(d.support() for _, d in self.components))
        return (min(los), max(his))

    def mean(self):
        return sum(w * d.mean() for w, d in self.components)

    def cdf_breakpoints(self):
        return cell_edges(np.concatenate([d.cdf_breakpoints() for _, d in self.components]))

    def mass_cuts(self):
        return cell_edges(np.concatenate([d.mass_cuts() for _, d in self.components]))


class AffineDistribution(Distribution):
    """Law of scale*X + offset for a base law X, with scale > 0."""

    def __init__(self, base: Distribution, scale: float, offset: float):
        scale, offset = float(scale), float(offset)
        if not (np.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.base = base
        self._scale = scale
        self._offset = offset

    def __repr__(self):
        return f"AffineDistribution({self.base!r}, scale={self._scale}, offset={self._offset})"

    def _pull(self, x):
        return (x - self._offset) / self._scale

    def _cdf(self, x):
        return self.base.cdf(self._pull(x))

    def _cdf_left(self, x):
        return self.base.cdf_left(self._pull(x))

    @property
    def has_density(self):
        return self.base.has_density

    def _pdf(self, x):
        return self.base.pdf(self._pull(x)) / self._scale

    def atoms(self):
        return self.base.atoms() * (self._scale, 1.0) + (self._offset, 0.0)

    def support(self):
        a, b = self.base.support()
        return (self._scale * a + self._offset, self._scale * b + self._offset)

    def mean(self):
        return self._scale * self.base.mean() + self._offset

    def cdf_breakpoints(self):
        # the map can round two points a few ulp apart to one float; so in mass_cuts
        return cell_edges(self._scale * self.base.cdf_breakpoints() + self._offset)

    def mass_cuts(self):
        return cell_edges(self._scale * self.base.mass_cuts() + self._offset)


class TruncatedDistribution(Distribution):
    """Base law restricted to [-bound, bound], outside mass moved to 0.

    The c.d.f. is F(x) - F(-bound^-) below 0 and F(x) + 1 - F(bound) at
    and above 0, which lumps both tails into a single atom at the
    origin.
    """

    def __init__(self, base: Distribution, bound: float):
        bound = float(bound)
        if not (np.isfinite(bound) and bound > 0):
            raise ValueError(f"truncation bound must be positive and finite, got {bound}")
        self.base = base
        self.bound = bound
        self._f_lo = base.cdf_left(-bound)        # F(-bound^-)
        self._f_hi = base.cdf(bound)              # F(bound)
        self._lo_level = base.cdf_left(0.0) - self._f_lo
        self._hi_level = base.cdf(0.0) + 1.0 - self._f_hi
        if self._lo_level < -1e-12 or self._hi_level > 1.0 + 1e-12:
            raise ValueError("base law is inconsistent at the truncation window")

    def __repr__(self):
        return f"TruncatedDistribution({self.base!r}, bound={self.bound})"

    def origin_mass(self) -> float:
        """Mass of the atom at 0 (folded tails plus any base atom there)."""
        return self._hi_level - self._lo_level

    def _fold(self, x, base_f, below):
        """The folded c.d.f. from the base's F (or F(x-)); `below` is < (or <=)."""
        return np.select(
            [below(x, -self.bound), below(x, 0.0), x <= self.bound],
            [0.0,
             np.maximum(base_f - self._f_lo, 0.0),
             np.minimum(base_f + 1.0 - self._f_hi, 1.0)],
            default=1.0)

    def _cdf(self, x):
        return self._fold(x, self.base.cdf(x), np.less)

    def _cdf_left(self, x):
        return self._fold(x, self.base.cdf_left(x), np.less_equal)

    def atoms(self):
        rows = self.base.atoms()
        rows = rows[(np.abs(rows[:, 0]) <= self.bound) & (rows[:, 0] != 0.0)]
        lump = self.origin_mass()
        if lump > 1e-15:
            rows = np.insert(rows, np.searchsorted(rows[:, 0], 0.0), (0.0, lump), axis=0)
        return rows

    def support(self):
        if self._f_hi - self._f_lo <= 0.0:
            return (0.0, 0.0)       # no base mass in the window: the origin atom alone
        a, b = self.base.support()
        lo = max(a, -self.bound)
        hi = min(b, self.bound)
        if self.origin_mass() > 1e-15:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        return (lo, hi)

    def mean(self):
        # by parts, E[X] = b - int_a^b F dx for a law on [a, b]
        cuts = self.mass_cuts()
        return float(cuts[-1] - gauss_legendre(self.cdf, cuts[:-1], cuts[1:]).sum())

    @property
    def has_density(self):
        return self.base.has_density

    def _pdf(self, x):
        """Density part inside the window; the origin atom is not included."""
        inside = (x >= -self.bound) & (x <= self.bound)
        return np.where(inside, self.base.pdf(x), 0.0)

    def cdf_breakpoints(self):
        # the support lies inside the window [-bound, bound]
        pts = np.concatenate((self.base.cdf_breakpoints(), (-self.bound, 0.0, self.bound)))
        a, b = self.support()
        return cell_edges(pts[(pts >= a) & (pts <= b)])

    def mass_cuts(self):
        cuts = self.base.mass_cuts()
        inside = cuts[np.abs(cuts) <= self.bound]
        return cell_edges(np.concatenate((inside, self.cdf_breakpoints())))

