"""Target distributions and their quantile machinery.

Every construction downstream consumes a centered probability law on the
real line through two functions only: the c.d.f. F and the generalized
inverse q(u) = inf{x : F(x) >= u}.  This module supplies a small family
zoo (uniform, beta, exponential, truncated normal, two-piece uniform,
discrete, mixtures), affine reparametrizations, and the truncation
operator that folds unbounded tails into an atom at the origin.

Only Beta and TruncatedNormal need scipy; their methods import
`scipy.special` where they call it, so the other laws never load scipy.
"""

from __future__ import annotations

import abc

import numpy as np

from ._quad import gauss_legendre


def _as_float_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _restore(a, scalar):
    return float(a) if scalar else a


def _check_levels(u):
    """Validate quantile levels: every u must lie strictly inside (0,1)."""
    arr, scalar = _as_float_array(u)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    return arr, scalar


def bisect_smallest(predicate, lo, hi, tol=1e-12, max_iter=200):
    """Smallest x in (lo, hi] where a monotone predicate turns true.

    `predicate` maps a float array to booleans and must be monotone
    (false below some threshold, true at and above it).  Vectorized over
    the bracket arrays; converges to absolute tolerance `tol` in x.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(max_iter):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        hit = predicate(mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    return hi


def _normal_pdf(z):
    return np.exp(-z ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------- base class


class Distribution(abc.ABC):
    """A probability law on R, described through F and q.

    Subclasses must provide `cdf`, `support` and `mean`;
    everything else has generic fallbacks, such as the bisection
    quantile.
    """

    # ---- required interface

    @abc.abstractmethod
    def cdf(self, x):
        """F(x) = P(X <= x), right-continuous."""

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """Smallest interval (a, b) carrying all mass; may be infinite."""

    @abc.abstractmethod
    def mean(self) -> float:
        ...

    # ---- generic structure

    def atoms(self) -> list[tuple[float, float]]:
        """Atom locations and masses, sorted by location."""
        return []

    @property
    def has_density(self) -> bool:
        return False

    def pdf(self, x):
        raise ValueError(f"{type(self).__name__} does not expose a density")

    def cdf_left(self, x):
        """Left limit F(x-); differs from F(x) only at atoms."""
        arr, scalar = _as_float_array(x)
        out = np.asarray(self.cdf(arr), dtype=float).copy()
        for loc, mass in self.atoms():
            # tolerant match: atom locations may carry affine round-off
            hit = np.abs(arr - loc) <= 1e-12 * (1.0 + abs(loc))
            out = np.where(hit, out - mass, out)
        return _restore(np.maximum(out, 0.0), scalar)

    def cdf_breakpoints(self) -> list[float]:
        """x-locations where F is not smooth (support edges, atoms, kinks)."""
        pts = [loc for loc, _ in self.atoms()]
        a, b = self.support()
        if np.isfinite(a):
            pts.append(a)
        if np.isfinite(b):
            pts.append(b)
        return sorted(set(pts))

    # ---- quantiles

    def quantile(self, u):
        """Left-continuous generalized inverse q(u) = inf{x : F(x) >= u}."""
        arr, scalar = _check_levels(u)
        return _restore(self._quantile_bisect(arr), scalar)

    def _quantile_bisect(self, u):
        a, b = self.support()
        lo = np.full(u.shape, a - 1e-9 if np.isfinite(a) else -1.0)
        hi = np.full(u.shape, b if np.isfinite(b) else 1.0)
        pred = lambda x: np.asarray(self.cdf(x)) >= u
        # expand open-ended brackets until they straddle the target level
        for _ in range(200):
            bad_lo = ~np.isfinite(a) & (np.asarray(self.cdf(lo)) >= u)
            bad_hi = ~pred(hi)
            if not (np.any(bad_lo) or np.any(bad_hi)):
                break
            lo = np.where(bad_lo, 2.0 * lo - 1.0, lo)
            hi = np.where(bad_hi, 2.0 * hi + 1.0, hi)
        return bisect_smallest(pred, lo, hi)

    # ---- transforms

    def center(self) -> "Distribution":
        """Shift so the mean is 0."""
        return AffineDistribution(self, 1.0, -self.mean())

    def truncate(self, bound: float) -> "Distribution":
        """Restrict to [-bound, bound], lumping outside mass at 0."""
        return TruncatedDistribution(self, bound)

    def density_sup(self, lo: float, hi: float) -> float:
        """Numerical sup of the density part over (lo, hi); 0 if no density."""
        if not self.has_density or hi <= lo:
            return 0.0
        xs = np.linspace(lo, hi, 1025)[1:-1]
        vals = np.asarray(self.pdf(xs), dtype=float)
        return float(np.max(vals)) if vals.size else 0.0


# ---------------------------------------------------------------- families


class Uniform(Distribution):
    """Uniform law on (a, b)."""

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"uniform endpoints must be finite with a < b, got ({a}, {b})")
        self.a, self.b = a, b

    def __repr__(self):
        return f"Uniform({self.a}, {self.b})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        return _restore(np.clip((arr - self.a) / (self.b - self.a), 0.0, 1.0), scalar)

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        inside = (arr >= self.a) & (arr <= self.b)
        return _restore(np.where(inside, 1.0 / (self.b - self.a), 0.0), scalar)

    @property
    def has_density(self):
        return True

    def quantile(self, u):
        arr, scalar = _check_levels(u)
        return _restore(self.a + arr * (self.b - self.a), scalar)

    def support(self):
        return (self.a, self.b)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def density_sup(self, lo, hi):
        if min(hi, self.b) <= max(lo, self.a):
            return 0.0
        return 1.0 / (self.b - self.a)


class TwoPieceUniform(Distribution):
    """Uniform law on the union (a1, b1) | (a2, b2) of two intervals.

    Density is constant 1/(|b1-a1| + |b2-a2|) on both pieces, so the
    quantile has a flat gap across (b1, a2) and the induced domain must
    contain a vertical strip there.
    """

    def __init__(self, a1: float, b1: float, a2: float, b2: float):
        vals = [float(v) for v in (a1, b1, a2, b2)]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("two-piece endpoints must be finite")
        a1, b1, a2, b2 = vals
        if not (a1 < b1 <= a2 < b2):
            raise ValueError(f"pieces must satisfy a1 < b1 <= a2 < b2, got {vals}")
        self.a1, self.b1, self.a2, self.b2 = a1, b1, a2, b2
        self.len1 = b1 - a1
        self.len2 = b2 - a2
        self.total = self.len1 + self.len2
        self.w1 = self.len1 / self.total

    def __repr__(self):
        return f"TwoPieceUniform(({self.a1}, {self.b1}), ({self.a2}, {self.b2}))"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.select(
            [arr < self.a1, arr < self.b1, arr < self.a2, arr < self.b2],
            [0.0,
             (arr - self.a1) / self.total,
             self.w1,
             self.w1 + (arr - self.a2) / self.total],
            default=1.0)
        return _restore(out, scalar)

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        inside = ((arr >= self.a1) & (arr <= self.b1)) | ((arr >= self.a2) & (arr <= self.b2))
        return _restore(np.where(inside, 1.0 / self.total, 0.0), scalar)

    @property
    def has_density(self):
        return True

    def quantile(self, u):
        arr, scalar = _check_levels(u)
        out = np.where(arr <= self.w1,
                       self.a1 + arr * self.total,
                       self.a2 + (arr - self.w1) * self.total)
        return _restore(out, scalar)

    def support(self):
        return (self.a1, self.b2)

    def mean(self):
        return (self.len1 * (self.a1 + self.b1) + self.len2 * (self.a2 + self.b2)) / (2.0 * self.total)

    def cdf_breakpoints(self):
        return [self.a1, self.b1, self.a2, self.b2]


class Exponential(Distribution):
    """Exponential law with the given rate, supported on (0, inf)."""

    def __init__(self, rate: float = 1.0):
        rate = float(rate)
        if not (np.isfinite(rate) and rate > 0):
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate

    def __repr__(self):
        return f"Exponential(rate={self.rate})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        return _restore(np.where(arr <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(arr, 0.0))), scalar)

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        return _restore(np.where(arr < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(arr, 0.0))), scalar)

    @property
    def has_density(self):
        return True

    def quantile(self, u):
        arr, scalar = _check_levels(u)
        return _restore(-np.log1p(-arr) / self.rate, scalar)

    def support(self):
        return (0.0, np.inf)

    def mean(self):
        return 1.0 / self.rate



class Beta(Distribution):
    """Beta(alpha, beta) law on (0, 1), via the regularized incomplete beta."""

    def __init__(self, alpha: float, beta: float):
        alpha, beta = float(alpha), float(beta)
        if not (alpha > 0 and beta > 0):
            raise ValueError(f"shape parameters must be positive, got ({alpha}, {beta})")
        self.alpha, self.beta = alpha, beta
        from scipy import special
        self._log_norm = special.betaln(alpha, beta)

    def __repr__(self):
        return f"Beta({self.alpha}, {self.beta})"

    def cdf(self, x):
        from scipy import special
        arr, scalar = _as_float_array(x)
        return _restore(special.betainc(self.alpha, self.beta, np.clip(arr, 0.0, 1.0)), scalar)

    def pdf(self, x):
        from scipy import special
        arr, scalar = _as_float_array(x)
        inside = (arr >= 0.0) & (arr <= 1.0)
        t = np.clip(arr, 0.0, 1.0)
        log_f = (special.xlogy(self.alpha - 1.0, t) + special.xlog1py(self.beta - 1.0, -t)
                 - self._log_norm)
        return _restore(np.where(inside, np.exp(log_f), 0.0), scalar)

    @property
    def has_density(self):
        return True

    def quantile(self, u):
        from scipy import special
        arr, scalar = _check_levels(u)
        return _restore(special.betaincinv(self.alpha, self.beta, arr), scalar)

    def support(self):
        return (0.0, 1.0)

    def mean(self):
        return self.alpha / (self.alpha + self.beta)



class TruncatedNormal(Distribution):
    """Normal(mu, sigma) conditioned on the window (lo, hi).

    The quantile inverts the normal c.d.f. in closed form.  A window in
    the upper tail (alpha > 0) works with upper-tail probabilities, whose
    differences keep their precision there.
    """

    def __init__(self, mu: float, sigma: float, lo: float, hi: float):
        mu, sigma, lo, hi = (float(v) for v in (mu, sigma, lo, hi))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"window must be finite with lo < hi, got ({lo}, {hi})")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu, self.sigma, self.lo, self.hi = mu, sigma, lo, hi
        self._alpha = (lo - mu) / sigma
        self._beta = (hi - mu) / sigma
        self._mass = self._cum(self._beta) - self._cum(self._alpha)
        if self._mass <= 0:
            raise ValueError("window carries no normal mass")

    def __repr__(self):
        return f"TruncatedNormal({self.mu}, {self.sigma}, window=({self.lo}, {self.hi}))"

    def _cum(self, z):
        """P(Z <= z), or -P(Z > z) for a window in the upper tail."""
        from scipy import special
        return -special.ndtr(-z) if self._alpha > 0.0 else special.ndtr(z)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        z = (np.clip(arr, self.lo, self.hi) - self.mu) / self.sigma
        out = (self._cum(z) - self._cum(self._alpha)) / self._mass
        return _restore(np.clip(out, 0.0, 1.0), scalar)

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        inside = (arr >= self.lo) & (arr <= self.hi)
        z = (arr - self.mu) / self.sigma
        out = np.where(inside, _normal_pdf(z) / (self.sigma * self._mass), 0.0)
        return _restore(out, scalar)

    @property
    def has_density(self):
        return True

    def quantile(self, u):
        from scipy import special
        arr, scalar = _check_levels(u)
        level = self._cum(self._alpha) + arr * self._mass
        z = -special.ndtri(-level) if self._alpha > 0.0 else special.ndtri(level)
        return _restore(np.clip(self.mu + self.sigma * z, self.lo, self.hi), scalar)

    def support(self):
        return (self.lo, self.hi)

    def mean(self):
        pa, pb = _normal_pdf(self._alpha), _normal_pdf(self._beta)
        return self.mu + self.sigma * (pa - pb) / self._mass



class Discrete(Distribution):
    """Purely atomic law given as (location, mass) pairs."""

    def __init__(self, atoms):
        pairs = [(float(x), float(p)) for x, p in atoms]
        if not pairs:
            raise ValueError("at least one atom is required")
        pairs.sort()
        xs = np.array([x for x, _ in pairs])
        ps = np.array([p for _, p in pairs])
        if np.any(ps <= 0):
            raise ValueError("atom masses must be positive")
        if len(np.unique(xs)) != len(xs):
            raise ValueError("atom locations must be distinct")
        total = ps.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"atom masses must sum to 1, got {total}")
        self.xs = xs
        self.ps = ps / total
        self.cum = np.cumsum(self.ps)
        self.cum[-1] = 1.0

    def __repr__(self):
        return f"Discrete({list(zip(self.xs, self.ps))})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        eps = 1e-12 * (1.0 + np.abs(arr))
        idx = np.searchsorted(self.xs, arr + eps, side="left")
        out = np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)
        return _restore(out, scalar)

    def cdf_left(self, x):
        arr, scalar = _as_float_array(x)
        eps = 1e-12 * (1.0 + np.abs(arr))
        idx = np.searchsorted(self.xs, arr - eps, side="left")
        out = np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)
        return _restore(out, scalar)

    def quantile(self, u):
        arr, scalar = _check_levels(u)
        return _restore(self.xs[np.searchsorted(self.cum, arr, side="left")], scalar)

    def atoms(self):
        return list(zip(self.xs.tolist(), self.ps.tolist()))

    def support(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def mean(self):
        return float(self.xs @ self.ps)



class Mixture(Distribution):
    """Convex combination of component laws."""

    def __init__(self, components):
        comps = [(float(w), d) for w, d in components]
        if not comps:
            raise ValueError("at least one component is required")
        if any(w <= 0 for w, _ in comps):
            raise ValueError("component weights must be positive")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total}")
        self.components = [(w / total, d) for w, d in comps]

    def __repr__(self):
        return f"Mixture({self.components})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = sum(w * np.asarray(d.cdf(arr), dtype=float) for w, d in self.components)
        return _restore(out, scalar)

    def cdf_left(self, x):
        arr, scalar = _as_float_array(x)
        out = sum(w * np.asarray(d.cdf_left(arr), dtype=float) for w, d in self.components)
        return _restore(out, scalar)

    @property
    def has_density(self):
        return any(d.has_density for _, d in self.components)

    def pdf(self, x):
        """Density of the absolutely continuous part (atoms excluded)."""
        if not self.has_density:
            raise ValueError("mixture has no density component")
        arr, scalar = _as_float_array(x)
        out = sum(w * np.asarray(d.pdf(arr), dtype=float)
                  for w, d in self.components if d.has_density)
        return _restore(out, scalar)

    def atoms(self):
        merged: dict[float, float] = {}
        for w, d in self.components:
            for loc, mass in d.atoms():
                merged[loc] = merged.get(loc, 0.0) + w * mass
        return sorted(merged.items())

    def support(self):
        los, his = zip(*(d.support() for _, d in self.components))
        return (min(los), max(his))

    def mean(self):
        return sum(w * d.mean() for w, d in self.components)

    def cdf_breakpoints(self):
        pts: set[float] = set()
        for _, d in self.components:
            pts.update(d.cdf_breakpoints())
        return sorted(pts)


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

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        return _restore(np.asarray(self.base.cdf(self._pull(arr)), dtype=float), scalar)

    def cdf_left(self, x):
        arr, scalar = _as_float_array(x)
        return _restore(np.asarray(self.base.cdf_left(self._pull(arr)), dtype=float), scalar)

    @property
    def has_density(self):
        return self.base.has_density

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.asarray(self.base.pdf(self._pull(arr)), dtype=float) / self._scale
        return _restore(out, scalar)

    def quantile(self, u):
        arr, scalar = _check_levels(u)
        out = self._scale * np.asarray(self.base.quantile(arr), dtype=float) + self._offset
        return _restore(out, scalar)

    def atoms(self):
        return [(self._scale * loc + self._offset, mass) for loc, mass in self.base.atoms()]

    def support(self):
        a, b = self.base.support()
        return (self._scale * a + self._offset, self._scale * b + self._offset)

    def mean(self):
        return self._scale * self.base.mean() + self._offset

    def cdf_breakpoints(self):
        return [self._scale * p + self._offset for p in self.base.cdf_breakpoints()]

    def density_sup(self, lo, hi):
        return self.base.density_sup(self._pull(lo), self._pull(hi)) / self._scale


class TruncatedDistribution(Distribution):
    """Base law restricted to [-bound, bound], outside mass moved to 0.

    The c.d.f. is F(x) - F(-bound^-) below 0 and F(x) + 1 - F(bound) at
    and above 0, which lumps both tails into a single atom at the
    origin.  The quantile therefore has three branches: a shifted copy
    of the base quantile on each side of a flat stretch at 0.
    """

    def __init__(self, base: Distribution, bound: float):
        bound = float(bound)
        if not (np.isfinite(bound) and bound > 0):
            raise ValueError(f"truncation bound must be positive and finite, got {bound}")
        self.base = base
        self.bound = bound
        self._f_lo = float(base.cdf_left(-bound))        # F(-bound^-)
        self._f_hi = float(base.cdf(bound))              # F(bound)
        self._lo_level = float(base.cdf_left(0.0)) - self._f_lo
        self._hi_level = float(base.cdf(0.0)) + 1.0 - self._f_hi
        if self._lo_level < -1e-12 or self._hi_level > 1.0 + 1e-12:
            raise ValueError("base law is inconsistent at the truncation window")

    def __repr__(self):
        return f"TruncatedDistribution({self.base!r}, bound={self.bound})"

    def origin_mass(self) -> float:
        """Mass of the atom at 0 (folded tails plus any base atom there)."""
        return self._hi_level - self._lo_level

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        base_cdf = np.asarray(self.base.cdf(arr), dtype=float)
        out = np.select(
            [arr < -self.bound, arr < 0.0, arr <= self.bound],
            [0.0,
             np.maximum(base_cdf - self._f_lo, 0.0),
             np.minimum(base_cdf + 1.0 - self._f_hi, 1.0)],
            default=1.0)
        return _restore(out, scalar)

    def cdf_left(self, x):
        arr, scalar = _as_float_array(x)
        base_left = np.asarray(self.base.cdf_left(arr), dtype=float)
        out = np.select(
            [arr <= -self.bound, arr <= 0.0, arr <= self.bound],
            [0.0,
             np.maximum(base_left - self._f_lo, 0.0),
             np.minimum(base_left + 1.0 - self._f_hi, 1.0)],
            default=1.0)
        return _restore(out, scalar)

    def quantile(self, u):
        arr, scalar = _check_levels(u)
        flat = np.atleast_1d(arr)
        below = flat < self._lo_level
        above = flat > self._hi_level
        out = np.zeros_like(flat)
        if np.any(below):
            out[below] = np.asarray(self.base.quantile(flat[below] + self._f_lo), dtype=float)
        if np.any(above):
            out[above] = np.asarray(self.base.quantile(flat[above] + self._f_hi - 1.0), dtype=float)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def atoms(self):
        out = []
        for loc, mass in self.base.atoms():
            if -self.bound <= loc <= self.bound and loc != 0.0:
                out.append((loc, mass))
        lump = self.origin_mass()
        if lump > 1e-15:
            out.append((0.0, lump))
        return sorted(out)

    def support(self):
        a, b = self.base.support()
        lo = max(a, -self.bound)
        hi = min(b, self.bound)
        if self.origin_mass() > 1e-15:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        return (lo, hi)

    def mean(self):
        # By parts, E[X] = R - int_{-R}^{R} F dx for a law on [-R, R].  Cuts at
        # quantiles of levels k/64 and of levels halving toward 0 and 1 leave
        # each cell at most 1/64 of the mass, so F is resolved however narrow.
        tail = 2.0 ** -np.arange(1, 53)
        levels = np.concatenate((np.arange(1, 64) / 64.0, tail, 1.0 - tail))
        cuts = np.unique(np.concatenate(([-self.bound, self.bound], self.cdf_breakpoints(),
                                         self.quantile(levels))))
        return self.bound - float(gauss_legendre(self.cdf, cuts[:-1], cuts[1:]).sum())

    @property
    def has_density(self):
        return self.base.has_density

    def pdf(self, x):
        """Density part inside the window; the origin atom is not included."""
        arr, scalar = _as_float_array(x)
        inside = (arr >= -self.bound) & (arr <= self.bound)
        out = np.where(inside, np.asarray(self.base.pdf(arr), dtype=float), 0.0)
        return _restore(out, scalar)

    def cdf_breakpoints(self):
        pts = {p for p in self.base.cdf_breakpoints() if -self.bound <= p <= self.bound}
        pts.update((-self.bound, 0.0, self.bound))
        a, b = self.support()
        return sorted(p for p in pts if a <= p <= b)

    def density_sup(self, lo, hi):
        a = max(lo, -self.bound)
        b = min(hi, self.bound)
        if b <= a:
            return 0.0
        return self.base.density_sup(a, b)
