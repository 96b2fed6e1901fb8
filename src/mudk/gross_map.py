"""Power-series map of the unit disc attached to a step quantile.

The boundary real part of the map is the even 2*pi-periodic extension of
u -> q_n(min(u / pi, s_m)) on (0, pi] (the `StepQuantile` rule), so the
coefficients are its Fourier cosine coefficients; for a step function
they reduce to a sine sum over the quantile's jumps, which one pass forms
over doubling ranges of k only as far as the terms it keeps.  The
constant term is dropped (it vanishes for centered targets up to
discretization bias), which makes the map fix the origin.

Evaluation is restricted to the open disc; boundary values come from the
boundary module instead, where the conjugate function is available in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import _BLOCK_CELLS, apply, frozen, row_sums
from .discretize import StepQuantile

_DISC_MARGIN = 1e-9
# the fewest terms a default map keeps, and the end of the first k range
_MIN_TERMS = 256


@dataclass(frozen=True)
class FourierCoefficients:
    """Coefficients a_1..a_K of the disc map, with their source norm and energies.

    `source_l1_norm` is the L1 norm of the generating step quantile;
    every coefficient is bounded by twice that norm, which is validated
    on construction.  `total` is T_0 = sum_{k >= 1} a_k^2, which is
    2 var q_n by Parseval; `tail` is T_K = T_0 - sum_{k <= K} a_k^2, the
    energy of the terms left out; `staircase` is q_n's staircase energy E
    (`fourier_coefficients`).  Each is nan when not given.
    """

    coeffs: np.ndarray
    source_l1_norm: float
    total: float = math.nan
    staircase: float = math.nan
    tail: float = math.nan

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        cap = 2.0 * self.source_l1_norm + 1e-12
        if not np.all(np.abs(arr) <= cap):          # false for a NaN norm
            raise ValueError("coefficient bound |a_k| <= 2*||q||_1 violated")
        object.__setattr__(self, "coeffs", frozen(arr))

    @property
    def order(self) -> int:
        return self.coeffs.size

    def tail_bound(self, radius: float) -> float:
        """sqrt(T_K) r^(K+1) / sqrt(1 - r^2): the most the terms past a_K move
        the map on |z| <= r, by Cauchy-Schwarz on sum_{k > K} a_k z^k."""
        if not 0.0 < radius < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {radius}")
        return math.sqrt(self.tail) * radius ** (self.order + 1) / math.sqrt(1.0 - radius ** 2)


def term_cap(sq: StepQuantile) -> int:
    """K_max = max(256, 8 * steps), the most terms the default keeps."""
    return max(_MIN_TERMS, 8 * sq.num_steps)


def fourier_coefficients(sq: StepQuantile, num_terms: int | None = None) -> FourierCoefficients:
    """Cosine coefficients of the step quantile's even circle extension.

    a_k = -(2/(k pi)) sum_j c_j sin(k t_j) over the jumps (s_j, c_j) of
    `StepQuantile.jumps`, t_j = pi s_j, each k range (0, 256], (256, 512],
    (512, 1024], ... summed whole (`_range_sums`), so the bits of a_k
    depend on k and q_n alone.  `num_terms` keeps that many terms.  By
    default the pass stops after the first range whose sum of a_k^2 reaches
    T_0 - 2E and keeps the shortest prefix K in [256, K_max = `term_cap(sq)`]
    whose tail T_K is at most 2E, or all K_max terms when none is.
    E = (1/3) sum_j w_j (v_j - v_{j-1})^2 over the steps (width w_j, value
    v_j) is the staircase energy, q_n's squared L2 gap to the piecewise-linear
    quantile through its steps, so the terms left out move the map on
    |z| <= r by at most sqrt(2E) r^(K+1) / sqrt(1 - r^2) (`tail_bound`).
    """
    cap = term_cap(sq) if num_terms is None else num_terms
    if cap < 1:
        raise ValueError(f"num_terms must be >= 1, got {cap}")
    # every term that can be kept: a size numpy cannot allocate fails here
    coeffs = np.empty(cap)
    total, staircase = _energies(sq)
    target = total - 2.0 * staircase if num_terms is None else math.inf
    levels, jumps = sq.jumps()
    hi, energy = 0, 0.0
    while hi < cap:
        lo, hi = hi, max(_MIN_TERMS, 2 * hi)
        a = coeffs[lo:hi]
        a[:] = _range_sums(levels, jumps, lo, hi)[:a.size]
        scale = np.pi * np.arange(lo + 1.0, lo + a.size + 1)
        a *= np.divide(-2.0, scale, out=scale)
        # the partial sums of a_k^2, added in k order on from the last range's
        sums = np.square(a, out=scale)
        sums[0] += energy
        energy = np.cumsum(sums, out=sums)[-1]
        if energy >= target:
            break
    # the sums do not decrease: one search finds the first K with T_K <= 2E
    K = min(max(lo + int(np.searchsorted(sums, target)) + 1, _MIN_TERMS), cap)
    tail = max(total - float(sums[K - 1 - lo]), 0.0)
    return FourierCoefficients(coeffs[:K], sq.l1_norm(), total, staircase, tail)


def _energies(sq):
    """T_0 = 2 var q_n and the staircase energy E of q_n, over the steps as the
    `StepQuantile` rule reads them; their step-sized temporaries die here."""
    widths, values = np.diff(sq._levels()), sq.values
    total = 2.0 * float(row_sums(np.square(values - sq.mean()), widths))
    return total, float(row_sums(np.square(np.diff(values)), widths[1:])) / 3.0


def _layout(size):
    """Runs B, offsets R and jumps per chunk m of `_range_sums` for `size` terms."""
    R = math.isqrt(-(-size // 2))
    B = -(-(size + R) // (2 * R))
    return B, R, max(1, _BLOCK_CELLS // (2 * (B + R + 1)))


def _range_sums(levels, jumps, lo, hi):
    """sum_j c_j sin(k t_j), t_j = pi s_j, for k = lo + 1 .. hi by angle
    addition: the first hi - lo cells of the array that it returns.

    The terms fall in B runs of 2R around the centres k0 = lo, lo + 2R,
    lo + 4R, ..., as k = k0 +- r, and sin((k0 +- r) t) = sin(k0 t) cos(r t)
    +- cos(k0 t) sin(r t).  So a chunk of m jumps costs two GEMMs of inner
    dimension m, X = [c sin(k0 t)] @ [cos(r t)] and Y = [c cos(k0 t)] @
    [sin(r t)], into B x (R + 1) sums, with O(sqrt(hi - lo)) sines per
    jump; the terms are X + Y and X - Y, less the first run's k <= lo.
    sin(k0 t) is evaluated directly, not by recurrence, so rounding does
    not build up with k; the first range's k <= R are sin(k t) itself.  A
    chunk's operands, 2m (B + R + 1) cells, fit in _BLOCK_CELLS (`_quad`'s rule).
    """
    B, R, m = _layout(hi - lo)
    sx, sy = _centre_sums(levels, jumps, lo, B, R, m)
    # run b holds k0 - R + 1 .. k0 (r = R - 1 .. 0), then k0 + 1 .. k0 + R
    runs = np.empty((B, 2 * R))
    np.subtract(sx[:, R - 1::-1], sy[:, R - 1::-1], out=runs[:, :R])
    np.add(sx[:, 1:], sy[:, 1:], out=runs[:, R:])
    return runs.ravel()[R:]


def _centre_sums(levels, jumps, lo, B, R, m):
    """The B x (R + 1) sums X and Y of `_range_sums`, in chunks of m jumps.

    The scratch lives only in this call, so it is freed before the terms
    are assembled.  No jumps give zero sums.
    """
    sx, sy, prod = np.zeros((B, R + 1)), np.zeros((B, R + 1)), np.empty((B, R + 1))
    # a chunk's operands, stored transposed: [c sin(k0 t); c cos(k0 t)] and
    # [cos(r t); sin(r t)], one row per jump
    lhs, rhs = np.empty((2 * m, B)), np.empty((2 * m, R + 1))
    k0, r = lo + np.arange(0.0, 2 * R * B, 2.0 * R), np.arange(R + 1)
    for j in range(0, levels.size, m):
        s, c = levels[j:j + m, None], jumps[j:j + m, None]
        w = s.size
        start, off = lhs[:2 * w], rhs[:2 * w]
        np.copyto(start[:w], k0)
        start[:w] *= s
        start[:w] *= np.pi
        np.cos(start[:w], out=start[w:])
        np.sin(start[:w], out=start[:w])
        start[:w] *= c
        start[w:] *= c
        np.copyto(off[:w], r)
        off[:w] *= s
        off[:w] *= np.pi
        np.sin(off[:w], out=off[w:])
        np.cos(off[:w], out=off[:w])
        sx += np.dot(start[:w].T, off[:w], out=prod)
        sy += np.dot(start[w:].T, off[w:], out=prod)
    return sx, sy


def evaluate_map(fc: FourierCoefficients, z):
    """Evaluate the series sum a_k z^k strictly inside the unit disc.

    Accepts scalars or arrays of complex points with |z| <= 1 - 1e-9;
    uses Horner evaluation of the polynomial truncation.
    """
    arr = np.asarray(z, dtype=complex)
    if arr.size and np.any(np.abs(arr) > 1.0 - _DISC_MARGIN):
        raise ValueError(f"evaluation requires |z| <= 1 - {_DISC_MARGIN}")
    poly = np.concatenate(([0.0], fc.coeffs))
    return apply(lambda v: np.polyval(poly[::-1], v), arr, complex)


def map_distance_bound(l1_gap: float, radius: float) -> float:
    """Uniform bound 2 * ||q_n - q_m||_1 * r/(1-r) on the disc of radius r.

    Follows from the coefficient bound: each |a_k - a_k'| is at most
    twice the L1 gap of the generating quantiles, and the geometric tail
    sums to r/(1-r).
    """
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if not l1_gap >= 0.0:
        raise ValueError(f"l1_gap must be nonnegative, got {l1_gap}")
    return 2.0 * l1_gap * radius / (1.0 - radius)
