"""Power-series map of the unit disc attached to a step quantile.

The boundary real part of the map is the even 2*pi-periodic extension of
u -> q_n(min(u / pi, s_m)) on (0, pi] (the `StepQuantile` rule), so the
coefficients are its Fourier cosine coefficients; for a step function
they reduce to a sine sum over the quantile's jumps.  The constant term
is dropped (it vanishes for centered targets up to discretization bias),
which makes the map fix the origin.

Evaluation is restricted to the open disc; boundary values come from the
boundary module instead, where the conjugate function is available in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import _BLOCK_CELLS
from .discretize import StepQuantile

_DISC_MARGIN = 1e-9


@dataclass(frozen=True)
class FourierCoefficients:
    """Coefficients a_1..a_N of the disc map, with their source norm.

    `source_l1_norm` is the L1 norm of the generating step quantile;
    every coefficient is bounded by twice that norm, which is validated
    on construction.
    """

    coeffs: np.ndarray
    source_l1_norm: float

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        cap = 2.0 * self.source_l1_norm + 1e-12
        if np.any(np.abs(arr) > cap):
            raise ValueError("coefficient bound |a_k| <= 2*||q||_1 violated")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size


def fourier_coefficients(sq: StepQuantile, num_terms: int | None = None) -> FourierCoefficients:
    """Cosine coefficients of the step quantile's even circle extension.

    a_k = -(2/(k pi)) sum_j c_j sin(k t_j) over the jumps (s_j, c_j) of
    `StepQuantile.jumps`, t_j = pi s_j, by angle addition: with
    k = k0 + r for B = ceil(K/R) starts k0 and R = isqrt(K) offsets r,
    sin(k t) = sin(k0 t) cos(r t) + cos(k0 t) sin(r t), so each chunk of
    jumps costs two GEMMs into one B x R array and O(sqrt(K)) sines per
    jump instead of K.  sin(k0 t) is evaluated directly, not by
    recurrence, so rounding does not build up with k.  Operands hold at
    most _BLOCK_CELLS float64 cells: memory is O(terms + jumps).
    `num_terms` defaults to max(256, 8 * number of steps).
    """
    if num_terms is None:
        num_terms = max(256, 8 * sq.num_steps)
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms}")
    levels, jumps = sq.jumps()
    k = np.arange(1, num_terms + 1)
    R = math.isqrt(num_terms)
    sums = np.zeros((-(-num_terms // R), R))
    chunk = max(1, _BLOCK_CELLS // max(sums.shape))
    for j in range(0, levels.size, chunk):
        s, c = levels[j:j + chunk], jumps[j:j + chunk]
        start = np.pi * np.multiply.outer(k[::R], s)
        off = np.pi * np.multiply.outer(s, np.arange(R))
        sums += (c * np.sin(start)) @ np.cos(off)
        sums += (c * np.cos(start)) @ np.sin(off)
    coeffs = sums.ravel()[:num_terms] * (-2.0 / (np.pi * k))
    return FourierCoefficients(coeffs=coeffs, source_l1_norm=sq.l1_norm())


def evaluate_map(fc: FourierCoefficients, z):
    """Evaluate the series sum a_k z^k strictly inside the unit disc.

    Accepts scalars or arrays of complex points with |z| <= 1 - 1e-9;
    uses Horner evaluation of the polynomial truncation.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    if arr.size and np.any(np.abs(arr) > 1.0 - _DISC_MARGIN):
        raise ValueError(f"evaluation requires |z| <= 1 - {_DISC_MARGIN}")
    poly = np.concatenate(([0.0], fc.coeffs))
    out = np.polyval(poly[::-1], arr)
    return complex(out) if scalar else out


def map_distance_bound(l1_gap: float, radius: float) -> float:
    """Uniform bound 2 * ||q_n - q_m||_1 * r/(1-r) on the disc of radius r.

    Follows from the coefficient bound: each |a_k - a_k'| is at most
    twice the L1 gap of the generating quantiles, and the geometric tail
    sums to r/(1-r).
    """
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if l1_gap < 0.0:
        raise ValueError(f"l1_gap must be nonnegative, got {l1_gap}")
    return 2.0 * l1_gap * radius / (1.0 - radius)
