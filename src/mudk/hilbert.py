"""Periodic Hilbert transform of even step functions, in closed form.

The conjugate-function operator with kernel cot(t/2), taken as a Cauchy
principal value, maps the boundary real part of an analytic function on
the unit disc to its imaginary part.  For indicators of symmetric angle
bands {a < |x| < b} the transform reduces to four log|sin| terms, so the
transform of any even step function is a finite sum of such terms.  The
closed form blows up logarithmically at the band edges; evaluation near
those poles is refused rather than returning huge cancel-prone values.
One sorted search, `pole_gap`, measures how far points lie from the
poles, both for that refusal and for the boundary's sample grid.

A direct principal-value quadrature of the defining integral is included
as an independent cross-check oracle.
"""

from __future__ import annotations

import numpy as np

from ._quad import _BLOCK_CELLS, apply, chunks, row_sums, simpson_adaptive
from .discretize import StepQuantile

POLE_RADIUS = 1e-9


class PoleError(ValueError):
    """Evaluation point is within POLE_RADIUS of a logarithmic pole."""


class OracleConvergenceError(RuntimeError):
    """The principal-value quadrature failed to extrapolate consistently."""


def pole_gap(points, poles):
    """Distance from each of `points` to the nearest of the ascending `poles`.

    One sorted search: each point's nearest pole is one of its two
    neighbours in `poles`.  Without poles every distance is inf; a NaN
    point gives NaN, so it is never within any distance of a pole.
    """
    if not poles.size:
        return np.full(np.shape(points), np.inf)
    j = np.searchsorted(poles, points)
    return np.minimum(np.abs(points - poles[np.clip(j - 1, 0, poles.size - 1)]),
                      np.abs(poles[np.clip(j, 0, poles.size - 1)] - points))


def _fold(u):
    """The folded angle |u| (mod 2 pi), in [0, pi].

    For theta in [0, pi] the nearer of the poles +-theta (mod 2 pi) lies
    |theta - fold(u)| from u, so `pole_gap(_fold(u), theta)` is u's
    distance to the pole set +-theta modulo 2 pi.
    """
    return np.abs(np.mod(u + np.pi, 2.0 * np.pi) - np.pi)


# Cells of _jump_sum whose jump angle lies within this distance of the
# point's folded angle take the direct two-log form: beyond it the
# angle-addition quotient loses at most about 12 ulp / _NEAR_POLE of D.
_NEAR_POLE = 1e-2

# Columns of a `_jump_sum` block: `row_sums` gives a row its one-row bits
# only up to numpy's 8192-element iterator buffer; past it a row's sum
# depends on how many rows its block has.
_MAX_COLS = 8192

# Cells per near-pole gather of `_jump_sum`: its ten or so arrays fit _BLOCK_CELLS.
_NEAR_CELLS = _BLOCK_CELLS // 16


def _block_shape(jumps):
    """Rows and columns of a `_jump_sum` block for `jumps` jump angles.

    Three rows x columns buffers hold at most _BLOCK_CELLS cells together;
    a row is split into column blocks only past _MAX_COLS jumps.
    """
    cols = min(jumps, _MAX_COLS)
    return max(1, _BLOCK_CELLS // (3 * cols)), cols


def _near_pole_sums(u, lo, k, theta, coeff, st, ct):
    """Per point, sum_j coeff_j (direct - quotient) over its k > 0 jumps from
    lo; the quotient takes the tile loop's operations in order, so its bits."""
    at = np.cumsum(k) - k
    j = np.arange(at[-1] + k[-1]) + np.repeat(lo - at, k)
    hu, ht = 0.5 * np.repeat(u, k), 0.5 * theta[j]
    P, Q = np.sin(hu) * ct[j], np.cos(hu) * st[j]
    direct = np.log(np.abs(np.sin(hu - ht))) - np.log(np.abs(np.sin(hu + ht)))
    return np.add.reduceat(coeff[j] * (direct - np.log(np.abs((P - Q) / (P + Q)))), at)


def _jump_sum(u, theta, coeff):
    """sum_j coeff_j D(u, theta_j) / pi at angles u, for jump angles theta.

    D(u, t) = log|sin((u-t)/2) / sin((u+t)/2)|, with logarithmic poles at
    +-theta_j.  `theta` is ascending in (0, pi), so the nearer of u's two
    poles lies |theta_j - fold(u)| from u, with the folded angle fold(u) =
    |u| (mod 2 pi) in [0, pi]; an angle whose fold lies within POLE_RADIUS
    of some theta_j (`pole_gap`) is refused.  By angle addition,
    sin((u -+ t)/2) = sin(u/2)cos(t/2) -+ cos(u/2)sin(t/2): sines and
    cosines are taken once per point and once per jump, and each cell
    costs two products, an add, a subtract, a divide and one log.  That
    quotient cancels near a pole, so a first pass adds coeff_j times the
    direct form log|sin((u-t)/2)| - log|sin((u+t)/2)| less the quotient
    on each point's jumps within _NEAR_POLE of its fold (two sorted
    searches; a NaN fold has none), gathered flat and summed per point, as
    each `row_sums` row is: a point's value depends on that point alone.

    Memory is O(points + jumps) under the rule of every blocked kernel, at
    most _BLOCK_CELLS float64 cells per loop step: the first pass gathers
    consecutive points' cells _NEAR_CELLS at a time (`_quad.chunks`), a
    point with more alone (O(jumps) cells), and the sum runs through three
    buffers of a third of _BLOCK_CELLS each.  A scalar u gives a float.
    """
    return apply(lambda pts: _flat_jump_sum(pts, theta, coeff), u)


def _flat_jump_sum(pts, theta, coeff):
    """`_jump_sum` at a flat float array of angles."""
    fold = _fold(pts)
    near = pole_gap(fold, theta) < POLE_RADIUS
    if near.any():
        raise PoleError(
            f"evaluation within {POLE_RADIUS} of a logarithmic pole at u={pts[near]}")
    out = np.zeros(pts.size)
    if theta.size and pts.size:
        st, ct = np.sin(0.5 * theta), np.cos(0.5 * theta)
        lo = np.searchsorted(theta, fold - _NEAR_POLE)
        count = np.searchsorted(theta, fold + _NEAR_POLE, side="right") - lo
        hit = np.flatnonzero(count)
        del fold
        lo, count = lo[hit], count[hit]
        for s in chunks(count, _NEAR_CELLS):
            out[hit[s]] = _near_pole_sums(pts[hit[s]], lo[s], count[s], theta, coeff, st, ct)
        del lo, count, hit
        rows, cols = _block_shape(theta.size)
        rows = min(rows, pts.size)
        su, cu = np.sin(0.5 * pts[:, None]), np.cos(0.5 * pts[:, None])
        buf = np.empty((3, rows * cols))
        for j in range(0, theta.size, cols):
            c = min(cols, theta.size - j)
            tile = buf[:, :rows * c].reshape(3, rows, c)
            for i in range(0, pts.size, rows):
                r = min(rows, pts.size - i)
                P, Q, D = tile[:, :r]
                np.multiply(su[i:i + r], ct[j:j + c], out=P)
                np.multiply(cu[i:i + r], st[j:j + c], out=Q)
                np.add(P, Q, out=D)
                np.subtract(P, Q, out=P)
                np.log(np.abs(np.divide(P, D, out=D), out=D), out=D)
                out[i:i + r] += row_sums(D, coeff[j:j + c])
        out /= np.pi
    return out


def hilbert_indicator(a: float, b: float, u):
    """Closed-form transform of the indicator of {a < |x| < b} on (-pi, pi).

    The jump sum with angles (a, b) and weights (+1, -1): an odd function
    of u with logarithmic poles at +-a and +-b (modulo 2*pi).
    """
    a, b = float(a), float(b)
    if not 0.0 <= a < b <= np.pi:
        raise ValueError(f"band must satisfy 0 <= a < b <= pi, got ({a}, {b})")
    # a = 0 and b = pi carry no pole: their log pair cancels identically
    live = [(t, c) for t, c in ((a, 1.0), (b, -1.0)) if 0.0 < t < np.pi]
    theta, coeff = np.array(live).reshape(-1, 2).T
    return _jump_sum(u, theta, coeff)


def pole_levels(sq: StepQuantile) -> np.ndarray:
    """Levels s in (0, 1) where the transform of the step quantile blows up.

    These are the levels of its jumps (`StepQuantile.jumps`); a jump at
    level 1 would carry none, its two log terms cancelling by periodicity.
    """
    return sq.jumps()[0]


def hilbert_step_quantile(sq: StepQuantile, u):
    """Transform of the even extension of the step quantile at angles u.

    The even extension x -> q_n(min(|x|/pi, s_m)) on (-pi, pi) is
    v_1 plus one band indicator {pi s_j < |x| < pi} per jump (s_j, c_j),
    so H(u) = sum_j c_j D(u, pi s_j) / pi, by `_jump_sum`.
    """
    levels, coeff = sq.jumps()
    return _jump_sum(u, np.pi * levels, coeff)


_PV_ETAS = (1e-2, 1e-3, 1e-4)   # excision radii of the oracle, largest first
_PV_QUAD_TOL = 1e-9             # absolute tolerance of each Simpson piece


def hilbert_pv_oracle(f, u: float, jumps=(), spread_tol=1e-4) -> float:
    """Principal-value quadrature of the defining integral, with extrapolation.

    Computes I(eta) = (1/2pi) int_eta^pi (f(u-t) - f(u+t)) cot(t/2) dt for
    each excision radius in `_PV_ETAS`, then extrapolates eta -> 0 linearly
    from consecutive pairs.  Disagreement of the extrapolants beyond
    `spread_tol` raises OracleConvergenceError.  `jumps` lists angles in
    [0, pi] where f is discontinuous, used to split the quadrature.
    """
    u = float(u)

    def integrand(t):
        return (f(u - t) - f(u + t)) / np.tan(0.5 * t)

    def cut_points(eta):
        pts = set()
        for s in jumps:
            for signed in (s, -s):
                for k in (-1, 0, 1):
                    for cand in (u - signed + 2.0 * np.pi * k,
                                 signed - u + 2.0 * np.pi * k):
                        if eta < cand < np.pi:
                            pts.add(cand)
        return sorted(pts)

    def excised(eta):
        edges = [eta] + cut_points(eta) + [np.pi]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= 1e-13:
                continue
            pad = min(1e-10, 0.25 * (hi - lo))
            total += simpson_adaptive(integrand, lo + pad, hi - pad, _PV_QUAD_TOL)
        return total / (2.0 * np.pi)

    vals = [excised(eta) for eta in _PV_ETAS]
    extrapolants = []
    for (e1, i1), (e2, i2) in zip(zip(_PV_ETAS, vals), zip(_PV_ETAS[1:], vals[1:])):
        extrapolants.append((e1 * i2 - e2 * i1) / (e1 - e2))
    spread = max(extrapolants) - min(extrapolants)
    if spread > spread_tol:
        raise OracleConvergenceError(
            f"PV quadrature did not stabilize: extrapolants {extrapolants}")
    return extrapolants[-1]
