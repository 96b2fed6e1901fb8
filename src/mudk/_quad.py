"""Quadrature rules shared by the error-analysis modules."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

_GL_NODES, _GL_WEIGHTS = leggauss(16)


def gauss_legendre(f, lo, hi):
    """16-node Gauss-Legendre integral of f over each cell (lo[i], hi[i]).

    `f` is called once, on a flat array of every node of every cell.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GL_NODES
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (values @ _GL_WEIGHTS)


def simpson_adaptive(f, a, b, tol, depth=50):
    """Integrate a scalar function over (a, b) to absolute tolerance tol.

    Classic recursive Simpson refinement with Richardson correction and a
    hard recursion cap; integrable endpoint singularities converge, just
    slowly.
    """
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _step(f, a, b, fa, fm, fb, whole, tol, depth)


def _step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return (_step(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _step(f, m, b, fm, frm, fb, right, half, depth - 1))
