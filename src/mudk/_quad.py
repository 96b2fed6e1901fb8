"""Quadrature rules, and the array rules that every module shares: `apply`
(a scalar gives a Python scalar), `frozen` (the keep-or-copy hand-over) and
`row_sums` (weighted sums in numpy's loops: only `gross_map._centre_sums`
calls BLAS)."""

from __future__ import annotations

import numpy as np

# The one memory rule of every blocked kernel: the temporaries that one loop
# step keeps live hold at most this many float64 cells together (256 KB, fits
# in L2).  The Gauss-Legendre integrand, the Hilbert jump sum and the
# Fourier sine sums each size their blocks by it.
_BLOCK_CELLS = 2 ** 15

# The positive half of numpy.polynomial.legendre.leggauss(16), printed with
# repr and mirrored exactly, as leggauss itself mirrors them: the same bits
# without importing numpy.polynomial or running an eigensolver at import.
_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176])
_GL_NODES = np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_GL_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))
# about this many node-sized temporaries live in a gauss_legendre
# integrand (F - G, abs, a continued fraction)
_GL_TEMPS = 8
# cells per call of the integrand under the one rule: _BLOCK_CELLS //
# _GL_TEMPS = 4096 nodes, so 256 cells of 16 nodes
_GL_BLOCK = _BLOCK_CELLS // _GL_TEMPS // _GL_NODES.size


def apply(core, x, kind=float):
    """`core` on x as a flat array of `kind`, its result in x's shape; a scalar
    x gives a `kind` back."""
    arr = np.asarray(x, dtype=kind)
    out = core(arr.ravel()).reshape(arr.shape)
    return kind(out) if arr.ndim == 0 else out


def frozen(arr):
    """`arr` if it is frozen and owns its data, else a frozen copy of it, so a
    caller's writeable array (or a view of one) is never frozen in place."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def row_sums(values, weights):
    """sum_j values[..., j] weights[j] in einsum's loops: a row of at most 8192
    (numpy's buffer) has its one-row bits however many rows share the call."""
    return np.einsum("...j,j->...", values, weights)


def gauss_legendre(f, lo, hi):
    """16-node Gauss-Legendre integral of f over each cell (lo[i], hi[i]).

    `f` is called on one block of at most _GL_BLOCK cells at a time, on a
    flat array of the block's nodes, so memory is O(cells) however many
    temporaries `f` makes.  Each cell's value is the one-cell rule's,
    half * row_sums(f(nodes), weights), bit for bit.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = lo + half
    out = np.empty(half.shape)
    for i in range(0, half.size, _GL_BLOCK):
        h = half[i:i + _GL_BLOCK]
        nodes = mid[i:i + _GL_BLOCK, None] + h[:, None] * _GL_NODES
        values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        out[i:i + _GL_BLOCK] = h * row_sums(values, _GL_WEIGHTS)
    return out


def chunks(counts, cells):
    """Slices of consecutive entries, in order and covering all, whose `counts`
    sum to at most `cells`; an entry whose count alone exceeds it stands alone."""
    ends, a = np.cumsum(counts), 0
    while a < ends.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + cells, side="right")))
        yield slice(a, b)
        a = b


def cell_edges(cuts):
    """The distinct values of `cuts`, ascending: the edges of the cells they cut.

    The neighbour mask of `np.unique` without its masked-array check (it
    imports numpy.ma, about 0.65 MB resident), after the stable argsort that
    `build_measure` runs too: numpy's default float sort maps 192 KB more code.
    """
    cuts = np.asarray(cuts, dtype=float).ravel()
    cuts = cuts[np.argsort(cuts, kind="stable")]
    keep = np.ones(cuts.shape, dtype=bool)
    keep[1:] = cuts[1:] != cuts[:-1]
    return cuts[keep]


_SIMPSON_DEPTH = 50             # recursion cap of simpson_adaptive


def simpson_adaptive(f, a, b, tol):
    """Integrate a scalar function over (a, b) to absolute tolerance tol.

    Classic recursive Simpson refinement with Richardson correction and a
    hard recursion cap (`_SIMPSON_DEPTH` halvings); integrable endpoint
    singularities converge, just slowly.
    """
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _step(f, a, b, fa, fm, fb, whole, tol, _SIMPSON_DEPTH)


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
