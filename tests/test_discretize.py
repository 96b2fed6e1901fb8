"""Tests of the measure discretization and its error estimates."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import IntegrationWarning, quad

import mudk.discretize
from mudk._quad import _GL_BLOCK, _GL_NODES, _GL_WEIGHTS, chunks, gauss_legendre
from mudk.discretize import (StepQuantile, UnboundedSupportError,
                             build_measure, build_measure_cdf,
                             build_measure_pdf, grid, l1_distance, rate_bound)
from mudk.distributions import (AffineDistribution, Beta, Discrete,
                                Exponential, Mixture, TruncatedNormal, Uniform)
from mudk.hilbert import pole_levels


def test_grid_endpoints_and_spacing():
    g = grid(-1.0, 1.0, 4)
    np.testing.assert_allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_uniform_two_cells():
    sq = build_measure(Uniform(-1.0, 1.0), 2)
    np.testing.assert_allclose(sq.breakpoints, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(sq.values, [0.0, 1.0])
    assert sq.total_mass == 1.0


@pytest.mark.parametrize("n", [5, 15, 30, 200])
def test_uniform_l1_error_is_one_over_n(n):
    d = Uniform(-1.0, 1.0)
    sq = build_measure(d, n)
    assert l1_distance(d, sq) == pytest.approx(1.0 / n, abs=1e-10)


def test_l1_error_within_the_simple_bound():
    for d in (Uniform(-1.0, 1.0), Beta(2.0, 5.0),
              Mixture([(0.5, Uniform(-2.0, -1.0)), (0.5, Uniform(1.0, 2.0))])):
        for n in (7, 23, 64):
            rb = rate_bound(d, n)
            assert rb.varpi == 0.0  # atomless
            assert l1_distance(d, build_measure(d, n)) <= rb.bound + 1e-12


def test_atom_mixture_correction_term():
    """Half uniform, half an origin atom: the correction is exactly 1/n^2."""
    d = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
    prev = None
    for n in (10, 100, 1000):
        rb = rate_bound(d, n)
        assert rb.varpi == pytest.approx(1.0 / n ** 2, rel=1e-12)
        assert rb.varpi > 0.0
        if prev is not None:
            assert rb.varpi < prev
        prev = rb.varpi
        l1 = l1_distance(d, build_measure(d, n))
        assert l1 <= rb.bound + 1e-12
        # bounded-density refinement with the explicit constants:
        # alpha = (b-a)/2, beta = (b-a)^2 (1/4 + 1/4)/2 over the pieces (-1, 0), (0, 1)
        assert rb.alpha == pytest.approx(1.0, rel=1e-12)
        assert rb.beta == pytest.approx(1.0, rel=1e-12)
        assert l1 <= rb.refined_bound + 1e-12


def test_atoms_survive_discretization_exactly():
    d = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.3, 1.0)]))])
    sq = build_measure(d, 8)  # 0.3 is off the grid for n=8 over (-1, 1)
    widths = np.diff(sq.breakpoints)[sq.values == 0.3]
    # one step carries the atom's full mass; a split sliver of the host
    # cell (continuous mass 0.5 * 0.05 / 2) shares the location
    assert widths.max() == pytest.approx(0.5, abs=1e-12)
    assert widths.sum() == pytest.approx(0.5125, abs=1e-12)


def test_discrete_law_reproduced_verbatim():
    d = Discrete([(-1.0, 0.5), (1.0, 0.5)])
    sq = build_measure(d, 2)
    np.testing.assert_allclose(sq.breakpoints, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(sq.values, [-1.0, 1.0])
    assert l1_distance(d, sq) == pytest.approx(0.0, abs=1e-9)


def test_pdf_scheme_mass_need_not_reach_one():
    d = Beta(2.0, 1.0)  # density 2x: the left-endpoint rule undershoots
    sq = build_measure(d, 10, scheme="pdf")
    assert sq.total_mass == pytest.approx(0.9, abs=1e-12)
    sq_cdf = build_measure(d, 10, scheme="cdf")
    assert sq_cdf.total_mass == 1.0


def test_pdf_scheme_requires_a_density():
    with pytest.raises(ValueError):
        build_measure_pdf(Discrete([(0.0, 1.0)]), 4)


def test_unbounded_support_is_rejected():
    with pytest.raises(UnboundedSupportError):
        build_measure(Exponential(1.0), 10)


def test_step_quantile_validation():
    with pytest.raises(ValueError):
        StepQuantile(np.array([0.1, 0.5, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        StepQuantile(np.array([0.0, 0.5, 0.4]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        StepQuantile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
    # NaN and inf breakpoints and values, an inf value inside finite ends too
    nan, inf = np.nan, np.inf
    for bp, v in (([0.0, 0.5, 1.0], [0.0, nan]), ([0.0, 0.5, 1.0], [nan, 0.0]),
                  ([nan, 0.5, 1.0], [0.0, 1.0]), ([0.0, nan, 1.0], [0.0, 1.0]),
                  ([0.0, 0.5, inf], [0.0, 1.0]), ([0.0, 0.5, 1.0], [-inf, 0.0]),
                  ([0.0, 0.5, 1.0], [0.0, inf]), ([0.0, 0.3, 0.6, 1.0], [0.0, inf, 1.0])):
        with pytest.raises(ValueError):
            StepQuantile(np.array(bp), np.array(v))


def test_step_quantile_copies_its_arrays_and_freezes_the_copies():
    """The caller's arrays stay writeable; the step quantile's own are frozen."""
    bp, v = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])
    sq = StepQuantile(bp, v)
    assert sq.breakpoints is not bp and sq.values is not v
    assert bp.flags.writeable and v.flags.writeable
    assert not (sq.breakpoints.flags.writeable or sq.values.flags.writeable)
    v[0] = -1.0
    assert sq.values.tolist() == [0.0, 1.0]


def test_step_quantile_keeps_frozen_arrays_that_own_their_data():
    """Frozen arrays that own their data are kept; frozen views are copied,
    and so are breakpoints whose s_0 needs the snap to +0.0."""
    bp, v = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])
    for arr in (bp, v):
        arr.flags.writeable = False
    sq = StepQuantile(bp, v)
    assert sq.breakpoints is bp and sq.values is v
    views = StepQuantile(bp[:], v[:])
    assert views.breakpoints.flags.owndata and views.values.flags.owndata
    for first in (1e-12, -0.0):
        off = np.array([first, 0.5, 1.0])
        off.flags.writeable = False
        snapped = StepQuantile(off, v).breakpoints
        assert snapped is not off and snapped[0] == 0.0 and not np.signbit(snapped[0])
        assert not snapped.flags.writeable


@pytest.mark.parametrize("scheme", ["cdf", "pdf"])
def test_builders_hand_their_arrays_to_the_step_quantile_uncopied(scheme, monkeypatch):
    handed = []

    def record(bp, values):
        handed.extend((bp, values))
        return StepQuantile(bp, values)

    monkeypatch.setattr(mudk.discretize, "StepQuantile", record)
    sq = build_measure(Beta(2.0, 5.0).center(), 200, scheme)
    assert sq.breakpoints is handed[0] and sq.values is handed[1]


def test_step_quantile_eval_left_continuity():
    sq = build_measure(Uniform(-1.0, 1.0), 2)
    assert sq.eval(0.5) == 0.0
    assert sq.eval(0.500001) == 1.0
    assert sq.eval(1.0) == 1.0
    with pytest.raises(ValueError):
        sq.eval(0.0)


@pytest.mark.parametrize("sq", [
    StepQuantile([0.0, 0.2, 0.5, 0.7], [-1.0, 0.0, 2.0]),
    StepQuantile([0.0, 0.3, 0.6, 1.0, 1.2, 1.5], [-2.0, -1.0, -1.0, 1.0, 3.0]),
], ids=["mass-0.7", "mass-1.5"])
def test_step_quantile_readings_follow_one_rule(sq):
    """eval, cdf, jumps, poles, norm and mean all read q_n(min(u, s_m)) on (0, 1]."""
    u = np.union1d(sq.breakpoints[(sq.breakpoints > 0) & (sq.breakpoints <= 1)],
                   (np.arange(1000) + 0.5) / 1000)
    x = np.union1d(sq.values, np.concatenate((sq.values - 0.5, sq.values + 0.5)))
    # Galois: q(u) <= x exactly when u <= F(x)
    np.testing.assert_array_equal(sq.eval(u)[:, None] <= x[None, :],
                                  u[:, None] <= sq.cdf(x)[None, :])
    assert sq.cdf(sq.values[-1]) == 1.0 and sq.cdf(sq.values[0] - 1.0) == 0.0
    np.testing.assert_array_equal(sq.cdf_left(x), sq.cdf(np.nextafter(x, -np.inf)))
    levels, jumps = sq.jumps()
    np.testing.assert_array_equal(pole_levels(sq), levels)
    assert np.all((levels > 0) & (levels < 1)) and np.all(jumps != 0)
    np.testing.assert_allclose(sq.eval(levels + 1e-9) - sq.eval(levels), jumps)
    assert sq.eval(1.0) == pytest.approx(sq.values[0] + jumps.sum())
    mid = (np.arange(10 ** 5) + 0.5) / 10 ** 5
    assert sq.mean() == pytest.approx(np.mean(sq.eval(mid)), abs=1e-4)
    assert sq.l1_norm() == pytest.approx(np.mean(np.abs(sq.eval(mid))), abs=1e-4)
    with pytest.raises(ValueError):
        sq.eval(1.1)


def test_step_l1_distance_small_case():
    a = StepQuantile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))
    b = StepQuantile(np.array([0.0, 1.0]), np.array([0.5]))
    assert l1_distance(a, b) == pytest.approx(0.5, abs=1e-12)
    assert l1_distance(a, a) == 0.0


def test_step_l1_distance_extends_shorter_mass():
    a = StepQuantile(np.array([0.0, 1.0]), np.array([2.0]))
    b = StepQuantile(np.array([0.0, 0.5]), np.array([1.0]))
    # b is held at its final value 1.0 on (0.5, 1.0)
    assert l1_distance(a, b) == pytest.approx(1.0, abs=1e-12)


class _OneCellBeta(Beta):
    """A Beta law cut only at its support edges, so (0, 1) is one cell."""

    def mass_cuts(self):
        return np.array([0.0, 1.0])


@pytest.mark.parametrize("swap", [False, True], ids=["minus-to-plus", "plus-to-minus"])
@pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
def test_cdf_gap_splits_a_cell_where_the_sign_changes(level, swap):
    """A Beta(2, 5) c.d.f. crosses a step level inside the cell (0, 1).

    Its c.d.f. 1 - (1-x)^6 - 6x(1-x)^5 is a polynomial, so the reference
    integrates F - level exactly on each side of the crossing.
    """
    beta = _OneCellBeta(2.0, 5.0)
    sq = StepQuantile([0.0, level, 1.0], [0.0, 1.0])
    got = l1_distance(*(sq, beta) if swap else (beta, sq))
    cross = float(special.betaincinv(2.0, 5.0, level))
    rest = Polynomial([1.0, -1.0])
    P = (1.0 - level - rest ** 6 - 6.0 * Polynomial([0.0, 1.0]) * rest ** 5).integ()
    expect = (P(1.0) - P(cross)) - (P(cross) - P(0.0))
    assert got == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("swap", [False, True], ids=["beta-first", "uniform-first"])
@pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 2)])
def test_quantile_l1_splits_a_cell_whose_ends_agree(a, b, swap):
    """Beta(a, b) and Uniform(0, 1) agree at both ends of their one cell.

    F - G is 0 at 0 and 1, so neither end gives the sign it changes to;
    the crossing (0.5 for Beta(2, 2)) must still split the cell.  The
    c.d.f. of Beta(a, b) with integer parameters is a binomial tail, so
    the reference integrates F - G exactly between its roots.
    """
    x, rest = Polynomial([0.0, 1.0]), Polynomial([1.0, -1.0])
    n = a + b - 1
    gap = sum(math.comb(n, j) * x ** j * rest ** (n - j) for j in range(a, n + 1)) - x
    roots = sorted(r.real for r in gap.roots() if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0)
    P, ends = gap.integ(), [0.0] + roots + [1.0]
    expect = sum(abs(P(hi) - P(lo)) for lo, hi in zip(ends, ends[1:]))
    laws = (Beta(float(a), float(b)), Uniform(0.0, 1.0))
    assert l1_distance(*laws[::-1] if swap else laws) == pytest.approx(expect, abs=1e-14)
    if (a, b) == (2, 2):
        assert expect == pytest.approx(0.0625, abs=1e-15)


@pytest.mark.parametrize("r, expect", [(2.0, 3.0 * np.exp(-2.0)),
                                       (4.0, 5.0 * np.exp(-4.0)),
                                       (8.0, 9.0 * np.exp(-8.0))])
def test_truncated_exponential_quantile_gap(r, expect):
    """||q_r - q||_1 = e^-r (1 + r) for the unit exponential."""
    base = Exponential(1.0)
    got = l1_distance(base.truncate(r), base)
    assert got == pytest.approx(expect, rel=1e-12)


TAIL_LAWS = {
    "exp-1": Exponential(1.0),
    "exp-1-centred": Exponential(1.0).center(),
    "exp-3-centred": Exponential(3.0).center(),
    "exp-0.2-centred": Exponential(0.2).center(),
    "exp-0.01-centred": Exponential(0.01).center(),
    "exp-mixture-centred": Mixture([(0.5, Exponential(1.0)),
                                    (0.5, Exponential(4.0))]).center(),
}


def _quad_quantile_l1(dist_a, dist_b):
    """int |F_a - F_b| dx by scipy's quad, one call per cell between the
    breakpoints of both laws, the two unbounded ends included."""
    cuts = sorted(set(dist_a.cdf_breakpoints()) | set(dist_b.cdf_breakpoints()))
    edges = [-np.inf, *cuts, np.inf]
    return sum(quad(lambda x: abs(float(dist_a.cdf(x)) - float(dist_b.cdf(x))),
                    lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("r", [0.5, 2.0, 4.0, 8.0, 20.0, 100.0])
@pytest.mark.parametrize("law", sorted(TAIL_LAWS))
def test_quantile_l1_tails_match_quad(law, r):
    """The geometric tail cuts give what adaptive quadrature gives."""
    base = TAIL_LAWS[law]
    got = l1_distance(base.truncate(r), base)
    assert got == pytest.approx(_quad_quantile_l1(base.truncate(r), base),
                                rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("rate_a, rate_b", [(1.0, 2.0), (100.0, 200.0),
                                            (1000.0, 3000.0), (0.01, 0.02)])
def test_quantile_l1_resolves_tails_of_any_scale(rate_a, rate_b):
    """||q_a - q_b||_1 = 1/rate_a - 1/rate_b, also when the whole gap lies
    within 1e-3 of the last breakpoint."""
    got = l1_distance(Exponential(rate_a), Exponential(rate_b))
    assert got == pytest.approx(1.0 / rate_a - 1.0 / rate_b, rel=1e-12)


def test_quantile_l1_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from mudk import Exponential, l1_distance\n"
            "print(l1_distance(Exponential(1.0).truncate(4.0), Exponential(1.0)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert float(out) == pytest.approx(5.0 * np.exp(-4.0), rel=1e-12)


def test_gauss_legendre_table_is_leggauss_16():
    """The literal 16-point table has the bits numpy computes for it."""
    nodes, weights = leggauss(16)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("cells", [1, _GL_BLOCK - 1, _GL_BLOCK, _GL_BLOCK + 1,
                                   3 * _GL_BLOCK + 7])
def test_gauss_legendre_blocks_match_the_one_shot_rule(cells):
    """Blocks of at most _GL_BLOCK cells give each cell the one-cell rule's
    bits, the rule applied to that cell alone; a one-shot `@` over all the
    cells is no oracle, as BLAS may sum a row by its neighbours' layout."""
    F = Beta(2.0, 5.0).cdf
    calls = []

    def f(x):
        calls.append(x.size)
        return F(x)

    edges = np.sort(np.random.default_rng(cells).random(cells + 1))
    lo, hi = edges[:-1], edges[1:]
    out = gauss_legendre(f, lo, hi)
    one_cell = [gauss_legendre(F, lo[i:i + 1], hi[i:i + 1]) for i in range(cells)]
    assert out.tobytes() == np.concatenate(one_cell).tobytes()
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GL_NODES
    np.testing.assert_allclose(out, half * (F(nodes) * _GL_WEIGHTS).sum(axis=1), rtol=1e-14)
    assert max(calls) <= _GL_BLOCK * _GL_NODES.size
    assert sum(calls) == cells * _GL_NODES.size


@pytest.mark.parametrize("counts, cells", [
    ([], 4), ([0], 4), ([0, 0, 0], 4), ([5], 4), ([4, 4, 4], 4),
    ([0, 5, 0, 0, 2, 2, 0, 9, 1, 0], 4), ([3, 0, 1, 0, 0, 7, 0], 4),
    (np.random.default_rng(7).integers(0, 12, 500), 16)],
    ids=["empty", "one-zero", "zeros", "one-wide", "exact", "mixed", "wide-inside",
         "random"])
def test_chunks_are_consecutive_and_cover_every_entry(counts, cells):
    """Slices follow one another from entry 0 to the last; each sums to at
    most `cells` or holds one entry, and none could take its next entry."""
    counts = np.asarray(counts, dtype=int)
    slices = list(chunks(counts, cells))
    bounds = [0] + [s.stop for s in slices]
    assert [s.start for s in slices] == bounds[:-1] and bounds[-1] == counts.size
    for s in slices:
        assert s.stop > s.start and s.step is None
        assert counts[s].sum() <= cells or s.stop - s.start == 1
        if s.stop < counts.size:
            assert counts[s.start:s.stop + 1].sum() > cells


def test_rate_bound_uniform_values():
    rb = rate_bound(Uniform(-1.0, 1.0), 10)
    assert rb.cell_width == pytest.approx(0.2)
    assert rb.varpi == 0.0
    assert rb.bound == pytest.approx(0.2)
    assert rb.refined_bound is not None
    assert l1_distance(Uniform(-1.0, 1.0), build_measure(Uniform(-1.0, 1.0), 10)) \
        <= rb.refined_bound + 1e-12


def _refined_bound_laws(count=16, seed=1):
    """Centred Beta laws (shapes in (1, 8)) and centred truncated normals on
    random windows, from one seeded generator, then laws with gaps, atoms
    and supports away from the origin."""
    rng = np.random.default_rng(seed)
    laws = []
    for _ in range(count):
        a, b = rng.uniform(1.0, 8.0, 2)
        laws.append(pytest.param(Beta(a, b).center(), id=f"beta({a:.2f},{b:.2f})"))
    for _ in range(count):
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        hi = max(hi, lo + 0.1)
        mu, sigma = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0)
        laws.append(pytest.param(TruncatedNormal(mu, sigma, lo, hi).center(),
                                 id=f"normal({mu:.2f},{sigma:.2f},{lo:.2f},{hi:.2f})"))
    return laws + [
        pytest.param(Uniform(-3.0, -1.0), id="uniform-left-of-origin"),
        pytest.param(Mixture([(0.5, Uniform(-2.0, -1.0)), (0.5, Uniform(1.0, 2.0))]),
                     id="two-piece"),
        pytest.param(Mixture([(0.5, Beta(2.0, 5.0)), (0.5, Uniform(0.0, 1.0))]).center(),
                     id="beta+uniform"),
        pytest.param(Mixture([(0.6, Uniform(-1.0, 1.0)), (0.4, Discrete([(0.3, 1.0)]))]),
                     id="uniform+atom"),
        pytest.param(Mixture([(0.8, Beta(2.0, 5.0)), (0.2, Discrete([(0.5, 1.0)]))]).center(),
                     id="beta+atom"),
        pytest.param(Exponential(2.0).center().truncate(1.5), id="truncated-exponential"),
        # a peak far narrower than the 1023-point density sample
        pytest.param(TruncatedNormal(0.3, 0.0002, -1.0, 1.0), id="sharp-normal"),
    ]


@pytest.mark.parametrize("dist", _refined_bound_laws())
def test_refined_bound_holds_wherever_the_law_sits(dist):
    """alpha/n + beta/n^2 bounds the c.d.f.-scheme L1 gap and is positive,
    whatever the location of the support."""
    for n in (3, 10, 11, 50, 200):
        rb = rate_bound(dist, n)
        assert rb.refined_bound > 0.0
        assert l1_distance(dist, build_measure(dist, n)) <= rb.refined_bound + 1e-12, n


def test_refined_bound_does_not_move_with_the_law():
    """U(-3, -1) and U(-1, 1) get one bound at n = 10:
    (b-a)/(2n) + (b-a)^2 sup f/(2n^2) = 0.1 + 0.01."""
    for dist in (Uniform(-3.0, -1.0), Uniform(-1.0, 1.0)):
        assert rate_bound(dist, 10).refined_bound == pytest.approx(0.11, rel=1e-12)


def test_beta_discretization_converges():
    d = Beta(2.0, 5.0)
    errs = [l1_distance(d, build_measure(d, n)) for n in (10, 40, 160)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01


# ------------------------------------------------ level-space L1 reference

MIXTURE = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
NORMAL_LO, NORMAL_HI = special.ndtr(-2.0), special.ndtr(2.0)
EXP_LUMP = math.exp(-4.0)          # the origin atom of the truncated exponential


def _truncated_exponential_quantile(u):
    """Quantile of Exponential(1).center().truncate(3): the atom at 0 holds
    the levels (1 - 1/e, 1 - 1/e + e^-4]."""
    if u <= 1.0 - math.exp(-1.0):
        return -math.log1p(-u) - 1.0
    if u <= 1.0 - math.exp(-1.0) + EXP_LUMP:
        return 0.0
    return -math.log1p(-(u - EXP_LUMP)) - 1.0


# the five reference laws, each with the quantile the oracle integrates,
# written out or taken from scipy so that the oracle does not run the
# code under test
REFERENCE_LAWS = {
    "uniform": (Uniform(-1.0, 1.0).center(), lambda u: 2.0 * u - 1.0),
    "beta": (Beta(2.0, 5.0).center(),
             lambda u: float(special.betaincinv(2.0, 5.0, u)) - 2.0 / 7.0),
    "truncated_normal": (TruncatedNormal(0.0, 1.0, -2.0, 2.0).center(),
                         lambda u: float(special.ndtri(NORMAL_LO + u * (NORMAL_HI - NORMAL_LO)))),
    "truncated_exponential": (Exponential(1.0).center().truncate(3.0),
                              _truncated_exponential_quantile),
    "mixture": (MIXTURE.center(),
                lambda u: float(np.interp(u, [0.0, 0.25, 0.75, 1.0],
                                          [-1.0, 0.0, 0.0, 1.0]))),
}


def _sharp_normal(sigma):
    """TruncatedNormal(0, sigma, -1, 1), whose c.d.f. rises within a few
    sigma of 0, inside one grid cell at n = 200, and its quantile."""
    lo, hi = special.ndtr(-1.0 / sigma), special.ndtr(1.0 / sigma)
    return (TruncatedNormal(0.0, sigma, -1.0, 1.0),
            lambda u: sigma * float(special.ndtri(lo + u * (hi - lo))))


SHARP_LAWS = {"sharp_normal_0.002": _sharp_normal(0.002),
              "sharp_normal_0.0005": _sharp_normal(0.0005)}


def level_oracle(dist, sq, quantile):
    """Integral of |q - q_n| over the levels (0, 1) by adaptive quadrature.

    Level cells are cut at the step breakpoints and at the levels where q
    jumps or kinks; q_n is constant on each cell, held at its final value
    past the total mass, and q - q_n changes sign at F(c).
    """
    kinks = [f(p) for p in dist.cdf_breakpoints() for f in (dist.cdf_left, dist.cdf)]
    levels = np.unique(np.clip(np.concatenate((sq.breakpoints, kinks, [0.0, 1.0])), 0.0, 1.0))
    total = 0.0
    for l, r in zip(levels[:-1], levels[1:]):
        step = np.searchsorted(sq.breakpoints, 0.5 * (l + r)) - 1
        c = sq.values[min(step, sq.num_steps - 1)]
        split = min(max(float(dist.cdf(c)), l), r)
        for a, b in ((l, split), (split, r)):
            if b - a > 1e-15:
                total += quad(lambda u: abs(quantile(u) - c), a, b,
                              epsabs=1e-14, epsrel=0.0, limit=200)[0]
    return total


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
@pytest.mark.parametrize("scheme", ["cdf", "pdf"])
@pytest.mark.parametrize("law, n", [(law, n) for law in sorted(REFERENCE_LAWS)
                                    for n in (200, 2000)
                                    if (law, n) != ("truncated_normal", 2000)]
                         + [(law, 200) for law in sorted(SHARP_LAWS)])
def test_l1_distance_matches_level_space_oracle(law, n, scheme):
    dist, quantile = {**REFERENCE_LAWS, **SHARP_LAWS}[law]
    sq = build_measure(dist, n, scheme)
    assert l1_distance(dist, sq) == pytest.approx(
        level_oracle(dist, sq, quantile), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.floats(0.05, 1.0)),
                min_size=1, max_size=8, unique_by=lambda a: a[0]),
       st.lists(st.tuples(st.integers(-50, 50), st.floats(0.05, 1.0)),
                min_size=1, max_size=8),
       st.floats(0.5, 1.0))
# an atom on a cut: Discrete counts it from 1e-12 below, a band that F(hi-) skips
@example(atoms=[(0, 1.0)], steps=[(0, 1.0), (-1, 0.5)], mass=0.5)
def test_l1_distance_of_discrete_law_equals_step_distance(atoms, steps, mass):
    """For an atomic law both routes compare two step quantiles."""
    total = sum(p for _, p in atoms)
    dist = Discrete([(x / 10.0, p / total) for x, p in atoms])
    own = StepQuantile(np.concatenate(([0.0], dist.cum)), dist.xs)
    widths = np.array([w for _, w in steps])
    sq = StepQuantile(np.concatenate(([0.0], np.cumsum(widths) * mass / widths.sum())),
                      np.sort([x / 10.0 for x, _ in steps]))
    assert l1_distance(dist, sq) == pytest.approx(l1_distance(own, sq), abs=1e-14)


# ------------------------------------------------ atoms in the c.d.f. scheme


@st.composite
def atom_laws(draw):
    """Uniform or two-piece uniform plus up to four atoms, and n <= 33.

    Each atom sits on a grid node, within 1e-13 of one, inside a cell or
    at a support edge; atoms closer than 1e-9 to an earlier one are left
    out.
    """
    n = draw(st.integers(1, 33))
    a = draw(st.floats(-2.0, 0.0))
    if draw(st.booleans()):
        b = a + draw(st.floats(0.5, 3.0))
        base = Uniform(a, b)
    else:
        w1, gap, w2 = (draw(st.floats(0.1, 1.0)) for _ in range(3))
        b = a + w1 + gap + w2
        base = Mixture([(w1 / (w1 + w2), Uniform(a, a + w1)),
                        (w2 / (w1 + w2), Uniform(a + w1 + gap, b))])
    h = (b - a) / n
    locs = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, n))
        place = draw(st.sampled_from(["node", "near", "inner", "edge"]))
        if place == "node":
            x = a + h * k
        elif place == "near":
            x = a + h * k + draw(st.sampled_from([-1e-13, 1e-13]))
        elif place == "inner":
            x = a + h * (min(k, n - 1) + draw(st.floats(0.05, 0.95)))
        else:
            x = draw(st.sampled_from([a, b]))
        x = min(max(x, a), b)
        if all(abs(x - y) > 1e-9 for y in locs):
            locs.append(x)
    if not locs:
        return base, n, b - a
    masses = [draw(st.floats(0.1, 1.0)) for _ in locs]
    atoms = Discrete([(x, m / sum(masses)) for x, m in zip(locs, masses)])
    w = draw(st.floats(0.1, 0.8))
    return Mixture([(1.0 - w, base), (w, atoms)]), n, b - a


def _edge_law(*pieces):
    """Equal mixture of two uniforms, at n = 3, as `atom_laws` draws it."""
    dist = Mixture([(0.5, Uniform(*pieces[:2])), (0.5, Uniform(*pieces[2:]))])
    return dist, 3, pieces[3] - pieces[0]


@settings(max_examples=200, deadline=None)
@given(atom_laws())
# grid nodes an ulp inside a piece edge, next to the empty middle cell
@example(_edge_law(0.0, 0.7170564646135957, 1.4341129292271915, 2.151169393840787))
@example(_edge_law(-1e-12, 0.099999999999, 0.199999999999, 0.299999999999))
def test_cdf_scheme_moves_no_mass_past_one_cell(law):
    """A dropped cell goes to the atom it touches: sup |q - q_n| <= h."""
    dist, n, width = law
    h = width / n
    sq = build_measure_cdf(dist, n)
    u = np.arange(1, 4000) / 4000.0
    assert np.max(np.abs(dist.quantile(u) - sq.eval(u))) <= h + 1e-9
    for loc, mass in dist.atoms():
        levels = np.linspace(float(dist.cdf_left(loc)), float(dist.cdf(loc)), 5)[1:]
        np.testing.assert_array_equal(sq.eval(levels), loc)
    assert l1_distance(dist, sq) <= h + 1e-12


def test_cells_between_two_atoms_split_between_them():
    """Each of the two cells between atoms at -0.2 and 0.2 goes to its own atom.

    A dropped run given whole to the right atom moves the mass of (-0.2, 0]
    by 2h, for L1 0.072 instead of 0.06.
    """
    dist = Mixture([(0.6, Uniform(-1.0, 1.0)),
                    (0.4, Discrete([(-0.2, 0.5), (0.2, 0.5)]))])
    sq = build_measure_cdf(dist, 10)
    assert sq.eval(0.47) == -0.2          # level of x = -0.1, inside (-0.2, 0]
    assert sq.eval(0.53) == 0.2           # level of x = 0.1, inside (0, 0.2]
    u = np.arange(1, 4000) / 4000.0
    assert np.max(np.abs(dist.quantile(u) - sq.eval(u))) == pytest.approx(0.2, abs=1e-9)
    assert l1_distance(dist, sq) == pytest.approx(0.06, abs=1e-12)


@pytest.mark.parametrize("offset", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("n", [4, 9])
def test_rate_bound_holds_for_atoms_left_of_the_origin(offset, n):
    """varpi weights displaced mass by |location|, so it is never negative."""
    dist = AffineDistribution(
        Mixture([(0.5, Discrete([(-0.4, 1.0)])), (0.5, Uniform(-1.0, 1.0))]), 1.0, offset)
    rb = rate_bound(dist, n)
    assert rb.varpi >= 0.0
    assert l1_distance(dist, build_measure(dist, n)) <= rb.bound + 1e-12


@pytest.mark.parametrize("n", [7, 10, 37, 100])
def test_rate_bound_sums_the_charges_of_several_atoms(n):
    """0.4 U(-1, 1) + 0.3 {-0.37: 1/2, 0.21: 1/2} + 0.3 {0.21: 1/4, 0.66: 3/4}.

    The two discrete parts share the atom 0.21 (mass 0.225).  Every gap
    between atoms and support ends exceeds h = 2/n, so each atom is charged
    on both sides, and the mass within h of it is the uniform part's 0.2 h.
    """
    dist = Mixture([(0.4, Uniform(-1.0, 1.0)),
                    (0.3, Discrete([(-0.37, 0.5), (0.21, 0.5)])),
                    (0.3, Discrete([(0.21, 0.25), (0.66, 0.75)]))])
    np.testing.assert_allclose(dist.atoms(), [[-0.37, 0.15], [0.21, 0.225], [0.66, 0.225]],
                               rtol=1e-15)
    h = 2.0 / n
    varpi = (0.2 * h * (0.37 + 0.21 + 0.66)              # left of each atom
             + 0.2 * h * (abs(-0.37 + h) + (0.21 + h) + (0.66 + h)))   # right of each atom
    rb = rate_bound(dist, n)
    assert rb.varpi == pytest.approx(varpi, rel=1e-12)
    assert rb.bound == rb.cell_width + rb.varpi
    assert l1_distance(dist, build_measure(dist, n)) <= rb.bound + 1e-12
