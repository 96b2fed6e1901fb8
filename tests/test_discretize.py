"""Tests of the measure discretization and its error estimates."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import IntegrationWarning, quad

from mudk._quad import _GL_NODES, _GL_WEIGHTS
from mudk.discretize import (StepQuantile, UnboundedSupportError,
                             build_measure, build_measure_cdf,
                             build_measure_pdf, grid, l1_distance, quantile_l1,
                             rate_bound, step_l1_distance, tail_defect)
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
            assert l1_distance(d, sq=build_measure(d, n)) <= rb.bound + 1e-12


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
        # bounded-density refinement with the explicit constants
        assert rb.alpha == pytest.approx(2.0, rel=1e-12)
        assert rb.beta == pytest.approx(2.0, rel=1e-12)
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
    assert step_l1_distance(a, b) == pytest.approx(0.5, abs=1e-12)
    assert step_l1_distance(a, a) == 0.0


def test_step_l1_distance_extends_shorter_mass():
    a = StepQuantile(np.array([0.0, 1.0]), np.array([2.0]))
    b = StepQuantile(np.array([0.0, 0.5]), np.array([1.0]))
    # b is held at its final value 1.0 on (0.5, 1.0)
    assert step_l1_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_tail_defect_uniform():
    d = Uniform(-1.0, 1.0)
    sq = build_measure(d, 4)
    # all cells contribute (b-a)/(2 n^2) = 1/16; the quarter tails get one each
    assert tail_defect(d, sq, 0.25) == pytest.approx(1.0 / 16.0, abs=1e-10)
    with pytest.raises(ValueError):
        tail_defect(d, sq, 0.75)


@pytest.mark.parametrize("r, expect", [(2.0, 3.0 * np.exp(-2.0)),
                                       (4.0, 5.0 * np.exp(-4.0)),
                                       (8.0, 9.0 * np.exp(-8.0))])
def test_truncated_exponential_quantile_gap(r, expect):
    """||q_r - q||_1 = e^-r (1 + r) for the unit exponential."""
    base = Exponential(1.0)
    got = quantile_l1(base.truncate(r), base)
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
    got = quantile_l1(base.truncate(r), base)
    assert got == pytest.approx(_quad_quantile_l1(base.truncate(r), base),
                                rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("rate_a, rate_b", [(1.0, 2.0), (100.0, 200.0),
                                            (1000.0, 3000.0), (0.01, 0.02)])
def test_quantile_l1_resolves_tails_of_any_scale(rate_a, rate_b):
    """||q_a - q_b||_1 = 1/rate_a - 1/rate_b, also when the whole gap lies
    within 1e-3 of the last breakpoint."""
    got = quantile_l1(Exponential(rate_a), Exponential(rate_b))
    assert got == pytest.approx(1.0 / rate_a - 1.0 / rate_b, rel=1e-12)


def test_quantile_l1_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from mudk import Exponential, quantile_l1\n"
            "print(quantile_l1(Exponential(1.0).truncate(4.0), Exponential(1.0)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert float(out) == pytest.approx(5.0 * np.exp(-4.0), rel=1e-12)


def test_gauss_legendre_table_is_leggauss_16():
    """The literal 16-point table has the bits numpy computes for it."""
    nodes, weights = leggauss(16)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


def test_rate_bound_uniform_values():
    rb = rate_bound(Uniform(-1.0, 1.0), 10)
    assert rb.cell_width == pytest.approx(0.2)
    assert rb.varpi == 0.0
    assert rb.bound == pytest.approx(0.2)
    assert rb.refined_bound is not None
    assert l1_distance(Uniform(-1.0, 1.0), build_measure(Uniform(-1.0, 1.0), 10)) \
        <= rb.refined_bound + 1e-12


def test_beta_discretization_converges():
    d = Beta(2.0, 5.0)
    errs = [l1_distance(d, build_measure(d, n)) for n in (10, 40, 160)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01


# ------------------------------------------------ level-space L1 reference

MIXTURE = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
NORMAL_LO, NORMAL_HI = special.ndtr(-2.0), special.ndtr(2.0)
# the five reference laws, each with the quantile the oracle integrates:
# scipy's for the beta and the truncated normal, so the oracle does not
# run the code under test, and the mixture's written out (it is affine
# between its break levels)
REFERENCE_LAWS = {
    "uniform": (Uniform(-1.0, 1.0).center(), None),
    "beta": (Beta(2.0, 5.0).center(),
             lambda u: float(special.betaincinv(2.0, 5.0, u)) - 2.0 / 7.0),
    "truncated_normal": (TruncatedNormal(0.0, 1.0, -2.0, 2.0).center(),
                         lambda u: float(special.ndtri(NORMAL_LO + u * (NORMAL_HI - NORMAL_LO)))),
    "truncated_exponential": (Exponential(1.0).center().truncate(3.0), None),
    "mixture": (MIXTURE.center(),
                lambda u: float(np.interp(u, [0.0, 0.25, 0.75, 1.0],
                                          [-1.0, 0.0, 0.0, 1.0]))),
}


def level_oracle(dist, sq, lo=0.0, hi=1.0, quantile=None):
    """Integral of |q - q_n| over the levels (lo, hi) by adaptive quadrature.

    Level cells are cut at the step breakpoints and at the levels where q
    jumps or kinks; q_n is constant on each cell, held at its final value
    past the total mass, and q - q_n changes sign at F(c).
    """
    q = quantile or (lambda u: float(dist.quantile(u)))
    kinks = [f(p) for p in dist.cdf_breakpoints() for f in (dist.cdf_left, dist.cdf)]
    levels = np.unique(np.clip(np.concatenate((sq.breakpoints, kinks, [lo, hi])), lo, hi))
    total = 0.0
    for l, r in zip(levels[:-1], levels[1:]):
        step = np.searchsorted(sq.breakpoints, 0.5 * (l + r)) - 1
        c = sq.values[min(step, sq.num_steps - 1)]
        split = min(max(float(dist.cdf(c)), l), r)
        for a, b in ((l, split), (split, r)):
            if b - a > 1e-15:
                total += quad(lambda u: abs(q(u) - c), a, b,
                              epsabs=1e-14, epsrel=0.0, limit=200)[0]
    return total


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
@pytest.mark.parametrize("scheme", ["cdf", "pdf"])
@pytest.mark.parametrize("law, n", [(law, n) for law in sorted(REFERENCE_LAWS)
                                    for n in (200, 2000)
                                    if (law, n) != ("truncated_normal", 2000)])
def test_l1_distance_matches_level_space_oracle(law, n, scheme):
    dist, quantile = REFERENCE_LAWS[law]
    sq = build_measure(dist, n, scheme)
    assert l1_distance(dist, sq) == pytest.approx(
        level_oracle(dist, sq, quantile=quantile), abs=1e-12)


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
@pytest.mark.parametrize("scheme", ["cdf", "pdf"])
@pytest.mark.parametrize("law", sorted(REFERENCE_LAWS))
def test_tail_defect_matches_level_space_oracle(law, scheme):
    dist, quantile = REFERENCE_LAWS[law]
    sq = build_measure(dist, 200, scheme)
    for delta in (0.05, 0.25):
        expect = max(level_oracle(dist, sq, 0.0, delta, quantile),
                     level_oracle(dist, sq, 1.0 - delta, 1.0, quantile))
        assert tail_defect(dist, sq, delta) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.floats(0.05, 1.0)),
                min_size=1, max_size=8, unique_by=lambda a: a[0]),
       st.lists(st.tuples(st.integers(-50, 50), st.floats(0.05, 1.0)),
                min_size=1, max_size=8),
       st.floats(0.5, 1.0))
def test_l1_distance_of_discrete_law_equals_step_distance(atoms, steps, mass):
    """For an atomic law both routes compare two step quantiles."""
    total = sum(p for _, p in atoms)
    dist = Discrete([(x / 10.0, p / total) for x, p in atoms])
    own = StepQuantile(np.concatenate(([0.0], dist.cum)), dist.xs)
    widths = np.array([w for _, w in steps])
    sq = StepQuantile(np.concatenate(([0.0], np.cumsum(widths) * mass / widths.sum())),
                      np.sort([x / 10.0 for x, _ in steps]))
    assert l1_distance(dist, sq) == pytest.approx(step_l1_distance(own, sq), abs=1e-14)


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
