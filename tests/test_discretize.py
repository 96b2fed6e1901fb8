"""Tests of the measure discretization and its error estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from mudk.discretize import (StepQuantile, UnboundedSupportError,
                             build_measure, build_measure_cdf,
                             build_measure_pdf, grid, l1_distance, quantile_l1,
                             rate_bound, step_l1_distance, tail_defect)
from mudk.distributions import (Beta, Discrete, Exponential, Mixture,
                                TruncatedNormal, TwoPieceUniform, Uniform)


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
              TwoPieceUniform(-2.0, -1.0, 1.0, 2.0)):
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
        StepQuantile(np.array([0.1, 0.5, 1.0]), np.array([0.0, 1.0]),
                     np.zeros(2, dtype=bool))
    with pytest.raises(ValueError):
        StepQuantile(np.array([0.0, 0.5, 0.4]), np.array([0.0, 1.0]),
                     np.zeros(2, dtype=bool))
    with pytest.raises(ValueError):
        StepQuantile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]),
                     np.zeros(2, dtype=bool))


def test_step_quantile_eval_left_continuity():
    sq = build_measure(Uniform(-1.0, 1.0), 2)
    assert sq.eval(0.5) == 0.0
    assert sq.eval(0.500001) == 1.0
    assert sq.eval(1.0) == 1.0
    with pytest.raises(ValueError):
        sq.eval(0.0)


def test_step_l1_distance_small_case():
    a = StepQuantile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]),
                     np.zeros(2, dtype=bool))
    b = StepQuantile(np.array([0.0, 1.0]), np.array([0.5]),
                     np.zeros(1, dtype=bool))
    assert step_l1_distance(a, b) == pytest.approx(0.5, abs=1e-12)
    assert step_l1_distance(a, a) == 0.0


def test_step_l1_distance_extends_shorter_mass():
    a = StepQuantile(np.array([0.0, 1.0]), np.array([2.0]),
                     np.zeros(1, dtype=bool))
    b = StepQuantile(np.array([0.0, 0.5]), np.array([1.0]),
                     np.zeros(1, dtype=bool))
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
    assert got == pytest.approx(expect, rel=1e-6)


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
# the five reference laws, each with the quantile the oracle integrates;
# the mixture's is written out (it is affine between its break levels)
REFERENCE_LAWS = {
    "uniform": (Uniform(-1.0, 1.0).center(), None),
    "beta": (Beta(2.0, 5.0).center(), None),
    "truncated_normal": (TruncatedNormal(0.0, 1.0, -2.0, 2.0).center(), None),
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
