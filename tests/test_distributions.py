"""Tests of quantile machinery across the distribution families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mudk.distributions
from mudk.discretize import build_measure
from mudk.distributions import (AffineDistribution, Beta, Discrete,
                                Distribution, Exponential, Mixture,
                                TruncatedDistribution, TruncatedNormal,
                                Uniform, _ndtr, bisect_smallest)

U = np.linspace(0.01, 0.99, 49)

# one instance of every law class; the mixture carries an atom
LAWS = [Uniform(-1.0, 2.0), Exponential(1.5), Beta(2.0, 5.0),
        TruncatedNormal(0.0, 1.0, -2.0, 2.0), Discrete([(-1.0, 0.25), (0.5, 0.75)]),
        Mixture([(0.7, Uniform(-1.0, 1.0)), (0.3, Discrete([(0.25, 1.0)]))]),
        AffineDistribution(Beta(2.0, 5.0), 2.0, -0.5),
        TruncatedDistribution(Exponential(1.0).center(), 1.5)]
LAW_CLASSES = {cls for cls in vars(mudk.distributions).values()
               if isinstance(cls, type) and issubclass(cls, Distribution) and cls is not Distribution}
PUBLIC = ("cdf", "cdf_left", "pdf", "quantile")


def test_laws_cover_every_class():
    assert {type(d) for d in LAWS} == LAW_CLASSES


def test_only_the_base_class_defines_the_public_methods():
    """Laws implement the array cores; the scalar/array rule lives in Distribution."""
    for cls in LAW_CLASSES:
        assert not set(PUBLIC) & set(vars(cls)), cls.__name__


@pytest.mark.parametrize("law", LAWS, ids=lambda d: type(d).__name__)
def test_scalar_gives_float_and_array_keeps_its_shape(law):
    x = np.linspace(-1.2, 1.3, 6).reshape(2, 3)
    u = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    calls = [(law.cdf, x), (law.cdf_left, x), (law.quantile, u)]
    if law.has_density:
        calls.append((law.pdf, x))
    for method, arg in calls:
        out = method(arg)
        assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            value = method(float(arg[i, j]))
            assert type(value) is float
            assert value == pytest.approx(out[i, j], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("levels_of", [d.quantile for d in LAWS]
                         + [build_measure(Uniform(-1.0, 1.0), 4).eval],
                         ids=[type(d).__name__ for d in LAWS] + ["StepQuantile.eval"])
def test_nan_level_is_refused(levels_of):
    for bad in (np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError):
            levels_of(bad)


def test_uniform_closed_forms():
    d = Uniform(-1.0, 1.0)
    np.testing.assert_allclose(d.quantile(U), 2.0 * U - 1.0, atol=1e-14)
    np.testing.assert_allclose(d.cdf([-1.0, 0.0, 0.5, 1.0]),
                               [0.0, 0.5, 0.75, 1.0], atol=1e-15)
    assert d.mean() == 0.0
    assert d.support() == (-1.0, 1.0)
    assert not d.atoms()


def test_level_validation_rejects_edges():
    d = Uniform(0.0, 1.0)
    for bad in (0.0, 1.0, -0.25, 1.5):
        with pytest.raises(ValueError):
            d.quantile(bad)


def test_uniform_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)


def test_exponential_quantile():
    d = Exponential(2.0)
    np.testing.assert_allclose(d.quantile(U), -np.log1p(-U) / 2.0, rtol=1e-13)
    np.testing.assert_allclose(d.mean(), 0.5, rtol=1e-13)
    assert d.support()[1] == np.inf


def test_beta_matches_scipy():
    from scipy import stats
    d = Beta(2.0, 5.0)
    frozen = stats.beta(2.0, 5.0)
    np.testing.assert_allclose(d.cdf(U), frozen.cdf(U), atol=1e-12)
    np.testing.assert_allclose(d.quantile(U), frozen.ppf(U), atol=1e-12)
    x = np.linspace(-0.5, 1.5, 401)
    np.testing.assert_allclose(d.pdf(x), frozen.pdf(x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(d.mean(), 2.0 / 7.0, rtol=1e-12)


SHAPES = [0.3, 0.5, 1.0, 2.0, 5.0, 30.0, 300.0]


def _betainc_reference(a, b, x):
    """scipy's I_x(a, b), taken as 1 - I_{1-x}(b, a) above x = 1/2.

    1 - x is exact there; scipy's direct form is off by 2.7e-13 at
    a = b = 1/2, x = 1 - 1e-8.
    """
    from scipy import special
    return np.where(x > 0.5, 1.0 - special.betainc(b, a, 1.0 - x), special.betainc(a, b, x))


@pytest.mark.parametrize("a", SHAPES)
def test_beta_cdf_matches_scipy_across_shapes(a):
    x = np.concatenate(([0.0, 1e-300, 1e-10, 1.0 - 1e-10, 1.0],
                        np.linspace(0.01, 0.99, 99), np.geomspace(1e-8, 0.5, 30),
                        1.0 - np.geomspace(1e-8, 0.5, 30)))
    for b in SHAPES:
        d = Beta(a, b)
        ref = _betainc_reference(a, b, x)
        np.testing.assert_allclose(d.cdf(x), ref, rtol=0.0, atol=1e-14, err_msg=f"b={b}")
        floats = [d.cdf(float(t)) for t in x]
        np.testing.assert_allclose(floats, ref, rtol=0.0, atol=1e-14, err_msg=f"b={b}")


def _assert_inverts_cdf(d, q, u):
    """F(q(u)) = u to 1e-14, plus the step of F across one ulp of q."""
    slack = 1e-14 + d.pdf(q) * np.spacing(q)
    miss = np.abs(d.cdf(q) - u) - slack
    assert np.all(miss <= 0.0), (u[np.argmax(miss)], np.max(miss))


@pytest.mark.parametrize("a", SHAPES)
def test_beta_quantile_matches_scipy_and_inverts_cdf(a):
    from scipy import special
    u = np.concatenate((np.linspace(0.001, 0.999, 149), np.geomspace(1e-100, 0.5, 40)))
    for b in SHAPES:
        d = Beta(a, b)
        ref = np.where(u > 0.5, 1.0 - special.betaincinv(b, a, 1.0 - u),
                       special.betaincinv(a, b, u))
        q = d.quantile(u)
        np.testing.assert_allclose(q, ref, rtol=0.0, atol=1e-12, err_msg=f"b={b}")
        _assert_inverts_cdf(d, q, u)


def _ndtr_reference(z):
    """Phi(z) from scipy's erfcx, exact for z on a 1/1024 grid (z^2 is exact)."""
    from scipy import special
    a = np.abs(z)
    tail = 0.5 * special.erfcx(a * np.sqrt(0.5)) * np.exp(-0.5 * a * a)
    return np.where(z <= 0.0, tail, 1.0 - tail)


def test_normal_cdf_matches_erfcx_reference():
    """Down to z = -37 (p = 6e-300); below, p is subnormal and holds fewer digits."""
    z = np.arange(-38 * 1024, 38 * 1024 + 1) / 1024.0
    np.testing.assert_allclose(_ndtr(z), _ndtr_reference(z), rtol=1e-15, atol=1e-315)


@pytest.mark.parametrize("lo, hi", [(-2.0, 2.0), (3.0, 6.0), (8.0, 10.0)])
def test_truncated_normal_matches_erfcx_reference(lo, hi):
    """(3, 6) and (8, 10) lie in the upper tail, where the mirrored form is used."""
    d = TruncatedNormal(0.0, 1.0, lo, hi)
    x = lo + (hi - lo) * np.arange(65) / 64.0      # on a grid where x^2 is exact
    if lo > 0.0:
        upper = _ndtr_reference(-x)
        ref = (upper[0] - upper) / (upper[0] - upper[-1])
    else:
        lower = _ndtr_reference(x)
        ref = (lower - lower[0]) / (lower[-1] - lower[0])
    np.testing.assert_allclose(d.cdf(x), ref, rtol=1e-14, atol=1e-16)
    _assert_inverts_cdf(d, d.quantile(U), U)


def test_truncated_normal_moments():
    # symmetric window: mean stays at mu
    d = TruncatedNormal(0.0, 1.0, -2.0, 2.0)
    np.testing.assert_allclose(d.mean(), 0.0, atol=1e-12)
    from scipy import stats
    ref = stats.truncnorm(-2.0, 2.0)
    np.testing.assert_allclose(d.quantile(0.25), ref.ppf(0.25), atol=1e-9)


def test_truncated_normal_quantile_inverts_cdf():
    d = TruncatedNormal(0.5, 2.0, -3.0, 4.0)
    q = d.quantile(U)
    np.testing.assert_allclose(d.cdf(q), U, atol=1e-10)


@pytest.mark.parametrize("lo, hi", [(-2.0, 2.0), (3.0, 6.0), (8.0, 10.0)])
def test_truncated_normal_cdf_and_quantile_match_truncnorm(lo, hi):
    """(3, 6) and (8, 10) lie in the upper tail, where the mirrored form is used."""
    from scipy import stats
    d = TruncatedNormal(0.0, 1.0, lo, hi)
    ref = stats.truncnorm(lo, hi)
    x = np.linspace(lo, hi, 41)
    np.testing.assert_allclose(d.cdf(x), ref.cdf(x), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(d.quantile(U), ref.ppf(U), rtol=0.0, atol=1e-10)


def test_two_piece_uniform_gap():
    d = Mixture([(0.5, Uniform(-2.0, -1.0)), (0.5, Uniform(1.0, 2.0))])
    # half the mass on each piece; the quantile jumps across the gap
    np.testing.assert_allclose(d.quantile(0.5), -1.0, atol=1e-12)
    np.testing.assert_allclose(d.quantile(0.25), -1.5, atol=1e-12)
    np.testing.assert_allclose(d.quantile(0.75), 1.5, atol=1e-12)
    np.testing.assert_allclose(d.cdf([-1.0, 0.0, 1.0]), [0.5, 0.5, 0.5],
                               atol=1e-15)
    assert d.mean() == pytest.approx(0.0, abs=1e-12)


def test_discrete_quantile_and_cdf():
    d = Discrete([(-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
    assert d.quantile(0.25) == -1.0
    assert d.quantile(0.250001) == 0.0
    assert d.quantile(0.75) == 0.0
    np.testing.assert_allclose(d.cdf([-1.0, 0.0, 2.0]), [0.25, 0.75, 1.0])
    np.testing.assert_allclose(d.cdf_left([-1.0, 0.0, 2.0]), [0.0, 0.25, 0.75])
    assert dict(d.atoms()) == {-1.0: 0.25, 0.0: 0.5, 2.0: 0.25}
    np.testing.assert_allclose(d.mean(), -0.25 + 0.5)


def test_discrete_atom_matching_tolerates_roundoff():
    d = Discrete([(0.1, 0.5), (0.3, 0.5)])
    shifted = np.nextafter(0.1, 1.0)
    np.testing.assert_allclose(d.cdf(shifted), 0.5)
    np.testing.assert_allclose(d.cdf_left(shifted), 0.0)


def test_discrete_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        Discrete([(0.0, 0.5), (1.0, 0.4)])


def test_mixture_cdf_is_weighted_sum():
    parts = [(0.3, Uniform(-1.0, 0.0)), (0.7, Uniform(0.0, 2.0))]
    mix = Mixture(parts)
    x = np.linspace(-1.5, 2.5, 41)
    expect = 0.3 * parts[0][1].cdf(x) + 0.7 * parts[1][1].cdf(x)
    np.testing.assert_allclose(mix.cdf(x), expect, atol=1e-14)
    np.testing.assert_allclose(mix.mean(), 0.3 * (-0.5) + 0.7 * 1.0, rtol=1e-12)


def test_mixture_with_atom_reports_it():
    mix = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
    assert mix.atoms() == [(0.0, 0.5)]
    np.testing.assert_allclose(mix.cdf(0.0), 0.75)
    np.testing.assert_allclose(mix.cdf_left(0.0), 0.25)


def test_affine_transform_roundtrip():
    base = Uniform(0.0, 1.0)
    d = AffineDistribution(base, 3.0, -1.5)
    np.testing.assert_allclose(d.quantile(U), 3.0 * U - 1.5, atol=1e-12)
    np.testing.assert_allclose(d.support(), (-1.5, 1.5))
    np.testing.assert_allclose(d.mean(), 0.0, atol=1e-12)


def test_affine_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        AffineDistribution(Uniform(0.0, 1.0), -2.0, 0.0)


def test_center_zeroes_the_mean():
    for d in (Beta(2.0, 5.0), Exponential(1.0).truncate(4.0),
              Discrete([(1.0, 0.25), (3.0, 0.75)])):
        c = d.center()
        assert abs(c.mean()) < 1e-10


def test_centered_atoms_move_with_the_shift():
    d = Discrete([(1.0, 0.5), (3.0, 0.5)]).center()
    locs = [loc for loc, _ in d.atoms()]
    np.testing.assert_allclose(locs, [-1.0, 1.0], atol=1e-12)


def test_truncation_three_case_quantile_for_exponential():
    """The truncated quantile follows the exact three-branch formula."""
    base = Exponential(1.0)
    for r in (2.0, 4.0, 8.0):
        d = base.truncate(r)
        lump = np.exp(-r)
        u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        expect = np.where(u <= lump, 0.0, -np.log1p(-(u - lump)))
        got = d.quantile(u)
        np.testing.assert_allclose(got, expect, atol=1e-12)
        assert d.origin_mass() == pytest.approx(lump, rel=1e-12)


def test_truncation_window_keeps_interior_mass_in_place():
    d = Uniform(-4.0, 4.0).truncate(1.0)
    # mass 3/4 trimmed into the origin atom
    assert d.origin_mass() == pytest.approx(0.75, rel=1e-12)
    np.testing.assert_allclose(d.cdf([-1.0, 0.0, 1.0]),
                               [0.0, 0.875, 1.0], atol=1e-12)
    lo, hi = d.support()
    assert lo == -1.0 and hi == 1.0
    assert d.mean() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("base, bound", [
    (Exponential(1.0), 3.0),
    (Uniform(-10.0, -2.0), 5.0),                    # support ends inside the window
    (Beta(2.0, 5.0).center(), 0.1),
    (TruncatedNormal(0.3, 0.01, -5.0, 5.0), 4.0),   # mass in a narrow band
    (Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.3, 1.0)]))]), 0.5),
])
def test_truncated_mean_is_the_window_partial_mean(base, bound):
    """The origin atom adds nothing: the mean is E[X; -R <= X <= R]."""
    from scipy.integrate import quad
    inside = sum(loc * mass for loc, mass in base.atoms() if abs(loc) <= bound)
    a, b = base.support()
    lo, hi = max(a, -bound), min(b, bound)
    if base.has_density:
        # the median tells quad where a narrow band of mass sits
        marks = [x for x in (*base.cdf_breakpoints(), base.quantile(0.5)) if lo < x < hi]
        inside += quad(lambda x: x * base.pdf(x), lo, hi, points=marks,
                       epsabs=1e-14, limit=200)[0]
    assert base.truncate(bound).mean() == pytest.approx(inside, abs=1e-12)


def test_truncation_with_negative_support_uses_lower_branch():
    d = Uniform(-10.0, -2.0).truncate(5.0)
    # kept window (-5, -2) holds mass 3/8; the trimmed 5/8 lands at 0
    np.testing.assert_allclose(d.quantile(0.1), -4.2, atol=1e-9)
    np.testing.assert_allclose(d.quantile(0.9), 0.0, atol=1e-12)
    assert d.origin_mass() == pytest.approx(5.0 / 8.0, rel=1e-12)


def test_bisect_smallest_recovers_threshold():
    roots = np.array([0.3, 1.7, 2.5])
    got = bisect_smallest(lambda x: x >= roots, np.zeros(3), np.full(3, 3.0))
    np.testing.assert_allclose(got, roots, atol=1e-11)


# The laws whose quantile bisects F.  The one-line inverses and the wrappers'
# affine maps round (Uniform's a + u (b - a) is a itself at u = 1e-300), so
# the float-exact property below belongs to the bisection alone.
BISECTED = [pytest.param(d, id=type(d).__name__) for d in LAWS
            if type(d)._quantile is Distribution._quantile] + [
    pytest.param(Mixture([(0.5, Exponential(1.0)), (0.5, Uniform(-2.0, -1.0))]),
                 id="open-right-end"),
    pytest.param(Mixture([(0.5, Exponential(1.0).truncate(2.0)), (0.5, Uniform(0.0, 1.0))]),
                 id="atom-at-left-edge"),
    pytest.param(Mixture([(0.5, Uniform(-2.0, -1.0)), (0.5, Uniform(1.0, 2.0))]), id="gap"),
]


@pytest.mark.parametrize("law", BISECTED)
def test_bisected_quantile_is_the_smallest_float_reaching_the_level(law):
    """F(q) >= u > F(x) at the float x just below q."""
    u = np.array([1e-300, 1e-100, 0.5, 1.0 - 2.0 ** -53])
    q = law.quantile(u)
    assert np.all(law.cdf(q) >= u)
    assert np.all(law.cdf(np.nextafter(q, -np.inf)) < u)


def test_bisected_quantile_at_an_atom_on_the_left_edge_is_the_edge():
    """Discrete's F counts an atom from 1e-12 below it; the edge itself is returned."""
    law = Mixture([(0.4, Discrete([(-1.0, 1.0)])), (0.6, Uniform(-1.0, 1.0))])
    assert law.quantile([1e-300, 0.25, 0.4]).tolist() == [-1.0, -1.0, -1.0]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_quantile_monotone_in_level(u1, u2):
    d = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
    lo, hi = sorted((u1, u2))
    assert d.quantile(lo) <= d.quantile(hi) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.001, 0.999))
def test_quantile_galois_inequalities(u):
    """F(q(u)) >= u and F_left(q(u)) <= u, the defining inequalities."""
    d = Beta(2.0, 5.0)
    q = float(d.quantile(u))
    assert d.cdf(q) >= u - 1e-9
    assert d.cdf_left(q) <= u + 1e-9


def test_distribution_is_abstract():
    with pytest.raises(TypeError):
        Distribution()
