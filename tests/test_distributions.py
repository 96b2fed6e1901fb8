"""Tests of quantile machinery across the distribution families."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    """Laws implement the array cores; the scalar/array rule lives in Distribution.

    The one quantile algorithm lives there too, no law supplies its own
    density sup, and a law with atoms reads its left limits itself (the
    base `_cdf_left` is F).
    """
    for cls in LAW_CLASSES:
        assert not set(PUBLIC + ("_quantile", "density_sup")) & set(vars(cls)), cls.__name__
    for law in LAWS:
        if law.atoms().size:
            assert "_cdf_left" in vars(type(law)), type(law).__name__


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
    assert d.atoms().shape == (0, 2)


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


@pytest.mark.parametrize("law", [
    Discrete([(0, 1)]),
    Discrete([(2.5, 0.25), (-1, 0.75)]),
    Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))]),
], ids=["one-atom", "unsorted", "in-a-mixture"])
def test_discrete_repr_prints_plain_floats_and_evaluates_to_an_equal_law(law):
    text = repr(law)
    assert "np.float64" not in text
    again = eval(text, vars(mudk.distributions))
    np.testing.assert_array_equal(again.atoms(), law.atoms())
    x = np.linspace(-1.5, 3.0, 19)
    np.testing.assert_array_equal(again.cdf(x), law.cdf(x))


def test_discrete_atom_matching_tolerates_roundoff():
    d = Discrete([(0.1, 0.5), (0.3, 0.5)])
    shifted = np.nextafter(0.1, 1.0)
    np.testing.assert_allclose(d.cdf(shifted), 0.5)
    np.testing.assert_allclose(d.cdf_left(shifted), 0.0)


def test_discrete_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        Discrete([(0.0, 0.5), (1.0, 0.4)])


@pytest.mark.parametrize("make", [
    lambda: Discrete([(1.0, np.nan)]),
    lambda: Discrete([(np.inf, 0.5), (2.0, 0.5)]),
    lambda: Discrete([(np.nan, 0.5), (2.0, 0.5)]),
    lambda: Discrete([(1.0, np.inf)]),
    lambda: Mixture([(np.nan, Uniform(0.0, 1.0))]),
    lambda: Mixture([(0.5, Uniform(0.0, 1.0)), (np.nan, Uniform(1.0, 2.0))]),
    lambda: Mixture([(np.inf, Uniform(0.0, 1.0))]),
], ids=["discrete-nan-mass", "discrete-inf-location", "discrete-nan-location",
        "discrete-inf-mass", "mixture-nan-weight", "mixture-second-nan-weight",
        "mixture-inf-weight"])
def test_non_finite_atoms_and_weights_are_refused(make):
    with pytest.raises(ValueError):
        make()


def test_mixture_cdf_is_weighted_sum():
    parts = [(0.3, Uniform(-1.0, 0.0)), (0.7, Uniform(0.0, 2.0))]
    mix = Mixture(parts)
    x = np.linspace(-1.5, 2.5, 41)
    expect = 0.3 * parts[0][1].cdf(x) + 0.7 * parts[1][1].cdf(x)
    np.testing.assert_allclose(mix.cdf(x), expect, atol=1e-14)
    np.testing.assert_allclose(mix.mean(), 0.3 * (-0.5) + 0.7 * 1.0, rtol=1e-12)


def test_mixture_with_atom_reports_it():
    mix = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
    np.testing.assert_array_equal(mix.atoms(), [[0.0, 0.5]])
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


@pytest.mark.parametrize("base", [
    Uniform(1.0, 2.0),                              # support outside the window
    Discrete([(-1.0, 0.5), (1.0, 0.5)]),            # support across it, no mass in it
], ids=["uniform", "discrete"])
def test_truncation_window_without_base_mass_is_the_origin_atom(base):
    d = base.truncate(0.5)
    assert d.support() == (0.0, 0.0)
    assert d.atoms().tolist() == [[0.0, 1.0]]
    assert d.cdf_breakpoints().tolist() == d.mass_cuts().tolist() == [0.0]


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


BIG = np.finfo(float).max


@pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (-1.0, 1.0), (-BIG, BIG)],
                         ids=["positive", "across-zero", "float-line"])
def test_bisect_smallest_ends_at_adjacent_floats(lo, hi):
    """The threshold float itself, or the float after it for a strict test,
    in at most 64 halvings, with hi never tested."""
    thresholds = np.array([lo / 3.0 + 1e-300, -1e-300, 0.3, hi / 7.0, np.nextafter(hi, lo)])
    thresholds = thresholds[(thresholds > lo) & (thresholds < hi)]
    tested = []

    def count(predicate):
        def wrapped(x):
            tested.append(x)
            return predicate(x)
        return wrapped

    ends = (np.full(thresholds.shape, lo), np.full(thresholds.shape, hi))
    assert bisect_smallest(count(lambda x: x >= thresholds), *ends).tolist() == \
        thresholds.tolist()
    strict = bisect_smallest(count(lambda x: x > thresholds), *ends)
    np.testing.assert_array_equal(strict, np.nextafter(thresholds, np.inf))
    assert len(tested) <= 2 * 64
    assert not np.any(np.concatenate(tested) == hi)


def test_bisect_smallest_returns_hi_for_an_empty_bracket():
    def untested(x):
        raise AssertionError("no point lies in (lo, hi]")

    assert bisect_smallest(untested, np.array([0.5, -2.0]), np.array([0.5, -2.0])).tolist() == \
        [0.5, -2.0]
    assert bisect_smallest(lambda x: x > 1.0, -1.0, 1.0) == 1.0     # hi, never tested


# Every law's quantile bisects F, and returns an atom exactly.
BISECTED = [pytest.param(d, id=type(d).__name__) for d in LAWS] + [
    pytest.param(Mixture([(0.5, Exponential(1.0)), (0.5, Uniform(-2.0, -1.0))]),
                 id="open-right-end"),
    pytest.param(Mixture([(0.5, Exponential(1.0).truncate(2.0)), (0.5, Uniform(0.0, 1.0))]),
                 id="atom-at-left-edge"),
    pytest.param(Mixture([(0.5, Uniform(-2.0, -1.0)), (0.5, Uniform(1.0, 2.0))]), id="gap"),
    # quantiles near 1e70, far out on an open end
    pytest.param(Mixture([(0.5, Exponential(1e-70)), (0.5, Uniform(0.0, 1.0))]),
                 id="far-scale"),
]


@pytest.mark.parametrize("law", BISECTED)
def test_bisected_quantile_is_the_smallest_float_reaching_the_level(law):
    """F(q) >= u; q is the atom a where u lies in (F(a-), F(a)], and
    elsewhere F(x) < u at the float x just below q."""
    u = np.array([1e-300, 1e-100, 0.5, 1.0 - 2.0 ** -53])
    q = law.quantile(u)
    assert np.all(law.cdf(q) >= u)
    atom = np.full(u.shape, np.nan)
    for loc, _ in law.atoms():
        atom[(law.cdf_left(loc) < u) & (u <= law.cdf(loc))] = loc
    on = ~np.isnan(atom)
    assert q[on].tolist() == atom[on].tolist()
    assert np.all(law.cdf(np.nextafter(q[~on], -np.inf)) < u[~on])


def test_quantile_inside_an_interior_atom_is_the_atom():
    """Discrete's F counts an atom from 1e-12 below it; the atom itself is returned."""
    law = Mixture([(0.7, Uniform(-1.0, 1.0)), (0.3, Discrete([(0.25, 1.0)]))])
    assert law.quantile([0.44, 0.5, 0.7375]).tolist() == [0.25, 0.25, 0.25]
    assert law.quantile(0.5) == 0.25


def test_quantile_at_the_origin_atom_is_positive_zero():
    """The fold reads -0.0 as at or above 0; the atom rule returns +0.0."""
    law = Exponential(1.0).center().truncate(3.0)
    q = law.quantile(0.64)
    assert q == 0.0 and math.copysign(1.0, q) == 1.0


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


# ------------------------------------------------ mass cuts


def _cell_masses(law, cuts):
    """Mass inside each open cell between neighbouring cuts."""
    return law.cdf_left(cuts[1:]) - law.cdf(cuts[:-1])


@pytest.mark.parametrize("law", [
    pytest.param(Beta(2.0, 5.0), id="beta"),
    pytest.param(Beta(0.5, 0.5), id="arcsine"),
    pytest.param(TruncatedNormal(0.0, 1.0, -2.0, 2.0), id="normal"),
    pytest.param(TruncatedNormal(0.0, 0.0005, -1.0, 1.0), id="sharp-normal"),
    pytest.param(Exponential(1.0), id="exponential"),
    pytest.param(Exponential(1000.0), id="exponential-1000"),
])
def test_mass_cuts_leave_each_cell_at_most_a_64th_of_the_mass(law):
    """F rises by at most 1/64 between neighbouring cuts, and an open tail
    holds at most 2^-52 past the outermost cut."""
    cuts = law.mass_cuts()
    assert np.all(np.diff(cuts) > 0)
    assert set(law.cdf_breakpoints()) <= set(cuts.tolist())
    assert np.max(_cell_masses(law, cuts)) <= 1.0 / 64.0 + 1e-15
    assert law.cdf(cuts[0]) <= 2.0 ** -52 and 1.0 - law.cdf(cuts[-1]) <= 2.0 ** -52
    assert law.mass_cuts() is cuts          # computed once, kept on the law


def test_affine_mass_cuts_are_the_base_cuts_mapped():
    base = Beta(2.0, 5.0)
    law = AffineDistribution(base, 2.0, -0.5)
    np.testing.assert_array_equal(law.mass_cuts(), 2.0 * base.mass_cuts() - 0.5)


def test_mixture_mass_cuts_are_the_union_of_its_components():
    beta, normal = Beta(2.0, 5.0), TruncatedNormal(0.0, 0.1, -1.0, 1.0)
    law = Mixture([(0.5, beta), (0.5, normal)])
    expect = np.union1d(beta.mass_cuts(), normal.mass_cuts())
    np.testing.assert_array_equal(law.mass_cuts(), expect)
    assert np.max(_cell_masses(law, law.mass_cuts())) <= 1.0 / 64.0 + 1e-15


def test_linear_laws_are_cut_only_where_f_bends():
    """Gauss-Legendre is exact on a linear F, so more cells would only round."""
    assert Uniform(-1.0, 2.0).mass_cuts().tolist() == [-1.0, 2.0]
    steps = build_measure(Uniform(-1.0, 1.0), 4)
    assert steps.mass_cuts().tolist() == steps.values.tolist()


@pytest.mark.parametrize("base, bound", [
    (Exponential(1.0).center(), 1.5),
    (Exponential(1.0), 3.0),
    (TruncatedNormal(0.3, 0.01, -5.0, 5.0), 4.0),
    (Beta(2.0, 5.0).center(), 0.1),
])
def test_truncated_mass_cuts_lie_inside_the_window(base, bound):
    """The base's cuts inside the window plus the truncated law's own
    breakpoints; off the origin atom a cell holds at most 1/64."""
    law = base.truncate(bound)
    cuts = law.mass_cuts()
    assert -bound <= cuts[0] and cuts[-1] <= bound
    assert (cuts[0], cuts[-1]) == law.support()
    own = base.mass_cuts()
    assert set(own[np.abs(own) <= bound].tolist()) | set(law.cdf_breakpoints()) == set(cuts.tolist())
    # the fold adds a few ulp to F
    assert np.max(_cell_masses(law, cuts)) <= 1.0 / 64.0 + 1e-14


# ------------------------------------------------ atoms and breakpoints


def _simple_laws():
    uniform = st.builds(lambda a, w: Uniform(a / 8.0, (a + w) / 8.0),
                        st.integers(-16, 16), st.integers(1, 24))
    discrete = st.lists(st.tuples(st.integers(-16, 16), st.integers(1, 8)),
                        min_size=1, max_size=4, unique_by=lambda a: a[0]).map(
        lambda atoms: Discrete([(x / 8.0, p / sum(q for _, q in atoms)) for x, p in atoms]))
    exponential = st.builds(Exponential, st.sampled_from([0.5, 1.0, 3.0]))
    return uniform | discrete | exponential


def _composite_laws(parts):
    def mixture(weighted):
        total = sum(w for w, _ in weighted)
        return Mixture([(w / total, d) for w, d in weighted])
    return (st.lists(st.tuples(st.integers(1, 4), parts), min_size=2, max_size=3).map(mixture)
            | parts.map(lambda d: d.center())
            | st.builds(lambda d, r: d.truncate(r / 8.0), parts, st.integers(2, 24))
            | st.builds(lambda d, s, o: AffineDistribution(d, s, o / 8.0),
                        parts, st.sampled_from([0.5, 1.5, 2.0]), st.integers(-8, 8)))


@settings(max_examples=60, deadline=None)
@given(st.recursive(_simple_laws(), _composite_laws, max_leaves=5))
# the shift by 0.25 rounds the breakpoints and cuts 0 and 1e-17 to one float
@example(AffineDistribution(Mixture([(0.5, Discrete([(0.0, 1.0)])),
                                     (0.5, Uniform(1e-17, 1.0))]), 1.0, 0.25))
def test_atoms_and_breakpoints_are_float_arrays_the_composites_keep(law):
    """Rows (location, mass), ascending and positive, each the jump of F at
    its location; atoms and finite support ends are breakpoints, and the
    breakpoints are ascending, distinct and among the mass cuts, which
    are ascending and distinct too."""
    atoms = law.atoms()
    assert isinstance(atoms, np.ndarray) and atoms.dtype == float
    assert atoms.ndim == 2 and atoms.shape[1] == 2
    locs, masses = atoms[:, 0], atoms[:, 1]
    # F counts an atom from 1e-12 (1 + |x|) away, so atoms closer than that
    # share their jumps; the schemes refuse such laws
    assume(np.all(np.diff(locs) > 1e-9 * (1.0 + np.abs(locs[1:]))))
    assert np.all(masses > 0.0)
    np.testing.assert_allclose(law.cdf(locs) - law.cdf_left(locs), masses, rtol=0.0, atol=1e-12)
    points = law.cdf_breakpoints()
    assert isinstance(points, np.ndarray) and points.dtype == float and points.ndim == 1
    assert np.all(np.diff(points) > 0.0)
    ends = np.array(law.support())
    assert set(locs.tolist()) | set(ends[np.isfinite(ends)].tolist()) <= set(points.tolist())
    cuts = law.mass_cuts()
    assert np.all(np.diff(cuts) > 0.0)
    assert set(points.tolist()) <= set(cuts.tolist())


def test_distribution_is_abstract():
    with pytest.raises(TypeError):
        Distribution()
