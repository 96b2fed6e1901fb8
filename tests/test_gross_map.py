"""Tests of the power series coefficients and disc evaluation."""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mudk.cli import build_distribution
from mudk.discretize import StepQuantile, build_measure, l1_distance
from mudk.distributions import (Beta, Discrete, Exponential, Mixture, TruncatedNormal,
                                Uniform)
from mudk.gross_map import (_MIN_TERMS, FourierCoefficients, _layout, evaluate_map,
                            fourier_coefficients, map_distance_bound, term_cap)


def strip_quantile():
    return build_measure(Discrete([(-1.0, 0.5), (1.0, 0.5)]), 2)


def test_strip_coefficients_are_arctan_series():
    """Two symmetric atoms generate -(4/pi) atan(z) term by term."""
    fc = fourier_coefficients(strip_quantile(), num_terms=9)
    k = np.arange(1, 10)
    expect = -4.0 * np.sin(np.pi * k / 2.0) / (np.pi * k)
    np.testing.assert_allclose(fc.coeffs, expect, atol=1e-15)
    # spot values: a_1 = -4/pi, a_2 = 0, a_3 = +4/(3 pi)
    assert fc.coeffs[0] == pytest.approx(-4.0 / np.pi, rel=1e-14)
    assert fc.coeffs[1] == pytest.approx(0.0, abs=1e-15)
    assert fc.coeffs[2] == pytest.approx(4.0 / (3.0 * np.pi), rel=1e-14)


def test_strip_map_matches_arctan_on_disc():
    fc = fourier_coefficients(strip_quantile(), num_terms=512)
    z = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 17))
    got = evaluate_map(fc, z)
    np.testing.assert_allclose(got, -(4.0 / np.pi) * np.arctan(z), atol=1e-6)


def test_default_term_count():
    """The shortest prefix from 256 terms whose tail is within twice the
    staircase energy: 256 of uniform n=100's 800-term cap, 256 at n=5 and
    2413 of beta(2,5) n=2000's 15992."""
    sq = build_measure(Uniform(-1.0, 1.0), 100)
    assert term_cap(sq) == 800 and fourier_coefficients(sq).order == 256
    assert fourier_coefficients(build_measure(Uniform(-1.0, 1.0), 5)).order == 256
    sq = build_measure(Beta(2.0, 5.0), 2000)
    assert term_cap(sq) == 15992 and fourier_coefficients(sq).order == 2413


def test_coefficient_magnitude_bound():
    for n in (3, 17, 60):
        sq = build_measure(Uniform(-1.0, 1.0), n)
        fc = fourier_coefficients(sq)
        assert np.all(np.abs(fc.coeffs) <= 2.0 * sq.l1_norm() + 1e-12)


def test_uniform_first_coefficient_near_limit():
    sq = build_measure(Uniform(-1.0, 1.0), 200)
    fc = fourier_coefficients(sq)
    assert fc.coeffs[0] == pytest.approx(-8.0 / np.pi ** 2, abs=1e-4)
    assert np.all(np.abs(fc.coeffs[1::2]) < 1e-12)  # even indices vanish


def test_evaluate_map_scalar_and_validation():
    fc = fourier_coefficients(strip_quantile(), num_terms=64)
    val = evaluate_map(fc, 0.25j)
    assert isinstance(val, complex)
    assert evaluate_map(fc, 0.0) == 0.0  # the origin is fixed
    with pytest.raises(ValueError):
        evaluate_map(fc, 1.0)
    with pytest.raises(ValueError):
        evaluate_map(fc, np.array([0.1, 0.999999999999]))


def test_map_distance_bound_formula():
    assert map_distance_bound(0.1, 0.5) == pytest.approx(0.2)
    assert map_distance_bound(0.0, 0.9) == 0.0
    with pytest.raises(ValueError):
        map_distance_bound(0.1, 1.0)
    with pytest.raises(ValueError):
        map_distance_bound(-0.1, 0.5)


def test_map_distance_bound_refuses_a_nan_gap():
    with pytest.raises(ValueError):
        map_distance_bound(float("nan"), 0.5)


def test_pairwise_map_gap_respects_l1_bound():
    d = Uniform(-1.0, 1.0)
    z = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64.0)
    quantiles = {n: build_measure(d, n) for n in (5, 15, 30)}
    maps = {n: evaluate_map(fourier_coefficients(sq), z)
            for n, sq in quantiles.items()}
    for n in quantiles:
        for m in quantiles:
            gap = np.max(np.abs(maps[n] - maps[m]))
            bound = map_distance_bound(
                l1_distance(quantiles[n], quantiles[m]), 0.5)
            assert gap <= bound + 1e-12


def test_map_gap_bound_holds_past_the_total_mass():
    """Both step quantiles are -1 on (0, 0.5] and 1 on (0.5, 1]: one map."""
    s1 = StepQuantile([0.0, 0.5, 0.8], [-1.0, 1.0])
    s2 = StepQuantile([0.0, 0.5, 0.9], [-1.0, 1.0])
    z = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64.0)
    gap = np.max(np.abs(evaluate_map(fourier_coefficients(s1), z)
                        - evaluate_map(fourier_coefficients(s2), z)))
    assert gap <= map_distance_bound(l1_distance(s1, s2), 0.5) + 1e-12


def test_pdf_map_past_level_one_matches_midpoint_cosine_sum():
    """Mass 1.44: a_k = 2 int_0^1 q_n(min(u, s_m)) cos(k pi u) du, levels past 1 unread."""
    dist = build_distribution({"family": "exponential", "rate": 1, "truncate": 3})
    sq = build_measure(dist, 5, scheme="pdf")
    assert sq.total_mass > 1.4
    m = 2 ** 18
    u = (np.arange(m) + 0.5) / m
    q = sq.values[np.searchsorted(sq.breakpoints, np.minimum(u, sq.total_mass)) - 1]
    terms = 64
    ref = [2.0 * np.mean(q * np.cos(k * np.pi * u)) for k in range(1, terms + 1)]
    got = fourier_coefficients(sq, num_terms=terms).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-5


def test_coefficients_validate_inputs():
    with pytest.raises(ValueError):
        FourierCoefficients(np.array([]), 1.0)
    with pytest.raises(ValueError):
        FourierCoefficients(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError):
        FourierCoefficients(np.array([5.0]), 1.0)  # exceeds 2 * norm
    with pytest.raises(ValueError):
        fourier_coefficients(strip_quantile(), num_terms=0)


def test_coefficient_bound_refuses_a_nan_norm():
    """|a_k| <= 2 ||q||_1 cannot be checked against a NaN norm, so it fails."""
    with pytest.raises(ValueError):
        FourierCoefficients([0.1, 0.2], source_l1_norm=float("nan"))


def _dense_coefficients(sq, num_terms):
    """Reference: sine differences over the (terms x breakpoints) matrix.

    The breakpoints are read at min(s, 1), with the last one at 1.  Built
    1024 rows of k at a time, so the n=2000 case stays small.
    """
    levels = np.minimum(sq.breakpoints, 1.0)
    levels[-1] = 1.0
    out = np.empty(num_terms)
    for i in range(0, num_terms, 1024):
        k = np.arange(i + 1, min(i + 1024, num_terms) + 1)
        sines = np.sin(np.pi * np.outer(k, levels))
        out[i:i + k.size] = (np.diff(sines, axis=1) @ sq.values) * (2.0 / (np.pi * k))
    return out


def _oracle_gap(sq, terms):
    """Largest |a_k - oracle| relative to the largest |oracle a_k|."""
    ref = _dense_coefficients(sq, terms)
    got = fourier_coefficients(sq, num_terms=terms).coeffs
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# The pass sums k over the ranges (0, 256], (256, 512], (512, 1024], ...,
# each whole in runs of 2R around the centres lo, lo + 2R, ... (R = 11 for
# the first two), and cuts the last range it sums.  1-3 and 11-12 sit in
# the first range's runs about k0 = 0 and k0 = 22, 255-257 and 511-513 on
# either side of a range edge, and 1009 (prime), 1599-1601 and 3199-3201
# cut the ranges (512, 1024], (1024, 2048] and (2048, 4096] inside.
_EDGE = 2048        # a range edge, straddled with 2 * _EDGE + 1 below
EDGE_TERMS = (1, 2, 3, 11, 12, 255, 256, 257, 511, 512, 513, 1009,
              1599, 1600, 1601, 3199, 3200, 3201)
# A jump chunk holds m jumps, so that its operands of 2m (B + R + 1) cells
# fit one block; m is largest in the first range, so a uniform law on
# m + 2 cells has one jump more than every range's chunk and takes two.
_M = _layout(_MIN_TERMS)[2]
BEYOND_CHUNK = _M + 2

LAWS = {
    "uniform": build_measure(Uniform(-1.0, 1.0), 200),
    "beta-pdf": build_measure(Beta(2.0, 5.0).center(), 300, scheme="pdf"),
    "atom": build_measure(Mixture([(0.5, Uniform(-1.0, 1.0)),
                                   (0.5, Discrete([(0.0, 1.0)]))]), 150),
}


@pytest.mark.parametrize("sq", LAWS.values(), ids=LAWS.keys())
def test_blocked_coefficients_match_dense_oracle(sq):
    for terms in (_EDGE - 1, _EDGE, _EDGE + 1, 2 * _EDGE + 1):
        assert _oracle_gap(sq, terms) <= 1e-13


@pytest.mark.parametrize("terms", EDGE_TERMS)
@pytest.mark.parametrize("sq", [
    *LAWS.values(), build_measure(Uniform(-1.0, 1.0), BEYOND_CHUNK),
], ids=[*LAWS.keys(), "two-chunks"])
def test_angle_addition_matches_dense_oracle(sq, terms):
    assert _oracle_gap(sq, terms) <= 1e-14


def test_default_terms_match_dense_oracle_at_n2000():
    sq = build_measure(Beta(2.0, 5.0), 2000)
    assert _oracle_gap(sq, fourier_coefficients(sq).order) <= 1e-14


def test_capped_pass_matches_dense_oracle_at_n2000():
    """All 15992 terms of the cap, of which the default keeps 2413."""
    sq = build_measure(Beta(2.0, 5.0), 2000)
    assert _oracle_gap(sq, 8 * sq.num_steps) <= 1e-14


@pytest.mark.parametrize("sq", [
    build_measure(Uniform(-1.0, 1.0), 1), StepQuantile([0.0, 1.0], [0.0]),
], ids=["one-step", "constant-zero"])
@pytest.mark.parametrize("terms", (None, 1, 3201))
def test_quantile_without_jumps_has_zero_coefficients(sq, terms):
    assert sq.jumps()[0].size == 0
    fc = fourier_coefficients(sq, num_terms=terms)
    assert fc.order == (terms or 256)
    assert not np.any(fc.coeffs)


def _beta_map():
    return fourier_coefficients(build_measure(Beta(2.0, 5.0).center(), 200))


def test_evaluate_map_matches_numpy_polynomial_bit_for_bit():
    from numpy.polynomial import polynomial
    fc = _beta_map()
    rng = np.random.default_rng(5)
    z = 0.97 * np.sqrt(rng.random(5000)) * np.exp(2j * np.pi * rng.random(5000))
    ref = polynomial.polyval(z, np.concatenate(([0.0], fc.coeffs)))
    np.testing.assert_array_equal(evaluate_map(fc, z), ref)
    assert evaluate_map(fc, complex(z[0])) == ref[0]


def test_evaluate_map_loads_no_numpy_polynomial():
    code = """
import sys
from mudk.discretize import build_measure
from mudk.distributions import Beta
from mudk.gross_map import evaluate_map, fourier_coefficients
fc = fourier_coefficients(build_measure(Beta(2.0, 5.0).center(), 200))
evaluate_map(fc, [0.5, 0.25j])
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "polynomial"]))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


# ------------------------------------------------- the default term count

REFERENCE_LAWS = {
    "uniform": Uniform(-1.0, 1.0),
    "beta": Beta(2.0, 5.0).center(),
    "truncated_normal": TruncatedNormal(0.0, 1.0, -2.0, 2.0),
    "truncated_exponential": Exponential(1.0).center().truncate(3.0),
    "mixture": Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))]),
}
REFERENCE_CASES = [(law, n) for law in REFERENCE_LAWS for n in (200, 2000)]


@functools.cache
def reference_quantile(law, n):
    return build_measure(REFERENCE_LAWS[law], n)


def _parseval_total(sq):
    """sum_{k >= 1} a_k^2 in closed form over the jumps (s_j, c_j): with
    t_j = pi s_j, a_k = -(2/(k pi)) sum_j c_j sin(k t_j), 2 sin x sin y =
    cos(x - y) - cos(x + y) and sum_k cos(k x)/k^2 = pi^2/6 - pi x/2 + x^2/4
    on [0, 2 pi]."""
    s, c = sq.jumps()
    t = np.pi * s

    def cosine_sum(x):
        return np.pi ** 2 / 6.0 - np.pi * x / 2.0 + x * x / 4.0

    cells = np.outer(c, c) * (cosine_sum(np.abs(t[:, None] - t)) - cosine_sum(t[:, None] + t))
    return 2.0 / np.pi ** 2 * math.fsum(cells.ravel())


PARSEVAL_CASES = {
    **{law: build_measure(d, 50) for law, d in REFERENCE_LAWS.items()},
    # masses 0.994 and 1.44: the last value holds past s_m, levels past 1 are unread
    "beta-pdf": build_measure(Beta(2.0, 5.0).center(), 20, scheme="pdf"),
    "exponential-pdf": build_measure(
        build_distribution({"family": "exponential", "rate": 1, "truncate": 3}), 5,
        scheme="pdf"),
    "no-jumps": build_measure(Uniform(-1.0, 1.0), 1),
}


@pytest.mark.parametrize("sq", PARSEVAL_CASES.values(), ids=PARSEVAL_CASES.keys())
def test_total_is_the_parseval_sum(sq):
    """T_0 = 2 var q_n is sum_k a_k^2: the 400 * steps terms of the pass plus
    the exact rest, the closed form less the dense oracle's terms.  The
    oracle reads sin(k pi) at the last level as about 1e-16, not 0, hence
    the absolute 1e-24 where there are no jumps."""
    fc = fourier_coefficients(sq)
    terms = 400 * sq.num_steps
    head = fourier_coefficients(sq, num_terms=terms)
    rest = _parseval_total(sq) - math.fsum(_dense_coefficients(sq, terms) ** 2)
    tol = 1e-12 * fc.total + 1e-24
    assert head.total == fc.total
    assert abs(math.fsum(head.coeffs ** 2) + rest - fc.total) <= tol
    assert abs(head.tail - rest) <= tol
    if not sq.jumps()[0].size:
        assert fc.total == fc.tail == 0.0 and fc.order == 256


@pytest.mark.parametrize("law, n", REFERENCE_CASES)
def test_default_is_the_shortest_prefix_within_twice_the_staircase(law, n):
    """T_K <= 2E, and T_{K-1} > 2E unless K is the floor of 256; T_K is read
    off the capped pass's partial sums, as the rule reads it."""
    sq = reference_quantile(law, n)
    fc = fourier_coefficients(sq)
    full = fourier_coefficients(sq, num_terms=term_cap(sq))
    tails = full.total - np.cumsum(np.square(full.coeffs))
    K = fc.order
    assert 256 <= K <= term_cap(sq)
    assert fc.tail == max(tails[K - 1], 0.0) <= 2.0 * fc.staircase
    assert K == 256 or tails[K - 2] > 2.0 * fc.staircase


def test_default_keeps_the_cap_when_its_tail_stays_above_twice_the_staircase():
    """One wide step, then 40 steps within the last 1e-6 of the levels: E is
    about 3e-7, and T_K keeps nearly all of T_0 (about 1e-3) up to K_max."""
    levels = np.concatenate(([0.0], 1.0 - 1e-6 * np.arange(40, -1, -1) / 40.0))
    sq = StepQuantile(levels, np.arange(41.0))
    fc = fourier_coefficients(sq)
    assert term_cap(sq) == 328 and fc.order == 328
    assert fc.tail > 2.0 * fc.staircase


@pytest.mark.parametrize("law, n", REFERENCE_CASES)
def test_default_coefficients_are_a_prefix_of_the_capped_pass(law, n):
    sq = reference_quantile(law, n)
    fc = fourier_coefficients(sq)
    full = fourier_coefficients(sq, num_terms=term_cap(sq))
    np.testing.assert_array_equal(fc.coeffs, full.coeffs[:fc.order])
    assert fc.coeffs.flags.owndata and not fc.coeffs.flags.writeable


@pytest.mark.parametrize("law, n", REFERENCE_CASES)
def test_fewer_terms_are_a_bit_prefix_of_more(law, n):
    """The ranges of k are fixed and each is summed whole, so N terms are the
    first N of any M > N, bit for bit, on either side of the range edges and
    up to the cap."""
    sq = reference_quantile(law, n)
    cap = term_cap(sq)
    counts = (1, 255, 256, 257, 511, 512, 513, cap - 1, cap)
    coeffs = {N: fourier_coefficients(sq, num_terms=N).coeffs for N in counts}
    for N in counts:
        for M in counts:
            if N < M:
                np.testing.assert_array_equal(coeffs[N], coeffs[M][:N])


@pytest.mark.parametrize("law, n", REFERENCE_CASES)
def test_tail_bound_holds_against_the_capped_series(law, n):
    """sup_{|z| = r} |f_{K_max} - f_K| <= sqrt(T_K) r^(K+1) / sqrt(1 - r^2),
    which is at most sqrt(2E) r^(K+1) / sqrt(1 - r^2)."""
    sq = reference_quantile(law, n)
    fc = fourier_coefficients(sq)
    full = fourier_coefficients(sq, num_terms=term_cap(sq))
    dropped = np.array(full.coeffs)
    dropped[:fc.order] = 0.0
    dropped = FourierCoefficients(dropped, full.source_l1_norm)
    for r in (0.5, 0.9, 0.99):
        z = r * np.exp(2j * np.pi * np.arange(1024) / 1024.0)
        bound = fc.tail_bound(r)
        assert np.max(np.abs(evaluate_map(dropped, z))) <= bound
        assert bound <= (math.sqrt(2.0 * fc.staircase) * r ** (fc.order + 1)
                         / math.sqrt(1.0 - r * r))
    with pytest.raises(ValueError):
        fc.tail_bound(1.0)


def test_tail_bound_is_tight_to_its_factor_for_one_dropped_term():
    """Four terms kept and a_5 = 0.3 dropped, so T_4 = 0.09: the dropped term
    reaches 0.3 r^5 on |z| = r, and the bound exceeds that by 1/sqrt(1 - r^2)."""
    kept = FourierCoefficients(np.full(4, 0.1), 1.0, tail=0.09)
    for r in (0.5, 0.9, 0.99):
        gap = 0.3 * r ** 5
        assert gap <= kept.tail_bound(r)
        assert kept.tail_bound(r) * math.sqrt(1.0 - r * r) == pytest.approx(gap, rel=1e-12)


@pytest.mark.parametrize("law, n", REFERENCE_CASES)
def test_staircase_energy_is_the_squared_l2_gap_to_the_law(law, n):
    """E against ||q - q_n||_2^2 by the midpoint rule on 50 levels per cell."""
    sq = reference_quantile(law, n)
    u = (np.arange(50 * n) + 0.5) / (50 * n)
    gap = np.mean((REFERENCE_LAWS[law].quantile(u) - sq.eval(u)) ** 2)
    assert fourier_coefficients(sq).staircase == pytest.approx(gap, rel=0.02)
