"""Tests of the power series coefficients and disc evaluation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from mudk.cli import build_distribution
from mudk.discretize import StepQuantile, build_measure, l1_distance
from mudk.distributions import Beta, Discrete, Mixture, Uniform
from mudk.gross_map import (FourierCoefficients, _layout, evaluate_map,
                            fourier_coefficients, map_distance_bound)


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
    sq = build_measure(Uniform(-1.0, 1.0), 100)
    assert fourier_coefficients(sq).order == 800
    assert fourier_coefficients(build_measure(Uniform(-1.0, 1.0), 5)).order == 256


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


# K terms are summed as B = ceil(K/2R) runs of 2R terms around their
# centres, R = isqrt(ceil(K/2)), so 2R*R terms tile the layout exactly and
# 2R*R +- 1 sit on either side of that edge; 1599-1601 leave a short last
# run and 1009 is prime.
_R = 40
_EDGE = 2 * _R * _R
EDGE_TERMS = (1, 2, 3, 1599, 1600, 1601, _EDGE - 1, _EDGE, _EDGE + 1, 1009)
# At 2R*R terms a jump chunk holds m jumps, so that its operands of
# 2m (B + R + 1) cells fit one block; a uniform law on m + 2 cells has
# one jump more, so it takes two chunks.
_M = _layout(_EDGE)[2]
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


@pytest.mark.parametrize("sq", [
    build_measure(Uniform(-1.0, 1.0), 1), StepQuantile([0.0, 1.0], [0.0]),
], ids=["one-step", "constant-zero"])
@pytest.mark.parametrize("terms", (None, 1, _EDGE + 1))
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
