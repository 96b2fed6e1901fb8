"""Tests of the power series coefficients and disc evaluation."""

import numpy as np
import pytest

from mudk.discretize import build_measure, step_l1_distance
from mudk.distributions import Beta, Discrete, Mixture, Uniform
from mudk.gross_map import (FourierCoefficients, evaluate_map,
                            fourier_coefficients, map_distance_bound)
from mudk.hilbert import _BLOCK_CELLS, pole_levels


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
                step_l1_distance(quantiles[n], quantiles[m]), 0.5)
            assert gap <= bound + 1e-12


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
    """Reference: sine differences over the whole (terms x breakpoints) matrix."""
    k = np.arange(1, num_terms + 1)
    sines = np.sin(np.pi * np.outer(k, sq.breakpoints))
    return (np.diff(sines, axis=1) @ sq.values) * (2.0 / (np.pi * k))


@pytest.mark.parametrize("sq", [
    build_measure(Uniform(-1.0, 1.0), 200),
    build_measure(Beta(2.0, 5.0).center(), 300, scheme="pdf"),
    build_measure(Mixture([(0.5, Uniform(-1.0, 1.0)),
                           (0.5, Discrete([(0.0, 1.0)]))]), 150),
], ids=["uniform", "beta-pdf", "atom"])
def test_blocked_coefficients_match_dense_oracle(sq):
    rows = _BLOCK_CELLS // pole_levels(sq).size
    for terms in (rows - 1, rows, rows + 1, 2 * rows + 1):
        ref = _dense_coefficients(sq, terms)
        got = fourier_coefficients(sq, num_terms=terms).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
