"""Top-level acceptance checks, one test per numbered criterion.

Each test prints one scoreboard line (ACCEPTANCE k (<name>): PASS/FAIL)
directly to the terminal, bypassing pytest's capture, so a full run
always shows the per-criterion verdicts.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from mudk.boundary import boundary_points, export_svg, scale_domain, svg_point_count
from mudk.discretize import build_measure, l1_distance, rate_bound
from mudk.distributions import Beta, Discrete, Exponential, Mixture, Uniform
from mudk.gross_map import evaluate_map, fourier_coefficients, map_distance_bound
from mudk.hilbert import hilbert_indicator, hilbert_pv_oracle
from mudk.verify_mc import ks_distance, point_in_domain, simulate_exit

NS = (5, 15, 30, 200)


@contextmanager
def scoreboard(capsys, index, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {index} ({name}): FAIL "
                  f"[{time.perf_counter() - start:.2f}s]")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {index} ({name}): PASS "
              f"[{time.perf_counter() - start:.2f}s]")


def test_criterion_01_uniform_rate(capsys):
    with scoreboard(capsys, 1, "uniform rate 1/n"):
        d = Uniform(-1.0, 1.0)
        for n in NS:
            l1 = l1_distance(d, build_measure(d, n))
            assert abs(l1 - 1.0 / n) <= 1e-8
            assert l1 <= 2.0 / n


def test_criterion_02_atom_rate_decay(capsys):
    with scoreboard(capsys, 2, "atom correction decay"):
        d = Mixture([(0.5, Uniform(-1.0, 1.0)), (0.5, Discrete([(0.0, 1.0)]))])
        last = np.inf
        for n in (10, 100, 1000):
            rb = rate_bound(d, n)
            assert 0.0 < rb.varpi < last
            last = rb.varpi
            l1 = l1_distance(d, build_measure(d, n))
            assert l1 <= rb.bound + 1e-12
            assert rb.refined_bound is not None
            assert l1 <= rb.refined_bound + 1e-12


def test_criterion_03_hilbert_closed_form(capsys):
    with scoreboard(capsys, 3, "closed form vs PV oracle"):
        def band(x, a, b):
            r = np.abs(np.mod(np.asarray(x, float) + np.pi, 2 * np.pi) - np.pi)
            return ((a < r) & (r < b)).astype(float)

        def wrap_gap(u, pole):
            return np.abs(np.mod(u - pole + np.pi, 2 * np.pi) - np.pi)

        rng = np.random.default_rng(202)
        worst = 0.0
        checked = 0
        while checked < 100:
            a, b = np.sort(rng.uniform(0.05, np.pi - 0.05, size=2))
            u = rng.uniform(-np.pi, np.pi)
            if b - a < 0.05:
                continue
            if min(wrap_gap(u, p) for p in (a, -a, b, -b)) < 1e-2:
                continue
            pv = hilbert_pv_oracle(lambda x: band(x, a, b), u,
                                   jumps=(-b, -a, a, b))
            worst = max(worst, abs(hilbert_indicator(a, b, u) - pv))
            checked += 1
        assert worst < 1e-5


def test_criterion_04_fourier_limit(capsys):
    with scoreboard(capsys, 4, "leading Fourier coefficient"):
        fc = fourier_coefficients(build_measure(Uniform(-1.0, 1.0), 200))
        assert abs(fc.coeffs[0] - (-8.0 / np.pi ** 2)) < 0.02
        even = fc.coeffs[1::2]
        assert np.max(np.abs(even)) < 1e-3


def test_criterion_05_map_distance_bound(capsys):
    with scoreboard(capsys, 5, "map gap vs L1 bound"):
        d = Uniform(-1.0, 1.0)
        sqs = {n: build_measure(d, n) for n in NS}
        fcs = {n: fourier_coefficients(sq) for n, sq in sqs.items()}
        z = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        for i, n in enumerate(NS):
            for m in NS[i + 1:]:
                gap = np.max(np.abs(evaluate_map(fcs[n], z)
                                    - evaluate_map(fcs[m], z)))
                bound = map_distance_bound(l1_distance(sqs[n], sqs[m]), 0.5)
                assert bound == pytest.approx(
                    2.0 * l1_distance(sqs[n], sqs[m]))
                assert gap <= bound + 1e-12


def test_criterion_06_domain_scaling(capsys):
    with scoreboard(capsys, 6, "domain scaling"):
        for n in (5, 30):
            small = boundary_points(build_measure(Uniform(-1.0, 1.0), n), 512)
            big = boundary_points(build_measure(Uniform(-2.0, 2.0), n), 512)
            scaled = scale_domain(small, 2.0, 0.0)
            assert np.max(np.abs(scaled.points - big.points)) <= 1e-9


def test_criterion_07_strip_property(capsys):
    with scoreboard(capsys, 7, "gap strip"):
        two_piece = Mixture([(0.5, Uniform(-2.0, -1.0)),
                             (0.5, Uniform(1.0, 2.0))])
        bp = boundary_points(build_measure(two_piece, 200), 2048)
        assert not np.any((bp.x > -0.98) & (bp.x < 0.98))
        assert point_in_domain(bp, (0.0, 10.0 * np.abs(bp.y).max()))


def test_criterion_08_monte_carlo_embedding(capsys):
    with scoreboard(capsys, 8, "Monte Carlo embedding"):
        start = time.perf_counter()
        for seed, dist in ((0, Uniform(-1.0, 1.0)), (1, Beta(2.0, 5.0).center())):
            bp = boundary_points(build_measure(dist, 200), 2048)
            res = simulate_exit(bp, walks=10_000, step=1e-4, seed=seed)
            assert ks_distance(res.samples, dist) < 0.05
            assert abs(res.samples.mean()) < 0.03
        assert time.perf_counter() - start < 120.0


def test_criterion_09_truncation_convergence(capsys):
    with scoreboard(capsys, 9, "truncation convergence"):
        base = Exponential(1.0)
        u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        last = np.inf
        for r in (2.0, 4.0, 8.0):
            trunc = base.truncate(r)
            lump = np.exp(-r)
            expect = np.where(u <= lump, 0.0, -np.log1p(-(u - lump)))
            np.testing.assert_allclose(trunc.quantile(u), expect, atol=1e-12)
            gap = l1_distance(trunc, base)
            assert gap == pytest.approx(np.exp(-r) * (1.0 + r), rel=1e-5)
            assert gap < last
            last = gap


def test_criterion_10_quantile_limit(capsys):
    with scoreboard(capsys, 10, "min-of-uniforms limit"):
        n = 10_000
        u = np.arange(1, 10) / 10.0
        approx = n * (1.0 - (1.0 - u) ** (1.0 / n))
        exact = Exponential(1.0).quantile(u)
        assert np.max(np.abs(approx - exact)) < 1e-3


def test_figure_series_svg(capsys, tmp_path):
    with scoreboard(capsys, "S", "SVG series n=5,15,30,200"):
        for n in NS:
            bp = boundary_points(build_measure(Uniform(-1.0, 1.0), n), 2048)
            path = tmp_path / f"uniform_{n}.svg"
            export_svg(bp, path)
            assert svg_point_count(path) == 4096
