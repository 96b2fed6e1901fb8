"""Peak-memory ceilings of the map layer and the exit sampler.

tracemalloc peaks, beta(2,5) at n=2000: the blocked kernels hold a few
cache-sized buffers, so none of them may reach 4 MB.
"""

import tracemalloc

import pytest

from mudk.boundary import boundary_points
from mudk.discretize import build_measure
from mudk.distributions import Beta
from mudk.gross_map import fourier_coefficients
from mudk.verify_mc import simulate_exit

CEILING_MB = 4.0


@pytest.fixture(scope="module")
def beta_2000():
    return build_measure(Beta(2.0, 5.0), 2000)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_boundary_points_memory_is_bounded(beta_2000):
    assert _peak_mb(lambda: boundary_points(beta_2000, 8192)) < CEILING_MB


def test_fourier_coefficients_memory_is_bounded(beta_2000):
    assert _peak_mb(lambda: fourier_coefficients(beta_2000)) < CEILING_MB


def test_simulate_exit_memory_is_bounded():
    bp = boundary_points(build_measure(Beta(2.0, 5.0).center(), 2000), 2048)
    peak = _peak_mb(lambda: simulate_exit(bp, walks=4000, step=1e-4, seed=0))
    assert peak < CEILING_MB
