"""Peak-memory ceilings of the map layer, the exit sampler, the file layer
and the L1 layer.

tracemalloc peaks, beta(2,5) at n=2000 unless stated: the blocked kernels
keep the temporaries of one loop step within one 256 KB block, so their
peaks sit just above their O(input) arrays.  The file layer
streams: a read holds the float array, not one object per row, and a
write holds one chunk of text, not the whole file.  The L1 gap calls
its integrand on one block of quadrature cells at a time, so the
integrand's temporaries do not grow with the number of cells.
"""

import tracemalloc

import pytest

from mudk import cli
from mudk.boundary import boundary_points, export_csv, export_svg, load_csv
from mudk.discretize import build_measure, l1_distance
from mudk.distributions import Beta, TruncatedNormal
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
    """0.81 MB: the polyline keeps the 2 x 8192 rows it is built from and
    validates them without row-sized temporaries.  A validated copy of the
    rows took 0.94 MB, and the near-pole column ranges of the Hilbert
    kernel's row blocks, before its per-point pass, 0.86 MB."""
    assert _peak_mb(lambda: boundary_points(beta_2000, 8192)) < 0.9


def test_boundary_points_memory_is_bounded_at_n20000():
    """1.68 MB at n=20000 and 8192 points.  The ceiling keeps the n=2000
    test's margin, 0.9 / 0.86 of the peak: 1.68 * 0.9 / 0.86 = 1.76 MB."""
    sq = build_measure(Beta(2.0, 5.0), 20000)
    assert _peak_mb(lambda: boundary_points(sq, 8192)) < 1.76


def test_fourier_coefficients_memory_is_bounded(beta_2000):
    """0.50 MB: the pass sums the k ranges up to 4096 and keeps 2413 terms.
    The whole 15992-term pass to the cap read 0.53 MB, and two GEMMs per
    jump chunk, each with its own operand and product temporaries, 1.39 MB."""
    assert _peak_mb(lambda: fourier_coefficients(beta_2000)) < 0.6


def test_fourier_coefficients_memory_is_bounded_at_n20000():
    """2.35 MB: the pass sums the k ranges up to 65536 and keeps 59371 terms.
    The whole 159856-term pass to the cap read 2.9 MB, and the two-GEMM
    layout 5.7 MB.  Each range's partial sums of a_k^2 go in place into a
    buffer the range already has: a squared copy and its cumulative sum of
    the whole pass read 3.81 MB."""
    sq = build_measure(Beta(2.0, 5.0), 20000)
    assert _peak_mb(lambda: fourier_coefficients(sq)) < 3.1


def _simulate_peak_mb(n):
    bp = boundary_points(build_measure(Beta(2.0, 5.0).center(), n), 2048)
    return _peak_mb(lambda: simulate_exit(bp, walks=4000, step=1e-4, seed=0))


def test_simulate_exit_memory_is_bounded():
    """0.53 MB at 4000 walks: the nearest-tooth search takes blocks of walks
    and gathers their candidates in chunks under the memory rule.  Chunks
    of 2**15 candidates, past the rule, read 1.8 MB, and one gather of all
    the candidates of a sweep 33 MB."""
    assert _simulate_peak_mb(2000) < 1.0


def test_simulate_exit_memory_is_bounded_at_n20000():
    """0.53 MB, as at n=2000: the chunks do not grow with the walls (one
    gather of all the candidates of a sweep read 54 MB)."""
    assert _simulate_peak_mb(20000) < 1.0


def test_load_csv_memory_is_bounded(beta_2000, tmp_path):
    """2 x 8192 rows are 0.4 MB of floats; a list of rows took 3.5 MB."""
    path = tmp_path / "b.csv"
    export_csv(boundary_points(beta_2000, 8192), path)
    assert _peak_mb(lambda: load_csv(path)) < 1.5


def test_load_csv_keeps_the_rows_it_reads(beta_2000, tmp_path):
    """0.47 MB: the polyline keeps the one array the rows are read into.
    A reshaped view of it, copied by the polyline, took 0.81 MB."""
    path = tmp_path / "b.csv"
    export_csv(boundary_points(beta_2000, 8192), path)
    assert _peak_mb(lambda: load_csv(path)) < 0.55
    points = load_csv(path).points
    assert points.flags.owndata and not points.flags.writeable


def test_export_svg_memory_is_bounded(beta_2000, tmp_path):
    """The path at 2 x 8192 vertices is 0.4 MB of text, written in chunks."""
    bp = boundary_points(beta_2000, 8192)
    assert _peak_mb(lambda: export_svg(bp, tmp_path / "d.svg")) < 1.0


def test_build_command_memory_is_bounded(tmp_path):
    """`mudk build --svg` at 8192 points: 0.91 MB after a warm-up call.
    Copying the rows into every `BoundaryPolyline` took 1.19 MB."""
    def argv(points, name):
        return ["build", "--dist", '{"family": "beta", "alpha": 2, "beta": 5}',
                "--n", "2000", "--points", str(points),
                "--out", str(tmp_path / f"{name}.csv"),
                "--svg", str(tmp_path / f"{name}.svg")]
    # the first command of a process also builds the parser
    assert cli.main(argv(16, "warm")) == 0
    assert _peak_mb(lambda: cli.main(argv(8192, "b"))) < 1.0


def test_map_command_memory_is_bounded(tmp_path):
    """`mudk map` at n=2000 writes its 2413 coefficient rows (of a pass over
    k <= 4096) as it formats them."""
    argv = ["map", "--dist", '{"family": "beta", "alpha": 2, "beta": 5}',
            "--n", "2000", "--out", str(tmp_path / "m.csv")]
    assert _peak_mb(lambda: cli.main(argv)) < 2.5


def test_rates_command_memory_is_bounded(tmp_path):
    """`mudk rates` at n=200,2000 held every quadrature node at once: 4.2 MB."""
    argv = ["rates", "--dist", '{"family": "beta", "alpha": 2, "beta": 5}',
            "--n-list", "200,2000", "--out", str(tmp_path / "r.csv")]
    assert _peak_mb(lambda: cli.main(argv)) < 1.5


def test_l1_distance_memory_is_bounded():
    """At n=20000 the one-shot integrand's temporaries took 65 MB."""
    law = TruncatedNormal(0.0, 1.0, -2.0, 2.0)
    sq = build_measure(law, 20000)
    assert _peak_mb(lambda: l1_distance(law, sq)) < CEILING_MB
