"""Two array rules of `mudk._quad`, checked across the package.

A scalar argument gives a Python float back (`apply`), and weighted sums
run in numpy's own loops (`row_sums`), so the Fourier GEMM of
`gross_map._centre_sums` is the one BLAS call of the package.
"""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mudk
from mudk.discretize import build_measure
from mudk.distributions import (AffineDistribution, Beta, Discrete, Exponential,
                                Mixture, TruncatedDistribution, TruncatedNormal,
                                Uniform)
from mudk.hilbert import hilbert_step_quantile

SRC = pathlib.Path(mudk.__file__).parent
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _blas_sites():
    """(module, function, line) of each `@`, dot-like call or einsum with an
    `optimize` argument (which may hand the sum to tensordot) under src/mudk."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # the innermost function around each node, by a walk from each def
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                hit = isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                hit = name in BLAS_CALLS or (
                    name == "einsum" and any(k.arg == "optimize" for k in node.keywords))
            else:
                hit = False
            if hit:
                sites.append((path.stem, owner.get(node), node.lineno))
    return sites


def test_the_fourier_gemm_is_the_only_blas_call():
    """Every `@`, np.dot, matmul, inner, vdot or tensordot under src/mudk
    lies in `gross_map._centre_sums`, and that function still has them."""
    sites = _blas_sites()
    assert [s for s in sites if s[:2] != ("gross_map", "_centre_sums")] == []
    assert sites, "gross_map._centre_sums no longer calls BLAS: drop its exemption"


def test_the_static_check_sees_each_form(tmp_path, monkeypatch):
    """The walk flags `@`, `@=`, a method or module dot call and an optimized
    einsum, and names the function around each."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "import numpy as np\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    return a @ b + a.dot(b) + np.tensordot(a, b) + np.einsum('i,i', a, b, optimize=True)\n"
        "def g(a, b):\n"
        "    return np.einsum('i,i', a, b) + a * b\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", pkg)
    assert [s[:2] for s in _blas_sites()] == [("m", "f")] * 5


LAWS = [Uniform(-1.0, 2.0), Exponential(1.5), Beta(2.0, 5.0),
        TruncatedNormal(0.0, 1.0, -2.0, 2.0), Discrete([(-1.0, 0.25), (0.5, 0.75)]),
        Mixture([(0.7, Uniform(-1.0, 1.0)), (0.3, Discrete([(0.25, 1.0)]))]),
        AffineDistribution(Beta(2.0, 5.0), 2.0, -0.5),
        TruncatedDistribution(Exponential(1.0).center(), 1.5)]


@pytest.mark.parametrize("law", LAWS, ids=lambda d: type(d).__name__)
def test_every_reading_of_a_law_gives_a_python_float(law):
    readings = [law.cdf, law.cdf_left, law.quantile] + ([law.pdf] if law.has_density else [])
    for read in readings:
        for arg in (0.25, np.float64(0.25), np.array(0.25), 1):
            if read == law.quantile and arg == 1:
                continue
            assert type(read(arg)) is float, (read.__name__, arg)


def test_every_reading_of_a_step_quantile_gives_a_python_float():
    """`eval`, `cdf`, `cdf_left` and the Hilbert transform: the c.d.f.s
    returned np.float64 for a scalar before they took the one rule."""
    sq = build_measure(Beta(2.0, 5.0), 50)
    for read in (sq.eval, sq.cdf, sq.cdf_left, lambda u: hilbert_step_quantile(sq, u)):
        for arg in (0.3, np.float64(0.3), np.array(0.3), 1):
            assert type(read(arg)) is float, arg
        out = read(np.full((2, 3), 0.3))
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)


def _openblas_kb():
    """Resident KB of this process's OpenBLAS mappings, from /proc/self/smaps."""
    kb, inside = 0, False
    with open("/proc/self/smaps") as f:
        for line in f:
            head = line.split(maxsplit=1)[0]
            if not head.endswith(":"):
                inside = "openblas" in line
            elif inside and head == "Rss:":
                kb += int(line.split()[1])
    return kb


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
def test_the_pipeline_commands_touch_no_openblas_page(tmp_path):
    """A fresh process that runs build, simulate, check and rates holds no
    more resident OpenBLAS pages than `import numpy` left: none of them
    calls BLAS."""
    law = '{"family": "beta", "alpha": 2, "beta": 5}'
    runs = [["build", "--dist", law, "--n", "200", "--points", "512", "--out", "b.csv"],
            ["simulate", "--dist", law, "--boundary", "b.csv", "--walks", "500", "--out", "s.csv"],
            ["check", "--dist", law, "--samples", "s.csv", "--out", "c.json"],
            ["rates", "--dist", law, "--n-list", "20,200", "--out", "r.csv"]]
    code = (inspect.getsource(_openblas_kb)
            + "import numpy\nbase = _openblas_kb()\nfrom mudk import cli\n"
            + f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            + "print(*codes, base, _openblas_kb())")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path).stdout.splitlines()[-1]
    *codes, base, after = map(int, out.split())
    assert codes == [0, 0, 0, 0]
    if not base:
        pytest.skip("numpy maps no OpenBLAS library here")
    assert after <= base
