"""End-to-end tests of the mudk command line interface."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mudk.boundary import svg_point_count
from mudk.cli import (ConfigError, RunConfig, build_distribution,
                      load_samples_csv, main)
from mudk.discretize import UnboundedSupportError

UNIFORM = '{"family": "uniform", "a": -1, "b": 1}'
HEADER_RE = re.compile(r"^# mu-domain-kit v0\.1\.0, config hash [0-9a-f]{12}$")


def run(*argv):
    return main(list(argv))


# ------------------------------------------------------------------- build

def test_build_writes_versioned_csv(tmp_path):
    out = tmp_path / "b.csv"
    rc = run("build", "--dist", UNIFORM, "--n", "5", "--points", "64",
             "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2 * 64
    assert HEADER_RE.match(lines[0])
    assert lines[1] == "t,x,y"


def test_build_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("build", "--dist", UNIFORM, "--n", "15", "--points", "128",
            "--seed", "5")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_svg_output(tmp_path):
    out, svg = tmp_path / "b.csv", tmp_path / "b.svg"
    rc = run("build", "--dist", UNIFORM, "--n", "5", "--points", "64",
             "--out", str(out), "--svg", str(svg))
    assert rc == 0
    assert svg_point_count(svg) == 128


def test_dist_file_matches_inline(tmp_path):
    dist_file = tmp_path / "dist.json"
    dist_file.write_text(UNIFORM + "\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("build", "--dist", UNIFORM, "--n", "5", "--points", "32",
               "--out", str(a)) == 0
    assert run("build", "--dist", str(dist_file), "--n", "5", "--points", "32",
               "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("build", "--dist", UNIFORM, "--n", "4", "--points", "16") == 0
    assert (tmp_path / "boundary.csv").exists()


# ------------------------------------------------------------------- rates

def test_rates_uniform_row_is_exact(tmp_path):
    out = tmp_path / "r.csv"
    rc = run("rates", "--dist", UNIFORM, "--n", "10", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,l1,bound,varpi"
    assert lines[2] == "10,0.1,0.2,0.0"


def test_rates_n_list(tmp_path):
    out = tmp_path / "r.csv"
    rc = run("rates", "--dist", UNIFORM, "--n-list", "10,100,1000",
             "--out", str(out))
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == ["10", "100", "1000"]
    l1 = [float(r[1]) for r in rows]
    assert l1 == sorted(l1, reverse=True)
    assert all(e <= b for e, b in zip(l1, (float(r[2]) for r in rows)))


# --------------------------------------------------------------------- map

def test_map_exports_indexed_coefficients(tmp_path):
    out = tmp_path / "m.csv"
    rc = run("map", "--dist", UNIFORM, "--n", "10", "--coeffs", "32",
             "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,a_k"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == [str(k) for k in range(1, 33)]
    assert float(rows[0][1]) < -0.5  # leading coefficient near -8/pi^2


# ------------------------------------------------------- simulate and check

def test_simulate_check_round_trip(tmp_path, capsys):
    boundary = tmp_path / "b.csv"
    samples = tmp_path / "s.csv"
    assert run("build", "--dist", UNIFORM, "--n", "15", "--points", "256",
               "--out", str(boundary)) == 0
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "200", "--step", "1e-3", "--seed", "2",
             "--out", str(samples))
    assert rc == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert set(summary) == {"walks", "truncated", "ks", "mean", "std",
                            "seed", "step"}
    assert summary["walks"] == 200 and summary["seed"] == 2
    assert summary["truncated"] == 0
    assert 0.0 < summary["ks"] < 0.2

    xs = load_samples_csv(samples)
    assert xs.size == 200
    capsys.readouterr()
    rc = run("check", "--dist", UNIFORM, "--samples", str(samples))
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"] == 200
    assert report["ks"] == pytest.approx(summary["ks"])
    assert report["mean"] == pytest.approx(summary["mean"])


def test_simulate_rerun_byte_identical(tmp_path):
    boundary = tmp_path / "b.csv"
    assert run("build", "--dist", UNIFORM, "--n", "5", "--points", "64",
               "--out", str(boundary)) == 0
    a, b = tmp_path / "a.csv", tmp_path / "b2.csv"
    args = ("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
            "--walks", "50", "--step", "1e-3", "--seed", "9")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_requires_boundary(tmp_path):
    rc = run("simulate", "--dist", UNIFORM, "--walks", "10",
             "--out", str(tmp_path / "s.csv"))
    assert rc == 2


def test_check_requires_samples():
    assert run("check", "--dist", UNIFORM) == 2


# ------------------------------------------------------------- config files

def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dist": {"family": "uniform", "a": -1, "b": 1},
        "n": 10,
        "out": str(tmp_path / "r.csv"),
    }))
    assert run("rates", str(cfg)) == 0
    assert (tmp_path / "r.csv").read_text().splitlines()[2].startswith("10,")


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dist": {"family": "uniform", "a": -1, "b": 1},
        "n": 10,
    }))
    out = tmp_path / "r.csv"
    assert run("rates", str(cfg), "--n", "4", "--out", str(out)) == 0
    assert out.read_text().splitlines()[2].startswith("4,")


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dist": {"family": "uniform", "a": 0, "b": 1},
                               "frobnicate": True}))
    assert run("rates", str(cfg)) == 2


# -------------------------------------------------------------- exit codes

def test_unknown_family_is_config_error(tmp_path):
    rc = run("build", "--dist", '{"family": "cauchy"}',
             "--out", str(tmp_path / "b.csv"))
    assert rc == 2


def test_unbounded_support_is_config_error(tmp_path, capsys):
    rc = run("build", "--dist", '{"family": "exponential", "rate": 1.0}',
             "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    assert "truncate" in capsys.readouterr().err


def test_truncated_exponential_builds(tmp_path):
    rc = run("build", "--dist",
             '{"family": "exponential", "rate": 1.0, "truncate": 4.0}',
             "--n", "20", "--points", "128", "--out", str(tmp_path / "b.csv"))
    assert rc == 0


def test_zero_walks_is_config_error(tmp_path):
    boundary = tmp_path / "b.csv"
    assert run("build", "--dist", UNIFORM, "--n", "4", "--points", "16",
               "--out", str(boundary)) == 0
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "0", "--out", str(tmp_path / "s.csv"))
    assert rc == 2


def test_pdf_scheme_without_density_is_config_error(tmp_path):
    rc = run("rates", "--dist",
             '{"family": "discrete", "atoms": [[-1, 0.5], [1, 0.5]]}',
             "--scheme", "pdf", "--n", "4", "--out", str(tmp_path / "r.csv"))
    assert rc == 2


def test_missing_boundary_file_is_io_error(tmp_path):
    rc = run("simulate", "--dist", UNIFORM,
             "--boundary", str(tmp_path / "nope.csv"),
             "--walks", "4", "--out", str(tmp_path / "s.csv"))
    assert rc == 4


def test_missing_samples_file_is_io_error(tmp_path):
    rc = run("check", "--dist", UNIFORM, "--samples", str(tmp_path / "nope.csv"))
    assert rc == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "mu-domain-kit 0.1.0" in capsys.readouterr().out


# ------------------------------------------------------------ library layer

def test_build_distribution_center_default():
    dist = build_distribution({"family": "uniform", "a": 0, "b": 2})
    assert dist.mean() == pytest.approx(0.0)
    raw = build_distribution({"family": "uniform", "a": 0, "b": 2,
                              "center": False})
    assert raw.mean() == pytest.approx(1.0)


def test_build_distribution_rejects_bad_truncate():
    with pytest.raises(ConfigError):
        build_distribution({"family": "exponential", "rate": 1.0,
                            "truncate": -2.0})
    with pytest.raises((ConfigError, UnboundedSupportError)):
        build_distribution({"family": "exponential", "rate": 1.0})


def test_run_config_hash_tracks_inputs():
    base = {"dist": {"family": "uniform", "a": -1, "b": 1}}
    h0 = RunConfig(**base).hash()
    assert re.fullmatch(r"[0-9a-f]{12}", h0)
    assert RunConfig(**base).hash() == h0
    assert RunConfig(n=31, **base).hash() != h0
    assert RunConfig(max_steps=1000, **base).hash() != h0
    assert RunConfig(out="elsewhere.csv", **base).hash() == h0


@pytest.mark.parametrize("key", ["boundary", "samples"])
def test_run_config_hash_covers_input_file_contents(tmp_path, key):
    base = {"dist": {"family": "uniform", "a": -1, "b": 1}}
    path, twin = tmp_path / "input.csv", tmp_path / "twin.csv"
    path.write_text("t,x,y\n0.0,0.0,0.0\n")
    twin.write_text("t,x,y\n0.0,0.0,0.0\n")
    h0 = RunConfig(**base, **{key: str(path)}).hash()
    assert h0 != RunConfig(**base).hash()
    # the content counts, not the path
    assert RunConfig(**base, **{key: str(twin)}).hash() == h0
    path.write_text("t,x,y\n0.0,0.5,0.0\n")
    assert RunConfig(**base, **{key: str(path)}).hash() != h0


def test_import_loads_no_scipy_stats_or_integrate():
    """`import mudk` stays light: scipy.integrate loads only for unbounded tails."""
    code = ("import sys, mudk; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
