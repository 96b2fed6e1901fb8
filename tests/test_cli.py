"""End-to-end tests of the mudk command line interface."""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mudk.boundary import (boundary_points, export_csv, load_csv, scale_domain,
                           svg_point_count)
from mudk.cli import (_COMMANDS, ConfigError, RunConfig, _json_text, _summary_path,
                      build_distribution, load_samples_csv, main, merge_config,
                      read_argv)
from mudk.discretize import UnboundedSupportError, build_measure
from mudk.gross_map import fourier_coefficients
from mudk.hilbert import PoleError
from mudk.verify_mc import TopologyError

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


def test_build_svg_of_degenerate_domain_is_config_error(tmp_path, capsys):
    """One step of the uniform law traces a domain of zero height; the refusal
    leaves neither the CSV nor the SVG behind."""
    rc = run("build", "--dist", UNIFORM, "--n", "1", "--out", str(tmp_path / "b.csv"),
             "--svg", str(tmp_path / "b.svg"))
    assert rc == 2
    assert "nondegenerate bounding box" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("coeffs", [None, 32])
def test_map_writes_the_tail_summary_beside_the_coefficients(tmp_path, coeffs):
    """The default keeps 2413 of beta(2,5) n=2000's 15992-term cap; --coeffs
    keeps its own count.  The summary reads the coefficients' own ledger."""
    beta = '{"family": "beta", "alpha": 2, "beta": 5}'
    out = tmp_path / "b.map.csv"
    extra = ("--coeffs", str(coeffs)) if coeffs else ()
    assert run("map", "--dist", beta, "--n", "2000", "--out", str(out), *extra) == 0
    fc = fourier_coefficients(build_measure(build_distribution(json.loads(beta)), 2000),
                              num_terms=coeffs)
    terms = coeffs or 2413
    assert fc.order == terms and len(out.read_text().splitlines()) == 2 + terms
    summary = json.loads((tmp_path / "b.map.summary.json").read_text())
    assert summary == {"terms": terms, "cap": coeffs or 15992, "tail": fc.tail,
                       "staircase": fc.staircase,
                       "tail_bound": {str(r): fc.tail_bound(r) for r in (0.5, 0.9, 0.99)}}


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


@pytest.mark.parametrize("out, summary", [
    ("samples.csv", "samples.summary.json"),
    ("run/s.csv", "run/s.summary.json"),
    ("out.d/samples", "out.d/samples.summary.json"),
    ("./samples", "./samples.summary.json"),
])
def test_summary_sits_beside_the_samples(out, summary):
    assert _summary_path(out) == summary


@pytest.mark.parametrize("summary", [
    {"walks": 10, "truncated": 0, "seed": 3, "step": 1e-4, "ks": None,
     "mean": -0.0, "std": float("nan")},
    {"terms": 256, "cap": 16000, "tail": 1.7e-7, "tail_bound": {"0.5": 0.0, "0.99": 2e-4}},
    {"b": {}, "a": {"c": {"d": float("inf")}}, "\u00e9": 1},
])
def test_summary_text_is_what_json_dump_writes(summary):
    assert _json_text(summary) == json.dumps(summary, indent=2, sort_keys=True)


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


def test_every_setting_has_one_flag_and_one_hash_either_way(tmp_path):
    """Each RunConfig field is one `--flag` of every subcommand, read alike in
    the `--flag VALUE` and `--flag=VALUE` forms, and the same values given by
    flags or by a config file make the same config."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    boundary, samples = tmp_path / "b.csv", tmp_path / "s.csv"
    boundary.write_text("t,x,y\n0.0,0.0,0.0\n")
    samples.write_text("walk,x_exit\n0,0.25\n")
    values = {"dist": json.loads(UNIFORM), "n": 7, "n_list": [10, 20], "scheme": "pdf",
              "points": 64, "coeffs": 12, "out": "o.csv", "svg": "o.svg", "walks": 50,
              "step": 0.002, "seed": 9, "boundary": str(boundary),
              "samples": str(samples), "max_steps": 1000}
    assert list(values) == names
    spaced, joined = [], []
    for name, value in values.items():
        text = (json.dumps(value) if name == "dist" else
                ",".join(map(str, value)) if name == "n_list" else str(value))
        flag = "--" + name.replace("_", "-")
        assert read_argv(["rates", flag, text]) == read_argv(["rates", f"{flag}={text}"])
        assert set(read_argv(["rates", flag, text])[2]) == {name}
        spaced += [flag, text]
        joined.append(f"{flag}={text}")
    for command in _COMMANDS:
        assert read_argv([command, *spaced]) == read_argv([command, *joined])
        assert read_argv([command, *spaced])[:2] == (command, None)
    by_flags = merge_config({}, read_argv(["rates", *spaced])[2])
    by_file = merge_config(values, {})
    assert by_flags == by_file
    assert by_flags.hash() == by_file.hash() != RunConfig(dist=values["dist"]).hash()


# -------------------------------------------------------------- exit codes

def test_unknown_family_is_config_error(tmp_path):
    rc = run("build", "--dist", '{"family": "cauchy"}',
             "--out", str(tmp_path / "b.csv"))
    assert rc == 2


def _two_piece(a1, b1, a2, b2):
    return {"family": "two-piece-uniform", "a1": a1, "b1": b1, "a2": a2, "b2": b2}


def test_two_piece_uniform_builds(tmp_path):
    """Uniform on the union of the pieces: each carries mass by its length."""
    law = build_distribution({**_two_piece(-2, -1, 0, 2), "center": False})
    np.testing.assert_allclose(law.cdf([-1.5, -1.0, -0.5, 1.0]),
                               [1 / 6, 1 / 3, 1 / 3, 2 / 3], atol=1e-15)
    out = tmp_path / "b.csv"
    assert run("build", "--dist", json.dumps(_two_piece(-2, -1, 1, 2)),
               "--n", "20", "--points", "64", "--out", str(out)) == 0
    assert HEADER_RE.match(out.read_text().splitlines()[0])


@pytest.mark.parametrize("pieces", [(1, 2, -2, -1), (-2, 0.5, 0, 2), (-1, -1, 1, 2)],
                         ids=["swapped", "overlapping", "empty-piece"])
def test_two_piece_uniform_out_of_order_is_config_error(tmp_path, capsys, pieces):
    out = tmp_path / "b.csv"
    rc = run("build", "--dist", json.dumps(_two_piece(*pieces)), "--out", str(out))
    assert rc == 2
    assert not out.exists()
    assert "a1 < b1 <= a2 < b2" in capsys.readouterr().err


@pytest.mark.parametrize("dist, name", [
    ('{"family": "beta", "alpha": Infinity, "beta": 2}', "alpha"),
    ('{"family": "beta", "alpha": 2, "beta": NaN}', "beta"),
    ('{"family": "truncated-normal", "mu": NaN, "sigma": 1, "lo": -2, "hi": 2}', "mu"),
    ('{"family": "truncated-normal", "mu": 0, "sigma": Infinity, "lo": -2, "hi": 2}',
     "sigma"),
], ids=["beta-alpha-inf", "beta-beta-nan", "normal-mu-nan", "normal-sigma-inf"])
def test_non_finite_parameter_is_config_error(tmp_path, capsys, dist, name):
    """The message names the parameter, not a symptom such as the support."""
    rc = run("build", "--dist", dist, "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{name} must be" in err and "finite" in err


@pytest.mark.parametrize("scheme", ["cdf", "pdf"])
def test_atoms_closer_than_match_tolerance_are_config_error(tmp_path, capsys, scheme):
    """Both locations are named, not an internal error about level intervals."""
    dist = json.dumps({"family": "mixture", "center": False, "components": [
        {"weight": 0.5, "dist": {"family": "uniform", "a": -1, "b": 1}},
        {"weight": 0.5, "dist": {"family": "discrete",
                                 "atoms": [[0.25, 0.5], [0.2500000000001, 0.5]]}}]})
    out = tmp_path / "r.csv"
    rc = run("rates", "--n", "8", "--scheme", scheme, "--dist", dist, "--out", str(out))
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "atoms at 0.25 and 0.2500000000001 are closer than" in err
    assert "internal error" not in err


def _mixture(*comps):
    return {"family": "mixture", "components": [{"weight": 1 / len(comps), "dist": d}
                                                for d in comps]}


UNIFORM_FIELDS = json.loads(UNIFORM)


@pytest.mark.parametrize("dist, named", [
    ({**UNIFORM_FIELDS, "truncat": 3}, "truncat"),
    (_mixture({**UNIFORM_FIELDS, "center": False}), "center"),
    (_mixture({**UNIFORM_FIELDS, "truncate": 0.5}), "truncate"),
    ({**UNIFORM_FIELDS, "center": "no"}, '"center"'),
    ({**UNIFORM_FIELDS, "center": 0}, '"center"'),
    ({"family": "mixture", "components": [{"weight": "1", "dist": UNIFORM_FIELDS}]},
     '"weight"'),
    ({"family": "mixture", "components": [{"weight": 1, "dist": UNIFORM_FIELDS,
                                           "center": True}]}, '"weight" and "dist"'),
    ({"family": "mixture", "components": [{"weight": 1, "dist": 5}]}, "JSON object"),
    ({"family": "discrete", "atoms": [[True, 0.5], [1, 0.5]]}, '"atoms" location'),
    ({"family": "discrete", "atoms": [[0, "0.5"], [1, 0.5]]}, '"atoms" mass'),
    ({"family": "discrete", "atoms": [[float("nan"), 0.5], [2, 0.5]]},
     "atom locations must be finite"),
], ids=["unknown-key", "component-center", "component-truncate", "center-string",
        "center-zero", "weight-string", "component-extra-key", "component-not-object",
        "atom-bool", "atom-string", "atom-nan"])
def test_distribution_object_refuses_what_it_would_misread(tmp_path, capsys, dist, named):
    """Each exits 2 naming the key, where it once ran on a law it misread."""
    out = tmp_path / "r.csv"
    rc = run("rates", "--dist", json.dumps(dist), "--n", "4", "--out", str(out))
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert named in err and "unbounded" not in err


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


def test_truncated_exponential_embeds_its_target(tmp_path):
    """Recentred after truncation, the working law is the law the domain embeds."""
    dist = '{"family": "exponential", "rate": 1, "truncate": 3}'
    boundary, samples = tmp_path / "b.csv", tmp_path / "s.csv"
    assert run("build", "--dist", dist, "--n", "200", "--points", "2048",
               "--out", str(boundary)) == 0
    assert run("simulate", "--dist", dist, "--n", "200", "--boundary",
               str(boundary), "--walks", "4000", "--step", "1e-4",
               "--seed", "3", "--out", str(samples)) == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert summary["truncated"] == 0
    assert summary["ks"] < 0.05


UNIFORM_AND_ATOM = json.dumps({"family": "mixture", "components": [
    {"weight": 0.5, "dist": {"family": "uniform", "a": -1, "b": 1}},
    {"weight": 0.5, "dist": {"family": "discrete", "atoms": [[0.0, 1.0]]}}]})


def test_atom_stays_where_the_target_puts_it(tmp_path):
    """Half the mass in an atom at 0: `build -> simulate` must exit there."""
    boundary, samples = tmp_path / "b.csv", tmp_path / "s.csv"
    assert run("build", "--dist", UNIFORM_AND_ATOM, "--n", "200", "--points", "2048",
               "--out", str(boundary)) == 0
    assert run("simulate", "--dist", UNIFORM_AND_ATOM, "--boundary", str(boundary),
               "--walks", "4000", "--seed", "5", "--out", str(samples)) == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert summary["ks"] < 0.05


FRAME_LAWS = {
    "uniform": json.loads(UNIFORM),
    "beta": {"family": "beta", "alpha": 2, "beta": 5},
    "truncated_exponential": {"family": "exponential", "rate": 1, "truncate": 3},
    "uniform_and_atom": json.loads(UNIFORM_AND_ATOM),
    "uncentred_atom_at_0.3": {"family": "mixture", "center": False, "components": [
        {"weight": 0.5, "dist": {"family": "uniform", "a": -1, "b": 1}},
        {"weight": 0.5, "dist": {"family": "discrete", "atoms": [[0.3, 1.0]]}}]},
    "uncentred_uniform_1_2": {"family": "uniform", "a": 1, "b": 2, "center": False},
}


@pytest.mark.parametrize("spec", FRAME_LAWS.values(), ids=FRAME_LAWS.keys())
def test_build_writes_the_domain_the_library_traces(tmp_path, spec):
    """`build` rows are `boundary_points` of the law's own q_n, up to the
    rounding of the normalize -> scale round trip; a centred law's atoms are
    walls at their exact abscissas."""
    boundary = tmp_path / "b.csv"
    assert run("build", "--dist", json.dumps(spec), "--n", "200", "--points", "2048",
               "--out", str(boundary)) == 0
    got = load_csv(boundary).points
    dist = build_distribution(spec)
    want = boundary_points(build_measure(dist, 200), 2048).points
    scale = np.abs(want[:, 1:]).max()
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1] - want[:, 1]).max() <= 4 * np.spacing(scale)
    assert np.abs(got[:, 2] - want[:, 2]).max() <= 1e-15 * scale
    if spec.get("center", True):
        assert np.isin(dist.atoms()[:, 0], got[:, 1]).all()


def test_domain_off_the_origin_is_built_but_not_simulated(tmp_path, capsys):
    """Uniform(1, 2) uncentred: its domain misses the origin, where walks start."""
    law = json.dumps(FRAME_LAWS["uncentred_uniform_1_2"])
    boundary, samples = tmp_path / "b.csv", tmp_path / "s.csv"
    assert run("build", "--dist", law, "--n", "200", "--points", "2048",
               "--out", str(boundary)) == 0
    assert load_csv(boundary).x.min() >= 1.0
    capsys.readouterr()
    assert run("simulate", "--dist", law, "--boundary", str(boundary),
               "--walks", "100", "--out", str(samples)) == 3
    assert "origin is not inside the domain" in capsys.readouterr().err
    assert not samples.exists()


def test_zero_walks_is_config_error(tmp_path):
    boundary = tmp_path / "b.csv"
    assert run("build", "--dist", UNIFORM, "--n", "4", "--points", "16",
               "--out", str(boundary)) == 0
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "0", "--out", str(tmp_path / "s.csv"))
    assert rc == 2


def test_boolean_step_is_config_error(tmp_path, capsys):
    """A JSON boolean is not a number for the float fields, as for the integer ones."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dist": {"family": "uniform", "a": -1, "b": 1},
                               "step": True}))
    rc = run("build", str(cfg), "--n", "4", "--points", "16",
             "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    assert "step must be a number" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_string_step_is_config_error(tmp_path, capsys):
    """A JSON string is not a number for the float fields, as for the integer ones."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dist": {"family": "uniform", "a": -1, "b": 1},
                               "step": "1e-3"}))
    rc = run("build", str(cfg), "--n", "4", "--points", "16",
             "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    assert "step must be a number" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("cfg, named", [
    ({"dist": json.loads(UNIFORM), "step": 10 ** 400}, "step is beyond the float range"),
    ({"dist": {"family": "uniform", "a": -1, "b": 10 ** 400}},
     "field 'b' of family 'uniform' is beyond the float range"),
    ('{"dist": %s, "step": 1%s}' % (UNIFORM, "0" * 5000), "invalid JSON in config file"),
], ids=["step", "family-field", "beyond-int-digit-limit"])
def test_huge_json_integer_is_config_error(tmp_path, capsys, cfg, named):
    """float() of a 401-digit integer overflows; json refuses 5001 digits."""
    path = tmp_path / "run.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    rc = run("build", str(path), "--n", "4", "--points", "16",
             "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("command, flag", [
    ("build", "--points"), ("map", "--coeffs"), ("simulate", "--walks")])
def test_size_numpy_refuses_is_config_error(tmp_path, capsys, command, flag):
    """Beyond numpy's index range, refused before anything is allocated."""
    boundary, _ = _built_files(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.csv"
    rc = run(command, "--dist", UNIFORM, "--n", "4", "--boundary", str(boundary),
             flag, str(10 ** 23), "--out", str(out))
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_pole_in_boundary_points_stays_numerical_failure(tmp_path, capsys, monkeypatch):
    """PoleError is a ValueError, but not a config error."""
    def pole(*args, **kwargs):
        raise PoleError("evaluation point too close to a pole")

    monkeypatch.setattr("mudk.cli.boundary_points", pole)
    assert run("build", "--dist", UNIFORM, "--n", "4", "--points", "16",
               "--out", str(tmp_path / "b.csv")) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_zero_max_steps_is_config_error(tmp_path, capsys):
    boundary = tmp_path / "b.csv"
    assert run("build", "--dist", UNIFORM, "--n", "4", "--points", "16",
               "--out", str(boundary)) == 0
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--max-steps", "0", "--out", str(tmp_path / "s.csv"))
    assert rc == 2
    assert "max_steps" in capsys.readouterr().err


@pytest.mark.parametrize("where, n_list", [
    ("file", [2.5, 4]), ("file", [True, 4]), ("file", [float("inf"), 4]),
    ("flag", "2.5,4"), ("flag", "true,4"), ("file", "5,10"),
    ("file", []), ("flag", ""), ("flag", ",")],
    ids=["file-float", "file-bool", "file-inf", "flag-float", "flag-bool", "file-string",
         "file-empty", "flag-empty", "flag-comma"])
def test_non_integer_n_list_entry_is_config_error(tmp_path, capsys, where, n_list):
    """Entries are not truncated: 2.5 is not 2, true is not 1, inf is no int;
    only the --n-list flag takes the comma form, a config file a JSON list.
    An empty list is refused, not replaced by --n."""
    out = tmp_path / "r.csv"
    if where == "flag":
        rc = run("rates", "--dist", UNIFORM, "--n-list", n_list, "--out", str(out))
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dist": json.loads(UNIFORM), "n_list": n_list}))
        rc = run("rates", str(cfg), "--out", str(out))
    assert rc == 2
    assert "n_list must be a nonempty list of integers" in capsys.readouterr().err
    assert not out.exists()


def test_pdf_scheme_without_density_is_config_error(tmp_path):
    rc = run("rates", "--dist",
             '{"family": "discrete", "atoms": [[-1, 0.5], [1, 0.5]]}',
             "--scheme", "pdf", "--n", "4", "--out", str(tmp_path / "r.csv"))
    assert rc == 2


def test_build_of_one_point_law_is_config_error(tmp_path, capsys):
    """A one-point law has no support to normalize; check still measures it."""
    point = '{"family": "discrete", "atoms": [[0, 1]]}'
    out = tmp_path / "b.csv"
    assert run("build", "--dist", point, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error: normalization needs bounded support" in err
    assert "of positive width, got (0.0, 0.0)" in err
    samples = tmp_path / "s.csv"
    samples.write_text("walk,x_exit\n0,0.0\n1,0.0\n")
    assert run("check", "--dist", point, "--samples", str(samples)) == 0


@pytest.mark.parametrize("law", [
    '{"family": "discrete", "atoms": [[0, 1]]}',
    # no base mass inside the window: the truncated law is the atom at 0
    '{"family": "uniform", "a": 1, "b": 2, "truncate": 0.5, "center": false}',
], ids=["atom", "empty-window"])
def test_rates_of_one_point_law_is_config_error(law, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run("rates", "--dist", law, "--n-list", "10", "--out", str(out)) == 2
    assert not out.exists()
    assert "grid needs finite a < b, got (0.0, 0.0)" in capsys.readouterr().err


def test_build_with_pdf_scheme_is_config_error(tmp_path, capsys):
    """A step quantile whose mass is not 1 is refused by the tracer."""
    out = tmp_path / "b.csv"
    rc = run("build", "--dist", '{"family": "beta", "alpha": 2, "beta": 1}',
             "--scheme", "pdf", "--n", "10", "--out", str(out))
    assert rc == 2
    assert not out.exists()
    assert "boundary tracing needs total mass 1" in capsys.readouterr().err


def test_missing_boundary_file_is_io_error(tmp_path):
    rc = run("simulate", "--dist", UNIFORM,
             "--boundary", str(tmp_path / "nope.csv"),
             "--walks", "4", "--out", str(tmp_path / "s.csv"))
    assert rc == 4


def test_missing_samples_file_is_io_error(tmp_path):
    rc = run("check", "--dist", UNIFORM, "--samples", str(tmp_path / "nope.csv"))
    assert rc == 4


def _built_files(tmp_path):
    """A boundary from build and a samples file from simulate on it."""
    boundary, samples = tmp_path / "b.csv", tmp_path / "s.csv"
    assert run("build", "--dist", UNIFORM, "--n", "4", "--points", "16",
               "--out", str(boundary)) == 0
    assert run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
               "--walks", "4", "--step", "1e-2", "--out", str(samples)) == 0
    return boundary, samples


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("defect", ["header", "number", "nan", "inf", "-inf", "-0_25"])
def test_malformed_input_file_is_io_error(tmp_path, capsys, command, defect):
    """A wrong header, or a last cell (a boundary's y, a sample's x) that is
    not a finite number in plain decimal notation: Python's float() reads
    the digit groups of -0_25 as -25.0, numpy's reader refuses them."""
    boundary, samples = _built_files(tmp_path)
    path, flag = ((boundary, "--boundary") if command == "simulate"
                  else (samples, "--samples"))
    lines = path.read_text().splitlines()
    if defect == "header":
        lines[1] = "foo,bar"
    else:
        cell = "zero" if defect == "number" else defect
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + cell
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = run(command, "--dist", UNIFORM, flag, str(path),
             "--walks", "4", "--out", str(tmp_path / "out.csv"))
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure:")
    assert str(path) in err


def test_rejected_boundary_rows_are_io_error(tmp_path, capsys):
    boundary, _ = _built_files(tmp_path)
    lines = boundary.read_text().splitlines()
    boundary.write_text("\n".join(lines[:-1]) + "\n")  # odd row count
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "4", "--out", str(tmp_path / "out.csv"))
    assert rc == 4
    assert str(boundary) in capsys.readouterr().err


def test_header_only_boundary_is_io_error(tmp_path, capsys):
    boundary, _ = _built_files(tmp_path)
    lines = boundary.read_text().splitlines()
    boundary.write_text("\n".join(lines[:2]) + "\n")  # comment and column rows
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "4", "--out", str(tmp_path / "out.csv"))
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure:") and str(boundary) in err


def test_header_only_samples_is_config_error(tmp_path, capsys):
    """Zero rows is what simulate writes when every walk is truncated."""
    _, samples = _built_files(tmp_path)
    lines = samples.read_text().splitlines()
    samples.write_text("\n".join(lines[:2]) + "\n")
    capsys.readouterr()
    assert run("check", "--dist", UNIFORM, "--samples", str(samples)) == 2
    assert "no samples found" in capsys.readouterr().err


@pytest.mark.parametrize("command, wrapped", [
    (["build", "--points", "1000000000000"], "boundary_points"),
    (["map", "--coeffs", "1000000000000"], "fourier_coefficients"),
    (["rates", "--n", "1000000000000"], "build_measure"),
], ids=lambda value: value[0] if isinstance(value, list) else value)
def test_a_size_the_machine_cannot_allocate_is_config_error(tmp_path, monkeypatch,
                                                           capsys, command, wrapped):
    """numpy raises a MemoryError for an array it can index but not allocate;
    the stub raises it without trying."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(f"mudk.cli.{wrapped}", refuse)
    out = tmp_path / "out.csv"
    assert run(*command, "--dist", UNIFORM, "--out", str(out)) == 2
    assert capsys.readouterr().err == "config error: Unable to allocate 7.28 TiB\n"
    assert not out.exists()


# every name a command calls through mudk.cli, and what each exception class exits
_LAYERS = {
    "build": ("normalize_support", "build_measure", "boundary_points", "scale_domain",
              "export_svg", "export_csv"),
    "rates": ("build_measure", "l1_distance", "rate_bound"),
    "map": ("build_measure", "fourier_coefficients"),
    "simulate": ("simulate_exit", "ks_distance"),
    "check": ("ks_distance",),
}
_EXIT_BY_CLASS = ((ValueError, 2), (OverflowError, 2), (MemoryError, 2), (PoleError, 3),
                  (TopologyError, 3), (OSError, 4))
_LABELS = {2: "config error", 3: "numerical failure", 4: "i/o failure"}


@pytest.fixture(scope="module")
def built_files(tmp_path_factory):
    return _built_files(tmp_path_factory.mktemp("built"))


@pytest.mark.parametrize("command, layer, raised, code", [
    *((command, layer, raised, code) for command, layers in _LAYERS.items()
      for layer in layers for raised, code in _EXIT_BY_CLASS),
    # the one exception: a ValueError while reading a named input file
    ("simulate", "load_csv", ValueError, 4),
    ("check", "load_samples_csv", ValueError, 4),
], ids=lambda value: value.__name__ if isinstance(value, type) else str(value))
def test_a_layer_failure_exits_by_its_class(tmp_path, monkeypatch, capsys, built_files,
                                            command, layer, raised, code):
    """main alone maps a failure to 2, 3 or 4, whichever layer raises it."""
    def refuse(*args, **kwargs):
        raise raised("stubbed refusal")

    boundary, samples = built_files
    monkeypatch.setattr(f"mudk.cli.{layer}", refuse)
    rc = run(command, "--dist", UNIFORM, "--n", "4", "--points", "16", "--walks", "4",
             "--step", "1e-2", "--boundary", str(boundary), "--samples", str(samples),
             "--svg", str(tmp_path / "b.svg"), "--out", str(tmp_path / "out.csv"))
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(_LABELS[code] + ": ") and err.endswith("stubbed refusal\n")


def test_boundary_off_the_origin_is_numerical_failure(tmp_path, capsys):
    boundary, _ = _built_files(tmp_path)
    shifted = scale_domain(load_csv(boundary), 1.0, 5.0)
    export_csv(shifted, boundary)
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "4", "--out", str(tmp_path / "out.csv"))
    assert rc == 3
    assert "origin" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    # mirror-symmetric within the polyline's tolerance, but all at t < 0
    ("-2e-10,1,-1\n-1e-10,1,1\n", "polyline has no row at t > 0"),
    ("-0.5,1,-1\n0.5,1,1\n", "lower boundary chain crosses the real axis"),
], ids=["no-positive-half", "crosses-axis"])
def test_boundary_that_is_no_comb_is_numerical_failure(tmp_path, capsys, rows, message):
    boundary = tmp_path / "b.csv"
    boundary.write_text("t,x,y\n" + rows)
    rc = run("simulate", "--dist", UNIFORM, "--boundary", str(boundary),
             "--walks", "4", "--out", str(tmp_path / "out.csv"))
    assert rc == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


def test_version_flag(capsys):
    assert run("--version") == 0
    assert capsys.readouterr().out == "mu-domain-kit 0.1.0\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["rates", "--dist", UNIFORM, "--help"]],
                         ids=["help", "h", "after-flags"])
def test_help_names_every_command_and_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: mudk COMMAND [CONFIG] [--flag VALUE | --flag=VALUE]...")
    for name in _COMMANDS:
        assert re.search(rf"^  {name} ", out, re.M), name
    for f in dataclasses.fields(RunConfig):
        assert re.search(rf"^  --{f.name.replace('_', '-')} ", out, re.M), f.name
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["rates", "--dist", UNIFORM, "--no-such-flag", "1"], "unknown flag '--no-such-flag'"),
    (["rates", "--dist", UNIFORM, "--poi", "64"], "unknown flag '--poi'"),
    (["rates", "--dist", UNIFORM, "--n_list", "4"], "unknown flag '--n_list'"),
    (["rates", "--dist", UNIFORM, "--n"], "--n needs a value"),
    (["rates", "--n", "--dist", UNIFORM], "--n needs a value"),
    (["rates", "--dist", UNIFORM, "--n", "abc"], "invalid int value for --n: 'abc'"),
    (["rates", "--dist", UNIFORM, "--step=x"], "invalid float value for --step: 'x'"),
    (["rates", "--dist", UNIFORM, "--scheme", "foo"], "scheme must be cdf or pdf, got 'foo'"),
    (["frobnicate", "--dist", UNIFORM], "unknown command 'frobnicate'"),
    (["--dist", UNIFORM, "rates"], "unknown command '--dist'"),
    (["rates", "a.json", "b.json"], "a second positional argument 'b.json' after 'a.json'"),
    ([], "no command given\nusage: mudk COMMAND"),
], ids=["unknown-flag", "abbreviation", "underscore", "missing-value", "flag-as-value",
        "not-int", "not-float", "scheme", "unknown-command", "flag-before-command",
        "second-positional", "no-arguments"])
def test_usage_error_is_config_error(tmp_path, monkeypatch, capsys, argv, message):
    """Exit 2 through the one `config error:` path, with no output written."""
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ library layer

def test_build_distribution_center_default():
    dist = build_distribution({"family": "uniform", "a": 0, "b": 2})
    assert dist.mean() == pytest.approx(0.0)
    raw = build_distribution({"family": "uniform", "a": 0, "b": 2,
                              "center": False})
    assert raw.mean() == pytest.approx(1.0)
    # truncation moves the mean; only a centered law is recentred after it
    fields = {"family": "exponential", "rate": 1.0, "truncate": 3.0}
    assert build_distribution(fields).mean() == pytest.approx(0.0, abs=1e-12)
    raw = build_distribution({**fields, "center": False})
    assert raw.mean() == pytest.approx(1.0 - 4.0 * np.exp(-3.0), abs=1e-12)


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


def test_run_config_hash_is_hashlib_sha256(tmp_path):
    """The built-in SHA-256 gives hashlib's digest of the same payload."""
    boundary, samples = tmp_path / "b.csv", tmp_path / "s.csv"
    boundary.write_text("t,x,y\n0.0,0.0,0.0\n")
    samples.write_text("x\n0.25\n")
    cfg = RunConfig(dist={"family": "uniform", "a": -1, "b": 1}, n_list=(10, 20),
                    boundary=str(boundary), samples=str(samples),
                    out="o.csv", svg="o.svg")
    payload = {"dist": {"family": "uniform", "a": -1, "b": 1}, "n": 30,
               "n_list": [10, 20], "scheme": "cdf", "points": 2048,
               "coeffs": None, "walks": 10_000, "step": 1e-4, "seed": 0,
               "max_steps": 10_000_000,
               "boundary_sha256": hashlib.sha256(boundary.read_bytes()).hexdigest(),
               "samples_sha256": hashlib.sha256(samples.read_bytes()).hexdigest()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert cfg.hash() == hashlib.sha256(blob).hexdigest()[:12]


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


def _fresh_stdout(code: str) -> str:
    """Standard output of `python -c code` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


def test_import_loads_no_scipy_stats_or_integrate():
    """No module of the package imports scipy (`mudk.cli` imports them all)."""
    code = ("import sys, mudk.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    assert _fresh_stdout(code) == "[]"


def test_import_loads_no_numpy_and_no_submodule():
    code = ("import sys, mudk; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('mudk.')))")
    assert _fresh_stdout(code) == "[]"


def test_package_names_are_their_home_modules_objects():
    import mudk
    for module, names in mudk._EXPORTS.items():
        home = importlib.import_module(f"mudk.{module}")
        for name in names:
            assert getattr(mudk, name) is getattr(home, name), name
    assert set(mudk.__all__) <= set(dir(mudk))
    namespace = {}
    exec("from mudk import *", namespace)
    assert set(mudk.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        mudk.no_such_name


BETA = '{"family": "beta", "alpha": 2, "beta": 5}'
TRUNCATED_NORMAL = '{"family": "truncated-normal", "mu": 0, "sigma": 1, "lo": -2, "hi": 2}'
TRUNCATED_EXP = '{"family": "exponential", "rate": 1, "truncate": 3}'
MIXTURE = ('{"family": "mixture", "components": ['
           '{"weight": 0.5, "dist": {"family": "uniform", "a": -1, "b": 1}}, '
           '{"weight": 0.5, "dist": {"family": "discrete", "atoms": [[0.0, 1.0]]}}]}')


def _every_command(out):
    """argv of each command on beta(2,5); `rates` on the truncated normal and
    on the uniform+atom mixture (a `Discrete` part), and `build` on the
    truncated exponential (centred by `TruncatedDistribution.mean`)."""
    return [
        ["build", "--dist", BETA, "--n", "20", "--points", "64", "--out", f"{out}/b.csv"],
        ["map", "--dist", BETA, "--n", "20", "--out", f"{out}/m.csv"],
        ["rates", "--dist", BETA, "--n-list", "10,20", "--out", f"{out}/r.csv"],
        ["simulate", "--dist", BETA, "--n", "20", "--boundary", f"{out}/b.csv",
         "--walks", "50", "--out", f"{out}/s.csv"],
        ["check", "--dist", BETA, "--n", "20", "--samples", f"{out}/s.csv",
         "--out", f"{out}/c.json"],
        ["rates", "--dist", TRUNCATED_NORMAL, "--n-list", "10,20",
         "--out", f"{out}/t.csv"],
        ["rates", "--dist", MIXTURE, "--n-list", "10,20", "--out", f"{out}/x.csv"],
        ["build", "--dist", TRUNCATED_EXP, "--n", "20", "--points", "64",
         "--out", f"{out}/e.csv"],
    ]


def _after_every_command(tmp_path, before, report):
    """The last line printed by `report` in a fresh process that ran `before`,
    imported `mudk.cli` and ran every command."""
    code = f"""
{before}
import mudk.cli
for argv in {_every_command(str(tmp_path))!r}:
    assert mudk.cli.main(argv) == 0, argv
print({report})
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    return out.splitlines()[-1]     # after what the commands print


def _modules_after_every_command(tmp_path, *packages):
    """Modules of `packages` loaded in a fresh process that ran every command."""
    return _after_every_command(tmp_path, "import sys", f"""sorted(
    m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in {packages!r}))""")


def test_no_cli_command_loads_argparse_gettext_or_locale(tmp_path):
    """The flags are read off RunConfig's fields: no argparse, which imports
    gettext, whose first translation lookup imports locale."""
    assert _modules_after_every_command(tmp_path, "argparse", "gettext", "locale") == "[]"


def test_no_cli_command_loads_scipy(tmp_path):
    """Every command, on beta(2,5) and the truncated normal, runs on numpy alone."""
    assert _modules_after_every_command(tmp_path, "scipy") == "[]"


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this Python has no built-in SHA-256 module")
def test_no_cli_command_loads_openssl_numpy_polynomial_or_numpy_ma(tmp_path):
    """No command maps libcrypto (via `_hashlib`) or imports numpy.polynomial
    or numpy.ma (which `np.unique` without index flags imports)."""
    assert _modules_after_every_command(
        tmp_path, "_hashlib", "numpy.polynomial", "numpy.ma") == "[]"


# numpy functions that sort, or select by sorting, under their own kernels
_SORTING = ("sort", "argsort", "unique", "partition", "argpartition", "lexsort",
            "median", "percentile", "quantile")


def test_every_command_sorts_with_the_one_stable_argsort(tmp_path):
    """Every sort a command runs is `argsort(kind="stable")`, and no command
    calls `unique` (the comb's walls are the runs of its sorted chain), so no
    command maps a second sort kernel.  Spies wrap numpy's module functions
    before `mudk` is imported; they cannot see ndarray methods such as
    `a.sort()`, and `src/` calls none."""
    spies = f"""
import numpy as np
calls = set()
def spy(name, fn):
    def wrapper(*args, **kwargs):
        calls.add((name, len(args), tuple(sorted(kwargs.items()))))
        return fn(*args, **kwargs)
    return wrapper
for name in {_SORTING!r}:
    setattr(np, name, spy(name, getattr(np, name)))
"""
    assert _after_every_command(tmp_path, spies, "sorted(calls)") == repr(
        [("argsort", 1, (("kind", "stable"),))])


def test_python_m_mudk_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    version = subprocess.run([sys.executable, "-m", "mudk", "--version"],
                             capture_output=True, text=True,
                             env=env)
    assert version.returncode == 0
    assert "mu-domain-kit 0.1.0" in version.stdout
    via_m, direct = tmp_path / "m.csv", tmp_path / "d.csv"
    args = ["rates", "--dist", UNIFORM, "--n-list", "10,20"]
    proc = subprocess.run([sys.executable, "-m", "mudk", *args,
                           "--out", str(via_m)], env=env)
    assert proc.returncode == 0
    assert main([*args, "--out", str(direct)]) == 0
    assert via_m.read_bytes() == direct.read_bytes()


# ---------------------------------------------------- many calls, one process

def test_main_called_repeatedly_in_one_process(tmp_path, monkeypatch, capsys):
    """No call leaves a flag or an error behind for the next one."""
    args = ["rates", "--dist", UNIFORM, "--n-list", "10,20"]
    assert run(*args, "--no-such-flag") == 2
    assert run("rates", "--dist", '{"family": "no-such-family"}') == 2
    assert "config error" in capsys.readouterr().err
    out = tmp_path / "out.csv"
    assert run(*args, "--out", str(out)) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run(*args) == 0
    assert sorted(p.name for p in cwd.iterdir()) == ["rates.csv"]
    # the bytes of a first call in a fresh process
    clean = tmp_path / "clean.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-m", "mudk", *args, "--out", str(clean)],
                   env=env, check=True)
    assert (cwd / "rates.csv").read_bytes() == clean.read_bytes()
    assert out.read_bytes() == clean.read_bytes()


def _second_call_garbage(argv, capsys):
    """The count that `gc.collect()` returns after a second `main(argv)`,
    and the objects it found unreachable; the first call warms every cache."""
    assert main(argv) == 0
    gc.collect()
    saved = len(gc.garbage)
    gc.disable()
    try:
        assert main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    garbage = gc.garbage[saved:]
    del gc.garbage[saved:]
    capsys.readouterr()
    return found, garbage


def _built_inputs(tmp_path):
    """A beta(2,5) boundary and exit samples from it, in tmp_path."""
    assert run("build", "--dist", BETA, "--n", "20", "--points", "64",
               "--out", str(tmp_path / "b.csv")) == 0
    assert run("simulate", "--dist", BETA, "--boundary", str(tmp_path / "b.csv"),
               "--walks", "50", "--out", str(tmp_path / "s.csv")) == 0


@pytest.mark.parametrize("command", [
    ["rates", "--dist", BETA, "--n-list", "10,20"],
    ["build", "--dist", BETA, "--n", "20", "--points", "64", "--svg", "b.svg"],
    ["map", "--dist", BETA, "--n", "20"],
    ["simulate", "--dist", BETA, "--boundary", "b.csv", "--walks", "50",
     "--out", "s2.csv"],
    ["check", "--dist", BETA, "--samples", "s.csv"],
], ids=lambda argv: argv[0])
def test_command_leaves_no_cyclic_garbage(tmp_path, monkeypatch, capsys, command):
    """No command leaves objects in reference cycles: every JSON report, the
    summaries and `check`'s, is written by `cli._json_text`, not by the
    pure-Python encoder of `json.dumps(..., indent=2)`, whose closures each
    call leaves in cycles."""
    monkeypatch.chdir(tmp_path)
    _built_inputs(tmp_path)
    found, garbage = _second_call_garbage(command, capsys)
    assert found == 0, sorted({type(obj).__name__ for obj in garbage})
