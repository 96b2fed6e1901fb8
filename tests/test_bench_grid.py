"""The scenario-grid tool runs end to end at reduced sizes."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import mudk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_grid.py")
LAYERS = {"cdf", "quantile", "build_measure", "rate_bound", "l1_distance",
          "parameter_grid", "boundary_points", "fourier_coefficients",
          "simulate_exit", "ks_distance"}


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_grid", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(out, label, *extra):
    subprocess.run([sys.executable, TOOL, ROOT, str(out), "--label", label,
                    "--points", "64", "--repeat", "2", *extra],
                   check=True, capture_output=True, text=True, timeout=120)


def test_bench_grid_writes_every_law_size_and_layer(tmp_path):
    out = tmp_path / "grid.json"
    _run(out, "before", "--n", "20,50")
    _run(out, "after", "--n", "20,50")
    data = json.loads(out.read_text())
    assert set(data) == {"before", "after"}
    entry = data["after"]
    assert entry["machine"].startswith("nproc=") and entry["repeat"] == 2
    rows = entry["rows"]
    assert [(r["law"], r["n"]) for r in rows] == [
        (law, n) for law in ("uniform", "beta", "truncated_normal",
                             "truncated_exponential", "mixture") for n in (20, 50)]
    laws = _load_tool().reference_laws(mudk)
    for row in rows:
        # the default term count: from 256 up to the cap of 8 per step
        sq = mudk.build_measure(laws[row["law"]](), row["n"])
        assert row["points"] == 64 and row["terms"] == mudk.fourier_coefficients(sq).order
        assert 256 <= row["terms"] <= max(256, 8 * row["steps"])
        assert 0 < row["jumps"] <= row["steps"]
        # the comb has a wall per distinct rendered abscissa: at most one
        # per step value and one per boundary point
        assert 2 <= row["walls"] <= min(row["steps"], row["points"])
        assert set(row["layers"]) == LAYERS
        for m in row["layers"].values():
            assert 0 < m["best_s"] <= m["median_s"] and m["peak_mb"] > 0


def test_compare_mode_writes_both_sides_cell_by_cell(tmp_path, monkeypatch):
    """A copy of src/ as PARENT: both sides load in this one process, each from
    its own checkout, and each gets every requested cell, in order."""
    parent = tmp_path / "parent"
    shutil.copytree(os.path.join(ROOT, "src"), parent / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tool = _load_tool()

    def no_child(*args, **kwargs):
        raise AssertionError("the tool started a child process")

    for name in ("fork", "posix_spawn", "posix_spawnp", "system"):
        monkeypatch.setattr(os, name, no_child)
    monkeypatch.setattr(subprocess, "Popen", no_child)
    # the parent is the first side, the change the second
    sides = {"mudk_0": str(parent / "src" / "mudk"),
             "mudk_1": os.path.join(ROOT, "src", "mudk")}
    out = tmp_path / "grid.json"
    try:
        assert tool.main([ROOT, str(out), "--label", "self", "--points", "64",
                          "--repeat", "2", "--n", "20", "--law", "uniform,mixture",
                          "--parent", str(parent)]) == 0
        loaded = {name: module.__file__ for name, module in sys.modules.items()
                  if name.partition(".")[0] in sides}
    finally:
        for name in [name for name in sys.modules if name.partition(".")[0] in sides]:
            del sys.modules[name]
    homes = {side: {} for side in sides}
    for name, path in loaded.items():
        side, _, sub = name.partition(".")
        homes[side][sub] = os.path.dirname(path)
    # both sides load the same modules, each from its own checkout
    assert set(homes["mudk_0"]) == set(homes["mudk_1"]) >= {"", "boundary", "verify_mc"}
    for side, src in sides.items():
        assert set(homes[side].values()) == {src}
    data = json.loads(out.read_text())
    assert set(data) == {"self_parent", "self_change"}
    for entry in data.values():
        assert entry["repeat"] == 2 and "interleaved" not in entry
        assert [(r["law"], r["n"]) for r in entry["rows"]] == [("uniform", 20),
                                                               ("mixture", 20)]
        for row in entry["rows"]:
            assert set(row["layers"]) == LAYERS
    # the same source gives the same problem sizes on both sides
    sizes = [{k: v for k, v in r.items() if k != "layers"}
             for r in data["self_parent"]["rows"]]
    assert sizes == [{k: v for k, v in r.items() if k != "layers"}
                     for r in data["self_change"]["rows"]]
