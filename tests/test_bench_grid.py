"""The scenario-grid tool runs end to end at reduced sizes."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_grid.py")
LAYERS = {"cdf", "quantile", "build_measure", "rate_bound", "l1_distance",
          "parameter_grid", "boundary_points", "fourier_coefficients",
          "simulate_exit", "ks_distance"}


def _run(out, label):
    subprocess.run([sys.executable, TOOL, ROOT, str(out), "--label", label,
                    "--n", "20,50", "--points", "64", "--repeat", "2"],
                   check=True, capture_output=True, text=True, timeout=120)


def test_bench_grid_writes_every_law_size_and_layer(tmp_path):
    out = tmp_path / "grid.json"
    _run(out, "before")
    _run(out, "after")
    data = json.loads(out.read_text())
    assert set(data) == {"before", "after"}
    entry = data["after"]
    assert entry["machine"].startswith("nproc=") and entry["repeat"] == 2
    rows = entry["rows"]
    assert [(r["law"], r["n"]) for r in rows] == [
        (law, n) for law in ("uniform", "beta", "truncated_normal",
                             "truncated_exponential", "mixture") for n in (20, 50)]
    for row in rows:
        assert row["points"] == 64 and row["terms"] == max(256, 8 * row["steps"])
        assert 0 < row["jumps"] <= row["steps"]
        # the comb has a wall per distinct rendered abscissa: at most one
        # per step value and one per boundary point
        assert 2 <= row["walls"] <= min(row["steps"], row["points"])
        assert set(row["layers"]) == LAYERS
        for m in row["layers"].values():
            assert m["median_s"] > 0 and m["peak_mb"] > 0
