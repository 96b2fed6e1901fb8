"""Smoke test of the benchmark: a reduced run of every workload.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced at reduced sizes (run.py
--smoke), with one extra command whose distribution spec is invalid.  It
takes about a minute and is not part of the package's own test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# End-to-end figures the report prints besides the gated ones.
PRINTED = {"setup_s", "wall_s", "peak_rss_mb", "failed_share", "checks_failed"}
PER_COMMAND = {"mc_verify": {"build_s", "simulate_s", "check_s", "walks_per_s"},
               "error_budget": {"rates_s"},
               "geometry": {"build_s", "map_s"}}
# Monte Carlo checks can fail by chance at the reduced walk count.
STATISTICAL = (" ks_target: ", " mean: ")


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failures = [line for line in lines[:-1] if line.startswith("check ") and " FAIL" in line
                and "known baseline failure" not in line
                and not any(s in line for s in STATISTICAL)]
    assert not failures
    return lines[:-1], result


def invalid_spec_runs(report) -> int:
    """Plan runs in which the invalid spec exited with code 2 as expected."""
    prefix = "command invalid_spec rates: exit 2 as expected, counted as failed ["
    (line,) = [line for line in report if line.startswith(prefix)]
    return int(line[len(prefix):].split()[0])


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_metric_and_counts_the_invalid_spec(workload):
    report, result = bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])

    printed = {}
    for line in report:
        if line.startswith("metric "):
            _, name, _, value, unit = line.split()[:5]
            printed[name] = (float(value), unit)
    assert PRINTED | PER_COMMAND[workload] <= set(printed)
    assert all(unit for _, unit in printed.values())

    # the invalid spec fails with exit code 2 once per plan run, is counted,
    # and the run goes on
    runs = invalid_spec_runs(report)
    assert runs >= 1 and result["failed"] == runs
    assert printed["failed_share"][0] == pytest.approx(runs / result["attempted"], rel=1e-5)
    if workload != "mc_verify":
        assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_matches_untraced_outputs(workload):
    report, result = bench(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    assert any(line.startswith("traced outputs match") for line in report)
    assert not any("DIFFER" in line for line in report)
    assert result["failed"] == invalid_spec_runs(report) == 3    # once per pass
