"""Run one workload plan in a fresh process and write its results as JSON.

    python worker.py PLAN.json RESULT.json plain|timing|memory SECONDS

The current directory is the scratch directory the commands write into,
and `mudk` must be importable (run.py puts the checkout's `src` on
PYTHONPATH).  Each command goes through `mudk.cli.main`, as the `mudk`
console script would run it; a nonzero exit code is recorded and the run
goes on.  The plan is run again and again until SECONDS have passed (at
least once).  The outputs of every successful command are checked, and a
failed check is recorded, not raised.

In the timing and memory modes the layers are wrapped by `tracing.install`
first, and the result also holds per-layer metrics: a timing pass gives
spans, counts and problem sizes, a memory pass the peak-memory metrics.
"""

from __future__ import annotations

import io
import json
import os
import re
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from mudk import cli, discretize, hilbert
from mudk.distributions import Discrete
from mudk.verify_mc import ks_distance

import tracing
from workloads import KNOWN_FAILURES, KS_MAX, MEAN_MAX

_HEADER = re.compile(r"# mu-domain-kit v\S+, config hash [0-9a-f]{12}")


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _data_lines(path, columns):
    """Data rows of a CSV the CLI wrote, after checking its two header lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not _HEADER.fullmatch(lines[0]) or lines[1] != columns:
        return None
    return lines[2:]


def _svg_vertices(path) -> int:
    with open(path) as fh:
        match = re.search(r' d="([^"]*)"', fh.read())
    return len(re.findall(r"[ML] ", match.group(1))) if match else 0


class Recorder:
    """Commands, checks and walk counts of one run of a plan."""

    def __init__(self):
        self.commands: list[dict] = []
        self.checks: list[dict] = []
        self.walks = 0
        self.walks_truncated = 0
        self.mc: dict[str, dict] = {}

    def check(self, scenario, name, passed, value, limit):
        self.checks.append({
            "scenario": scenario["name"], "name": name, "passed": bool(passed),
            "value": value, "limit": limit,
            "known_failure": KNOWN_FAILURES.get((scenario["law"], name)),
        })

    def check_outputs(self, scenario, argv, stdout):
        """Check the files and report one successful command produced."""
        command = argv[0]
        if command == "build":
            rows = 2 * int(_opt(argv, "--points"))
            lines = _data_lines(_opt(argv, "--out"), "t,x,y")
            self.check(scenario, "boundary_csv_rows", lines is not None and len(lines) == rows,
                       None if lines is None else len(lines), rows)
            if _opt(argv, "--svg"):
                vertices = _svg_vertices(_opt(argv, "--svg"))
                self.check(scenario, "svg_vertices", vertices == rows, vertices, rows)
        elif command == "simulate":
            walks = int(_opt(argv, "--walks"))
            out = _opt(argv, "--out")
            with open(out.rpartition(".")[0] + ".summary.json") as fh:
                truncated = int(json.load(fh)["truncated"])
            self.walks += walks
            self.walks_truncated += truncated
            lines = _data_lines(out, "walk,x_exit")
            self.check(scenario, "samples_rows",
                       lines is not None and len(lines) == walks - truncated,
                       None if lines is None else len(lines), walks - truncated)
        elif command == "check":
            report = json.loads(stdout)
            self.mc[scenario["name"]] = report
            self.check(scenario, "ks_target", report["ks"] < KS_MAX, report["ks"], KS_MAX)
            self.check(scenario, "mean", abs(report["mean"]) < MEAN_MAX,
                       report["mean"], MEAN_MAX)
        elif command == "rates":
            ns = [int(n) for n in _opt(argv, "--n-list").split(",")]
            lines = _data_lines(_opt(argv, "--out"), "n,l1,bound,varpi") or []
            self.check(scenario, "rates_rows", len(lines) == len(ns), len(lines), len(ns))
            for line in lines:
                n, l1, bound, _ = line.split(",")
                n, l1, bound = int(n), float(l1), float(bound)
                self.check(scenario, f"l1_le_bound_n{n}", l1 <= bound + 1e-12, l1, bound)
                if scenario["law"] == "uniform":
                    self.check(scenario, f"l1_exact_n{n}", abs(l1 - 1.0 / n) <= 1e-8,
                               l1, 1.0 / n)
        elif command == "map":
            # the default is 8 terms per step, and the step count of a law
            # differs from n by its atoms and empty cells, so only the
            # row layout and a floor are checked
            lines = _data_lines(_opt(argv, "--out"), "k,a_k") or []
            rows = [line.split(",") for line in lines]
            ok = (len(rows) >= 256
                  and [int(k) for k, _ in rows] == list(range(1, len(rows) + 1))
                  and all(np.isfinite(float(a)) for _, a in rows))
            self.check(scenario, "map_rows", ok, len(rows), ">= 256, k = 1..rows, finite")


def run_command(call, argv):
    """Exit code, seconds, stdout and stderr of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call(argv)
    except SystemExit as exc:       # argparse rejects bad command lines this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:               # would end a `mudk` process with code 1
        code = 1
        err.write(traceback.format_exc())
    return code, perf_counter() - start, out.getvalue(), err.getvalue()


class Sizes:
    """Problem sizes and error figures collected through tracer hooks."""

    def __init__(self, tracer):
        self.scenario = None
        self.per_scenario: dict[str, dict] = {}
        self.totals = dict.fromkeys(
            ("steps", "poles", "hilbert_cells", "nudged", "csv_bytes", "terms",
             "map_cells", "walks", "walks_truncated", "walks_accepted"), 0)
        self.hilbert_cells_max = 0
        self.l1_over_bound: list[float] = []
        self.ks_qn: list[float] = []
        self._l1: list[float] = []
        self._built = None           # (law, n, sq) of the last build_measure
        self._shift = None           # (alpha, beta) of the last scale_domain
        for name, hook in (("discretize.build_measure", self._build_measure),
                           ("discretize.l1_distance", self._l1_distance),
                           ("discretize.rate_bound", self._rate_bound),
                           ("boundary.parameter_grid", self._parameter_grid),
                           ("boundary.scale_domain", self._scale_domain),
                           ("boundary.export_csv", self._export_csv),
                           ("hilbert.hilbert_step_quantile", self._hilbert),
                           ("gross_map.fourier_coefficients", self._fourier),
                           ("verify_mc.simulate_exit", self._simulate)):
            tracer.on_return(name, hook)

    def start(self, scenario):
        self.scenario = scenario
        self.per_scenario[scenario] = {}
        self._built = self._shift = None

    def _show(self, label, value):
        self.per_scenario[self.scenario].setdefault(label, []).append(value)

    def _add(self, key, value):
        self.totals[key] += value
        self._show(key, value)

    def _build_measure(self, args, kwargs, sq):
        self._built = (args[0], args[1], sq)
        self._add("steps", sq.num_steps)

    def _l1_distance(self, args, kwargs, l1):
        self._l1.append(l1)

    def _rate_bound(self, args, kwargs, rb):
        self.l1_over_bound.append(self._l1.pop(0) / rb.bound)

    def _parameter_grid(self, args, kwargs, t):
        m = t.size
        self._add("nudged", int(np.count_nonzero(t != (np.arange(1, m + 1) - 0.5) / m)))

    def _scale_domain(self, args, kwargs, bp):
        self._shift = (float(args[1]), float(args[2]))

    def _export_csv(self, args, kwargs, result):
        self._add("csv_bytes", os.path.getsize(args[1]))

    def _hilbert(self, args, kwargs, result):
        # each pole is one live jump, i.e. one column of the dense kernel
        poles, points = int(hilbert.pole_levels(args[0]).size), int(np.size(args[1]))
        self._add("poles", poles)
        self._add("hilbert_cells", points * poles)
        self._show("hilbert_kernel", f"{points}x{poles}")
        self.hilbert_cells_max = max(self.hilbert_cells_max, points * poles)

    def _fourier(self, args, kwargs, fc):
        sq = args[0]
        self._add("terms", fc.order)
        self._add("map_cells", fc.order * sq.breakpoints.size)
        self._show("map_kernel", f"{fc.order}x{sq.breakpoints.size}")

    def _simulate(self, args, kwargs, res):
        self._add("walks", res.walks)
        self._add("walks_truncated", res.truncated_walks)
        self._add("walks_accepted", int(res.samples.size))

    def error_split(self, samples_path):
        """KS against q_n, and L1 over its bound, for the scenario just checked.

        q_n is the step quantile's own discrete law, mapped back through the
        affine map `scale_domain` received, as the build command maps it.
        """
        law, n, sq = self._built
        alpha, beta = self._shift
        locs, index = np.unique(alpha * sq.values + beta, return_inverse=True)
        masses = np.zeros(locs.size)
        np.add.at(masses, index, sq.widths())
        ks_qn = ks_distance(cli.load_samples_csv(samples_path),
                            Discrete(zip(locs.tolist(), masses.tolist())))
        ratio = discretize.l1_distance(law, sq) / discretize.rate_bound(law, n).bound
        self.ks_qn.append(ks_qn)
        self.l1_over_bound.append(ratio)
        self._show("ks_qn", ks_qn)
        self._show("l1_over_bound", ratio)


def layer_metrics(tracer, sizes, rec) -> dict:
    """Per-layer metrics of one traced run, by the names in BENCHMARK.json.

    A memory pass gives only the peak-memory metrics; a timing pass gives
    all the others.
    """
    mb = 1e-6
    if tracer.memory:
        return {metric: tracer.peak_bytes[span] * mb
                for span, metric in tracing.PEAK_SPANS.items()}
    t, s, tot = tracer.total_s, tracer.self_s, sizes.totals
    walks = tot["walks"]
    metrics = {
        "distributions.calls": tracer.layer_calls("distributions"),
        "distributions.self_s": tracer.layer_self_s("distributions"),
        "discretize.build_measure_s": t["discretize.build_measure"],
        "discretize.steps": tot["steps"],
        "discretize.l1_distance_s": t["discretize.l1_distance"],
        "discretize.l1_self_s": s["discretize.l1_distance"],
        "discretize.rate_bound_s": t["discretize.rate_bound"],
        "discretize.l1_over_bound": max(sizes.l1_over_bound, default=0.0),
        "hilbert.hilbert_step_quantile_s": t["hilbert.hilbert_step_quantile"],
        "hilbert.poles": tot["poles"],
        "hilbert.kernel_cells": tot["hilbert_cells"],
        # one float64 (points x live jumps) matrix, computed from the shape
        "hilbert.kernel_mb": 8 * sizes.hilbert_cells_max * mb,
        "boundary.boundary_points_s": t["boundary.boundary_points"],
        "boundary.self_s": tracer.layer_self_s("boundary"),
        "boundary.nudged_points": tot["nudged"],
        "boundary.export_csv_s": t["boundary.export_csv"],
        "boundary.load_csv_s": t["boundary.load_csv"],
        "boundary.export_svg_s": t["boundary.export_svg"],
        "boundary.csv_bytes": tot["csv_bytes"],
        "gross_map.fourier_coefficients_s": t["gross_map.fourier_coefficients"],
        "gross_map.terms": tot["terms"],
        "gross_map.kernel_cells": tot["map_cells"],
        "verify_mc.simulate_exit_s": t["verify_mc.simulate_exit"],
        "verify_mc.walks": walks,
        "verify_mc.walks_truncated": tot["walks_truncated"],
        "verify_mc.accept_ratio": tot["walks_accepted"] / walks if walks else 0.0,
        "verify_mc.ks_distance_s": t["verify_mc.ks_distance"],
        "verify_mc.ks_target": max((r["ks"] for r in rec.mc.values()), default=0.0),
        "verify_mc.ks_qn": max(sizes.ks_qn, default=0.0),
    }
    for command in ("build", "simulate", "check", "rates", "map"):
        metrics[f"cli.{command}_self_s"] = s[f"cli.{command}"]
    return metrics


def run_plan(scenarios, call, mode, sizes, tracer) -> Recorder:
    """Run every command of the plan once, checking the outputs as it goes."""
    rec = Recorder()
    for scenario in scenarios:
        name = scenario["name"]
        if sizes:
            sizes.start(name)
        for args in scenario["commands"]:
            code, seconds, stdout, stderr = run_command(call, args)
            rec.commands.append({"scenario": name, "command": args[0], "exit_code": code,
                                 "expected_exit": scenario.get("expect_exit", 0),
                                 "seconds": seconds, "stderr": stderr[-400:]})
            if code != 0:
                continue
            rec.check_outputs(scenario, args, stdout)
            if mode == "timing" and args[0] == "check":
                with tracer.paused():
                    sizes.error_split(_opt(args, "--samples"))
    return rec


def main(argv) -> int:
    plan_path, result_path, mode, seconds = argv[0], argv[1], argv[2], float(argv[3])
    with open(plan_path) as fh:
        scenarios = json.load(fh)
    call = cli.main
    tracer = sizes = None
    if mode != "plain":
        tracer = tracing.Tracer(memory=mode == "memory")
        sizes = Sizes(tracer)
        tracing.install(tracer)

        def call(args):
            return tracer.call(f"cli.{args[0]}", cli.main, (args,), {})

    # The plan is repeated in this process until `seconds` have passed;
    # a traced pass is given 0 seconds, so it runs the plan once.
    reps = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        reps.append(run_plan(scenarios, call, mode, sizes, tracer))
    result = {
        "reps": [{"commands": r.commands, "checks": r.checks, "walks": r.walks,
                  "walks_truncated": r.walks_truncated} for r in reps],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, sizes, reps[0])
        result["sizes"] = sizes.per_scenario
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
