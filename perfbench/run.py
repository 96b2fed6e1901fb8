"""Benchmark of the mudk command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from `src/`,
and scratch files go to `.perfbench/`, which is removed at the end.

With --trace 0 one fresh Python process runs the workload's plan (see
workloads.py) again and again until S seconds have passed, calling
`mudk.cli.main` once per command.  Each command's time is its median over
these repetitions; set-up time is the median time to start a fresh
interpreter and `import mudk`.

With --trace 1 each repetition runs the plan three times, each in a fresh
process: untraced, then a timing pass with every layer wrapped by
tracing.py, then a memory pass that adds tracemalloc inside the kernel
and sampler spans.  The per-layer metrics are medians over repetitions.
All three must write byte-identical files, exit samples included, and the
tracing overhead is the timing pass's command time minus the untraced
command time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
metric names and units are those of BENCHMARK.json at the checkout root.
--smoke runs reduced sizes plus one command with an invalid distribution
spec, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Every process this run starts must end before this many seconds have
# passed since the run began; one that is still running then is killed.
RUN_TIMEOUT_S = 170
SETUP_LAUNCHES = 5

# End-to-end figures printed beside the gated ones; each exists on the
# workloads that run the command it times.
_COMMAND_METRICS = ("build", "simulate", "check", "rates", "map")
_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "walks_per_s": "1/s",
          "failed_share": "share", "checks_failed": "count",
          **{f"{c}_s": "s" for c in _COMMAND_METRICS}}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine_line(root: str, seed: int) -> str:
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist}={metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist}=missing")
    threads = os.environ.get("MUDK_THREADS")
    return (f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={sys.version.split()[0]} {' '.join(versions)} "
            f"commit={git_commit(root)} seed={seed} "
            f"MUDK_THREADS={'unset' if threads is None else threads}")


def git_commit(root: str) -> str:
    """HEAD of the checkout's own .git, read from files; 'none' outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


class Runner:
    """Launches the worker and set-up processes of one benchmark run."""

    def __init__(self, root: str, workload: str, seed: int, smoke: bool):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.dir = os.path.join(root, ".perfbench", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.plan = os.path.join(self.dir, "plan.json")
        with open(self.plan, "w") as fh:
            json.dump(workloads.plan(workload, seed, smoke), fh, indent=1)
        self.count = 0
        self.deadline = perf_counter() + RUN_TIMEOUT_S

    def _run(self, cmd, cwd) -> subprocess.CompletedProcess:
        """Run a child process to completion, killing it at the deadline."""
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
        return subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                              text=True, timeout=left)

    def setup_times(self, launches: int) -> list[float]:
        """Seconds to start a fresh interpreter and import mudk, per launch."""
        times = []
        for _ in range(launches):
            start = perf_counter()
            proc = self._run([sys.executable, "-c", "import mudk"], self.root)
            times.append(perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError(f"import mudk failed:\n{proc.stderr}")
        return times

    def worker(self, mode: str, seconds: float = 0.0) -> tuple[dict, str]:
        """One fresh process running the plan in `mode` (plain, timing or memory).

        The process repeats the plan until `seconds` have passed.  Returns
        its result and the directory holding its outputs.
        """
        self.count += 1
        out_dir = os.path.join(self.dir, f"run{self.count}")
        os.makedirs(out_dir)
        result_path = out_dir + ".json"
        cmd = [sys.executable, WORKER, self.plan, result_path, mode, str(seconds)]
        proc = self._run(cmd, out_dir)
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
        with open(result_path) as fh:
            return json.load(fh), out_dir

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass                    # another run still uses .perfbench


def same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """End-to-end times of the untraced repetitions: figures and their samples.

    Each command's time is its median over the repetitions; a figure sums
    the medians of the commands it covers, so a stall that hits different
    commands in different repetitions is left out.
    """
    per_command = [[c["seconds"] for c in runs] for runs in
                   zip(*(r["commands"] for r in reps))]
    names = [c["command"] for c in reps[0]["commands"]]
    medians = [statistics.median(times) for times in per_command]
    figures = {"wall_s": sum(medians)}
    samples = {"wall_s": [sum(c["seconds"] for c in r["commands"]) for r in reps]}
    for command in _COMMAND_METRICS:
        if command in names:
            figures[f"{command}_s"] = sum(m for m, n in zip(medians, names) if n == command)
            samples[f"{command}_s"] = [sum(c["seconds"] for c in r["commands"]
                                           if c["command"] == command) for r in reps]
    if reps[0]["walks"]:
        figures["walks_per_s"] = reps[0]["walks"] / figures["simulate_s"]
        samples["walks_per_s"] = [r["walks"] / s for r, s in zip(reps, samples["simulate_s"])]
    return figures, samples


class Tally:
    """Operations and checks over every worker run of one benchmark run."""

    def __init__(self):
        self.runs = 0
        self.attempted = self.failed = 0
        self.checks_run = self.checks_failed = self.unexpected = 0
        self._lines: dict[str, int] = {}

    def note(self, line: str):
        self._lines[line] = self._lines.get(line, 0) + 1

    def report(self) -> str:
        """Each distinct line once, with the number of worker runs that gave it."""
        return "\n".join(f"{line} [{n} of {self.runs} plan runs]" for line, n in self._lines.items())

    def add(self, rep: dict):
        self.runs += 1
        for c in rep["commands"]:
            self.attempted += 1
            self.failed += c["exit_code"] != 0
            if c["exit_code"] != c["expected_exit"]:
                self.unexpected += 1
                self.note(f"command {c['scenario']} {c['command']}: exit {c['exit_code']}, "
                          f"expected {c['expected_exit']}: {c['stderr'].strip()}")
            elif c["exit_code"] != 0:
                self.note(f"command {c['scenario']} {c['command']}: exit "
                          f"{c['exit_code']} as expected, counted as failed")
        self.attempted += rep["walks"]
        self.failed += rep["walks_truncated"]
        for chk in rep["checks"]:
            self.checks_run += 1
            status = "PASS" if chk["passed"] else "FAIL"
            if not chk["passed"]:
                self.checks_failed += 1
                if chk["known_failure"]:
                    status += " (known baseline failure: " + chk["known_failure"] + ")"
                else:
                    self.unexpected += 1
            elif chk["known_failure"]:
                status += " (listed as a known failure; it now passes)"
            self.note(f"check {chk['scenario']} {chk['name']}: "
                      f"{chk['value']!r} vs {chk['limit']!r} {status}")


def fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"metric {name} = {value:.6g} {unit}{note}"


def bench(args, spec: dict) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mudk", "cli.py")):
        raise BenchError(f"no mudk sources at {os.path.join(root, 'src', 'mudk')}; "
                         "run from the root of a checkout")
    print(machine_line(root, args.seed))
    runner = Runner(root, args.workload, args.seed, args.smoke)
    try:
        with open(runner.plan) as fh:
            for scenario in json.load(fh):
                for cmd in scenario["commands"]:
                    print(f"scenario {scenario['name']}: mudk "
                          + " ".join(a if " " not in a else repr(a) for a in cmd))
        tally = Tally()
        if args.trace:
            return traced_run(args, spec, runner, tally)
        return untraced_run(args, spec, runner, tally)
    finally:
        runner.close()


def untraced_run(args, spec, runner, tally) -> dict:
    setup = runner.setup_times(2 if args.smoke else SETUP_LAUNCHES)
    result, _ = runner.worker("plain", args.seconds)
    for rep in result["reps"]:
        tally.add(rep)
    print(tally.report())
    figures, samples = end_to_end(result["reps"])
    figures["peak_rss_mb"] = result["peak_rss_mb"]
    figures["setup_s"] = statistics.median(setup)
    samples["setup_s"] = setup
    figures["failed_share"] = tally.failed / tally.attempted
    figures["checks_failed"] = tally.checks_failed
    print(f"workload {args.workload}: {len(result['reps'])} repetitions in one fresh process; "
          "times are sums of per-command medians over them, set-up is the median "
          f"of {len(setup)} launches")
    for name, value in figures.items():
        if name == "failed_share":
            note = f" ({tally.failed} of {tally.attempted} commands and walks)"
        elif name == "checks_failed":
            note = f" (of {tally.checks_run} checks run)"
        elif name in samples:
            note = " (samples: " + " ".join(f"{v:.4g}" for v in samples[name]) + ")"
        else:
            note = ""
        print(fmt(name, value, _UNITS[name], note))
    gated = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
             for m in spec["end_to_end"]}
    return {"correct": tally.unexpected == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": gated}


def traced_run(args, spec, runner, tally) -> dict:
    start = perf_counter()
    layers, overheads, identical = [], [], True
    sizes = None
    while not layers or perf_counter() - start < args.seconds:
        plain, plain_dir = runner.worker("plain")
        timing, timing_dir = runner.worker("timing")
        memory, memory_dir = runner.worker("memory")
        for rep, out_dir in ((timing, timing_dir), (memory, memory_dir)):
            tally.add(rep["reps"][0])
            same = same_files(plain_dir, out_dir)
            identical &= same
            tally.note(f"traced outputs {'match' if same else 'DIFFER FROM'} "
                       "the untraced outputs byte for byte")
        tally.add(plain["reps"][0])
        overheads.append(sum(c["seconds"] for c in timing["reps"][0]["commands"])
                         - sum(c["seconds"] for c in plain["reps"][0]["commands"]))
        layers.append({**timing["layers"], **memory["layers"]})
        sizes = timing["sizes"]
        for out_dir in (plain_dir, timing_dir, memory_dir):
            shutil.rmtree(out_dir)
    print(tally.report())
    for scenario, figures in sizes.items():
        if figures:
            print(f"sizes {scenario}: " + " ".join(
                f"{k}={','.join(str(v) for v in vals)}" for k, vals in figures.items()))
    medians = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
    medians["trace.overhead_s"] = statistics.median(overheads)
    print(f"workload {args.workload}: {len(layers)} traced repetitions, each an untraced, "
          "a timing and a memory pass in fresh processes; figures are medians over them")
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": medians[m["name"]], "unit": m["unit"]}
        print(fmt(m["name"], medians[m["name"]], m["unit"]))
    return {"correct": identical and tally.unexpected == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes plus one invalid command (self-test)")
    args = parser.parse_args(argv)
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        result = bench(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
