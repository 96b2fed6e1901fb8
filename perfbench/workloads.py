"""Scenario plans of the benchmark workloads.

A plan is plain JSON data: an ordered list of scenarios, each holding the
`mudk` command lines it runs.  The worker process executes a plan through
`mudk.cli.main`, so every number the benchmark reports comes from the path
a user of the command line takes.

Why these workloads (each one loads a different layer):

- mc_verify: build -> simulate -> check.  About 90 % of its time is the
  Euler exit sampler (`verify_mc`); the n=2000 domain has ten times the
  teeth of the n=200 ones, and the truncated exponential carries an atom,
  which takes the atom/cap path of the sampler.
- error_budget: `rates` for the five reference laws.  Its time is
  `discretize.l1_distance` and the `distributions` methods under it;
  `hilbert` and `verify_mc` do no work, so it is the control workload for
  sampler and kernel changes.
- geometry: `build --svg` at 8192 points per half and `map` with the
  default 8*n terms, all at n=2000.  The dense Hilbert and Fourier kernels
  and the CSV/SVG writers dominate time and peak memory.
"""

from __future__ import annotations

import json

UNIFORM = {"family": "uniform", "a": -1, "b": 1}
BETA = {"family": "beta", "alpha": 2, "beta": 5}
TRUNC_NORMAL = {"family": "truncated-normal", "mu": 0, "sigma": 1,
                "lo": -2, "hi": 2}
TRUNC_EXP = {"family": "exponential", "rate": 1, "truncate": 3}
MIXTURE = {"family": "mixture", "components": [
    {"weight": 0.5, "dist": UNIFORM},
    {"weight": 0.5, "dist": {"family": "discrete", "atoms": [[0.0, 1.0]]}}]}

WORKLOADS = ("mc_verify", "error_budget", "geometry")

# Acceptance 8's bounds for the Monte Carlo check.
KS_MAX = 0.05
MEAN_MAX = 0.03

# Checks that fail on the code this benchmark was written against.  They
# are still run and reported; they only do not make the run incorrect.
# Keyed by (law, check name).
KNOWN_FAILURES = {
    ("exponential", "ks_target"):
        "the polyline roof and cap-depth handling bias exits of the "
        "truncated exponential (atom at 0)",
    ("exponential", "mean"):
        "same bias as ks_target",
}

# Full and reduced ("smoke") sizes.  The reduced sizes keep every command
# and check but run in seconds.
_SIZES = {
    False: {"mc_points": 2048, "mc_walks": 4000, "mc_n": (200, 2000, 200),
            "n_list": "200,2000", "tn_list": "200",
            "geo_n": 2000, "geo_points": 8192},
    True: {"mc_points": 256, "mc_walks": 300, "mc_n": (40, 100, 40),
           "n_list": "20,50", "tn_list": "10",
           "geo_n": 100, "geo_points": 512},
}


def _dist(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


def _mc_verify(seed: int, size: dict) -> list[dict]:
    laws = (("uniform", UNIFORM), ("beta", BETA), ("exponential", TRUNC_EXP))
    scenarios = []
    for (law, spec), n in zip(laws, size["mc_n"]):
        name = f"{law}_n{n}"
        dist = _dist(spec)
        scenarios.append({"name": name, "law": law, "commands": [
            ["build", "--dist", dist, "--n", str(n),
             "--points", str(size["mc_points"]), "--out", f"{name}.boundary.csv"],
            ["simulate", "--dist", dist, "--boundary", f"{name}.boundary.csv",
             "--walks", str(size["mc_walks"]), "--step", "1e-4",
             "--seed", str(seed), "--out", f"{name}.samples.csv"],
            ["check", "--dist", dist, "--samples", f"{name}.samples.csv"],
        ]})
    return scenarios


def _error_budget(size: dict) -> list[dict]:
    laws = (("uniform", UNIFORM, size["n_list"]),
            ("beta", BETA, size["n_list"]),
            # truncated normal stays at the small n: n=2000 alone takes ~60 s
            ("truncated_normal", TRUNC_NORMAL, size["tn_list"]),
            ("exponential", TRUNC_EXP, size["n_list"]),
            ("mixture", MIXTURE, size["n_list"]))
    return [{"name": law, "law": law, "commands": [
        ["rates", "--dist", _dist(spec), "--n-list", n_list,
         "--out", f"{law}.rates.csv"]]} for law, spec, n_list in laws]


def _geometry(size: dict) -> list[dict]:
    n, points = size["geo_n"], size["geo_points"]
    scenarios = []
    for law, spec in (("uniform", UNIFORM), ("beta", BETA), ("mixture", MIXTURE)):
        name = f"{law}_n{n}"
        dist = _dist(spec)
        scenarios.append({"name": name, "law": law, "commands": [
            ["build", "--dist", dist, "--n", str(n), "--points", str(points),
             "--out", f"{name}.boundary.csv", "--svg", f"{name}.svg"],
            ["map", "--dist", dist, "--n", str(n), "--out", f"{name}.map.csv"],
        ]})
    return scenarios


def plan(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Scenarios of one workload; `seed` goes to every `simulate`.

    The smoke plan uses reduced sizes and ends with a command whose
    distribution spec is invalid, which must be counted as one failed
    operation (exit code 2) without stopping the run.
    """
    size = _SIZES[smoke]
    if workload == "mc_verify":
        scenarios = _mc_verify(seed, size)
    elif workload == "error_budget":
        scenarios = _error_budget(size)
    elif workload == "geometry":
        scenarios = _geometry(size)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    if smoke:
        scenarios.append({"name": "invalid_spec", "law": None, "expect_exit": 2,
                          "commands": [["rates", "--dist", _dist({"family": "no-such-law"}),
                                        "--out", "invalid.rates.csv"]]})
    return scenarios
