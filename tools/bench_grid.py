"""Time and trace each layer, from the laws to the KS check, over the scenario grid.

    python tools/bench_grid.py ROOT OUT --label NAME [--parent PARENT]
                               [--n 200,2000,20000] [--law uniform,...]
                               [--points 8192] [--repeat 3]

ROOT is a checkout of this repository; its `src/mudk` is measured.  With
`--parent PARENT`, a second checkout, both packages are imported into
this one process under two names and each layer's calls alternate
between them, so a drift of the machine falls on both sides alike; the
results go to NAME_parent and NAME_change.  For every law (uniform,
centred beta(2,5), truncated normal, truncated exponential, uniform+atom
mixture) and every n, each side builds the step quantile of the c.d.f.
scheme, its boundary and the exit samples of that boundary once,
untimed, and ten layers are measured:

- `cdf` at `points` abscissas evenly spaced over the support, endpoints
  included, and `quantile` at the `points` levels (i + 1/2)/points, each
  on a law built afresh for each call;
- `build_measure(law, n)`, `rate_bound(law, n)` and `l1_distance(law, sq)`,
  each on a law built afresh for each call, so that what a law computes
  once and keeps (its mass cuts) is counted;
- `parameter_grid(sq, points)`;
- `boundary_points(sq, points)`, which includes the grid and the Hilbert
  kernel;
- `fourier_coefficients(sq)` at the default term count;
- `simulate_exit` on that boundary, with 4000 walks, step 1e-4 and
  seed 3;
- `ks_distance(exits, law)` of those exit samples, against a law built
  afresh for each call.

The timing pass runs `--repeat` rounds of a layer, each calling every
side once, the side that goes first flipping every round, and takes the
median and the best wall time of each side.  A separate pass takes the
tracemalloc peak of one call per side, because tracing slows the layers
down.  OUT is a JSON object keyed by label; an existing file keeps its
other labels.  Each entry records the machine line, the settings and per
(law, n) the problem sizes (steps, jumps, points, terms and the walls of
the sampled comb) and, per layer, `median_s`, `best_s` and `peak_mb`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import tracemalloc
from importlib import metadata
from time import perf_counter

import numpy as np

LAWS = ("uniform", "beta", "truncated_normal", "truncated_exponential", "mixture")
# the exit-sampling layer: walks, shell width and seed of `simulate_exit`
WALKS, STEP, SEED = 4000, 1e-4, 3


def reference_laws(dist):
    """Builders of the five laws of the scenario grid, from the package `dist`."""
    return {
        "uniform": lambda: dist.Uniform(-1.0, 1.0).center(),
        "beta": lambda: dist.Beta(2.0, 5.0).center(),
        "truncated_normal": lambda: dist.TruncatedNormal(0.0, 1.0, -2.0, 2.0).center(),
        "truncated_exponential": lambda: dist.Exponential(1.0).center().truncate(3.0),
        "mixture": lambda: dist.Mixture([(0.5, dist.Uniform(-1.0, 1.0)),
                                         (0.5, dist.Discrete([(0.0, 1.0)]))]).center(),
    }


def machine_line() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"cpu={platform.machine()} python={platform.python_version()} numpy={numpy}")


def load(root: str, name: str):
    """The `mudk` package of the checkout ROOT, imported under NAME.  The package
    imports itself only relatively, so two checkouts load side by side."""
    src = os.path.join(root, "src", "mudk")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def cell(pkg, law: str, n: int, points: int):
    """The row of sizes and the layer calls of one side for one (law, n) cell;
    the inputs of the calls are built here, untimed."""
    parameter_grid = importlib.import_module(".boundary", pkg.__name__).parameter_grid
    comb = importlib.import_module(".verify_mc", pkg.__name__)._comb
    make = reference_laws(pkg)[law]
    sq = pkg.build_measure(make(), n)
    bp = pkg.boundary_points(sq, points)
    exits = pkg.simulate_exit(bp, WALKS, STEP, SEED).samples
    xs = np.linspace(*make().support(), points)
    levels = (np.arange(points) + 0.5) / points
    row = {"law": law, "n": n, "steps": sq.num_steps,
           "jumps": int(pkg.pole_levels(sq).size), "points": points,
           "terms": pkg.fourier_coefficients(sq).order, "walls": int(comb(bp)[0].size)}
    return row, {
        "cdf": lambda: make().cdf(xs),
        "quantile": lambda: make().quantile(levels),
        "build_measure": lambda: pkg.build_measure(make(), n),
        "rate_bound": lambda: pkg.rate_bound(make(), n),
        "l1_distance": lambda: pkg.l1_distance(make(), sq),
        "parameter_grid": lambda: parameter_grid(sq, points),
        "boundary_points": lambda: pkg.boundary_points(sq, points),
        "fourier_coefficients": lambda: pkg.fourier_coefficients(sq),
        "simulate_exit": lambda: pkg.simulate_exit(bp, WALKS, STEP, SEED),
        "ks_distance": lambda: pkg.ks_distance(exits, make()),
    }


def measure(calls: list, repeat: int) -> list:
    """The median and best wall time of `repeat` rounds, each round calling
    every side once, the side that goes first flipping from round to round;
    then the tracemalloc peak of one more call per side."""
    times = [[] for _ in calls]
    order = list(enumerate(calls))
    for r in range(repeat):
        for k, fn in order[::-1] if r % 2 else order:
            start = perf_counter()
            fn()
            times[k].append(perf_counter() - start)
    out = []
    for fn, ts in zip(calls, times):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append({"median_s": statistics.median(ts), "best_s": min(ts),
                    "peak_mb": peak / 2 ** 20})
    return out


def grid(sides: dict, laws_run, sizes, points: int, repeat: int) -> dict:
    """Rows per label of `sides` ({label: checkout}), each layer of a cell
    measured on every side in alternation."""
    pkgs = [load(checkout, f"mudk_{k}") for k, checkout in enumerate(sides.values())]
    rows = {label: [] for label in sides}
    for law in laws_run:
        for n in sizes:
            built = [cell(pkg, law, n, points) for pkg in pkgs]
            ms = {name: measure([calls[name] for _, calls in built], repeat)
                  for name in built[0][1]}
            for k, (label, (row, _)) in enumerate(zip(sides, built)):
                row["layers"] = {name: m[k] for name, m in ms.items()}
                rows[label].append(row)
                print(f"{label} {law} n={n}: " + ", ".join(
                    f"{name} {m['median_s']:.4f} s {m['peak_mb']:.3f} MB"
                    for name, m in row["layers"].items()), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", help="checkout whose src/ to measure")
    parser.add_argument("out", help="JSON file to write (other labels are kept)")
    parser.add_argument("--label", required=True, help="key of this run in OUT")
    parser.add_argument("--parent", help="checkout to compare ROOT against, its calls "
                        "alternating with ROOT's in one process")
    parser.add_argument("--law", default=",".join(LAWS),
                        help="comma-separated laws (default all five)")
    parser.add_argument("--n", default="200,2000,20000",
                        help="comma-separated step counts (default 200,2000,20000)")
    parser.add_argument("--points", type=int, default=8192,
                        help="boundary points per half (default 8192)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed calls per layer (default 3)")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.n.split(",")]
    laws_run = args.law.split(",")
    unknown = set(laws_run) - set(LAWS)
    if unknown:
        parser.error(f"unknown laws {sorted(unknown)}; choose from {', '.join(LAWS)}")
    sides = {args.label: os.path.abspath(args.root)}
    if args.parent:
        sides = {f"{args.label}_parent": os.path.abspath(args.parent),
                 f"{args.label}_change": sides[args.label]}
    head = {"machine": machine_line(), "points": args.points, "repeat": args.repeat}
    rows = grid(sides, laws_run, sizes, args.points, args.repeat)
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.update({label: {**head, "rows": r} for label, r in rows.items()})
    with open(args.out, "w", newline="\n") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
