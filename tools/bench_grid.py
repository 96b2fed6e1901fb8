"""Time and trace each layer, from the laws to the KS check, over the scenario grid.

    python tools/bench_grid.py ROOT OUT --label NAME [--n 200,2000,20000]
                               [--points 8192] [--repeat 3]

ROOT is a checkout of this repository; its `src/` gives the `mudk`
package that is measured, so two checkouts are compared by running the
tool once on each with different labels into the same OUT file.  For
every law (uniform, centred beta(2,5), truncated normal, truncated
exponential, uniform+atom mixture) and every n, the step quantile of the
c.d.f. scheme, its boundary and the exit samples of that boundary are
built once, untimed, and ten layers are measured:

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

The timing pass takes the median wall time of `--repeat` calls.  A
separate pass takes the tracemalloc peak of one call, because tracing
slows the layers down.  OUT is a JSON object keyed by label; an existing
file keeps its other labels.  Each entry records the machine line, the
settings and per (law, n) the problem sizes (steps, jumps, points,
terms and the walls of the sampled comb) and, per layer, `median_s` and
`peak_mb`.
"""

from __future__ import annotations

import argparse
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
    """Builders of the five laws of the scenario grid, from the module `dist`."""
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


def measure(fn, repeat: int) -> dict:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"median_s": statistics.median(times), "peak_mb": peak / 2 ** 20}


def grid(root: str, sizes, points: int, repeat: int) -> list:
    sys.path.insert(0, os.path.join(root, "src"))
    from mudk import distributions
    from mudk.boundary import boundary_points, parameter_grid
    from mudk.discretize import build_measure, l1_distance, rate_bound
    from mudk.gross_map import fourier_coefficients
    from mudk.hilbert import pole_levels
    from mudk.verify_mc import _comb, ks_distance, simulate_exit

    laws = reference_laws(distributions)
    levels = (np.arange(points) + 0.5) / points
    rows = []
    for law in LAWS:
        for n in sizes:
            make = laws[law]
            sq = build_measure(make(), n)
            bp = boundary_points(sq, points)
            exits = simulate_exit(bp, WALKS, STEP, SEED).samples
            xs = np.linspace(*make().support(), points)
            layers = {
                "cdf": lambda: make().cdf(xs),
                "quantile": lambda: make().quantile(levels),
                "build_measure": lambda: build_measure(make(), n),
                "rate_bound": lambda: rate_bound(make(), n),
                "l1_distance": lambda: l1_distance(make(), sq),
                "parameter_grid": lambda: parameter_grid(sq, points),
                "boundary_points": lambda: boundary_points(sq, points),
                "fourier_coefficients": lambda: fourier_coefficients(sq),
                "simulate_exit": lambda: simulate_exit(bp, WALKS, STEP, SEED),
                "ks_distance": lambda: ks_distance(exits, make()),
            }
            row = {"law": law, "n": n, "steps": sq.num_steps,
                   "jumps": int(pole_levels(sq).size), "points": points,
                   "terms": fourier_coefficients(sq).order,
                   "walls": int(_comb(bp)[0].size)}
            row["layers"] = {name: measure(fn, repeat) for name, fn in layers.items()}
            rows.append(row)
            print(f"{law} n={n}: " + ", ".join(
                f"{name} {m['median_s']:.4f} s {m['peak_mb']:.3f} MB"
                for name, m in row["layers"].items()), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", help="checkout whose src/ to measure")
    parser.add_argument("out", help="JSON file to write (other labels are kept)")
    parser.add_argument("--label", required=True, help="key of this run in OUT")
    parser.add_argument("--n", default="200,2000,20000",
                        help="comma-separated step counts (default 200,2000,20000)")
    parser.add_argument("--points", type=int, default=8192,
                        help="boundary points per half (default 8192)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed calls per layer (default 3)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sizes = [int(n) for n in args.n.split(",")]
    entry = {"machine": machine_line(), "points": args.points,
             "repeat": args.repeat, "rows": grid(root, sizes, args.points, args.repeat)}
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data[args.label] = entry
    with open(args.out, "w", newline="\n") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
