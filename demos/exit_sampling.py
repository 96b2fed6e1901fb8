"""Sample Brownian exits from a built domain and compare with the target.

Builds the Uni(-1, 1) domain, runs walk-on-spheres walks from the
origin until they reach a tooth of the comb, and prints a histogram of
the exit abscissas (which should be flat) together with the KS
statistic against the target law.

Usage:
    python demos/exit_sampling.py [--walks N] [--step H] [--seed S]
"""

import argparse

import numpy as np

from mudk.boundary import boundary_points
from mudk.discretize import build_measure
from mudk.distributions import Uniform
from mudk.verify_mc import ks_distance, simulate_exit


def ascii_histogram(samples, bins=10, width=40):
    counts, edges = np.histogram(samples, bins=bins, range=(-1.0, 1.0))
    peak = counts.max()
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * c / peak))
        print(f"  [{lo:+.1f}, {hi:+.1f})  {c:>6}  {bar}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--walks", type=int, default=4000)
    ap.add_argument("--step", type=float, default=1e-4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    target = Uniform(-1.0, 1.0)
    bp = boundary_points(build_measure(target, 200), num_points=2048)
    res = simulate_exit(bp, walks=args.walks, step=args.step, seed=args.seed)

    print(f"walks: {args.walks}, completed: {res.samples.size}, "
          f"truncated: {res.truncated_walks}")
    print(f"mean  {res.samples.mean():+.4f}   (should be close to 0)")
    print(f"std   {res.samples.std():.4f}   (target 1/sqrt(3) = "
          f"{1 / np.sqrt(3):.4f})")
    print(f"KS    {ks_distance(res.samples, target):.4f}\n")
    ascii_histogram(res.samples)


if __name__ == "__main__":
    main()
