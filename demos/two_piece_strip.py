"""A target with a gap in its support produces a full vertical strip.

When the law puts no mass on an interval, the domain contains the whole
vertical strip over that interval: Brownian motion must cross it without
being stopped there, so nothing of the boundary can intrude.  We build
the domain of the equal mixture of Uni(-2,-1) and Uni(1,2) and check
the strip over (-1, 1) directly.
"""

import os

import numpy as np

from mudk.boundary import boundary_points, export_svg
from mudk.discretize import build_measure
from mudk.distributions import Mixture, Uniform
from mudk.verify_mc import Comb, point_in_domain


def main(out_dir="demo_output"):
    os.makedirs(out_dir, exist_ok=True)
    target = Mixture([(0.5, Uniform(-2.0, -1.0)), (0.5, Uniform(1.0, 2.0))])
    bp = boundary_points(build_measure(target, 200), num_points=2048)

    gap_lo = bp.x[bp.x < 0].max()
    gap_hi = bp.x[bp.x > 0].min()
    tallest = np.abs(bp.y).max()
    print(f"boundary x values stop at {gap_lo:+.4f} and resume at "
          f"{gap_hi:+.4f}")
    print(f"tallest boundary point: |y| = {tallest:.4f}")

    comb = Comb.from_polyline(bp)
    for height in (tallest, 10 * tallest, 1000 * tallest):
        inside = point_in_domain(comb, (0.0, height))
        print(f"point (0, {height:10.3f}) inside: {inside}")

    path = os.path.join(out_dir, "two_piece.svg")
    export_svg(bp, path)
    print(f"wrote {path}")
    print("\nThe rendered outline necessarily clips the strip at the "
          "polyline's extent; membership queries treat it as unbounded.")


if __name__ == "__main__":
    main()
