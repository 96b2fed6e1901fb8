"""Domain and disc-map coefficients for a truncated Gaussian target.

Unbounded laws need a truncation radius before discretization.  Here we
clip a standard normal to [-3, 3], which keeps 99.7% of the mass in
place and lumps the two tails at the origin, then inspect the resulting
domain and the decay of the power-series coefficients of its disc map.
"""

import os

import numpy as np

from mudk.boundary import boundary_points, export_svg
from mudk.discretize import build_measure
from mudk.distributions import TruncatedNormal
from mudk.gross_map import fourier_coefficients

RADIUS = 3.0


def main(out_dir="demo_output"):
    os.makedirs(out_dir, exist_ok=True)
    target = TruncatedNormal(0.0, 1.0, -8.0, 8.0).truncate(RADIUS)
    print(f"origin atom from the clipped tails: {target.origin_mass():.6f} "
          f"(2*Phi(-3) = {2 * 0.0013498980316300945:.6f})")

    sq = build_measure(target, 150)
    bp = boundary_points(sq, num_points=2048)
    print(f"domain x range: ({bp.x.min():+.4f}, {bp.x.max():+.4f})")

    fc = fourier_coefficients(sq)
    print("\nleading coefficients (odd indices; even ones are near zero "
          "by symmetry):")
    for k in (1, 3, 5, 7, 9):
        print(f"  a_{k} = {fc.coeffs[k - 1]:+.6f}")
    evens = np.abs(fc.coeffs[1:10:2])
    print(f"max |even coefficient| up to k=10: {evens.max():.2e}")

    path = os.path.join(out_dir, "truncated_normal.svg")
    export_svg(bp, path)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
