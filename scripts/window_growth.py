#!/usr/bin/env python3
"""Census of octopus real roots by their delta coordinate.

For an affine-class weight tuple the window at each level n should fill up
to exactly the finite star root count once the enumeration depth is large
enough; this script shows the levels filling in as depth grows.
"""

import argparse
import sys
from collections import Counter

from octoweyl.lattice import (
    euler_characteristic,
    octopus_lattice,
    star_lattice,
)
from octoweyl.quiver import default_lambda, parse_weights
from octoweyl.weyl import DEFAULT_ROOT_CAP, enumerate_real_roots, enumerate_until_stable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", default="2,2,2")
    parser.add_argument("--max-depth", type=int, default=24)
    parser.add_argument("--step", type=int, default=4)
    parser.add_argument("--cap", type=int, default=DEFAULT_ROOT_CAP)
    args = parser.parse_args()

    w = parse_weights(args.weights)
    octo = octopus_lattice(w, default_lambda(w.r))
    chi = euler_characteristic(w)
    star_count = None
    if chi > 0:
        star_count = len(enumerate_until_stable(star_lattice(w)))
        print(f"star root count: {star_count}")
    print(f"weights {w}, chi = {chi}")

    for depth in range(args.step, args.max_depth + 1, args.step):
        roots = enumerate_real_roots(octo, depth, args.cap)
        census = Counter(octo.delta_coordinate(x) for x in roots)
        levels = sorted(census)
        row = "  ".join(f"{n:+d}:{census[n]}" for n in levels)
        full = (
            sum(1 for n in levels if census[n] == star_count)
            if star_count
            else "-"
        )
        print(f"depth {depth:3d}: {len(roots):6d} roots, full levels: {full}")
        print(f"  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
