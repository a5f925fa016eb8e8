#!/usr/bin/env python3
"""Census of group orders and scalar subgroups across dimensions.

Closes the shift/clock group and the Clifford group for each requested
dimension and prints the orders, the scalar subgroup size, and the
projective quotient.  The closures are order-only, so they count in
GL_n(F_p) after the exact finiteness certificate (see finiteqm.qgroups).
Each row is checked against the closed forms: |WH| = N^3 for odd N and
2 N^3 for even N, |PCL| = N^2 |SL(2, Z_N)| (Appleby, J. Math. Phys. 46,
052107, 2005), and |CL| / |PCL| dividing the conductor.  The scalar
subgroup is read from the residue table of CL (one membership lookup per
root of unity) and must have |CL| / |PCL| elements.  Exits 1 when a row
disagrees.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from finiteqm.cli import _order_fits
from finiteqm.qgroups import center_of, clifford_group, wh_group


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    parser.add_argument("--max-closure", type=int, default=1_000_000)
    args = parser.parse_args()

    closure = {"max_size": args.max_closure}
    mismatches = []
    print(f"{'N':>3} {'|WH|':>8} {'|CL|':>9} {'scalars':>8} {'|PCL|':>8} {'time':>7}")
    for n in args.dims:
        t0 = time.time()
        cl_table = clifford_group(n, **closure)
        orders = {
            "wh": wh_group(n, **closure).order,
            "clifford": cl_table.order,
            "projective": clifford_group(n, projective=True, **closure).order,
        }
        scalars = len(center_of(cl_table))
        elapsed = time.time() - t0
        wh, cl, pcl = orders["wh"], orders["clifford"], orders["projective"]
        print(f"{n:>3} {wh:>8} {cl:>9} {scalars:>8} {pcl:>8} {elapsed:>6.1f}s")
        if scalars != cl // pcl:
            mismatches.append(
                f"N={n}: {scalars} scalars, but |CL| / |PCL| = {cl // pcl}"
            )
        mismatches.extend(
            f"N={n}: |{which}| = {order} disagrees with its closed form"
            for which, order in orders.items()
            if not _order_fits(which, n, order)
        )
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
