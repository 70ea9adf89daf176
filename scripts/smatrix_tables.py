#!/usr/bin/env python3
"""Print the four transformation matrices at a given rank and level, and
check the mixed-kind symmetry S^{aI_II}(phi lam, mu) = S^{aII_I}(phi mu, lam)
numerically (their unitarity is checked by tests/test_modular.py).

Usage: python scripts/smatrix_tables.py --rank 1 --level 2
"""

import argparse
import sys

from kacmod.lattice import phi_involution
from kacmod.modular import _smatrix_rows, smatrix
from kacmod.roots import enumerate_dominant


def print_tables(l, k):
    """The four matrices at rank l and level k, then the mixed-kind
    symmetry residual."""
    for kind in ("aI", "aI_II", "aII_I", "aII"):
        sm = smatrix(kind, k, l)
        print(f"\n{kind}  (rank {l}, level {k}, dim {len(sm.index)})")
        for row in sm.entries:
            print("  " + "  ".join(f"{e.real:+.6f}{e.imag:+.6f}i" for e in row))

    # lhs[a][b] = aI_II(phi lam_a, lam_b) against rhs[b][a] =
    # aII_I(phi lam_b, lam_a): two tables over the phi-images, one call each
    lams = enumerate_dominant(l, k)
    phis = [phi_involution(lam) for lam in lams]
    lhs = _smatrix_rows("aI_II", k, phis, lams)
    rhs = _smatrix_rows("aII_I", k, phis, lams)
    worst = max(abs(lhs[a][b] - rhs[b][a])
                for a in range(len(lams)) for b in range(len(lams)))
    print(f"\nmixed-kind symmetry residual: {worst:.3e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--level", type=int, default=2)
    args = ap.parse_args()
    try:
        print_tables(args.rank, args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
