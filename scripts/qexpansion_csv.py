#!/usr/bin/env python3
"""Plot-ready CSV of normalized-character q-expansion coefficients: one row
per q-degree with the total weight multiplicity of the slice.

Usage: python scripts/qexpansion_csv.py --rank 1 --labels 1,0 --depth 12 \
           [--twisted] --out chi.csv
"""

import argparse
import csv
import sys
from fractions import Fraction

import kacmod.qseries as qs
from kacmod.characters import CharacterRequest, character
from kacmod.lattice import level
from kacmod.roots import RootSystemCtx, from_dynkin_labels


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--labels", default="1,0")
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--twisted", action="store_true")
    ap.add_argument("--out", default="chi.csv")
    args = ap.parse_args()

    l = args.rank
    try:
        lam = from_dynkin_labels(l, [int(x) for x in args.labels.split(",")])
        k = int(level(lam))
        ch = character(CharacterRequest(RootSystemCtx.build(l), lam, k, "I",
                                        args.twisted, args.depth))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = -Fraction(ch.apex.delta)
    with open(args.out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["q_degree", "slice_dimension", "distinct_weights"])
        for q, pairs in sorted(qs.delta_expansion(ch).items()):
            wr.writerow([float(base + q), sum(c for _, c in pairs),
                         len(pairs)])
    print(f"wrote {args.out} ({len(ch.terms)} terms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
