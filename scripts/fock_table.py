#!/usr/bin/env python3
"""Reproduce the single-Fock threshold-bound table at desk scale.

Writes one row per witness index with the deepest trustworthy level used
per side.  At the default level 30 a run takes about 3 s on a 2-core
x86-64 machine.
"""

import argparse
import time

from negwit import witness as W


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--m-max", type=int, default=30)
    args = ap.parse_args()

    t0 = time.time()
    table = W.fock_bounds_table(range(1, args.n_max + 1), m_max=args.m_max)
    print("n,lower,upper")
    for n in range(1, args.n_max + 1):
        lo, up = table[n]
        print(f"{n},{lo:.4f},{up:.4f}")
    for n, row in table["detail"].items():
        if "lower" not in row:  # an analytic row
            continue
        sides = []
        for side in ("lower", "upper"):
            _, m, sol = row[side]
            run = "" if sol is None else (
                f" ({sol.info['precision']}, {sol.status}, comp {sol.info['comp']:.1e})"
            )
            sides.append(f"{side} level {m}{run}")
        print(f"# n={n}: " + "; ".join(sides))
    print(f"# total {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
