#!/usr/bin/env python3
"""Two-mode |1,1> witness bounds: hierarchy levels on both families."""

import argparse
import time

from negwit import multimode as MM


def report(side, level, value, sol):
    """Two lines: the value, its status, and the precision and iterations of
    the solve that produced it; then the program's size, read off the
    solution: its diagonal block, its PSD blocks and its row count."""
    print(
        f"rectangle {side} level {level}: {value:.6f} ({sol.status},"
        f" {sol.info['precision']}, {sol.iterations} iterations)"
    )
    diagonal, *psd = (len(x) for x in sol.X)
    print(f"  diagonal {diagonal}, blocks {tuple(psd)}, {len(sol.y)} rows")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lower-level", type=int, default=6)
    ap.add_argument("--upper-level", type=int, default=10)
    args = ap.parse_args()

    spec = MM.MultiWitnessSpec(n=(1, 1))
    t0 = time.time()
    lo, lo_sol = MM.solve_lower_multi(spec, "rectangle", args.lower_level)
    report("lower", args.lower_level, lo, lo_sol)
    up, up_sol = MM.solve_upper_multi(spec, "rectangle", args.upper_level)
    report("upper", args.upper_level, up, up_sol)
    print(f"tensor-product bound 0.25 beaten: {lo > 0.25}")
    print(f"# total {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
