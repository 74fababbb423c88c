#!/usr/bin/env python3
"""Solve the deep-level Fock grid and print one JSON line per solve.

The grid is the single-Fock witness n = 3..6 at levels m = 12, 20, 24, 26
and 30, on both sides (the lower program `build_lower` and the upper
program `build_upper_compact`) and in both precisions: 80 plain
`conic.solve` calls at tol 1e-8, with no retry.  Each line holds the side,
n, m and precision, then `status`, `stop_reason`, `iterations`, `value` (the
side's bound, as `solve_lower` and `solve_upper` report it), the residuals
`rp`, `rd` and `comp` of the kept iterate, `seconds`, and `lo` and `hi`:
the exact enclosure of the solve's program value that
`witness._lower_enclosure` or `witness._upper_enclosure` certifies from it
(None for an end it cannot certify).

    PYTHONPATH=src python3 scripts/deep_grid.py > new.jsonl
    python3 scripts/deep_grid.py --summary new.jsonl [old.jsonl]

`--summary` counts the `optimal` solves, those with `rp` <= 1e-6 and those
with `rp` > 1e-2, and the ends that are None; given a second file, it also
lists the solves that are `optimal` there and not in the first.

Like `solver_digest.py`, the script sets `OPENBLAS_NUM_THREADS=1` before it
imports numpy, unless the environment already sets it.  A run takes 14-20 s
on a 2-core machine, about 7 s of it in the exact ends.
"""

import argparse
import functools
import json
import os
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

N_VALUES = (3, 4, 5, 6)
LEVELS = (12, 20, 24, 26, 30)
TOL = 1e-8


def grid():
    from negwit import conic
    from negwit import witness as W

    gram = functools.cache(W._upper_gram)
    sides = (
        ("lower", W.build_lower, 1.0, W._lower_enclosure),
        ("upper", W.build_upper_compact, -1.0, W._upper_enclosure),
    )
    for side, build, sign, enclosure in sides:
        for n in N_VALUES:
            for m in LEVELS:
                spec = W.WitnessSpec.fock(n)
                prob = build(spec, m)
                for precision in ("double", "extended"):
                    start = time.perf_counter()
                    sol = conic.solve(prob, tol=TOL, precision=precision)
                    seconds = time.perf_counter() - start
                    rec = {
                        "side": side, "n": n, "m": m, "precision": precision,
                        "status": sol.status,
                        "stop_reason": sol.info["stop_reason"],
                        "iterations": sol.iterations,
                        "value": sign * sol.primal_value,
                        **{k: sol.info.get(k) for k in ("rp", "rd", "comp")},
                        "seconds": round(seconds, 3),
                    }
                    w = W._weights_exact(spec.a, m)
                    rec["lo"], rec["hi"] = enclosure(gram(m), w, sol)
                    yield rec


def _key(rec):
    return rec["side"], rec["n"], rec["m"], rec["precision"]


def summary(path, against=None):
    def load(p):
        with open(p) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    recs = load(path)
    rps = [r["rp"] for r in recs if r["rp"] is not None]
    out = {
        "solves": len(recs),
        "optimal": sum(r["status"] == "optimal" for r in recs),
        "rp<=1e-6": sum(rp <= 1e-6 for rp in rps),
        "rp>1e-2": sum(rp > 1e-2 for rp in rps),
        "seconds": round(sum(r["seconds"] for r in recs), 1),
        "ends_none": sum(r[end] is None for r in recs for end in ("lo", "hi")),
    }
    if against is not None:
        now = {_key(r): r["status"] for r in recs}
        out["optimal_lost"] = [
            " ".join(map(str, _key(r)))
            for r in load(against)
            if r["status"] == "optimal" and now.get(_key(r)) != "optimal"
        ]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--summary", nargs="+", metavar="FILE",
                    help="summarise a grid output, against an older one if given")
    args = ap.parse_args()
    if args.summary:
        if len(args.summary) > 2:
            ap.error("--summary takes one or two files")
        print(json.dumps(summary(*args.summary)))
        return
    for rec in grid():
        print(json.dumps(rec), flush=True)


if __name__ == "__main__":
    main()
