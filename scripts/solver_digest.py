#!/usr/bin/env python3
"""Print one SHA-256 line per `conic.solve` call, to check solves are unchanged.

Each line hashes what one solve returns: the shape and bytes of every X block
and of y, the status, the iteration count and the info dict.  The programs
are fixed:

- the lower program (`build_lower`) of Fock n=1..6 at levels 11 and 12, in
  double and in extended precision;
- the upper program (`build_upper_compact`) of Fock n=1 at levels 1..12 and
  of the weighted witness (0.5, 0, 1) at levels 3..12, in double;
- the two-mode |1,1> lower and upper programs on triangles and rectangles 2
  and 4, and the lower programs on rectangles 6 and 8, in double.

Two checkouts solve these programs to the same bits exactly when their
digests match:

    PYTHONPATH=src python3 scripts/solver_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/solver_digest.py > old.txt
    diff old.txt new.txt

Make both digests with the same BLAS thread count: OpenBLAS splits the
larger products of the rectangle-6 and rectangle-8 lower programs by thread,
so their lines change with `OPENBLAS_NUM_THREADS`.

Each line is `<sha256>  <status>  <iterations>  <program>`.  A run takes
about 5 s on a 2-core machine.
"""

import hashlib
import json

import numpy as np

from negwit import conic
from negwit import multimode as MM
from negwit import witness as W


def programs():
    for n in range(1, 7):
        for m in (11, 12):
            for precision in ("double", "extended"):
                yield (
                    f"lower fock({n}) m={m} {precision}",
                    lambda n=n, m=m: W.build_lower(W.WitnessSpec.fock(n), m),
                    precision,
                )
    weighted = W.WitnessSpec((0.5, 0.0, 1.0))
    for name, spec, first in (("fock(1)", W.WitnessSpec.fock(1), 1),
                              ("weights 0.5,0,1", weighted, 3)):
        for m in range(first, 13):
            yield (
                f"upper {name} m={m} double",
                lambda spec=spec, m=m: W.build_upper_compact(spec, m),
                "double",
            )
    spec = MM.MultiWitnessSpec((1, 1))
    for mode in ("triangle", "rectangle"):
        for level in (2, 4):
            for side, build in (("lower", MM.build_lower_multi),
                                ("upper", MM.build_upper_multi_compact)):
                yield (
                    f"two-mode {side} {mode} {level} double",
                    lambda build=build, mode=mode, level=level: build(
                        spec, mode, level
                    ),
                    "double",
                )
    for level in (6, 8):
        yield (
            f"two-mode lower rectangle {level} double",
            lambda level=level: MM.build_lower_multi(spec, "rectangle", level),
            "double",
        )


def digest(sol) -> str:
    h = hashlib.sha256()
    for a in (*sol.X, sol.y):
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    h.update(f"{sol.status} {sol.iterations}".encode())
    h.update(json.dumps(sol.info, sort_keys=True).encode())
    return h.hexdigest()


def main():
    for name, build, precision in programs():
        sol = conic.solve(build(), precision=precision)
        print(f"{digest(sol)}  {sol.status}  {sol.iterations}  {name}", flush=True)


if __name__ == "__main__":
    main()
