"""Check the level-30 Fock-table upper rows against exact rational enclosures.

    python3 perfbench/enclosure.py

For n = 3..6 this recomputes ``certified_upper_interval(fock(n), 30)``,
whose ends are checked in exact rationals, and tests that the upper row
``fock_bounds_table(..., m_max=30)`` reports, taken from level 30, lies
inside it.  Level 30 is the paper's; the benchmark's own fock-table level is
checked against its enclosures in every fock-table run.  Nothing is stored:
every enclosure is computed afresh.  This is not part of the timed runs; it
takes a few minutes.  Exits 0 when every row lies inside its enclosure, 1
otherwise.
"""

from __future__ import annotations

import sys
import time

from run import _cap_blas_threads, _import_negwit

LEVEL = 30
N_VALUES = (3, 4, 5, 6)


def main():
    _cap_blas_threads()
    _import_negwit()
    from negwit import witness as W

    t0 = time.perf_counter()
    table = W.fock_bounds_table(N_VALUES, m_max=LEVEL)
    ok = True
    for n in N_VALUES:
        up = table[n][1]
        used = table["detail"][n]["upper"][1]
        lo_end, hi_end = W.certified_upper_interval(W.WitnessSpec.fock(n), LEVEL)
        inside = (
            used == LEVEL
            and lo_end is not None
            and hi_end is not None
            and lo_end <= up <= hi_end
        )
        ok &= inside
        print(
            f"level {LEVEL} n={n}: upper {up:.10f} (from level {used}) "
            f"in [{lo_end}, {hi_end}]: {'ok' if inside else 'FAIL'}",
            flush=True,
        )
    print(f"level {LEVEL}: {time.perf_counter() - t0:.1f} s", flush=True)
    print("enclosures hold" if ok else "an upper row lies outside its enclosure")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
