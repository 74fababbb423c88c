#!/usr/bin/env python3
"""Torpedo game value table: classical (exact), quantum, and the
bounded-memory noncontextual fractions of the canonical behaviours."""

import time

from negwit import torpedo as T


def main():
    t0 = time.time()
    print("d_in,d_msg,classical")
    for d_in, d_msg in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4)):
        print(f"{d_in},{d_msg},{T.classical_value(d_in, d_msg)}")
    for d in (2, 3):
        game = T.TorpedoGame(d)
        strat = T.canonical_quantum_strategy(d)
        beh = T.behaviour_of_quantum(strat, game)
        v = T.win_rate(beh, game)
        ncf = T.bounded_memory_ncf(beh, d)
        eps = T.average_failure(beh, game)
        nu = 1.0 - float(T.classical_value(d, d))
        print(
            f"d={d}: quantum={v:.9f} ncf={ncf:.6f} eps={eps:.6f} "
            f"nu={nu:.6f} bound_ok={eps + 1e-9 >= ncf * nu}"
        )
    print(f"# total {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
