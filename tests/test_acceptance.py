"""Acceptance suite: one test per criterion, printed pass/fail lines.

Targets and tolerances are asserted exactly as stated.
"""

import math
import time
from fractions import Fraction

import numpy as np

from negwit import conic, contextuality as C, multimode as MM, qudit as Q
from negwit import states as S
from negwit import torpedo as T
from negwit import witness as W

from test_torpedo import all_deterministic_columns, column_vector


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {tag}" + (f" [{detail}]" if detail else ""))
    return ok


FOCK_TABLE = {
    1: (0.5, 0.5),
    2: (0.5, 0.5),
    3: (0.378, 0.427),
    4: (0.375, 0.441),
    5: (0.314, 0.385),
    6: (0.314, 0.378),
}
HIGH_FOCK_LOWER = {7: 0.277, 8: 0.280, 9: 0.256, 10: 0.262}


def test_criterion_1_fock_bound_table():
    t0 = time.time()
    table = W.fock_bounds_table(range(1, 7), m_max=30)
    failures = []
    for n in range(1, 7):
        lo, up = table[n]
        tlo, tup = FOCK_TABLE[n]
        ok_lo = abs(lo - tlo) <= 0.01
        ok_up = abs(up - tup) <= 0.01
        if not ok_lo:
            failures.append(f"n={n} lower {lo:.4f} vs {tlo}")
        if not ok_up:
            failures.append(f"n={n} upper {up:.4f} vs {tup}")
        row = table["detail"][n]
        used = (
            f"levels {row['lower'][1]}, {row['upper'][1]}"
            if "upper" in row
            else "analytic"
        )
        print(
            f"  n={n}: lower {lo:.4f} (target {tlo}), "
            f"upper {up:.4f} (target {tup}) [{used}]"
        )
    for n, target in HIGH_FOCK_LOWER.items():
        spec = W.WitnessSpec.fock(n)
        val, m_used = math.nan, None
        for m in (30, 26, 22):
            v, sol = W.solve_lower(spec, m)
            if sol.status == "optimal" or sol.info.get("comp", 1) <= 1e-3:
                val, m_used = v, m
                print(f"  n={n}: lower {v:.4f} at level {m} ({sol.info['precision']})")
                break
        if not abs(val - target) <= 0.01:
            failures.append(f"n={n} lower {val:.4f} vs {target}")
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 1800
    report("1 fock-bound table", ok, f"{elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""))
    assert elapsed <= 1800
    # rows fall back to a shallower level only when the level-30 solve stalls
    # above the quality floor; the printout names the level each row used
    assert not failures, failures


def test_criterion_2_analytic_certificates():
    t0 = time.time()
    exact_ok = all(W.certify_level_n_value(n) for n in range(1, 13))
    solver_ok = True
    for n in range(1, 13):
        prob = W.build_lower(W.WitnessSpec.fock(n), n)
        sol = conic.solve(prob, tol=1e-8)
        if abs(sol.primal_value - float(W.analytic_value(n))) > 1e-6:
            sol = conic.solve(prob, tol=1e-8, precision="extended")
        if abs(sol.primal_value - float(W.analytic_value(n))) > 1e-6:
            solver_ok = False
    # strong duality of both hierarchies: the solver's primal/dual pair from
    # the best encoding of each program must agree at every level
    pairs_ok = True
    worst = 0.0
    for n in range(1, 7):
        spec = W.WitnessSpec.fock(n)
        for m in range(n, 13):
            _, lsol = W.solve_lower(spec, m)
            _, usol = W.solve_upper(spec, m)
            for sol in (lsol, usol):
                gap = abs(sol.primal_value - sol.dual_value)
                worst = max(worst, gap)
                if gap > 1e-6 or sol.info.get("comp", 1.0) > 1e-6:
                    pairs_ok = False
    ok = exact_ok and solver_ok and pairs_ok
    report(
        "2 analytic certificates",
        ok,
        f"exact={exact_ok} solver={solver_ok} duality={pairs_ok} worst_gap={worst:.1e} {time.time()-t0:.0f}s",
    )
    assert ok


def test_criterion_3_slow_upper_convergence():
    v1, _ = W.solve_upper(W.WitnessSpec.fock(1), 30)
    v2, _ = W.solve_upper(W.WitnessSpec.fock(2), 30)
    ok = 0.5 <= v1 <= 0.56 and 0.5 <= v2 <= 0.58
    report("3 slow upper convergence", ok, f"n=1: {v1:.4f}, n=2: {v2:.4f}")
    assert ok


def test_criterion_4_identity_suite():
    t0 = time.time()
    from negwit import numerics as nm

    ident_ok = True
    for case in nm.ZEILBERGER_CASES:
        for t in range(16):
            for s in range(t + 1):
                if not nm.zeilberger_identity_check(case, s, t)[2]:
                    ident_ok = False
    sos_ok = all(W.sos_identity_holds(n) for n in range(1, 13))
    elapsed = time.time() - t0
    ok = ident_ok and sos_ok and elapsed <= 60
    report("4 identity suite", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_5_multimode():
    t0 = time.time()
    spec = MM.MultiWitnessSpec(n=(1, 1))
    # the quoted lower level counts degree in the squared radial variable;
    # the printed-program level is twice that (6 here, 0.2667 at both modes)
    lo, lo_sol = MM.solve_lower_multi(spec, "rectangle", 6)
    ok_lo = 0.26 <= lo <= 0.275
    up, up_sol = MM.solve_upper_multi(spec, "rectangle", 10)
    ok_up = 0.315 <= up <= 0.33
    ok_prod = lo > 0.25
    tri2, _ = MM.solve_upper_multi(spec, "triangle", 2)
    rect2, _ = MM.solve_upper_multi(spec, "rectangle", 2)
    tri4, _ = MM.solve_upper_multi(spec, "triangle", 4)
    ok_inter = tri2 >= rect2 - 1e-6 and rect2 >= tri4 - 1e-6
    lo_t2, _ = MM.solve_lower_multi(spec, "triangle", 2)
    lo_r2, _ = MM.solve_lower_multi(spec, "rectangle", 2)
    lo_t4, _ = MM.solve_lower_multi(spec, "triangle", 4)
    ok_inter = ok_inter and lo_t2 <= lo_r2 + 1e-6 and lo_r2 <= lo_t4 + 1e-6
    ok = ok_lo and ok_up and ok_prod and ok_inter
    report(
        "5 multimode",
        ok,
        f"lower={lo:.4f} upper={up:.4f} product-beaten={ok_prod} interleave={ok_inter} {time.time()-t0:.0f}s",
    )
    assert ok


def test_criterion_6_contextual_fraction():
    t0 = time.time()
    chsh = C.example_model("chsh")
    # Tsirelson tables: every correlator E = P(equal) - P(differ) has size
    # sqrt(2)/2, so S = 2 sqrt(2) and CF = (S - 2)/2 = sqrt(2) - 1
    # (Abramsky, Barbosa, Mansfield, PRL 119, 050504)
    corr = [
        sum(p if a == b else -p for (a, b), p in chsh.tables[c].items())
        for c in chsh.scenario.contexts
    ]
    ok_corr = all(abs(abs(e) - math.sqrt(2) / 2) <= 1e-12 for e in corr)
    _, cf, _ = C.ncf(chsh)
    ok_chsh = ok_corr and abs(cf - (math.sqrt(2) - 1)) <= 1e-6
    _, cf_pr, _ = C.ncf(C.example_model("pr_box"))
    ok_pr = abs(cf_pr - 1.0) <= 1e-8
    form = C.bell_inequality(chsh)
    ok_dual = abs(form.normalised_violation(chsh) - cf) <= 1e-6
    rng = np.random.default_rng(42)
    ok_bin = True
    for _ in range(200):
        model = C.random_compatible_model(rng)
        cf0 = C.ncf(model)[1]
        maps = {}
        for x in model.scenario.labels:
            targets = [int(rng.integers(2)) for _ in model.scenario.outcomes[x]]
            if len(set(targets)) == 1:
                targets[-1] = 1 - targets[-1]
            maps[x] = dict(zip(model.scenario.outcomes[x], targets))
        if C.ncf(C.bin_outcomes(model, maps))[1] > cf0 + 1e-8:
            ok_bin = False
    elapsed = time.time() - t0
    ok = ok_chsh and ok_pr and ok_dual and ok_bin and elapsed <= 10
    report(
        "6 contextual fraction",
        ok,
        f"chsh_cf={cf:.5f} (target 0.41421) |E|={[round(abs(e), 5) for e in corr]} "
        f"pr={cf_pr:.5f} dual={ok_dual} binning={ok_bin} {elapsed:.1f}s",
    )
    assert ok_pr and ok_dual and ok_bin and elapsed <= 10
    assert ok_chsh, f"CHSH contextual fraction is {cf:.6f}, correlators {corr}"


def test_criterion_7_torpedo_values():
    t0 = time.time()
    ok_cl = (
        T.classical_value(2, 2) == Fraction(3, 4)
        and T.classical_value(3, 3) == Fraction(11, 12)
        and T.classical_value(2, 3) == Fraction(5, 6)
    )
    g3, g2 = T.TorpedoGame(3), T.TorpedoGame(2)
    beh3 = T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g3)
    vq3 = T.win_rate(beh3, g3)
    vq2 = T.win_rate(T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g2), g2)
    ok_q = abs(vq3 - 1.0) <= 1e-9 and abs(vq2 - 0.5 * (1 + 1 / math.sqrt(3))) <= 1e-9
    # the key fact: no displaced state shows a forbidden outcome
    ok_kf = all(
        sum(beh3[(x, z, q)][g3.forbidden(q, x, z)] for q in g3.questions) <= 1e-12
        for x in range(3)
        for z in range(3)
    )
    model = T.behaviour_of_classical(T.explicit_noncontextual_model())
    ok_model = T.win_rate(model, g3) == Fraction(11, 12)
    elapsed = time.time() - t0
    ok = ok_cl and ok_q and ok_kf and ok_model and elapsed <= 60
    report(
        "7 torpedo",
        ok,
        f"classical={ok_cl} quantum=({vq3:.6f},{vq2:.6f}) keyfact={ok_kf} model={ok_model} {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_discrete_wigner():
    psi = np.zeros(3, dtype=complex)
    psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    ps = Q.displacement_dv(3, 2, 0) @ psi
    Wg = Q.dwf(np.outer(ps, ps.conj()), 3)
    ok_grid = abs(Wg[2, 0] + 1 / 3) <= 1e-12 and np.allclose(
        np.delete(Wg.flatten(), 6), 1 / 6, atol=1e-12
    )
    ok_tr = True
    for x in range(3):
        for z in range(3):
            A = Q.phase_point(3, x, z)
            ev = np.sort(np.linalg.eigvalsh(A))
            if (
                abs(np.trace(A) - 1) > 1e-12
                or abs(np.trace(A @ A) - 3) > 1e-12
                or not np.allclose(ev, [-1, 1, 1], atol=1e-12)
            ):
                ok_tr = False
    ok = ok_grid and ok_tr
    report("8 discrete wigner", ok, f"grid={ok_grid} traces/spectra={ok_tr}")
    assert ok


def test_criterion_9_witness_curve_crossings():
    from scipy.optimize import brentq

    r = brentq(lambda x: S.pssvs_fidelity(x) - 0.5, 0.3, 1.2)
    c2a = brentq(lambda x: S.cat2_fidelity(x) - 0.5, 1.0, 2.0)
    c2b = brentq(lambda x: S.cat2_fidelity(x) - 0.5, 2.0, 3.5)
    c4a = brentq(lambda x: S.cat4_fidelity(x) - 0.441, 1.5, 3.0)
    c4b = brentq(lambda x: S.cat4_fidelity(x) - 0.441, 5.0, 7.5)
    ok = (
        abs(r - 0.70) <= 0.02
        and abs(c2a - 1.63) <= 0.03
        and abs(c2b - 2.59) <= 0.03
        and abs(c4a - 2.10) <= 0.05
        and abs(c4b - 6.53) <= 0.05
    )
    report(
        "9 witness-curve crossings",
        ok,
        f"pssvs={r:.3f} cat2=({c2a:.3f},{c2b:.3f}) cat4=({c4a:.3f},{c4b:.3f})",
    )
    assert ok


def test_criterion_10_failure_bound():
    g2, g3 = T.TorpedoGame(2), T.TorpedoGame(3)
    suite = [
        (T.behaviour_of_classical(T.explicit_noncontextual_model()), 3, 11 / 12),
        (T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g3), 3, 11 / 12),
        (T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g2), 2, 3 / 4),
        (T.behaviour_of_classical(T.best_classical_strategy(2, 2)), 2, 3 / 4),
    ]
    ok_bound = all(T.ncf_bound_holds(beh, d, th) for beh, d, th in suite)
    beh = T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g2)
    lp = T.bounded_memory_ncf(beh, 2)
    cols = all_deterministic_columns(2, g2)
    keys = [(x, z, q) for x in range(2) for z in range(2) for q in g2.questions]
    target = np.array([beh[k][c] for k in keys for c in range(2)])
    mat = np.array([column_vector(c, keys, 2) for c in cols])
    brute = float(-T._master_lp(mat, target).fun)
    ok_match = len(cols) == 1024 and abs(lp - brute) <= 1e-12
    ok = ok_bound and ok_match
    report("10 failure bound", ok, f"bound={ok_bound} d2_lp_vs_brute={abs(lp-brute):.1e}")
    assert ok
