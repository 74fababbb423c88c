import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negwit import qudit as Q
from negwit import torpedo as T


def exact_value(strat):
    """The exact winning probability of a classical strategy."""
    return T.win_rate(T.behaviour_of_classical(strat), T.TorpedoGame(strat.d_in))


def quantum_value(strat, game):
    """The winning probability of a quantum strategy, by the Born rule."""
    return T.win_rate(T.behaviour_of_quantum(strat, game), game)


def test_game_relations():
    g = T.TorpedoGame(3)
    assert g.questions == ("inf", 0, 1, 2)
    for q in g.questions:
        for x in range(3):
            for z in range(3):
                wins = g.winning(q, x, z)
                assert len(wins) == 2  # d - 1 winning answers
                assert g.forbidden(q, x, z) not in wins
    assert g.forbidden("inf", 2, 1) == 2
    assert g.forbidden(0, 2, 1) == (-1) % 3
    assert g.forbidden(2, 2, 1) == (2 * 2 - 1) % 3


def test_classical_values_exact():
    assert T.classical_value(2, 2) == Fraction(3, 4)
    assert T.classical_value(2, 3) == Fraction(5, 6)
    assert T.classical_value(3, 2) == Fraction(5, 6)
    assert T.classical_value(3, 3) == Fraction(11, 12)


def test_classical_value_cap():
    with pytest.raises(ValueError):
        T.classical_value(4, 100)


@pytest.mark.parametrize(
    "search",
    [T.classical_value, T.best_classical_strategy, T.random_strategy_search],
)
@pytest.mark.parametrize("d_msg", [0, -1])
def test_message_dimension_below_one_rejected(search, d_msg):
    # these failed inside numpy, with "zero-size array" and "high <= 0"
    with pytest.raises(ValueError, match="message dimension must be at least 1"):
        search(2, d_msg)


def test_exhaustive_matches_full_brute_force_d2():
    # every deterministic encode/decode pair: 16 grids x 64 decoding triples
    game = T.TorpedoGame(2)
    cells = [(x, z) for x in range(2) for z in range(2)]
    best = Fraction(0)
    for grid in itertools.product(range(2), repeat=4):
        assign = dict(zip(cells, grid))
        for fs in itertools.product(itertools.product(range(2), repeat=2), repeat=3):
            maps = {q: f for q, f in zip(game.questions, fs)}
            strat = T.ClassicalStrategy(2, 2, assign, maps)
            best = max(best, exact_value(strat))
    assert best == T.classical_value(2, 2) == Fraction(3, 4)


def test_best_strategy_achieves_value():
    strat = T.best_classical_strategy(2, 2)
    assert exact_value(strat) == Fraction(3, 4)


def test_explicit_model_value():
    m = T.explicit_noncontextual_model()
    assert exact_value(m) == Fraction(11, 12)


def test_always_guess_zero_brute_force():
    # decode everything to 0: wins exactly when 0 is allowed; count by hand
    game = T.TorpedoGame(2)
    grid = {(x, z): 0 for x in range(2) for z in range(2)}
    maps = {q: (0, 0) for q in game.questions}
    strat = T.ClassicalStrategy(2, 2, grid, maps)
    wins = sum(
        1
        for x in range(2)
        for z in range(2)
        for q in game.questions
        if 0 in game.winning(q, x, z)
    )
    assert exact_value(strat) == Fraction(wins, 12)


def test_perfect_strategy_scores_one():
    game = T.TorpedoGame(2)
    grid = {(x, z): 2 * x + z for x in range(2) for z in range(2)}
    maps = {}
    for q in game.questions:
        maps[q] = tuple(
            next(iter(game.winning(q, j // 2, j % 2))) for j in range(4)
        )
    strat = T.ClassicalStrategy(2, 4, grid, maps)
    assert exact_value(strat) == 1


def test_quantum_values():
    g3 = T.TorpedoGame(3)
    v3 = quantum_value(T.canonical_quantum_strategy(3), g3)
    assert abs(v3 - 1.0) < 1e-9
    g2 = T.TorpedoGame(2)
    v2 = quantum_value(T.canonical_quantum_strategy(2), g2)
    assert abs(v2 - 0.5 * (1 + 1 / math.sqrt(3))) < 1e-9
    with pytest.raises(ValueError, match="dimension does not match"):
        quantum_value(T.canonical_quantum_strategy(2), g3)
    with pytest.raises(ValueError, match="unsupported dimension"):
        T.QuantumStrategy(4, {})


def test_phase_point_strategies_win_perfectly():
    for d in (2, 3):
        g = T.TorpedoGame(d)
        v = quantum_value(T.phase_point_strategy(d), g)
        assert abs(v - 1.0) < 1e-9


def test_key_fact_residuals():
    # the forbidden outcomes of each displaced state have total weight 0
    g = T.TorpedoGame(3)
    beh = T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g)
    for x in range(3):
        for z in range(3):
            assert sum(beh[(x, z, q)][g.forbidden(q, x, z)] for q in g.questions) <= 1e-12
    # mismatched state sees the forbidden outcomes with positive probability
    g = T.TorpedoGame(3)
    strat = T.canonical_quantum_strategy(3)
    rho = strat.messages[(0, 0)]
    op = sum(Q.mub_projectors(3)[q][g.forbidden(q, 1, 1)] for q in g.questions)
    assert float(np.trace(rho @ op).real) > 0.1


def test_strategies_reject_nan_entries():
    # each check compared with ">", which a NaN entry passes
    rho = np.full((2, 2), 0.5)
    rho[0, 0] = math.nan
    with pytest.raises(ValueError, match=r"message \(0, 0\) must be Hermitian"):
        T.QuantumStrategy(2, {(0, 0): rho})
    m = T.explicit_noncontextual_model()
    grid = {**m.grid, (1, 2): math.nan}
    with pytest.raises(ValueError, match=r"message of cell \(1, 2\)"):
        T.ClassicalStrategy(3, 3, grid, m.decodings)
    dec = {**m.decodings, 0: (math.nan, 2, 0)}
    with pytest.raises(ValueError, match="answers to question 0"):
        T.ClassicalStrategy(3, 3, m.grid, dec)


def test_classical_strategy_rejects_wrong_shapes():
    # a grid missing a cell raised a bare KeyError
    m = T.explicit_noncontextual_model()
    grid = {cell: j for cell, j in m.grid.items() if cell != (2, 2)}
    with pytest.raises(ValueError, match="each cell of Z_3"):
        T.ClassicalStrategy(3, 3, grid, m.decodings)
    for grid, dec, match in (
        ({**m.grid, (3, 0): 0}, m.decodings, "each cell of Z_3"),
        ({**m.grid, (0, 0): 3}, m.decodings, r"message of cell \(0, 0\)"),
        ({**m.grid, (0, 0): 1.0}, m.decodings, r"message of cell \(0, 0\)"),
        (m.grid, {q: a for q, a in m.decodings.items() if q != 1}, "each question"),
        (m.grid, {**m.decodings, 1: (0, 1)}, "answers to question 1"),
        (m.grid, {**m.decodings, "inf": (0, 1, 3)}, "answers to question inf"),
    ):
        with pytest.raises(ValueError, match=match):
            T.ClassicalStrategy(3, 3, grid, dec)


def test_quantum_behaviour_probabilities_normalised():
    g = T.TorpedoGame(3)
    beh = T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g)
    for probs in beh.values():
        assert min(probs) >= -1e-12
        assert abs(sum(probs) - 1.0) < 1e-12


def test_strategy_json_round_trip():
    m = T.explicit_noncontextual_model()
    again = T.ClassicalStrategy.from_json(m.to_json())
    assert again == m
    assert exact_value(again) == Fraction(11, 12)


@pytest.mark.parametrize(
    "doc",
    [
        # the Fraction-table form: encoding distributions, decoding matrices
        {"d_in": 2, "d_msg": 2,
         "encoding": {f"{x},{z}": ["1", "0"] for x in range(2) for z in range(2)},
         "decodings": {q: [["1", "1"], ["0", "0"]] for q in ("inf", "0", "1")}},
        [],
        {"d_in": 2, "d_msg": 2, "grid": 5, "decodings": {}},
        {"d_in": 2, "d_msg": 2, "grid": [[0, 1], [1, 0]], "decodings": []},
        {"d_in": 2, "d_msg": 2, "grid": [[0, 1], [1]], "decodings": {}},
    ],
    ids=["fraction-tables", "list", "grid-int", "decodings-list", "cell-missing"],
)
def test_strategy_from_json_rejects_wrong_shapes(doc):
    with pytest.raises(ValueError):
        T.ClassicalStrategy.from_json(json.dumps(doc))


def test_quantum_strategy_rejects_wrong_shapes():
    # a 2x2 message in dimension 3 was accepted, and failed later in a matmul
    with pytest.raises(ValueError, match=r"message \(0, 0\) must be a 3x3 matrix"):
        T.QuantumStrategy(3, {(0, 0): np.eye(2) / 2})
    messages = dict(T.canonical_quantum_strategy(3).messages)
    del messages[(2, 2)]
    with pytest.raises(ValueError, match="each cell of Z_3"):
        T.QuantumStrategy(3, messages)
    with pytest.raises(ValueError, match="each cell of Z_3"):
        T.QuantumStrategy(3, {**messages, (2, 2): np.eye(3) / 3, (3, 0): np.eye(3) / 3})


def _real_matrix_document():
    doc = json.loads(T.canonical_quantum_strategy(2).to_json())
    doc["messages"]["0,0"] = [[1, 0], [0, 0]]
    return doc


@pytest.mark.parametrize(
    "doc", [[], {"d": 2}, _real_matrix_document()], ids=["list", "no-messages", "real"]
)
def test_quantum_strategy_from_json_rejects_wrong_shapes(doc):
    # these raised a bare TypeError or KeyError
    with pytest.raises(ValueError, match="strategy document has the wrong shape"):
        T.QuantumStrategy.from_json(json.dumps(doc))


def test_bounded_memory_ncf_explicit_model():
    beh = T.behaviour_of_classical(T.explicit_noncontextual_model())
    assert T.bounded_memory_ncf(beh, 3) == pytest.approx(1.0, abs=1e-8)


def test_bounded_memory_ncf_perfect_quantum_zero():
    g = T.TorpedoGame(3)
    beh = T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g)
    assert T.bounded_memory_ncf(beh, 3) == pytest.approx(0.0, abs=1e-8)


def test_master_lp_calls_through_module_linprog(monkeypatch):
    # _master_lp looks linprog up by its global name, so patching
    # torpedo.linprog sees every master LP of the column generation
    beh = T.behaviour_of_classical(T.explicit_noncontextual_model())
    masters, calls = [], []
    master_lp, linprog = T._master_lp, T.linprog

    def counted_master_lp(*args):
        masters.append(args)
        return master_lp(*args)

    def recorded_linprog(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(T, "_master_lp", counted_master_lp)
    monkeypatch.setattr(T, "linprog", recorded_linprog)
    assert T.bounded_memory_ncf(beh, 3) == pytest.approx(1.0, abs=1e-8)
    assert masters and len(calls) == len(masters)


def all_deterministic_columns(d: int, game):
    """Every composite deterministic bounded-memory behaviour (small d)."""
    cells = [(x, z) for x in range(d) for z in range(d)]
    nq = len(game.questions)
    cols = []
    for grid in itertools.product(range(d), repeat=d * d):
        for fqs in itertools.product(
            itertools.product(range(d), repeat=d), repeat=nq
        ):
            col = {}
            for i, cell in enumerate(cells):
                j = grid[i]
                for qi, q in enumerate(game.questions):
                    col[(cell[0], cell[1], q)] = fqs[qi][j]
            cols.append(col)
    return cols


def column_vector(col: dict, keys, d: int) -> np.ndarray:
    v = np.zeros(len(keys) * d)
    for r, (x, z, q) in enumerate(keys):
        v[r * d + col[(x, z, q)]] = 1.0
    return v


def _d2_brute_force():
    """(keys, matrix) of the full d = 2 column LP: all 1024 strategies."""
    g = T.TorpedoGame(2)
    cols = all_deterministic_columns(2, g)
    assert len(cols) == 1024
    keys = [(x, z, q) for x in range(2) for z in range(2) for q in g.questions]
    return keys, np.array([column_vector(c, keys, 2) for c in cols])


def test_bounded_memory_ncf_d2_matches_brute_force():
    g = T.TorpedoGame(2)
    beh = T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g)
    by_lp = T.bounded_memory_ncf(beh, 2)
    # brute force over all 1024 deterministic strategies via the same LP
    keys, mat = _d2_brute_force()
    target = np.array([beh[k][c] for k in keys for c in range(2)])
    res = T._master_lp(mat, target)
    assert by_lp == pytest.approx(float(-res.fun), abs=1e-10)
    assert by_lp == pytest.approx(0.8452994616, abs=1e-9)


def test_bounded_memory_ncf_d2_random_mixtures():
    # column generation meets the full LP on mixtures of a random
    # deterministic strategy with the canonical quantum behaviour
    g = T.TorpedoGame(2)
    quantum = T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g)
    keys, mat = _d2_brute_force()
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam, bits = rng.random(), rng.integers(2, size=12)
        grid = {(x, z): int(bits[2 * x + z]) for x in range(2) for z in range(2)}
        maps = {q: (int(bits[4 + 2 * i]), int(bits[5 + 2 * i]))
                for i, q in enumerate(g.questions)}
        classical = T.behaviour_of_classical(
            T.ClassicalStrategy(2, 2, grid, maps)
        )
        beh = {
            k: tuple(lam * a + (1 - lam) * b for a, b in zip(classical[k], quantum[k]))
            for k in quantum
        }
        target = np.array([beh[k][c] for k in keys for c in range(2)])
        brute = float(-T._master_lp(mat, target).fun)
        assert T.bounded_memory_ncf(beh, 2) == pytest.approx(brute, abs=1e-12)


def test_bounded_memory_ncf_d3_noisy_quantum():
    # 0.7 quantum + 0.3 uniform: the master value meets its dual bound at 1.
    # Pricing columns by the largest dual value instead stops early, at 0.1
    g = T.TorpedoGame(3)
    quantum = T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g)
    beh = {k: tuple(0.7 * v + 0.1 for v in p) for k, p in quantum.items()}
    assert T.bounded_memory_ncf(beh, 3) == pytest.approx(1.0, abs=1e-8)


def test_failure_bound_on_suite():
    g2, g3 = T.TorpedoGame(2), T.TorpedoGame(3)
    theta2, theta3 = float(Fraction(3, 4)), float(Fraction(11, 12))
    suite = [
        (T.behaviour_of_classical(T.explicit_noncontextual_model()), 3, theta3),
        (T.behaviour_of_quantum(T.canonical_quantum_strategy(3), g3), 3, theta3),
        (T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g2), 2, theta2),
        (T.behaviour_of_classical(T.best_classical_strategy(2, 2)), 2, theta2),
    ]
    for beh, d, theta in suite:
        assert T.ncf_bound_holds(beh, d, theta)


def test_d2_quantum_bound_is_tight():
    g2 = T.TorpedoGame(2)
    beh = T.behaviour_of_quantum(T.canonical_quantum_strategy(2), g2)
    eps = T.average_failure(beh, g2)
    ncf = T.bounded_memory_ncf(beh, 2)
    assert eps == pytest.approx(1 - 0.5 * (1 + 1 / math.sqrt(3)), abs=1e-9)
    assert eps == pytest.approx(ncf * 0.25, abs=1e-6)  # nu = 1/4


@given(st.integers(min_value=0, max_value=2**21 - 1))
@settings(max_examples=30, deadline=None)
def test_random_classical_strategies_respect_bound(seed):
    # epsilon >= NCF * nu for arbitrary deterministic bounded-memory play
    bits = [(seed >> i) & 1 for i in range(21)]
    grid = {(x, z): bits[2 * x + z] for x in range(2) for z in range(2)}
    fs = {}
    game = T.TorpedoGame(2)
    for qi, q in enumerate(game.questions):
        fs[q] = (bits[4 + 2 * qi], bits[5 + 2 * qi])
    strat = T.ClassicalStrategy(2, 2, grid, fs)
    beh = T.behaviour_of_classical(strat)
    assert T.ncf_bound_holds(beh, 2, 0.75)


def test_classical_value_denominator_invariant():
    # value is rational with denominator dividing d^2 (d+1)
    for d in (2, 3):
        v = T.classical_value(d, d)
        assert (d * d * (d + 1)) % v.denominator == 0
        assert 0 <= v <= 1


def test_random_strategy_search_verifier():
    v, strat = T.random_strategy_search(2, 2, trials=300, seed=5)
    assert v == Fraction(3, 4)
    assert exact_value(strat) == v
    v4, _ = T.random_strategy_search(4, 4, trials=600, seed=3)
    assert v4 <= 1


# ---------------------------------------------------------------------------
# the scoring kernel against plain loops
# ---------------------------------------------------------------------------


def _reference_best(weights):
    """Best score over every grid, each under its greedy decoding, by loops."""
    cells, nq, d = weights.shape
    w = weights.tolist()
    best = -math.inf
    for grid in itertools.product(range(d), repeat=cells):
        total = 0.0
        for j in range(d):
            members = [k for k in range(cells) if grid[k] == j]
            for q in range(nq):
                total += max(sum(w[k][q][c] for k in members) for c in range(d))
        best = max(best, total)
    return best


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=4, deadline=None)
def test_kernel_matches_all_grids_on_random_duals(seed, ties):
    # the restricted-growth grids reach the best of all 3^9 grids
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 3, size=(9, 4, 3)) if ties else rng.random((9, 4, 3))
    values, _ = T._score(T._canonical_grids(9, 3), weights.astype(float))
    assert values.max() == pytest.approx(_reference_best(weights), abs=1e-12)


def test_canonical_grids_are_restricted_growth_strings():
    grids = T._canonical_grids(9, 3)
    assert grids.shape == (3281, 9, 3)  # Stirling numbers S(9,1)+S(9,2)+S(9,3)
    assert T._canonical_grids(9, 3) is grids
    assert not grids.flags.writeable
    labels = grids.argmax(axis=2)
    assert np.array_equal(grids.sum(axis=2), np.ones((3281, 9)))
    prefix_max = np.maximum.accumulate(labels, axis=1)
    assert np.all(labels[:, 0] == 0)
    assert np.all(labels[:, 1:] <= prefix_max[:, :-1] + 1)
    keys = [tuple(row) for row in labels.tolist()]
    assert keys == sorted(set(keys))  # distinct, in lexicographic order
    assert T._canonical_grids(9, 4).shape[0] == 3281 + 7770


def test_classical_value_3_4_exhaustive():
    assert T.classical_value(3, 4) == Fraction(35, 36)


def test_best_strategy_is_first_lexicographic_maximiser():
    strat = T.best_classical_strategy(3, 3)
    assert exact_value(strat) == Fraction(11, 12)
    labels = (0, 0, 0, 0, 0, 1, 1, 2, 2)
    grid = {(k // 3, k % 3): j for k, j in enumerate(labels)}
    maps = {"inf": (2, 0, 0), 0: (1, 2, 0), 1: (2, 0, 2), 2: (0, 2, 1)}
    assert strat == T.ClassicalStrategy(3, 3, grid, maps)
    # at d = 2 the first maximiser over all 2^4 grids, found by plain loops
    game = T.TorpedoGame(2)
    cells = [(x, z) for x in range(2) for z in range(2)]
    best, first = -1, None
    for grid in itertools.product(range(2), repeat=4):
        score = sum(
            max(
                sum(c in game.winning(q, *cell) for cell, j in zip(cells, grid) if j == m)
                for c in range(2)
            )
            for m in range(2)
            for q in game.questions
        )
        if score > best:
            best, first = score, grid
    chosen = T.best_classical_strategy(2, 2)
    assert tuple(chosen.grid[cell] for cell in cells) == first


def _reference_search(d_in, d_msg, trials, seed):
    """The search with one draw per cell and the win counts taken by loops."""
    rng = np.random.default_rng(seed)
    game = T.TorpedoGame(d_in)
    cells = [(x, z) for x in range(d_in) for z in range(d_in)]
    best, best_grid = -1, None
    for _ in range(trials):
        grid = {cell: int(rng.integers(d_msg)) for cell in cells}
        score = sum(
            max(
                sum(c in game.winning(q, *cell) for cell in cells if grid[cell] == j)
                for c in range(d_in)
            )
            for j in range(d_msg)
            for q in game.questions
        )
        if score > best:
            best, best_grid = score, grid
    return Fraction(best, len(cells) * len(game.questions)), best_grid


@pytest.mark.parametrize("d_in,d_msg,trials,seed", [(3, 3, 200, 1), (4, 2, 1500, 11)])
def test_random_search_keeps_the_seeded_sequence(d_in, d_msg, trials, seed):
    value, strat = T.random_strategy_search(d_in, d_msg, trials=trials, seed=seed)
    ref_value, ref_grid = _reference_search(d_in, d_msg, trials, seed)
    assert value == ref_value == exact_value(strat)
    assert strat.grid == ref_grid


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_classical_value_memory_flat():
    # the grid table is built once, so repeated calls keep the peak RSS flat;
    # a child's ru_maxrss starts at its parent's, so read its own VmHWM
    code = (
        "from negwit import torpedo as T\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "T.classical_value(3, 3)\n"
        "before = peak_kb()\n"
        "for _ in range(30):\n"
        "    T.classical_value(3, 3)\n"
        "print(peak_kb() - before)\n"
    )
    package_root = os.path.dirname(os.path.dirname(T.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert int(out.stdout) < 512  # kilobytes
