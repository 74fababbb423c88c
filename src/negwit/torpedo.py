"""The Torpedo information-retrieval game: classical, quantum, contextual.

A (2,1)_d game: the referee hands Alice inputs (x, z) in Z_d^2, Bob a
question q; Bob answers c and wins when c avoids the unique line through
(x, z) of slope q.  One vectorised kernel scores batches of message grids,
each under its closed-form optimal decoding.  With the win counts as
weights, over every grid up to message relabelling, it gives exact
classical values; quantum strategies are evaluated by the Born rule in the
mutually unbiased bases; the bounded-memory noncontextual fraction is a
linear program over deterministic strategy columns, generated lazily by the
same kernel with the LP duals as weights.

The master LP calls ``linprog`` from ``numerics``, which imports SciPy's LP
solver on its first call, so the classical and quantum values never load
it.  ``_master_lp`` looks ``linprog`` up by its global name here, so a
tracer or a test can patch ``torpedo.linprog``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import linprog
from .qudit import PAULI_X, PAULI_Y, PAULI_Z, displacement_dv, displacement_q2
from .qudit import mub_projectors, phase_point

GRID_CAP = 10**7
COLUMN_CAP = 10**5
SEARCH_BATCH = 1024  # random grids scored per kernel call


@dataclass(frozen=True)
class TorpedoGame:
    """Winning relations per question; questions are 'inf' plus 0..d-1."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("input dimension must be at least 2")

    @property
    def questions(self) -> tuple:
        return ("inf",) + tuple(range(self.d))

    def forbidden(self, q, x: int, z: int) -> int:
        """The single losing answer for question q at input (x, z)."""
        if q == "inf":
            return x % self.d
        return (q * x - z) % self.d

    def winning(self, q, x: int, z: int) -> frozenset:
        f = self.forbidden(q, x, z)
        return frozenset(a for a in range(self.d) if a != f)


@dataclass(frozen=True)
class ClassicalStrategy:
    """grid[(x, z)] is the message sent for input (x, z), and decodings[q][j]
    the answer to question q on message j, each an int (a NaN fails).  Shared
    randomness only mixes these deterministic strategies."""

    d_in: int
    d_msg: int
    grid: dict
    decodings: dict

    def __post_init__(self):
        d, n = self.d_in, self.d_msg
        questions = TorpedoGame(d).questions
        if set(self.grid) != {(x, z) for x in range(d) for z in range(d)}:
            raise ValueError(f"grid must give a message for each cell of Z_{d}^2 only")
        for cell, j in self.grid.items():
            if not (isinstance(j, int) and 0 <= j < n):
                raise ValueError(f"message of cell {cell} must be an int in range({n})")
        if set(self.decodings) != set(questions):
            raise ValueError(f"decodings must answer each question of {questions} only")
        decodings = {q: tuple(self.decodings[q]) for q in questions}
        for q, a in decodings.items():
            if len(a) != n or not all(isinstance(c, int) and 0 <= c < d for c in a):
                raise ValueError(
                    f"answers to question {q} must be {n} ints in range({d})"
                )
        object.__setattr__(self, "decodings", decodings)

    def to_json(self) -> str:
        d = self.d_in
        return json.dumps(
            {
                "d_in": d,
                "d_msg": self.d_msg,
                "grid": [[self.grid[(x, z)] for z in range(d)] for x in range(d)],
                "decodings": {str(q): list(a) for q, a in self.decodings.items()},
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str) -> "ClassicalStrategy":
        """The strategy of a :meth:`to_json` document; ValueError on another shape."""
        raw = json.loads(text)
        try:
            rows, answers = raw["grid"], raw["decodings"].items()
            grid = {(x, z): j for x, row in enumerate(rows) for z, j in enumerate(row)}
            decodings = {q if q == "inf" else int(q): a for q, a in answers}
            return ClassicalStrategy(raw["d_in"], raw["d_msg"], grid, decodings)
        except (TypeError, KeyError, AttributeError) as exc:
            raise ValueError(f"strategy document has the wrong shape: {exc}") from exc


@dataclass(frozen=True)
class QuantumStrategy:
    """One d x d message operator per cell (x, z) of Z_d^2, Hermitian with unit
    trace (psd not required, to admit phase-point messages), measured in the
    MUBs that ``mub_projectors`` builds."""

    d: int
    messages: dict

    def __post_init__(self):
        d = self.d
        mub_projectors(d)  # ValueError on an unsupported dimension
        # each test is written so that a NaN entry fails it
        for cell, rho in self.messages.items():
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (d, d):
                raise ValueError(f"message {cell} must be a {d}x{d} matrix")
            if not np.max(np.abs(rho - rho.conj().T)) <= 1e-9:
                raise ValueError(f"message {cell} must be Hermitian")
            if not abs(np.trace(rho).real - 1.0) <= 1e-9:
                raise ValueError(f"message {cell} must have unit trace")
        if set(self.messages) != {(x, z) for x in range(d) for z in range(d)}:
            raise ValueError(f"messages must be given for each cell of Z_{d}^2 only")

    def to_json(self) -> str:
        msgs = {
            f"{x},{z}": [[[v.real, v.imag] for v in row] for row in np.asarray(rho)]
            for (x, z), rho in sorted(self.messages.items())
        }
        return json.dumps({"d": self.d, "messages": msgs}, indent=1)

    @staticmethod
    def from_json(text: str) -> "QuantumStrategy":
        """The strategy of a :meth:`to_json` document; ValueError on another shape."""
        raw = json.loads(text)
        try:
            msgs = {}
            for key, rows in raw["messages"].items():
                x, z = (int(v) for v in key.split(","))
                msgs[(x, z)] = np.array(
                    [[complex(re, im) for re, im in row] for row in rows]
                )
            return QuantumStrategy(raw["d"], msgs)
        except (TypeError, KeyError, AttributeError) as exc:
            raise ValueError(f"strategy document has the wrong shape: {exc}") from exc


def _qubit_strategy(base: np.ndarray) -> QuantumStrategy:
    """The qubit strategy that sends (x, z) as D base D^dagger, D = X^x Z^z."""
    Ds = {(x, z): displacement_q2(x, z) for x in range(2) for z in range(2)}
    return QuantumStrategy(2, {k: D @ base @ D.conj().T for k, D in Ds.items()})


def canonical_quantum_strategy(d: int) -> QuantumStrategy:
    """The maximally-negative-state strategy (perfect for odd prime d)."""
    if d == 2:
        return _qubit_strategy(
            0.5 * (np.eye(2) - (PAULI_X + PAULI_Y + PAULI_Z) / math.sqrt(3))
        )
    psi = np.zeros(d, dtype=complex)
    psi[1] = 1 / math.sqrt(2)
    psi[-1 % d] = -1 / math.sqrt(2)
    msgs = {}
    for x in range(d):
        for z in range(d):
            v = displacement_dv(d, x, z) @ psi
            msgs[(x, z)] = np.outer(v, v.conj())
    return QuantumStrategy(d, msgs)


def phase_point_strategy(d: int) -> QuantumStrategy:
    """Messages built from phase-point operators; wins with certainty.

    The grid point (x, z) is sent as the unit-trace Hermitian operator whose
    discrete Wigner mass avoids every line through (x, z): (1 - A_{x,z})/(d-1)
    for odd prime d (a proper state there), and the Bloch-exterior qubit
    analogue (1 - X - Y - Z)/2, which is not positive semidefinite.
    """
    if d == 2:
        return _qubit_strategy(0.5 * (np.eye(2) - PAULI_X - PAULI_Y - PAULI_Z))
    msgs = {
        (x, z): (np.eye(d) - phase_point(d, x, z)) / (d - 1)
        for x in range(d)
        for z in range(d)
    }
    return QuantumStrategy(d, msgs)


def behaviour_of_quantum(strategy: QuantumStrategy, game: TorpedoGame) -> dict:
    """Outcome distributions p(c | x, z, q) by the Born rule."""
    d = game.d
    if strategy.d != d:
        raise ValueError("strategy dimension does not match the game")
    projectors = mub_projectors(d)
    out = {}
    for (x, z), rho in strategy.messages.items():
        for q in game.questions:
            probs = [float(np.trace(rho @ projectors[q][c]).real) for c in range(d)]
            out[(x, z, q)] = tuple(probs)
    return out


# ---------------------------------------------------------------------------
# the scoring kernel
# ---------------------------------------------------------------------------


def _score(onehot: np.ndarray, weights: np.ndarray):
    """Score a batch of message grids, each under its best decoding.

    onehot[g, k, j] is 1 when grid g sends cell k as message j, and
    weights[k, q, c] is what answer c to question q earns at cell k.
    Returns (values, decodings): values[g] is the sum over messages j and
    questions q of the largest total weight, over answers c, of the cells
    sent as j; decodings[g, j, q] is the first answer attaining it.
    """
    # einsum, not a BLAS product: threaded BLAS is slower on these thin shapes
    scores = np.einsum("gkj,kqc->gjqc", onehot, weights)
    return scores.max(axis=3).sum(axis=(1, 2)), scores.argmax(axis=3)


@functools.cache
def _canonical_grids(cells: int, d_msg: int) -> np.ndarray:
    """Every message grid up to message relabelling, one-hot and read-only.

    A grid's score does not change when its messages are relabelled, so one
    grid per class is enough: the restricted-growth string, in which each
    cell's message is at most one more than the largest message of the cells
    before it.  It is the lexicographically first grid of its class, and the
    classes are listed in lexicographic order, so the first maximiser here
    is the first maximiser over all d_msg ** cells grids.
    """
    labels = np.zeros((1, 1), dtype=np.int64)
    for _ in range(cells - 1):
        counts = np.minimum(labels.max(axis=1) + 2, d_msg)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        labels = np.column_stack(
            [np.repeat(labels, counts, axis=0), np.arange(starts.size) - starts]
        )
    onehot = np.eye(d_msg, dtype=np.int8)[labels]
    onehot.flags.writeable = False
    return onehot


def _win_weights(game: TorpedoGame) -> np.ndarray:
    """weights[k, q, c] = 1 when answer c to question q wins at cell k = (x, z)."""
    d = game.d
    weights = np.ones((d * d, len(game.questions), d), dtype=np.int64)
    for k in range(d * d):
        x, z = divmod(k, d)
        for qi, q in enumerate(game.questions):
            weights[k, qi, game.forbidden(q, x, z)] = 0
    return weights


def _strategy(game: TorpedoGame, d_msg: int, onehot, decodings) -> ClassicalStrategy:
    """The deterministic strategy of one scored grid and its decodings."""
    d = game.d
    grid = {divmod(k, d): j for k, j in enumerate(onehot.argmax(axis=1).tolist())}
    answers = {q: decodings[:, i].tolist() for i, q in enumerate(game.questions)}
    return ClassicalStrategy(d, d_msg, grid, answers)


# ---------------------------------------------------------------------------
# classical values
# ---------------------------------------------------------------------------


def _check_d_msg(d_msg: int):
    if d_msg < 1:
        raise ValueError("message dimension must be at least 1")


def _exhaustive(d_in: int, d_msg: int):
    """Win counts of every canonical grid: (game, grids, values, decodings)."""
    _check_d_msg(d_msg)
    if d_msg ** (d_in * d_in) > GRID_CAP:
        raise ValueError("grid space exceeds the exhaustive-search cap")
    game = TorpedoGame(d_in)
    grids = _canonical_grids(d_in * d_in, d_msg)
    return (game, grids, *_score(grids, _win_weights(game)))


def classical_value(d_in: int, d_msg: int) -> Fraction:
    """Exact optimum over deterministic strategies by exhaustive grid
    search with the closed-form optimal decoding per grid."""
    game, _, values, _ = _exhaustive(d_in, d_msg)
    return Fraction(int(values.max()), d_in * d_in * len(game.questions))


def best_classical_strategy(d_in: int, d_msg: int) -> ClassicalStrategy:
    """The lexicographically first optimal deterministic strategy."""
    game, grids, values, decodings = _exhaustive(d_in, d_msg)
    g = int(values.argmax())
    return _strategy(game, d_msg, grids[g], decodings[g])


def random_strategy_search(d_in: int, d_msg: int, trials: int = 2000, seed: int = 0):
    """Randomised search over deterministic grids (large dimensions).

    Samples message grids and pairs each with its optimal decoding; returns
    (best value found, best strategy).  A lower bound on the classical
    value, not a guarantee: intended as a verifier for dimensions where the
    exhaustive search is out of range.
    """
    _check_d_msg(d_msg)
    rng = np.random.default_rng(seed)
    game = TorpedoGame(d_in)
    weights = _win_weights(game)
    cells, rounds = d_in * d_in, d_in * d_in * len(game.questions)
    best, best_strat = Fraction(0), None
    for start in range(0, trials, SEARCH_BATCH):
        labels = rng.integers(d_msg, size=(min(SEARCH_BATCH, trials - start), cells))
        grids = np.eye(d_msg, dtype=np.int8)[labels]
        values, decodings = _score(grids, weights)
        g = int(values.argmax())
        value = Fraction(int(values[g]), rounds)
        if value > best:
            best, best_strat = value, _strategy(game, d_msg, grids[g], decodings[g])
            if best == 1:
                break
    return best, best_strat


def behaviour_of_classical(strategy: ClassicalStrategy) -> dict:
    """Outcome distributions p(c | x, z, q), exactly: Fraction 1 on the
    answer the strategy gives, 0 elsewhere."""
    d, questions = strategy.d_in, TorpedoGame(strategy.d_in).questions
    out = {}
    for x in range(d):
        for z in range(d):
            for q in questions:
                answer = strategy.decodings[q][strategy.grid[(x, z)]]
                out[(x, z, q)] = tuple(Fraction(int(c == answer)) for c in range(d))
    return out


def explicit_noncontextual_model() -> ClassicalStrategy:
    """The optimal trit hidden-variable model: 33 of the 36 constraints.

    Preparation vectors are the stated partition of the grid.  The stated
    measurement matrices label each direction's outcomes by their own
    basis-ordering; converted to the omega^c eigenvector labelling used
    here they read (2,1,0), (1,2,0), (1,2,0), (1,0,2).
    """
    grid = {
        (0, 0): 0, (0, 1): 0, (1, 1): 0,
        (1, 0): 1, (0, 2): 1, (2, 2): 1,
        (2, 0): 2, (2, 1): 2, (1, 2): 2,
    }
    decodings = {"inf": (2, 1, 0), 0: (1, 2, 0), 1: (1, 2, 0), 2: (1, 0, 2)}
    return ClassicalStrategy(3, 3, grid, decodings)


def win_rate(behaviour: dict, game: TorpedoGame):
    """Winning probability of a behaviour, averaged uniformly; exact when its
    probabilities are Fractions."""
    total = sum(
        sum(probs[c] for c in game.winning(q, x, z))
        for (x, z, q), probs in behaviour.items()
    )
    return total / (game.d * game.d * len(game.questions))


def average_failure(behaviour: dict, game: TorpedoGame) -> float:
    """epsilon: probability of the forbidden outcome, averaged uniformly."""
    d = game.d
    total = 0.0
    for (x, z, q), probs in behaviour.items():
        total += probs[game.forbidden(q, x, z)]
    return total / (d * d * len(game.questions))


# ---------------------------------------------------------------------------
# bounded-memory noncontextual fraction
# ---------------------------------------------------------------------------


def _master_lp(columns: np.ndarray, target: np.ndarray):
    """max 1.b s.t. columns^T b <= target, b >= 0 (returns res)."""
    res = linprog(
        c=-np.ones(columns.shape[0]),
        A_ub=columns.T,
        b_ub=target,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"master LP failed: {res.message}")
    return res


def bounded_memory_ncf(behaviour: dict, d: int) -> float:
    """Largest weight of a bounded-memory noncontextual part of the behaviour.

    Column generation over the deterministic strategies S, for d = 2 and 3.
    The master LP's duals y >= 0 are dual feasible when y . e^S >= 1 for
    every S, so a column enters when the least y . e^S, found by the scoring
    kernel (for a fixed message grid the best decodings decouple per
    question), is below 1.  The loop stops when it is not, or when the
    master value meets a dual bound: y over that least price, or the
    forbidden-answer indicator over the fewest losses of any strategy.
    """
    if d not in (2, 3):
        raise ValueError("bounded-memory NCF implemented for d = 2 and 3")
    game = TorpedoGame(d)
    keys = [(x, z, q) for x in range(d) for z in range(d) for q in game.questions]
    target = np.array([behaviour[k][c] for k in keys for c in range(d)], dtype=float)
    grids = _canonical_grids(d * d, d)
    shape = (d * d, len(game.questions), d)

    def price(duals: np.ndarray):
        """Least column value sum(duals * e^S) over all strategies S, and e^S."""
        values, decodings = _score(grids, -duals.reshape(shape))
        g = int(values.argmax())
        answers = decodings[g][grids[g].argmax(axis=1)]  # [cell, q]
        column = np.zeros(shape)
        np.put_along_axis(column, answers[..., None], 1.0, axis=2)
        return -float(values[g]), column.reshape(-1)

    # forbidden . e^S counts the losses of S: over the fewest losses it is
    # dual feasible, and bounds the value by epsilon / nu
    forbidden = 1.0 - _win_weights(game).reshape(-1)
    bound = float(target @ forbidden) / price(forbidden)[0]
    # start from the behaviour-greedy column, the largest target . e^S
    mat = [price(-target)[1]]
    while len(mat) <= COLUMN_CAP:
        res = _master_lp(np.array(mat), target)
        value = max(0.0, float(-res.fun)) + 0.0
        if value >= bound - 1e-10:
            return value
        duals = -np.array(res.ineqlin.marginals)  # >= 0 for <= constraints
        least, column = price(duals)
        # duals / least is dual feasible; at least >= 1 the master is optimal.
        # A master column prices below 1 only within the LP's own tolerance.
        if least >= 1.0 - 1e-10 or any(np.array_equal(column, m) for m in mat):
            return value
        if least > 0:
            bound = min(bound, value / least)
        mat.append(column)
    raise RuntimeError("column generation did not converge within the cap")


def ncf_bound_holds(behaviour: dict, d: int, theta_classical: float) -> bool:
    """Check epsilon >= NCF * (1 - theta^C) for a behaviour, to within 1e-9."""
    eps = average_failure(behaviour, TorpedoGame(d))
    ncf = bounded_memory_ncf(behaviour, d)
    return eps + 1e-9 >= ncf * (1.0 - theta_classical)
