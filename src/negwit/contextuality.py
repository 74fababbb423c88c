"""Measurement scenarios, empirical models, and the contextual fraction.

The noncontextual fraction is the optimum of a linear program over
subdistributions on global assignments; its dual, after the standard
change of variables, is a generalised Bell form with bound zero whose
normalised violation equals the contextual fraction.  Everything here is
finite and dense: `incidence` builds the full 0/1 matrix over every global
assignment, up to a hard cap on their number.

The LP runs on the positive sections only (Abramsky, Barbosa & Mansfield,
PRL 119, 050504, 2017).  A global assignment through a section of
probability 0 must carry weight 0, so its column is dropped with the
section's row.  Setting the dual to 1 on every dropped row covers each
dropped column (M^T y >= 1) and adds v . y = 0, so the reduced LP's duals
extend to an optimal dual of the full LP.  Any optimal dual gives the Bell
form the same guarantee: when the contextual fraction is positive, the form
has unit norm and its normalised violation equals the fraction.

The LP calls ``linprog`` from ``numerics``, which imports SciPy's LP solver
on its first call, so importing this module does not load it.
``_noncontextual_lp`` looks ``linprog`` up by its global name here, so a
tracer or a test can patch ``contextuality.linprog``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import linprog

GLOBAL_CAP = 10**6
COMPAT_TOL = 1e-9
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Measurement labels, maximal contexts (an antichain cover), outcomes."""

    labels: tuple
    contexts: tuple  # tuples of labels
    outcomes: dict   # label -> tuple of outcome symbols

    def __post_init__(self):
        labels = tuple(self.labels)
        contexts = tuple(tuple(c) for c in self.contexts)
        covered = set().union(*map(set, contexts)) if contexts else set()
        if covered != set(labels):
            raise ValueError("contexts must cover the label set")
        for c in contexts:
            for c2 in contexts:
                if c != c2 and set(c) <= set(c2):
                    raise ValueError("contexts must form an antichain")
        outcomes = {x: tuple(self.outcomes[x]) for x in labels}
        for x, symbols in outcomes.items():
            try:
                set(symbols)
            except TypeError:
                raise ValueError(
                    f"outcomes of label {x!r} must be hashable, not {symbols!r}"
                ) from None
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "outcomes", outcomes)

    def sections(self, context) -> list:
        return list(itertools.product(*(self.outcomes[x] for x in context)))

    def n_global(self) -> int:
        out = 1
        for x in self.labels:
            out *= len(self.outcomes[x])
        return out

    def row_index(self) -> list:
        """Flattened (context, section) row labels in a fixed order."""
        rows = []
        for c in self.contexts:
            for s in self.sections(c):
                rows.append((c, s))
        return rows


@dataclass(frozen=True)
class EmpiricalModel:
    """Per-context probability tables satisfying no-disturbance."""

    scenario: Scenario
    tables: dict  # context tuple -> {section tuple: probability}

    def __post_init__(self):
        outcomes = {x: set(o) for x, o in self.scenario.outcomes.items()}
        tables = {}
        # each test is written so that a NaN entry fails it
        for c in self.scenario.contexts:
            if c not in self.tables:
                raise ValueError(f"no table for context {c}")
            table = dict(self.tables[c])
            for s in table:
                if len(s) != len(c) or not all(o in outcomes[x] for x, o in zip(c, s)):
                    raise ValueError(
                        f"table for context {c} has section {s}, outside the scenario"
                    )
            total = sum(table.values())
            if not abs(total - 1.0) <= COMPAT_TOL:
                raise ValueError(f"table for context {c} sums to {total}")
            if not all(v >= -COMPAT_TOL for v in table.values()):
                raise ValueError(f"table for context {c} has a negative or NaN entry")
            tables[c] = table
        for c in self.tables:
            if c not in tables:
                raise ValueError(f"table for {c}, which is not a scenario context")
        object.__setattr__(self, "tables", tables)
        _check_compatibility(self.scenario, tables)

    def prob(self, context, section) -> float:
        return self.tables[tuple(context)].get(tuple(section), 0.0)

    def vector(self) -> np.ndarray:
        rows = self.scenario.row_index()
        return np.array([self.prob(c, s) for c, s in rows])

    def to_json(self) -> str:
        sc = self.scenario
        return json.dumps(
            {
                "labels": list(sc.labels),
                "contexts": [list(c) for c in sc.contexts],
                "outcomes": {str(x): list(sc.outcomes[x]) for x in sc.labels},
                "tables": [
                    {
                        "context": list(c),
                        "rows": [[list(s), p] for s, p in sorted(tab.items(), key=str)],
                    }
                    for c, tab in self.tables.items()
                ],
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str) -> "EmpiricalModel":
        """The model of a :meth:`to_json` document; ValueError on another shape."""
        raw = json.loads(text)
        try:
            labels = tuple(raw["labels"])
            scenario = Scenario(
                labels=labels,
                contexts=tuple(tuple(c) for c in raw["contexts"]),
                outcomes={x: tuple(raw["outcomes"][str(x)]) for x in labels},
            )
            tables = {}
            for entry in raw["tables"]:
                c = tuple(entry["context"])
                tables[c] = {tuple(s): float(p) for s, p in entry["rows"]}
        except (TypeError, KeyError) as exc:
            raise ValueError(f"model document has the wrong shape: {exc}") from exc
        return EmpiricalModel(scenario, tables)


def _check_compatibility(scenario: Scenario, tables) -> None:
    for c1 in scenario.contexts:
        for c2 in scenario.contexts:
            shared = tuple(x for x in c1 if x in c2)
            if not shared or c1 >= c2:
                continue
            m1 = _marginal(scenario, tables, c1, shared)
            m2 = _marginal(scenario, tables, c2, shared)
            for key in set(m1) | set(m2):
                if not abs(m1.get(key, 0.0) - m2.get(key, 0.0)) <= COMPAT_TOL:
                    raise ValueError(
                        f"incompatible marginals on {shared} between {c1} and {c2}"
                    )


def _marginal(scenario, tables, context, shared):
    idx = [context.index(x) for x in shared]
    out = {}
    for s, p in tables[tuple(context)].items():
        key = tuple(s[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def incidence(scenario: Scenario) -> np.ndarray:
    """0/1 matrix: rows (context, section), columns global assignments.

    Both follow the product order of the outcome tuples, so a global
    assignment's row in each context is the mixed-radix index of its
    outcome positions on that context's labels.
    """
    if scenario.n_global() > GLOBAL_CAP:
        raise ValueError("global assignment space exceeds the cap")
    labels = scenario.labels
    sizes = {x: len(scenario.outcomes[x]) for x in labels}
    # at[x][g]: the position in outcomes[x] of global assignment g's outcome
    at = dict(zip(labels, np.indices(tuple(sizes.values())).reshape(len(labels), -1)))
    columns = np.arange(scenario.n_global())
    n_rows = sum(math.prod(sizes[x] for x in c) for c in scenario.contexts)
    M = np.zeros((n_rows, columns.size), dtype=np.int8)
    start = 0
    for c in scenario.contexts:
        dims = tuple(sizes[x] for x in c)
        M[start + np.ravel_multi_index([at[x] for x in c], dims), columns] = 1
        start += math.prod(dims)
    return M


def _noncontextual_lp(model: EmpiricalModel):
    """Solve the noncontextual-fraction LP once: (ncf, subdistribution b,
    dual-optimal Bell form).

    The LP runs on the positive sections only, as the module docstring
    explains; b is 0 on the dropped global assignments.  The Bell form is
    a = 1/|contexts| - y for the duals y >= 0, with y = 1 on the dropped
    sections, so M^T a <= 0 columnwise.
    """
    M = incidence(model.scenario)
    v = model.vector()
    live = v != 0
    cols = ~M[~live].any(axis=0)
    b = np.zeros(M.shape[1])
    y = np.ones(len(v))
    y[live] = 0.0
    value = 0.0
    if cols.any():
        res = linprog(
            c=-np.ones(int(cols.sum())),
            A_ub=M[np.ix_(live, cols)].astype(float),
            b_ub=v[live],
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"noncontextual-fraction LP failed: {res.message}")
        value = min(max(float(-res.fun), 0.0), 1.0) + 0.0  # normalise -0.0
        b[cols] = np.maximum(res.x, 0.0)
        y[live] = -np.array(res.ineqlin.marginals)  # optimal duals, >= 0
    a = np.full(len(v), 1.0 / len(model.scenario.contexts)) - y
    form = BellForm(scenario=model.scenario, coefficients=a)
    return value, b, form


def ncf(model: EmpiricalModel):
    """Noncontextual fraction by LP; returns (ncf, cf, subdistribution b)."""
    value, b, _ = _noncontextual_lp(model)
    return value, 1.0 - value, b


@dataclass(frozen=True)
class BellForm:
    """Generalised Bell functional with bound 0: a . v <= 0 classically."""

    scenario: Scenario
    coefficients: np.ndarray

    def norm(self) -> float:
        total = 0.0
        start = 0
        for c in self.scenario.contexts:
            k = len(self.scenario.sections(c))
            total += float(np.max(self.coefficients[start : start + k]))
            start += k
        return total

    def value(self, model: EmpiricalModel) -> float:
        return float(self.coefficients @ model.vector())

    def normalised_violation(self, model: EmpiricalModel) -> float:
        denom = self.norm()
        if denom <= NORM_TOL:  # the zero form, up to roundoff
            return 0.0
        return max(0.0, self.value(model)) / denom


def bell_inequality(model: EmpiricalModel) -> BellForm:
    """Dual-optimal Bell form with bound 0 and maximal normalised violation."""
    return _noncontextual_lp(model)[2]


def bin_outcomes(model: EmpiricalModel, maps: dict) -> EmpiricalModel:
    """Push the model through per-label outcome coarse-grainings.

    maps[label] is a total function old outcome -> new outcome; shared
    labels keep compatibility because marginals push forward.
    """
    sc = model.scenario
    new_outcomes = {}
    for x in sc.labels:
        fx = maps[x]
        missing = [o for o in sc.outcomes[x] if o not in fx]
        if missing:
            raise ValueError(f"map for label {x} is not total: missing {missing}")
        new_outcomes[x] = tuple(sorted({fx[o] for o in sc.outcomes[x]}, key=str))
    new_scenario = Scenario(sc.labels, sc.contexts, new_outcomes)
    new_tables = {}
    for c in sc.contexts:
        table = {}
        for s, p in model.tables[tuple(c)].items():
            key = tuple(maps[x][o] for x, o in zip(c, s))
            table[key] = table.get(key, 0.0) + p
        new_tables[tuple(c)] = table
    return EmpiricalModel(new_scenario, new_tables)


# ---------------------------------------------------------------------------
# stock models
# ---------------------------------------------------------------------------


def bell_scenario_222() -> Scenario:
    return Scenario(
        labels=("a1", "a2", "b1", "b2"),
        contexts=(("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")),
        outcomes={x: (0, 1) for x in ("a1", "a2", "b1", "b2")},
    )


def example_model(name: str) -> EmpiricalModel:
    """Stock empirical models on the (2,2,2) Bell scenario."""
    sc = bell_scenario_222()
    if name == "chsh":
        e1 = (2.0 + math.sqrt(2.0)) / 8.0
        e2 = (2.0 - math.sqrt(2.0)) / 8.0
        row_a = {(0, 0): e1, (0, 1): e2, (1, 0): e2, (1, 1): e1}
        row_b = {(0, 0): e2, (0, 1): e1, (1, 0): e1, (1, 1): e2}
        tables = {
            ("a1", "b1"): dict(row_a),
            ("a1", "b2"): dict(row_a),
            ("a2", "b1"): dict(row_a),
            ("a2", "b2"): dict(row_b),
        }
    elif name == "pr_box":
        corr = {(0, 0): 0.5, (1, 1): 0.5}
        anti = {(0, 1): 0.5, (1, 0): 0.5}
        tables = {
            ("a1", "b1"): dict(corr),
            ("a1", "b2"): dict(corr),
            ("a2", "b1"): dict(corr),
            ("a2", "b2"): dict(anti),
        }
    elif name == "hardy":
        # possibilistic structure: (1,1) possible in the first context but
        # never extendable; rows are a standard no-signalling realisation
        quarter = {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
        half = {(0, 1): 0.5, (1, 0): 0.5}
        tables = {
            ("a1", "b1"): dict(quarter),
            ("a1", "b2"): dict(half),
            ("a2", "b1"): dict(half),
            ("a2", "b2"): dict(half),
        }
    elif name == "identity_mix":
        uniform = {(i, j): 0.25 for i in (0, 1) for j in (0, 1)}
        tables = {tuple(c): dict(uniform) for c in sc.contexts}
    else:
        raise ValueError(f"unknown example model {name!r}")
    return EmpiricalModel(sc, tables)


def cyclic_scenario(n_labels: int = 3, n_outcomes: int = 3) -> Scenario:
    labels = tuple(f"x{i}" for i in range(n_labels))
    contexts = tuple(
        (labels[i], labels[(i + 1) % n_labels]) for i in range(n_labels)
    )
    return Scenario(labels, contexts, {x: tuple(range(n_outcomes)) for x in labels})


def random_compatible_model(rng, n_labels=3, n_outcomes=3) -> EmpiricalModel:
    """Random mixture of deterministic and shift models on a cyclic scenario.

    Shift models (context i uniform on pairs (a, a + s_i)) are compatible by
    construction and strongly contextual when the shifts do not cancel, so
    mixtures explore the whole contextuality range.
    """
    sc = cyclic_scenario(n_labels, n_outcomes)
    components = []
    for _ in range(3):  # deterministic globals
        g = {x: int(rng.integers(n_outcomes)) for x in sc.labels}
        tables = {}
        for c in sc.contexts:
            tables[tuple(c)] = {tuple(g[x] for x in c): 1.0}
        components.append(tables)
    for _ in range(3):  # cyclic shifts
        shifts = [int(rng.integers(n_outcomes)) for _ in range(len(sc.contexts))]
        tables = {}
        for (c, s) in zip(sc.contexts, shifts):
            tables[tuple(c)] = {
                (a, (a + s) % n_outcomes): 1.0 / n_outcomes
                for a in range(n_outcomes)
            }
        components.append(tables)
    weights = rng.dirichlet(np.ones(len(components)))
    mixed = {}
    for c in sc.contexts:
        table = {}
        for w, tab in zip(weights, components):
            for s, p in tab[tuple(c)].items():
                table[s] = table.get(s, 0.0) + float(w) * p
        mixed[tuple(c)] = table
    return EmpiricalModel(sc, mixed)
