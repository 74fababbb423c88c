import itertools
import math
import re

import numpy as np
import pytest

from negwit import contextuality as C


def test_scenario_validation():
    with pytest.raises(ValueError):
        C.Scenario(("x", "y"), (("x",),), {"x": (0, 1), "y": (0, 1)})
    with pytest.raises(ValueError):  # nested contexts break the antichain
        C.Scenario(("x", "y"), (("x", "y"), ("x",)), {"x": (0, 1), "y": (0, 1)})


def test_incidence_bell_scenario():
    M = C.incidence(C.bell_scenario_222())
    assert M.shape == (16, 16)
    # one restriction per context for every global assignment
    assert set(M.sum(axis=0).tolist()) == {4}


def test_incidence_single_total_context():
    sc = C.Scenario(("x", "y"), (("x", "y"),), {"x": (0, 1), "y": (0, 1)})
    M = C.incidence(sc)
    assert M.shape == (4, 4)
    assert np.array_equal(M.sum(axis=0), np.ones(4, dtype=M.dtype))


def test_incidence_cap():
    sc = C.Scenario(
        tuple(f"x{i}" for i in range(21)),
        tuple((f"x{i}", f"x{(i + 1) % 21}") for i in range(21)),
        {f"x{i}": (0, 1) for i in range(21)},
    )
    with pytest.raises(ValueError):
        C.incidence(sc)


def test_model_compatibility_enforced():
    sc = C.bell_scenario_222()
    tables = {
        ("a1", "b1"): {(0, 0): 1.0},
        ("a1", "b2"): {(1, 0): 1.0},  # a1-marginal disagrees
        ("a2", "b1"): {(0, 0): 1.0},
        ("a2", "b2"): {(0, 0): 1.0},
    }
    with pytest.raises(ValueError, match="incompatible"):
        C.EmpiricalModel(sc, tables)


def test_model_rejects_nan_entry():
    # every check compared with ">", which a NaN entry passes
    sc = C.bell_scenario_222()
    tables = dict(C.example_model("chsh").tables)
    tables[("a2", "b1")] = {**tables[("a2", "b1")], (0, 0): math.nan}
    with pytest.raises(ValueError, match=r"table for context \('a2', 'b1'\) sums to nan"):
        C.EmpiricalModel(sc, tables)
    with pytest.raises(ValueError, match="incompatible marginals"):
        C._check_compatibility(sc, tables)


def test_model_rejects_sections_outside_the_scenario():
    # the section (0, 7) was accepted, vector() dropped its probability, and
    # ncf returned (0.5, 0.5) on a one-context model
    sc = C.Scenario(("x", "y"), (("x", "y"),), {"x": (0, 1), "y": (0, 1)})
    for section in ((0, 7), (0,), (0, 0, 1)):
        with pytest.raises(ValueError, match=rf"has section {re.escape(str(section))}"):
            C.EmpiricalModel(sc, {("x", "y"): {(0, 0): 0.5, section: 0.5}})
    with pytest.raises(ValueError, match=r"no table for context \('x', 'y'\)"):
        C.EmpiricalModel(sc, {("y", "x"): {(0, 0): 1.0}})
    with pytest.raises(ValueError, match=r"table for \('x',\), which is not"):
        C.EmpiricalModel(sc, {("x", "y"): {(0, 0): 1.0}, ("x",): {(0,): 1.0}})


def test_scenario_rejects_unhashable_outcomes():
    # an outcome given as a list was accepted, and the model then failed with
    # a bare TypeError
    with pytest.raises(ValueError, match="outcomes of label 'x' must be hashable"):
        C.Scenario(("x", "y"), (("x", "y"),), {"x": (0, [1]), "y": (0, 1)})


def test_chsh_fraction_matches_closed_form():
    # Tsirelson-point tables: NCF = 2 - S/2 with S = 2 sqrt 2
    n, cf, b = C.ncf(C.example_model("chsh"))
    assert n == pytest.approx(2 - math.sqrt(2), abs=1e-6)
    assert cf == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
    M = C.incidence(C.bell_scenario_222()).astype(float)
    v = C.example_model("chsh").vector()
    assert np.all(M @ b <= v + 1e-9)


def test_pr_box_strongly_contextual():
    n, cf, _ = C.ncf(C.example_model("pr_box"))
    assert cf == pytest.approx(1.0, abs=1e-8)
    assert n == pytest.approx(0.0, abs=1e-8)


def test_deterministic_model_noncontextual():
    _, cf, _ = C.ncf(C.example_model("identity_mix"))
    assert cf == pytest.approx(0.0, abs=1e-9)


def test_hardy_model_contextual_not_strongly():
    n, cf, _ = C.ncf(C.example_model("hardy"))
    assert 0.0 < cf < 1.0


def _reference_lp(model):
    """The unreduced LP over every section and every global assignment."""
    from scipy.optimize import linprog

    M = C.incidence(model.scenario).astype(float)
    res = linprog(
        c=-np.ones(M.shape[1]),
        A_ub=M,
        b_ub=model.vector(),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return -res.fun, -np.array(res.ineqlin.marginals)


def test_lp_strong_duality():
    for name in ("chsh", "pr_box", "hardy", "identity_mix"):
        model = C.example_model(name)
        n, _, _ = C.ncf(model)
        # value of the unreduced dual = value of the primal
        _, y = _reference_lp(model)
        assert abs(float(model.vector() @ y) - n) < 1e-8


def _reduction_models():
    rng = np.random.default_rng(19)
    models = [C.example_model(name) for name in ("chsh", "pr_box", "hardy", "identity_mix")]
    for labels in (3, 4, 5, 6):
        for _ in range(4):
            model = C.random_compatible_model(rng, labels, 3)
            maps = {
                x: {o: int(rng.integers(2)) for o in model.scenario.outcomes[x]}
                for x in model.scenario.labels
            }
            models += [model, C.bin_outcomes(model, maps)]
    return models


def test_positive_section_lp_matches_unreduced_lp():
    dropped_any = False
    for model in _reduction_models():
        M = C.incidence(model.scenario).astype(float)
        v = model.vector()
        n, cf, b = C.ncf(model)
        assert n == pytest.approx(_reference_lp(model)[0], abs=1e-10)
        dead = M[v == 0].any(axis=0)
        dropped_any = dropped_any or bool(dead.any())
        assert np.all(b[dead] == 0)
        assert np.all(M @ b <= v + 1e-9)
        form = C.bell_inequality(model)
        # over every global assignment, the dropped ones included
        assert float((M.T @ form.coefficients).max()) <= 1e-10
        if cf > 1e-6:
            assert form.normalised_violation(model) == pytest.approx(cf, abs=1e-10)
    assert dropped_any


def test_pr_box_needs_no_lp(monkeypatch):
    calls = []
    monkeypatch.setattr(C, "linprog", lambda *a, **k: calls.append(a))
    model = C.example_model("pr_box")
    n, cf, b = C.ncf(model)
    form = C.bell_inequality(model)
    assert calls == []
    assert (n, cf) == (0.0, 1.0) and not b.any()
    assert form.normalised_violation(model) == 1.0


def test_bell_form_properties():
    model = C.example_model("chsh")
    form = C.bell_inequality(model)
    M = C.incidence(model.scenario).astype(float)
    # every noncontextual model scores at most zero, columnwise
    assert float((M.T @ form.coefficients).max()) <= 1e-9
    _, cf, _ = C.ncf(model)
    assert form.normalised_violation(model) == pytest.approx(cf, abs=1e-6)
    assert form.norm() > 0


def test_bell_form_edge_models():
    pr = C.example_model("pr_box")
    assert C.bell_inequality(pr).normalised_violation(pr) == pytest.approx(1.0, abs=1e-6)
    flat = C.example_model("identity_mix")
    assert C.bell_inequality(flat).normalised_violation(flat) == pytest.approx(
        0.0, abs=1e-9
    )


def test_binning_identity_and_collapse():
    model = C.example_model("chsh")
    ident = {x: {o: o for o in model.scenario.outcomes[x]} for x in model.scenario.labels}
    same = C.bin_outcomes(model, ident)
    assert C.ncf(same)[1] == pytest.approx(C.ncf(model)[1], abs=1e-9)
    collapse = {x: {o: 0 for o in model.scenario.outcomes[x]} for x in model.scenario.labels}
    flat = C.bin_outcomes(model, collapse)
    assert C.ncf(flat)[1] == pytest.approx(0.0, abs=1e-9)
    partial = {x: dict(list(ident[x].items())[:-1]) for x in model.scenario.labels}
    with pytest.raises(ValueError, match="not total"):
        C.bin_outcomes(model, partial)


def test_binning_monotone_on_random_models():
    rng = np.random.default_rng(42)
    for _ in range(60):
        model = C.random_compatible_model(rng)
        cf0 = C.ncf(model)[1]
        maps = {}
        for x in model.scenario.labels:
            targets = [int(rng.integers(2)) for _ in model.scenario.outcomes[x]]
            if len(set(targets)) == 1:
                targets[-1] = 1 - targets[-1]
            maps[x] = dict(zip(model.scenario.outcomes[x], targets))
        cf1 = C.ncf(C.bin_outcomes(model, maps))[1]
        assert cf1 <= cf0 + 1e-8


def test_example_rows_sum_to_one():
    for name in ("chsh", "pr_box", "hardy", "identity_mix"):
        model = C.example_model(name)
        for c in model.scenario.contexts:
            assert sum(model.tables[tuple(c)].values()) == pytest.approx(1.0)
    chsh = C.example_model("chsh")
    assert chsh.prob(("a1", "b1"), (0, 0)) == pytest.approx((2 + math.sqrt(2)) / 8)
    with pytest.raises(ValueError):
        C.example_model("nonesuch")


def test_json_round_trip():
    model = C.example_model("chsh")
    again = C.EmpiricalModel.from_json(model.to_json())
    assert C.ncf(again)[1] == pytest.approx(C.ncf(model)[1], abs=1e-12)


def _reference_incidence(scenario):
    """The incidence matrix by comparing every section with every assignment."""
    rows = scenario.row_index()
    cols = list(itertools.product(*(scenario.outcomes[x] for x in scenario.labels)))
    M = np.zeros((len(rows), len(cols)), dtype=np.int8)
    for j, combo in enumerate(cols):
        g = dict(zip(scenario.labels, combo))
        for i, (c, s) in enumerate(rows):
            M[i, j] = tuple(g[x] for x in c) == tuple(s)
    return M


def test_incidence_matches_reference():
    rng = np.random.default_rng(3)
    scenarios = [
        C.bell_scenario_222(),
        C.Scenario(("p", "q"), (("q", "p"),), {"p": ("b", "a", "c"), "q": (1, 0)}),
    ]
    for _ in range(8):
        model = C.random_compatible_model(
            rng, int(rng.integers(3, 7)), int(rng.integers(2, 4))
        )
        maps = {
            x: {o: int(rng.integers(2)) for o in model.scenario.outcomes[x]}
            for x in model.scenario.labels
        }
        scenarios += [model.scenario, C.bin_outcomes(model, maps).scenario]
    for sc in scenarios:
        M = C.incidence(sc)
        assert M.dtype == np.int8
        assert np.array_equal(M, _reference_incidence(sc))


def test_zero_bell_form_reports_no_violation():
    # a noncontextual model whose dual form is zero only up to roundoff
    model = C.random_compatible_model(np.random.default_rng(158), 5, 3)
    _, cf, _ = C.ncf(model)
    assert cf == pytest.approx(0.0, abs=1e-9)
    form = C.bell_inequality(model)
    assert abs(form.norm()) < 1e-9
    assert form.normalised_violation(model) == 0.0
