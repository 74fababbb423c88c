import pytest

from negwit import conic


@pytest.fixture
def solve_calls(monkeypatch):
    """Every solution ``conic.solve`` returns during the test, in call order."""
    calls = []
    solve = conic.solve

    def counted(prob, **kwargs):
        sol = solve(prob, **kwargs)
        calls.append(sol)
        return sol

    monkeypatch.setattr(conic, "solve", counted)
    return calls
