import ast
import importlib.util
import math
from pathlib import Path

REACH = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach


def test_every_package_definition_is_reached():
    # a definition that neither the product reaches nor README names as API
    # belongs next to the tests or nowhere; scripts/reach.py lists them
    assert _reach().unreached() == []


def test_every_dataclass_field_is_read():
    # a field that no reached code reads is data nobody uses
    assert _reach().unread_fields() == []


def test_every_defaulted_parameter_is_set():
    # an option that no caller sets is one configuration nobody runs
    assert _reach().unset_parameters() == []


def test_parameters_are_set_by_keyword_or_position():
    reach = _reach()
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "class K:\n"
        "    def m(self, x=1, y=2): pass\n"
        "f(0, 5)\n"
        "K().m(4)\n"
        "g(d=1)\n"
    )
    f, k = tree.body[0], tree.body[1].body[0]
    calls = {}
    for name, count, keywords in reach._calls(tree):
        calls.setdefault(name, []).append((count, keywords))
    assert reach._unset(reach._defaulted(f, False), calls["f"]) == ["c", "d"]
    assert reach._unset(reach._defaulted(k, True), calls["m"]) == ["y"]
    assert reach._unset(reach._defaulted(f, False), [(math.inf, set())]) == ["d"]
    assert reach._unset(reach._defaulted(f, False), [(0, {None})]) == []
