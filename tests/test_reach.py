import importlib.util
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
