"""scripts/make_fixtures.py rebuilds the committed fixtures.

The committed JSON is the source of truth; the script holds a second copy of
the atlas data, so each table it builds must equal the committed file's.
The script is loaded as a module and its main, which writes fixtures/, is
never called.
"""

import importlib.util
from pathlib import Path

import pytest

from charzero.chartable import load_table, table_to_json, validate

from conftest import FIXTURE_DIR, FIXTURE_NAMES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


@pytest.fixture(scope="module")
def make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_script_builds_the_committed_fixture(make_fixtures, name):
    build = getattr(make_fixtures, name.replace("_", ""))
    t = build()
    assert validate(t) == []
    assert table_to_json(t) == table_to_json(load_table(FIXTURE_DIR / f"{name}.json"))
