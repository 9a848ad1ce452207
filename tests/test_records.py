"""The records are immutable named tuples, importing the CLI stays light, the
package namespace imports each submodule only when one of its names is used,
no module imports another module's underscore names, and each module's
__all__ lists only names the module defines."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charzero
from charzero.chartable import build_symmetric
from charzero.hcover import min_cover
from charzero.vanishing import zero_pattern
from charzero.zerographs import gamma_v, theta

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    heavy = "{'dataclasses', 'inspect', 'typing', 'fractions', 'decimal', 'numbers', 'cmath'}"
    code = f"import sys, charzero.cli; print(sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def charzero_imports(*args: str) -> list[str]:
    """The charzero modules a `python -S -X importtime` child imports, in order."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    names = [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()]
    return [name for name in names if name.split(".")[0] == "charzero"]


def test_package_import_loads_no_submodule():
    assert charzero_imports("-c", "import charzero") == ["charzero"]


def test_load_table_loads_only_chartable_and_cyclotomic():
    code = "from charzero import load_table; load_table('fixtures/a5.json')"
    assert sorted(charzero_imports("-c", code)) == [
        "charzero", "charzero.chartable", "charzero.cyclotomic",
    ]


def test_verify_never_loads_partitions():
    loaded = charzero_imports("-m", "charzero.cli", "verify", "fixtures")
    assert "charzero.analysis" in loaded and "charzero.partitions" not in loaded


@pytest.mark.parametrize("name", charzero.__all__)
def test_export_is_its_module_attribute(name):
    module = importlib.import_module(f"charzero.{charzero._EXPORTS[name]}")
    assert getattr(charzero, name) is getattr(module, name)
    assert name in module.__all__


def test_dir_lists_every_export():
    assert set(charzero.__all__) <= set(dir(charzero))
    assert "__version__" in dir(charzero)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from charzero import *", namespace)
    assert {name: namespace[name] for name in charzero.__all__} == {
        name: getattr(charzero, name) for name in charzero.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'charzero' has no attribute 'no_such_name'"):
        charzero.no_such_name  # noqa: B018


def private_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each underscore name the module at path imports
    from another charzero module, relatively or by its full name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module or ".", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "charzero")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted((SRC / "charzero").glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path) == []


def top_level_assignments(path: Path) -> set[str]:
    """The names a module binds by an assignment in its own body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    return {t.id for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "charzero").glob("*.py") if p.stem != "__init__"),
    ids=lambda p: p.stem,
)
def test_all_lists_only_what_the_module_defines(path):
    # a function (an lru_cache wrapper too) or class made in the module, or a
    # name the module assigns; an imported name is listed by its own module
    module = importlib.import_module(f"charzero.{path.stem}")
    assigned = top_level_assignments(path)
    foreign = [
        name
        for name in getattr(module, "__all__", [])
        if name not in assigned
        and not (callable(obj := getattr(module, name)) and obj.__module__ == module.__name__)
    ]
    assert foreign == []


def records():
    t = build_symmetric(4)
    p = zero_pattern(t)
    cached = zero_pattern(t)
    assert cached.cols
    return {
        "ConjClass": t.classes[1],
        "Character": t.characters[1],
        "TableMetadata": t.metadata,
        "CharacterTable": t,
        "ZeroPattern": p,
        "CoverResult": min_cover(p),
        "SimpleGraph": gamma_v(p),
        "BipartiteGraph": theta(t, p),
        "ZeroPattern with cols cached": cached,
    }


@pytest.mark.parametrize("name", list(records()))
def test_no_attribute_can_be_set(name):
    record = records()[name]
    for attr in (*record._fields, "cols", "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def test_replace_makes_a_modified_copy():
    t = build_symmetric(3)
    u = t._replace(group_name="Sym3")
    assert (u.group_name, t.group_name) == ("Sym3", "S3")
    assert u.characters is t.characters and u.metadata is t.metadata
    assert u.n_linear == t.n_linear == 2 and u.nonlinear_indices() == [1]


def test_replaced_pattern_recomputes_cols():
    p = zero_pattern(build_symmetric(4))
    q = p._replace(rows=tuple(0 for _ in p.rows))
    assert any(p.cols) and not any(q.cols)
