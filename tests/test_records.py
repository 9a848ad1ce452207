"""The records are immutable named tuples, and importing the CLI stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from charzero.chartable import build_symmetric
from charzero.hcover import min_cover
from charzero.vanishing import zero_pattern
from charzero.zerographs import gamma_v, theta

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    heavy = "{'dataclasses', 'inspect', 'typing', 'fractions', 'decimal', 'numbers'}"
    code = f"import sys, charzero.cli; print(sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


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
