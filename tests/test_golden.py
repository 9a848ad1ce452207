"""Byte-exact outputs of the reporting commands on a fixed corpus.

The corpus is the five simple-group fixtures, S_2..S_8, D_6..D_20, two
direct products and three metadata mutants that trip every flag metadata
can reach: A5 declared solvable and abelian-by-metanilpotent (conjecture
1b, the abelian-by-metanilpotent bound, conjecture 2b, the solvable
components bound), S4 with r(G) = 1 (the r bound) and S4 with Fitting
height 1 (the Fitting-height bound).

Each file under tests/golden/ is a run of sections ``# <command> -> exit
<code>`` followed by the exact bytes the command printed or wrote.  The
``graphs_*`` files hold, per table, what ``graphs <file> --out ... --dot``
wrote to the file of that name.  To rewrite them from the current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from charzero.chartable import (
    build_dihedral,
    build_symmetric,
    direct_product,
    load_table,
    save_table,
    table_to_json,
)
from charzero.cli import main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ["a5", "a6", "a7", "psl2_7", "m11"]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def write_corpus(root: Path) -> list[str]:
    """Write the corpus under root/corpus; returns its files, relative to
    root, in the order the CLI reads a directory."""
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    for name in FIXTURE_NAMES:
        shutil.copyfile(FIXTURE_DIR / f"{name}.json", corpus / f"{name}.json")
    for n in range(2, 9):
        save_table(build_symmetric(n), corpus / f"s{n}.json")
    for m in range(3, 11):
        save_table(build_dihedral(m), corpus / f"d{2 * m:02d}.json")
    save_table(direct_product(build_dihedral(3), build_dihedral(4)), corpus / "prod_d6_d8.json")
    save_table(
        direct_product(build_symmetric(3), load_table(FIXTURE_DIR / "a5.json")),
        corpus / "prod_s3_a5.json",
    )
    mutants = {
        "mut_a5_solvable.json": (
            json.loads((FIXTURE_DIR / "a5.json").read_text()),
            {"solvable": True, "abelian_by_metanilpotent": True},
        ),
        "mut_s4_r1.json": (table_to_json(build_symmetric(4)), {"r_value": 1}),
        "mut_s4_fh1.json": (table_to_json(build_symmetric(4)), {"fitting_height": 1}),
    }
    for name, (doc, meta) in mutants.items():
        doc["group_name"] += "-" + name[4:-5]
        doc["metadata"].update(meta)
        (corpus / name).write_text(json.dumps(doc, indent=1) + "\n")
    return sorted(f"corpus/{p.name}" for p in corpus.glob("*.json"))


def run(argv: list[str], written: str | None = None) -> str:
    """One section: the command, its exit code and its stdout, or the file
    it wrote when `written` names one."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    body = Path(written).read_bytes().decode() if written else out.getvalue()
    return f"# {' '.join(argv)} -> exit {code}\n{body}"


def outputs(files: list[str]) -> dict[str, str]:
    """Every golden output, by file name; runs with the corpus root as the
    working directory."""
    Path("out").mkdir(exist_ok=True)
    per_table = lambda *args: "".join(run([args[0], f, *args[1:]]) for f in files)
    return {
        "verify.csv": run(["verify", "corpus"]),
        "verify.json": run(["verify", "corpus", "--format", "json"]),
        "verify_witnesses_covers.csv": run(["verify", "corpus", "--checks", "witnesses,covers"]),
        "report.csv": run(["report", "corpus", "-o", "out/report.csv"], "out/report.csv"),
        "report.json": run(["report", "corpus", "-o", "out/report.json"], "out/report.json"),
        "analyze.txt": per_table("analyze"),
        "analyze.json": per_table("analyze", "--format", "json"),
        "cover.json": per_table("cover"),
        **graphs_outputs(files),
    }


def graphs_outputs(files: list[str]) -> dict[str, str]:
    """The four files `graphs --dot` writes, each golden file one section per
    table."""
    names = ("pattern.json", "gamma_v.dot", "delta_v.dot", "theta.dot")
    sections = {name: "" for name in names}
    for f in files:
        head = run(["graphs", f, "--out", "out/graphs", "--dot"])
        for name in names:
            sections[name] += head + Path("out/graphs", name).read_bytes().decode()
    return {f"graphs_{name}": text for name, text in sections.items()}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        files = write_corpus(root)
        yield files, outputs(files)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*")))
def test_output_matches_golden(golden_run, name):
    _, got = golden_run
    assert got[name] == (GOLDEN_DIR / name).read_bytes().decode()


def test_every_output_has_a_golden_file(golden_run):
    _, got = golden_run
    assert sorted(got) == sorted(p.name for p in GOLDEN_DIR.glob("*"))


def test_mutants_trip_every_metadata_flag():
    verify = (GOLDEN_DIR / "verify.csv").read_text()
    for flag in (
        "conjecture 1b",
        "exceeds r(G)=1",
        "abelian-by-metanilpotent-bound-violated-bad-data",
        "conjecture-2b-counterexample",
        "solvable-components-bound-violated",
        "fitting-height-bound-violated-bad-data",
    ):
        assert flag in verify


# ---------------------------------------------------------------------------
# one analysis per table


@pytest.mark.parametrize("command", ["verify", "report"])
def test_one_analysis_per_table(tmp_path, monkeypatch, layer_calls, command):
    monkeypatch.chdir(tmp_path)
    files = write_corpus(tmp_path)
    argv = ["verify", "corpus"] if command == "verify" else ["report", "corpus", "-o", "r.csv"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    assert layer_calls["zero_pattern"] == len(files)
    assert layer_calls["min_cover"] == len(files)
    assert layer_calls["gamma_v"] <= len(files)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            results = outputs(write_corpus(Path(tmp)))
        finally:
            os.chdir(here)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in results.items():
        (GOLDEN_DIR / name).write_bytes(text.encode())
    print(f"wrote {len(results)} files to {GOLDEN_DIR}", file=sys.stderr)
