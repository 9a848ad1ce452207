import copy
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charzero import vanishing
from charzero.chartable import SchemaError, load_table, validate
from charzero.cli import main
from charzero.cyclotomic import cyc_to_json, root_of_unity

from conftest import FIXTURE_DIR, FIXTURE_NAMES


@pytest.fixture()
def capout(capsys):
    def read():
        return capsys.readouterr()

    return read


class TestGen:
    def test_sym(self, tmp_path, capout):
        out = tmp_path / "s5.json"
        assert main(["gen", "sym", "5", "-o", str(out)]) == 0
        t = load_table(out)
        assert t.order == 120 and validate(t) == []

    def test_dihedral(self, tmp_path):
        out = tmp_path / "d32.json"
        assert main(["gen", "dihedral", "16", "-o", str(out)]) == 0
        t = load_table(out)
        assert t.order == 32 and validate(t) == []

    def test_product(self, tmp_path):
        a, b, out = tmp_path / "s5.json", tmp_path / "d32.json", tmp_path / "prod.json"
        assert main(["gen", "sym", "5", "-o", str(a)]) == 0
        assert main(["gen", "dihedral", "16", "-o", str(b)]) == 0
        assert main(["gen", "product", str(a), str(b), "-o", str(out)]) == 0
        assert load_table(out).order == 3840

    def test_abelian(self, tmp_path):
        out = tmp_path / "v4.json"
        assert main(["gen", "abelian", "2", "2", "-o", str(out)]) == 0
        assert load_table(out).order == 4

    def test_invalid_params(self, tmp_path, capsys):
        assert main(["gen", "sym", "abc", "-o", str(tmp_path / "x.json")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, params",
        [("sym", ["5", "7"]), ("cyclic", ["3", "99"]), ("dihedral", ["4", "banana"])],
    )
    def test_extra_params_rejected(self, tmp_path, capsys, family, params):
        out = tmp_path / "x.json"
        assert main(["gen", family, *params, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: ValueError: {family} takes exactly one integer\n"
        assert not out.exists()

    @pytest.mark.parametrize("files", [1, 3])
    def test_product_takes_two_files(self, tmp_path, capsys, files):
        out = tmp_path / "p.json"
        argv = ["gen", "product", *[str(FIXTURE_DIR / "a5.json")] * files, "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: ValueError: product takes exactly two table files\n"
        assert not out.exists()


class TestAnalyze:
    def test_s3_text(self, tmp_path, capsys):
        path = tmp_path / "s3.json"
        main(["gen", "sym", "3", "-o", str(path)])
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "non-vanishing classes: g(3,)" in out
        assert "k_min = 1" in out

    def test_d32_delta_independence(self, tmp_path, capsys):
        path = tmp_path / "d32.json"
        main(["gen", "dihedral", "16", "-o", str(path)])
        assert main(["analyze", str(path), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["delta_v_independence"] == 3

    def test_abelian_h0(self, tmp_path, capsys):
        path = tmp_path / "c6.json"
        main(["gen", "cyclic", "6", "-o", str(path)])
        assert main(["analyze", str(path)]) == 0
        assert "no nonlinear characters; H_0" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2


class TestCover:
    def test_s5(self, tmp_path, capsys):
        path = tmp_path / "s5.json"
        main(["gen", "sym", "5", "-o", str(path)])
        assert main(["cover", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["k_min"] == 2

    def test_max_k_exceeded(self, tmp_path, capsys):
        path = tmp_path / "s5.json"
        main(["gen", "sym", "5", "-o", str(path)])
        assert main(["cover", str(path), "--max-k", "1"]) == 1

    def test_negative_max_k_is_a_usage_error(self, capsys):
        assert main(["cover", str(FIXTURE_DIR / "a5.json"), "--max-k", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: ArgumentError: argument --max-k: must be at least 0, got -1\n"


class TestGraphs:
    def test_outputs(self, tmp_path):
        path = tmp_path / "d16.json"
        main(["gen", "dihedral", "8", "-o", str(path)])
        outdir = tmp_path / "graphs"
        assert main(["graphs", str(path), "--out", str(outdir), "--dot"]) == 0
        assert (outdir / "pattern.json").exists()
        dot = (outdir / "gamma_v.dot").read_text()
        assert dot.startswith("graph gamma_v {")
        assert (outdir / "delta_v.dot").exists()
        assert (outdir / "theta.dot").exists()


def build_corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n in range(2, 8):
        main(["gen", "sym", str(n), "-o", str(corpus / f"s{n}.json")])
    for m in (3, 4, 6, 8, 16):
        main(["gen", "dihedral", str(m), "-o", str(corpus / f"d{2 * m}.json")])
    main(["gen", "abelian", "2", "4", "-o", str(corpus / "ab.json")])
    for name in FIXTURE_NAMES:
        shutil.copy(FIXTURE_DIR / f"{name}.json", corpus / f"{name}.json")
    return corpus


class TestVerify:
    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        corpus = build_corpus_dir(tmp_path)
        assert main(["verify", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("file,group,flags")

    def test_check_selection(self, tmp_path, capsys):
        corpus = build_corpus_dir(tmp_path)
        assert main(["verify", str(corpus), "--checks", "covers", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"] == ["covers"]

    def test_repeated_checks_are_listed_once(self, tmp_path, capsys):
        corpus = build_corpus_dir(tmp_path)
        argv = ["verify", str(corpus), "--checks", "mno,burnside,mno,burnside", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"] == ["mno", "burnside"]

    def test_unknown_check(self, tmp_path, capsys):
        corpus = build_corpus_dir(tmp_path)
        assert main(["verify", str(corpus), "--checks", "bogus"]) == 2

    def test_corrupted_table(self, tmp_path, capsys):
        corpus = build_corpus_dir(tmp_path)
        doc = json.loads((corpus / "s3.json").read_text())
        doc["characters"][1]["values"][1] = 7
        (corpus / "s3.json").write_text(json.dumps(doc))
        assert main(["verify", str(corpus)]) == 2
        assert "validation failed" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        corpus = build_corpus_dir(tmp_path)
        main(["verify", str(corpus), "--format", "json"])
        first = capsys.readouterr().out
        main(["verify", str(corpus), "--format", "json"])
        assert capsys.readouterr().out == first

    def test_repeated_calls_leave_no_garbage(self, capsys):
        # an argparse parser graph is a reference cycle; every call must reuse
        # one parser and leave nothing for the cyclic collector
        argv = ["verify", str(FIXTURE_DIR / "a5.json")]
        assert main(argv) == 0  # caches filled on first use are not garbage
        gc.disable()
        try:
            gc.collect()
            for _ in range(10):
                assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEmptyInput:
    def test_verify(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", "error: ValueError: no input files\n")

    def test_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["report", str(tmp_path), "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: ValueError: no tables found in {tmp_path}\n")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: charzero") and err == ""


class TestDirectoryScan:
    """A directory argument yields its regular *.json files; a subdirectory
    whose name ends in .json (say, a `graphs --out` target) is not a table."""

    def corpus_with_json_subdir(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "sym", "4", "-o", str(corpus / "t.json")])
        assert main(["graphs", str(corpus / "t.json"), "--out", str(corpus / "g_t.json")]) == 0
        return corpus

    def test_verify(self, tmp_path, capsys):
        corpus = self.corpus_with_json_subdir(tmp_path)
        assert main(["verify", str(corpus)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["file,group,flags", f"{corpus / 't.json'},S4,"]
        assert captured.err == ""

    def test_report(self, tmp_path, capsys):
        corpus = self.corpus_with_json_subdir(tmp_path)
        out = tmp_path / "report.json"
        assert main(["report", str(corpus), "-o", str(out)]) == 0
        assert [r["group"] for r in json.loads(out.read_text())] == ["S4"]
        assert capsys.readouterr().err == ""


class TestReport:
    def test_csv_report(self, tmp_path):
        corpus = build_corpus_dir(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["report", str(corpus), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "group,order,n_classes,n_nonlinear,k_min,witness_names,flags"
        assert len(lines) == 1 + len(list(corpus.glob("*.json")))

    def test_json_report(self, tmp_path):
        corpus = build_corpus_dir(tmp_path)
        out = tmp_path / "report.json"
        assert main(["report", str(corpus), "-o", str(out)]) == 0
        rows = json.loads(out.read_text())
        by_group = {r["group"]: r for r in rows}
        assert by_group["A5"]["k_min"] == 3
        assert all(not r["flags"] for r in rows)


def _set_metadata(key, value):
    return lambda doc: doc["metadata"].update({key: value})


def _set_label(value):
    return lambda doc: doc["classes"][1].update(label=value)


def _zero_denominator(doc):
    doc["characters"][0]["values"][1] = {"conductor": 3, "coeffs": [[1, 0], [0, 1]]}


def _float_conductor(doc):
    doc["characters"][1]["values"][3]["conductor"] = 5.0


def _set_coefficient(pair):
    return lambda doc: doc["characters"][1]["values"][3]["coeffs"].__setitem__(0, pair)


def _set_later_coefficient(pair):
    return lambda doc: doc["characters"][2]["values"][4]["coeffs"].__setitem__(0, pair)


def _set_order(value):
    return lambda doc: doc.update(order=value)


def _duplicate_name(key):
    return lambda doc: doc[key][2].update(name=doc[key][1]["name"])


MALFORMED = {
    "solvable-string": _set_metadata("solvable", "yes"),
    "simple-int": _set_metadata("simple", 1),
    "fitting-height-string": _set_metadata("fitting_height", "2"),
    "fitting-height-bool": _set_metadata("fitting_height", True),
    "r-value-string": _set_metadata("r_value", "3"),
    "r-value-float": _set_metadata("r_value", 2.0),
    "notes-int": _set_metadata("notes", 5),
    "label-int": _set_label(5),
    "label-strings": _set_label(["a"]),
    "label-bools": _set_label([True]),
    "value-zero-denominator": _zero_denominator,
    "value-float-conductor": _float_conductor,
    "coefficient-float-denominator": _set_coefficient([1, 1.0]),
    "coefficient-float-numerator": _set_coefficient([1.0, 1]),
    "coefficient-zero-denominator": _set_coefficient([1, 0]),
    "coefficient-string-numerator": _set_coefficient(["1", 1]),
    "coefficient-three-elements": _set_coefficient([1, 1, 1]),
    "coefficient-bool-numerator": _set_coefficient([True, 1]),
    "coefficient-bool-denominator": _set_coefficient([2, True]),
    "coefficient-half": _set_coefficient([1, 2]),
    # a later occurrence of row 1's record at entry 3, equal to it but for the
    # type of one numerator: the loader must not share the valid record
    "repeated-record-bool-numerator": _set_later_coefficient([False, 1]),
    "repeated-record-float-numerator": _set_later_coefficient([0.0, 1]),
    # rows of ints alone are decoded without the per-value checks; these are not
    "value-bool-in-integer-row": lambda doc: doc["characters"][0]["values"].__setitem__(1, True),
    "value-float-in-integer-row": lambda doc: doc["characters"][4]["values"].__setitem__(1, 1.0),
    "order-zero": _set_order(0),
    "order-negative": _set_order(-60),
    "duplicate-character-name": _duplicate_name("characters"),
    "duplicate-class-name": _duplicate_name("classes"),
    # chi3a renamed 3a, the name of a class: theta.dot would merge the two
    "class-and-character-name": lambda doc: doc["characters"][1].update(name="3a"),
}


class TestSchemaTypes:
    @pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_field_is_a_load_error(self, tmp_path, capsys, mutate):
        doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
        mutate(doc)
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_table(path)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == f"{path},,load-error"
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_huge_conductor_is_rejected_at_once(self, tmp_path, capsys):
        # euler_phi of this prime would trial-divide for minutes
        path = tmp_path / "s3.json"
        assert main(["gen", "sym", "3", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["characters"][1]["values"][1] = {"conductor": 2305843009213693951, "coeffs": []}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="conductor"):
            load_table(path)
        assert main(["verify", str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == f"{path},,load-error"
        assert "Traceback" not in captured.err

    def test_zeros_at_huge_conductors_are_quick(self, tmp_path, capsys):
        # two zeros stored at the primes 1009 and 1013: validate must not
        # build Phi_N at their lcm, 1022117
        doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
        for (r, c), n in {(1, 2): 1009, (4, 3): 1013}.items():
            assert doc["characters"][r]["values"][c] == 0
            doc["characters"][r]["values"][c] = {"conductor": n, "coeffs": [[0, 1]] * (n - 1)}
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(doc))
        assert path.stat().st_size > 16_000
        start = time.perf_counter()
        assert main(["verify", str(path)]) == 0
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == f"{path},A5," and captured.err == ""

    def test_irrational_values_at_huge_conductors_fail_by_name(self, tmp_path, capsys):
        # 5a's values in chi3a and chi3b replaced by zeta_1009 and zeta_1013:
        # the conductor rule refuses them before Phi_N at their lcm is built
        doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
        for r, n in ((1, 1009), (2, 1013)):
            doc["characters"][r]["values"][3] = {
                "conductor": n, "coeffs": [[0, 1], [1, 1]] + [[0, 1]] * (n - 3)
            }
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(doc))
        assert path.stat().st_size > 16_000
        start = time.perf_counter()
        assert main(["verify", str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == f"{path},,load-error"
        assert "has conductor 1009, which does not divide 60" in captured.err
        assert "has conductor 1013" in captured.err and "Traceback" not in captured.err

    def test_element_orders_that_do_not_divide_the_order_stop_validate(self, tmp_path):
        # 5a and 5b claim orders 5 * 1009 and 5 * 1013 and hold zeta_1009 and
        # zeta_1013, so the conductor rule passes; validate must not build
        # Phi_N at N = 5110585.  A subprocess, so that a hang fails the test.
        doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
        for (r, c), n in {(1, 3): 1009, (2, 4): 1013}.items():
            doc["classes"][c]["element_order"] = 5 * n
            doc["characters"][r]["values"][c] = cyc_to_json(root_of_unity(n, 1))
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(doc))
        assert path.stat().st_size > 16_000
        src = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run(
            [sys.executable, "-m", "charzero.cli", "verify", str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=10,
        )
        assert run.returncode == 2
        assert run.stderr == (
            f"error: {path}: SchemaError: validation failed: "
            "class 3 element order 5045 does not divide order; "
            "class 4 element order 5065 does not divide order\n"
        )

    def test_integral_coefficient_pairs_load_as_integers(self, tmp_path, capsys):
        # every 2 of D8 written as the pair [4, 2], every -1 as [3, -3]
        path = tmp_path / "d8.json"
        assert main(["gen", "dihedral", "4", "-o", str(path)]) == 0
        t = load_table(path)
        doc = json.loads(path.read_text())
        pairs = {2: [4, 2], -1: [3, -3]}
        for ch in doc["characters"]:
            ch["values"] = [
                {"conductor": 1, "coeffs": [pairs[v]]} if v in pairs else v for v in ch["values"]
            ]
        assert sum(json.dumps(doc).count(json.dumps(pair)) for pair in pairs.values()) > 2
        path.write_text(json.dumps(doc))
        loaded = load_table(path)
        assert loaded == t
        assert all(type(c) is int for ch in loaded.characters for v in ch.values for c in v.coeffs)
        assert main(["verify", str(path)]) == 0

    def test_null_metadata_and_int_labels_load(self, tmp_path):
        doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
        doc["metadata"].update(fitting_height=None, notes="checked by hand")
        doc["classes"][1]["label"] = [2, 2]
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(doc))
        t = load_table(path)
        assert t.metadata.notes == "checked by hand" and t.classes[1].label == (2, 2)


def _set_value_to_7(path):
    doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
    doc["characters"][1]["values"][1] = 7
    path.write_text(json.dumps(doc))


def _set_order_of_2a_to_6(path):
    # 2a has 15 elements, so its centraliser has order 4
    doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
    doc["classes"][1]["element_order"] = 6
    path.write_text(json.dumps(doc))


CORRUPT = {
    "value-7": _set_value_to_7,
    "element-order-above-centraliser": _set_order_of_2a_to_6,
    "truncated-json": lambda path: path.write_text("{"),
    # a5.json as UTF-16 with its byte order mark, FF FE
    "utf-16": lambda path: path.write_bytes(
        b"\xff\xfe" + (FIXTURE_DIR / "a5.json").read_text().encode("utf-16-le")
    ),
    # above the int-to-str digit limit (4300) of Python 3.11 and later
    "5000-digit-order": lambda path: path.write_text(
        (FIXTURE_DIR / "a5.json").read_text().replace('"order": 60', '"order": 1' + "0" * 4999)
    ),
    "100000-nested-lists": lambda path: path.write_text('{"group_name": ' + "[" * 100_000),
}
# the CORRUPT files json.loads refuses; Python 3.10 has no int-to-str limit
MALFORMED_JSON = [
    "truncated-json",
    "utf-16",
    pytest.param(
        "5000-digit-order",
        marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="Python 3.10 parses any int"
        ),
    ),
    "100000-nested-lists",
]
# the argv of each command that reads a table file, given that file
READERS = {
    "verify": lambda path, tmp: ["verify", str(path)],
    "report": lambda path, tmp: ["report", str(path.parent), "-o", str(tmp / "r.csv")],
    "analyze": lambda path, tmp: ["analyze", str(path)],
    "cover": lambda path, tmp: ["cover", str(path)],
    "graphs": lambda path, tmp: ["graphs", str(path), "--out", str(tmp / "g")],
    "gen-product": lambda path, tmp: [
        "gen", "product", str(FIXTURE_DIR / "a5.json"), str(path), "-o", str(tmp / "p.json")
    ],
}
# report reads only the files its directory holds, so it never meets a missing one
NAMED_ONCE = [
    (command, corruption)
    for corruption in (*CORRUPT, "missing-file")
    for command in READERS
    if (command, corruption) != ("report", "missing-file")
]


class TestLoadErrorNamesTheFileOnce:
    @pytest.mark.parametrize("command,corruption", NAMED_ONCE)
    def test_each_command(self, tmp_path, capsys, command, corruption):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        path = corpus / "bad_a5.json"
        if corruption in CORRUPT:
            CORRUPT[corruption](path)
        assert main(READERS[command](path, tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert err[0].count("bad_a5") == 1

    @pytest.mark.parametrize("corruption", MALFORMED_JSON)
    def test_malformed_json_is_a_schema_error(self, tmp_path, capsys, corruption):
        path = tmp_path / "corpus" / "bad_a5.json"
        path.parent.mkdir()
        CORRUPT[corruption](path)
        with pytest.raises(SchemaError, match="^malformed JSON: "):
            load_table(path)
        for command, argv in READERS.items():
            assert main(argv(path, tmp_path)) == 2, command
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {path}: SchemaError: malformed JSON: "), command

    def test_validation_failure_text(self, tmp_path, capsys):
        path = tmp_path / "bad_a5.json"
        _set_value_to_7(path)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: SchemaError: validation failed: row orthogonality fails"
        )


    def test_centraliser_failure_text(self, tmp_path, capsys):
        path = tmp_path / "bad_a5.json"
        _set_order_of_2a_to_6(path)
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: SchemaError: validation failed: "
            "class 1 element order 6 does not divide centraliser order 4\n"
        )


# one to three nodes of a fixture document are deleted or replaced from here
PALETTE = [
    10**400, -1, True, False, None, "", "5a", 0.5, 1e300, [], [1, 2], [[0, 1]], {},
    *(cyc_to_json(root_of_unity(n, 1)) for n in (3, 7, 12, 1009)),
]
MUTATED_COMMANDS = {
    "verify": lambda path: ["verify", str(path)],
    "analyze": lambda path: ["analyze", str(path), "--format", "json"],
    "cover": lambda path: ["cover", str(path)],
    "graphs": lambda path: ["graphs", str(path), "--out", str(path.parent / "g"), "--dot"],
}


def _nodes(doc):
    """(container, key) of every node below the root."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in node if isinstance(node, dict) else range(len(node)):
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


class TestMutatedDocuments:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["a5", "psl2_7"]), st.data())
    def test_every_command_exits_cleanly_within_two_seconds(self, name, data):
        doc = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            parent, key = data.draw(st.sampled_from(_nodes(doc)), label="node")
            if data.draw(st.booleans(), label="delete"):
                del parent[key]
            else:
                parent[key] = copy.deepcopy(data.draw(st.sampled_from(PALETTE), label="value"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            for command, argv in MUTATED_COMMANDS.items():
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv(path))
                assert time.perf_counter() - start < 2, command
                assert code in (0, 1, 2), (command, code)
                assert "Traceback" not in err.getvalue(), command
                assert all(line.startswith("error: ") for line in err.getvalue().splitlines())


class TestOutputPathErrors:
    def _assert_clean_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_gen(self, tmp_path, capsys):
        assert main(["gen", "sym", "3", "-o", str(tmp_path / "missing" / "x.json")]) == 2
        self._assert_clean_error(capsys)

    def test_report(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "sym", "3", "-o", str(corpus / "s3.json")])
        assert main(["report", str(corpus), "-o", str(tmp_path / "missing" / "r.csv")]) == 2
        self._assert_clean_error(capsys)

    def test_graphs(self, tmp_path, capsys):
        path = tmp_path / "s3.json"
        main(["gen", "sym", "3", "-o", str(path)])
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["graphs", str(path), "--out", str(blocker / "graphs"), "--dot"]) == 2
        self._assert_clean_error(capsys)


def gen_s7_d24_product(root):
    """S7, D24 and S7 x D24 under root; Gamma_v of the product has 127
    vertices."""
    s7, d24, prod = root / "s7.json", root / "d24.json", root / "s7xd24.json"
    assert main(["gen", "sym", "7", "-o", str(s7)]) == 0
    assert main(["gen", "dihedral", "12", "-o", str(d24)]) == 0
    assert main(["gen", "product", str(s7), str(d24), "-o", str(prod)]) == 0
    return s7, d24, prod


def fail_analysis_of(monkeypatch, group):
    """Make the zero-pattern stage raise for the table of that group only."""
    real = vanishing.zero_pattern

    def zero_pattern(t):
        if t.group_name == group:
            raise RuntimeError(f"no pattern for {group}")
        return real(t)

    monkeypatch.setattr(vanishing, "zero_pattern", zero_pattern)


class TestVerifyAnalysisError:
    def test_other_rows_survive_an_analysis_error(self, tmp_path, monkeypatch, capsys):
        s7, d24, prod = gen_s7_d24_product(tmp_path)
        a5 = tmp_path / "a5.json"
        shutil.copy(FIXTURE_DIR / "a5.json", a5)
        fail_analysis_of(monkeypatch, "A5")
        capsys.readouterr()
        assert main(["verify", str(s7), str(d24), str(prod), str(a5)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "file,group,flags",
            f"{a5},A5,analysis-error",
            f"{d24},D24,",
            f"{s7},S7,",
            f"{prod},S7xD24,",
        ]
        assert err == f"error: {a5}: RuntimeError: no pattern for A5\n"


class TestReportErrors:
    def test_other_rows_survive_a_load_and_an_analysis_error(
        self, tmp_path, monkeypatch, capsys
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        s7, d24, prod = gen_s7_d24_product(corpus)
        a5 = corpus / "a5.json"
        shutil.copy(FIXTURE_DIR / "a5.json", a5)
        bad = corpus / "bad.json"
        bad.write_text("{")
        out = tmp_path / "report.csv"
        fail_analysis_of(monkeypatch, "A5")
        capsys.readouterr()
        assert main(["report", str(corpus), "-o", str(out)]) == 2
        lines = out.read_text().splitlines()
        assert lines[0] == "group,order,n_classes,n_nonlinear,k_min,witness_names,flags"
        assert lines[1] == "A5,,,,,,analysis-error"
        assert lines[2] == ",,,,,,load-error"
        assert lines[3].startswith("D24,24,9,") and lines[3].endswith(",")
        assert lines[4].startswith("S7,5040,15,") and lines[4].endswith(",")
        assert lines[5].startswith("S7xD24,120960,135,") and lines[5].endswith(",")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0] == f"error: {a5}: RuntimeError: no pattern for A5"
        assert err[1].startswith(f"error: {bad}: SchemaError: ")


class TestDotEscaping:
    def test_quotes_and_backslashes_in_names(self, tmp_path):
        doc = json.loads((FIXTURE_DIR / "a5.json").read_text())
        doc["characters"][1]["name"] = 'chi"3'
        doc["classes"][2]["name"] = "3a\\"
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(doc))
        assert main(["graphs", str(path), "--out", str(tmp_path / "g"), "--dot"]) == 0
        names = set()
        for dot in ("gamma_v.dot", "delta_v.dot", "theta.dot"):
            for line in (tmp_path / "g" / dot).read_text().splitlines():
                assert re.sub(r"\\.", "", line).count('"') % 2 == 0, line
                quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', line)
                names.update(re.sub(r"\\(.)", r"\1", q) for q in quoted)
        assert {'chi"3', "3a\\", 'chi"3 deg=3', "3a\\ ord=3"} <= names


def test_every_file_is_read_and_written_as_utf8(tmp_path):
    # a file opened in the locale's encoding raises EncodingWarning under
    # these flags; A5's group name is written raw, not as a \u escape
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    doc = json.loads((FIXTURE_DIR / "a5.json").read_text(encoding="utf-8"))
    doc["group_name"] = "A₅"
    a5 = corpus / "a5.json"
    a5.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    for argv in (
        ["gen", "dihedral", "5", "-o", str(corpus / "d10.json")],
        ["verify", str(corpus)],
        ["report", str(corpus), "-o", str(tmp_path / "report.csv")],
        ["analyze", str(a5)],
        ["graphs", str(a5), "--out", str(tmp_path / "g"), "--dot"],
    ):
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "charzero.cli", *argv],
            env=env, capture_output=True, encoding="utf-8",
        )
        assert (run.returncode, run.stderr) == (0, ""), argv
    assert "A₅" in (tmp_path / "report.csv").read_text(encoding="utf-8")
    assert load_table(a5).group_name == "A₅"


def test_names_stdout_cannot_encode_are_escaped(tmp_path):
    # a latin-1 stdout cannot write A₅: the name is escaped, as on stderr,
    # and the row of every other table is still printed
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    doc = json.loads((FIXTURE_DIR / "a5.json").read_text(encoding="utf-8"))
    doc["group_name"] = "A₅"
    a5 = corpus / "a5.json"
    a5.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    shutil.copy(FIXTURE_DIR / "a6.json", corpus / "a6.json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "latin-1"}
    for argv, lines in (
        (["verify", str(corpus)], ["file,group,flags", f"{a5},A\\u2085,", f"{corpus / 'a6.json'},A6,"]),
        (["analyze", str(a5)], ["group A\\u2085 of order 60"]),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "charzero.cli", *argv],
            env=env, capture_output=True, encoding="latin-1",
        )
        assert (run.returncode, run.stderr) == (0, ""), argv
        assert run.stdout.splitlines()[: len(lines)] == lines


def test_main_gives_stdout_its_errors_setting_back(tmp_path, monkeypatch):
    doc = json.loads((FIXTURE_DIR / "a5.json").read_text(encoding="utf-8"))
    doc["group_name"] = "A₅"
    a5 = tmp_path / "a5.json"
    a5.write_text(json.dumps(doc), encoding="utf-8")
    out = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["analyze", str(a5)]) == 0
    assert out.errors == "strict"
    out.flush()
    assert out.buffer.getvalue().startswith(b"group A\\u2085 of order 60\n")
    with pytest.raises(UnicodeEncodeError):
        print("A₅", file=out)


@pytest.fixture(scope="module")
def large_symmetric(tmp_path_factory):
    """S_13..S_16 as files in one directory, by n."""
    root = tmp_path_factory.mktemp("large")
    paths = {n: root / f"s{n}.json" for n in range(13, 17)}
    for n, path in paths.items():
        assert main(["gen", "sym", str(n), "-o", str(path)]) == 0
    return paths


class TestLargeSymmetric:
    """S_13..S_16, whose zero graphs have 97 to 229 vertices, run clean
    through every command."""

    @pytest.mark.parametrize("n", [13, 14])
    def test_analyze_json(self, n, large_symmetric, capsys):
        # alpha(Gamma_v), alpha(Delta_v) as bench/make_golden.py knows them
        alphas = {13: (2, 3), 14: (2, 4)}[n]
        assert main(["analyze", str(large_symmetric[n]), "--format", "json"]) == 0
        out, err = capsys.readouterr()
        info = json.loads(out)
        assert (info["gamma_v_independence"], info["delta_v_independence"]) == alphas
        assert err == ""

    @pytest.mark.parametrize("n", [13, 14])
    def test_cover(self, n, large_symmetric, capsys):
        assert main(["cover", str(large_symmetric[n]), "--max-k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["k_min"] == 2

    @pytest.mark.parametrize("n", [13, 14])
    def test_graphs(self, n, large_symmetric, tmp_path):
        outdir = tmp_path / "g"
        assert main(["graphs", str(large_symmetric[n]), "--out", str(outdir), "--dot"]) == 0
        assert (outdir / "delta_v.dot").read_text().startswith("graph delta_v {")

    def test_verify(self, large_symmetric, capsys):
        root = large_symmetric[13].parent
        assert main(["verify", str(root)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == [f"{path},S{n}," for n, path in large_symmetric.items()]
        assert err == ""

    def test_report(self, large_symmetric, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", str(large_symmetric[13].parent), "-o", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert sorted(r["group"] for r in rows) == ["S13", "S14", "S15", "S16"]
        assert all(r["k_min"] == 2 and r["flags"] == "" for r in rows)
        assert capsys.readouterr().err == ""


class TestUnexpectedErrors:
    def test_any_exception_is_one_error_line(self, monkeypatch, capsys):
        def boom(_table):
            raise RuntimeError("boom")

        monkeypatch.setattr("charzero.vanishing.zero_pattern", boom)
        assert main(["analyze", str(FIXTURE_DIR / "a5.json")]) == 2
        assert capsys.readouterr().err == "error: RuntimeError: boom\n"
