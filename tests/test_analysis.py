"""`TableAnalysis`, the one analysis object behind every report: each fact
equals the layer call it stands for, each layer runs once per table, its
flags are the golden `verify` texts, and the paper's families come out
clean."""

import csv
import inspect

import pytest

from charzero import analysis, hcover, vanishing, zerographs
from charzero.analysis import ALL_CHECKS, TableAnalysis
from charzero.chartable import build_symmetric, load_table
from charzero.cyclotomic import Cyclotomic

from test_golden import GOLDEN_DIR, write_corpus

FACTS = (
    "pattern", "cover", "gamma", "delta", "theta", "gamma_components", "delta_components",
    "gamma_alpha", "delta_alpha", "vanishing_classes", "nonvanishing_classes",
    "camina_classes", "central_type_characters",
)


@pytest.fixture(scope="module")
def golden_tables(tmp_path_factory):
    """The golden corpus, keyed by the file names the golden outputs show."""
    root = tmp_path_factory.mktemp("analysis")
    return {f: load_table(root / f) for f in write_corpus(root)}


def layer_facts(t):
    """Every fact of TableAnalysis, from direct layer calls."""
    p = vanishing.zero_pattern(t)
    g, d = zerographs.gamma_v(p), zerographs.delta_v(p)
    return {
        "pattern": p,
        "cover": hcover.min_cover(p),
        "gamma": g,
        "delta": d,
        "theta": zerographs.theta(t, p),
        "gamma_components": len(zerographs.components(g)),
        "delta_components": len(zerographs.components(d)),
        "gamma_alpha": zerographs.independence_number(g)[0],
        "delta_alpha": zerographs.independence_number(d)[0],
        "vanishing_classes": vanishing.vanishing_classes(p),
        "nonvanishing_classes": vanishing.nonvanishing_classes(p),
        "camina_classes": vanishing.camina_classes(t, p),
        "central_type_characters": vanishing.central_type_characters(t, p),
    }


def test_every_fact_is_its_layer_call(golden_tables, random_products):
    for t in [*golden_tables.values(), *(prod for _, _, prod in random_products)]:
        a = TableAnalysis(t)
        assert {name: getattr(a, name) for name in FACTS} == layer_facts(t), t.group_name


def test_flags_are_the_golden_verify_texts(golden_tables):
    lines = (GOLDEN_DIR / "verify.csv").read_text().splitlines()[1:]
    golden = {row["file"]: row["flags"] for row in csv.DictReader(lines)}
    assert sorted(golden) == sorted(golden_tables)
    for f, t in golden_tables.items():
        assert ";".join(TableAnalysis(t).flags(ALL_CHECKS)) == golden[f], f


def test_each_layer_runs_once_per_table(golden_tables, layer_calls):
    for t in golden_tables.values():
        a = TableAnalysis(t)
        a.flags()
        for name in FACTS:
            getattr(a, name)
        a.flags()
    assert layer_calls["zero_pattern"] == len(golden_tables)
    assert layer_calls["min_cover"] == len(golden_tables)
    assert layer_calls["gamma_v"] <= len(golden_tables)


def test_layer_functions_are_called_through_their_modules():
    # a function imported by name would hide its calls from a tracer that
    # rebinds the module attribute
    imported = [
        name for name, value in vars(analysis).items()
        if inspect.isfunction(value) and value.__module__ != analysis.__name__
    ]
    assert imported == []


def test_camina_disagreement_is_a_flag_not_a_fact(golden_tables, monkeypatch):
    def disagree(t, p):
        raise vanishing.DataIntegrityError("Camina definitions disagree on G: test")

    monkeypatch.setattr(vanishing, "camina_classes", disagree)
    a = TableAnalysis(golden_tables["corpus/s4.json"])
    assert a.flags(("camina",)) == ["camina:Camina definitions disagree on G: test"]
    with pytest.raises(vanishing.DataIntegrityError):
        a.camina_classes


def test_flags_of_a_table_validate_refuses():
    # S3 with the zero of chi(2,1) at the transpositions replaced by 1, analysed
    # without validate: chi(2,1) then vanishes nowhere
    t = build_symmetric(3)
    chi = t.characters[1]
    assert chi.values[2].is_zero()
    chi = chi._replace(values=chi.values[:2] + (Cyclotomic.one(),))
    bad = t._replace(characters=(t.characters[0], chi, t.characters[2]))
    assert TableAnalysis(bad).flags(ALL_CHECKS) == [
        "burnside:characters [1] never vanish",
        "mno:characters [1] have no prime-power-order zero",
        "camina:Camina definitions disagree on S3: column test [] vs size test [2]",
        "hmm-components:Gamma_v has 1, Delta_v has 0",
        "covers:a nonlinear character of S3 never vanishes",
    ]


def test_no_cover_is_not_a_witness_flag():
    # the S3 above without a cover: the no-cover text is a covers flag, and
    # with no cover there is no witness to check
    t = build_symmetric(3)
    chi = t.characters[1]._replace(values=t.characters[1].values[:2] + (Cyclotomic.one(),))
    bad = t._replace(characters=(t.characters[0], chi, t.characters[2]))
    assert TableAnalysis(bad).flags(("witnesses",)) == []
    assert TableAnalysis(bad).flags(("covers",)) == [
        "covers:a nonlinear character of S3 never vanishes"
    ]


def test_a_witness_that_misses_a_character_is_flagged(golden_tables, monkeypatch):
    real = hcover.min_cover
    monkeypatch.setattr(hcover, "min_cover", lambda p: real(p)._replace(witness=()))
    a = TableAnalysis(golden_tables["corpus/s4.json"])
    uncovered = a.table.nonlinear_indices()
    assert a.flags(("witnesses",)) == [
        f"witnesses:solver witness leaves characters {uncovered} uncovered"
    ]


class TestConjectureFamilies:
    """The paper's families raise no flag: D_2m has k_min <= 2, S_n is
    clean, and the simple-group fixtures have k_min <= 3."""

    def test_dihedral_family_clean(self, dihedral_tables):
        for t in dihedral_tables.values():
            a = TableAnalysis(t)
            assert a.flags() == [] and a.cover.k_min <= 2, t.group_name

    def test_symmetric_family_clean(self, symmetric_tables):
        for t in symmetric_tables.values():
            assert TableAnalysis(t).flags() == [], t.group_name

    def test_simple_fixtures_clean(self, fixture_tables):
        for t in fixture_tables:
            a = TableAnalysis(t)
            assert a.flags() == [] and a.cover.k_min <= 3, t.group_name
