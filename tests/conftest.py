import random
from pathlib import Path

import pytest

from charzero import hcover, vanishing, zerographs
from charzero.chartable import (
    build_abelian,
    build_dihedral,
    build_symmetric,
    direct_product,
    load_table,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ["a5", "a6", "a7", "psl2_7", "m11"]


@pytest.fixture(scope="session")
def fixture_tables():
    return [load_table(FIXTURE_DIR / f"{name}.json") for name in FIXTURE_NAMES]


@pytest.fixture(scope="session")
def symmetric_tables():
    return {n: build_symmetric(n) for n in range(1, 11)}


@pytest.fixture(scope="session")
def dihedral_tables():
    return {m: build_dihedral(m) for m in range(3, 65)}


@pytest.fixture(scope="session")
def small_product_factors(symmetric_tables, dihedral_tables):
    # pool of small nonabelian tables to draw random products from
    return [
        symmetric_tables[3],
        symmetric_tables[4],
        symmetric_tables[5],
        dihedral_tables[3],
        dihedral_tables[4],
        dihedral_tables[5],
        dihedral_tables[6],
        dihedral_tables[8],
    ]


@pytest.fixture(scope="session")
def random_products(small_product_factors):
    rng = random.Random(20240815)
    products = []
    for _ in range(20):
        a, b = rng.choice(small_product_factors), rng.choice(small_product_factors)
        products.append((a, b, direct_product(a, b)))
    return products


@pytest.fixture(scope="session")
def corpus(symmetric_tables, dihedral_tables, fixture_tables, random_products):
    """The full verification corpus: S_n (n<=10), D_2m (m<=64), abelian
    baselines, 20 random products, and the simple-group fixtures."""
    tables = list(symmetric_tables.values())
    tables += list(dihedral_tables.values())
    tables += [build_abelian([2, 2]), build_abelian([4]), build_abelian([2, 4]), build_abelian([6])]
    tables += [p for _, _, p in random_products]
    tables += fixture_tables
    return tables


LAYER_CALLS = {
    vanishing: ("zero_pattern",),
    hcover: ("min_cover",),
    zerographs: ("gamma_v",),
}


@pytest.fixture()
def layer_calls(monkeypatch):
    """Count calls to the layer functions made through their modules, as in
    `vanishing.zero_pattern(t)`; a module that imported one of them by name
    would call it uncounted (and, for bench/tracer.py, untraced)."""
    counts = {}
    for mod, names in LAYER_CALLS.items():
        for name in names:
            orig = getattr(mod, name)
            counts[name] = 0

            def counted(*args, _orig=orig, _name=name, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return counts
