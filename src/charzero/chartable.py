"""Character-table data model: exact constructors, ingestion, validation.

Tables are immutable after construction.  Constructors cover symmetric,
dihedral, cyclic and abelian groups plus direct products; everything else is
ingested from the JSON schema and gated by validate().
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import Counter, namedtuple
from pathlib import Path

from .cyclotomic import (
    Cyclotomic,
    check_int,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    euler_phi,
    record_hook,
    root_of_unity,
)

__all__ = [
    "ConjClass",
    "Character",
    "TableMetadata",
    "CharacterTable",
    "SchemaError",
    "build_symmetric",
    "build_dihedral",
    "build_cyclic",
    "build_abelian",
    "direct_product",
    "validate",
    "load_table",
    "save_table",
    "table_to_json",
    "table_from_json",
]


class SchemaError(ValueError):
    """The input does not conform to the table JSON schema."""


class Character(namedtuple("Character", "name values")):
    __slots__ = ()

    @property
    def degree(self) -> int:
        d = self.values[0].as_integer()
        if d is None:
            raise ValueError(f"character {self.name} has non-integer identity value")
        return d


# class record field -> the type its value must have; a record may also hold
# a "label", a list of integers, which ConjClass keeps as a tuple
_CLASS_FIELDS = {"name": str, "size": int, "element_order": int}
ConjClass = namedtuple("ConjClass", [*_CLASS_FIELDS, "label"], defaults=(None,))

# metadata field -> the type its value must have when it is not null
_META_FIELDS = {
    "solvable": bool,
    "nilpotent": bool,
    "abelian_by_metanilpotent": bool,
    "fitting_height": int,
    "r_value": int,
    "simple": bool,
    "notes": str,
}
TableMetadata = namedtuple("TableMetadata", _META_FIELDS, defaults=(None,) * len(_META_FIELDS))


class CharacterTable(
    namedtuple(
        "CharacterTable", "group_name order classes characters metadata", defaults=(TableMetadata(),)
    )
):
    """The default metadata is one shared TableMetadata(), immutable like
    every record here; t._replace(...) makes a modified copy."""

    __slots__ = ()

    @property
    def n_linear(self) -> int:
        return sum(1 for ch in self.characters if ch.degree == 1)

    @property
    def derived_order(self) -> int:
        # |G'| = |G| / #linear characters, since G/G' indexes the linear ones.
        return self.order // self.n_linear

    def nonlinear_indices(self) -> list[int]:
        return [i for i, ch in enumerate(self.characters) if ch.degree > 1]


# ---------------------------------------------------------------------------
# constructors


class _Values(dict):
    """The values of one table: one shared Cyclotomic per distinct value, so
    per-value work can be done once per object.  An int key gives the
    conductor-1 value of that integer, made on first lookup; intern() files
    every other value under (conductor, coeffs), since Cyclotomic equality
    crosses conductors and values are not hashable.  table_from_json also
    files the k-th value record of a document under its reference "#k"; any
    other missing key is refused."""

    def __missing__(self, k: int) -> Cyclotomic:
        if type(k) is not int:
            raise ValueError(f"unknown value reference {k!r}")
        return self.setdefault(k, Cyclotomic.from_rational(k))

    def intern(self, v: Cyclotomic) -> Cyclotomic:
        q = v.as_integer()
        return self[q] if q is not None else self.setdefault((v.conductor, v.coeffs), v)


def build_symmetric(n: int) -> CharacterTable:
    """Exact character table of S_n via the Murnaghan-Nakayama recursion.
    It has p(n) classes and p(n)**2 values, so time and memory grow with
    p(n)**2 (S_20 has 627 classes)."""
    # imported here so that loading and validating a table never compiles partitions
    from .partitions import class_column, partitions_of, z_order

    if n < 1:
        raise ValueError("build_symmetric requires n >= 1")
    parts = partitions_of(n)
    # Identity class (cycle type 1^n) goes first; the rest keep reverse-lex order.
    identity = (1,) * n
    class_order = [identity] + [mu for mu in parts if mu != identity]
    nfact = math.factorial(n)
    classes = tuple(
        ConjClass(
            name=f"g{mu}",
            size=nfact // z_order(mu),
            element_order=math.lcm(*mu),
            label=mu,
        )
        for mu in class_order
    )
    # One Murnaghan-Nakayama column per class, transposed into rows; only the
    # suffixes' columns stay cached, and the labels are canonical partitions,
    # so mn_value's checks are not needed.
    vals = _Values()
    rows = zip(*map(class_column, class_order))
    characters = tuple(
        Character(name=f"chi{lam}", values=tuple(map(vals.__getitem__, row)))
        for lam, row in zip(parts, rows)
    )
    meta = TableMetadata(solvable=(n <= 4), simple=(n == 2))
    return CharacterTable(f"S{n}", nfact, classes, characters, meta)


def build_dihedral(m: int) -> CharacterTable:
    """Character table of the dihedral group D_{2m} = <x, s> of order 2m,
    m >= 3, evaluated at one representative x^j or s*x^k per class."""
    if check_int(m, "m") < 3:
        raise ValueError("build_dihedral requires m >= 3")
    order = 2 * m
    even = m % 2 == 0
    # one representative per class: x^j for j in rot_js, then s*x^k for k in refl_ks
    rot_js = [0] + [m // 2] * even + list(range(1, (m + 1) // 2))
    refl_ks = range(1 + even)
    refl_names = ("refl_even", "refl_odd") if even else ("refl",)
    classes = [
        ConjClass(f"x^{j}" if j else "e", 1 if 2 * j % m == 0 else 2, m // math.gcd(m, j))
        for j in rot_js
    ] + [ConjClass(name, m // len(refl_ks), 2) for name in refl_names]

    vals = _Values()
    zeta = [root_of_unity(m, k) for k in range(m)]
    # two_cos[k] = zeta^k + zeta^-k = 2cos(2 pi k/m); chi_i(x^j) = two_cos[i*j % m]
    two_cos = [vals.intern(zeta[k] + zeta[-k]) for k in range(m)]
    # a linear character sends x to a = +-1 (-1 only for even m) and s to b,
    # so s*x^k to b*a^k; chi_i vanishes on the reflections
    characters = [
        Character(
            f"lin[{a},{b}]" if even else f"lin[{b}]",
            tuple([vals[a**j] for j in rot_js] + [vals[b * a**k] for k in refl_ks]),
        )
        for a in (1, -1)[: 1 + even]
        for b in (1, -1)
    ] + [
        Character(
            f"chi_{i}", tuple([two_cos[i * j % m] for j in rot_js] + [vals[0]] * len(refl_ks))
        )
        for i in range(1, (m + 1) // 2)
    ]

    is_2power = m & (m - 1) == 0
    meta = TableMetadata(
        solvable=True,
        nilpotent=is_2power,
        fitting_height=1 if is_2power else None,
        simple=False,
    )
    return CharacterTable(f"D{order}", order, tuple(classes), tuple(characters), meta)


def build_cyclic(n: int) -> CharacterTable:
    """Cyclic group C_n; all characters linear with root-of-unity values."""
    if check_int(n, "n") < 1:
        raise ValueError("build_cyclic requires n >= 1")
    classes = tuple(ConjClass(f"x^{k}" if k else "e", 1, n // math.gcd(n, k)) for k in range(n))
    vals = _Values()
    zeta = [vals.intern(root_of_unity(n, e)) for e in range(n)]
    characters = tuple(
        Character(f"lin_{j}", tuple(zeta[j * k % n] for k in range(n))) for j in range(n)
    )
    meta = TableMetadata(
        solvable=True,
        nilpotent=True,
        fitting_height=1 if n > 1 else None,
        r_value=1 if n > 1 else None,
        simple=euler_phi(n) == n - 1,  # C_n is simple iff n is prime
    )
    return CharacterTable(f"C{n}", n, classes, characters, meta)


def build_abelian(invariant_factors: list[int]) -> CharacterTable:
    """Abelian group as a direct product of cyclic groups."""
    factors = [check_int(f, "invariant factor") for f in invariant_factors]
    if any(f < 2 for f in factors):
        raise ValueError("invariant factors must be >= 2")
    product = functools.reduce(direct_product, map(build_cyclic, factors or [1]))
    meta = product.metadata._replace(
        r_value=len(factors) or None, simple=bool(product.metadata.simple)
    )
    return product._replace(group_name="x".join(f"C{f}" for f in factors or [1]), metadata=meta)


def direct_product(a: CharacterTable, b: CharacterTable) -> CharacterTable:
    """Kronecker construction: paired classes, pairwise character products.
    A x B is solvable (nilpotent) iff A and B are: false if either's fact is
    false, else unknown if either's is unknown, else true.  Its Fitting height
    is the larger when it is solvable and both are known; no other fact is set."""
    classes = tuple(
        ConjClass(
            name=f"{ca.name}|{cb.name}",
            size=ca.size * cb.size,
            element_order=math.lcm(ca.element_order, cb.element_order),
        )
        for ca in a.classes
        for cb in b.classes
    )
    vals = _Values()
    # every factor value lives for the whole call, so its id is a stable key
    products: dict[tuple[int, int], Cyclotomic] = {}

    def times(va: Cyclotomic, vb: Cyclotomic) -> Cyclotomic:
        key = (id(va), id(vb))
        v = products.get(key)
        if v is None:
            v = products[key] = vals.intern(va * vb)
        return v

    characters = tuple(
        Character(
            name=f"{xa.name}*{xb.name}",
            values=tuple(times(va, vb) for va in xa.values for vb in xb.values),
        )
        for xa in a.characters
        for xb in b.characters
    )
    ma, mb = a.metadata, b.metadata
    solvable, nilpotent = (
        False if False in facts else facts[0] and facts[1]
        for facts in ((ma.solvable, mb.solvable), (ma.nilpotent, mb.nilpotent))
    )
    heights = (ma.fitting_height, mb.fitting_height)
    fitting_height = max(heights) if solvable and None not in heights else None
    meta = TableMetadata(solvable=solvable, nilpotent=nilpotent, fitting_height=fitting_height)
    return CharacterTable(
        f"{a.group_name}x{b.group_name}", a.order * b.order, classes, characters, meta
    )


# ---------------------------------------------------------------------------
# validation


def _gram_modulus(t: CharacterTable, values) -> tuple[int, int, int]:
    """(N, x, M) for the row-orthogonality check of t, whose values have
    integer coefficients like every Cyclotomic; the collection `values` holds
    each distinct value of t at least once.  N is the lcm of the conductors of
    the irrational values (a rational value maps to itself at any N), x = 2^s
    is the least power of two above B + 1, where B = |G| * (L^2 + 1), L is the
    largest coefficient L1 norm of any value, and M = Phi_N(x).  B is (sum of
    class sizes) * L^2 + |G|, as validate checks the sizes sum to |G| first."""
    n = math.lcm(*(v.conductor for v in values if v.as_integer() is None))
    l1 = max((sum(map(abs, v.coeffs)) for v in values), default=0)
    bound = t.order * (l1 * l1 + 1)
    s = (bound + 1).bit_length()
    modulus = sum(coef << (s * i) for i, coef in enumerate(cyclotomic_polynomial(n)))
    return n, 1 << s, modulus


def _row_orthogonality(t: CharacterTable) -> list[str]:
    # one check and one image per value object: a table shares one object per distinct value
    distinct = {id(v): v for ch in t.characters for v in ch.values}
    exp2 = 2 * math.lcm(*(c.element_order for c in t.classes))

    faults = {i for i, v in distinct.items() if exp2 % v.conductor and v.as_integer() is None}
    if faults:
        return [
            f"character {r} value at class {c} has conductor {v.conductor}, "
            f"which does not divide {exp2} = 2 * exp(G)"
            for r, ch in enumerate(t.characters)
            for c, v in enumerate(ch.values)
            if id(v) in faults
        ]
    n, x, modulus = _gram_modulus(t, distinct.values())
    conj = {i: v if v.as_integer() is not None else v.conj() for i, v in distinct.items()}
    # zeta_n^e = zeta_N^(e*N/n) -> x^(e*N/n), below x^N as e < phi(n).  A rational
    # value, whose n need not divide N, has only e = 0 and is its own conjugate.
    # Of the N powers of x, only those some value or conjugate reads are kept.
    reads = {
        e * (n // v.conductor)
        for v in (*distinct.values(), *conj.values())
        for e, q in enumerate(v.coeffs)
        if q
    }
    powers, p = {0: 1}, 1
    for e in range(1, n):
        p = p * x % modulus
        if e in reads:
            powers[e] = p

    def image(v: Cyclotomic) -> int:
        step = n // v.conductor
        return sum(q * powers[e * step] for e, q in enumerate(v.coeffs) if q)

    plus = {i: image(v) for i, v in distinct.items()}
    minus = {i: image(v) for i, v in conj.items()}
    sizes = [c.size for c in t.classes]
    weighted = [[size * plus[id(v)] for size, v in zip(sizes, ch.values)] for ch in t.characters]
    conjugate = [[minus[id(v)] for v in ch.values] for ch in t.characters]
    fails = []
    for r1, row in enumerate(weighted):
        for r2 in range(r1, len(weighted)):
            expect = t.order if r1 == r2 else 0
            if (sum(map(operator.mul, row, conjugate[r2])) - expect) % modulus:
                fails.append(f"row orthogonality fails for characters {r1},{r2}")
    return fails


def validate(t: CharacterTable) -> list[str]:
    """Check every table invariant; returns a list of failure descriptions
    (empty list = table is consistent).

    Row orthogonality, sum_c |c| chi_r1(c) conj(chi_r2(c)) = |G| delta, is
    checked once in Z/M, with N, x = 2^s and M = Phi_N(x) from _gram_modulus:
    - zeta_N -> x is a ring map Z[zeta_N] -> Z/M, as Phi_N(x) = M.  It sends
      zeta_n^e, e < phi(n), to x^(e*N/n), so every exponent it reads is below
      N.  A complex conjugate is a value too, v.conj(), mapped the same way.
    - Let a be a Gram entry minus |G| delta; each conjugate of a is at most B
      in absolute value.  If a != 0 maps to 0, M divides the nonzero integer
      N(a), yet |N(a)| <= B^phi(N) < (x-1)^phi(N) <= M.  So a = 0.
    - That needs a to be an algebraic integer, and it is one: every value
      has integer coefficients, since a non-integral coefficient is refused
      when the value is made (a SchemaError at load).
    - The rule below and the Gram check run only if the class claims hold,
      o(g) | |G|/|g^G| (as g is in C_G(g)) among them, and rows are full.
    - chi(g) is a sum of o(g)-th roots of unity, so it lies in Q(zeta_o(g)),
      which is Q(zeta_2o(g)).  An irrational value whose conductor does not
      divide 2 * exp(G), twice the lcm of the element orders, is reported as
      a failure before Phi_N is built.  Rational values are exempt at any
      conductor.
    - Column orthogonality adds nothing on a square table:
      X C X^H = |G| I gives X^H X = |G| C^-1."""
    fails: list[str] = []
    nc = len(t.classes)

    ident = [i for i, c in enumerate(t.classes) if c.element_order == 1]
    if len(ident) != 1:
        fails.append(f"expected exactly one identity class, found {len(ident)}")
    else:
        i = ident[0]
        if i != 0:
            fails.append(f"identity class must be first, found at index {i}")
        if t.classes[i].size != 1:
            fails.append(f"identity class has size {t.classes[i].size}")

    if sum(c.size for c in t.classes) != t.order:
        fails.append("class sizes do not sum to the group order")
    for i, c in enumerate(t.classes):
        size_divides = c.size >= 1 and t.order % c.size == 0
        if not size_divides:
            fails.append(f"class {i} size {c.size} does not divide order")
        if c.element_order < 1 or t.order % c.element_order != 0:
            fails.append(f"class {i} element order {c.element_order} does not divide order")
        elif size_divides and t.order // c.size % c.element_order:
            fails.append(
                f"class {i} element order {c.element_order} does not divide "
                f"centraliser order {t.order // c.size}"
            )
    claims_hold = not fails

    if len(t.characters) != nc:
        fails.append(f"{len(t.characters)} characters vs {nc} classes")

    degrees = []
    for r, ch in enumerate(t.characters):
        if len(ch.values) != nc:
            fails.append(f"character {r} has {len(ch.values)} values, expected {nc}")
            continue
        d = ch.values[0].as_integer()
        if d is None or d < 1:
            fails.append(f"character {r} degree is not a positive integer")
        else:
            degrees.append(d)

    if len(degrees) == len(t.characters):
        if sum(d * d for d in degrees) != t.order:
            fails.append("sum of squared degrees does not equal the group order")
        n_linear = sum(1 for d in degrees if d == 1)
        if n_linear == 0 or t.order % n_linear != 0:
            fails.append(f"number of linear characters {n_linear} does not divide order")

    m = t.metadata
    if m.nilpotent and m.fitting_height is not None and m.fitting_height != 1:
        fails.append("nilpotent table must have fitting_height 1")
    if m.solvable is False:
        for name in ("fitting_height", "r_value", "abelian_by_metanilpotent"):
            if getattr(m, name) is not None:
                fails.append(f"non-solvable table must not carry {name}")
    if m.fitting_height is not None and m.fitting_height < 1:
        fails.append("fitting_height must be a positive integer")
    if m.r_value is not None and m.r_value < 1:
        fails.append("r_value must be a positive integer")

    if claims_hold and all(len(ch.values) == nc for ch in t.characters):
        fails += _row_orthogonality(t)
    return fails


# ---------------------------------------------------------------------------
# serialization


def _encoded(t: CharacterTable, record) -> list[list]:
    """The rows of t: a rational value as its int, and each distinct
    irrational value as record(v) where it is first met, row-major, then as
    "#k" for the k-th distinct one.  A value is looked up once per value
    object, keyed on id(v), which t keeps alive; equal values that are
    separate objects share one k through (conductor, coeffs)."""
    refs: dict[tuple, str] = {}
    enc = {}

    def entry(v: Cyclotomic, i: int):
        q = v.as_integer()
        if q is None:
            key = (v.conductor, v.coeffs)
            if key not in refs:
                refs[key] = enc[i] = f"#{len(refs)}"
                return record(v)
            q = refs[key]
        enc[i] = q
        return q

    return [
        [
            v.coeffs[0] if v.conductor == 1
            else enc[i] if (i := id(v)) in enc else entry(v, i)
            for v in ch.values
        ]
        for ch in t.characters
    ]


def table_to_json(t: CharacterTable) -> dict:
    """The JSON document of t.  A class record holds its class's fields of
    _CLASS_FIELDS in that order, then "label" when one is set.  A row entry
    is an int for a rational value.  Each distinct irrational value is
    written once, as its cyc_to_json record where it is first met,
    row-major; every later one is "#k" for the k-th record, counted from 0."""
    meta = {k: getattr(t.metadata, k) for k in _META_FIELDS if getattr(t.metadata, k) is not None}
    rows = _encoded(t, cyc_to_json)
    return {
        "group_name": t.group_name,
        "order": t.order,
        "classes": [
            dict(zip(_CLASS_FIELDS, c)) | ({"label": list(c.label)} if c.label is not None else {})
            for c in t.classes
        ],
        "characters": [{"name": ch.name, "values": row} for ch, row in zip(t.characters, rows)],
        "metadata": meta,
    }


def _require(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise SchemaError(f"missing field '{key}' in {where}")
    val = obj[key]
    if not isinstance(val, kinds) or isinstance(val, bool) and kinds is int:
        raise SchemaError(f"field '{key}' in {where} has wrong type")
    return val


def table_from_json(data: dict) -> CharacterTable:
    """The table of a decoded JSON document, after every schema check; a
    class's label is checked before its _CLASS_FIELDS, in their order.  A row
    entry is an int, a value record, or a reference "#k" to the k-th record
    of the document, counted from 0, row-major, which must come before it.
    A row of ints and references is mapped in one pass; a row with a record
    is walked entry by entry.  Files written before references existed hold
    a record at every irrational entry: each record object is decoded once,
    keyed on its id, which data keeps alive until this returns."""
    if not isinstance(data, dict):
        raise SchemaError("table document must be a JSON object")
    name = _require(data, "group_name", str, "table")
    order = _require(data, "order", int, "table")
    if order < 1:
        raise SchemaError(f"group order must be positive, got {order}")
    raw_classes = _require(data, "classes", list, "table")
    raw_chars = _require(data, "characters", list, "table")

    classes = []
    for i, rc in enumerate(raw_classes):
        if not isinstance(rc, dict):
            raise SchemaError(f"class {i} must be an object")
        label = rc.get("label")
        if label is not None and not (
            isinstance(label, list) and all(type(e) is int for e in label)
        ):
            raise SchemaError(f"field 'label' in class {i} must be a list of integers")
        classes.append(
            ConjClass(
                *(_require(rc, key, kind, f"class {i}") for key, kind in _CLASS_FIELDS.items()),
                label=tuple(label) if label is not None else None,
            )
        )

    vals = _Values()
    decoded = {}
    ks = itertools.count()

    def value(v):
        if type(v) in (int, str):
            return vals[v]
        x = decoded[i] if (i := id(v)) in decoded else decoded.setdefault(i, vals.intern(cyc_from_json(v)))
        vals[f"#{next(ks)}"] = x
        return x

    characters = []
    for i, rc in enumerate(raw_chars):
        if not isinstance(rc, dict):
            raise SchemaError(f"character {i} must be an object")
        raw = _require(rc, "values", list, f"character {i}")
        if len(raw) != len(classes):
            raise SchemaError(
                f"character {i} has {len(raw)} values for {len(classes)} classes"
            )
        try:
            if set(map(type, raw)) <= {int, str}:
                values = tuple(map(vals.__getitem__, raw))
            else:
                values = tuple(map(value, raw))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise SchemaError(f"character {i} has a malformed value: {exc}") from exc
        characters.append(Character(name=_require(rc, "name", str, f"character {i}"), values=values))
    # names key the reports and the DOT vertices; theta's vertices are both kinds
    named = {"class": classes, "character": characters, "class and character": classes + characters}
    for kind, items in named.items():
        dups = sorted(name for name, k in Counter(x.name for x in items).items() if k > 1)
        if dups:
            raise SchemaError(f"duplicate {kind} names: {dups}")

    raw_meta = data.get("metadata", {})
    if not isinstance(raw_meta, dict):
        raise SchemaError("metadata must be an object")
    unknown = set(raw_meta) - set(_META_FIELDS)
    if unknown:
        raise SchemaError(f"unknown metadata fields: {sorted(unknown)}")
    for key, kind in _META_FIELDS.items():
        if raw_meta.get(key) is not None:
            _require(raw_meta, key, kind, "metadata")
    meta = TableMetadata(**raw_meta)

    # The identity class must be first; ingestion reorders if needed.
    ident = [i for i, c in enumerate(classes) if c.element_order == 1]
    if len(ident) == 1 and ident[0] != 0:
        k = ident[0]
        perm = [k] + [i for i in range(len(classes)) if i != k]
        classes = [classes[i] for i in perm]
        characters = [
            Character(ch.name, tuple(ch.values[i] for i in perm)) for ch in characters
        ]

    for i, ch in enumerate(characters):
        if ch.values and ch.values[0].as_integer() is None:
            raise SchemaError(f"character {i} identity value is not a rational integer")

    return CharacterTable(name, order, tuple(classes), tuple(characters), meta)


def save_table(t: CharacterTable, path) -> None:
    """Write table_to_json(t) as plain JSON in UTF-8, one class and one
    character per line as json.dumps writes each.  Every distinct row entry,
    every name and every line but the character lines is encoded before the
    file is opened, so a table that cannot be encoded leaves no file; each
    character line is then formed from those texts as it is written.  A
    record's dict is freed once its text is formed."""
    rows = _encoded(t, lambda v: json.dumps(cyc_to_json(v)))
    # each distinct entry's text, as json.dumps writes an int or a "#k"; a
    # record's text stands as it is
    texts = {x: f'"{x}"' if str(x)[0] == "#" else str(x) for x in set().union(*rows)}
    names = [json.dumps(ch.name) for ch in t.characters]
    doc = table_to_json(t._replace(characters=()))
    classes = ",".join(f"\n  {json.dumps(c)}" for c in doc["classes"])
    head = (
        f'{{\n "group_name": {json.dumps(doc["group_name"])},\n "order": {json.dumps(doc["order"])},'
        f'\n "classes": [{classes}\n ],\n "characters": ['
    )
    tail = f'\n ],\n "metadata": {json.dumps(doc["metadata"])}\n}}\n'
    with open(path, "w", encoding="utf-8") as f:
        f.write(head)
        sep = "\n  "
        for name, row in zip(names, rows):
            f.write(f'{sep}{{"name": {name}, "values": [{", ".join(map(texts.__getitem__, row))}]}}')
            sep = ",\n  "
        f.write(tail)


def load_table(path) -> CharacterTable:
    """Read a UTF-8 table file and return table_from_json of its document.
    A file that save_table wrote holds each distinct irrational value's
    record once, so the parser meets each record once.  In a file written
    before references existed, with a record at every irrational entry, the
    parser hands each record to cyclotomic's record_hook as it closes it, so
    the entries of one record share the dict of its first occurrence, and
    one copy of its pair lists is alive per distinct record."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=record_hook())
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    return table_from_json(data)
