import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charzero.cyclotomic import (
    Cyclotomic,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    euler_phi,
    record_hook,
    root_of_unity,
)


def naive_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_phi_1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_phi_4(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_phi_12_against_brute_force_product(self):
        # x^12 - 1 must factor as the product of Phi_d over d | 12
        prod = [1]
        for d in (1, 2, 3, 4, 6, 12):
            prod = naive_poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * 11 + [1]
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_degree_is_totient(self, n):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1

    def test_divisor_products_against_brute_force(self):
        for n in [*range(1, 201), 210, 1155]:
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = naive_poly_mul(prod, list(cyclotomic_polynomial(d)))
            assert prod == [-1] + [0] * (n - 1) + [1], n

    @pytest.mark.parametrize("n", [2310, 5040, 9240])
    def test_divisor_products_at_large_conductors(self, n):
        # five distinct primes, a high power of 2, and both at once; the
        # product of Phi_d(x) over d | n must be x^n - 1, checked at x = 2^64
        x = 1 << 64
        prod = 1
        for d in range(1, n + 1):
            if n % d == 0:
                phi_d = cyclotomic_polynomial(d)
                assert len(phi_d) == euler_phi(d) + 1, d
                value = 0
                for c in reversed(phi_d):
                    value = value * x + c
                prod *= value
        assert prod == x**n - 1

    def test_euler_phi_counts_units(self):
        for n in range(1, 2001):
            assert euler_phi(n) == sum(math.gcd(k, n) == 1 for k in range(1, n + 1)), n

    def test_phi_105_has_a_coefficient_minus_2(self):
        # the least n with a coefficient of Phi_n outside {-1, 0, 1}
        assert -2 in cyclotomic_polynomial(105)


class TestRootOfUnity:
    def test_trivial(self):
        assert root_of_unity(1, 0) == Cyclotomic.one()

    def test_sum_of_cube_roots(self):
        total = 1 + root_of_unity(3, 1) + root_of_unity(3, 2)
        assert total.is_zero()

    def test_i_squared(self):
        assert root_of_unity(4, 1) ** 2 == -1

    def test_all_powers_of_unity_up_to_60(self):
        for n in range(1, 61):
            for k in range(n):
                assert root_of_unity(n, k) ** n == Cyclotomic.one()


class TestRingOps:
    def test_add_inverse_roots(self):
        assert (root_of_unity(8, 2) + root_of_unity(8, 6)).is_zero()

    def test_mul_inverse_roots(self):
        assert root_of_unity(5, 1) * root_of_unity(5, 4) == 1

    def test_conj_fixes_real_value(self):
        v = root_of_unity(8, 1) + root_of_unity(8, 7)
        assert v.conj() == v

    def test_embedding_consistency(self):
        z3 = root_of_unity(3, 1)
        zero5 = Cyclotomic(5, [Fraction(0)] * euler_phi(5))
        assert z3 + zero5 == root_of_unity(15, 5)

    def test_integer_minus_value(self):
        assert 1 - root_of_unity(4, 1) == Cyclotomic(4, [1, -1])

    def test_non_integral_operand_is_not_implemented(self):
        z = root_of_unity(3, 1)
        assert z.__sub__(Fraction(1, 2)) is NotImplemented
        with pytest.raises(TypeError):
            z - Fraction(1, 2)

    def test_repr(self):
        assert repr(Cyclotomic.from_rational(-3)) == "Cyclotomic(-3)"
        assert repr(root_of_unity(8, 1) + 2) == "Cyclotomic[2*z8^0 + 1*z8^1]"


class TestIsZero:
    def test_vanishing_sum(self):
        assert (1 + root_of_unity(3, 1) + root_of_unity(3, 2)).is_zero()

    def test_nonzero_sum_with_numeric_oracle(self):
        v = root_of_unity(8, 1) + root_of_unity(8, 3)
        assert not v.is_zero()
        assert abs(abs(v.approx()) - math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_dihedral_zero_congruence(self, n):
        # eps^(ij) + eps^(-ij) vanishes exactly when ij = 2^(n-2) mod 2^(n-1)
        m = 2**n
        for i in range(1, m // 2):
            for j in range(m):
                v = root_of_unity(m, i * j) + root_of_unity(m, -i * j)
                expected = (i * j) % (m // 2) == m // 4
                assert v.is_zero() == expected


class TestApprox:
    def test_zero(self):
        z = Cyclotomic.zero().approx()
        assert (z.real, z.imag) == (0.0, 0.0)

    def test_i(self):
        z = root_of_unity(4, 1).approx()
        assert abs(z.real) < 1e-12 and abs(z.imag - 1.0) < 1e-12

    def test_golden_section(self):
        z = (root_of_unity(5, 1) + root_of_unity(5, 4)).approx()
        assert abs(z.real - (math.sqrt(5) - 1) / 2) < 1e-12
        assert abs(z.imag) < 1e-12


small_values = st.builds(
    lambda n, k, c: root_of_unity(n, k) * c + Cyclotomic.from_rational(k % 3 - 1),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    st.integers(min_value=0, max_value=23),
    st.integers(min_value=-3, max_value=3),
)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_values, small_values, small_values)
    def test_associativity_and_commutativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(small_values, small_values, small_values)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(small_values)
    def test_norm_is_real(self, a):
        assert abs((a * a.conj()).approx().imag) < 1e-9


# integral rationals: a Fraction whose denominator is 1 is a valid coefficient
rationals = st.integers(min_value=-20, max_value=20).map(Fraction)


@st.composite
def reduced_values(draw):
    n = draw(st.integers(min_value=3, max_value=64))
    phi = euler_phi(n)
    return Cyclotomic(n, draw(st.lists(rationals, min_size=phi, max_size=phi)))


class TestScalarProduct:
    @settings(max_examples=80, deadline=None)
    @given(rationals, reduced_values())
    def test_matches_the_embed_path(self, q, v):
        # oracle: q placed at v's conductor, multiplied by the general product
        n = v.conductor
        padded = Cyclotomic(n, [q] + [0] * (euler_phi(n) - 1))
        assert padded == Cyclotomic.from_rational(q).embed(n)
        expect = padded * v
        scalars = [q, Cyclotomic.from_rational(q), int(q)]
        for s in scalars:
            for got in (s * v, v * s):
                assert (got.conductor, got.coeffs) == (expect.conductor, expect.coeffs)


# ---------------------------------------------------------------------------
# Oracle: a value is (n, phi(n) Fractions); every product is a plain
# polynomial product reduced mod cyclotomic_polynomial(n) by long division.
# The operands are integral, so the oracle's Fractions all have denominator 1.


def oracle_reduce(n, poly):
    mod = cyclotomic_polynomial(n)
    d = len(mod) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for i in range(len(poly) - 1, d - 1, -1):
        c = poly[i]
        if c:
            for j, m in enumerate(mod):
                poly[i - d + j] -= c * m
    return n, tuple(poly[:d])


def oracle(v):
    return v.conductor, tuple(Fraction(c) for c in v.coeffs)


def oracle_embed(a, target):
    n, vec = a
    poly = [0] * target
    for e, c in enumerate(vec):
        poly[e * (target // n)] += c
    return oracle_reduce(target, poly)


def oracle_common(a, b):
    n = math.lcm(a[0], b[0])
    return n, oracle_embed(a, n)[1], oracle_embed(b, n)[1]


def oracle_add(a, b):
    n, x, y = oracle_common(a, b)
    return n, tuple(p + q for p, q in zip(x, y))


def oracle_mul(a, b):
    n, x, y = oracle_common(a, b)
    poly = [0] * (2 * len(x) - 1)
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            poly[i + j] += p * q
    return oracle_reduce(n, poly)


def oracle_conj(a):
    n, vec = a
    poly = [0] * n
    for e, c in enumerate(vec):
        poly[-e % n] += c
    return oracle_reduce(n, poly)


def assert_matches(got, want):
    """got equals the oracle value, at the same conductor, and keeps every
    coefficient as an int."""
    assert (got.conductor, got.coeffs) == want
    assert all(type(c) is int for c in got.coeffs), got.coeffs


coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6).map(Fraction),
)


def values_at(conductors):
    @st.composite
    def draw_value(draw):
        n = draw(conductors)
        phi = euler_phi(n)
        return Cyclotomic(n, draw(st.lists(coefficients, min_size=phi, max_size=phi)))

    return draw_value()


@st.composite
def related_values(draw, count):
    # operands whose conductors divide one N <= 64, so the lcm stays small
    n = draw(st.integers(min_value=1, max_value=64))
    divisors = st.sampled_from([d for d in range(1, n + 1) if n % d == 0])
    return n, [draw(values_at(divisors)) for _ in range(count)]


class TestFractionOracle:
    @settings(max_examples=100, deadline=None)
    @given(related_values(2))
    def test_ring_operations(self, drawn):
        n, (a, b) = drawn
        oa, ob = oracle(a), oracle(b)
        assert_matches(a + b, oracle_add(oa, ob))
        assert_matches(a - b, oracle_add(oa, oracle_mul((1, (Fraction(-1),)), ob)))
        assert_matches(-a, (oa[0], tuple(-c for c in oa[1])))
        assert_matches(a * b, oracle_mul(oa, ob))
        assert_matches(a.conj(), oracle_conj(oa))
        assert_matches(a.embed(n), oracle_embed(oa, n))
        _, x, y = oracle_common(oa, ob)
        assert (a == b) == (x == y)
        assert a == a.embed(n) and (a + b) - b == a

    @settings(max_examples=25, deadline=None)
    @given(values_at(st.integers(min_value=1, max_value=64)), st.integers(min_value=0, max_value=4))
    def test_powers(self, a, k):
        want = (1, (Fraction(1),))
        for _ in range(k):
            want = oracle_mul(want, oracle(a))
        assert_matches(a**k, want)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=-6, max_value=6).map(Fraction),
        st.integers(min_value=-6, max_value=6),
        st.data(),
    )
    def test_mixed_scalars(self, n, q, k, data):
        # an integral Fraction scalar times an int vector, an int scalar times
        # a vector built from integral Fractions
        phi = euler_phi(n)
        ints = Cyclotomic(n, data.draw(st.lists(st.integers(-6, 6), min_size=phi, max_size=phi)))
        wholes = Cyclotomic(n, [Fraction(2 * c, 2) for c in ints.coeffs])
        for scalar, v in ((q, ints), (k, wholes), (Fraction(2), wholes)):
            want = oracle_mul((1, (Fraction(scalar),)), oracle(v))
            for got in (scalar * v, v * scalar, Cyclotomic.from_rational(scalar) * v):
                assert_matches(got, want)

    @pytest.mark.parametrize("n", [105, 120, 210])
    def test_dense_values_at_large_conductors(self, n):
        # every coefficient of a and b nonzero; every zeta_n^k
        rng = random.Random(n)
        a, b = (
            Cyclotomic(n, [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(euler_phi(n))])
            for _ in range(2)
        )
        for k in range(n):
            assert_matches(root_of_unity(n, k), oracle_reduce(n, [0] * k + [1]))
        assert_matches(a.conj(), oracle_conj(oracle(a)))
        assert_matches(a.embed(2 * n), oracle_embed(oracle(a), 2 * n))
        assert_matches(a * b, oracle_mul(oracle(a), oracle(b)))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_halves_sum_to_ints(self, n):
        # a half is no algebraic integer, so no way in takes it; two halves
        # summed to an int before they get in are an ordinary coefficient
        phi = euler_phi(n)
        whole = Fraction(1, 2) + Fraction(1, 2)
        assert_matches(Cyclotomic(n, [whole] * phi), (n, (1,) * phi))
        pairs = {"conductor": n, "coeffs": [[2 * e + 2, 2] for e in range(phi)]}
        assert_matches(cyc_from_json(pairs), (n, tuple(range(1, phi + 1))))
        refusals = [
            lambda: Cyclotomic(n, [Fraction(1, 2)] * phi),
            lambda: Cyclotomic(n, [Fraction(2 * e + 1, 2) for e in range(phi)]),
            lambda: Cyclotomic.from_rational(Fraction(1, 2)),
            lambda: cyc_from_json({"conductor": n, "coeffs": [[1, 2]] * phi}),
            lambda: cyc_from_json({"conductor": n, "coeffs": [[2 * e + 1, 2] for e in range(phi)]}),
        ]
        for make in refusals:
            with pytest.raises(ValueError, match="not an algebraic integer"):
                make()
        # in arithmetic a half is not an operand
        z = root_of_unity(n, 1)
        assert z.__add__(Fraction(1, 2)) is NotImplemented
        assert z.__mul__(Fraction(1, 2)) is NotImplemented
        with pytest.raises(TypeError):
            z + Fraction(1, 2)
        assert z != Fraction(1, 2)


class TestJson:
    def test_integer_shorthand(self):
        assert cyc_to_json(Cyclotomic.from_rational(7)) == 7
        assert cyc_from_json(7) == Cyclotomic.from_rational(7)

    def test_round_trip_irrational(self):
        v = root_of_unity(5, 1) + root_of_unity(5, 4)
        assert cyc_from_json(cyc_to_json(v)) == v

    def test_rational_noninteger_is_refused(self):
        # no Cyclotomic holds 3/2, so there is nothing to round-trip
        with pytest.raises(ValueError, match="not an algebraic integer"):
            Cyclotomic.from_rational(Fraction(3, 2))
        with pytest.raises(ValueError, match="not an algebraic integer"):
            cyc_from_json({"conductor": 1, "coeffs": [[3, 2]]})
        assert Cyclotomic.from_rational(3) == Fraction(3)
        assert Cyclotomic.from_rational(Fraction(3)).coeffs == (3,)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cyc_from_json("nope")


class TestRecordHook:
    RECORD = {"conductor": 5, "coeffs": [[0, 1], [1, 1], [0, 1], [1, 1]]}

    def test_equal_record_gets_the_first_dict(self):
        hook = record_hook()
        first, second = json.loads(json.dumps([self.RECORD] * 2))
        assert second is not first
        assert hook(first) is first
        assert hook(second) is first

    def test_equal_values_of_another_type_are_not_shared(self):
        hook = record_hook()
        first = json.loads(json.dumps(self.RECORD))
        assert hook(first) is first
        for c in (False, 0.0):
            other = json.loads(json.dumps(self.RECORD))
            other["coeffs"][0][0] = c
            assert hook(other) is other

    @pytest.mark.parametrize(
        "obj",
        [
            {"coeffs": [[0, 1], [1, 1], [0, 1], [1, 1]], "conductor": 5},
            {"name": "5a", "size": 12, "element_order": 5},
            {"name": "chi3a", "values": [3, -1, 0]},
            {"solvable": False, "simple": True},
        ],
        ids=["coeffs-before-conductor", "class", "character", "metadata"],
    )
    def test_other_objects_are_returned_unchanged(self, obj):
        hook = record_hook()
        first, second = json.loads(json.dumps([obj] * 2))
        assert hook(first) is first
        assert hook(second) is second
        assert second == obj


class TestInvariants:
    def test_coeff_length_checked(self):
        with pytest.raises(ValueError):
            Cyclotomic(12, [1, 2, 3])

    @pytest.mark.parametrize(
        "call,text",
        [
            (lambda: euler_phi(0), "euler_phi requires n >= 1"),
            (lambda: cyclotomic_polynomial(0), "conductor must be >= 1"),
            (lambda: Cyclotomic(0, []), "conductor must be >= 1"),
            (lambda: root_of_unity(0, 1), "n must be >= 1"),
            (lambda: root_of_unity(3, 1).embed(4), "target conductor must be a multiple"),
            (lambda: root_of_unity(3, 1) ** -1, "negative powers not supported"),
            (lambda: root_of_unity(4, 1).embed(0), "target conductor must be >= 1"),
            (lambda: root_of_unity(4, 1).embed(-4), "target conductor must be >= 1"),
        ],
        ids=[
            "euler-phi-0", "phi-0", "conductor-0", "root-0", "embed-4-of-3", "power-minus-1",
            "embed-0", "embed-minus-4",
        ],
    )
    def test_value_error_texts(self, call, text):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text

    @pytest.mark.parametrize(
        "call,text",
        [
            (lambda: Cyclotomic(2.0, [5]), "conductor must be an int: 2.0"),
            (lambda: Cyclotomic(4.0, [1, 2]), "conductor must be an int: 4.0"),
            (lambda: Cyclotomic(True, [5]), "conductor must be an int: True"),
            (lambda: Cyclotomic("5", [1, 2, 3, 4]), "conductor must be an int: '5'"),
            (lambda: root_of_unity(True, 0), "n must be an int: True"),
            (lambda: root_of_unity(3.0, 1), "n must be an int: 3.0"),
            (lambda: root_of_unity(4, 1.5), "k must be an int: 1.5"),
            (lambda: root_of_unity(4, 1).embed(8.0), "target must be an int: 8.0"),
            (lambda: Cyclotomic.one().embed(True), "target must be an int: True"),
            (lambda: root_of_unity(3, 1) ** 2.0, "exponent must be an int: 2.0"),
            (lambda: root_of_unity(3, 1) ** True, "exponent must be an int: True"),
        ],
        ids=[
            "conductor-2.0", "conductor-4.0", "conductor-true", "conductor-string",
            "root-n-true", "root-n-3.0", "root-k-1.5",
            "embed-8.0", "embed-true", "power-2.0", "power-true",
        ],
    )
    def test_non_int_argument_is_refused(self, call, text):
        # refused where the value is made, not at its first product
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text

    def test_conductor_bound_admits_every_totient(self):
        # the early rejection n > 2 len^2 must never refuse a correct length
        assert all(n <= 2 * euler_phi(n) ** 2 for n in range(1, 20000))

    def test_immutable(self):
        v = root_of_unity(5, 1)
        with pytest.raises(AttributeError):
            v.conductor = 3
