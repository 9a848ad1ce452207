import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charzero.cyclotomic import (
    Cyclotomic,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    euler_phi,
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


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


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
        scalars = [q, Cyclotomic.from_rational(q)] + ([int(q)] if q.denominator == 1 else [])
        for s in scalars:
            for got in (s * v, v * s):
                assert (got.conductor, got.coeffs) == (expect.conductor, expect.coeffs)


class TestJson:
    def test_integer_shorthand(self):
        assert cyc_to_json(Cyclotomic.from_rational(7)) == 7
        assert cyc_from_json(7) == Cyclotomic.from_rational(7)

    def test_round_trip_irrational(self):
        v = root_of_unity(5, 1) + root_of_unity(5, 4)
        assert cyc_from_json(cyc_to_json(v)) == v

    def test_round_trip_rational_noninteger(self):
        v = Cyclotomic.from_rational(Fraction(3, 2))
        enc = cyc_to_json(v)
        assert isinstance(enc, dict)
        assert cyc_from_json(enc) == v

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cyc_from_json("nope")


class TestInvariants:
    def test_coeff_length_checked(self):
        with pytest.raises(ValueError):
            Cyclotomic(12, [1, 2, 3])

    def test_conductor_bound_admits_every_totient(self):
        # the early rejection n > 2 len^2 must never refuse a correct length
        assert all(n <= 2 * euler_phi(n) ** 2 for n in range(1, 20000))

    def test_immutable(self):
        v = root_of_unity(5, 1)
        with pytest.raises(AttributeError):
            v.conductor = 3
