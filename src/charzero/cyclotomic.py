"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

Values are polynomials in zeta_N with integer coefficients, reduced modulo
the N-th cyclotomic polynomial (power basis 1, zeta, ..., zeta^(phi(N)-1)).
The representation is canonical at a fixed conductor, so equality and the
zero test are decided by comparing coefficient vectors; operands at different
conductors are embedded into the lcm conductor first.

Every coefficient is a plain int.  Character values are algebraic integers,
and the power basis is an integral basis of Z[zeta_N], so a value with a
non-integral coefficient is no character value: it is refused where it is
made, with a ValueError that says it is not an algebraic integer.
"""

from __future__ import annotations

import marshal
import math
import operator
from functools import lru_cache

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "cyc_to_json",
    "cyc_from_json",
    "record_hook",
    "is_prime_power",
    "check_int",
]


def check_int(x, what: str) -> int:
    """x, which must be an int; the one integer-argument check of the package.
    bool is an int subclass, and True would pass as 1, so it is refused."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an int: {x!r}")
    return x


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending, by one trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def is_prime_power(n: int) -> bool:
    """n is p^k for a prime p and some k >= 1."""
    return n > 1 and len(_prime_factors(n)) == 1


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """n times the product of (1 - 1/p) over the primes p of n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    for p in _prime_factors(n):
        n -= n // p
    return n


def _spread(poly, k: int) -> list:
    """poly(x^k): the coefficient of x^j moves to x^(j*k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _long_division(num: list, den) -> tuple[list, list]:
    """Quotient and remainder of num by the monic den (coefficients low to
    high).  A num shorter than den comes back whole as the remainder."""
    rem = list(num)
    dd = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den[:dd]) if c]
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dc in terms:
                rem[i - dd + j] -= c * dc
    return quot, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low-to-high degree.  From Phi_1 = x - 1, each
    prime p of n gives Phi_mp(x) = Phi_m(x^p) / Phi_m(x) by exact division;
    then Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    poly, r = [-1, 1], 1
    for p in _prime_factors(n):
        poly, rem = _long_division(_spread(poly, p), poly)
        if any(rem):
            raise ArithmeticError("polynomial division left a remainder")
        r *= p
    return tuple(_spread(poly, n // r))


def _coef(c) -> int:
    """c as an int: c must be an int or a rational whose denominator is 1."""
    if type(c) is int:
        return c
    if getattr(c, "denominator", None) == 1:
        return operator.index(c.numerator)
    raise ValueError(f"coefficient {c!r} is not an integer, so not an algebraic integer")


def _reduce(n: int, poly: list) -> tuple[int, ...]:
    """The canonical vector of poly(zeta_n): its remainder mod Phi_n, padded
    to phi(n) coefficients."""
    rem = _long_division(poly, cyclotomic_polynomial(n))[1]
    return tuple(rem) + (0,) * (euler_phi(n) - len(rem))


class Cyclotomic:
    """An element of Z[zeta_N] in canonical reduced form.

    Immutable; all operations are pure and return new values.  Equality works
    across conductors by embedding into the lcm conductor.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if check_int(conductor, "conductor") < 1:
            raise ValueError("conductor must be >= 1")
        vec = tuple(map(_coef, coeffs))
        # phi(n) >= sqrt(n/2) for every n >= 1, so a larger conductor cannot
        # match; this keeps euler_phi off a huge (possibly prime) input.
        if conductor > 2 * len(vec) ** 2:
            raise ValueError(f"conductor {conductor} needs more than {len(vec)} coefficients")
        if len(vec) != euler_phi(conductor):
            raise ValueError(
                f"expected {euler_phi(conductor)} coefficients for conductor "
                f"{conductor}, got {len(vec)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", vec)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @classmethod
    def _make(cls, conductor: int, vec: tuple[int, ...]) -> "Cyclotomic":
        obj = object.__new__(cls)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "coeffs", vec)
        return obj

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls._make(1, (_coef(q),))

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls._make(1, (0,))

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls._make(1, (1,))

    def _sparse(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self.coeffs) if c}

    def embed(self, target: int) -> "Cyclotomic":
        """Re-express at conductor `target` via zeta_N = zeta_target^(target/N)."""
        n = self.conductor
        if target == n:
            return self
        if target % n != 0:
            raise ValueError("target conductor must be a multiple")
        return Cyclotomic._make(target, _reduce(target, _spread(self.coeffs, target // n)))

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        try:
            return Cyclotomic.from_rational(x)
        except ValueError:
            return NotImplemented

    def _common(self, other: "Cyclotomic"):
        if self.conductor == other.conductor:
            return self, other
        lcm = math.lcm(self.conductor, other.conductor)
        return self.embed(lcm), other.embed(lcm)

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return Cyclotomic._make(a.conductor, tuple(map(operator.add, a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.conductor, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.conductor == 1 or self.conductor == 1:
            # an integer times a reduced vector is still reduced
            a, q = (self, other.coeffs[0]) if other.conductor == 1 else (other, self.coeffs[0])
            return Cyclotomic._make(a.conductor, tuple([q * c for c in a.coeffs]))
        a, b = self._common(other)
        # both factors have degree < phi(N), so the product needs no wrap mod N
        poly = [0] * (2 * len(a.coeffs) - 1)
        bs = [(j, c) for j, c in enumerate(b.coeffs) if c]
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in bs:
                    poly[i + j] += ci * cj
        return Cyclotomic._make(a.conductor, _reduce(a.conductor, poly))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        result = Cyclotomic.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugation: zeta_N -> zeta_N^(N-1)."""
        n = self.conductor
        poly = [0] * n
        for e, c in enumerate(self.coeffs):
            poly[(n - e) % n] = c
        return Cyclotomic._make(n, _reduce(n, poly))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_integer(self) -> int | None:
        """The value if it lies in Q, which makes it an int, else None."""
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def approx(self) -> complex:
        import cmath  # only here, so that importing the CLI does not load it

        n = self.conductor
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * e / n) for e, c in self._sparse().items()),
            complex(0.0),
        )

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses conductors; values are not hashable

    def __repr__(self):
        q = self.as_integer()
        if q is not None:
            return f"Cyclotomic({q})"
        terms = " + ".join(f"{c}*z{self.conductor}^{e}" for e, c in self._sparse().items())
        return f"Cyclotomic[{terms}]"


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in canonical reduced form at conductor n."""
    if check_int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return Cyclotomic._make(n, _reduce(n, [0] * (check_int(k, "k") % n) + [1]))


def cyc_to_json(v: Cyclotomic):
    """JSON encoding: the int v.as_integer() for a rational value, else the
    full record, each coefficient c written as the pair [c, 1]."""
    if (q := v.as_integer()) is not None:
        return q
    return {"conductor": v.conductor, "coeffs": [[c, 1] for c in v.coeffs]}


def cyc_from_json(obj) -> Cyclotomic:
    """Decode cyc_to_json's encoding; the one decoder of a value record, which
    table_from_json runs once per record object.  A coefficient pair [num,
    den] must hold two integers with den dividing num: [4, 2] is 2, [1, 2]
    is refused."""
    if isinstance(obj, bool):
        raise ValueError("booleans are not cyclotomic values")
    if isinstance(obj, int):
        return Cyclotomic.from_rational(obj)
    if isinstance(obj, dict):
        n = obj["conductor"]
        if type(n) is not int:
            raise ValueError(f"conductor must be an integer, got {n!r}")
        return Cyclotomic(n, [_quotient(num, den) for num, den in obj["coeffs"]])
    raise ValueError(f"cannot decode cyclotomic value from {obj!r}")


def record_hook():
    """A json object_hook: every object whose keys are exactly "conductor"
    then "coeffs", as cyc_to_json writes a record, becomes the first such dict
    with the same marshal bytes, so one copy of a repeated record stays alive
    and a decoder that memoizes on the dict decodes it once.  marshal writes
    each JSON type distinctly, so equal bytes mean equal values of equal
    types: true, 1.0 and 1 never share a record."""
    records: dict[bytes, dict] = {}

    def hook(obj: dict):
        if len(obj) != 2 or list(obj) != ["conductor", "coeffs"]:
            return obj
        return records.setdefault(marshal.dumps(obj), obj)

    return hook


def _quotient(num, den) -> int:
    # JSON true is not a number here, though bool is a subclass of int
    if type(num) is not int or type(den) is not int:
        raise ValueError(f"coefficients are pairs of integers, got [{num!r}, {den!r}]")
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"coefficient {num}/{den} is not an integer, so not an algebraic integer")
    return q
