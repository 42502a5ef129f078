"""Table-based arithmetic for F_q (q = p^k) and a coherent family of
multiplicative characters.

Elements of F_q are encoded as the integers 0..q-1.  For k = 1 the encoding
is the residue itself; for k > 1 an element a_0 + a_1*t + ... + a_{k-1}*t^{k-1}
of F_p[t]/(modulus) is encoded as the base-p integer a_0 + a_1*p + ... .
The modulus is the encoding-least monic irreducible of degree k, so the
encoding is deterministic.

All characters are powers of one fixed character of order q-1 attached to the
stored generator: chi_m(g^k) = zeta_m^(k mod m).  This makes the family
coherent, i.e. chi_{m'} = chi_m^{m/m'} holds exactly at the exponent level
whenever m' | m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .errors import BadOrder, NotPrime, TooLarge
from .numtheory import prime_factors

TABLE_BUDGET = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class CharValue:
    """A value of a multiplicative character: 0, or a root of unity zeta_m^e.

    ``exponent`` is None exactly for the zero value; otherwise it is reduced
    mod ``order``.
    """

    order: int
    exponent: Optional[int]

    @classmethod
    def zero(cls, order: int) -> "CharValue":
        return cls(order, None)

    @classmethod
    def root(cls, order: int, exponent: int) -> "CharValue":
        return cls(order, exponent % order)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def in_order(self, m: int) -> "CharValue":
        """Re-embed into mu_m; requires order | m."""
        if m % self.order:
            raise BadOrder(f"cannot embed mu_{self.order} into mu_{m}")
        if self.is_zero:
            return CharValue.zero(m)
        return CharValue.root(m, self.exponent * (m // self.order))

    def power(self, k: int) -> "CharValue":
        if self.is_zero:
            if k == 0:
                return CharValue.root(self.order, 0)
            return self
        return CharValue.root(self.order, self.exponent * k)

    def times(self, other: "CharValue") -> "CharValue":
        if self.order != other.order:
            raise BadOrder("mismatched character orders")
        if self.is_zero or other.is_zero:
            return CharValue.zero(self.order)
        return CharValue.root(self.order, self.exponent + other.exponent)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"CharValue(0 in mu_{self.order})"
        return f"CharValue(zeta_{self.order}^{self.exponent})"


class FieldCtx:
    """Immutable field context for F_q with exp/dlog tables.

    Safe for unrestricted concurrent reads; no method mutates state after
    construction.
    """

    def __init__(self, p: int, k: int, budget: int = TABLE_BUDGET):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise TooLarge(f"k must be positive, got {k}")
        q = p**k
        if q > budget:
            raise TooLarge(f"q = {q} exceeds table budget {budget}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = None if k == 1 else self._least_irreducible()
        self._build_tables()

    # -- construction helpers -------------------------------------------

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.k):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits: list[int]) -> int:
        a = 0
        for c in reversed(digits):
            a = a * self.p + c
        return a

    def _poly_mulmod(self, u: list[int], v: list[int], mod: list[int]) -> list[int]:
        # mod is monic of degree k, coefficients low-first, length k+1.
        p, k = self.p, len(mod) - 1
        prod = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        prod = prod[:k]
        prod += [0] * (k - len(prod))
        return prod

    def _least_irreducible(self) -> tuple[int, ...]:
        """Encoding-least monic irreducible of degree k over F_p."""
        p, k = self.p, self.k
        monics: dict[int, list[list[int]]] = {}

        def all_monic(d):
            if d not in monics:
                out = []
                for code in range(p**d):
                    coeffs = []
                    c = code
                    for _ in range(d):
                        coeffs.append(c % p)
                        c //= p
                    out.append(coeffs + [1])
                monics[d] = out
            return monics[d]

        def divides(g, f):
            # monic g | f over F_p, schoolbook remainder check
            rem = list(f)
            dg = len(g) - 1
            for i in range(len(rem) - 1, dg - 1, -1):
                c = rem[i]
                if c:
                    for j in range(dg + 1):
                        rem[i - dg + j] = (rem[i - dg + j] - c * g[j]) % p
            return not any(rem[:dg])

        for code in range(p**k):
            coeffs = []
            c = code
            for _ in range(k):
                coeffs.append(c % p)
                c //= p
            f = coeffs + [1]
            if all(
                not divides(g, f) for d in range(1, k // 2 + 1) for g in all_monic(d)
            ):
                return tuple(f)
        raise AssertionError("no irreducible found")  # pragma: no cover

    def _raw_mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        prod = self._poly_mulmod(self._decode(a), self._decode(b), list(self.modulus))
        return self._encode(prod)

    def _raw_pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.q
        primes = prime_factors(q - 1) if q > 2 else []
        gen = None
        for g in range(1, q):
            if all(self._raw_pow(g, (q - 1) // ell) != 1 for ell in primes):
                gen = g
                break
        assert gen is not None
        self.generator = gen
        exp = [0] * (q - 1)
        a = 1
        for i in range(q - 1):
            exp[i] = a
            a = self._raw_mul(a, gen)
        assert a == 1
        dlog: list[Optional[int]] = [None] * q
        for i, v in enumerate(exp):
            dlog[v] = i
        self._exp = exp
        self._dlog = dlog

    # -- arithmetic on encodings ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self._encode([-x % self.p for x in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._dlog[a] + self._dlog[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_q")
        return self._exp[-self._dlog[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse in F_q")
            return 1 if e == 0 else 0
        return self._exp[self._dlog[a] * e % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("dlog(0) is undefined")
        return self._dlog[a]

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, generator={self.generator})"


def make_field(p: int, k: int = 1, budget: int = TABLE_BUDGET) -> FieldCtx:
    """Build F_{p^k} with a verified generator and full dlog table."""
    if k < 1:
        raise TooLarge(f"k must be positive, got {k}")
    return FieldCtx(p, k, budget)


def character(ctx: FieldCtx, m: int, a: int) -> CharValue:
    """chi_m(a), the order-m multiplicative character attached to ctx.generator.

    Requires m | q-1; chi_m(0) = 0 by convention.
    """
    if m < 1 or (ctx.q - 1) % m:
        raise BadOrder(f"m = {m} does not divide q-1 = {ctx.q - 1}")
    if a == 0:
        return CharValue.zero(m)
    return CharValue.root(m, ctx.dlog(a) % m)
