"""Table-based arithmetic for F_q (q = p^k) and a coherent family of
multiplicative characters.

Elements of F_q are encoded as the integers 0..q-1.  For k = 1 the encoding
is the residue itself; for k > 1 an element a_0 + a_1*t + ... + a_{k-1}*t^{k-1}
of F_p[t]/(modulus) is encoded as the base-p integer a_0 + a_1*p + ... .
The modulus is the encoding-least monic irreducible of degree k, so the
encoding is deterministic.  It is found, and the tables are built, with the
polyring arithmetic over the prime field F_p: a `Polynomial` product mod the
modulus, and trial division by `is_irreducible`.  For k > 1, addition and
negation read Zech logarithm and negation tables; digits are decoded only
while building.  Two bulk operations do a whole loop in one call: divide
(long division of coefficient lists) and values (f(x) at every x), with
integer arithmetic mod p for k = 1 and the same tables for k > 1.  Tables
are built only for q <= TABLE_BUDGET = 2^16; a larger q raises TooLarge.

All characters are powers of one fixed character of order q-1 attached to the
stored generator: chi_m(g^k) = zeta_m^(k mod m).  This makes the family
coherent, i.e. chi_{m'} = chi_m^{m/m'} holds exactly at the exponent level
whenever m' | m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BadOrder, NotPrime, TooLarge
from .numtheory import prime_factors
from .polyring import Polynomial, enumerate_monic, is_irreducible

TABLE_BUDGET = 1 << 16


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

    def __init__(self, p: int, k: int):
        if type(k) is not int:  # type, not isinstance: a bool k is refused too
            raise TooLarge(f"k must be an int, got {k!r}")
        if k < 1:
            raise TooLarge(f"k must be positive, got {k}")
        if type(p) is not int:
            raise NotPrime(f"{p!r} is not prime")
        # Size first, with no huge p**k: trial division of a large p is slow.
        if p > 1 and (k > TABLE_BUDGET.bit_length() - 1 or p**k > TABLE_BUDGET):
            raise TooLarge(f"q = {p}^{k} exceeds table budget {TABLE_BUDGET}")
        if prime_factors(p) != [p]:
            raise NotPrime(f"{p} is not prime")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = None
        if k > 1:
            # The encoding-least monic irreducible of degree k over F_p.
            monics = enumerate_monic(FieldCtx(p, 1), k)
            self._modulus = next(f for f in monics if is_irreducible(f))
            self.modulus = self._modulus.coeffs
        self._build_tables()

    # -- construction helpers -------------------------------------------

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.k):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _raw_mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        F = self._modulus.ctx
        prod = Polynomial(F, self._decode(a)) * Polynomial(F, self._decode(b))
        return sum(c * self.p**i for i, c in enumerate((prod % self._modulus).coeffs))

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
        # a -> a*g is F_p-linear in the digits of a, so a*g is the digitwise
        # sum of (low digits of a)*g and (high digits of a)*g, both tabled.
        p, half = self.p, self.p ** (self.k // 2)
        low = [self._decode(self._raw_mul(a, gen)) for a in range(half)]
        high = [self._decode(self._raw_mul(a * half, gen)) for a in range(q // half)]
        powers = [p**j for j in range(self.k)]
        exp = [0] * (q - 1)
        a = 1
        for i in range(q - 1):
            exp[i] = a
            h, l = divmod(a, half)
            a = sum((u + v) % p * w for u, v, w in zip(low[l], high[h], powers))
        assert a == 1
        dlog: list[Optional[int]] = [None] * q
        for i, v in enumerate(exp):
            dlog[v] = i
        self._exp = exp
        self._dlog = dlog
        if self.k > 1:
            # 1 + a changes only the lowest base-p digit of the encoding.
            half = (q - 1) // 2
            one_plus = [a + 1 if a % p != p - 1 else a + 1 - p for a in exp]
            self._zech = [dlog[a] for a in one_plus]  # None where 1 + g^i = 0
            self._neg = [0] + [
                a if p == 2 else exp[(dlog[a] + half) % (q - 1)] for a in range(1, q)
            ]

    # -- arithmetic on encodings ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        # g^i + g^j = g^i (1 + g^(j-i)), with the Zech log of 1 + g^(j-i)
        la, n = self._dlog[a], self.q - 1
        z = self._zech[(self._dlog[b] - la) % n]
        return 0 if z is None else self._exp[(la + z) % n]

    def divide(self, a, b) -> tuple[list, list]:
        """Long division of a by b on coefficient lists, low first; b has a
        nonzero leading coefficient.  Returns the quotient negated, top
        coefficient first, and the remainder with trailing zeros stripped:
        each digit -c/lead(b), c the top of the remainder, adds digit * b."""
        exp, dlog, n = self._exp, self._dlog, self.q - 1
        db, rem, quo = len(b) - 1, list(a), []
        shift = (0 if self.p == 2 else n // 2) - dlog[b[-1]]  # -1 = g^(n/2)
        if self.k == 1:
            p, low, scale = self.p, b[:-1], exp[shift % n]
            for s in range(len(rem) - 1 - db, -1, -1):
                digit = rem.pop() * scale % p
                quo.append(digit)
                if digit:
                    for j, v in enumerate(low, s):
                        rem[j] = (rem[j] + digit * v) % p
        else:
            zech, low = self._zech, [dlog[v] for v in b[:-1]]
            for s in range(len(rem) - 1 - db, -1, -1):
                c = rem.pop()
                if not c:
                    quo.append(0)
                    continue
                m = dlog[c] + shift
                quo.append(exp[m % n])
                for j, lv in enumerate(low, s):
                    if lv is not None:  # rem[j] + g^t = g^t (1 + g^(dlog rem[j] - t))
                        t, u = m + lv, rem[j]
                        if u:
                            z = zech[(dlog[u] - t) % n]
                            rem[j] = 0 if z is None else exp[(t + z) % n]
                        else:
                            rem[j] = exp[t % n]
        while rem and not rem[-1]:
            rem.pop()
        return quo, rem

    def values(self, coeffs) -> list[int]:
        """f(x) for x = 0, 1, ..., q-1, f the polynomial with coefficients
        coeffs (low first), by Horner at each x."""
        top, q = coeffs[::-1], self.q
        if self.k == 1:
            p, out = self.p, []
            for x in range(q):
                v = 0
                for c in top:
                    v = (v * x + c) % p
                out.append(v)
            return out
        # Horner on dlogs: lv is dlog of the value so far, None for 0.
        exp, dlog, zech, n = self._exp, self._dlog, self._zech, q - 1
        logs = [dlog[c] for c in top]
        out = [coeffs[0] if coeffs else 0]
        for lx in dlog[1:]:
            lv = None
            for lc in logs:
                if lv is None:
                    lv = lc
                    continue
                lv += lx
                if lc is not None:
                    z = zech[(lc - lv) % n]
                    lv = None if z is None else lv + z
            out.append(0 if lv is None else exp[lv % n])
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self._neg[a]

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

    def units(self):
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, generator={self.generator})"


def make_field(p: int, k: int = 1) -> FieldCtx:
    """Build F_{p^k}, p^k <= TABLE_BUDGET, with a verified generator and dlog table."""
    return FieldCtx(p, k)


def character(ctx: FieldCtx, m: int, a: int) -> CharValue:
    """chi_m(a), the order-m multiplicative character attached to ctx.generator.

    Requires m | q-1; chi_m(0) = 0 by convention.
    """
    if m < 1 or (ctx.q - 1) % m:
        raise BadOrder(f"m = {m} does not divide q-1 = {ctx.q - 1}")
    if a == 0:
        return CharValue.zero(m)
    return CharValue.root(m, ctx.dlog(a) % m)
