"""Dense polynomial arithmetic over F_q and enumeration of the squarefree /
pairwise-coprime tuples that index the moduli spaces.

Polynomials are coefficient tuples, low degree first, trailing zeros stripped.
Enumeration streams are deterministic: candidates of a fixed degree are
ordered by the base-q integer a_0 + a_1*q + ... of their non-leading
coefficients.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import FieldMismatch, ZeroPolynomial
from .field import FieldCtx


class Polynomial:
    """Dense polynomial over a FieldCtx.  deg(0) is the sentinel -1."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Polynomial":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Polynomial":
        return cls(ctx, (1,))

    @classmethod
    def constant(cls, ctx: FieldCtx, a: int) -> "Polynomial":
        return cls(ctx, (a,))

    @classmethod
    def x_minus(cls, ctx: FieldCtx, a: int) -> "Polynomial":
        return cls(ctx, (ctx.neg(a), 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "Polynomial") -> None:
        if self.ctx is not other.ctx:
            raise FieldMismatch("operands belong to different fields")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Polynomial(F, out)

    def __neg__(self) -> "Polynomial":
        F = self.ctx
        return Polynomial(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.ctx
        if self.is_zero or other.is_zero:
            return Polynomial.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial(F, out)

    def __pow__(self, e: int) -> "Polynomial":
        out = Polynomial.one(self.ctx)
        for _ in range(e):
            out = out * self
        return out

    def __divmod__(self, other: "Polynomial"):
        self._check(other)
        F = self.ctx
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return Polynomial.zero(F), self
        quo = [0] * (dq + 1)
        lead_inv = F.inv(other.coeffs[-1])
        for i in range(len(rem) - 1, other.degree - 1, -1):
            c = rem[i]
            if c:
                factor = F.mul(c, lead_inv)
                quo[i - other.degree] = factor
                for j, b in enumerate(other.coeffs):
                    rem[i - other.degree + j] = F.sub(
                        rem[i - other.degree + j], F.mul(factor, b)
                    )
        return Polynomial(F, quo), Polynomial(F, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def evaluate(self, x: int) -> int:
        F = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def derivative(self) -> "Polynomial":
        F = self.ctx
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(F.mul(c, i % F.p))
        return Polynomial(F, out)

    def monic(self) -> "Polynomial":
        if self.is_zero or self.is_monic:
            return self
        F = self.ctx
        inv = F.inv(self.coeffs[-1])
        return Polynomial(F, [F.mul(c, inv) for c in self.coeffs])

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = [
            f"{c}*X^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        ]
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd; gcd(0, 0) = 0."""
    f._check(g)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def is_squarefree(f: Polynomial) -> bool:
    """True iff f has no repeated irreducible factor.

    In characteristic p a vanishing derivative means f is a p-th power, hence
    not squarefree unless f is constant.
    """
    if f.is_zero:
        raise ZeroPolynomial("squarefreeness of 0 is undefined")
    if f.degree < 1:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    return poly_gcd(f, d).degree == 0


def is_irreducible(f: Polynomial) -> bool:
    """Trial-division irreducibility test (desk scale only)."""
    if f.is_zero:
        raise ZeroPolynomial("irreducibility of 0 is undefined")
    if f.degree < 1:
        return False
    ctx = f.ctx
    for d in range(1, f.degree // 2 + 1):
        for g in enumerate_monic(ctx, d):
            if (f % g).is_zero:
                return False
    return True


def enumerate_monic(ctx: FieldCtx, d: int) -> Iterator[Polynomial]:
    """All monic polynomials of degree d, in base-q code order."""
    q = ctx.q
    for code in range(q**d):
        coeffs = []
        c = code
        for _ in range(d):
            coeffs.append(c % q)
            c //= q
        yield Polynomial(ctx, coeffs + [1])


def enumerate_squarefree(ctx: FieldCtx, d: int) -> Iterator[Polynomial]:
    """The set of monic squarefree polynomials of degree d, each exactly once.

    d = 0 yields exactly the constant 1.
    """
    for f in enumerate_monic(ctx, d):
        if is_squarefree(f):
            yield f


def enumerate_coprime_tuples(ctx: FieldCtx, degrees: Mapping) -> Iterator[dict]:
    """Tuples of monic squarefree pairwise-coprime polynomials with the
    prescribed degrees, keyed like ``degrees``, each exactly once.

    Keys are visited in sorted order; within a key candidates follow the
    enumerate_squarefree order, with incremental gcd rejection against the
    already-chosen coordinates.
    """
    keys = sorted(degrees)
    if not keys:
        yield {}
        return

    def rec(i: int, chosen: list[Polynomial]) -> Iterator[dict]:
        if i == len(keys):
            yield dict(zip(keys, chosen))
            return
        for f in enumerate_squarefree(ctx, degrees[keys[i]]):
            if f.degree >= 1 and any(
                g.degree >= 1 and poly_gcd(f, g).degree > 0 for g in chosen
            ):
                continue
            chosen.append(f)
            yield from rec(i + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def count_squarefree(ctx: FieldCtx, d: int) -> int:
    """|F_d| by the classical closed form (1, q, q^d - q^(d-1))."""
    if d == 0:
        return 1
    if d == 1:
        return ctx.q
    return ctx.q**d - ctx.q ** (d - 1)
