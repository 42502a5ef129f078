"""Dense polynomial arithmetic over F_q and enumeration of the squarefree /
pairwise-coprime tuples that index the moduli spaces.

Polynomials are coefficient tuples, low degree first, trailing zeros stripped.
Enumeration streams are deterministic: candidates of a fixed degree are
ordered by the base-q integer a_0 + a_1*q + ... of their non-leading
coefficients.  Tables over all codes of a degree are built in that order
without a Python step per code, as bytes: a value column (_value_columns)
is joined from translated copies of itself, one digit at a time, and the
squarefree flags read the double roots t - x off the columns of f(x) and
f'(x).  So every enumeration needs q <= 256; over a larger q the value
columns raise TooLarge.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, compress, groupby, product, repeat
from math import comb, factorial, prod
from operator import gt
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

from .errors import FieldMismatch, TooLarge, ZeroPolynomial
from .numtheory import count_irreducibles

if TYPE_CHECKING:  # field builds F_{p^k} from this module
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
        quo, rem = F.divide(self.coeffs, other.coeffs)
        return Polynomial(F, [F.neg(c) for c in reversed(quo)]), Polynomial(F, rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def evaluate(self, x: int) -> int:
        F = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def derivative(self) -> "Polynomial":
        F, p = self.ctx, self.ctx.p
        terms = enumerate(self.coeffs[1:], start=1)
        if F.k == 1:
            return Polynomial(F, [c * i % p for i, c in terms])
        return Polynomial(F, [F.mul(c, i % p) for i, c in terms])

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
    """Monic gcd; gcd(0, 0) = 0.  Euclid runs on the coefficient lists and
    stops at a nonzero constant remainder, where the gcd is 1."""
    f._check(g)
    ctx = f.ctx
    a, b = f.coeffs, g.coeffs
    while b:
        if len(b) == 1:
            return Polynomial.one(ctx)
        a, b = b, ctx.divide(a, b)[1]
    return Polynomial(ctx, a).monic()


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
    return _monic_where(ctx, d, repeat(1))


def _monic_maker(ctx: FieldCtx, degrees) -> Callable[[int, int], Polynomial]:
    """make(d, code) for d in degrees: the monic Polynomial of degree d and
    base-q code, its digits read from tables of the low d//2 and the rest."""
    halves, digits = {}, range(ctx.q)
    for d in degrees:  # product() turns its last digit fastest: reverse it
        low, high = (list(product(digits, repeat=n)) for n in (d // 2, d - d // 2))
        halves[d] = len(low), [t[::-1] for t in low], [t[::-1] + (1,) for t in high]

    def make(d: int, code: int) -> Polynomial:
        size, low, high = halves[d]
        return Polynomial(ctx, low[code % size] + high[code // size])

    return make


def _value_columns(ctx: FieldCtx, d: int, weight: Callable[[int, int], int]) -> Iterator:
    """Per x in F_q, the values sum_(i<d) a_i * weight(x, i) of every monic
    degree-d code a_0 + a_1 q + ..., in code order, as bytes.  Built digit
    by digit: the block for digit a is the column so far shifted by
    a * weight(x, i), by one translate, and the q blocks are joined.  The one
    check of the byte format of every enumeration table: over q > 256 this
    raises TooLarge, at the first column."""
    q, add, mul = ctx.q, ctx.add, ctx.mul
    if q > 256:
        raise TooLarge(f"enumeration tables hold one field element per byte: q = {q} > 256")
    shift = [bytes([add(v, s) for v in range(q)] + [0] * (256 - q)) for s in range(q)]
    for x in range(q):
        column = b"\0"
        for i in range(d):
            w = weight(x, i)
            column = b"".join([column.translate(shift[mul(a, w)]) for a in range(q)])
        yield column


def _monic_where(ctx: FieldCtx, d: int, flags) -> Iterator[Polynomial]:
    make = _monic_maker(ctx, [d])
    return (make(d, code) for code in compress(range(ctx.q**d), flags))


def _multiples(ctx: FieldCtx, d: int, S: Polynomial) -> list[int]:
    """Codes of the monic degree-d multiples of the monic S.  f = x^d + high
    + low, with deg low < e = deg S, is a multiple of S iff
    low = -((x^d + high) mod S): the walk runs over the high coefficients
    and reads low off the rows x^t mod S."""
    q, add, mul, neg = ctx.q, ctx.add, ctx.mul, ctx.neg
    powers = [q**i for i in range(d)]
    s, e = S.coeffs, S.degree
    rows = [[neg(c) for c in s[:-1]]]  # x^e mod S
    for _ in range(e, d):
        top, row = rows[-1][-1], [0] + rows[-1][:-1]
        rows.append([ctx.sub(a, mul(top, c)) for a, c in zip(row, s)])
    # scaled[t - e][c] = -c * (x^t mod S)
    scaled = [[[neg(mul(c, a)) for a in r] for c in range(q)] for r in rows[:-1]]
    codes = []

    def walk(t, low, code):
        if t < e:
            codes.append(code + sum(map(int.__mul__, low, powers)))
            return
        for c, w in enumerate(scaled[t - e]):
            walk(t - 1, list(map(add, low, w)), code + c * powers[t])

    walk(d - 1, [neg(a) for a in rows[-1]], 0)
    return codes


def _sieve(ctx: FieldCtx, d: int, divisors) -> bytearray:
    """One flag per monic degree-d code, cleared on the multiples of each
    monic S in divisors."""
    flags = bytearray(b"\x01") * ctx.q**d
    for S in divisors:
        for code in _multiples(ctx, d, S):
            flags[code] = 0
    return flags


def _irreducibles(ctx: FieldCtx, m: int, found: dict) -> list[Polynomial]:
    """The monic irreducibles of degree m, in code order: the degree-m codes
    that no irreducible of degree <= m/2 divides.  found memoises degrees."""
    if m not in found:
        small = [P for j in range(1, m // 2 + 1) for P in _irreducibles(ctx, j, found)]
        found[m] = list(_monic_where(ctx, m, _sieve(ctx, m, small)))
    return found[m]


def _squarefree_flags(ctx: FieldCtx, d: int) -> bytearray:
    """Flag per monic degree-d code: cleared on P^2 g for every monic
    irreducible P with 2 deg P <= d.  The linear P = t - x are read off the
    value columns, since (t - x)^2 | f iff f(x) = 0 = f'(x), before the
    others go through _sieve."""
    q, p, pow_, mul, neg = ctx.q, ctx.p, ctx.pow, ctx.mul, ctx.neg

    def slope(x: int, i: int) -> int:  # the weight of a_i in f'(x), i read mod p
        return mul(i % p, pow_(x, i - 1)) if i else 0

    def zeros(column: bytes, lead: int) -> int:  # a byte per code, 1 where lead + value = 0
        root = neg(lead)
        return int.from_bytes(column.translate(bytes(root) + b"\1" + bytes(255 - root)), "big")

    doubled = 0
    values, slopes = _value_columns(ctx, d, pow_), _value_columns(ctx, d, slope)
    for x, f, df in zip(range(q), values, slopes):
        doubled |= zeros(f, pow_(x, d)) & zeros(df, slope(x, d))
    found: dict = {}
    small = (P for m in range(2, d // 2 + 1) for P in _irreducibles(ctx, m, found))
    flags = _sieve(ctx, d, [P * P for P in small])
    kept = int.from_bytes(flags, "big") & ~doubled
    return bytearray(kept.to_bytes(len(flags), "big"))


def _factor_masks(ctx: FieldCtx, degrees, top: int) -> dict[int, list[int]]:
    """Per degree d in degrees, one mask per monic degree-d code: bit i is
    set iff the i-th monic irreducible of degree <= top (by degree, then
    code) divides it.  Two codes whose common factors can only have degree
    <= top are coprime iff their masks are disjoint."""
    found: dict = {}
    small = [P for m in range(1, top + 1) for P in _irreducibles(ctx, m, found)]
    out = {}
    for d in degrees:
        masks = [0] * ctx.q**d
        for bit, P in enumerate(small):
            if P.degree > d:
                break
            for code in _multiples(ctx, d, P):
                masks[code] |= 1 << bit
        out[d] = masks
    return out


def enumerate_squarefree(ctx: FieldCtx, d: int) -> Iterator[Polynomial]:
    """The set of monic squarefree polynomials of degree d, each exactly once.

    d = 0 yields exactly the constant 1.
    """
    return _monic_where(ctx, d, _squarefree_flags(ctx, d))


def enumerate_coprime_tuples(
    ctx: FieldCtx, degrees: Mapping, make: Optional[Callable] = None, *, _each=None
) -> Iterator:
    """Tuples of monic squarefree pairwise-coprime polynomials with the
    prescribed degrees, keyed like ``degrees``, each exactly once: keys in
    sorted order, each key's candidates in enumerate_squarefree order, a
    candidate skipped where its factor mask meets those of the chosen
    coordinates.  Flags and masks are sieved once per call, masks up to the
    second largest degree, which bounds a common factor of two coordinates.
    Each coordinate is built once, as make(d, code) from its degree and
    base-q code (by default the monic Polynomial); degree-0 ones (code 0)
    first.  The innermost positive-degree coordinate (the last key if none)
    is not looped over: per choice of the others the walk flags its codes
    at once and yields from _each(chosen, slot, d, flags), one item per
    flagged code (by default the tuple's dict), with chosen holding the
    coordinates by key position and slot the innermost's."""
    keys = sorted(degrees)
    if not keys:
        yield {}
        return
    q, degs = ctx.q, [degrees[key] for key in keys]
    flags = {d: _squarefree_flags(ctx, d) for d in set(degs)}
    positive = sorted(d for d in degs if d > 0)
    masks = _factor_masks(ctx, set(positive), positive[-2]) if len(positive) > 1 else {}
    make = make or _monic_maker(ctx, flags)  # flags is keyed by the degrees
    chosen = [None if d else make(0, 0) for d in degs]
    *outer, slot = [i for i, d in enumerate(degs) if d] or [len(keys) - 1]

    def each(chosen, slot, d, selected):
        for code in compress(range(q**d), selected):
            chosen[slot] = make(d, code)
            yield dict(zip(keys, chosen))

    def prefixes(j: int, used: int) -> Iterator[int]:  # outer[j:] set in chosen
        if j == len(outer):
            yield used  # the union of the chosen coordinates' masks
            return
        i, d = outer[j], degs[outer[j]]
        for code, mask in compress(zip(range(q**d), masks[d]), flags[d]):
            if not mask & used:
                chosen[i] = make(d, code)
                yield from prefixes(j + 1, used | mask)

    d = degs[slot]
    for used in prefixes(0, 0):
        selected = map(gt, flags[d], map(used.__and__, masks[d])) if used else flags[d]
        yield from (_each or each)(chosen, slot, d, selected)


def count_coprime_tuples(q: int, degrees) -> int:
    """The number of tuples that enumerate_coprime_tuples yields over F_q for
    these degrees: the coefficient of prod_i u_i^(d_i) in the Euler product
    prod_P (1 + sum_i u_i^(deg P)).  Degree-0 coordinates are the constant 1.
    With one positive degree d this is the number of monic squarefree
    polynomials of degree d, read off the classical closed form q^d - q^(d-1)
    (q for d = 1) instead.
    """
    rest = tuple(sorted(d for d in degrees if d > 0))
    if len(rest) == 1:
        d = rest[0]
        return q if d == 1 else q**d - q ** (d - 1)
    return _count_from(q, 1, rest)


@lru_cache(maxsize=None)
def _count_from(q: int, m: int, rest: tuple[int, ...]) -> int:
    """Tuples with the sorted positive degrees rest whose irreducible factors
    all have degree >= m.  Each of the pi_q(m) irreducibles of degree m
    divides at most one coordinate, a_i of them coordinate i.  Coordinates of
    equal degree are interchangeable: their a_i are chosen as a multiset,
    weighted by its number of arrangements."""
    if not rest:
        return 1
    if rest[0] < m:
        return 0
    pi = count_irreducibles(q, m)
    runs = [(d, len(list(group))) for d, group in groupby(rest)]
    choices = (combinations_with_replacement(range(d // m + 1), c) for d, c in runs)
    total = 0
    for parts in product(*choices):
        split = [a for part in parts for a in part]
        s = sum(split)
        if s > pi:
            continue
        # which s irreducibles are used, and how they are dealt to the coordinates
        ways = comb(pi, s) * factorial(s) // prod(map(factorial, split))
        for part in parts:
            ways *= factorial(len(part))
            ways //= prod(factorial(part.count(a)) for a in set(part))
        left = [d - m * a for (d, _), part in zip(runs, parts) for a in part]
        total += ways * _count_from(q, m + 1, tuple(sorted(r for r in left if r)))
    return total


def count_squarefree(ctx: FieldCtx, d: int) -> int:
    """|F_d| by the classical closed form (1, q, q^d - q^(d-1))."""
    return count_coprime_tuples(ctx.q, [d])
