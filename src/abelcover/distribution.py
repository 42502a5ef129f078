"""The theoretical distribution of point counts and its comparison with
empirical histograms.

Each of the q+1 points of P^1(F_q) contributes an i.i.d. variable taking the
value |G|/s with probability s*phi_G(s) / D for s | exp(G), s != 1, the value
|G| with probability q / D, and 0 with the remaining mass, where
D = |G|(q+|G|-1).  The total-count law is the exact (q+1)-fold convolution.
A ``Pmf`` holds integer weights over one denominator in lowest terms: the
single-point law over D, reduced, and the total law over its (q+1)-th power.
Convolution is Kronecker substitution: the weights are packed into one
integer, one byte-aligned slot per value divided by the gcd of the support,
and the k-fold convolution is that integer's k-th power, unpacked once.
``compare`` works on the integer differences count*den - weight*draws.  A
pattern probability is one integer numerator over D^(q+1), and the
Euler-product interval is kept in integer fixed point.  Fractions are built
only by the accessors that hand values out; floats appear only in reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import BadField, BadMultiplicity, EmptyHistogram, InternalInconsistency
from .groupcomb import GroupSpec, beta_classes, phi_G
from .numtheory import count_irreducibles, divisors, euler_phi, prime_factors


@dataclass(frozen=True)
class Pmf:
    """Exact probability mass function on non-negative integers: positive
    integer weights over one denominator, in lowest terms.  The weights then
    have gcd 1, since it divides their sum, the denominator; by Gauss's
    lemma so do those of a convolution, which therefore needs no reduction.
    """

    weights: tuple[tuple[int, int], ...]  # sorted (value, weight)
    den: int

    @classmethod
    def from_dict(cls, d: Mapping[int, Fraction]) -> "Pmf":
        # Over the lcm of the reduced denominators the weights have no
        # common factor with it: they are already in lowest terms.
        probs = [(v, Fraction(p)) for v, p in sorted(d.items()) if p != 0]
        den = lcm(*(p.denominator for _, p in probs))
        weights = tuple((v, p.numerator * (den // p.denominator)) for v, p in probs)
        mass = sum(w for _, w in weights)
        if mass != den or any(w < 0 for _, w in weights):
            raise InternalInconsistency(
                f"pmf does not normalize: sum = {Fraction(mass, den)}"
            )
        return cls(weights, den)

    @property
    def probs(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((v, Fraction(w, self.den)) for v, w in self.weights)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.probs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.weights)

    def mean(self) -> Fraction:
        return Fraction(sum(v * w for v, w in self.weights), self.den)

    def convolve(self, other: "Pmf") -> "Pmf":
        den = self.den * other.den
        g = gcd(*self.support, *other.support) or 1
        width = _slot_width(den)
        packed = _pack(self.weights, g, width) * _pack(other.weights, g, width)
        return _unpack(packed, g, width, den)

    def convolve_power(self, k: int) -> "Pmf":
        den = self.den**k
        g = gcd(*self.support) or 1
        width = _slot_width(den)
        return _unpack(_pack(self.weights, g, width) ** k, g, width, den)

    def to_json(self) -> str:
        return json.dumps(
            {str(v): [p.numerator, p.denominator] for v, p in self.probs}
        )


def _slot_width(den: int) -> int:
    """Bytes per packed slot for weights over ``den``.  The weights of a
    product are non-negative and sum to ``den``, so none exceeds it."""
    return den.bit_length() // 8 + 1


def _pack(weights: tuple[tuple[int, int], ...], g: int, width: int) -> int:
    """One integer holding the weight at i*g in the little-endian byte slot
    i of ``width`` bytes (Kronecker substitution)."""
    slots = [0] * (weights[-1][0] // g + 1)
    for v, w in weights:
        slots[v // g] = w
    return int.from_bytes(
        b"".join(w.to_bytes(width, "little") for w in slots), "little"
    )


def _unpack(packed: int, g: int, width: int, den: int) -> Pmf:
    """The pmf whose weight over ``den`` at i*g is slot i of ``packed``."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    weights = []
    for i in range(0, len(raw), width):
        w = int.from_bytes(raw[i:i + width], "little")
        if w:
            weights.append((i // width * g, w))
    return Pmf(tuple(weights), den)


def _check_field(G: GroupSpec, q: int) -> None:
    if len(prime_factors(q)) != 1:
        raise BadField(f"q = {q} is not a prime power")
    if (q - 1) % G.exponent:
        raise BadField(f"q = {q} is not 1 mod exp(G) = {G.exponent}")


def point_denominator(G: GroupSpec, q: int) -> int:
    return G.size * (q + G.size - 1)


def single_point_law(G: GroupSpec, q: int) -> Pmf:
    """The law of the number of points above one x in the large-degree limit."""
    _check_field(G, q)
    size = G.size
    weights = {size: q}
    for s in divisors(G.exponent)[1:]:
        weights[size // s] = weights.get(size // s, 0) + s * phi_G(G, s)
    denom = point_denominator(G, q)
    weights[0] = denom - sum(weights.values())
    g = gcd(denom, *weights.values())
    return Pmf(tuple(sorted((v, w // g) for v, w in weights.items() if w)), denom // g)


def total_law(G: GroupSpec, q: int) -> Pmf:
    """Exact (q+1)-fold convolution of single_point_law."""
    return single_point_law(G, q).convolve_power(q + 1)


def pattern_probability(G: GroupSpec, q: int, multiplicities: Mapping) -> Fraction:
    """Limiting probability that the value patterns at q+1 fixed points
    realize a prescribed multiplicity of admissibility classes.

    Keys of ``multiplicities`` are class representatives (the zero vector for
    the unramified class); values must be non-negative and sum to q+1.  The
    per-class coefficient is e(beta)*phi(e(beta)), the number of (member,
    surviving-value) choices, which equals phi(e(beta)^2) identically.
    """
    _check_field(G, q)
    classes = {c.representative: c for c in beta_classes(G)}
    m = {}
    for key, mult in multiplicities.items():
        rep = tuple(key)
        if rep not in classes or not isinstance(mult, int) or mult < 0:
            raise BadMultiplicity(f"bad class/multiplicity {key!r}: {mult}")
        m[rep] = mult
    if sum(m.values()) != q + 1:
        raise BadMultiplicity(f"multiplicities sum to {sum(m.values())}, not q+1")
    zero = (0,) * G.n
    num = 1
    for rep, mult in m.items():
        if rep == zero:
            coeff = q
        else:
            e = classes[rep].e
            coeff = e * euler_phi(e)
            if coeff != euler_phi(e * e):
                raise InternalInconsistency(
                    f"e*phi(e) != phi(e^2) for e = {e}"
                )
        num *= coeff**mult
    return Fraction(num, point_denominator(G, q) ** (q + 1))


# -- Euler product and size asymptotics ---------------------------------

# Fractional bits of the fixed-point Euler-product interval.
_BITS = 192


def _power_interval(num: int, den: int, e: int) -> tuple[int, int]:
    """Fixed-point [lo, hi] around (num/den)**e by repeated squaring, every
    product rounded down for lo and up for hi.  The exact base is rounded only
    when it first enters a product: once alone and once squared."""
    lo = hi = 1 << _BITS
    if e & 1:
        lo, hi = (num << _BITS) // den, -((-num << _BITS) // den)
    b_lo = (num * num << _BITS) // (den * den)
    b_hi = -((-num * num << _BITS) // (den * den))
    e >>= 1
    while e:
        if e & 1:
            lo, hi = lo * b_lo >> _BITS, -(-hi * b_hi >> _BITS)
        b_lo, b_hi = b_lo * b_lo >> _BITS, -(-b_hi * b_hi >> _BITS)
        e >>= 1
    return lo, hi


def euler_L(q: int, n: int, truncation_degree: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational interval [lo, hi] for
    L_n = prod_{j<=n} prod_P (1 - j / ((|P|-1)(|P|+j))).

    The partial product over deg(P) <= D is exact; the tail over deg(P) > D is
    bounded below via prod(1-x_i) >= 1 - sum x_i with pi_q(m) <= q^m and
    (q^m-1)^2 >= q^(2m)/4.
    """
    if n == 0:
        return Fraction(1), Fraction(1)

    # The exact partial product has astronomically long numerators, so the
    # interval is kept with directed rounding in _BITS-bit fixed point.
    partial_lo = partial_hi = 1 << _BITS
    for m in range(1, truncation_degree + 1):
        size = q**m
        pi = count_irreducibles(q, m)
        for j in range(1, n + 1):
            den = (size - 1) * (size + j)
            f_lo, f_hi = _power_interval(den - j, den, pi)
            partial_lo = partial_lo * f_lo >> _BITS
            partial_hi = -(-partial_hi * f_hi >> _BITS)
    tail = Fraction(2 * n * (n + 1), q**truncation_degree * (q - 1))
    lo = Fraction(partial_lo, 1 << _BITS) * (1 - tail) if tail < 1 else Fraction(0)
    return lo, Fraction(partial_hi, 1 << _BITS)


def zeta_q(q: int, s: int = 2) -> Fraction:
    """Zeta function of F_q[X]: prod_P (1 - |P|^-s)^-1 = 1/(1 - q^(1-s))."""
    return 1 / (1 - Fraction(q) ** (1 - s))


def size_main_term(
    G: GroupSpec, q: int, sum_degrees: int, truncation_degree: int = 8
) -> tuple[Fraction, Fraction]:
    """Interval for the predicted |space|:
    (q-1)^n (q+|G|-1)/q * L_{|G|-2} q^(sum d) / zeta_q(2)^(|G|-1)."""
    _check_field(G, q)
    lo, hi = euler_L(q, G.size - 2, truncation_degree)
    front = (
        Fraction((q - 1) ** G.n * (q + G.size - 1), q)
        * Fraction(q) ** sum_degrees
        / zeta_q(q, 2) ** (G.size - 1)
    )
    return front * lo, front * hi


# -- empirical comparison ------------------------------------------------

@dataclass
class ComparisonReport:
    draws: int
    tv: Fraction
    tv_float: float
    residuals: dict[int, Fraction]  # empirical - theoretical per value

    def csv_rows(self, theoretical: Pmf, empirical: Mapping[int, int]):
        values = sorted(set(theoretical.support) | set(empirical))
        probs = theoretical.as_dict()
        rows = []
        for v in values:
            emp = Fraction(empirical.get(v, 0), self.draws)
            th = probs.get(v, Fraction(0))
            rows.append(
                (v, emp.numerator, emp.denominator, th.numerator, th.denominator)
            )
        return rows


def compare(empirical: Mapping[int, int], theoretical: Pmf) -> ComparisonReport:
    """Total-variation distance and per-value residuals between an empirical
    histogram (integer counts) and an exact Pmf."""
    draws = sum(empirical.values())
    if draws == 0:
        raise EmptyHistogram("empirical histogram has no mass")
    # count/draws - weight/den over the common denominator draws*den
    den, weights = theoretical.den, dict(theoretical.weights)
    diffs = {
        v: empirical.get(v, 0) * den - weights.get(v, 0) * draws
        for v in sorted(weights.keys() | empirical.keys())
    }
    scale = draws * den
    tv = Fraction(sum(map(abs, diffs.values())), 2 * scale)
    residuals = {v: Fraction(x, scale) for v, x in diffs.items()}
    return ComparisonReport(draws, tv, float(tv), residuals)
