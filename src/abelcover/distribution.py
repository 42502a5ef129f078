"""The theoretical distribution of point counts and its comparison with
empirical histograms.

Each of the q+1 points of P^1(F_q) contributes an i.i.d. variable taking the
value |G|/s with probability s*phi_G(s) / D for s | exp(G), s != 1, the value
|G| with probability q / D, and 0 with the remaining mass, where
D = |G|(q+|G|-1).  The total-count law is the exact (q+1)-fold convolution,
held as integer weights over D^(q+1): convolution multiplies integer
polynomials and divides by the common denominator once at the end.  A
pattern probability is one integer numerator over D^(q+1), and the
Euler-product interval is kept in integer fixed point.  Fractions are built
only where values leave the API; floats appear only in reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .errors import BadField, BadMultiplicity, EmptyHistogram, InternalInconsistency
from .groupcomb import GroupSpec, beta_classes, phi_G
from .numtheory import divisors, euler_phi, moebius


@dataclass(frozen=True)
class Pmf:
    """Exact probability mass function on non-negative integers."""

    probs: tuple[tuple[int, Fraction], ...]  # sorted (value, probability)

    def __post_init__(self):
        total = sum(p for _, p in self.probs)
        if total != 1 or any(p < 0 for _, p in self.probs):
            raise InternalInconsistency(f"pmf does not normalize: sum = {total}")

    @classmethod
    def from_dict(cls, d: Mapping[int, Fraction]) -> "Pmf":
        return cls(tuple(sorted((v, p) for v, p in d.items() if p != 0)))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.probs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.probs)

    def prob(self, value: int) -> Fraction:
        return dict(self.probs).get(value, Fraction(0))

    def mean(self) -> Fraction:
        return sum((Fraction(v) * p for v, p in self.probs), Fraction(0))

    def convolve(self, other: "Pmf") -> "Pmf":
        a, a_den = _weights(self)
        b, b_den = _weights(other)
        return _from_weights(_poly_mul(a, b), a_den * b_den)

    def convolve_power(self, k: int) -> "Pmf":
        base, den = _weights(self)
        out = {0: 1}
        e = k
        while e:
            if e & 1:
                out = _poly_mul(out, base)
            e >>= 1
            if e:
                base = _poly_mul(base, base)
        return _from_weights(out, den**k)

    def csv_rows(self) -> list[tuple]:
        return [
            (v, p.numerator, p.denominator, float(p)) for v, p in self.probs
        ]

    def to_json(self) -> str:
        return json.dumps(
            {str(v): [p.numerator, p.denominator] for v, p in self.probs}
        )


def _weights(pmf: Pmf) -> tuple[dict[int, int], int]:
    """Integer weights of ``pmf`` over the lcm of its denominators."""
    den = lcm(*(p.denominator for _, p in pmf.probs))
    return {v: p.numerator * (den // p.denominator) for v, p in pmf.probs}, den


def _from_weights(weights: Mapping[int, int], den: int) -> Pmf:
    return Pmf.from_dict({v: Fraction(w, den) for v, w in weights.items()})


def _poly_mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Product of two sparse integer polynomials {exponent: coefficient}."""
    out: dict[int, int] = {}
    for v, x in a.items():
        for w, y in b.items():
            out[v + w] = out.get(v + w, 0) + x * y
    return out


def _check_field(G: GroupSpec, q: int) -> None:
    if q < 2 or (q - 1) % G.exponent:
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
    return _from_weights(weights, denom)


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
        if rep not in classes or mult < 0:
            raise BadMultiplicity(f"bad class/multiplicity {key!r}: {mult}")
        m[rep] = int(mult)
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

def count_irreducibles(q: int, m: int) -> int:
    """Number of monic irreducibles of degree m over F_q (Moebius necklace
    count)."""
    return sum(moebius(d) * q ** (m // d) for d in divisors(m)) // m


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
    stderr: Optional[dict[int, float]] = None  # Monte-Carlo, sampled data only

    def csv_rows(self, theoretical: Pmf, empirical: Mapping[int, int]):
        values = sorted(set(theoretical.support) | set(empirical))
        rows = []
        for v in values:
            emp = Fraction(empirical.get(v, 0), self.draws)
            th = theoretical.prob(v)
            rows.append(
                (v, emp.numerator, emp.denominator, th.numerator, th.denominator)
            )
        return rows


def compare(
    empirical: Mapping[int, int],
    theoretical: Pmf,
    sampled: bool = False,
) -> ComparisonReport:
    """Total-variation distance and per-value residuals between an empirical
    histogram (integer counts) and an exact Pmf."""
    draws = sum(empirical.values())
    if draws == 0:
        raise EmptyHistogram("empirical histogram has no mass")
    values = sorted(set(theoretical.support) | set(empirical))
    residuals = {}
    tv = Fraction(0)
    stderr = {} if sampled else None
    for v in values:
        emp = Fraction(empirical.get(v, 0), draws)
        th = theoretical.prob(v)
        residuals[v] = emp - th
        tv += abs(emp - th)
        if sampled:
            p = float(emp)
            stderr[v] = (p * (1 - p) / draws) ** 0.5
    tv /= 2
    return ComparisonReport(draws, tv, float(tv), residuals, stderr)
