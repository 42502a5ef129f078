"""Tests for the limiting laws and exact rational comparisons."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcover.distribution import (
    Pmf,
    compare,
    count_irreducibles,
    euler_L,
    pattern_probability,
    point_denominator,
    single_point_law,
    size_main_term,
    total_law,
    zeta_q,
)
from abelcover.errors import (
    BadField,
    BadMultiplicity,
    EmptyHistogram,
    InternalInconsistency,
)
from abelcover.groupcomb import GroupSpec

F = Fraction

# every divisor chain (r_1 | r_2 | ...) with product at most 8
CHAINS_TO_8 = [
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2),
]


def _fraction_convolve(a, b):
    """Reference convolution in plain Fraction arithmetic."""
    out = {}
    for v, p in a.items():
        for w, q in b.items():
            out[v + w] = out.get(v + w, F(0)) + p * q
    return {v: p for v, p in out.items() if p}


def _fraction_euler_L(q, n, truncation_degree):
    """Reference Euler-product interval with Fraction directed rounding."""
    if n == 0:
        return F(1), F(1)
    scale = 1 << 192

    def down(x):
        return F(x.numerator * scale // x.denominator, scale)

    def up(x):
        return F(-((-x.numerator * scale) // x.denominator), scale)

    def power(base, e):
        lo, hi = F(1), F(1)
        b_lo, b_hi = base, base
        while e:
            if e & 1:
                lo, hi = down(lo * b_lo), up(hi * b_hi)
            b_lo, b_hi = down(b_lo * b_lo), up(b_hi * b_hi)
            e >>= 1
        return lo, hi

    partial_lo, partial_hi = F(1), F(1)
    for m in range(1, truncation_degree + 1):
        size = q**m
        pi = count_irreducibles(q, m)
        for j in range(1, n + 1):
            f_lo, f_hi = power(1 - F(j, (size - 1) * (size + j)), pi)
            partial_lo = down(partial_lo * f_lo)
            partial_hi = up(partial_hi * f_hi)
    tail = F(2 * n * (n + 1), q**truncation_degree * (q - 1))
    lo = partial_lo * (1 - tail) if tail < 1 else F(0)
    return lo, partial_hi


def test_hyperelliptic_single_point_law():
    law = single_point_law(GroupSpec((2,)), 5)
    assert law.as_dict() == {0: F(5, 12), 1: F(1, 6), 2: F(5, 12)}


def test_cubic_single_point_law():
    # G of order 3, q = 7: denominator 3*(7+2) = 27; two order-3 elements
    # give P(1) = 6/27, P(3) = 7/27, and the rest is P(0) = 14/27.
    law = single_point_law(GroupSpec((3,)), 7)
    assert law.as_dict() == {0: F(14, 27), 1: F(2, 9), 3: F(7, 27)}


def test_klein_single_point_law():
    # G = Z/2 x Z/2, q = 5: three involutions, denominator 4*8 = 32.
    law = single_point_law(GroupSpec((2, 2)), 5)
    assert law.as_dict() == {0: F(21, 32), 2: F(3, 16), 4: F(5, 32)}


def test_field_congruence_required():
    with pytest.raises(BadField):
        single_point_law(GroupSpec((3,)), 5)


@pytest.mark.parametrize("q", [1, 15, 21, 45])
@pytest.mark.parametrize(
    "law",
    [
        single_point_law,
        total_law,
        lambda G, q: pattern_probability(G, q, {(0,): q + 1}),
        lambda G, q: size_main_term(G, q, 4),
    ],
)
def test_q_must_be_a_prime_power(law, q):
    # 15, 21 and 45 are 1 mod 2 but no field has that many elements.
    with pytest.raises(BadField, match="not a prime power"):
        law(GroupSpec((2,)), q)


@pytest.mark.parametrize("r", [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3)])
@pytest.mark.parametrize("q", [7, 13, 25, 49])
def test_single_point_mean_is_one(r, q):
    G = GroupSpec(r)
    if (q - 1) % G.exponent:
        pytest.skip("q does not admit the characters")
    assert single_point_law(G, q).mean() == 1


def test_total_law_mean_and_support():
    G = GroupSpec((2,))
    law = total_law(G, 5)
    assert law.mean() == 6
    assert min(law.support) == 0
    assert max(law.support) == 12


def test_convolve_power_matches_iteration():
    base = Pmf.from_dict({0: F(1, 2), 3: F(1, 2)})
    by_hand = base
    for _ in range(4):
        by_hand = by_hand.convolve(base)
    assert base.convolve_power(5) == by_hand
    assert base.convolve_power(1) == base


@st.composite
def _pmfs(draw):
    """Random pmfs on 0..12: weights over their total reduce to unlike
    denominators."""
    values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
    weights = draw(
        st.lists(st.integers(1, 60), min_size=len(values), max_size=len(values))
    )
    total = sum(weights)
    return Pmf.from_dict({v: F(w, total) for v, w in zip(values, weights)})


@settings(max_examples=60, deadline=None)
@given(_pmfs(), _pmfs(), st.integers(0, 12))
def test_convolve_power_property(a, b, k):
    assert a.convolve(b).as_dict() == _fraction_convolve(a.as_dict(), b.as_dict())
    by_hand = Pmf.from_dict({0: F(1)})
    for _ in range(k):
        by_hand = by_hand.convolve(a)
    assert a.convolve_power(k) == by_hand


@pytest.mark.parametrize("r", CHAINS_TO_8)
def test_total_law_matches_iterated_convolution(r):
    G = GroupSpec(r)
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        if (q - 1) % G.exponent:
            continue
        single = single_point_law(G, q).as_dict()
        slow = {0: F(1)}
        for _ in range(q + 1):
            slow = _fraction_convolve(slow, single)
        assert total_law(G, q).as_dict() == slow
        checked += 1
    assert checked


def _point_weights(r, q):
    """Integer weights of one point's value over D = |G|(q+|G|-1), built
    from the element orders of G = Z/r_1 x ... by brute force: an element of
    order s != 1 puts weight s on |G|/s, and |G| has weight q."""
    size = math.prod(r)
    weights = {size: q}
    for x in itertools.product(*(range(n) for n in r)):
        s = math.lcm(*(n // math.gcd(a, n) for a, n in zip(x, r)))
        if s != 1:
            weights[size // s] = weights.get(size // s, 0) + s
    den = size * (q + size - 1)
    weights[0] = den - sum(weights.values())
    return weights, den


@pytest.mark.parametrize("r, q", [((12,), 49), ((4, 4), 49), ((16,), 17)])
def test_total_law_matches_integer_schoolbook(r, q):
    """The long supports against q+1 schoolbook convolutions of the integer
    weights, with nothing taken from the distribution module."""
    single, den = _point_weights(r, q)
    slow = {0: 1}
    for _ in range(q + 1):
        out = {}
        for v, x in slow.items():
            for w, y in single.items():
                out[v + w] = out.get(v + w, 0) + x * y
        slow = out
    scale = den ** (q + 1)
    expected = {v: F(w, scale) for v, w in slow.items() if w}
    assert total_law(GroupSpec(r), q).as_dict() == expected


def test_convolve_point_masses():
    at_zero = Pmf.from_dict({0: F(1)})  # the support's gcd is 0
    at_five = Pmf.from_dict({5: F(1)})  # the one weight equals the slot bound
    for k in range(4):
        assert at_zero.convolve_power(k) == at_zero
        assert at_five.convolve_power(k).as_dict() == {5 * k: 1}
    assert at_zero.convolve(at_zero) == at_zero
    assert at_five.convolve(at_five).as_dict() == {10: 1}
    assert at_zero.convolve(at_five) == at_five


def test_convolve_support_with_common_divisor():
    law = Pmf.from_dict({0: F(1, 4), 4: F(1, 2), 8: F(1, 4)})
    by_hand = law.as_dict()
    for k in range(2, 5):
        by_hand = _fraction_convolve(by_hand, law.as_dict())
        assert law.convolve_power(k).as_dict() == by_hand
    other = Pmf.from_dict({6: F(1, 3), 12: F(2, 3)})
    assert law.convolve(other).as_dict() == _fraction_convolve(
        law.as_dict(), other.as_dict()
    )


def test_convolve_power_zero_and_one():
    law = Pmf.from_dict({0: F(1, 3), 4: F(1, 6), 7: F(1, 2)})
    assert law.convolve_power(0) == Pmf.from_dict({0: F(1)})
    assert law.convolve_power(1) == law


@pytest.mark.parametrize("q", [3, 5, 17])
def test_euler_L_matches_fraction_rounding(q):
    for n in range(15):
        for degree in range(9):
            assert euler_L(q, n, degree) == _fraction_euler_L(q, n, degree)


def test_pmf_rejects_bad_mass():
    with pytest.raises(InternalInconsistency, match="sum = 5/6$"):
        Pmf.from_dict({0: F(1, 2), 1: F(1, 3)})


def test_pmf_rejects_negative_probability():
    with pytest.raises(InternalInconsistency, match="sum = 1$"):
        Pmf.from_dict({0: F(3, 2), 1: F(-1, 2)})


def test_pattern_probability_all_unramified():
    G = GroupSpec((2,))
    q = 5
    p = pattern_probability(G, q, {(0,): q + 1})
    assert p == F(5, 12) ** 6


def test_pattern_probability_mixed():
    G = GroupSpec((2,))
    q = 5
    p = pattern_probability(G, q, {(0,): q, (1,): 1})
    assert p == F(5, 12) ** 5 * F(1, 6)


def test_pattern_probability_validation():
    G = GroupSpec((2,))
    with pytest.raises(BadMultiplicity):
        pattern_probability(G, 5, {(0,): 3})
    with pytest.raises(BadMultiplicity):
        pattern_probability(G, 5, {(0,): 7, (7,): -1})
    # Multiplicities must be ints: 2.5 + 2.5 is not q+1 = 4 at q = 3.
    with pytest.raises(BadMultiplicity):
        pattern_probability(G, 3, {(0,): 2.5, (1,): 2.5})
    with pytest.raises(BadMultiplicity):
        pattern_probability(G, 3, {(0,): 2.0, (1,): 2})


def test_irreducible_counts():
    # Necklace numbers over F_2 and F_3, frozen from the standard table.
    assert [count_irreducibles(2, m) for m in (1, 2, 3, 4)] == [2, 1, 2, 3]
    assert [count_irreducibles(3, m) for m in (1, 2, 3)] == [3, 3, 8]


def test_zeta_value():
    assert zeta_q(5, 2) == F(5, 4)
    assert zeta_q(7, 2) == F(7, 6)


def test_euler_product_interval():
    lo, hi = euler_L(5, 0, 8)
    assert lo == hi == 1
    lo, hi = euler_L(5, 2, 8)
    assert 0 < lo <= hi < 1
    tight_lo, tight_hi = euler_L(5, 2, 10)
    assert lo <= tight_lo <= tight_hi <= hi


def test_size_main_term_is_exact_for_involutions():
    # Plain component (q-1)(q^d - q^(d-1)) plus the dropped component
    # (q-1)(q^(d-1) - q^(d-2)) collapse to the closed main term.
    q, d = 5, 6
    lo, hi = size_main_term(GroupSpec((2,)), q, d)
    exact = (q - 1) * (q**d - q ** (d - 1)) + (q - 1) * (
        q ** (d - 1) - q ** (d - 2)
    )
    assert lo == hi == exact


def test_compare_tv_and_residuals():
    law = Pmf.from_dict({0: F(1, 2), 1: F(1, 2)})
    report = compare({0: 3, 1: 1}, law)
    assert report.tv == F(1, 4)
    assert report.residuals[0] == F(1, 4)
    assert report.residuals[1] == -F(1, 4)


def test_compare_rejects_empty_histogram():
    law = Pmf.from_dict({0: F(1)})
    with pytest.raises(EmptyHistogram):
        compare({}, law)


def test_comparison_csv_rows():
    law = Pmf.from_dict({0: F(1, 2), 2: F(1, 2)})
    report = compare({0: 1, 1: 1}, law)
    rows = report.csv_rows(law, {0: 1, 1: 1})
    assert rows == [(0, 1, 2, 1, 2), (1, 1, 2, 0, 1), (2, 0, 1, 1, 2)]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2,), (3,), (2, 2), (5,)]),
    st.sampled_from([7, 11, 13, 25, 31, 49]),
)
def test_denominator_divides_all_probabilities(r, q):
    G = GroupSpec(r)
    if (q - 1) % G.exponent:
        return
    law = single_point_law(G, q)
    denom = point_denominator(G, q)
    for _, p in law.probs:
        assert denom % p.denominator == 0
