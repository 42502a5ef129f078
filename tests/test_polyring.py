"""Tests for dense polynomial arithmetic and constrained enumeration."""

import itertools
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcover.errors import FieldMismatch, ZeroPolynomial
from abelcover import polyring
from abelcover.field import make_field
from abelcover.numtheory import count_irreducibles
from abelcover.polyring import (
    Polynomial,
    count_coprime_tuples,
    count_squarefree,
    enumerate_coprime_tuples,
    enumerate_monic,
    enumerate_squarefree,
    is_irreducible,
    is_squarefree,
    poly_gcd,
)


@pytest.fixture(scope="module")
def f5():
    return make_field(5)


@pytest.fixture(scope="module")
def f4():
    return make_field(2, 2)


def rand_poly(ctx, data, max_deg=5):
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=ctx.q - 1),
            min_size=0,
            max_size=max_deg + 1,
        )
    )
    return Polynomial(ctx, coeffs)


# Prime fields and the Zech-log extensions F_4 and F_9.
GCD_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}


def test_trailing_zeros_stripped(f5):
    assert Polynomial(f5, [1, 2, 0, 0]) == Polynomial(f5, [1, 2])
    assert Polynomial(f5, [0, 0]).is_zero
    assert Polynomial(f5, []).degree == -1


def test_constructors(f5):
    assert Polynomial.one(f5).degree == 0
    assert Polynomial.x_minus(f5, 2).evaluate(2) == 0
    assert Polynomial.x_minus(f5, 2).evaluate(3) == 1
    assert Polynomial.constant(f5, 0).is_zero


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(GCD_FIELDS)), st.data())
def test_division_algorithm(q, data):
    """divmod, and so poly_gcd's division, against the definition of
    division: quo * g + rem == f with deg rem < deg g."""
    ctx = make_field(*GCD_FIELDS[q])
    f = rand_poly(ctx, data)
    g = rand_poly(ctx, data)
    if g.is_zero:
        with pytest.raises(ZeroPolynomial):
            divmod(f, g)
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree < g.degree or rem.is_zero


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluation_is_ring_homomorphism(f5, data):
    f = rand_poly(f5, data)
    g = rand_poly(f5, data)
    for x in range(f5.q):
        assert (f * g).evaluate(x) == f5.mul(f.evaluate(x), g.evaluate(x))
        assert (f + g).evaluate(x) == f5.add(f.evaluate(x), g.evaluate(x))


def test_mixed_fields_rejected(f5, f4):
    with pytest.raises(FieldMismatch):
        Polynomial(f5, [1, 1]) + Polynomial(f4, [1, 1])


def test_derivative_product_rule(f5):
    f = Polynomial(f5, [1, 2, 3])
    g = Polynomial(f5, [4, 0, 1, 1])
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


def test_gcd_and_squarefree(f5):
    f = Polynomial.x_minus(f5, 1)
    g = Polynomial.x_minus(f5, 2)
    assert poly_gcd(f * f * g, f * g) == f * g
    assert is_squarefree(f * g)
    assert not is_squarefree(f * f * g)


def literal_gcd(f, g):
    """Euclid through Polynomial.__mod__, the gcd as first written."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(GCD_FIELDS)), st.data())
def test_gcd_matches_literal_euclid(q, data):
    """poly_gcd on coefficient lists equals Euclid on Polynomials, with a
    common factor h planted so that the gcd is often nontrivial."""
    ctx = make_field(*GCD_FIELDS[q])
    h = rand_poly(ctx, data, max_deg=3)
    f = rand_poly(ctx, data, max_deg=4) * h
    g = rand_poly(ctx, data, max_deg=4) * h
    assert poly_gcd(f, g) == literal_gcd(f, g)
    assert poly_gcd(g, f) == literal_gcd(g, f)
    if not f.is_zero:
        d = f.derivative()
        expected = f.degree < 1 or (not d.is_zero and literal_gcd(f, d).degree == 0)
        assert is_squarefree(f) == expected


def plain_gcd(ctx, a, b):
    """Monic gcd of coefficient lists by Euclid with scalar add and mul, one
    call per coefficient, down to a zero remainder."""
    while b:
        rem, db = list(a), len(b) - 1
        scale = ctx.neg(ctx.inv(b[-1]))
        for i in range(len(rem) - 1, db - 1, -1):
            factor = ctx.mul(rem.pop(), scale)
            for j in range(db):
                rem[i - db + j] = ctx.add(rem[i - db + j], ctx.mul(factor, b[j]))
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    if not a:
        return ()
    inv = ctx.inv(a[-1])
    return tuple(ctx.mul(c, inv) for c in a)


# Zero and constant operands, against everything else.
GCD_EDGES = [(), (1,), (3,), (0, 1), (2, 0, 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GCD_FIELDS)), st.data())
def test_gcd_matches_plain_euclid(q, data):
    """poly_gcd (FieldCtx.divide, stopping at a constant remainder) against
    plain_gcd, with a planted common factor and zero and constant operands."""
    ctx = make_field(*GCD_FIELDS[q])
    h = rand_poly(ctx, data, max_deg=3)
    f = rand_poly(ctx, data, max_deg=4) * h
    g = rand_poly(ctx, data, max_deg=4) * h
    edge = Polynomial(ctx, [c % q for c in data.draw(st.sampled_from(GCD_EDGES))])
    for a, b in [(f, g), (g, f), (f, edge), (edge, f), (edge, edge)]:
        assert poly_gcd(a, b).coeffs == plain_gcd(ctx, a.coeffs, b.coeffs)


def test_squarefree_in_characteristic_p():
    # x^2 + 1 = (x+1)^2 over F_2: the derivative vanishes identically.
    f2 = make_field(2)
    assert not is_squarefree(Polynomial(f2, [1, 0, 1]))


def test_irreducibility(f5):
    assert is_irreducible(Polynomial(f5, [2, 0, 1]))  # x^2+2 has no root mod 5
    assert not is_irreducible(Polynomial(f5, [1, 0, 1]))  # (x-2)(x-3)
    assert not is_irreducible(Polynomial.one(f5))


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (5, 2)])
def test_enumerations_are_complete(q, d):
    ctx = make_field(q)
    monic = list(enumerate_monic(ctx, d))
    assert len(monic) == q**d
    assert len(set(monic)) == q**d
    assert all(f.is_monic and f.degree == d for f in monic)
    sf = list(enumerate_squarefree(ctx, d))
    assert sf == [f for f in monic if is_squarefree(f)]
    assert len(sf) == count_squarefree(ctx, d)


def test_coprime_tuples_small():
    ctx = make_field(3)
    degrees = {(1, 0): 1, (0, 1): 1}
    tuples = list(enumerate_coprime_tuples(ctx, degrees))
    # deg-1 monic pairs chosen from 3 polynomials, distinct roots: 3*2.
    assert len(tuples) == 6
    for t in tuples:
        f, g = t[(1, 0)], t[(0, 1)]
        assert poly_gcd(f, g).degree == 0


def test_coprime_tuples_pairwise_property():
    ctx = make_field(5)
    degrees = {(1,): 2, (2,): 1}
    for t in enumerate_coprime_tuples(ctx, degrees):
        polys = list(t.values())
        assert all(is_squarefree(f) for f in polys)
        for f, g in itertools.combinations(polys, 2):
            assert poly_gcd(f, g).degree == 0


def test_degree_zero_slots_are_constant_one():
    ctx = make_field(3)
    tuples = list(enumerate_coprime_tuples(ctx, {(1,): 0}))
    assert len(tuples) == 1
    assert tuples[0][(1,)] == Polynomial.one(ctx)


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_count_single_coordinate_is_count_squarefree(p, k):
    ctx = make_field(p, k)
    for d in range(31):
        assert count_coprime_tuples(ctx.q, [d]) == count_squarefree(ctx, d)


@pytest.mark.parametrize("p,k", FIELDS)
def test_count_recursion_matches_the_squarefree_closed_form(p, k):
    """The Euler-product recursion, which count_coprime_tuples skips for one
    positive degree, against |F_d| = q^d - q^(d-1) (q for d = 1)."""
    q = p**k
    for d in range(1, 31):
        assert polyring._count_from(q, 1, (d,)) == (q if d == 1 else q**d - q ** (d - 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 13])
def test_count_linear_coordinates_is_falling_factorial(q):
    """k coprime monic linears are k distinct roots in order: q!/(q-k)!."""
    for k in range(q + 3):
        assert count_coprime_tuples(q, [1] * k) == perm(q, k)


@pytest.mark.parametrize(
    "degrees",
    [[1, 1], [2, 2], [2, 1, 0], [1, 1, 1], [3, 2], [2, 2, 1], [1, 1, 2, 2], [4, 0, 0]],
)
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_count_matches_enumeration(p, k, degrees):
    ctx = make_field(p, k)
    enumerated = sum(1 for _ in enumerate_coprime_tuples(ctx, dict(enumerate(degrees))))
    assert count_coprime_tuples(ctx.q, degrees) == enumerated


# Largest degree per field whose gcd filter runs in under a second.
SIEVE_DEGREES = {
    (2, 1): 13, (3, 1): 8, (2, 2): 7, (5, 1): 6, (7, 1): 5, (2, 3): 4, (3, 2): 4
}


def gcd_filtered(ctx, d):
    return [f for f in enumerate_monic(ctx, d) if is_squarefree(f)]


@pytest.mark.parametrize("p,k", sorted(SIEVE_DEGREES))
def test_squarefree_sieve_matches_gcd_filter(p, k):
    ctx = make_field(p, k)
    for d in range(SIEVE_DEGREES[p, k] + 1):
        assert list(enumerate_squarefree(ctx, d)) == gcd_filtered(ctx, d), d


@pytest.mark.parametrize(
    "p,k,top",
    [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 4), (7, 1, 3), (2, 3, 3), (3, 2, 3)],
)
def test_sieved_irreducibles_are_the_irreducibles(p, k, top):
    ctx = make_field(p, k)
    found = {}
    for m in range(1, top + 1):
        irreducibles = polyring._irreducibles(ctx, m, found)
        assert len(irreducibles) == count_irreducibles(ctx.q, m)
        assert all(f.is_monic and f.degree == m for f in irreducibles)
        assert all(is_irreducible(f) for f in irreducibles)


# Fields of the coprime-tuple property, with a cap on q^(sum of degrees).
PROPERTY_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@st.composite
def field_and_degrees(draw):
    p, k = draw(st.sampled_from(PROPERTY_FIELDS))
    q, room, degrees = p**k, 3000, {}
    for key in draw(st.permutations("abc"))[: draw(st.integers(2, 3))]:
        top = 0
        while q ** (top + 1) <= room and top < 4:
            top += 1
        degrees[key] = draw(st.integers(0, top))
        room //= q ** degrees[key]
    return p, k, degrees


@settings(max_examples=40, deadline=None)
@given(field_and_degrees())
def test_coprime_tuples_match_brute_force(case):
    """The walk is the product of the gcd-filtered candidates in sorted-key
    order, cut to the pairwise coprime tuples, and has the counted size.
    A constructor sees each coordinate's degree and base-q code."""
    p, k, degrees = case
    ctx = make_field(p, k)
    keys = sorted(degrees)
    brute = [
        dict(zip(keys, t))
        for t in itertools.product(*(gcd_filtered(ctx, degrees[key]) for key in keys))
        if all(poly_gcd(f, g).degree == 0 for f, g in itertools.combinations(t, 2))
    ]
    assert list(enumerate_coprime_tuples(ctx, degrees)) == brute
    assert len(brute) == count_coprime_tuples(ctx.q, degrees.values())
    codes = [
        {
            key: (f.degree, sum(a * ctx.q**i for i, a in enumerate(f.coeffs[:-1])))
            for key, f in t.items()
        }
        for t in brute
    ]
    assert list(enumerate_coprime_tuples(ctx, degrees, lambda d, c: (d, c))) == codes


def reference_squarefree_flags(ctx, d):
    """The flags sieved only by _multiples: cleared on the multiples of P^2
    for every monic irreducible P with 2 deg P <= d.  The literal reference
    for _squarefree_flags."""
    found, flags = {}, bytearray(b"\x01") * ctx.q**d
    for m in range(1, d // 2 + 1):
        for P in polyring._irreducibles(ctx, m, found):
            for code in polyring._multiples(ctx, d, P * P):
                flags[code] = 0
    return flags


@pytest.mark.parametrize(
    "p,k",
    [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)],
)
def test_squarefree_flags_match_the_multiples_reference(p, k):
    """Byte equality with the P^2 sieve on every field with q <= 16, for
    every d with q^(d+1) <= 2*10^5."""
    ctx = make_field(p, k)
    q, d = ctx.q, 0
    while q ** (d + 1) <= 2 * 10**5:
        flags = polyring._squarefree_flags(ctx, d)
        assert isinstance(flags, bytearray) and flags == reference_squarefree_flags(ctx, d), d
        d += 1


@pytest.mark.parametrize(
    "p,k,top", [(2, 1, 6), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 1)]
)
def test_factor_masks_match_gcd(p, k, top):
    """Over every pair of squarefree codes of degree <= top + 1 whose common
    factors have degree <= top, disjoint factor masks are exactly the
    coprime pairs."""
    ctx = make_field(p, k)
    masks = polyring._factor_masks(ctx, range(1, top + 2), top)
    codes = [
        (f, masks[d][code])
        for d in range(1, top + 2)
        for code, f in enumerate(enumerate_monic(ctx, d))
        if is_squarefree(f)
    ]
    for (f, mf), (g, mg) in itertools.product(codes, repeat=2):
        if min(f.degree, g.degree) <= top:
            assert (not mf & mg) == (poly_gcd(f, g).degree == 0), (f, g)
