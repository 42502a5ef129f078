"""Tests for the index-pair combinatorics of divisor-chain groups."""

import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcover.counting import count_points
from abelcover.errors import BadDivisor, InternalInconsistency
from abelcover.field import CharValue, make_field
from abelcover.groupcomb import (
    GroupSpec,
    IndexPair,
    a_beta,
    beta_classes,
    check_admissible_decomposition,
    class_of,
    divisors,
    enumerate_index_pairs,
    euler_phi,
    phi_G,
    ram_exponent,
)
from abelcover.moduli import normalize_degrees, sample_space

CHAINS = [
    (2,),
    (3,),
    (4,),
    (6,),
    (8,),
    (12,),
    (16,),
    (2, 2),
    (2, 4),
    (2, 6),
    (2, 8),
    (3, 3),
    (4, 4),
    (2, 2, 2),
    (2, 2, 4),
    (2, 2, 2, 2),
]


def test_chain_condition_enforced():
    with pytest.raises(BadDivisor):
        GroupSpec((4, 2))
    with pytest.raises(BadDivisor):
        GroupSpec((2, 3))
    with pytest.raises(BadDivisor):
        GroupSpec((1, 2))
    with pytest.raises(BadDivisor):
        GroupSpec(())


@pytest.mark.parametrize("r", [(2.0,), (2, 4.0), ("2",), (2, True), (2, None)])
def test_cycle_orders_must_be_ints(r):
    message = re.escape(f"invalid cycle structure {r}")
    with pytest.raises(BadDivisor, match=f"^{message}$"):
        GroupSpec(r)


def test_group_basic_attributes():
    G = GroupSpec((2, 4))
    assert G.size == 8
    assert G.exponent == 4
    assert len(list(G.nonzero_vectors())) == 7
    assert len(list(G.all_vectors())) == 8


def test_euler_phi_and_divisors():
    assert [euler_phi(n) for n in (1, 2, 6, 12)] == [1, 1, 2, 4]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_ram_exponent_examples():
    G = GroupSpec((2, 4))
    assert ram_exponent(G, (0, 0)) == 1
    assert ram_exponent(G, (1, 0)) == 2
    assert ram_exponent(G, (0, 1)) == 4
    assert ram_exponent(G, (1, 2)) == 2
    assert ram_exponent(G, (0, 2)) == 2


@pytest.mark.parametrize("r", CHAINS)
def test_index_pairs_biject_with_group(r):
    G = GroupSpec(r)
    pairs = enumerate_index_pairs(G)
    assert len(pairs) == G.size
    assert len(set(pairs)) == G.size
    shifted = {p.shifted(G) for p in pairs}
    assert len(shifted) == G.size
    for t in shifted:
        assert all(1 <= tj <= rj for tj, rj in zip(t, G.r))


@pytest.mark.parametrize("r", CHAINS)
def test_a_beta_size_is_group_order_over_e(r):
    G = GroupSpec(r)
    for beta in G.all_vectors():
        e = ram_exponent(G, beta)
        assert len(a_beta(G, beta)) * e == G.size


@pytest.mark.parametrize("r", CHAINS)
def test_class_sizes_and_partition(r):
    G = GroupSpec(r)
    classes = beta_classes(G)
    seen = set()
    for cls in classes:
        assert len(cls.members) == euler_phi(cls.e)
        assert cls.representative in cls.members
        seen.update(cls.members)
    assert seen == set(G.all_vectors())


@pytest.mark.parametrize("r", CHAINS)
def test_phi_g_counts_element_orders(r):
    G = GroupSpec(r)
    from_classes = {}
    for beta in G.nonzero_vectors():
        e = ram_exponent(G, beta)
        from_classes[e] = from_classes.get(e, 0) + 1
    for s in divisors(G.exponent):
        if s == 1:
            continue
        assert phi_G(G, s) == from_classes.get(s, 0)


@pytest.mark.parametrize("r", CHAINS)
def test_order_sum_identity(r):
    """sum over s of s*phi_G(s), minus the identity, equals the sum of the
    ramification exponents over the nonzero index vectors."""
    G = GroupSpec(r)
    lhs = sum(s * phi_G(G, s) for s in divisors(G.exponent)) - 1
    rhs = sum(ram_exponent(G, beta) for beta in G.nonzero_vectors())
    assert lhs == rhs


def test_class_of_matches_orbit():
    G = GroupSpec((4,))
    assert class_of(G, (1,)).members == class_of(G, (3,)).members
    assert class_of(G, (2,)).e == 2
    assert class_of(G, (0,)).e == 1


def test_trivial_pair_is_identified():
    G = GroupSpec((2, 2))
    pairs = enumerate_index_pairs(G)
    assert sum(1 for p in pairs if p.is_trivial) == 1


def _all_ones_pattern(G):
    return {p: CharValue.root(p.ell, 0) for p in enumerate_index_pairs(G)}


@pytest.mark.parametrize("r", [(2,), (4,), (2, 2), (2, 4)])
def test_admissibility_accepts_all_ones(r):
    G = GroupSpec(r)
    assert check_admissible_decomposition(G, _all_ones_pattern(G))


def test_admissibility_rejects_bad_zero_support():
    G = GroupSpec((2, 2))
    pattern = _all_ones_pattern(G)
    # A single zero can never be the complement of an A_beta subgroup here.
    victim = next(p for p in pattern if not p.is_trivial)
    pattern[victim] = CharValue.zero(victim.ell)
    assert not check_admissible_decomposition(G, pattern)


def test_admissibility_rejects_nontrivial_value_on_trivial_pair():
    G = GroupSpec((4,))
    pattern = _all_ones_pattern(G)
    trivial = next(p for p in pattern if p.is_trivial)
    pattern[trivial] = CharValue.zero(1)
    assert not check_admissible_decomposition(G, pattern)


def test_admissibility_rejects_broken_generator_identity():
    G = GroupSpec((4,))
    pattern = _all_ones_pattern(G)
    # Flip the order-2 value while the order-4 generator value stays 1:
    # the square of the generator value no longer matches.
    half = next(p for p in pattern if p.ell == 2 and not p.is_trivial)
    pattern[half] = CharValue.root(2, 1)
    assert not check_admissible_decomposition(G, pattern)


def _cover_patterns(p, k, r, degrees, draws):
    """The patterns at every point of P^1(F_q), infinity included, of draws
    sampled covers of a space."""
    ctx, G = make_field(p, k), GroupSpec(r)
    dv = normalize_degrees(G, degrees)
    for cover in sample_space(ctx, G, dv, draws, seed=0):
        yield from count_points(ctx, G, cover).points


@pytest.mark.parametrize(
    "p,k,r,degrees",
    [
        (5, 1, (2,), {(1,): 4}),
        (7, 1, (6,), {(1,): 1, (5,): 1}),
        (5, 1, (2, 2), {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
        (3, 2, (4,), {(1,): 1, (3,): 1}),
        (7, 1, (6,), {(1,): 1, (2,): 1, (3,): 1}),
    ],
)
def test_admissibility_accepts_every_point_of_real_covers(p, k, r, degrees):
    """Ramified points and infinity too: patterns with zeros are admissible."""
    G, ramified = GroupSpec(r), set()
    for ev in _cover_patterns(p, k, r, degrees, 30):
        assert check_admissible_decomposition(G, ev.pattern)
        if any(ev.beta):
            ramified.add(ev.x == "inf")
    assert ramified == {False, True}  # finite and infinite branch points


def test_admissibility_rejects_a_missing_pair():
    G = GroupSpec((2, 2))
    pattern = _all_ones_pattern(G)
    del pattern[next(p for p in pattern if not p.is_trivial)]
    assert not check_admissible_decomposition(G, pattern)


def test_admissibility_rejects_a_value_of_the_wrong_order():
    G = GroupSpec((4,))
    pattern = _all_ones_pattern(G)
    quartic = next(p for p in pattern if p.ell == 4)
    pattern[quartic] = CharValue.root(2, 0)
    assert not check_admissible_decomposition(G, pattern)


def test_admissibility_rejects_a_shifted_order_six_value():
    """On Z/6 a value of order 6 is fixed by its order-2 and order-3 parts:
    shifting it at an unramified point of a real cover over F_7 is refused."""
    G = GroupSpec((6,))
    ev = next(
        ev
        for ev in _cover_patterns(7, 1, (6,), {(1,): 1, (5,): 1}, 5)
        if ev.x != "inf" and not any(ev.beta)
    )
    sextic = next(p for p in ev.pattern if p.ell == 6)
    pattern = dict(ev.pattern)
    assert check_admissible_decomposition(G, pattern)
    pattern[sextic] = CharValue.root(6, (pattern[sextic].exponent + 1) % 6)
    assert not check_admissible_decomposition(G, pattern)


@pytest.mark.parametrize("r", [(2,), (3,), (4,), (2, 2), (6,)])
def test_admissibility_accepts_one_pattern_per_beta_class_and_class_a(r):
    """Over every pattern with reduced exponents, the accepted ones are the
    |G|/e(beta) restrictions of the characters to A_beta, per beta-class."""
    G = GroupSpec(r)
    pairs = enumerate_index_pairs(G)
    values = [
        [CharValue.zero(p.ell)] + [CharValue.root(p.ell, e) for e in range(p.ell)]
        for p in pairs
    ]
    accepted = sum(
        check_admissible_decomposition(G, dict(zip(pairs, vals)))
        for vals in itertools.product(*values)
    )
    assert accepted == sum(G.size // c.e for c in beta_classes(G))


def test_admissibility_rejects_unrelated_values_at_a_branch_point():
    """Z/6 at a root of f_3: A_3 holds the trivial pair and the two order-3
    pairs, whose values are zeta_3^a and zeta_3^(2a) for one class a."""
    G = GroupSpec((6,))
    pattern = {p: CharValue.zero(p.ell) for p in enumerate_index_pairs(G)}
    pattern[IndexPair((1,), (1,))] = CharValue.root(1, 0)
    pattern[IndexPair((3,), (1,))] = CharValue.root(3, 1)
    pattern[IndexPair((3,), (2,))] = CharValue.root(3, 2)
    assert check_admissible_decomposition(G, pattern)
    pattern[IndexPair((3,), (2,))] = CharValue.root(3, 1)
    assert not check_admissible_decomposition(G, pattern)


@pytest.mark.parametrize("r", [(2,), (4,), (6,), (2, 2)])
def test_admissibility_rejects_unreduced_exponents(r):
    G = GroupSpec(r)
    for pair in enumerate_index_pairs(G):
        for exponent in (pair.ell, pair.ell + 1, -1):
            pattern = _all_ones_pattern(G)
            pattern[pair] = CharValue(pair.ell, exponent)
            assert not check_admissible_decomposition(G, pattern)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CHAINS), st.data())
def test_scaling_preserves_class(r, data):
    G = GroupSpec(r)
    beta = data.draw(st.sampled_from(list(G.all_vectors())))
    e = ram_exponent(G, beta)
    m = data.draw(
        st.sampled_from([m for m in range(1, e + 1) if math.gcd(m, e) == 1])
    )
    scaled = G.scale(m, beta)
    assert class_of(G, scaled) is class_of(G, beta)
