"""Acceptance criteria, one test per criterion.

Each test is the stated check at the stated tolerance; the -v report line
of each test doubles as its pass/fail line.  The heavy full enumerations
(degree 8 over F_5 is 1.5 million covers) are shared through module-scope
fixtures, so this file takes seconds, not minutes.
"""

import time
from fractions import Fraction

import pytest

from abelcover.counting import (
    count_points,
    oracle_count,
    space_count_histogram,
    space_pattern_histogram,
)
from abelcover.distribution import (
    compare,
    point_denominator,
    single_point_law,
    size_main_term,
    total_law,
)
from abelcover.errors import RamifiedPoint
from abelcover.field import make_field
from abelcover.groupcomb import (
    GroupSpec,
    phi_G,
    a_beta,
    beta_classes,
    divisors,
    enumerate_index_pairs,
    euler_phi,
    ram_exponent,
)
from abelcover.moduli import (
    component_sizes,
    enumerate_space,
    genus,
    genus_invariance_check,
    normalize_degrees,
)

F = Fraction

# every divisor-chain (r_1 | r_2 | ...) with product at most 16
SMALL_CHAINS = [
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
    (13,), (14,), (15,), (16,),
    (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4),
    (2, 2, 2), (2, 2, 4), (2, 2, 2, 2),
]

def _prime_powers(bound):
    out = []
    for q in range(2, bound + 1):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        n = q
        while n % p == 0:
            n //= p
        if n == 1:
            out.append(q)
    return out


PRIME_POWERS = _prime_powers(49)

ORACLE_FAMILIES = [
    # (q, chain, degree maps): every space in the stated enumeration ranges
    (5, (2,), [{(1,): 2}, {(1,): 4}, {(1,): 6}]),
    (7, (3,), [{(1,): 1, (2,): 1}, {(1,): 3}, {(2,): 3}, {(1,): 2, (2,): 2}]),
    (
        5,
        (2, 2),
        [
            {(1, 0): 2},
            {(0, 1): 2},
            {(1, 1): 2},
            {(1, 0): 1, (0, 1): 1, (1, 1): 1},
        ],
    ),
]

LADDER = [4, 6, 8]


@pytest.fixture(scope="module")
def f5():
    return make_field(5)


@pytest.fixture(scope="module")
def ladder_histograms(f5):
    """Full-enumeration point-count histograms for G=(2), q=5, d=4,6,8."""
    G = GroupSpec((2,))
    out = {}
    for d in LADDER:
        dv = normalize_degrees(G, {(1,): d})
        out[d] = space_count_histogram(f5, G, dv)
    return out


def test_criterion_1_hyperelliptic_law():
    G = GroupSpec((2,))
    single_point_law(G, 5)  # warm the order caches before timing
    start = time.perf_counter()
    law = single_point_law(G, 5)
    elapsed = time.perf_counter() - start
    assert law.as_dict() == {0: F(5, 12), 1: F(1, 6), 2: F(5, 12)}
    assert elapsed < 0.001


def test_criterion_2_oracle_equivalence():
    checked = 0
    for q, r, degree_maps in ORACLE_FAMILIES:
        ctx = make_field(q)
        G = GroupSpec(r)
        for raw in degree_maps:
            dv = normalize_degrees(G, raw)
            for cover in enumerate_space(ctx, G, dv):
                report = count_points(ctx, G, cover)
                for ev in report.points:
                    if ev.x == "inf":
                        continue
                    try:
                        direct = oracle_count(ctx, G, cover, ev.x)
                    except RamifiedPoint:
                        continue
                    assert direct == ev.count, (q, r, raw, cover, ev.x)
                    checked += 1
    assert checked > 100_000


def test_criterion_3_distribution_convergence(ladder_histograms):
    G = GroupSpec((2,))
    law = total_law(G, 5)
    tvs = []
    for d in LADDER:
        report = compare(ladder_histograms[d], law)
        assert report.tv > 0
        tvs.append(report.tv)
    assert tvs[0] > tvs[1] > tvs[2], [float(t) for t in tvs]


def test_criterion_4_combinatorial_identities():
    for r in SMALL_CHAINS:
        G = GroupSpec(r)
        pairs = enumerate_index_pairs(G)
        assert len(pairs) == G.size
        by_ell = {}
        for p in pairs:
            by_ell[p.ell] = by_ell.get(p.ell, 0) + 1
        assert sum(by_ell.values()) == G.size
        for beta in G.all_vectors():
            assert len(a_beta(G, beta)) * ram_exponent(G, beta) == G.size
        class_members = set()
        for cls in beta_classes(G):
            assert len(cls.members) == euler_phi(cls.e)
            # orbit rule against A_beta equality, member by member
            for m in cls.members:
                assert a_beta(G, m) == a_beta(G, cls.representative)
            class_members.update(cls.members)
        assert class_members == set(G.all_vectors())
        lhs = sum(s * phi_G(G, s) for s in divisors(G.exponent)) - 1
        rhs = sum(ram_exponent(G, b) for b in G.nonzero_vectors())
        assert lhs == rhs


def test_criterion_5_probability_normalization():
    checked = 0
    for r in SMALL_CHAINS:
        G = GroupSpec(r)
        for q in PRIME_POWERS:
            if (q - 1) % G.exponent:
                continue
            # Pmf construction verifies unit mass in exact arithmetic.
            law = single_point_law(G, q)
            total = total_law(G, q)
            assert sum(p for _, p in law.probs) == 1
            assert sum(p for _, p in total.probs) == 1
            checked += 1
    assert checked >= 150


def test_criterion_6_genus_checks():
    G2 = GroupSpec((2,))
    for g in range(11):
        dv = normalize_degrees(G2, {(1,): 2 * g + 2})
        assert genus(G2, dv) == g
    for q, r, degree_maps in ORACLE_FAMILIES:
        G = GroupSpec(r)
        for raw in degree_maps:
            assert genus_invariance_check(G, normalize_degrees(G, raw))


def test_criterion_7_size_asymptotic(f5, ladder_histograms):
    G = GroupSpec((2,))
    rel_errors = []
    for d in LADDER:
        dv = normalize_degrees(G, {(1,): d})
        counted = sum(component_sizes(f5, G, dv).values())
        assert counted == sum(ladder_histograms[d].values())
        lo, hi = size_main_term(G, 5, d, truncation_degree=8)
        mid = (lo + hi) / 2
        rel_errors.append(abs(F(counted) - mid) / mid)
    # report any systematic offset instead of hiding it
    print("size asymptotic relative errors:", [float(e) for e in rel_errors])
    assert rel_errors[0] >= rel_errors[1] >= rel_errors[2]
    assert rel_errors[-1] <= F(1, 100)


def test_criterion_8_pattern_frequencies(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 8})
    hist = space_pattern_histogram(f5, G, dv, 0)
    n = sum(hist.values())
    p_all_ones = F(hist.get(((0,), True), 0), n)
    p_ramified = F(hist.get(((1,), True), 0) + hist.get(((1,), False), 0), n)
    p_other = 1 - p_all_ones - p_ramified
    # limiting factors: q/denom per unramified all-ones point and
    # e*phi(e)/denom for the ramified class, with denom = |G|(q+|G|-1)
    denom = point_denominator(G, 5)
    want_all_ones = F(5, denom)
    want_ramified = F(2 * euler_phi(2), denom)
    tol = F(1, 50)
    assert abs(p_all_ones - want_all_ones) <= tol * want_all_ones
    assert abs(p_ramified - want_ramified) <= tol * want_ramified
    assert abs(p_other - (1 - want_all_ones - want_ramified)) <= tol
