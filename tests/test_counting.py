"""Tests for the character-sum point count and its brute-force oracle."""

import gc
import hashlib
import itertools
import json
import math
import random
import weakref
from collections import Counter
from functools import lru_cache, partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abelcover import counting, polyring
from abelcover.counting import (
    INFINITY,
    _component_point_data,
    _cyclotomic_poly,
    _key_table,
    count_points,
    derived_polys,
    eval_at,
    oracle_count,
    space_count_histogram,
    space_pattern_histogram,
)
from abelcover.errors import (
    BadOrder,
    BudgetExceeded,
    DimensionMismatch,
    InternalInconsistency,
    MultipleVanishing,
    RamifiedPoint,
    TooLarge,
)
from abelcover.field import CharValue, character, make_field
from abelcover.groupcomb import (
    GroupSpec,
    IndexPair,
    a_beta,
    class_of,
    enumerate_index_pairs,
    pair_weight,
    ram_exponent,
)
from abelcover.moduli import (
    CoverTuple,
    component_sizes,
    d_vec,
    degrees_from_json,
    enumerate_space,
    make_cover_tuple,
    normalize_degrees,
    sample_space,
)
from abelcover.numtheory import divisors
from abelcover.polyring import Polynomial, enumerate_monic


@pytest.fixture(scope="module")
def f5():
    return make_field(5)


@pytest.fixture(scope="module")
def f7():
    return make_field(7)


def hyper(ctx, c, coeffs):
    return make_cover_tuple((c,), {(1,): Polynomial(ctx, coeffs)})


def test_conic_point_counts(f5):
    # y^2 = x^2 + 1 over F_5, counts frozen from listing squares:
    # x=0 -> 2, x=1 -> 6 not a square -> 0, x=2,3 -> branch points,
    # x=4 -> 17=2 not a square -> 0, infinity unramified with chi(1)=1.
    G = GroupSpec((2,))
    report = count_points(f5, G, hyper(f5, 1, [1, 0, 1]))
    assert [(ev.x, ev.count) for ev in report.points] == [
        (0, 2),
        (1, 0),
        (2, 1),
        (3, 1),
        (4, 0),
        (INFINITY, 2),
    ]
    assert report.total == 6
    assert report.trace == 0


def test_odd_degree_ramifies_at_infinity(f5):
    # y^2 = x: branch points at 0 and infinity, one point above each.
    G = GroupSpec((2,))
    report = count_points(f5, G, hyper(f5, 1, [0, 1]))
    by_x = {ev.x: ev.count for ev in report.points}
    assert by_x[0] == 1
    assert by_x[INFINITY] == 1
    assert report.total == 6
    ev_inf = next(ev for ev in report.points if ev.x == INFINITY)
    assert ev_inf.beta == (1,)


def test_nonresidue_twist_at_infinity(f5):
    # Scaling by a non-square flips the fibre above infinity from 2 to 0.
    G = GroupSpec((2,))
    plus = count_points(f5, G, hyper(f5, 1, [1, 0, 1]))
    twist = count_points(f5, G, hyper(f5, 2, [1, 0, 1]))
    assert plus.points[-1].count == 2
    assert twist.points[-1].count == 0


def test_eval_rejects_common_roots(f5):
    G = GroupSpec((2, 2))
    f = Polynomial.x_minus(f5, 1)
    bad = make_cover_tuple((1, 1), {(1, 0): f, (0, 1): f, (1, 1): Polynomial.one(f5)})
    with pytest.raises(MultipleVanishing):
        eval_at(f5, G, bad, 1)


def test_bulk_walk_rejects_common_roots_where_masks_let_them_through(f5, monkeypatch):
    """With the factor masks zeroed the coprime walk also yields tuples with
    common roots; the bulk histogram refuses the first, (x, x, x), where
    its state is made, rather than reading a row that no coprime tuple has,
    and reports it as a fault of the walk, not of the input."""
    real = polyring._factor_masks

    def zeroed(ctx, degrees, top):
        return {d: [0] * len(masks) for d, masks in real(ctx, degrees, top).items()}

    monkeypatch.setattr(polyring, "_factor_masks", zeroed)
    G = GroupSpec((2, 2))
    dv = normalize_degrees(G, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    with pytest.raises(InternalInconsistency, match="^3 polynomials vanish at 0$"):
        space_count_histogram(f5, G, dv)


def test_cyclotomic_check_catches_a_dichotomy_fault(f5, monkeypatch):
    """A count rule that ignores the values counts |A_beta| at every point.
    On y^2 = x^2 + 1 over F_5 the exact cyclotomic sum refuses it first at
    x = 1, where the value is -1; unchecked, the total reads 10, not 6."""
    G, t = GroupSpec((2,)), hyper(f5, 1, [1, 0, 1])
    monkeypatch.setattr(counting, "_count_above", lambda surviving, *_: len(surviving))
    message = "^cyclotomic sum disagrees with dichotomy count at x=1$"
    with pytest.raises(InternalInconsistency, match=message):
        count_points(f5, G, t)
    assert count_points(f5, G, t, check=False).total == 10


def test_counting_reads_the_alphas_in_group_order(f5):
    """A cover that omits an alpha is refused with DimensionMismatch; one
    that holds every alpha in another order counts as the ordered one."""
    G = GroupSpec((2, 2))
    polys = {
        (1, 0): Polynomial.x_minus(f5, 1),
        (0, 1): Polynomial(f5, [1, 0, 1]),
        (1, 1): Polynomial.x_minus(f5, 0),
    }
    cover = make_cover_tuple((2, 1), polys)
    del polys[(1, 1)]
    with pytest.raises(DimensionMismatch, match="not keyed by the nonzero alphas"):
        count_points(f5, G, make_cover_tuple((2, 1), polys))
    reordered = CoverTuple(cover.c, cover.f[::-1])
    assert count_points(f5, G, reordered) == count_points(f5, G, cover)


@pytest.mark.parametrize("r", [(2,), (2, 2)])
def test_cyclotomic_check_catches_a_dropped_surviving_pair(f5, monkeypatch, r):
    """A point state in which a pair of A_beta reads None (a vanishing value
    where the pattern must survive) counts 0 where the exact cyclotomic sum
    of the values is nonzero: count_points(check=True) refuses it at x=0."""
    G = GroupSpec(r)
    trivial = IndexPair((1,) * G.n, (1,) * G.n)  # in every A_beta
    assert enumerate_index_pairs(G).index(trivial) == 0  # its position
    real = counting._point_state

    def drops_a_surviving_pair(plan, keys, x):
        beta, exps = real(plan, keys, x)
        assert trivial in a_beta(G, beta)
        return beta, {**exps, 0: None}

    monkeypatch.setattr(counting, "_point_state", drops_a_surviving_pair)
    polys = dict.fromkeys(G.nonzero_vectors(), Polynomial.one(f5))
    polys[(1,) * G.n] = Polynomial(f5, [1, 0, 1])
    t = make_cover_tuple((1,) * G.n, polys)
    message = "^cyclotomic sum disagrees with dichotomy count at x=0$"
    with pytest.raises(InternalInconsistency, match=message):
        count_points(f5, G, t, check=True)


@pytest.mark.parametrize("c", [(1,), (0, 1), (7, 1), (1, 1, 1), (-1, 1)])
def test_counting_refuses_invalid_leading_units(f5, c):
    """count_points and eval_at hold c to the cover contract: n units of
    F_q^*, refused with CoverTuple.validate's message."""
    G = GroupSpec((2, 2))
    polys = dict.fromkeys(G.nonzero_vectors(), Polynomial.one(f5))
    polys[(1, 1)] = Polynomial(f5, [1, 0, 1])
    t = make_cover_tuple(c, polys)
    message = "^leading-coefficient vector invalid$"
    for run in (count_points, lambda *args: eval_at(*args, 0)):
        with pytest.raises(DimensionMismatch, match=message):
            run(f5, G, t)


@pytest.mark.parametrize("c", [(1.5, 1), (2.0, 1), (True, 1)])
def test_leading_units_must_be_ints(f5, c):
    """A float or bool unit in range is refused by validate and count_points
    alike, with the contract's message, not a TypeError from dlog."""
    G = GroupSpec((2, 2))
    polys = dict.fromkeys(G.nonzero_vectors(), Polynomial.one(f5))
    polys[(1, 1)] = Polynomial(f5, [1, 0, 1])
    t = make_cover_tuple(c, polys)
    message = "^leading-coefficient vector invalid$"
    for run in (t.validate, partial(count_points, t=t)):
        with pytest.raises(DimensionMismatch, match=message):
            run(f5, G)


def _divisor_chains(bound):
    """Every r = (r_1, ..., r_n), r_j >= 2, r_j | r_{j+1}, with |G| <= bound;
    the list grows as it is walked, one factor longer each time."""
    chains = [(r,) for r in range(2, bound + 1)]
    for r in chains:
        chains += [(*r, m) for m in range(r[-1], bound + 1, r[-1])
                   if math.prod(r) * m <= bound]
    return chains


def test_plan_reads_every_group_rule_from_one_character_table():
    """For every group of order at most 16, the plan's character table and
    supports are pair_weight and a_beta, position by position."""
    chains = _divisor_chains(16)
    assert len(chains) == 15 + 6 + 2 + 1  # cyclic, two, three and four factors
    for r in chains:
        G, plan = GroupSpec(r), counting._plan(r)
        pairs = enumerate_index_pairs(G)
        assert plan.pairs == pairs and plan.alphas == tuple(G.nonzero_vectors())
        assert plan.chi == {
            v: tuple(pair_weight(pair, v) for pair in pairs) for v in G.all_vectors()
        }
        for beta in G.all_vectors():
            surviving = plan.supports[beta]
            assert [pairs[i] for i, _ in surviving] == [
                pair for pair in pairs if pair in a_beta(G, beta)
            ]
            assert all(ell == pairs[i].ell for i, ell in surviving)


def test_index_pairs_come_sorted_by_s_and_omega():
    """For every group of order at most 16, enumerate_index_pairs is in
    (s, omega) order, the order of a report's patterns and of its JSON."""
    for r in _divisor_chains(16):
        pairs = enumerate_index_pairs(GroupSpec(r))
        keys = [(pair.s, pair.omega) for pair in pairs]
        assert keys == sorted(keys)


def literal_state(G, keys):
    """The state at a point from the keys of the f_alpha there, pair by
    pair: sum_alpha e_alpha (key_alpha - 1) mod ell, None where a vanishing
    f_alpha has e_alpha != 0."""
    alphas = G.nonzero_vectors()
    vanishing = [alpha for alpha, key in zip(alphas, keys) if not key]
    exps = {}
    for pos, pair in enumerate(enumerate_index_pairs(G)):
        weights = [pair_weight(pair, alpha) for alpha in alphas]
        if any(e for e, key in zip(weights, keys) if not key):
            exps[pos] = None
        else:
            exps[pos] = sum(e * (key - 1) for e, key in zip(weights, keys)) % pair.ell
    return (vanishing[0] if vanishing else (0,) * G.n), exps


def test_point_states_match_the_literal_per_pair_sum():
    """For every group of order at most 16, the key -> state rule against
    the literal per-pair sum: on every key vector with at most one zero
    where there are at most 5,000 of them, else on a seeded sample; two
    zeros are refused."""
    rng = random.Random(0)
    for r in _divisor_chains(16):
        G, plan = GroupSpec(r), counting._plan(r)
        m, E = G.size - 1, G.exponent
        if E**m + m * E ** (m - 1) <= 5000:
            vectors = [
                keys for keys in itertools.product(range(E + 1), repeat=m)
                if keys.count(0) <= 1
            ]
        else:
            vectors = []
            for _ in range(300):
                keys = [rng.randint(1, E) for _ in range(m)]
                if rng.random() < 0.5:
                    keys[rng.randrange(m)] = 0
                vectors.append(tuple(keys))
        for keys in vectors:
            assert counting._point_state(plan, keys, 0) == literal_state(G, keys)
        if m > 1:
            with pytest.raises(MultipleVanishing, match="^2 polynomials vanish at 3$"):
                counting._point_state(plan, (0, 0, *[1] * (m - 2)), 3)


@pytest.mark.parametrize(
    "r,degrees",
    [
        ((2,), {(1,): 3}),
        ((3,), {(1,): 1, (2,): 2}),
        ((3,), {(1,): 2, (2,): 2}),
        ((4,), {(1,): 1, (3,): 1, (2,): 2}),
        ((6,), {(1,): 1, (2,): 1, (3,): 1}),
        ((2, 2), {(1, 0): 1, (0, 1): 2, (1, 1): 1}),
        ((2, 4), {(1, 1): 1, (0, 2): 3, (1, 3): 2}),
    ],
)
def test_plan_infinity_state_is_the_row_at_minus_d_vec(r, degrees):
    """At infinity beta = -d_vec, and a pair reads None exactly where
    pair_weight(pair, d_vec) != 0, else the exponent 0."""
    G, plan = GroupSpec(r), counting._plan(r)
    d = d_vec(G, degrees)
    beta, exps = plan.infinity_state(tuple(degrees.get(a, 0) for a in plan.alphas))
    assert beta == tuple(-dj % rj for dj, rj in zip(d, r))
    assert exps == {
        i: None if pair_weight(pair, d) else 0
        for i, pair in enumerate(enumerate_index_pairs(G))
    }


def test_oracle_refuses_branch_points(f5):
    G = GroupSpec((2,))
    with pytest.raises(RamifiedPoint):
        oracle_count(f5, G, hyper(f5, 1, [0, 1]), 0)


def test_oracle_on_known_fibres(f5):
    G = GroupSpec((2,))
    t = hyper(f5, 1, [1, 0, 1])
    assert oracle_count(f5, G, t, 0) == 2
    assert oracle_count(f5, G, t, 1) == 0


def test_derived_polynomials_multiply_out(f7):
    """Each derived polynomial equals its defining product, pointwise."""
    G = GroupSpec((3,))
    t = make_cover_tuple(
        (3,),
        {(1,): Polynomial.x_minus(f7, 2), (2,): Polynomial.x_minus(f7, 4)},
    )
    polys = t.polys()
    for dp in derived_polys(f7, G, t):
        expect = Polynomial.one(f7)
        for alpha, e in dp.exponents:
            expect = expect * polys[alpha] ** e
        # the unit constant is kept separate from the monic product
        assert dp.poly == expect
        for x in range(f7.q):
            assert f7.mul(dp.constant, expect.evaluate(x)) == f7.mul(
                dp.constant, dp.poly.evaluate(x)
            )


def test_trivial_pair_contributes_constant_one(f5):
    G = GroupSpec((2,))
    t = hyper(f5, 3, [1, 0, 1])
    trivial = [dp for dp in derived_polys(f5, G, t) if dp.pair.is_trivial]
    assert len(trivial) == 1
    assert trivial[0].poly == Polynomial.one(f5)


def test_cubic_cover_against_oracle(f7):
    # y^3 = c(x-2)(x-4)^2 over F_7, every unramified fibre.
    G = GroupSpec((3,))
    t = make_cover_tuple(
        (3,),
        {(1,): Polynomial.x_minus(f7, 2), (2,): Polynomial.x_minus(f7, 4)},
    )
    report = count_points(f7, G, t)
    for ev in report.points:
        if ev.x in (2, 4, INFINITY):
            continue
        assert oracle_count(f7, G, t, ev.x) == ev.count


def test_hasse_bound_on_elliptic_space(f5):
    """Quartic hyperelliptic covers have genus 1: |trace| <= 2*sqrt(5)."""
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    for cover in enumerate_space(f5, G, dv):
        report = count_points(f5, G, cover)
        assert abs(report.trace) <= 4


def test_bulk_histogram_matches_per_cover_counts(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    slow = Counter(
        count_points(f5, G, cover, check=False).total
        for cover in enumerate_space(f5, G, dv)
    )
    assert space_count_histogram(f5, G, dv) == slow


def test_walk_gate_is_the_exact_size(f5, monkeypatch):
    """Z/2 over F_5 at d = 4 has exactly 2,400 covers: a budget of 2,400
    walks the space and one of 2,399 refuses it."""
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    monkeypatch.setenv("ABCOVER_BUDGET", "2400")
    assert sum(space_count_histogram(f5, G, dv).values()) == 2400
    monkeypatch.setenv("ABCOVER_BUDGET", "2399")
    with pytest.raises(BudgetExceeded) as info:
        space_count_histogram(f5, G, dv)
    assert (info.value.size, info.value.budget) == (2400, 2399)
    assert str(info.value) == "space size 2400 exceeds budget 2399"


def test_bulk_histogram_multifactor(f5):
    G = GroupSpec((2, 2))
    dv = normalize_degrees(G, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    slow = Counter(
        count_points(f5, G, cover, check=False).total
        for cover in enumerate_space(f5, G, dv)
    )
    assert space_count_histogram(f5, G, dv) == slow


def test_pattern_histogram_matches_eval(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 2})
    x = 0
    slow = Counter()
    for cover in enumerate_space(f5, G, dv):
        ev = eval_at(f5, G, cover, x)
        rep = class_of(G, ev.beta).representative
        all_one = ev.count > 0
        slow[(rep, all_one)] += 1
    assert space_pattern_histogram(f5, G, dv, x) == slow


# Spaces far beyond enumeration (Z/2 at q = 5, d = 32 has about 8.9e22 covers).
COUNTED_PATTERN_SPACES = [
    (5, 1, (2,), {(1,): 32}),
    (7, 1, (3,), {(1,): 20, (2,): 11}),
    (7, 1, (3,), {(1,): 30}),
    (5, 1, (2, 2), {(1, 0): 10, (0, 1): 12, (1, 1): 6}),
    (5, 1, (4,), {(1,): 9, (2,): 4, (3,): 1}),
    (3, 2, (4,), {(1,): 40}),
]


@pytest.mark.parametrize(
    "p,k,r,degrees",
    COUNTED_PATTERN_SPACES,
    ids=[
        "q%d-r%s-%s" % (p**k, r, list(d.values()))
        for p, k, r, d in COUNTED_PATTERN_SPACES
    ],
)
def test_pattern_histograms_are_exact_past_enumeration(p, k, r, degrees):
    """The counted pattern histogram holds every cover of the space, and the
    mean count above each point is exactly 1."""
    ctx, G = make_field(p, k), GroupSpec(r)
    dv = normalize_degrees(G, degrees)
    size = sum(component_sizes(ctx, G, dv).values())
    for x in (0, 1, INFINITY):
        hist = space_pattern_histogram(ctx, G, dv, x)
        assert sum(hist.values()) == size
        ones = {rep: m for (rep, all_one), m in hist.items() if all_one}
        assert sum(m * G.size // ram_exponent(G, rep) for rep, m in ones.items()) == size


def test_a_dropped_field_is_collected():
    """No memo of the counting paths keeps a field alive."""
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 2})
    runs = [
        lambda ctx: count_points(ctx, G, hyper(ctx, 1, [1, 0, 1])),
        lambda ctx: space_count_histogram(ctx, G, dv),
    ]
    for run in runs:
        ctx = make_field(5)
        run(ctx)
        dropped = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert dropped() is None


def test_report_serializes(f5):
    G = GroupSpec((2,))
    report = count_points(f5, G, hyper(f5, 1, [1, 0, 1]))
    payload = report.to_json_dict()
    assert payload["total"] == 6
    assert payload["trace"] == 0
    assert len(payload["points"]) == 6


# sha256 of json.dumps of the to_json_dict reports of the first 100 covers
# of sample_space, recorded before index pairs became positions inside
# counting, on the three spaces of the benchmark's sample workload; check
# on and off give the same reports.
PINNED_REPORTS = [
    (5, 1, (2,), {"1": 8}, 0,
     "b9b8bad485d98232e2a84daad878d8da095f24bc73fa0d3ac7870f7ebdb83ba3"),
    (5, 1, (2,), {"1": 8}, 1,
     "389f684eb62cfe409c6e14d67af969423317718486df0c662697607f22f73a2d"),
    (5, 1, (2, 2), {"1,0": 4, "0,1": 4, "1,1": 4}, 0,
     "aece7f936e5cc7ade113d4ccf797f234ce521d0d9b3d0ae5e0f58604884ec690"),
    (5, 1, (2, 2), {"1,0": 4, "0,1": 4, "1,1": 4}, 1,
     "7b8bf1985d18c382b3f1fbad21ff77e9ebaba4b7164deaa922f492bab3c1fd3e"),
    (3, 2, (4,), {"1": 8}, 0,
     "370dc6dc71864af3eece78d5a3bc3ed981e1bfd14269241abd651a31515d9546"),
    (3, 2, (4,), {"1": 8}, 1,
     "357d7ac6e0a9aa80176c4872854b962bcbc297f12cc848351bb21f9888878aca"),
]


@pytest.mark.parametrize(
    "p, k, r, raw, seed, expected",
    PINNED_REPORTS,
    ids=[
        "q%d-r%s-seed%d" % (p**k, ",".join(map(str, r)), seed)
        for p, k, r, _, seed, _ in PINNED_REPORTS
    ],
)
def test_sampled_reports_are_pinned(p, k, r, raw, seed, expected):
    ctx, G = make_field(p, k), GroupSpec(r)
    covers = list(sample_space(ctx, G, degrees_from_json(G, raw), 100, seed))
    for check in (True, False):
        reports = [count_points(ctx, G, t, check=check).to_json_dict() for t in covers]
        assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == expected


def test_eval_rejects_points_outside_the_line(f5, monkeypatch):
    """A finite point is an int in [0, q): 1.0 and True are not x = 1, and
    eval_at refuses a bad x before it counts the cover."""
    G = GroupSpec((2,))
    t, dv = hyper(f5, 1, [1, 0, 1]), normalize_degrees(G, {(1,): 2})
    assert eval_at(f5, G, t, INFINITY) == count_points(f5, G, t).points[-1]
    monkeypatch.setattr(counting, "count_points", None)
    message = r"is not a point of P\^1\(F_5\)$"
    for x in (1.0, True, 2.5, -1, 5):
        with pytest.raises(DimensionMismatch, match=message):
            eval_at(f5, G, t, x)
        with pytest.raises(DimensionMismatch, match=message):
            space_pattern_histogram(f5, G, dv, x)


@pytest.mark.parametrize(
    "run",
    [
        lambda ctx, G, dv, t: count_points(ctx, G, t),
        lambda ctx, G, dv, t: space_count_histogram(ctx, G, dv),
        lambda ctx, G, dv, t: space_pattern_histogram(ctx, G, dv, 0),
    ],
    ids=["count_points", "space_count_histogram", "space_pattern_histogram"],
)
def test_group_exponent_must_divide_q_minus_one(f7, run):
    # exp(Z/4) = 4 does not divide 7 - 1: there is no character of order 4.
    G = GroupSpec((4,))
    dv = normalize_degrees(G, {(2,): 2})
    one = Polynomial.one(f7)
    t = make_cover_tuple(
        (1,), {(1,): one, (2,): Polynomial(f7, [1, 0, 1]), (3,): one}
    )
    with pytest.raises(BadOrder):
        run(f7, G, dv, t)


def test_order_is_checked_before_the_budget():
    """exp(Z/3) = 3 does not divide 5 - 1: a space of 2.7 x 10^42 covers is
    refused for its order, not for its size, by both histograms."""
    G, f5 = GroupSpec((3,)), make_field(5)
    dv = normalize_degrees(G, {(1,): 30, (2,): 30})
    for run in (space_count_histogram, partial(space_pattern_histogram, x=0)):
        with pytest.raises(BadOrder):
            run(f5, G, dv)


# (p, k, r, degrees) with exp(G) | q - 1; every group meets every field it fits.
LITERAL_CASES = [
    (p, k, r, degrees)
    for p, k in [(5, 1), (7, 1), (3, 2), (13, 1)]
    for r, degrees in [
        ((2,), {(1,): 4}),
        ((3,), {(1,): 2, (2,): 2}),
        ((4,), {(1,): 1, (2,): 2, (3,): 1}),
        ((2, 2), {(1, 0): 2, (0, 1): 2, (1, 1): 2}),
        ((2, 4), {(1, 1): 1, (1, 3): 1, (1, 2): 2}),
        ((6,), {(1,): 1, (2,): 1, (3,): 1}),
        ((12,), {(1,): 1, (11,): 1}),
    ]
    if (p**k - 1) % r[-1] == 0
]


@pytest.mark.parametrize(
    "p,k,r,degrees",
    LITERAL_CASES,
    ids=[f"q{p**k}-G{r}" for p, k, r, _ in LITERAL_CASES],
)
def test_patterns_match_literal_derived_polynomials(p, k, r, degrees):
    ctx = make_field(p, k)
    G = GroupSpec(r)
    dv = normalize_degrees(G, degrees)
    for t in sample_space(ctx, G, dv, 12, seed=p * k):
        assert_literal_patterns(ctx, G, t)


def assert_literal_patterns(ctx, G, t):
    """Every pattern value of count_points (check on and off) against chi_ell
    of the multiplied-out derived polynomial: at finite x its value there,
    at infinity 0 when ell does not divide its degree and chi_ell of its
    constant otherwise."""
    derived = derived_polys(ctx, G, t)
    for check in (True, False):
        points = count_points(ctx, G, t, check=check).points
        for dp in derived:
            ell = dp.pair.ell
            for x in range(ctx.q):
                value = ctx.mul(dp.constant, dp.poly.evaluate(x))
                assert points[x].pattern[dp.pair] == character(ctx, ell, value)
            if dp.poly.degree % ell:
                expect = CharValue.zero(ell)
            else:
                expect = character(ctx, ell, dp.constant)
            assert points[ctx.q].pattern[dp.pair] == expect


def test_memos_keep_fields_and_components_apart():
    """The one counting memo is per group and holds no field, and its point
    states are keyed by (beta, v), whatever the field or the component.
    Interleave, in one process, the same unit vectors c over F_5 and F_9
    and covers of the plain and the dropped components of one space: every
    pattern stays literal."""
    G = GroupSpec((4,))
    fields = [make_field(5), make_field(3, 2)]
    dv = normalize_degrees(G, {(1,): 1, (2,): 2, (3,): 1})
    samples = [list(sample_space(ctx, G, dv, 12, seed=2)) for ctx in fields]
    for covers in samples:
        tags = {t.tag for t in covers}
        assert None in tags and len(tags) > 1  # plain and dropped components
    for c in range(1, 5):  # units of both fields
        for covers in zip(*samples):
            for ctx, t in zip(fields, covers):
                assert_literal_patterns(ctx, G, make_cover_tuple((c,), t.polys(), t.tag))


@lru_cache(maxsize=None)
def field_of(q):
    p, k = {
        3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2), 13: (13, 1)
    }[q]
    return make_field(p, k)


@st.composite
def small_spaces(draw):
    """(q, r, degrees, x): a random small space and a point of P^1(F_q)."""
    q = draw(st.sampled_from([3, 4, 5, 7, 9]))
    groups = [(2,), (3,), (4,), (2, 2), (2, 4), (6,)]
    r = draw(st.sampled_from([r for r in groups if (q - 1) % r[-1] == 0]))
    G = GroupSpec(r)
    alphas = G.nonzero_vectors()
    degrees = dict.fromkeys(alphas, 0)
    degrees.update(
        draw(st.dictionaries(st.sampled_from(alphas), st.integers(1, 2), max_size=2))
    )
    # Raising the degree of the j-th unit vector moves d_j alone.
    for j, (dj, rj) in enumerate(zip(d_vec(G, degrees), r)):
        degrees[tuple(int(i == j) for i in range(G.n))] += -dj % rj
    dv = normalize_degrees(G, degrees)
    assume(sum(component_sizes(field_of(q), G, dv).values()) <= 3000)
    x = draw(st.sampled_from([*range(q), INFINITY]))
    return q, r, degrees, x


@settings(max_examples=30, deadline=None)
@given(small_spaces())
@example((5, (2,), {(1,): 4}, 0))
@example((5, (2, 2), {(1, 0): 1, (0, 1): 1, (1, 1): 1}, 0))
@example((5, (2,), {(1,): 2}, 0))
# The walked coordinate followed by degree-0 ones: 2,400 covers.
@example((5, (4,), {(1,): 4}, 0))
# No coordinate of positive degree: 16 covers.
@example((5, (2, 2), {}, INFINITY))
# The first r_j units fall one per class of leading units over F_5, not
# here: 2 = 3^2 is a square in F_7, and 1..4 in F_9 miss a class mod 4.
@example((7, (2,), {(1,): 2}, INFINITY))
@example((9, (4,), {(1,): 1, (3,): 1}, 0))
@example((7, (2, 2), {(1, 1): 2}, 0))
# A cubic extension of characteristic 2 with two branched alpha, both
# dropped components and the point at infinity: 504 covers.
@example((8, (7,), {(1,): 1, (6,): 1}, INFINITY))
# A group of order 12 with two branched alpha: 2,184 covers.
@example((13, (12,), {(1,): 1, (11,): 1}, 0))
def test_bulk_histograms_match_per_cover_counts(space):
    """The count and pattern histograms against per-cover count_points and
    eval_at."""
    q, r, degrees, x = space
    ctx, G = field_of(q), GroupSpec(r)
    dv = normalize_degrees(G, degrees)
    counts, patterns = Counter(), Counter()
    for cover in enumerate_space(ctx, G, dv):
        counts[count_points(ctx, G, cover, check=False).total] += 1
        ev = eval_at(ctx, G, cover, x)
        patterns[(class_of(G, ev.beta).representative, ev.count > 0)] += 1
    assert space_count_histogram(ctx, G, dv) == counts
    assert space_pattern_histogram(ctx, G, dv, x) == patterns
    # Each point counts |G|/e(beta) for e(beta) of the |G| classes of
    # leading units, so the mean of #C is exactly q + 1 at every degree.
    assert sum(n * m for n, m in counts.items()) == (q + 1) * sum(counts.values())
    # The walk memoises on point states; their number is bounded
    # by the classes g in G at unramified points plus G/<beta> at roots of
    # f_beta, whatever the size of the space.
    states = {
        (beta, tuple(exps.values()))
        for cover in enumerate_space(ctx, G, dv)
        for beta, exps in _component_point_data(ctx, G, cover.polys())
    }
    bound = G.size + sum(G.size // ram_exponent(G, b) for b in G.nonzero_vectors())
    assert len(states) <= bound


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    """prod_{d | n} Phi_d = x^n - 1 over Z, for the memoised Phi_d."""
    for n in range(1, 41):
        prod = [1]
        for d in (d for d in range(1, n + 1) if n % d == 0):
            phi = _cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


EXTENSION_FIELD_SPACES = [
    (2, 2, (3,), {(1,): 1, (2,): 1}),
    (2, 3, (7,), {(1,): 2, (5,): 1}),
    (3, 2, (4,), {(1,): 4}),
    (3, 2, (8,), {(1,): 3, (5,): 1}),
    (3, 2, (2, 2), {(1, 0): 2, (0, 1): 2, (1, 1): 2}),
    (5, 2, (3,), {(1,): 3}),
    (5, 2, (4,), {(1,): 2, (2,): 1}),
    (5, 2, (12,), {(5,): 1, (7,): 1}),
    (5, 2, (2, 2), {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
    (5, 2, (2, 4), {(1, 1): 1, (1, 3): 1}),
]


@pytest.mark.parametrize("p, k, r, degrees", EXTENSION_FIELD_SPACES)
def test_counts_match_oracle_over_extension_fields(p, k, r, degrees):
    """count_points against the brute-force fibre oracle over F_{p^k}, k > 1,
    at every unramified finite point of sampled covers."""
    ctx, G = make_field(p, k), GroupSpec(r)
    checked = 0
    for cover in sample_space(ctx, G, normalize_degrees(G, degrees), 20, seed=k):
        for pt in count_points(ctx, G, cover).points[: ctx.q]:
            if pt.beta == (0,) * G.n:
                assert pt.count == oracle_count(ctx, G, cover, pt.x)
                checked += 1
    assert checked


def horner_keys(ctx, E, f):
    return [1 + ctx.dlog(v) % E if v else 0 for v in map(f.evaluate, range(ctx.q))]


# Largest degree per field whose key tables are checked code by code.
KEY_TABLE_DEGREES = {
    (2, 1): 8, (3, 1): 5, (2, 2): 4, (5, 1): 4, (7, 1): 3, (2, 3): 3, (3, 2): 3,
    (5, 2): 1,
}


@pytest.mark.parametrize("p,k", sorted(KEY_TABLE_DEGREES))
def test_key_tables_match_horner_and_dlog(p, k):
    """Every code's row of the key table, for every exponent a group over
    F_q can have, against Polynomial.evaluate and dlog."""
    ctx = make_field(p, k)
    q = ctx.q
    for E in divisors(q - 1):
        for d in range(KEY_TABLE_DEGREES[p, k] + 1):
            table = _key_table(ctx, E, d)
            assert isinstance(table, bytes) and len(table) == q ** (d + 1)
            for code, f in enumerate(enumerate_monic(ctx, d)):
                assert list(table[code * q : (code + 1) * q]) == horner_keys(ctx, E, f)


def reference_key_table(ctx, E, d):
    """The key table built per x from Python lists of q^d ints: the
    literal reference for _key_table (bytes, as it is for q <= 16)."""
    q, key = ctx.q, counting._point_keys(ctx, E)
    shift = [[ctx.add(v, s) for v in range(q)] for s in range(q)]
    table = bytearray(q ** (d + 1))
    for x in range(q):
        values = [0]  # of the non-leading part, over the codes so far
        for i in range(d):
            xi = ctx.pow(x, i)
            blocks = (map(shift[ctx.mul(a, xi)].__getitem__, values) for a in range(q))
            values = list(itertools.chain.from_iterable(blocks))
        lead = shift[ctx.pow(x, d)]
        table[x::q] = bytes(map([key[v] for v in lead].__getitem__, values))
    return bytes(table)


# Every field with q <= 16.
SMALL_FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)
]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_key_tables_match_the_list_reference(p, k):
    """Byte equality with the per-x list builder for every E | q - 1 and
    every d with q^(d+1) <= 2*10^5."""
    ctx = make_field(p, k)
    q, d = ctx.q, 0
    while q ** (d + 1) <= 2 * 10**5:
        for E in divisors(q - 1):
            assert _key_table(ctx, E, d) == reference_key_table(ctx, E, d), (E, d)
        d += 1


def test_enumeration_over_q_above_256_is_refused():
    """Every enumeration table holds a field element per byte, so over
    F_257 the walk, each enumeration and the key table raise TooLarge,
    naming q and 256, while counting without a walk goes on."""
    ctx, G = make_field(257), GroupSpec((256,))
    dv = normalize_degrees(G, {})
    refused = [
        lambda: space_count_histogram(ctx, G, dv),
        lambda: list(enumerate_space(ctx, G, dv)),
        lambda: list(polyring.enumerate_coprime_tuples(ctx, {"a": 0, "b": 1})),
        lambda: list(polyring.enumerate_squarefree(ctx, 1)),
        lambda: _key_table(ctx, 256, 0),
    ]
    for run in refused:
        with pytest.raises(TooLarge, match="q = 257 > 256$"):
            run()
    G2 = GroupSpec((2,))
    dv2 = normalize_degrees(G2, {(1,): 2})
    size = sum(component_sizes(ctx, G2, dv2).values())
    assert sum(space_pattern_histogram(ctx, G2, dv2, 0).values()) == size
    assert count_points(ctx, G2, hyper(ctx, 3, [1, 0, 1])).trace == 0  # a conic
