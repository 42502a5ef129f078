"""Tests for degree vectors, genus, and moduli space enumeration."""

import hashlib
import itertools
import random
from bisect import bisect
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abelcover.errors import (
    BudgetExceeded,
    CongruenceViolation,
    DimensionMismatch,
    MultipleVanishing,
)
from abelcover.field import make_field
from abelcover.groupcomb import GroupSpec
from abelcover import moduli
from abelcover.moduli import (
    CoverTuple,
    _accept,
    _randbelow,
    _random_polys,
    component_degree_maps,
    component_sizes,
    d_vec,
    degrees_from_json,
    enumerate_space,
    genus,
    genus_invariance_check,
    make_cover_tuple,
    normalize_degrees,
    sample_space,
)
from abelcover.polyring import Polynomial, enumerate_coprime_tuples, enumerate_monic


@pytest.fixture(scope="module")
def f5():
    return make_field(5)


def test_normalize_fills_missing_degrees():
    G = GroupSpec((2, 2))
    dv = normalize_degrees(G, {(1, 0): 2})
    assert dv.degree_of((0, 1)) == 0
    assert dv.degree_of((1, 1)) == 0
    assert dv.total == 2


def test_normalize_accepts_string_keys():
    G = GroupSpec((2, 2))
    dv = degrees_from_json(G, '{"1,0": 2, "0,1": 2}')
    assert dv.degree_of((1, 0)) == 2
    assert dv.degree_of((0, 1)) == 2


def test_congruence_violations_are_reported_per_coordinate():
    G = GroupSpec((2, 4))
    with pytest.raises(CongruenceViolation) as exc:
        normalize_degrees(G, {(1, 0): 1})
    assert exc.value.j == 1
    with pytest.raises(CongruenceViolation) as exc:
        normalize_degrees(G, {(0, 1): 2})
    assert exc.value.j == 2


def test_negative_degree_names_its_alpha():
    G = GroupSpec((2, 2))
    with pytest.raises(ValueError) as exc:
        normalize_degrees(G, {(1, 0): 2, (0, 1): -2})
    assert str(exc.value) == "degree of (0, 1) must be non-negative, not -2"


@pytest.mark.parametrize("d", [True, False, 2.0])
def test_degree_must_be_an_int(d):
    G = GroupSpec((2,))
    with pytest.raises(ValueError) as exc:
        normalize_degrees(G, {(1,): d})
    assert str(exc.value) == "degree %r is not an integer" % (d,)


def test_bad_index_vectors_rejected():
    G = GroupSpec((2,))
    with pytest.raises(DimensionMismatch):
        normalize_degrees(G, {(0,): 2})
    with pytest.raises(DimensionMismatch):
        normalize_degrees(G, {(2,): 2})
    with pytest.raises(DimensionMismatch):
        normalize_degrees(G, {(1, 0): 2})


@pytest.mark.parametrize("g", range(0, 11))
def test_hyperelliptic_genus(g):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 2 * g + 2})
    assert genus(G, dv) == g


def test_degenerate_space_has_genus_zero():
    G = GroupSpec((3,))
    dv = normalize_degrees(G, {})
    assert genus(G, dv) == 0


def test_disconnected_cover_may_have_negative_genus():
    # Only the first factor is branched, so the cover splits into two
    # disjoint conics; the Euler-characteristic count gives -1.
    G = GroupSpec((2, 2))
    dv = normalize_degrees(G, {(1, 0): 2})
    assert genus(G, dv) == -1
    assert genus_invariance_check(G, dv)


def test_superelliptic_genus():
    # Curve y^3 = f(x) with deg f = 3 and coprime residue at infinity:
    # Riemann-Hurwitz over P^1 with 3 totally ramified finite points
    # plus infinity gives genus 1.
    G = GroupSpec((3,))
    dv = normalize_degrees(G, {(1,): 3})
    assert genus(G, dv) == 1


@pytest.mark.parametrize(
    "r,raw",
    [
        ((2,), {(1,): 6}),
        ((3,), {(1,): 2, (2,): 2}),
        ((2, 2), {(1, 0): 2, (0, 1): 2, (1, 1): 2}),
        ((2, 4), {(1, 0): 2, (0, 1): 4}),
    ],
)
def test_genus_agrees_on_every_component(r, raw):
    G = GroupSpec(r)
    assert genus_invariance_check(G, normalize_degrees(G, raw))


def test_genus_check_catches_a_component_lowered_twice(monkeypatch):
    """A dropped component whose beta degree is lowered twice, not once,
    changes that component's genus, and genus_invariance_check says so."""
    G = GroupSpec((4,))
    dv = normalize_degrees(G, {(1,): 2, (2,): 2, (3,): 2})
    assert genus_invariance_check(G, dv)
    real = moduli.component_degree_maps

    def lowers_once_more(G, dv):
        out = real(G, dv)
        beta, degmap = out[1]
        out[1] = (beta, {**degmap, beta: degmap[beta] - 1})
        return out

    monkeypatch.setattr(moduli, "component_degree_maps", lowers_once_more)
    assert not genus_invariance_check(G, dv)


def test_component_layout():
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    comps = component_degree_maps(G, dv)
    assert comps[0][0] is None
    assert comps[0][1] == {(1,): 4}
    assert comps[1][0] == (1,)
    assert comps[1][1] == {(1,): 3}


def test_zero_degree_has_no_dropped_component():
    G = GroupSpec((2, 2))
    dv = normalize_degrees(G, {(1, 0): 2, (0, 1): 2})
    tags = [tag for tag, _ in component_degree_maps(G, dv)]
    assert (1, 1) not in tags
    assert None in tags and (1, 0) in tags and (0, 1) in tags


def test_enumeration_matches_component_sizes(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    sizes = component_sizes(f5, G, dv)
    covers = list(enumerate_space(f5, G, dv))
    assert len(covers) == sum(sizes.values())
    assert len(set(covers)) == len(covers)
    # 4 leading units x 500 squarefree quartics, plus the dropped component.
    assert sizes[None] == 4 * 500
    assert sizes[(1,)] == 4 * 100
    for cover in covers:
        cover.validate(f5, G)


# q -> (p, k) for the fields of the size property
PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                9: (3, 2)}


@lru_cache(maxsize=None)
def field_of(q):
    return make_field(*PRIME_POWERS[q])


@st.composite
def enumerable_spaces(draw):
    """(q, r, degrees): every group at every q, since component sizes count
    polynomial tuples and need no characters; zero and several nonzero
    degrees, nudged onto the congruences d_j = 0 mod r_j."""
    q = draw(st.sampled_from(sorted(PRIME_POWERS)))
    r = draw(st.sampled_from([(2,), (3,), (4,), (2, 2)]))
    G = GroupSpec(r)
    alphas = G.nonzero_vectors()
    degrees = dict.fromkeys(alphas, 0)
    degrees.update(draw(st.dictionaries(st.sampled_from(alphas), st.integers(0, 3))))
    # Raising the degree of the j-th unit vector moves d_j alone.
    for j, (dj, rj) in enumerate(zip(d_vec(G, degrees), r)):
        degrees[tuple(int(i == j) for i in range(G.n))] += -dj % rj
    dv = normalize_degrees(G, degrees)
    assume(sum(component_sizes(field_of(q), G, dv).values()) <= 20_000)
    return q, r, degrees


@settings(max_examples=60, deadline=None)
@given(enumerable_spaces())
@example((2, (2, 2), {(1, 0): 1, (0, 1): 1, (1, 1): 1}))  # plain component empty
@example((3, (4,), {(1,): 2, (2,): 0, (3,): 2}))
@example((3, (2, 2), {(1, 0): 1, (0, 1): 1, (1, 1): 1}))
@example((4, (3,), {(1,): 1, (2,): 1}))
def test_component_sizes_match_enumeration(space):
    """The counted size of every component equals its enumerated covers."""
    q, r, degrees = space
    ctx, G = field_of(q), GroupSpec(r)
    dv = normalize_degrees(G, degrees)
    sizes = component_sizes(ctx, G, dv)
    enumerated = Counter(cover.tag for cover in enumerate_space(ctx, G, dv))
    assert set(enumerated) <= set(sizes)
    assert {tag: enumerated[tag] for tag in sizes} == sizes


def test_component_sizes_closed_form_at_degree_20(f5):
    """Squarefree counts q^d - q^(d-1) per component, far beyond enumeration."""
    G = GroupSpec((2,))
    q, d = 5, 20
    sizes = component_sizes(f5, G, normalize_degrees(G, {(1,): d}))
    assert sizes == {
        None: (q - 1) * (q**d - q ** (d - 1)),
        (1,): (q - 1) * (q ** (d - 1) - q ** (d - 2)),
    }


def test_budget_gate(f5, monkeypatch):
    monkeypatch.setenv("ABCOVER_BUDGET", "1000")
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 8})
    assert sum(component_sizes(f5, G, dv).values()) > 1000
    with pytest.raises(BudgetExceeded):
        list(enumerate_space(f5, G, dv))


def test_budget_message_names_exact_size_and_budget(f5, monkeypatch):
    monkeypatch.setenv("ABCOVER_BUDGET", "1000")
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 8})
    exact = sum(component_sizes(f5, G, dv).values())
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_space(f5, G, dv))
    error = info.value
    assert (error.size, error.budget) == (exact, 1000)
    assert str(error) == "space size %d exceeds budget 1000" % exact


def test_budget_env_override(f5, monkeypatch):
    monkeypatch.setenv("ABCOVER_BUDGET", "10")
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 2})
    with pytest.raises(BudgetExceeded):
        list(enumerate_space(f5, G, dv))


def test_cover_validation_rejects_defects(f5):
    G = GroupSpec((2,))
    square = Polynomial.x_minus(f5, 1) * Polynomial.x_minus(f5, 1)
    with pytest.raises(MultipleVanishing):
        make_cover_tuple((1,), {(1,): square}).validate(f5, G)
    with pytest.raises(DimensionMismatch):
        make_cover_tuple((1, 1), {(1,): Polynomial.one(f5)}).validate(f5, G)
    with pytest.raises(DimensionMismatch):
        make_cover_tuple((0,), {(1,): Polynomial.one(f5)}).validate(f5, G)


def test_cover_validation_rejects_shared_factors(f5):
    G = GroupSpec((2, 2))
    f = Polynomial.x_minus(f5, 1)
    with pytest.raises(MultipleVanishing):
        make_cover_tuple((1, 1), {(1, 0): f, (0, 1): f}).validate(f5, G)


@pytest.mark.parametrize("r", [(2,), (2, 2)])
def test_cover_validation_rejects_a_constant_other_than_one(f5, r):
    """Every f_alpha is monic, a constant one included: y^2 = 2 is the
    cover c = 2, f = 1, not c = 1, f = 2."""
    G = GroupSpec(r)
    polys = dict.fromkeys(G.nonzero_vectors(), Polynomial.one(f5))
    make_cover_tuple((1,) * G.n, polys).validate(f5, G)
    polys[G.nonzero_vectors()[-1]] = Polynomial(f5, [2])
    with pytest.raises(MultipleVanishing, match="not monic"):
        make_cover_tuple((1,) * G.n, polys).validate(f5, G)


def test_cover_validation_wants_every_alpha_in_group_order(f5):
    """f holds one f_alpha per nonzero alpha, in G.nonzero_vectors() order:
    a cover that omits (1, 1), or holds the alpha in another order, fails."""
    G = GroupSpec((2, 2))
    f, g = Polynomial.x_minus(f5, 1), Polynomial.x_minus(f5, 2)
    polys = {(1, 0): f, (0, 1): g, (1, 1): Polynomial.one(f5)}
    cover = make_cover_tuple((1, 1), polys)
    cover.validate(f5, G)
    with pytest.raises(DimensionMismatch, match="not keyed by the nonzero alphas"):
        make_cover_tuple((1, 1), {(1, 0): f, (0, 1): g}).validate(f5, G)
    reordered = CoverTuple(cover.c, cover.f[::-1])
    with pytest.raises(DimensionMismatch, match="not keyed by the nonzero alphas"):
        reordered.validate(f5, G)


def test_sampling_is_deterministic(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    a = list(sample_space(f5, G, dv, 50, seed=11))
    b = list(sample_space(f5, G, dv, 50, seed=11))
    c = list(sample_space(f5, G, dv, 50, seed=12))
    assert a == b
    assert a != c
    for cover in a:
        cover.validate(f5, G)


def _choices(population, weights, rng):
    """random.choices(population, weights)[0], as CPython 3.11 writes it:
    the float total, one rng.random() call, bisect on the cumulative sums."""
    cum_weights = list(itertools.accumulate(weights))
    total = cum_weights[-1] + 0.0
    hi = len(cum_weights) - 1
    return population[bisect(cum_weights, rng.random() * total, 0, hi)]


def _float_weighted_tags(ctx, G, dv, count, seed):
    """The component tags of sample_space drawn with float random.choices,
    the rng stream consumed the same way."""
    rng = random.Random(seed)
    sizes = component_sizes(ctx, G, dv)
    tags = sorted(sizes, key=lambda t: (t is not None, t))
    degmaps = dict(component_degree_maps(G, dv))
    out = []
    for _ in range(count):
        out.append(_choices(tags, [sizes[t] for t in tags], rng))
        while not _accept(_random_polys(ctx, degmaps[out[-1]], rng)):
            pass
        for _ in range(G.n):
            rng.randrange(1, ctx.q)
    return out


@pytest.mark.parametrize(
    "p, k, r, degrees",
    [
        (5, 1, (2,), {(1,): 4}),
        (5, 1, (2,), {(1,): 6}),
        (7, 1, (3,), {(1,): 2, (2,): 2}),
        (3, 2, (4,), {(1,): 4}),
        (5, 1, (2, 2), {(1, 0): 2, (0, 1): 2, (1, 1): 2}),
    ],
)
def test_component_draws_follow_random_choices(p, k, r, degrees):
    """Exact-integer component choice draws what float weights drew."""
    ctx, G = make_field(p, k), GroupSpec(r)
    dv = normalize_degrees(G, degrees)
    for seed in range(4):
        drawn = [t.tag for t in sample_space(ctx, G, dv, 60, seed)]
        assert drawn == _float_weighted_tags(ctx, G, dv, 60, seed)


def test_sampling_beyond_the_float_range(f5):
    """Component sizes above 1e308 (q^450) are weighed exactly."""
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 450})
    assert sum(component_sizes(f5, G, dv).values()) > 10**308
    for cover in sample_space(f5, G, dv, 1, seed=0):
        cover.validate(f5, G)


def test_sample_space_rejects_a_negative_count(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    with pytest.raises(ValueError, match="count must be non-negative, not -2"):
        list(sample_space(f5, G, dv, -2, 0))
    assert list(sample_space(f5, G, dv, 0, 0)) == []


# q = 2 draws its leading unit from a width of 1; powers of two redraw most.
@pytest.mark.parametrize(
    "p, k", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]
)
def test_draws_keep_the_randrange_stream(p, k):
    """The coefficient and leading-unit draws give randrange's values and
    leave the generator in randrange's state."""
    ctx = make_field(p, k)
    q, degmap = ctx.q, {(1, 0): 3, (0, 1): 0, (1, 1): 5}
    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in (0, 1, 2, 7):
            polys = _random_polys(ctx, degmap, ours)
            for alpha in sorted(degmap):
                coeffs = [theirs.randrange(q) for _ in range(degmap[alpha])] + [1]
                assert polys[alpha].coeffs == tuple(coeffs)
            units = [1 + r for r in _randbelow(ours, q - 1, count)]
            assert units == [theirs.randrange(1, q) for _ in range(count)]
            assert _randbelow(ours, q, count) == [theirs.randrange(q) for _ in range(count)]
            assert ours.getstate() == theirs.getstate()


def test_samples_lie_in_the_space(f5):
    G = GroupSpec((2,))
    dv = normalize_degrees(G, {(1,): 4})
    population = set(enumerate_space(f5, G, dv))
    for cover in sample_space(f5, G, dv, 100, seed=3):
        assert cover in population


# sha256 of repr(the first 100 covers) of sample_space, recorded before the
# gcd moved onto coefficient lists, on the three spaces of the benchmark's
# sample workload: a change to acceptance or to the draws shows here.
PINNED_DRAWS = [
    (5, 1, (2,), {"1": 8}, 0,
     "af1219da450ab334ee17c2dff950ee06ffdc6644eda952ab5b11d332669900c4"),
    (5, 1, (2,), {"1": 8}, 1,
     "8bdd67111ddbae2865a83e0d954bdd62bac39c1759ece5f95ac8f632f1b7a4f0"),
    (5, 1, (2, 2), {"1,0": 4, "0,1": 4, "1,1": 4}, 0,
     "72da3d2e07f0ae8aeacdcbcac93f775fbb7ece20f4091321b502c493b49078a2"),
    (5, 1, (2, 2), {"1,0": 4, "0,1": 4, "1,1": 4}, 1,
     "f319986716be1e71f6ae224d88951f2e51848192a5d3500901348a8c92e59a7c"),
    (3, 2, (4,), {"1": 8}, 0,
     "c18e485c6260255a23ac1916c46a5b38babf4079f948d77b904afe7140bdbbb5"),
    (3, 2, (4,), {"1": 8}, 1,
     "c9be0e3b3102fd8acdf3cf9fa11fb7d3653ad0daf0e84b1feff2965484d52d8d"),
]


@pytest.mark.parametrize(
    "p, k, r, raw, seed, expected",
    PINNED_DRAWS,
    ids=[
        "q%d-r%s-seed%d" % (p**k, ",".join(map(str, r)), seed)
        for p, k, r, _, seed, _ in PINNED_DRAWS
    ],
)
def test_sampled_covers_are_pinned(p, k, r, raw, seed, expected):
    ctx, G = make_field(p, k), GroupSpec(r)
    covers = list(sample_space(ctx, G, degrees_from_json(G, raw), 100, seed))
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == expected


@pytest.mark.parametrize("degrees", [(3, 3), (1, 2, 3), (2, 2, 2), (0, 1, 3)])
@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1)])
def test_accept_is_exactly_the_enumerated_tuples(p, k, degrees):
    """Over every tuple of monic polynomials, _accept (gcds) holds exactly on
    the tuples that enumerate_coprime_tuples (sieve and factor masks, no gcd)
    yields."""
    ctx = make_field(p, k)
    keys = range(len(degrees))
    coprime = {
        tuple(polys[i] for i in keys)
        for polys in enumerate_coprime_tuples(ctx, dict(zip(keys, degrees)))
    }
    accepted = {
        fs
        for fs in itertools.product(*(list(enumerate_monic(ctx, d)) for d in degrees))
        if _accept(dict(zip(keys, fs)))
    }
    assert accepted == coprime
