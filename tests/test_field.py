"""Tests for table-backed finite fields and coherent characters."""

import hashlib
import itertools
import os
import pkgutil
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelcover
from abelcover import field as field_mod
from abelcover.errors import BadOrder, NotPrime, TooLarge
from abelcover.field import CharValue, character, make_field
from abelcover.numtheory import prime_factors
from abelcover.polyring import Polynomial

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


@pytest.fixture(scope="module")
def f5():
    return make_field(5)


@pytest.fixture(scope="module")
def f9():
    return make_field(3, 2)


def test_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)


def test_rejects_oversized_tables():
    with pytest.raises(TooLarge):
        make_field(2, 40)


def test_size_is_checked_without_forming_a_huge_power():
    """2^30,000,000 has over 4,300 digits; the error names p and k."""
    with pytest.raises(TooLarge, match=r"^q = 2\^30000000 exceeds table budget 65536$"):
        make_field(2, 30_000_000)


def test_size_is_checked_before_primality(monkeypatch):
    """A prime above 2^16 is refused by size, with no trial division."""

    def spy(n):
        raise AssertionError(f"prime_factors({n}) called before the size check")

    monkeypatch.setattr(field_mod, "prime_factors", spy)
    with pytest.raises(TooLarge, match=r"^q = 1000000000039\^1 exceeds"):
        make_field(1_000_000_000_039)
    with pytest.raises(TooLarge, match=r"^q = 257\^2 exceeds"):
        make_field(257, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_rejects_an_extension_degree_below_one(k):
    with pytest.raises(TooLarge, match=f"^k must be positive, got {k}$"):
        make_field(5, k)


@pytest.mark.parametrize(
    "p,k,error,message",
    [
        (5.0, 1, NotPrime, "^5.0 is not prime$"),
        ("5", 1, NotPrime, "^'5' is not prime$"),
        (True, 1, NotPrime, "^True is not prime$"),
        (5, True, TooLarge, "^k must be an int, got True$"),
        (5, 2.0, TooLarge, "^k must be an int, got 2.0$"),
    ],
)
def test_field_arguments_must_be_ints(p, k, error, message):
    with pytest.raises(error, match=message):
        make_field(p, k)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_zero_has_no_inverse_or_dlog(p, k):
    ctx = make_field(p, k)
    for op in (ctx.inv, lambda a: ctx.pow(a, -1), ctx.dlog):
        with pytest.raises(ZeroDivisionError):
            op(0)
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 3) == 0


def test_modulus_is_least_irreducible():
    # Frozen by scanning monic polynomials in encoding order and trial
    # dividing: x^2+x+1 over F_2, x^2+1 over F_3, x^3+x+1 over F_2.
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(5).modulus is None


def test_generator_is_smallest_primitive_element():
    # 2 generates F_5* and 3 generates F_7*; frozen from a direct scan.
    assert make_field(5).generator == 2
    assert make_field(7).generator == 3


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_units_have_full_multiplicative_order(p, k):
    ctx = make_field(p, k)
    g = ctx.generator
    seen = set()
    a = 1
    for _ in range(ctx.q - 1):
        seen.add(a)
        a = ctx.mul(a, g)
    assert seen == set(ctx.units())


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_dlog_roundtrip(p, k):
    ctx = make_field(p, k)
    for a in ctx.units():
        assert ctx.pow(ctx.generator, ctx.dlog(a)) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_field_axioms_sampled(pk, data):
    ctx = make_field(*pk)
    pick = st.integers(min_value=0, max_value=ctx.q - 1)
    a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.neg(a)) == 0
    if a != 0:
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_character_order_must_divide_group_order(f5):
    with pytest.raises(BadOrder):
        character(f5, 3, 2)


def test_character_values(f5):
    # dlog table for F_5 with generator 2: 1->0, 2->1, 4->2, 3->3.
    chi = lambda a: character(f5, 2, a)
    assert chi(0).is_zero
    assert chi(1).is_one
    assert chi(4).is_one
    assert chi(2) == CharValue.root(2, 1)
    assert chi(3) == CharValue.root(2, 1)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_character_sums_vanish(p, k):
    """Sum over F_q* of a nontrivial character is zero, exponent-exactly."""
    ctx = make_field(p, k)
    for m in range(2, ctx.q):
        if (ctx.q - 1) % m:
            continue
        counts = [0] * m
        for a in ctx.units():
            counts[character(ctx, m, a).exponent] += 1
        assert len(set(counts)) == 1


def test_coherence_under_power_embedding(f9):
    """chi_d is recovered from chi_m by raising to m/d, for d | m | q-1."""
    q1 = f9.q - 1
    divs = [d for d in range(1, q1 + 1) if q1 % d == 0]
    for m in divs:
        for d in divs:
            if m % d:
                continue
            for a in f9.units():
                assert character(ctx := f9, m, a).power(m // d) == character(
                    ctx, d, a
                ).in_order(m)


def test_char_value_arithmetic():
    z = CharValue.zero(4)
    i = CharValue.root(4, 1)
    assert z.times(i).is_zero
    assert i.times(i) == CharValue.root(4, 2)
    assert i.power(4).is_one
    assert i.power(0).is_one
    with pytest.raises(BadOrder):
        i.times(CharValue.root(2, 1))
    with pytest.raises(BadOrder):
        CharValue.root(3, 1).in_order(4)


def digitwise(ctx):
    """Addition and negation by base-p digits of the encoding."""
    p, k = ctx.p, ctx.k

    def decode(a):
        return [a // p**i % p for i in range(k)]

    def encode(digits):
        return sum(c * p**i for i, c in enumerate(digits))

    def add(a, b):
        return encode([(x + y) % p for x, y in zip(decode(a), decode(b))])

    def neg(a):
        return encode([-x % p for x in decode(a)])

    return add, neg


@pytest.mark.parametrize(
    "p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (11, 2)]
)
def test_zech_addition_matches_digitwise_definition(p, k):
    ctx = make_field(p, k)
    add, neg = digitwise(ctx)
    for a in range(ctx.q):
        assert ctx.neg(a) == neg(a)
        for b in range(ctx.q):
            assert ctx.add(a, b) == add(a, b)
            assert ctx.sub(a, b) == add(a, neg(b))


def stepped_tables(ctx):
    """The tables as built by stepping a -> a*g through _raw_mul, with the
    Zech and negation tables derived from them the same way as the field."""
    q, p = ctx.q, ctx.p
    exp, a = [], 1
    for _ in range(q - 1):
        exp.append(a)
        a = ctx._raw_mul(a, ctx.generator)
    dlog = [None] * q
    for i, v in enumerate(exp):
        dlog[v] = i
    one_plus = [a + 1 if a % p != p - 1 else a + 1 - p for a in exp]
    zech = [dlog[a] for a in one_plus]
    neg = [0] + [
        a if p == 2 else exp[(dlog[a] + (q - 1) // 2) % (q - 1)] for a in range(1, q)
    ]
    return exp, dlog, zech, neg


@pytest.mark.parametrize(
    "p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 12), (3, 5)]
)
def test_tables_match_raw_mul_stepping(p, k):
    ctx = make_field(p, k)
    assert (ctx._exp, ctx._dlog, ctx._zech, ctx._neg) == stepped_tables(ctx)


# F_2, F_3, F_4, F_5, F_8, F_9, F_25, F_27 and F_65521.
KERNEL_FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (65521, 1)
]


@lru_cache(maxsize=None)
def field(p, k):
    return make_field(p, k)


def elements(ctx):
    """Field elements, zero drawn often even where q is large."""
    return st.one_of(st.just(0), st.integers(min_value=0, max_value=ctx.q - 1))


def schoolbook_divide(ctx, a, b):
    """Long division with scalar add, mul, neg and inv, one digit at a time:
    the quotient negated, top digit first, and the stripped remainder."""
    rem, quo, db = list(a), [], len(b) - 1
    scale = ctx.neg(ctx.inv(b[-1]))
    while len(rem) > db:
        digit = ctx.mul(rem.pop(), scale)
        quo.append(digit)
        for j in range(db):
            i = len(rem) - db + j
            rem[i] = ctx.add(rem[i], ctx.mul(digit, b[j]))
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


@pytest.mark.parametrize("p,k", [pk for pk in KERNEL_FIELDS if pk[0] ** pk[1] <= 9])
def test_divide_matches_schoolbook_exhaustively(p, k):
    """Every dividend of degree <= 2, zero top entries and the empty list
    included, by every divisor of degree 1."""
    ctx = field(p, k)
    elems = range(ctx.q)
    dividends = [list(a) for n in range(4) for a in itertools.product(elems, repeat=n)]
    for b in itertools.product(elems, ctx.units()):
        for a in dividends:
            assert ctx.divide(a, b) == schoolbook_divide(ctx, a, b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_divide_matches_schoolbook(pk, data):
    """divide against schoolbook_divide on dividends with zero entries,
    constant divisors, dividends shorter than the divisor and multiples of
    the divisor, whose remainder is zero."""
    ctx = field(*pk)
    b = data.draw(st.lists(elements(ctx), max_size=4))
    b.append(data.draw(st.integers(min_value=1, max_value=ctx.q - 1)))
    shape = data.draw(st.sampled_from(["any", "shorter", "multiple"]))
    if shape == "multiple":
        c = Polynomial(ctx, data.draw(st.lists(elements(ctx), max_size=5)))
        a = list((Polynomial(ctx, b) * c).coeffs)
    else:
        size = len(b) - 1 if shape == "shorter" else 9
        a = data.draw(st.lists(elements(ctx), max_size=size))
    given_a, given_b = list(a), list(b)
    quo, rem = ctx.divide(a, b)
    assert (quo, rem) == schoolbook_divide(ctx, a, b)
    assert (a, b) == (given_a, given_b)  # the operands are left as they were
    assert len(rem) < len(b)
    if shape == "multiple":
        assert rem == []
    if shape == "shorter":
        assert quo == [] and rem == list(Polynomial(ctx, a).coeffs)


@pytest.mark.parametrize("p,k", [pk for pk in KERNEL_FIELDS if pk[0] ** pk[1] <= 27])
def test_add_scaled_matches_scalar_arithmetic_exhaustively(p, k):
    """Every u + a*v by the row update in divide: [u, -a] by x + v has the
    one digit a and remainder u + a*v.  Zero scales and every sum that
    cancels (1 + g^i = 0) included."""
    ctx = field(p, k)
    for a, u, v in itertools.product(range(ctx.q), repeat=3):
        total = ctx.add(u, ctx.mul(a, v))
        assert ctx.divide([u, ctx.neg(a)], [v, 1]) == ([a], [total] if total else [])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_add_scaled_matches_scalar_arithmetic(pk, data):
    """acc[j] += a * row[j] by the row update in divide, against scalar add
    and mul: acc with top -a*lead, by row with top lead, has the one digit a.
    Rows with zero entries, zero scales and entries that the update cancels."""
    ctx = field(*pk)
    a = data.draw(elements(ctx))
    row = data.draw(st.lists(elements(ctx), max_size=8))
    lead = data.draw(st.integers(min_value=1, max_value=ctx.q - 1))
    acc = data.draw(st.lists(elements(ctx), min_size=len(row), max_size=len(row)))
    cancelled = data.draw(st.sets(st.integers(0, len(row) - 1))) if row else set()
    for j in cancelled:
        acc[j] = ctx.neg(ctx.mul(a, row[j]))  # the sum there is 0
    expected = [ctx.add(u, ctx.mul(a, v)) for u, v in zip(acc, row)]
    while expected and not expected[-1]:
        expected.pop()
    top = ctx.neg(ctx.mul(a, lead))
    assert ctx.divide(acc + [top], row + [lead]) == ([a], expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([pk for pk in KERNEL_FIELDS if pk != (65521, 1)]), st.data())
def test_values_match_evaluate(pk, data):
    """f(x) at every x against Polynomial.evaluate, also for coefficient
    lists with zero entries and zero top coefficients."""
    ctx = field(*pk)
    coeffs = data.draw(st.lists(elements(ctx), max_size=9))
    f = Polynomial(ctx, coeffs)
    expected = [f.evaluate(x) for x in range(ctx.q)]
    assert ctx.values(coeffs) == expected
    assert ctx.values(f.coeffs) == expected


@pytest.mark.parametrize(
    "coeffs", [(), (0,), (5,), (0, 1), (65520, 0, 1), (3, 0, 0, 65519, 0, 1)]
)
def test_values_match_evaluate_over_f_65521(coeffs):
    ctx = field(65521, 1)
    f = Polynomial(ctx, coeffs)
    assert ctx.values(coeffs) == [f.evaluate(x) for x in range(ctx.q)]


# sha256 of repr((q, modulus, generator, _exp, _dlog, _zech, _neg)) over
# PINNED_FIELDS, in order; k = 1 fields have no Zech or negation table.
FIELD_TABLES_SHA256 = "985e38e7c1cb20e4eb3aa177fef940a15c74b2e67c9427f78d0aa8caf8c0073e"
PINNED_FIELDS = sorted(
    ((p, k) for p in range(2, 1025) if prime_factors(p) == [p]
     for k in range(1, 11) if p**k <= 1024),
    key=lambda pk: pk[0] ** pk[1],
) + [(2, 16), (3, 10)]


def test_field_tables_are_pinned():
    """Every prime power q <= 1024, plus F_{2^16} and F_{3^10}: a change to
    the modulus, the generator or any table changes the digest."""
    assert len(PINNED_FIELDS) == 200
    digest = hashlib.sha256()
    for p, k in PINNED_FIELDS:
        ctx = make_field(p, k)
        row = (
            ctx.q, ctx.modulus, ctx.generator, ctx._exp, ctx._dlog,
            getattr(ctx, "_zech", None), getattr(ctx, "_neg", None),
        )
        digest.update(repr(row).encode())
    assert digest.hexdigest() == FIELD_TABLES_SHA256


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(abelcover.__path__))
)
def test_each_module_imports_in_a_fresh_interpreter(module):
    # field imports polyring at module level; polyring must not import field
    # back, or importing either one first would meet a half-built module.
    src = os.path.dirname(os.path.dirname(abelcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", "import abelcover.%s" % module],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
