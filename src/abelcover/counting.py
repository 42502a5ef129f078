"""Character-sum point counting for cover tuples.

For a tuple (c, (f_alpha)) and each index pair (s, omega) the derived
polynomial is

    F_(s)^(omega) = c_(s)^(omega) * prod_alpha f_alpha^(e_alpha),
    e_alpha = sum_j (ell/s_j) omega_j alpha_j  reduced to [0, ell),

and the number of points of the cover above x in P^1(F_q) is the sum over all
pairs of chi_ell(F_(s)^(omega)(x)).  That sum is evaluated here through the
A_beta dichotomy: at a point whose vanishing pattern has class beta the count
is |A_beta| when every surviving value is 1 and 0 otherwise.  An exact
cyclotomic-integer cross-check confirms the dichotomy against the literal
root-of-unity sum, and a brute-force y-search oracle confirms it at
unramified points.

Inside this module a pair is its position in enumerate_index_pairs(G), and
an f_alpha its position in G.nonzero_vectors(), the alpha order that
CoverTuple.validate demands; IndexPair keys appear only in a
PointEvaluation's pattern, built on first read.  All counting needs of a
group is one character table, chi = {v: pair_weight(pair, v) per position}
over v in G, in one memo, _plan(r), which holds no field.  The key of f at
x is 0 where f(x) = 0, else 1 + dlog f(x) mod exp(G), a multiple of every
ell.  Every point state comes from _point_state: (beta, {position: chi at
v, None where chi at beta is nonzero}), with beta the alpha with
f_alpha(x) = 0 (else 0) and v = sum_alpha (key_alpha - 1) alpha mod r the
Kummer class; the plan memoises it by (beta, v), the one state memo.  At
infinity beta = -d_vec and v = 0.  The one count rule, _count_above, adds
the c-part (chi at the class of the leading units) and applies the
dichotomy.  count_points (and eval_at) take one cover's keys from
FieldCtx.values; the one walk, space_count_histogram, takes them from
per-degree key tables (_key_table: bytes, one translate per x of polyring's
value column, so walks need q <= 256) and, the other coordinates fixed,
reads the packed count row (all classes of leading units) at x by one
entry of column x of the innermost coordinate's table: no Python step per
tuple.
space_pattern_histogram is counted, not walked.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul

from .errors import (
    BadOrder,
    DimensionMismatch,
    InternalInconsistency,
    MultipleVanishing,
    RamifiedPoint,
)
from .field import CharValue, FieldCtx
from .groupcomb import (
    GroupSpec, IndexPair, class_of, enumerate_index_pairs, pair_weight
)
from .moduli import (
    CoverTuple, DegreeVector, component_degree_maps, space_components
)
from .numtheory import divisors
from .polyring import (
    Polynomial, _value_columns, count_coprime_tuples, enumerate_coprime_tuples
)

INFINITY = "inf"


@dataclass(frozen=True)
class DerivedPolynomial:
    pair: IndexPair
    constant: int  # element of F_q^*
    exponents: tuple[tuple[tuple[int, ...], int], ...]  # (alpha, e_alpha)
    poly: Polynomial  # the monic product, constant excluded


class PointEvaluation:
    """The cover above one point x (an int in F_q, or INFINITY): the
    vanishing class beta, the value pattern {IndexPair: CharValue} and the
    count.  pattern may be given as a function of no arguments that returns
    it; it is then built on first read."""

    __slots__ = ("x", "beta", "_pattern", "count")
    __hash__ = None

    def __init__(self, x, beta: tuple[int, ...], pattern, count: int):
        self.x, self.beta, self._pattern, self.count = x, beta, pattern, count

    @property
    def pattern(self) -> dict:
        if not isinstance(self._pattern, dict):
            self._pattern = self._pattern()
        return self._pattern

    def _fields(self) -> tuple:
        return self.x, self.beta, self.pattern, self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointEvaluation):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "PointEvaluation(x=%r, beta=%r, pattern=%r, count=%r)" % self._fields()


@dataclass
class PointCountReport:
    points: list[PointEvaluation]
    total: int
    trace: int  # Tr(Frob_q) = q + 1 - total

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "trace": self.trace,
            "points": [
                {
                    "x": pt.x,
                    "beta": list(pt.beta),
                    "count": pt.count,
                    "pattern": [
                        {
                            "s": list(pair.s),
                            "omega": list(pair.omega),
                            "order": val.order,
                            "exponent": val.exponent,
                        }
                        # enumerate_index_pairs order, which is (s, omega) order
                        for pair, val in pt.pattern.items()
                    ],
                }
                for pt in self.points
            ],
        }


def derived_polys(ctx: FieldCtx, G: GroupSpec, t: CoverTuple) -> list[DerivedPolynomial]:
    """One DerivedPolynomial per index pair; exactly |G| of them.  The
    literal definition, kept as the reference the tests count against."""
    out = []
    polys = t.polys()
    for pair in enumerate_index_pairs(G):
        ell = pair.ell
        exps = {alpha: pair_weight(pair, alpha) for alpha in G.nonzero_vectors()}
        prod = Polynomial.one(ctx)
        for alpha, e in exps.items():
            if e:
                prod = prod * polys[alpha] ** e
        const = 1
        for cj, sj, wj in zip(t.c, pair.s, pair.omega):
            const = ctx.mul(const, ctx.pow(cj, ell // sj * wj % ell))
        out.append(
            DerivedPolynomial(pair, const, tuple(exps.items()), prod)
        )
    return out


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low first) of the n-th cyclotomic polynomial over Z:
    x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly, rem = _divmod_z(poly, _cyclotomic_poly(d))
        assert not any(rem), "non-exact cyclotomic division"
    return tuple(poly)


def _divmod_z(num: list[int], den: tuple) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den over Z, low first."""
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quo[i - dd] = c
            for j, b in enumerate(den):
                rem[i - dd + j] -= c * b
    return quo, rem[:dd]


def _cyclotomic_consistent(plan: _Plan, exps: dict, c_part: tuple, count: int) -> bool:
    """Whether the exact sum of the values at a point, zeta_ell^(a + c) at
    each position with an exponent a (c its c-part), equals count, i.e.
    sum zeta^(e_i) - count = 0 in Z[zeta_{r_n}]."""
    r_n = plan.G.exponent
    vec = [0] * r_n
    for a, c, ell in zip(exps.values(), c_part, plan.ells):
        if a is not None:
            vec[(a + c) % ell * (r_n // ell)] += 1
    vec[0] -= count
    if not any(vec):
        return True
    return not any(_divmod_z(vec, _cyclotomic_poly(r_n))[1])


def _count_above(surviving: tuple, exps: dict, b: tuple) -> int:
    """The A_beta dichotomy at one point: |A_beta| when every (i, ell) of
    surviving = A_beta has exps[i] + b[i] = 0 mod ell (b the c-part), else 0."""
    for i, ell in surviving:
        a = exps[i]
        if a is None or (a + b[i]) % ell:
            return 0
    return len(surviving)


def eval_at(
    ctx: FieldCtx, G: GroupSpec, t: CoverTuple, x, check: bool = True
) -> PointEvaluation:
    """Value pattern and point count of the cover above x (finite or
    INFINITY): the entry for x of count_points, with x checked first."""
    index = _point_index(ctx, x)
    return count_points(ctx, G, t, check=check).points[index]


def count_points(
    ctx: FieldCtx, G: GroupSpec, t: CoverTuple, check: bool = True
) -> PointCountReport:
    """Point count over every x in P^1(F_q) plus the total and Tr(Frob_q).
    Leading units outside (F_q^*)^n raise DimensionMismatch, as in
    CoverTuple.validate; with check=True, a point where the exact cyclotomic
    sum of the values disagrees with the A_beta dichotomy raises
    InternalInconsistency.  Each point's pattern is built on first read."""
    check_order(G, ctx.q)
    t.check_units(ctx, G)
    plan = _plan(G.r)
    c_part = plan.chi[tuple(map(int.__mod__, map(ctx.dlog, t.c), G.r))]
    data = _component_point_data(ctx, G, t.polys())
    points = []
    for x, (beta, exps) in zip([*range(ctx.q), INFINITY], data):
        count = _count_above(plan.supports[beta], exps, c_part)
        if check and not _cyclotomic_consistent(plan, exps, c_part, count):
            raise InternalInconsistency(
                f"cyclotomic sum disagrees with dichotomy count at x={x}"
            )
        pattern = partial(_pattern, plan, exps, c_part)
        points.append(PointEvaluation(x, beta, pattern, count))
    total = sum(pt.count for pt in points)
    return PointCountReport(points, total, ctx.q + 1 - total)


def _pattern(plan: _Plan, exps: dict, c_part: tuple) -> dict:
    """A point's pattern {IndexPair: CharValue}, from its exponents exps
    (None where the value is 0) and the c-part c_part."""
    return {
        pair: CharValue(ell, None if a is None else (a + c) % ell)
        for pair, a, c, ell in zip(plan.pairs, exps.values(), c_part, plan.ells)
    }


def oracle_count(ctx: FieldCtx, G: GroupSpec, t: CoverTuple, x: int) -> int:
    """Brute-force count above a finite unramified x: the number of solutions
    (y_1,...,y_n) of y_j^{r_j} = F_j(x), found by exhaustive search."""
    values = {alpha: f.evaluate(x) for alpha, f in t.polys().items()}
    if 0 in values.values():
        raise RamifiedPoint(f"some f_alpha vanishes at x = {x}")
    out = 1
    for j, rj in enumerate(G.r):
        target = t.c[j]
        for alpha, v in values.items():
            target = ctx.mul(target, ctx.pow(v, alpha[j]))
        out *= sum(1 for y in range(ctx.q) if ctx.pow(y, rj) == target)
    return out


def _point_index(ctx: FieldCtx, x) -> int:
    """Position of x in the point order 0, 1, ..., q-1, INFINITY.  A finite
    point is an int (not a float or bool), as in CoverTuple.check_units."""
    if x == INFINITY:
        return ctx.q
    if type(x) is not int or not 0 <= x < ctx.q:
        raise DimensionMismatch(f"{x!r} is not a point of P^1(F_{ctx.q})")
    return x


def _key_table(ctx: FieldCtx, E: int, d: int) -> bytes:
    """The keys of every monic degree-d polynomial at every x, code-major:
    entry code * q + x is 0 where f(x) = 0, else 1 + dlog f(x) mod E, for the
    f of base-q code a_0 + a_1 q + ...  Per x the values of the non-leading
    parts over all codes (polyring._value_columns, weights x^i, so q <= 256
    and every key <= E <= q - 1 fits a byte) are mapped by v -> key(v + x^d)
    and written to column x."""
    q, key, pow_ = ctx.q, _point_keys(ctx, E), ctx.pow
    table = bytearray(q ** (d + 1))
    for x, column in enumerate(_value_columns(ctx, d, pow_)):
        keyed = [key[ctx.add(v, pow_(x, d))] for v in range(q)]
        table[x::q] = column.translate(bytes(keyed + [0] * (256 - q)))
    return bytes(table)


def _point_keys(ctx: FieldCtx, E: int) -> list:
    """The key of each v in F_q, by v: 0 for v = 0, else 1 + dlog v mod E."""
    return [0, *(1 + ctx.dlog(v) % E for v in range(1, ctx.q))]


def _point_state(plan: _Plan, keys: tuple, x) -> tuple:
    """The key -> state rule.  keys[i] is 0 where f_(plan.alphas[i])
    vanishes at x, else 1 + its dlog mod exp(G).  The state is the plan's at
    beta_x, the vanishing alpha (0 if none), and the Kummer class v =
    sum_alpha (key_alpha - 1) alpha mod r (chi is linear in v; the -beta_x
    of the key 0 moves only positions where chi at beta_x is nonzero)."""
    zeros = keys.count(0)
    if zeros > 1:
        raise MultipleVanishing(f"{zeros} polynomials vanish at {x}")
    beta = plan.alphas[keys.index(0)] if zeros else plan.zero
    v = tuple([(sum(map(mul, keys, col)) - s) % rj for col, s, rj in plan.columns])
    return plan.state(beta, v)


def _component_point_data(ctx: FieldCtx, G: GroupSpec, polys: dict) -> list:
    """The point states (_point_state) at 0, ..., q-1, then the state at
    INFINITY (_Plan.infinity_state), without the c-part, for one cover, from
    the keys of each f_alpha's values (FieldCtx.values).  polys is read in
    G.nonzero_vectors() order; keyed by other alphas, it raises DimensionMismatch."""
    plan = _plan(G.r)
    if polys.keys() != set(plan.alphas):
        raise DimensionMismatch(f"f is not keyed by the nonzero alphas of {G.r}")
    fs = [polys[alpha] for alpha in plan.alphas]
    key = _point_keys(ctx, G.exponent)
    keys = [list(map(key.__getitem__, ctx.values(f.coeffs))) for f in fs]
    data = [_point_state(plan, k, x) for x, k in enumerate(zip(*keys))]
    data.append(plan.infinity_state(tuple(max(f.degree, 0) for f in fs)))
    return data


def check_order(G: GroupSpec, q: int) -> None:
    """Every counting path calls this before it counts: it rejects a group
    whose exponent does not divide q-1 (no characters of that order exist)."""
    if (q - 1) % G.exponent:
        raise BadOrder(f"exp(G) = {G.exponent} does not divide q-1 = {q - 1}")


class _Plan:
    """What counting needs of a group G, besides the field: its nonzero
    alphas in the one order every cover holds them, and per coordinate j
    their entries, the sum of those and r_j (columns); the index pairs and
    their orders; the character table chi = {v: pair_weight(pair, v) per
    position} over v in G and the supports read from it ({beta: the
    (position, ell) of A_beta}); the point states by (beta, v), made once."""

    __slots__ = (
        "G", "zero", "alphas", "columns", "pairs", "ells", "chi", "supports", "_states"
    )

    def __init__(self, G: GroupSpec):
        self.G, self.zero, self.alphas = G, (0,) * G.n, tuple(G.nonzero_vectors())
        cols = tuple(zip(*self.alphas))
        self.columns = tuple(zip(cols, map(sum, cols), G.r))
        self.pairs = pairs = enumerate_index_pairs(G)
        self.ells = ells = tuple(p.ell for p in pairs)
        chi = {v: tuple(pair_weight(p, v) for p in pairs) for v in G.all_vectors()}
        self.supports = {
            beta: tuple((pos, ell) for pos, ell in enumerate(ells) if not row[pos])
            for beta, row in chi.items()
        }
        self.chi, self._states = chi, {}

    def state(self, beta: tuple, v: tuple) -> tuple:
        """The point state of vanishing class beta and Kummer class v:
        (beta, {position: chi at v, or None where chi at beta is nonzero})."""
        state = self._states.get((beta, v))
        if state is None:
            rows = enumerate(zip(self.chi[beta], self.chi[v]))
            state = beta, {i: None if b else e for i, (b, e) in rows}
            self._states[beta, v] = state
        return state

    def infinity_state(self, degrees: tuple) -> tuple:
        """The state at infinity where f_(alphas[i]) has degree degrees[i]:
        beta = -d_vec = -sum_alpha d(alpha) alpha, and v = 0 (f_alpha monic)."""
        beta = [-sum(map(mul, degrees, col)) % rj for col, _, rj in self.columns]
        return self.state(tuple(beta), self.zero)


@lru_cache(maxsize=None)
def _plan(r: tuple) -> _Plan:
    """The _Plan of GroupSpec(r): the one memo of the counting paths, keyed by
    r (a GroupSpec hashes in Python) and holding no field."""
    return _Plan(GroupSpec(r))


# -- bulk harnesses -----------------------------------------------------


def space_count_histogram(ctx: FieldCtx, G: GroupSpec, dv: DegreeVector) -> Counter:
    """Histogram of #C(P^1(F_q)) over the full space, as count_points on
    every enumerated tuple would give it.  The c-block runs over the |G|
    classes of leading units, each weighted (q-1)^n/|G|.  A state's counts
    for all classes are packed into one integer, class k in bits k*b to
    k*b+b-1 (b bits hold a total, at most |G|(q+1)); a tuple's total is one
    sum of the packed rows of its points, which the coprime walk's _each hook
    (totals) reads per x from a Column by the innermost coordinate's key."""
    q, key_table = ctx.q, lru_cache(maxsize=None)(partial(_key_table, ctx, G.exponent))
    check_order(G, q)
    components = space_components(ctx, G, dv)
    plan = _plan(G.r)
    classes, supports = list(plan.chi.values()), plan.supports
    bits = (G.size * (q + 1)).bit_length()

    def pack(state):
        counts = (_count_above(supports[state[0]], state[1], b) for b in classes)
        return sum(n << k * bits for k, n in enumerate(counts))

    class Column(dict):
        """Packed rows by the key at slot; at = (slot, *the other keys)."""

        def __init__(self, at):
            self.at = at

        def __missing__(self, key):
            slot, *keys = self.at
            keys.insert(slot, key)
            self[key] = row = pack(_point_state(plan, tuple(keys), None))
            return row

    column = lru_cache(maxsize=None)(Column)

    def totals(chosen, slot, d, selected):
        table, ok = memoryview(key_table(d)), bytes(selected)  # columns uncopied
        ats = zip(itertools.repeat(slot, q), *chosen[:slot], *chosen[slot + 1 :])
        lookups = (column(at).__getitem__ for at in ats)
        keys = (itertools.compress(table[x::q], ok) for x in range(q))
        return map(sum, zip(*map(map, lookups, keys)))

    def key_row(d, code):
        return key_table(d)[code * q : code * q + q]

    tally = Counter()
    for _, degmap in components:
        infinity = pack(plan.infinity_state(tuple(map(degmap.get, plan.alphas))))
        finite = enumerate_coprime_tuples(ctx, degmap, key_row, _each=totals)
        try:
            tally.update(map(infinity.__add__, finite))
        except MultipleVanishing as exc:  # coprime tuples share no root: a bug
            try:
                for polys in enumerate_coprime_tuples(ctx, degmap):  # names the point
                    _component_point_data(ctx, G, polys)
            except MultipleVanishing as named:
                raise InternalInconsistency(str(named)) from named
            raise InternalInconsistency(str(exc)) from exc
    weight, out = (q - 1) ** G.n // G.size, Counter()
    for row, m in tally.items():
        for k in range(G.size):
            out[row >> k * bits & (1 << bits) - 1] += m * weight
    return out


def space_pattern_histogram(ctx: FieldCtx, G: GroupSpec, dv: DegreeVector, x) -> Counter:
    """Histogram, over the full space, of the value pattern at a fixed x,
    keyed by (class representative of beta, all-surviving-values-are-one).
    Counted, not walked: given beta at x, the class of the leading units is
    uniform over G, and e(beta) of the |G| classes make every surviving value
    one.  At infinity a component's covers all have beta = -d_vec, its tag."""
    q, zero, hist = ctx.q, (0,) * G.n, Counter()
    finite, units = _point_index(ctx, x) < q, (q - 1) ** G.n
    check_order(G, q)
    for tag, degmap in component_degree_maps(G, dv):
        if not finite:
            vanishing = [(tag or zero, count_coprime_tuples(q, degmap.values()))]
        else:
            # t -> t + a permutes the tuples and the q monic linear polynomials,
            # so each t - x is coprime to 1/q of the coprime (tuple, t - y)
            # pairs.  f_alpha(x) = 0 means f_alpha = (t - x) g, deg g = d - 1.
            lowered = [(zero, degmap)]
            lowered += [(a, {**degmap, a: d - 1}) for a, d in degmap.items() if d]
            vanishing = [
                (beta, count_coprime_tuples(q, [*degrees.values(), 1]) // q)
                for beta, degrees in lowered
            ]
        for beta, n in vanishing:
            cls, m = class_of(G, beta), units * n
            ones = m * cls.e // G.size
            hist[cls.representative, True] += ones
            hist[cls.representative, False] += m - ones
    return +hist
