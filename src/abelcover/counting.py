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

There is one evaluation path, through point keys.  The key of f at x is 0
where f(x) = 0, else 1 + dlog f(x) mod exp(G); exp(G) is a multiple of every
ell, so the keys fix every exponent.  The key -> state rule
(_point_state) maps the key vector of the f_alpha at x to the point
state (beta_x, {pair: exponent or None}): beta_x the vanishing alpha, the
exponent sum_alpha e_alpha dlog f_alpha(x) mod ell, None where a factor
vanishes, e_alpha = pair_weight(pair, alpha).  _component_point_data gives
the q+1 states of a tuple, memoised per key vector; count_points computes
its keys by Horner evaluation and dlog, the bulk walk reads them from
per-degree key tables by base-q code.  There is one count rule:
_count_above adds the c-part exponent pair_weight(pair, dlog c) to a state
and applies the dichotomy.  count_points (of which eval_at reads one point)
calls it per point; both bulk histograms read it through _space_rows,
memoised per point state.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul
from typing import Optional

from .errors import (
    BadOrder,
    DimensionMismatch,
    InternalInconsistency,
    MultipleVanishing,
    RamifiedPoint,
)
from .field import CharValue, FieldCtx
from .groupcomb import (
    GroupSpec,
    IndexPair,
    a_beta,
    class_of,
    enumerate_index_pairs,
    pair_weight,
)
from .moduli import CoverTuple, DegreeVector, d_vec, space_tuples
from .numtheory import divisors
from .polyring import Polynomial

INFINITY = "inf"


@dataclass(frozen=True)
class DerivedPolynomial:
    pair: IndexPair
    constant: int  # element of F_q^*
    exponents: tuple[tuple[tuple[int, ...], int], ...]  # (alpha, e_alpha)
    poly: Polynomial  # the monic product, constant excluded


@dataclass
class PointEvaluation:
    x: object  # int in F_q, or INFINITY
    beta: tuple[int, ...]
    pattern: dict  # IndexPair -> CharValue
    count: int


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
                        for pair, val in sorted(
                            pt.pattern.items(), key=lambda kv: (kv[0].s, kv[0].omega)
                        )
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
        for alpha in sorted(exps):
            e = exps[alpha]
            if e:
                prod = prod * polys[alpha] ** e
        const = 1
        for cj, sj, wj in zip(t.c, pair.s, pair.omega):
            const = ctx.mul(const, ctx.pow(cj, ell // sj * wj % ell))
        out.append(
            DerivedPolynomial(pair, const, tuple(sorted(exps.items())), prod)
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


def _cyclotomic_consistent(values, count: int, r_n: int) -> bool:
    """Whether the exact sum of the root-of-unity values equals count, i.e.
    sum zeta^(e_i) - count = 0 in Z[zeta_{r_n}]."""
    vec = [0] * r_n
    for v in values:
        if not v.is_zero:
            vec[v.exponent * (r_n // v.order) % r_n] += 1
    vec[0] -= count
    if not any(vec):
        return True
    return not any(_divmod_z(vec, _cyclotomic_poly(r_n))[1])


@lru_cache(maxsize=None)
def _support(G: GroupSpec, beta) -> tuple:
    """A_beta as (pair, ell) entries, and its complement: the pairs whose
    value is 0 at a root of f_beta."""
    surviving = a_beta(G, beta)
    vanishing = frozenset(enumerate_index_pairs(G)) - surviving
    return tuple((pair, pair.ell) for pair in surviving), vanishing


@lru_cache(maxsize=None)
def _char_values(ell: int) -> tuple:
    """The values of an order-ell character: 0, then zeta^0, ..., zeta^(ell-1)."""
    return (CharValue.zero(ell), *(CharValue.root(ell, e) for e in range(ell)))


def _count_above(G: GroupSpec, beta, exps: dict, b: dict) -> int:
    """The A_beta dichotomy at one point: |A_beta| when every surviving pair
    has value 1 (exps[pair] + b[pair] = 0 mod ell, b the c-part), else 0."""
    surviving, _ = _support(G, beta)
    for pair, ell in surviving:
        a = exps[pair]
        if a is None or (a + b[pair]) % ell:
            return 0
    return len(surviving)


def eval_at(
    ctx: FieldCtx, G: GroupSpec, t: CoverTuple, x, check: bool = True
) -> PointEvaluation:
    """Value pattern and point count of the cover above x (finite or
    INFINITY): the entry for x of count_points."""
    return count_points(ctx, G, t, check=check).points[_point_index(ctx, x)]


def count_points(
    ctx: FieldCtx, G: GroupSpec, t: CoverTuple, check: bool = True
) -> PointCountReport:
    """Point count over every x in P^1(F_q) plus the total and Tr(Frob_q).
    Raises InternalInconsistency where the zero support of a pattern is not
    the complement of A_beta or, with check=True, where the exact cyclotomic
    sum of the pattern values disagrees with the A_beta dichotomy."""
    c_part = _unit_exponents(ctx, G, [t.c])[t.c]
    polys = t.polys()
    rows = [
        (pair, ell, _char_values(ell), c_part[pair])
        for pair, ell, _ in _exponent_table(G, tuple(polys))
    ]
    data = _component_point_data(ctx, G, polys)
    points = []
    for x, (beta, exps) in zip([*range(ctx.q), INFINITY], data):
        pattern, zero_support = {}, set()
        for pair, ell, values, c in rows:
            a = exps[pair]
            if a is None:
                pattern[pair] = values[0]
                zero_support.add(pair)
            else:
                pattern[pair] = values[1 + (a + c) % ell]
        if zero_support != _support(G, beta)[1]:
            raise InternalInconsistency(
                f"vanishing pattern at x={x} is not [beta]-admissible"
            )
        count = _count_above(G, beta, exps, c_part)
        if check and not _cyclotomic_consistent(
            pattern.values(), count, G.exponent
        ):
            raise InternalInconsistency(
                f"cyclotomic sum disagrees with dichotomy count at x={x}"
            )
        points.append(PointEvaluation(x, beta, pattern, count))
    total = sum(pt.count for pt in points)
    return PointCountReport(points, total, ctx.q + 1 - total)


def oracle_count(ctx: FieldCtx, G: GroupSpec, t: CoverTuple, x: int) -> int:
    """Brute-force count above a finite unramified x: the number of solutions
    (y_1,...,y_n) of y_j^{r_j} = F_j(x), found by exhaustive search."""
    polys = t.polys()
    if any(f.evaluate(x) == 0 for f in polys.values()):
        raise RamifiedPoint(f"some f_alpha vanishes at x = {x}")
    out = 1
    for j, rj in enumerate(G.r):
        target = t.c[j]
        for alpha, f in polys.items():
            target = ctx.mul(target, ctx.pow(f.evaluate(x), alpha[j]))
        out *= sum(1 for y in range(ctx.q) if ctx.pow(y, rj) == target)
    return out


def _point_index(ctx: FieldCtx, x) -> int:
    """Position of x in the point order 0, 1, ..., q-1, INFINITY."""
    if x == INFINITY:
        return ctx.q
    if x not in range(ctx.q):
        raise DimensionMismatch(f"{x!r} is not a point of P^1(F_{ctx.q})")
    return x


@lru_cache(maxsize=None)
def _exponent_table(G: GroupSpec, alphas: tuple) -> tuple:
    """(pair, ell, ((i, e_alpha) for every e_alpha != 0)) per pair, i the
    position of alpha in alphas (which must hold every nonzero alpha)."""
    table = []
    for pair in enumerate_index_pairs(G):
        exps = ((alphas.index(a), pair_weight(pair, a)) for a in G.nonzero_vectors())
        table.append((pair, pair.ell, tuple((i, e) for i, e in exps if e)))
    return tuple(table)


def _key_table(ctx: FieldCtx, E: int, d: int):
    """The keys of every monic degree-d polynomial at every x, code-major:
    entry code * q + x is 0 where f(x) = 0, else 1 + dlog f(x) mod E, for the
    f of base-q code a_0 + a_1 q + ...  Per x the values over all codes are
    built digit by digit, a_i x^i shifting copies of the previous block, with
    no Horner evaluation.  bytes, or an array of unsigned shorts once
    E >= 255."""
    q = ctx.q
    key = [0] + [1 + ctx.dlog(v) % E for v in range(1, q)]
    shift = [[ctx.add(v, s) for v in range(q)] for s in range(q)]
    if E < 255:
        store = bytes
    else:  # loaded only here: the array module adds to every process's memory
        from array import array

        store = partial(array, "H")
    columns = []
    for x in range(q):
        values = [0]  # of the non-leading part, over the codes so far
        for i in range(d):
            xi = ctx.pow(x, i)
            blocks = (map(shift[ctx.mul(a, xi)].__getitem__, values) for a in range(q))
            values = list(itertools.chain.from_iterable(blocks))
        lead = shift[ctx.pow(x, d)]
        columns.append(store(key[lead[v]] for v in values))
    return store(itertools.chain.from_iterable(zip(*columns)))


def _point_state(G: GroupSpec, table: tuple, alphas: tuple, keys: tuple, x) -> tuple:
    """The key -> state rule.  keys[i] is 0 where f_(alphas[i]) vanishes at
    x, else 1 + its dlog mod exp(G); table is _exponent_table(G, alphas).
    The state is (beta_x, {pair: exponent or None}): beta_x the vanishing
    alpha (0 if none), the exponent sum_alpha e_alpha dlog f_alpha(x) mod
    ell, None where an f_alpha with e_alpha != 0 vanishes (ell divides
    exp(G), so the keys suffice)."""
    vanishing = [alpha for alpha, key in zip(alphas, keys) if not key]
    if len(vanishing) > 1:
        raise MultipleVanishing(f"{len(vanishing)} polynomials vanish at {x}")
    exps = {}
    for pair, ell, pair_exps in table:
        acc = 0
        for i, e in pair_exps:
            key = keys[i]
            if not key:
                acc = None
                break
            acc += e * (key - 1)
        exps[pair] = None if acc is None else acc % ell
    return (vanishing[0] if vanishing else (0,) * G.n), exps


class _Walk:
    """What one bulk walk shares across its tuples: the key tables, one per
    degree in use, built on first use and read by base-q code; the memo of
    point states by key vector, so the pair loop runs once per distinct key
    vector; and the infinity state per degree map.  Nothing outlives the
    walk."""

    def __init__(self, ctx: FieldCtx, G: GroupSpec, alphas: tuple):
        self.ctx, self.E = ctx, G.exponent
        self.table = _exponent_table(G, alphas)
        self.tables: dict = {}
        self.memo: dict = {}
        self.infinity: dict = {}

    def keys(self, polys: dict) -> list:
        q, out = self.ctx.q, []
        for f in polys.values():
            coeffs = f.coeffs
            d = len(coeffs) - 1
            if d not in self.tables:
                weights = [q ** (i + 1) for i in range(d)]
                self.tables[d] = _key_table(self.ctx, self.E, d), weights
            table, weights = self.tables[d]
            start = sum(map(mul, coeffs, weights))  # q * code; a_d = 1 is left out
            out.append(table[start : start + q])
        return out


def _component_point_data(
    ctx: FieldCtx, G: GroupSpec, polys: dict, walk: Optional[_Walk] = None
) -> list:
    """(beta_x, {pair: exponent or None}) at the q+1 points 0, ..., q-1,
    INFINITY.  The exponent is the dlog of prod_alpha f_alpha(x)^(e_alpha)
    mod ell, None where that is 0, without the c-part; at infinity it is 0,
    or None when pair_weight(pair, d_vec) != 0.  The keys come by Horner
    evaluation and dlog or, within a walk, from its key tables, and the
    walk's memos are used.  polys is keyed by every nonzero alpha, in the
    walk's order."""
    alphas = tuple(polys)
    if walk is None:
        E, table, memo, infinity = G.exponent, _exponent_table(G, alphas), {}, {}
        add, mul, dlog = ctx.add, ctx.mul, ctx.dlog
        keys = []
        for f in polys.values():
            lead, *rest = f.coeffs[::-1] or (0,)  # Horner, from the top
            row = []
            for x in range(ctx.q):
                v = lead
                for c in rest:
                    v = add(mul(v, x), c)
                row.append(1 + dlog(v) % E if v else 0)
            keys.append(row)
    else:
        table, memo, infinity = walk.table, walk.memo, walk.infinity
        keys = walk.keys(polys)
    data = [
        memo.get(k) or memo.setdefault(k, _point_state(G, table, alphas, k, x))
        for x, k in enumerate(zip(*keys))
    ]
    degrees = tuple(max(f.degree, 0) for f in polys.values())
    if degrees not in infinity:
        d = d_vec(G, dict(zip(alphas, degrees)))
        beta = tuple(-dj % rj for dj, rj in zip(d, G.r))
        exps = {pair: None if pair_weight(pair, d) else 0 for pair, _, _ in table}
        infinity[degrees] = beta, exps
    data.append(infinity[degrees])
    return data


def _unit_exponents(ctx: FieldCtx, G: GroupSpec, units) -> dict:
    """{c: {pair: dlog of c_(s)^(omega) mod ell}} for each unit vector c.
    Every counting path calls this first, so it rejects a group whose
    exponent does not divide q-1 (no characters of that order exist)."""
    if (ctx.q - 1) % G.exponent:
        raise BadOrder(f"exp(G) = {G.exponent} does not divide q-1 = {ctx.q - 1}")
    pairs = enumerate_index_pairs(G)
    out = {}
    for c in units:
        logs = [ctx.dlog(cj) for cj in c]
        out[c] = {pair: pair_weight(pair, logs) for pair in pairs}
    return out


# -- bulk harnesses -----------------------------------------------------


def _space_rows(ctx, G, dv, budget):
    """Per polynomial tuple of the space, (beta_x, row) at the q+1 points,
    row[i] the count above x for the i-th leading unit vector.  Point keys
    are read from per-degree key tables and the count rows are memoised on
    the point state, so the c-block runs once per state."""
    tuples = space_tuples(ctx, G, dv, budget)
    units = _unit_exponents(ctx, G, itertools.product(range(1, ctx.q), repeat=G.n))
    walk = _Walk(ctx, G, tuple(sorted(dv.as_dict())))

    def counts(point):
        beta, exps = point
        return beta, tuple(_count_above(G, beta, exps, b) for b in units.values())

    # Point states are shared objects that the walk's memos keep alive to
    # its end, so the id of a state keys its row.
    rows = {}
    return (
        [
            rows.get(id(point)) or rows.setdefault(id(point), counts(point))
            for point in _component_point_data(ctx, G, polys, walk)
        ]
        for _, polys in tuples
    )


def space_count_histogram(
    ctx: FieldCtx,
    G: GroupSpec,
    dv: DegreeVector,
    budget: Optional[int] = None,
) -> Counter:
    """Histogram of #C(P^1(F_q)) over the full space.

    Equivalent to running count_points on every enumerated tuple, but the
    point data are shared across the leading-coefficient block.
    """
    hist: Counter = Counter()
    for points in _space_rows(ctx, G, dv, budget):
        hist.update(map(sum, zip(*(row for _, row in points))))
    return hist


def space_pattern_histogram(
    ctx: FieldCtx,
    G: GroupSpec,
    dv: DegreeVector,
    x,
    budget: Optional[int] = None,
) -> Counter:
    """Histogram, over the full space, of the value pattern at a fixed x,
    keyed by (class representative of beta, all-surviving-values-are-one)."""
    idx = _point_index(ctx, x)
    reps = {beta: class_of(G, beta).representative for beta in G.all_vectors()}
    hist: Counter = Counter()
    for points in _space_rows(ctx, G, dv, budget):
        beta, row = points[idx]
        hist.update((reps[beta], n > 0) for n in row)
    return hist
