"""Degree vectors, the congruence constraints d_j = 0 mod r_j, the genus
formula, and enumeration / sampling of the cover-tuple spaces.

A space is a union of components: the plain component with the prescribed
degrees, plus one "dropped" component per nonzero exponent vector beta with
d(beta) >= 1, in which the beta-coordinate degree is lowered by one and the
point at infinity ramifies instead.  All components carry the same genus.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from bisect import bisect
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .errors import (
    BudgetExceeded,
    CongruenceViolation,
    DimensionMismatch,
    MultipleVanishing,
    NegativeGenus,
    NonIntegralGenus,
    RejectionStall,
)
from .field import FieldCtx
from .groupcomb import GroupSpec, ram_exponent
from .polyring import (
    Polynomial,
    count_coprime_tuples,
    enumerate_coprime_tuples,
    is_squarefree,
    poly_gcd,
)

DEFAULT_BUDGET = 10_000_000
STALL_LIMIT = 20_000  # rejected candidates per draw before RejectionStall


@dataclass(frozen=True)
class DegreeVector:
    """Non-negative degrees d(alpha), one per nonzero exponent vector, with
    every derived d_j = sum_alpha alpha_j d(alpha) divisible by r_j."""

    group: GroupSpec
    degrees: tuple[tuple[tuple[int, ...], int], ...]  # sorted (alpha, d) pairs

    def degree_of(self, alpha) -> int:
        return dict(self.degrees)[tuple(alpha)]

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.degrees)

    @property
    def d_vec(self) -> tuple[int, ...]:
        return d_vec(self.group, self.as_dict())

    @property
    def total(self) -> int:
        return sum(d for _, d in self.degrees)

    def to_json(self) -> str:
        return json.dumps(
            {",".join(map(str, a)): d for a, d in self.degrees}, sort_keys=True
        )


def d_vec(G: GroupSpec, degmap: Mapping) -> tuple[int, ...]:
    """d_j = sum_alpha alpha_j * d(alpha) for a map {alpha: degree}."""
    out = [0] * G.n
    for alpha, d in degmap.items():
        for j, aj in enumerate(alpha):
            out[j] += aj * d
    return tuple(out)


def alpha_map(G: GroupSpec, raw: Mapping, fill) -> dict:
    """{alpha: value} over every nonzero exponent vector, unmentioned alphas
    set to fill.  Keys may be tuples or comma-joined strings (the JSON wire
    form); a raw value that is not a mapping, or a key that is not a nonzero
    exponent vector, raises DimensionMismatch.
    """
    if not isinstance(raw, Mapping):
        raise DimensionMismatch(f"expected a map keyed by alpha, got {raw!r}")
    out = dict.fromkeys(G.nonzero_vectors(), fill)
    for key, value in raw.items():
        if isinstance(key, str):
            alpha = tuple(int(x) for x in key.split(","))
        else:
            alpha = tuple(key)
        if len(alpha) != G.n:
            raise DimensionMismatch(f"alpha key {key!r} has wrong length for n = {G.n}")
        if alpha not in out:
            raise DimensionMismatch(f"{alpha} is not a nonzero exponent vector")
        out[alpha] = value
    return out


def normalize_degrees(G: GroupSpec, raw: Mapping) -> DegreeVector:
    """Validate a raw degree assignment and fill unmentioned alphas with 0.

    Keys are read by alpha_map; a degree that is not a non-negative integer
    raises ValueError.  Raises CongruenceViolation naming the first
    offending coordinate j.
    """
    degrees = alpha_map(G, raw, 0)
    for alpha, d in degrees.items():
        if type(d) is not int:
            raise ValueError(f"degree {d!r} is not an integer")
        if d < 0:
            raise ValueError(f"degree of {alpha} must be non-negative, not {d}")
    dv = DegreeVector(G, tuple(sorted(degrees.items())))
    for j, (dj, rj) in enumerate(zip(dv.d_vec, G.r), start=1):
        if dj % rj:
            raise CongruenceViolation(j, dj, rj)
    return dv


def degrees_from_json(G: GroupSpec, data) -> DegreeVector:
    """Accept either a JSON string or an already-decoded mapping."""
    if isinstance(data, str):
        data = json.loads(data)
    return normalize_degrees(G, data)


def genus_contributions(G: GroupSpec, dv: DegreeVector) -> dict:
    """Per-alpha terms (|G| - |G|/e(alpha)) * d(alpha) of the genus display."""
    size = G.size
    return {
        alpha: (size - size // ram_exponent(G, alpha)) * d
        for alpha, d in dv.degrees
    }


def _degrees_span_group(G: GroupSpec, dv: DegreeVector) -> bool:
    """Whether the branched alpha generate all of Z/r_1 x ... x Z/r_n."""
    span = {(0,) * G.n}
    for alpha, d in dv.degrees:
        if d == 0:
            continue
        frontier = set(span)
        while frontier:
            nxt = {
                tuple((v + a) % r for v, a, r in zip(vec, alpha, G.r))
                for vec in frontier
            } - span
            span |= nxt
            frontier = nxt
    return len(span) == G.size


def genus(G: GroupSpec, dv: DegreeVector) -> int:
    """g with 2g + 2|G| - 2 = sum_alpha (|G| - |G|/e(alpha)) d(alpha).

    The all-zero degree vector describes the trivial cover, a disjoint union
    of lines; its curve side is a genus-0 line, so g = 0 by convention there.
    When the branched alpha fail to generate the group the cover is
    geometrically disconnected and the Euler-characteristic bookkeeping can
    legitimately be negative; NegativeGenus is reserved for spanning data.
    """
    if all(d == 0 for _, d in dv.degrees):
        return 0
    rhs = sum(genus_contributions(G, dv).values())
    twice = rhs + 2 - 2 * G.size
    if twice % 2:
        raise NonIntegralGenus(f"2g = {twice} is odd for degrees {dv.degrees}")
    g = twice // 2
    if g < 0 and _degrees_span_group(G, dv):
        raise NegativeGenus(f"g = {g} for degrees {dv.degrees}")
    return g


def component_degree_maps(
    G: GroupSpec, dv: DegreeVector
) -> list[tuple[Optional[tuple[int, ...]], dict]]:
    """(tag, {alpha: degree}) per component: tag None for the plain component,
    beta for a dropped component (present only when d(beta) >= 1)."""
    base = dv.as_dict()
    out = [(None, dict(base))]
    for beta in G.nonzero_vectors():
        if base[beta] >= 1:
            dropped = dict(base)
            dropped[beta] -= 1
            out.append((beta, dropped))
    return out


def genus_invariance_check(G: GroupSpec, dv: DegreeVector) -> bool:
    """Recompute the genus of every component, infinity term included, and
    confirm all agree with genus(G, dv)."""
    size = G.size
    expected = genus(G, dv)
    for tag, degmap in component_degree_maps(G, dv):
        rhs = sum(
            (size - size // ram_exponent(G, alpha)) * d
            for alpha, d in degmap.items()
        )
        rhs += size - size // ram_exponent(G, d_vec(G, degmap))
        # 2g of the component; the all-zero (trivial) component has g = 0
        twice = rhs + 2 - 2 * size if any(degmap.values()) else 0
        if twice != 2 * expected:
            return False
    return True


@dataclass(frozen=True)
class CoverTuple:
    """One element (c, (f_alpha)) of the hatted space: leading coefficients
    c_j in F_q^* plus the squarefree pairwise-coprime polynomial tuple.
    tag records the component: None = plain, beta = dropped."""

    c: tuple[int, ...]
    f: tuple[tuple[tuple[int, ...], Polynomial], ...]  # sorted (alpha, poly)
    tag: Optional[tuple[int, ...]] = None

    def polys(self) -> dict[tuple[int, ...], Polynomial]:
        return dict(self.f)

    def check_units(self, ctx: FieldCtx, G: GroupSpec) -> None:
        """The contract's first clause, which counting checks too: c in
        (F_q^*)^n, each c_j an int (as normalize_degrees demands of degrees)."""
        if len(self.c) != G.n or any(
            type(cj) is not int or not 1 <= cj < ctx.q for cj in self.c
        ):
            raise DimensionMismatch("leading-coefficient vector invalid")

    def validate(self, ctx: FieldCtx, G: GroupSpec) -> None:
        """The cover contract: c in (F_q^*)^n (check_units) and one monic
        squarefree f_alpha over F_q per nonzero alpha, in G.nonzero_vectors()
        order, pairwise coprime (a constant f_alpha is 1)."""
        self.check_units(ctx, G)
        polys = self.polys()
        for alpha, f in polys.items():
            if f.is_zero or any(not 0 <= a < ctx.q for a in f.coeffs):
                raise DimensionMismatch(
                    f"f_{alpha} is not a nonzero polynomial over F_{ctx.q}"
                )
        if not (all(f.is_monic for f in polys.values()) and _accept(polys)):
            raise MultipleVanishing(f"{polys}: not monic, squarefree, coprime")
        if [alpha for alpha, _ in self.f] != G.nonzero_vectors():
            raise DimensionMismatch(f"f is not keyed by the nonzero alphas of {G.r}")


def make_cover_tuple(c, polys: Mapping, tag=None) -> CoverTuple:
    return CoverTuple(
        tuple(c),
        tuple(sorted((tuple(a), f) for a, f in polys.items())),
        None if tag is None else tuple(tag),
    )


def component_sizes(ctx: FieldCtx, G: GroupSpec, dv: DegreeVector) -> dict:
    """Exact component cardinalities (leading coefficients included):
    (q-1)^n times the number of coprime tuples of each component, counted
    from the Euler product, not enumerated."""
    units = (ctx.q - 1) ** G.n
    return {
        tag: units * count_coprime_tuples(ctx.q, degmap.values())
        for tag, degmap in component_degree_maps(G, dv)
    }


def space_components(ctx: FieldCtx, G: GroupSpec, dv: DegreeVector) -> list:
    """component_degree_maps(G, dv), once the exact number of covers
    (component_sizes) is found within ABCOVER_BUDGET (default DEFAULT_BUDGET)."""
    raw = os.environ.get("ABCOVER_BUDGET", DEFAULT_BUDGET)
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"ABCOVER_BUDGET must be an integer, not {raw!r}") from None
    size = sum(component_sizes(ctx, G, dv).values())
    if size > budget:
        raise BudgetExceeded(size, budget)
    return component_degree_maps(G, dv)


def enumerate_space(
    ctx: FieldCtx, G: GroupSpec, dv: DegreeVector
) -> Iterator[CoverTuple]:
    """Every (c, (f_alpha)) of the space exactly once: the components in
    space_components order, walked lazily, with the leading coefficients
    innermost."""
    units = list(range(1, ctx.q))
    for tag, degmap in space_components(ctx, G, dv):
        for polys in enumerate_coprime_tuples(ctx, degmap):
            f = tuple(polys.items())
            for c in itertools.product(units, repeat=G.n):
                yield CoverTuple(c, f, tag)


def _randbelow(rng: random.Random, n: int, count: int) -> list[int]:
    """count values of rng.randrange(n), drawn by randrange's rule on CPython
    3.10-3.13: getrandbits(n.bit_length()), redrawn while >= n.  So the
    values and the state of rng after the draws are randrange's."""
    bits, draw, out = n.bit_length(), rng.getrandbits, []
    for _ in range(count):
        r = draw(bits)
        while r >= n:
            r = draw(bits)
        out.append(r)
    return out


def _random_polys(ctx: FieldCtx, degmap: dict, rng: random.Random) -> dict:
    return {
        alpha: Polynomial(ctx, [*_randbelow(rng, ctx.q, d), 1])
        for alpha, d in degmap.items()
    }


def _accept(polys: dict) -> bool:
    fs = [f for f in polys.values() if f.degree >= 1]
    if any(not is_squarefree(f) for f in fs):
        return False
    for i, f in enumerate(fs):
        for g in fs[:i]:
            if poly_gcd(f, g).degree > 0:
                return False
    return True


def sample_space(
    ctx: FieldCtx,
    G: GroupSpec,
    dv: DegreeVector,
    count: int,
    seed: int,
) -> Iterator[CoverTuple]:
    """count i.i.d. uniform draws from the space, deterministic under seed.

    Components are weighted by their exact sizes; polynomials are then
    rejection-sampled until squarefree and pairwise coprime, at most
    STALL_LIMIT times per draw.  The draws are exactly uniform.  A negative
    count raises ValueError, as an empty space does, on the first draw.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, not {count}")
    rng = random.Random(seed)
    sizes = component_sizes(ctx, G, dv)
    tags = sorted(sizes, key=lambda t: (t is not None, t))
    # random.choices' rule in exact integers, as the sizes may exceed the
    # float range: random() is n/d exactly, and integer cumulative sizes
    # bisect floor(n * total / d) as they bisect n * total / d.
    cum = list(itertools.accumulate(sizes[t] for t in tags))
    if not cum[-1]:
        raise ValueError("every component of the space is empty")
    degmaps = dict(component_degree_maps(G, dv))
    for _ in range(count):
        n, d = rng.random().as_integer_ratio()
        tag = tags[bisect(cum, n * cum[-1] // d, 0, len(tags) - 1)]
        degmap = degmaps[tag]
        for attempt in range(STALL_LIMIT):
            polys = _random_polys(ctx, degmap, rng)
            if _accept(polys):
                break
        else:
            raise RejectionStall(
                f"no acceptance in {STALL_LIMIT} draws for component {tag}"
            )
        c = tuple(1 + r for r in _randbelow(rng, ctx.q - 1, G.n))
        yield CoverTuple(c, tuple(polys.items()), tag)
