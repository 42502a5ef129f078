"""Group-theoretic combinatorics for G = Z/r_1 x ... x Z/r_n with r_j | r_{j+1}:
index pairs (s, omega), ramification exponents, the sets A_beta, the orbit
equivalence on exponent vectors, and the admissibility check for value
patterns (zero support plus one class a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from .errors import BadDivisor, DimensionMismatch, InternalInconsistency
from .field import CharValue
from .numtheory import divisors, euler_phi  # noqa: F401 (re-exported)


@dataclass(frozen=True)
class GroupSpec:
    """The abelian group Z/r_1 x ... x Z/r_n, r_j | r_{j+1}."""

    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if not self.r or any(type(rj) is not int or rj < 2 for rj in self.r):
            raise BadDivisor(f"invalid cycle structure {self.r}")
        for a, b in zip(self.r, self.r[1:]):
            if b % a:
                raise BadDivisor(f"divisibility chain fails: {a} does not divide {b}")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def size(self) -> int:
        return prod(self.r)

    @property
    def exponent(self) -> int:
        return self.r[-1]

    def nonzero_vectors(self) -> list[tuple[int, ...]]:
        """The index set of exponent vectors alpha != 0, lexicographic."""
        return [v for v in itertools.product(*(range(rj) for rj in self.r)) if any(v)]

    def all_vectors(self) -> list[tuple[int, ...]]:
        """nonzero_vectors plus the zero vector, lexicographic."""
        return list(itertools.product(*(range(rj) for rj in self.r)))

    def scale(self, m: int, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(m * vj % rj for vj, rj in zip(v, self.r))


@dataclass(frozen=True)
class IndexPair:
    """A basis index (s, omega): s_j | r_j, 1 <= omega_j <= s_j coprime to s_j."""

    s: tuple[int, ...]
    omega: tuple[int, ...]

    @property
    def ell(self) -> int:
        return lcm(*self.s)

    @property
    def is_trivial(self) -> bool:
        return all(sj == 1 for sj in self.s)

    def shifted(self, G: GroupSpec) -> tuple[int, ...]:
        """Image in the shifted index set [1..r_1] x ... x [1..r_n]."""
        return tuple(
            rj // sj * wj for rj, sj, wj in zip(G.r, self.s, self.omega)
        )


@dataclass(frozen=True)
class BetaClass:
    """An orbit {m*beta : gcd(m, e(beta)) = 1} of exponent vectors sharing A_beta."""

    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    e: int


def ram_exponent(G: GroupSpec, v) -> int:
    """e(v) = lcm_j r_j / gcd(r_j, v_j); also the order of v as a group element."""
    v = tuple(v)
    if len(v) != G.n:
        raise DimensionMismatch(f"expected {G.n} components, got {len(v)}")
    return lcm(*(rj // gcd(rj, vj) for rj, vj in zip(G.r, v)))


@lru_cache(maxsize=None)
def enumerate_index_pairs(G: GroupSpec) -> tuple[IndexPair, ...]:
    """All (s, omega) pairs in deterministic order; there are exactly |G|."""
    pairs = []
    for s in itertools.product(*(divisors(rj) for rj in G.r)):
        omega_ranges = [
            [w for w in range(1, sj + 1) if gcd(w, sj) == 1] for sj in s
        ]
        for omega in itertools.product(*omega_ranges):
            pairs.append(IndexPair(s, omega))
    return tuple(pairs)


def pair_weight(pair: IndexPair, beta) -> int:
    """sum_j (ell/s_j) * omega_j * beta_j mod ell."""
    ell = pair.ell
    return (
        sum(ell // sj * wj * bj for sj, wj, bj in zip(pair.s, pair.omega, beta)) % ell
    )


@lru_cache(maxsize=None)
def a_beta(G: GroupSpec, beta: tuple[int, ...]) -> frozenset[IndexPair]:
    """A_beta: the index pairs whose derived polynomial survives at roots of
    f_beta.  |A_beta| = |G| / e(beta).

    Cross-checked against the shifted-index description of the same set; a
    mismatch means an implementation bug.
    """
    pairs = frozenset(
        pair for pair in enumerate_index_pairs(G) if pair_weight(pair, beta) == 0
    )
    rn = G.exponent
    shifted_all = {pair.shifted(G): pair for pair in enumerate_index_pairs(G)}
    if len(shifted_all) != G.size:
        raise InternalInconsistency("shifted index map is not injective")
    shifted = frozenset(
        v
        for v in shifted_all
        if sum(rn // rj * vj * bj for rj, vj, bj in zip(G.r, v, beta)) % rn == 0
    )
    if shifted != frozenset(pair.shifted(G) for pair in pairs):
        raise InternalInconsistency("A_beta representations disagree")
    return pairs


@lru_cache(maxsize=None)
def beta_classes(G: GroupSpec) -> tuple[BetaClass, ...]:
    """Partition of all exponent vectors (zero included) into orbit classes.

    Computed by the scaling-orbit rule and cross-validated against equality of
    the A_beta sets, which the two must induce identically.
    """
    seen = set()
    classes = []
    for beta in G.all_vectors():
        if beta in seen:
            continue
        e = ram_exponent(G, beta)
        members = sorted(
            {G.scale(m, beta) for m in range(1, e + 1) if gcd(m, e) == 1}
        )
        seen.update(members)
        classes.append(BetaClass(min(members), tuple(members), e))

    by_aset: dict[frozenset, set] = {}
    for beta in G.all_vectors():
        by_aset.setdefault(a_beta(G, beta), set()).add(beta)
    orbit_partition = {frozenset(c.members) for c in classes}
    aset_partition = {frozenset(v) for v in by_aset.values()}
    if orbit_partition != aset_partition:
        raise InternalInconsistency(
            "orbit rule and A_beta-equality induce different partitions"
        )
    return tuple(classes)


def class_of(G: GroupSpec, beta) -> BetaClass:
    beta = tuple(beta)
    for c in beta_classes(G):
        if beta in c.members:
            return c
    raise DimensionMismatch(f"{beta} is not an exponent vector for {G.r}")


def phi_G(G: GroupSpec, s: int) -> int:
    """Number of elements of G of order s (s must divide exp(G))."""
    if s < 1 or G.exponent % s:
        raise BadDivisor(f"{s} does not divide exp(G) = {G.exponent}")
    return sum(1 for v in G.all_vectors() if ram_exponent(G, v) == s)


def check_admissible_decomposition(G: GroupSpec, pattern: dict) -> bool:
    """Whether a value pattern {IndexPair -> CharValue} could come from
    evaluating a cover tuple at a point: it is 0 exactly off A_beta for some
    beta, and on A_beta each value is chi_(s,omega)(a) = zeta_ell^e for one
    class a in G, e * (r_n/ell) = sum_j omega_j (r_n/s_j) a_j mod r_n.  The
    exponent e is compared unreduced, so only 0 <= e < ell can match.
    """
    if set(pattern) != set(enumerate_index_pairs(G)):
        return False
    for pair, val in pattern.items():
        if not isinstance(val, CharValue) or val.order != pair.ell:
            return False
    live = frozenset(pair for pair, val in pattern.items() if not val.is_zero)
    if not any(live == a_beta(G, beta) for beta in G.all_vectors()):
        return False
    r_n = G.exponent
    rows = [
        (pattern[pair].exponent * (r_n // pair.ell), pair.s, pair.omega)
        for pair in live
    ]
    return any(
        all(
            e == sum(wj * (r_n // sj) * aj for sj, wj, aj in zip(s, omega, a)) % r_n
            for e, s, omega in rows
        )
        for a in G.all_vectors()
    )
