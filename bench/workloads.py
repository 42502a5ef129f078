"""The benchmark's three workloads: their inputs, set-up, timed job and the
exact checks on every output.

``enumerate``
    In-process ``abelcover distribution`` in enumerate mode over three
    spaces.  Polyring enumeration and the bulk count histogram do most of
    the work, in different proportions per space; ``distribution`` does
    almost none.  Deterministic: the seed is ignored.
``sample``
    ``sample_space`` plus ``count_points(check=False)`` per draw, as the
    CLI's sample mode runs them, at degrees out of enumeration range.
    Exercises rejection sampling, the component-size weighting and the
    per-cover evaluation path.  The seed drives the draws.
``law``
    The exact limiting law over a grid of (G, q), pattern probabilities over
    all class compositions, the Euler-product size term and one TV
    comparison.  ``distribution`` does nearly all the work; it bypasses
    enumeration and counting.  Deterministic: the seed is ignored.

Every workload reports every end-to-end metric, so every workload also
times covers one at a time (``next()`` on the cover iterator, then
``count_points``): ``sample`` in its job, ``enumerate`` on the first covers
of each of its spaces and ``law`` on the small space whose histogram it
compares against the law.  The last two run this probe between the timed
parts of the job, outside them, and draw its covers PROBE_BATCH at a time
before counting them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from abelcover import cli, counting, distribution, field, groupcomb, moduli
from abelcover.errors import RamifiedPoint

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Space:
    """One moduli space: F_{p^k}, G = Z/r_1 x ... x Z/r_n, branch degrees."""

    p: int
    k: int
    r: tuple
    degrees: tuple  # sorted (alpha key, degree) pairs, keys as in the CLI

    @property
    def key(self) -> str:
        return "q=%d^%d r=%s d=%s" % (
            self.p, self.k, ",".join(map(str, self.r)), self.degrees_json()
        )

    def degrees_json(self) -> str:
        return json.dumps(dict(self.degrees), sort_keys=True)

    def build(self):
        ctx = field.make_field(self.p, self.k)
        G = groupcomb.GroupSpec(self.r)
        return ctx, G, moduli.normalize_degrees(G, dict(self.degrees))

    def cli_argv(self) -> list:
        return [
            "distribution", "--p", str(self.p), "--k", str(self.k),
            "--r", ",".join(map(str, self.r)), "--degrees", self.degrees_json(),
        ]


def _space(p, k, r, degrees):
    return Space(p, k, tuple(r), tuple(sorted(degrees.items())))


ENUMERATE_SPACES = (
    _space(5, 1, (2,), {"1": 6}),
    # many polynomials per tuple: gcd-heavy, c-block of 16
    _space(5, 1, (2, 2), {"1,0": 2, "0,1": 2, "1,1": 2}),
    # counting-heavy, and FieldCtx.add decodes digits over F_9
    _space(3, 2, (4,), {"1": 4}),
)
SAMPLE_SPACES = (
    _space(5, 1, (2,), {"1": 8}),
    _space(5, 1, (2, 2), {"1,0": 4, "0,1": 4, "1,1": 4}),
    _space(3, 2, (4,), {"1": 8}),
)
# The space whose exact histogram the law workload compares with the law.
LAW_PROBE_SPACE = _space(5, 1, (2,), {"1": 4})

# Every divisor chain with |G| <= 16 (the criterion-5 chains).
LAW_CHAINS = (
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
    (13,), (14,), (15,), (16,),
    (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4),
    (2, 2, 2), (2, 2, 4), (2, 2, 2, 2),
)
LAW_Q_MAX = 19
# Two large convolutions at q = 49, with short and long supports.
LAW_EXTRA = (((4, 4), 49), ((12,), 49))
PATTERN_CASES = (
    ((2,), 3), ((2,), 5), ((3,), 7), ((4,), 5), ((2, 2), 5), ((2, 4), 5),
    ((2, 2, 2), 3),
)
# (chain, q, sum of degrees) for size_main_term at truncation degree 8.
SIZE_CASES = (((2, 2), 5, 6), ((4,), 5, 8), ((2, 4), 5, 6), ((16,), 17, 4))

ENUMERATE_PROBE_COVERS = 800
PROBE_BATCH = 50
SAMPLE_DRAWS = 400
SAMPLE_BLOCK = 50


def prime_powers(bound):
    out = []
    for q in range(2, bound + 1):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        n = q
        while n % p == 0:
            n //= p
        if n == 1:
            out.append(q)
    return out


def law_grid(chains=LAW_CHAINS, q_max=LAW_Q_MAX, extra=LAW_EXTRA):
    grid = [
        (r, q) for r in chains for q in prime_powers(q_max)
        if (q - 1) % r[-1] == 0
    ]
    return tuple(grid) + tuple(extra)


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fractions_digest(values) -> str:
    return digest(",".join("%d/%d" % (v.numerator, v.denominator) for v in values))


def law_key(r, q) -> str:
    return "%s@%d" % (",".join(map(str, r)), q)


# -- results and checks -------------------------------------------------------

class Tally:
    """Operations attempted and failed; a failure is a mismatch or an
    exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class CoverRun:
    """Per-cover latencies, the point-count totals and the outcome of the
    per-cover checks.  ``elapsed_s`` covers the timed calls only.
    ``extend`` merges the latencies and times."""

    draw_s: list = dataclass_field(default_factory=list)
    cover_s: list = dataclass_field(default_factory=list)
    totals: list = dataclass_field(default_factory=list)
    checks: Tally = dataclass_field(default_factory=Tally)
    elapsed_s: float = 0.0

    def extend(self, other: "CoverRun") -> None:
        self.draw_s.extend(other.draw_s)
        self.cover_s.extend(other.cover_s)
        self.elapsed_s += other.elapsed_s


def time_covers(ctx, G, covers, run: CoverRun, limit=None, batch=1) -> bool:
    """Closed loop with one caller: time next() on the cover iterator, then
    count_points(check=False) on the cover, as the CLI's sample mode does.
    With ``batch`` > 1 the covers are drawn that many at a time, each next()
    timed on its own, and then counted one by one; draws that follow each
    other find the iterator's state in cache, where a draw right after a
    count and its check finds it evicted, and that eviction cost swings with
    the load of other tenants.  Each cover is checked right after it is
    counted, outside the timed calls, and then dropped: holding thousands of
    reports for a later check would make the garbage collector pause inside
    the timed calls.  Stops after ``limit`` covers; returns False once the
    iterator is spent."""
    clock = time.perf_counter
    it = iter(covers)
    n = 0
    while limit is None or n < limit:
        drawn = []
        spent = False
        while len(drawn) < batch and (limit is None or n + len(drawn) < limit):
            t0 = clock()
            cover = next(it, None)
            t1 = clock()
            run.elapsed_s += t1 - t0
            if cover is None:
                spent = True
                break
            run.draw_s.append(t1 - t0)
            drawn.append(cover)
        for cover in drawn:
            t1 = clock()
            report = counting.count_points(ctx, G, cover, check=False)
            t2 = clock()
            run.cover_s.append(t2 - t1)
            run.elapsed_s += t2 - t1
            run.totals.append(report.total)
            check_cover(ctx, G, cover, report, run.checks)
        n += len(drawn)
        if spent:
            return False
    return True


class CoverProbe:
    """Per-cover timing over (ctx, G, covers) sources, advanced ``chunk``
    covers at a time between the parts of a job and the set-ups of a round,
    so that the samples of one round spread over the whole round instead of
    one short spell.  Covers are drawn PROBE_BATCH at a time, from the
    sources in turn, so that any stretch of the samples mixes them."""

    def __init__(self, sources, size: int):
        self.sources = [(ctx, G, iter(covers)) for ctx, G, covers in sources]
        self.size = size
        self.chunk = size
        self.run = CoverRun()

    def divide(self, steps: int) -> None:
        """Advance by an equal share of the covers in each of ``steps``."""
        self.chunk = -(-self.size // max(steps, 1))

    def step(self, n=None) -> None:
        """Time the next ``n`` covers, or all that are left."""
        while self.sources and (n is None or n > 0):
            ctx, G, it = self.sources.pop(0)
            want = PROBE_BATCH if n is None else min(PROBE_BATCH, n)
            before = len(self.run.cover_s)
            if time_covers(ctx, G, it, self.run, want, PROBE_BATCH):
                self.sources.append((ctx, G, it))
            if n is not None:
                n -= len(self.run.cover_s) - before


def check_cover(ctx, G, cover, report, tally: Tally) -> None:
    """validate() the cover and compare its count with the brute-force fibre
    oracle at every unramified finite point."""
    try:
        cover.validate(ctx, G)
        ok = report.total == sum(pt.count for pt in report.points)
        for pt in report.points:
            if pt.x == counting.INFINITY:
                continue
            try:
                ok = ok and counting.oracle_count(ctx, G, cover, pt.x) == pt.count
            except RamifiedPoint:
                continue
    except Exception as exc:  # any exception counts as a failed cover
        tally.record(False, "cover %r raised %r" % (cover, exc))
        return
    tally.record(ok, "cover %r: count differs from the oracle" % (cover,))


def check_distribution_csv(text: str, ref, what: str, tally: Tally) -> None:
    """The CSV of ``abelcover distribution`` against the reference histogram
    and TV distance, exactly."""
    try:
        lines = text.strip().splitlines()
        ok = lines[0] == "value,empirical_num,empirical_den,theory_num,theory_den"
        emp = {}
        for line in lines[1:-1]:
            value, en, ed, _tn, _td = line.split(",")
            if int(en):
                emp[int(value)] = Fraction(int(en), int(ed))
        tag, tv_num, tv_den = lines[-1].split(",")[:3]
        total = sum(ref["hist"].values())
        want = {int(v): Fraction(c, total) for v, c in ref["hist"].items()}
        ok = ok and tag == "tv" and emp == want
        ok = ok and Fraction(int(tv_num), int(tv_den)) == Fraction(*ref["tv"])
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        tally.record(False, "%s: unreadable output (%r)" % (what, exc))
        return
    tally.record(ok, "%s: histogram or TV differs from the reference" % what)


def pattern_total(G, q) -> Fraction:
    """Sum of pattern_probability over every composition of the q+1 points
    into admissibility classes, weighted by the number of point assignments
    and of A_beta choices; the law says it is exactly 1."""
    classes = groupcomb.beta_classes(G)
    sets_per_class = [G.size // cls.e for cls in classes]
    n = q + 1
    total = Fraction(0)
    for split in itertools.product(range(n + 1), repeat=len(classes) - 1):
        last = n - sum(split)
        if last < 0:
            continue
        split = split + (last,)
        weight = math.factorial(n)
        for m, count in zip(split, sets_per_class):
            weight = weight // math.factorial(m) * count**m
        mult = {cls.representative: m for cls, m in zip(classes, split) if m}
        total += weight * distribution.pattern_probability(G, q, mult)
    return total


# -- workloads --------------------------------------------------------------
#
# A workload's job is a list of parts, (label, thunk) pairs.  The harness
# times each part on its own and checks the outputs of a whole job after it.

def _run_cli(s: Space):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(s.cli_argv())
    return s, code, buf.getvalue()


class EnumerateWorkload:
    name = "enumerate"

    def __init__(self, reference, spaces=ENUMERATE_SPACES,
                 probe_covers=ENUMERATE_PROBE_COVERS):
        self.reference = reference
        self.spaces = spaces
        self.probe_covers = probe_covers

    def prepare(self):
        return [s.build() for s in self.spaces]

    def parts(self, state, rng):
        return [(s.key, lambda s=s: _run_cli(s)) for s in self.spaces]

    def job_covers(self) -> int:
        return sum(self.reference["spaces"][s.key]["covers"] for s in self.spaces)

    def check(self, outputs, tally: Tally) -> None:
        for s, code, text in outputs:
            if code != 0:
                tally.record(False, "%s: exit code %d" % (s.key, code))
                continue
            check_distribution_csv(text, self.reference["spaces"][s.key], s.key, tally)

    def probe(self, state) -> CoverProbe:
        return CoverProbe(
            [(ctx, G, itertools.islice(moduli.enumerate_space(ctx, G, dv), self.probe_covers))
             for ctx, G, dv in state],
            self.probe_covers * len(state),
        )

    def check_probe(self, run: CoverRun, tally: Tally) -> None:
        tally.merge(run.checks)


class SampleWorkload:
    name = "sample"

    def __init__(self, reference, spaces=SAMPLE_SPACES, draws=SAMPLE_DRAWS):
        self.reference = reference
        self.spaces = spaces
        self.draws = draws

    def prepare(self):
        return [s.build() for s in self.spaces]

    def parts(self, state, rng):
        """SAMPLE_BLOCK draws from each space in turn, so that each spell
        of the round draws from every space."""
        sources = []
        for s, (ctx, G, dv) in zip(self.spaces, state):
            seed = rng.getrandbits(32)
            sources.append((s, ctx, G, moduli.sample_space(ctx, G, dv, self.draws, seed)))
        out = []
        for start in range(0, self.draws, SAMPLE_BLOCK):
            for s, ctx, G, covers in sources:
                def draw(ctx=ctx, G=G, covers=covers, n=min(SAMPLE_BLOCK, self.draws - start)):
                    run = CoverRun()
                    time_covers(ctx, G, covers, run, n)
                    return run

                out.append(("%s #%d" % (s.key, start), draw))
        return out

    def job_covers(self) -> int:
        return self.draws * len(self.spaces)

    def check(self, runs, tally: Tally) -> None:
        drawn = sum(len(run.totals) for run in runs)
        tally.record(
            drawn == self.job_covers(),
            "drew %d covers, not %d" % (drawn, self.job_covers()),
        )
        for run in runs:
            tally.merge(run.checks)

    def probe(self, state):
        return None


class LawWorkload:
    name = "law"

    def __init__(self, reference, grid=None, patterns=PATTERN_CASES,
                 sizes=SIZE_CASES, probe_space=LAW_PROBE_SPACE):
        self.reference = reference
        self.grid = law_grid() if grid is None else grid
        self.patterns = patterns
        self.sizes = sizes
        self.probe_space = probe_space
        self.compare_hist = None
        if reference is not None:
            hist = reference["spaces"][probe_space.key]["hist"]
            self.compare_hist = {int(v): c for v, c in hist.items()}

    def prepare(self):
        chains = {r for r, _ in self.grid} | {r for r, _ in self.patterns}
        chains |= {r for r, _, _ in self.sizes} | {self.probe_space.r}
        groups = {r: groupcomb.GroupSpec(r) for r in sorted(chains)}
        return groups, self.probe_space.build()

    def parts(self, state, rng):
        groups, (ctx, G, _) = state
        out = [
            ("law " + law_key(r, q),
             lambda r=r, q=q: ("law", (r, q), distribution.total_law(groups[r], q)))
            for r, q in self.grid
        ]
        out += [
            ("pattern " + law_key(r, q),
             lambda r=r, q=q: ("pattern", (r, q), pattern_total(groups[r], q)))
            for r, q in self.patterns
        ]
        out += [
            ("size %s:%d" % (law_key(r, q), d),
             lambda r=r, q=q, d=d: ("size", (r, q, d), distribution.size_main_term(
                 groups[r], q, d, truncation_degree=8)))
            for r, q, d in self.sizes
        ]
        out.append((
            "compare",
            lambda: ("tv", None, distribution.compare(
                self.compare_hist, distribution.total_law(G, ctx.q)).tv),
        ))
        return out

    def job_covers(self) -> int:
        return 0

    def check(self, outputs, tally: Tally) -> None:
        ref = self.reference
        for kind, key, value in outputs:
            if kind == "law":
                r, q = key
                ok = digest(value.to_json()) == ref["laws"][law_key(r, q)]
                single = distribution.single_point_law(groupcomb.GroupSpec(r), q)
                ok = ok and value.mean() == (q + 1) * single.mean()
                tally.record(ok, "total_law %s: digest or mean identity fails" % law_key(r, q))
            elif kind == "pattern":
                tally.record(value == 1, "pattern total %s is %s" % (law_key(*key), value))
            elif kind == "size":
                r, q, d = key
                lo, hi = value
                name = "%s:%d" % (law_key(r, q), d)
                ok = lo <= hi and fractions_digest(value) == ref["sizes"][name]
                tally.record(ok, "size_main_term %s differs from the reference" % name)
            else:
                want = Fraction(*ref["spaces"][self.probe_space.key]["tv"])
                tally.record(value == want, "compare: TV %s, not %s" % (value, want))

    def probe(self, state) -> CoverProbe:
        _, (ctx, G, dv) = state
        size = sum(self.compare_hist.values())
        return CoverProbe([(ctx, G, moduli.enumerate_space(ctx, G, dv))], size)

    def check_probe(self, run: CoverRun, tally: Tally) -> None:
        tally.merge(run.checks)
        tally.record(
            Counter(run.totals) == self.compare_hist,
            "%s: histogram differs from the reference" % self.probe_space.key,
        )


WORKLOADS = {w.name: w for w in (EnumerateWorkload, SampleWorkload, LawWorkload)}
