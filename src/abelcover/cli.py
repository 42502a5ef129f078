"""Command-line interface.

Subcommands:

``genus``
    Print the genus of the covers in a moduli space, with the
    per-branch-point contributions.

``count``
    Count rational points on a single cover given explicitly.

``distribution``
    Enumerate (or sample) a moduli space, histogram the point counts,
    and compare against the theoretical law.  Output is CSV.

``verify``
    Run the built-in cross-check suite.

Exit codes: 0 success, 1 internal invariant violation, 2 bad input.
"""

import argparse
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction

from . import field as field_mod
from . import polyring
from .counting import (
    check_order,
    count_points,
    oracle_count,
    space_count_histogram,
    space_pattern_histogram,
)
from .distribution import (
    compare,
    pattern_probability,
    point_denominator,
    single_point_law,
    total_law,
)
from .errors import AbelCoverError, InternalInconsistency, RamifiedPoint
from .groupcomb import (
    GroupSpec,
    a_beta,
    beta_classes,
    check_admissible_decomposition,
    class_of,
    enumerate_index_pairs,
    phi_G,
    ram_exponent,
)
from .moduli import (
    alpha_map,
    component_sizes,
    degrees_from_json,
    enumerate_space,
    genus,
    genus_contributions,
    genus_invariance_check,
    make_cover_tuple,
    normalize_degrees,
    sample_space,
)
from .numtheory import divisors, euler_phi


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _pick(args, config, name, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _pick_json(args, config, name, what):
    """A required option, decoded when it is given as a JSON string."""
    value = _pick(args, config, name)
    if value is None:
        raise ValueError("missing --%s (%s)" % (name, what))
    return json.loads(value) if isinstance(value, str) else value


def _int(value, what):
    """value, which must be an int; a config file's floats and bools are not."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return value


def _text(value, what):
    """value, a string or None; a config file's numbers and bools are not."""
    if value is not None and not isinstance(value, str):
        raise ValueError("%s must be a string, not %r" % (what, value))
    return value


def _int_list(value, what):
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError("%s must be a JSON list of integers, not %r" % (what, value))
    return value


def _build_context(args, config):
    """The field and the group, checked for exp(G) | q-1 before any alpha
    map of the group is built."""
    p = _pick(args, config, "p")
    if p is None:
        raise ValueError("missing --p (field characteristic)")
    k = _pick(args, config, "k", 1)
    ctx = field_mod.make_field(_int(p, "--p"), _int(k, "--k"))
    group = _build_group(args, config)
    check_order(group, ctx.q)
    return ctx, group


def _build_group(args, config):
    r = _pick(args, config, "r")
    if r is None:
        raise ValueError("missing --r (cyclic factor orders)")
    if isinstance(r, str):
        r = [int(part) for part in r.split(",") if part.strip()]
    return GroupSpec(tuple(_int_list(r, "--r")))


def _build_degrees(args, config, group):
    raw = _pick_json(args, config, "degrees", "branch degrees")
    return normalize_degrees(group, raw)


# ---------------------------------------------------------------------------
# genus


def cmd_genus(args, config):
    group = _build_group(args, config)
    dv = _build_degrees(args, config, group)
    g = genus(group, dv)
    contrib = genus_contributions(group, dv)
    payload = {
        "group": list(group.r),
        "degrees": json.loads(dv.to_json()),
        "genus": g,
        "contributions": [
            {"alpha": list(alpha), "term": term} for alpha, term in contrib.items()
        ],
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# count


def cmd_count(args, config):
    ctx, group = _build_context(args, config)
    raw_f = _pick_json(args, config, "f", "branch polynomials")
    c = _pick_json(args, config, "c", "leading unit vector")
    # Keys are read as --degrees reads them; an unmentioned alpha gets f = 1.
    polys = {
        alpha: polyring.Polynomial(ctx, _int_list(coeffs, "coefficients"))
        for alpha, coeffs in alpha_map(group, raw_f, [1]).items()
    }
    cover = make_cover_tuple(_int_list(c, "--c"), polys)
    cover.validate(ctx, group)
    report = count_points(ctx, group, cover)
    json.dump(report.to_json_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# distribution


def _histogram_for(ctx, group, dv, mode, draws, seed):
    if mode == "enumerate":
        return space_count_histogram(ctx, group, dv)
    covers = sample_space(ctx, group, dv, draws, seed)
    return Counter(count_points(ctx, group, c, check=False).total for c in covers)


def cmd_distribution(args, config):
    ctx, group = _build_context(args, config)
    mode = _pick(args, config, "mode", "enumerate")
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be enumerate or sample, not %r" % (mode,))
    draws = _int(_pick(args, config, "draws", 2000), "--draws")
    if draws < 1:
        raise ValueError("--draws must be at least 1, not %d" % draws)
    seed = _int(_pick(args, config, "seed", 0), "--seed")
    ladder = _pick(args, config, "ladder")
    out_path = _text(_pick(args, config, "out"), "--out")
    lines = []
    if ladder is not None:
        if isinstance(ladder, str):
            ladder = json.loads(ladder)
        if not isinstance(ladder, list):
            raise ValueError(
                "--ladder must be a JSON list of degree maps, not %r" % (ladder,)
            )
        lines.append("degrees,tv_num,tv_den,tv_float")
        law = None
        for raw in ladder:
            dv = degrees_from_json(group, raw)
            hist = _histogram_for(ctx, group, dv, mode, draws, seed)
            # One law for every rung, built after the first histogram so that
            # its input errors are reported first, as without a ladder.
            if law is None:
                law = total_law(group, ctx.q)
            tv = compare(hist, law).tv
            label = dv.to_json().replace('"', '""')
            lines.append(
                '"%s",%d,%d,%.12g'
                % (label, tv.numerator, tv.denominator, float(tv))
            )
    else:
        dv = _build_degrees(args, config, group)
        hist = _histogram_for(ctx, group, dv, mode, draws, seed)
        law = total_law(group, ctx.q)
        report = compare(hist, law)
        lines.append("value,empirical_num,empirical_den,theory_num,theory_den")
        for row in report.csv_rows(law, hist):
            lines.append(",".join(str(x) for x in row))
        tv = report.tv
        lines.append("tv,%d,%d,," % (tv.numerator, tv.denominator))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify


class VerificationFailure(Exception):
    """A named cross-check did not hold."""

    def __init__(self, check, detail):
        super().__init__("%s: %s" % (check, detail))
        self.check = check
        self.detail = detail


def _require(condition, check, detail):
    if not condition:
        raise VerificationFailure(check, detail)


def check_field_characters():
    """Character orthogonality, multiplicativity and coherence."""
    for p, k in [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]:
        ctx = field_mod.make_field(p, k)
        q = ctx.q
        for m in divisors(q - 1)[1:]:
            total = [0] * m
            for a in ctx.units():
                val = field_mod.character(ctx, m, a)
                total[val.exponent] += 1
            _require(
                all(t == (q - 1) // m for t in total),
                "field",
                "character of order %d not equidistributed over F_%d" % (m, q),
            )
            for a in ctx.units():
                for b in ctx.units():
                    lhs = field_mod.character(ctx, m, ctx.mul(a, b))
                    rhs = field_mod.character(ctx, m, a).times(
                        field_mod.character(ctx, m, b)
                    )
                    _require(
                        lhs == rhs, "field", "multiplicativity failed in F_%d" % q
                    )
        for m in divisors(q - 1):
            for d in divisors(q - 1):
                if m % d:
                    continue
                for a in ctx.units():
                    big = field_mod.character(ctx, m, a)
                    small = field_mod.character(ctx, d, a)
                    _require(
                        big.power(m // d) == small.in_order(m),
                        "field",
                        "coherence failed for orders %d | %d in F_%d" % (d, m, q),
                    )


def check_polynomial_counts():
    """Monic and squarefree enumeration sizes against closed forms, and the
    squarefree sieve against the gcd test."""
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        ctx = field_mod.make_field(p, k)
        q = ctx.q
        for d in range(0, 5):
            monic = list(polyring.enumerate_monic(ctx, d))
            _require(
                len(monic) == q**d,
                "polyring",
                "monic count wrong for q=%d d=%d" % (q, d),
            )
            sf = [f for f in monic if polyring.is_squarefree(f)]
            _require(
                len(sf) == polyring.count_squarefree(ctx, d),
                "polyring",
                "squarefree count wrong for q=%d d=%d" % (q, d),
            )
            _require(
                list(polyring.enumerate_squarefree(ctx, d)) == sf,
                "polyring",
                "squarefree sieve disagrees with the gcd test for q=%d d=%d" % (q, d),
            )


def check_group_combinatorics():
    """Index-pair partition sizes and the phi_G sum rule."""
    chains = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4)]
    for r in chains:
        G = GroupSpec(r)
        pairs = enumerate_index_pairs(G)
        _require(
            len(pairs) == G.size,
            "groupcomb",
            "index pair count != |G| for %s" % (r,),
        )
        total = sum(s * phi_G(G, s) for s in sorted({p.ell for p in pairs}))
        hand = sum(
            math.lcm(*(rj // math.gcd(rj, bj) for rj, bj in zip(G.r, beta)))
            for beta in G.all_vectors()
        )
        _require(
            total == hand,
            "groupcomb",
            "sum of s*phi_G(s) mismatch for %s" % (r,),
        )
        for beta in G.all_vectors():
            _require(
                len(a_beta(G, beta)) * ram_exponent(G, beta) == G.size,
                "groupcomb",
                "|A_beta| * e(beta) != |G| for %s" % (r,),
            )
        covered = sum(len(cls.members) for cls in beta_classes(G))
        _require(covered == G.size, "groupcomb", "classes do not partition R")


def check_genus():
    """Hyperelliptic genus and component invariance."""
    G = GroupSpec((2,))
    for g in range(0, 6):
        d = 2 * g + 2
        dv = degrees_from_json(G, {"1": d})
        _require(
            genus(G, dv) == g,
            "genus",
            "hyperelliptic genus wrong at d=%d" % d,
        )
    cases = [
        ((3,), {"1": 2, "2": 2}),
        ((2, 2), {"1,0": 2, "0,1": 2, "1,1": 2}),
        ((2, 4), {"1,0": 2, "0,1": 4}),
    ]
    for r, raw in cases:
        group = GroupSpec(r)
        dv = degrees_from_json(group, raw)
        _require(
            genus_invariance_check(group, dv),
            "genus",
            "component genera disagree for %s" % (r,),
        )


def check_oracle():
    """Character-sum counts against the brute-force fibre oracle, the
    number of enumerated covers against the counted space size, sampled
    covers against the enumerated ones, and the bulk count histogram and the
    pattern histograms at 0 and infinity against the per-cover counts."""
    jobs = [
        (3, 1, (2,), {"1": 2}),
        (5, 1, (2,), {"1": 4}),
        (7, 1, (3,), {"1": 1, "2": 1}),
        (5, 1, (2, 2), {"1,0": 1, "0,1": 1, "1,1": 1}),
        (2, 2, (3,), {"1": 1, "2": 1}),
        (3, 2, (4,), {"1": 1, "3": 1}),
    ]
    for p, k, r, raw in jobs:
        ctx = field_mod.make_field(p, k)
        group = GroupSpec(r)
        dv = degrees_from_json(group, raw)
        covers = list(enumerate_space(ctx, group, dv))
        _require(
            len(covers) == sum(component_sizes(ctx, group, dv).values()),
            "oracle",
            "%d covers enumerated, not the counted size, for q=%d r=%s"
            % (len(covers), ctx.q, r),
        )
        population = set(covers)
        _require(
            all(cover in population for cover in sample_space(ctx, group, dv, 20, 0)),
            "oracle",
            "a sampled cover is not in the enumerated space for q=%d r=%s" % (ctx.q, r),
        )
        counts, patterns = Counter(), {0: Counter(), "inf": Counter()}
        for cover in covers:
            report = count_points(ctx, group, cover)
            counts[report.total] += 1
            for ev in (report.points[0], report.points[-1]):
                rep = class_of(group, ev.beta).representative
                patterns[ev.x][(rep, ev.count > 0)] += 1
            for ev in report.points:
                _require(
                    check_admissible_decomposition(group, ev.pattern),
                    "oracle",
                    "inadmissible pattern at x=%s for q=%d r=%s" % (ev.x, ctx.q, r),
                )
                if ev.x == "inf":
                    continue
                try:
                    direct = oracle_count(ctx, group, cover, ev.x)
                except RamifiedPoint:
                    continue
                _require(
                    direct == ev.count,
                    "oracle",
                    "count mismatch at x=%s for q=%d r=%s" % (ev.x, ctx.q, r),
                )
        _require(
            space_count_histogram(ctx, group, dv) == counts,
            "oracle",
            "bulk count histogram disagrees with the covers for q=%d r=%s" % (ctx.q, r),
        )
        for x, tally in patterns.items():
            _require(
                space_pattern_histogram(ctx, group, dv, x) == tally,
                "oracle",
                "pattern histogram (x=%s) disagrees with the covers for q=%d r=%s"
                % (x, ctx.q, r),
            )


def check_distribution():
    """Normalization and reconstruction of the single-point law."""
    for r in [(2,), (3,), (2, 2), (2, 4)]:
        group = GroupSpec(r)
        for q in (3, 5, 7, 9, 13):
            if (q - 1) % group.exponent:
                continue
            law = single_point_law(group, q)
            _require(
                sum(pr for _, pr in law.probs) == 1,
                "distribution",
                "single point law not normalized for %s q=%d" % (r, q),
            )
            denom = point_denominator(group, q)
            rebuilt = Counter()
            for cls in beta_classes(group):
                e = cls.e
                weight = Fraction(len(cls.members), euler_phi(e))
                if e == 1:
                    p_all = Fraction(q, denom)
                else:
                    p_all = Fraction(e * euler_phi(e), denom) * weight
                sets = group.size // e
                rebuilt[sets] += p_all
                rebuilt[0] += p_all * (sets - 1)
            rebuilt = {v: p for v, p in rebuilt.items() if p}
            _require(
                rebuilt == law.as_dict(),
                "distribution",
                "pattern reconstruction disagrees with the law for %s q=%d"
                % (r, q),
            )


def _pattern_total(group, q):
    """Sum of pattern probabilities over all multiplicity splittings, added
    as integer numerators over their common denominator D^(q+1)."""
    classes = beta_classes(group)
    n = q + 1
    denom = point_denominator(group, q) ** n
    total = 0
    for split in itertools.product(range(n + 1), repeat=len(classes)):
        if sum(split) != n:
            continue
        mult = {cls.representative: m for cls, m in zip(classes, split) if m}
        weight = math.factorial(n) // math.prod(map(math.factorial, split))
        weight *= math.prod((group.size // c.e) ** m for c, m in zip(classes, split))
        pr = pattern_probability(group, q, mult)
        total += weight * pr.numerator * (denom // pr.denominator)
    return Fraction(total, denom)


def check_pattern_totals():
    """Pattern probabilities sum to one over all splittings."""
    for r, q in [((2,), 3), ((2,), 5), ((3,), 7), ((2, 2), 5)]:
        group = GroupSpec(r)
        total = _pattern_total(group, q)
        _require(
            total == 1,
            "pattern",
            "pattern probabilities sum to %s for %s q=%d" % (total, r, q),
        )


CHECKS = [
    ("field", check_field_characters),
    ("polyring", check_polynomial_counts),
    ("groupcomb", check_group_combinatorics),
    ("genus", check_genus),
    ("oracle", check_oracle),
    ("distribution", check_distribution),
    ("pattern", check_pattern_totals),
]


def run_verification(only=None, out=None):
    """Run the named cross-checks; return the number of failures."""
    emit = out if out is not None else lambda line: print(line)
    failures = 0
    for name, fn in CHECKS:
        if only is not None and only not in name:
            continue
        try:
            fn()
        except VerificationFailure as exc:
            failures += 1
            emit("FAIL %s (%s)" % (name, exc.detail))
        except AbelCoverError as exc:
            failures += 1
            emit("FAIL %s (%s)" % (name, exc))
        else:
            emit("ok   %s" % name)
    return failures


def cmd_verify(args, config):
    only = _text(_pick(args, config, "only"), "--only")
    failures = run_verification(only=only)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="abelcover",
        description="Abelian covers of the projective line over finite fields.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def field_group_flags(sp):
        sp.add_argument("--p", type=int, help="field characteristic")
        sp.add_argument("--k", type=int, help="extension degree (default 1)")
        sp.add_argument("--r", help="comma-separated cyclic factor orders")

    sp = sub.add_parser("genus", help="genus of the covers in a moduli space")
    field_group_flags(sp)
    sp.add_argument("--degrees", help="JSON map from index vector to degree")
    sp.set_defaults(func=cmd_genus)

    sp = sub.add_parser("count", help="count rational points on one cover")
    field_group_flags(sp)
    sp.add_argument("--c", help="JSON list of leading units")
    sp.add_argument("--f", help="JSON map from index vector to coefficients")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser(
        "distribution", help="histogram point counts over a moduli space"
    )
    field_group_flags(sp)
    sp.add_argument("--degrees", help="JSON map from index vector to degree")
    sp.add_argument("--ladder", help="JSON list of degree maps")
    sp.add_argument("--mode", choices=["enumerate", "sample"])
    sp.add_argument("--draws", type=int, help="sample size in sample mode")
    sp.add_argument("--seed", type=int, help="sampling seed")
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_distribution)

    sp = sub.add_parser("verify", help="run the built-in cross-check suite")
    sp.add_argument("--only", help="restrict to checks whose name contains this")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except InternalInconsistency as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    except (AbelCoverError, ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
