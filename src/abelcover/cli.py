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
import json
import math
import sys
from fractions import Fraction

from . import field as field_mod
from . import polyring
from .counting import count_points, oracle_count, space_count_histogram
from .distribution import (
    Pmf,
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
    enumerate_index_pairs,
    phi_G,
    ram_exponent,
)
from .moduli import (
    CoverTuple,
    component_sizes,
    degrees_from_json,
    enumerate_space,
    genus,
    genus_invariance_check,
    sample_space,
)
from .numtheory import euler_phi


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


def _build_context(args, config):
    p = _pick(args, config, "p")
    if p is None:
        raise ValueError("missing --p (field characteristic)")
    k = _pick(args, config, "k", 1)
    return field_mod.make_field(int(p), int(k))


def _build_group(args, config):
    r = _pick(args, config, "r")
    if r is None:
        raise ValueError("missing --r (cyclic factor orders)")
    if isinstance(r, str):
        r = [int(part) for part in r.split(",") if part.strip()]
    return GroupSpec(tuple(int(x) for x in r))


def _build_degrees(args, config, group):
    raw = _pick(args, config, "degrees")
    if raw is None:
        raise ValueError("missing --degrees")
    if isinstance(raw, str):
        raw = json.loads(raw)
    return degrees_from_json(group, raw)


# ---------------------------------------------------------------------------
# genus


def cmd_genus(args, config):
    group = _build_group(args, config)
    dv = _build_degrees(args, config, group)
    g = genus(group, dv)
    from .moduli import genus_contributions

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
    ctx = _build_context(args, config)
    group = _build_group(args, config)
    raw_f = _pick(args, config, "f")
    if raw_f is None:
        raise ValueError("missing --f (branch polynomials)")
    if isinstance(raw_f, str):
        raw_f = json.loads(raw_f)
    c = _pick(args, config, "c")
    if c is None:
        raise ValueError("missing --c (leading unit vector)")
    if isinstance(c, str):
        c = json.loads(c)
    c = tuple(int(x) for x in c)
    polys = {}
    for key, coeffs in raw_f.items():
        alpha = tuple(int(part) for part in str(key).split(","))
        polys[alpha] = polyring.Polynomial(ctx, [int(x) for x in coeffs])
    from .moduli import make_cover_tuple

    cover = make_cover_tuple(c, polys)
    cover.validate(ctx, group)
    report = count_points(ctx, group, cover)
    json.dump(report.to_json_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# distribution


def _histogram_for(ctx, group, dv, mode, draws, seed):
    if mode == "enumerate":
        return space_count_histogram(ctx, group, dv), False
    covers = sample_space(ctx, group, dv, draws, seed)
    from collections import Counter

    hist = Counter()
    for cover in covers:
        hist[count_points(ctx, group, cover, check=False).total] += 1
    return hist, True


def _distribution_rows(ctx, group, dv, mode, draws, seed):
    hist, sampled = _histogram_for(ctx, group, dv, mode, draws, seed)
    law = total_law(group, ctx.q)
    report = compare(hist, law, sampled=sampled)
    lines = ["value,empirical_num,empirical_den,theory_num,theory_den"]
    for row in report.csv_rows(law, hist):
        lines.append(",".join(str(x) for x in row))
    return report, lines


def cmd_distribution(args, config):
    ctx = _build_context(args, config)
    group = _build_group(args, config)
    mode = _pick(args, config, "mode", "enumerate")
    draws = int(_pick(args, config, "draws", 2000))
    seed = int(_pick(args, config, "seed", 0))
    ladder = _pick(args, config, "ladder")
    out_path = _pick(args, config, "out")
    lines = []
    if ladder is not None:
        if isinstance(ladder, str):
            ladder = json.loads(ladder)
        lines.append("degrees,tv_num,tv_den,tv_float")
        for raw in ladder:
            dv = degrees_from_json(group, raw)
            report, _rows = _distribution_rows(ctx, group, dv, mode, draws, seed)
            tv = report.tv
            label = dv.to_json().replace('"', '""')
            lines.append(
                '"%s",%d,%d,%.12g'
                % (label, tv.numerator, tv.denominator, float(tv))
            )
    else:
        dv = _build_degrees(args, config, group)
        report, rows = _distribution_rows(ctx, group, dv, mode, draws, seed)
        lines.extend(rows)
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
        for m in [d for d in range(2, q) if (q - 1) % d == 0]:
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
        divisors_of = [d for d in range(1, q) if (q - 1) % d == 0]
        for m in divisors_of:
            for d in divisors_of:
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
    """Monic and squarefree enumeration sizes against closed forms."""
    for q in (2, 3, 5):
        ctx = field_mod.make_field(q)
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
    """Character-sum counts against the brute-force fibre oracle."""
    jobs = [
        (3, (2,), {"1": 2}),
        (5, (2,), {"1": 4}),
        (7, (3,), {"1": 1, "2": 1}),
        (5, (2, 2), {"1,0": 1, "0,1": 1, "1,1": 1}),
    ]
    for q, r, raw in jobs:
        ctx = field_mod.make_field(q)
        group = GroupSpec(r)
        dv = degrees_from_json(group, raw)
        for cover in enumerate_space(ctx, group, dv):
            report = count_points(ctx, group, cover)
            for ev in report.points:
                if ev.x == "inf":
                    continue
                try:
                    direct = oracle_count(ctx, group, cover, ev.x)
                except RamifiedPoint:
                    continue
                _require(
                    direct == ev.count,
                    "oracle",
                    "count mismatch at x=%s for q=%d r=%s" % (ev.x, q, r),
                )
                _require(
                    check_admissible_decomposition(group, ev.pattern),
                    "oracle",
                    "inadmissible pattern at x=%s for q=%d r=%s" % (ev.x, q, r),
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
            rebuilt = {}
            for cls in beta_classes(group):
                e = cls.e
                weight = Fraction(len(cls.members), euler_phi(e))
                if e == 1:
                    p_all = Fraction(q, denom)
                else:
                    p_all = Fraction(e * euler_phi(e), denom) * weight
                sets = group.size // e
                rebuilt[group.size // e] = rebuilt.get(group.size // e, Fraction(0))
                rebuilt[group.size // e] += p_all
                rebuilt[0] = rebuilt.get(0, Fraction(0)) + p_all * (sets - 1)
            rebuilt = {v: p for v, p in rebuilt.items() if p}
            _require(
                rebuilt == law.as_dict(),
                "distribution",
                "pattern reconstruction disagrees with the law for %s q=%d"
                % (r, q),
            )


def _pattern_total(group, q):
    """Sum of pattern probabilities over all multiplicity splittings."""
    classes = beta_classes(group)
    sets_per_class = [group.size // cls.e for cls in classes]
    n = q + 1
    total = Fraction(0)
    for split in _compositions(n, len(classes)):
        mult = {cls.representative: m for cls, m in zip(classes, split) if m}
        weight = math.factorial(n)
        for m in split:
            weight //= math.factorial(m)
        for count, m in zip(sets_per_class, split):
            weight *= count**m
        total += weight * pattern_probability(group, q, mult)
    return total


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, parts - 1):
            yield (head,) + rest


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
    only = _pick(args, config, "only")
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
