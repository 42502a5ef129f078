"""Regenerate bench/reference.json, the exact outputs the benchmark checks.

    python3 bench/make_reference.py

Each value is computed two independent ways and written only if they agree:
every space histogram by the bulk ``space_count_histogram`` and by
``count_points`` on each cover of ``enumerate_space``; every total law by
``convolve_power`` and by q+1 successive convolutions.  Run it only when the
benchmark's inputs change: the checks exist to catch a change of output.
"""

import json
import os
import sys
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from abelcover import counting, distribution, groupcomb, moduli  # noqa: E402

import workloads  # noqa: E402


def space_entry(space):
    ctx, G, dv = space.build()
    bulk = counting.space_count_histogram(ctx, G, dv)
    per_cover = Counter(
        counting.count_points(ctx, G, cover).total
        for cover in moduli.enumerate_space(ctx, G, dv)
    )
    if bulk != per_cover:
        raise SystemExit("%s: bulk and per-cover histograms differ" % space.key)
    tv = distribution.compare(bulk, distribution.total_law(G, ctx.q)).tv
    return {
        "covers": sum(bulk.values()),
        "hist": {str(v): c for v, c in sorted(bulk.items())},
        "tv": [tv.numerator, tv.denominator],
    }


def law_digest(r, q):
    G = groupcomb.GroupSpec(r)
    fast = distribution.total_law(G, q)
    single = distribution.single_point_law(G, q)
    slow = distribution.Pmf.from_dict({0: 1})
    for _ in range(q + 1):
        slow = slow.convolve(single)
    if fast != slow:
        raise SystemExit("total_law %s: convolve_power disagrees" % workloads.law_key(r, q))
    return workloads.digest(fast.to_json())


def main():
    spaces = workloads.ENUMERATE_SPACES + (workloads.LAW_PROBE_SPACE,)
    reference = {
        "spaces": {s.key: space_entry(s) for s in spaces},
        "laws": {workloads.law_key(r, q): law_digest(r, q) for r, q in workloads.law_grid()},
        "sizes": {
            "%s:%d" % (workloads.law_key(r, q), d): workloads.fractions_digest(
                distribution.size_main_term(groupcomb.GroupSpec(r), q, d, truncation_degree=8)
            )
            for r, q, d in workloads.SIZE_CASES
        },
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
