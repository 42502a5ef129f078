"""Run one abelcover benchmark workload and print its metrics.

    python3 bench/run.py --workload {enumerate,sample,law} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the fixed job of the workload is repeated for about S
seconds and the end-to-end metrics are medians over the repetitions.  With
--trace 1 the job runs once untraced and once traced, and the per-layer
metrics are printed; the spans and counters go to .bench_out/.  The last
line of the output is one JSON object with the keys correct, attempted,
failed and metrics.  The package is imported from src/ of this tree; the
run fails without printing a result if it is not there.
"""

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["enumerate", "sample", "law"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    try:
        import abelcover
    except ImportError as exc:
        print("error: cannot import abelcover from %s: %s" % (SRC_DIR, exc), file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(abelcover.__file__)) != os.path.join(SRC_DIR, "abelcover"):
        print("error: abelcover was imported from %s, not from %s"
              % (abelcover.__file__, SRC_DIR), file=sys.stderr)
        return 2
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
