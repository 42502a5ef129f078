"""Self-test of the benchmark: each workload at a tiny size prints every
metric with its unit, per-layer counts repeat exactly, and every check
reports a corrupted output as failed.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import io
import os
import random
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import harness  # noqa: E402
import workloads  # noqa: E402
from abelcover import counting, distribution, groupcomb, moduli  # noqa: E402
from abelcover.errors import RamifiedPoint  # noqa: E402

REFERENCE = workloads.load_reference()


def tiny(name):
    if name == "enumerate":
        return workloads.EnumerateWorkload(
            REFERENCE, spaces=(workloads.LAW_PROBE_SPACE,), probe_covers=20
        )
    if name == "sample":
        space = workloads.Space(5, 1, (2,), (("1", 4),))
        return workloads.SampleWorkload(REFERENCE, spaces=(space,), draws=5)
    return workloads.LawWorkload(
        REFERENCE, grid=(((2,), 5), ((2, 2), 5)), patterns=(((2,), 3),),
        sizes=(((2, 2), 5, 6),),
    )


def job(w):
    tally = workloads.Tally()
    outputs, _ = harness.run_parts(w, w.prepare(), random.Random(0), tally)
    assert tally.failed == 0, tally.errors
    return outputs


def printed(metrics, units, tally):
    buf = io.StringIO()
    harness.report(metrics, units, tally, buf)
    return buf.getvalue().splitlines()


class MetricsPrinted(unittest.TestCase):
    def test_end_to_end_metrics(self):
        names = dict(harness.END_TO_END, failed_frac="ratio")
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                metrics, tally, _ = harness.measure(tiny(name), seed=3, seconds=0)
                lines = printed(metrics, harness.END_TO_END, tally)
                for metric, unit in names.items():
                    self.assertTrue(
                        any(line.startswith("metric %s " % metric) and line.endswith(" " + unit)
                            for line in lines),
                        "%s not printed with unit %s" % (metric, unit),
                    )
                self.assertEqual(tally.failed, 0, tally.errors)
                self.assertGreater(tally.attempted, 0)
                self.assertTrue(lines[-1].startswith('{"correct": true'))

    def test_per_layer_metrics_and_repeatable_counts(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, tally, _ = harness.traced_run(tiny(name), seed=3)
                second, _, _ = harness.traced_run(tiny(name), seed=3)
                lines = printed(first, harness.PER_LAYER, tally)
                for metric, unit in harness.PER_LAYER.items():
                    self.assertTrue(
                        any(line.startswith("metric %s " % metric) and line.endswith(" " + unit)
                            for line in lines),
                        metric,
                    )
                    if unit in ("count", "ratio"):
                        self.assertEqual(first[metric], second[metric], metric)
                self.assertEqual(tally.failed, 0, tally.errors)


class ChecksCanFail(unittest.TestCase):
    def test_corrupted_histogram(self):
        w = tiny("enumerate")
        outputs = job(w)
        space, code, text = outputs[0]
        lines = text.splitlines()
        value, num, den, tn, td = lines[1].split(",")
        lines[1] = ",".join([value, str(int(num) + 1), den, tn, td])
        tally = workloads.Tally()
        w.check([(space, code, "\n".join(lines))], tally)
        self.assertGreater(tally.failed_frac, 0)

    def test_corrupted_law(self):
        w = tiny("law")
        outputs = job(w)
        wrong = distribution.total_law(groupcomb.GroupSpec((2,)), 3)
        bad = [
            (kind, key, wrong if key == ((2,), 5) else value)
            for kind, key, value in outputs
        ]
        self.assertNotEqual(bad, outputs)
        tally = workloads.Tally()
        w.check(bad, tally)
        self.assertGreater(tally.failed_frac, 0)

    def test_corrupted_cover_count(self):
        w = tiny("sample")
        (ctx, G, dv), = w.prepare()
        cover = next(moduli.sample_space(ctx, G, dv, 1, seed=0))
        report = counting.count_points(ctx, G, cover, check=False)
        good = workloads.Tally()
        workloads.check_cover(ctx, G, cover, report, good)
        self.assertEqual(good.failed, 0, good.errors)
        for pt in report.points:
            if pt.x == counting.INFINITY:
                continue
            try:
                counting.oracle_count(ctx, G, cover, pt.x)
            except RamifiedPoint:
                continue
            pt.count += 1
            report.total += 1
            break
        tally = workloads.Tally()
        workloads.check_cover(ctx, G, cover, report, tally)
        self.assertGreater(tally.failed_frac, 0)


if __name__ == "__main__":
    unittest.main()
