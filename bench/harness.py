"""Measurement loop, set-up timing, traced runs and reporting for the
abelcover benchmark.  ``run.py`` is the command-line entry point."""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracer_mod
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3
WINDOW = 300  # consecutive latency samples per window of a round

# name -> unit, in the order printed.  failed_frac is printed with them but
# is carried in the result line as failed / attempted: it is 0 on a correct
# run, so it cannot be a ratio-bounded metric.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "covers_per_s": "1/s",
    "cover_latency_p50_us": "us",
    "cover_latency_p99_us": "us",
    "draw_latency_p50_us": "us",
    "draw_latency_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "field.make_field.s": "s",
    "field.mul.calls": "count",
    "field.add.calls": "count",
    "field.pow.calls": "count",
    "field.dlog.calls": "count",
    "field.character.calls": "count",
    "field.self_s": "s",
    "polyring.enumerate_coprime_tuples.s": "s",
    "polyring.tuples": "count",
    "polyring.is_squarefree.calls": "count",
    "polyring.is_squarefree.accept_ratio": "ratio",
    "polyring.poly_gcd.calls": "count",
    "polyring.self_s": "s",
    "groupcomb.a_beta.calls": "count",
    "groupcomb.enumerate_index_pairs.calls": "count",
    "groupcomb.self_s": "s",
    "moduli.sample_space.self_s": "s",
    "moduli.sample_accept_ratio": "ratio",
    "moduli.component_sizes.s": "s",
    "counting.space_count_histogram.self_s": "s",
    "counting.c_block_evals": "count",
    "counting.point_data.distinct_ratio": "ratio",
    "counting.count_points.s": "s",
    "counting.eval_at.calls": "count",
    "counting.derived_polys.s": "s",
    "counting.self_s": "s",
    "distribution.total_law.s": "s",
    "distribution.convolve.calls": "count",
    "distribution.pattern_probability.s": "s",
    "distribution.euler_L.s": "s",
    "distribution.compare.s": "s",
    "distribution.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}](None).prepare()
print(repr(time.perf_counter() - t0))
"""


def environment() -> dict:
    """Python version, usable CPUs, CPU model and git commit of the tree."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        # Stop git at the tree root so it never reports an enclosing repo.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def setup_times(name: str, repeats: int) -> list:
    """Import, field, group and degree set-up of a workload, each in a fresh
    interpreter so that the import is paid every time."""
    code = SETUP_CODE.format(src=SRC_DIR, bench=BENCH_DIR, name=name)
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_parts(workload, state, rng, tally, probe=None, extra_steps=0):
    """Run one job part by part; returns (outputs, {label: seconds}).  A
    part that returns a CoverRun is timed by its timed calls alone, which
    leaves out the per-cover checks between them.  An exception in a part
    counts as one failed operation.  A probe, if given, advances by an equal
    share of its covers after each part; ``extra_steps`` more shares are
    left for the caller to take."""
    outputs, times = [], {}
    clock = time.perf_counter
    parts = workload.parts(state, rng)
    if probe:
        probe.divide(len(parts) + extra_steps)
    for label, part in parts:
        t0 = clock()
        try:
            out = part()
        except Exception as exc:
            tally.record(False, "%s: %s raised %r" % (workload.name, label, exc))
            out = None
        times[label] = clock() - t0
        if isinstance(out, workloads.CoverRun):
            times[label] = out.elapsed_s
        if out is not None:
            outputs.append(out)
        if probe:
            probe.step(probe.chunk)
    return outputs, times


def windows(values, size=WINDOW):
    """Consecutive stretches of ``size`` samples; a short tail joins the
    stretch before it."""
    n = max(len(values) // size, 1)
    return [values[i * size:(i + 1) * size if i < n - 1 else None] for i in range(n)]


def quartiles(values):
    """(lower, upper) quartile, inclusive method; a lone value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(workload, seed: int, seconds: float):
    """Untraced run in rounds.  A round is one job (then checked),
    SETUP_PER_ROUND fresh-interpreter set-ups, and the workload's per-cover
    probe spread between the job's parts and the set-ups.  Rounds repeat
    while another fits in ``seconds``, at least MIN_ROUNDS of them.

    wall_s sums over the job's parts the upper quartile of each part's time
    over the rounds; setup_s is the upper quartile of its samples.  The
    latencies of a round are cut, in the order taken, into windows of
    WINDOW samples, each a mix of all the workload's spaces.  On a shared
    machine the steady state is the slowest one; spells of faster
    execution, while other tenants idle, come and go within seconds and
    cover up to half of a run.  The p50 latencies are the upper quartile of
    the windows' p50s: it stays on the steady state where a median flips
    between the two, and a few dozen windows a run keep it there where a
    handful of rounds do not.  A p99 is set by the slowest covers instead,
    so one window hit by a burst of contention can multiply it: the p99
    latencies are the median of the windows' p99s.  Returns (metrics,
    tally, info)."""
    state = workload.prepare()
    tally = workloads.Tally()
    rng = random.Random(seed)
    part_times = {}
    setups = []
    per_cover_s = []  # probe seconds per cover, one per round
    latency = {}  # (kind, p) -> one percentile per window
    durations = []
    start = time.perf_counter()
    while len(durations) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        probe = workload.probe(state)
        outputs, times = run_parts(workload, state, rng, tally, probe, SETUP_PER_ROUND)
        for label, dt in times.items():
            part_times.setdefault(label, []).append(dt)
        for _ in range(SETUP_PER_ROUND):
            setups.extend(setup_times(workload.name, 1))
            if probe is not None:
                probe.step(probe.chunk)
        workload.check(outputs, tally)
        if probe is not None:
            probe.step()
            covers = probe.run
            workload.check_probe(covers, tally)
        else:
            covers = workloads.CoverRun()
            for run in outputs:
                covers.extend(run)
        for kind, samples in (("cover", covers.cover_s), ("draw", covers.draw_s)):
            for w in windows(samples):
                for p in (50, 99):
                    latency.setdefault((kind, p), []).append(percentile(w, p))
        per_cover_s.append(covers.elapsed_s / max(len(covers.cover_s), 1))
        durations.append(time.perf_counter() - t0)
    wall_s = sum(quartiles(ts)[1] for ts in part_times.values())
    job_covers = workload.job_covers()
    metrics = {
        "setup_s": quartiles(setups)[1],
        "wall_s": wall_s,
        "covers_per_s": (
            job_covers / wall_s if job_covers else 1.0 / quartiles(per_cover_s)[1]
        ),
        "cover_latency_p50_us": quartiles(latency["cover", 50])[1] * 1e6,
        "cover_latency_p99_us": statistics.median(latency["cover", 99]) * 1e6,
        "draw_latency_p50_us": quartiles(latency["draw", 50])[1] * 1e6,
        "draw_latency_p99_us": statistics.median(latency["draw", 99]) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    rounds = len(durations)
    job_s = [round(sum(ts[i] for ts in part_times.values()), 4) for i in range(rounds)]
    info = {"rounds": rounds, "windows": len(latency["cover", 50]), "setups": len(setups),
            "job_s": job_s}
    return metrics, tally, info


def traced_run(workload, seed: int):
    """One untraced job, then set-up plus the same job under the tracer.
    Returns (per-layer metrics, tally, tracer)."""
    tally = workloads.Tally()
    state = workload.prepare()
    outputs, times = run_parts(workload, state, random.Random(seed), tally)
    untraced_s = sum(times.values())
    workload.check(outputs, tally)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        tracer.exclude(workloads, "check_cover")
        traced_state = workload.prepare()
        outputs, times = run_parts(workload, traced_state, random.Random(seed), tally)
    finally:
        tracer.uninstall()
    workload.check(outputs, tally)
    return layer_metrics(tracer, sum(times.values()) - untraced_s), tally, tracer


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t, overhead_s: float) -> dict:
    calls, incl, own, counters = t.calls, t.incl, t.self_time, t.counters
    return {
        "field.make_field.s": incl["field.make_field"],
        "field.mul.calls": calls["field.FieldCtx.mul"],
        "field.add.calls": calls["field.FieldCtx.add"],
        "field.pow.calls": calls["field.FieldCtx.pow"],
        "field.dlog.calls": calls["field.FieldCtx.dlog"],
        "field.character.calls": calls["field.character"],
        "field.self_s": t.layer_self("field"),
        "polyring.enumerate_coprime_tuples.s": incl["polyring.enumerate_coprime_tuples"],
        "polyring.tuples": counters["polyring.tuples"],
        "polyring.is_squarefree.calls": calls["polyring.is_squarefree"],
        "polyring.is_squarefree.accept_ratio": _ratio(
            counters["polyring.is_squarefree.accepted"], calls["polyring.is_squarefree"]
        ),
        "polyring.poly_gcd.calls": calls["polyring.poly_gcd"],
        "polyring.self_s": t.layer_self("polyring"),
        "groupcomb.a_beta.calls": calls["groupcomb.a_beta"],
        "groupcomb.enumerate_index_pairs.calls": calls["groupcomb.enumerate_index_pairs"],
        "groupcomb.self_s": t.layer_self("groupcomb"),
        "moduli.sample_space.self_s": own["moduli.sample_space"],
        "moduli.sample_accept_ratio": _ratio(
            counters["moduli.sample_space.draws"], calls["moduli._accept"]
        ),
        "moduli.component_sizes.s": incl["moduli.component_sizes"],
        "counting.space_count_histogram.self_s": own["counting.space_count_histogram"],
        "counting.c_block_evals": counters["counting.c_block_evals"],
        "counting.point_data.distinct_ratio": _ratio(
            counters["counting.point_data.distinct"],
            calls["counting._component_point_data"],
        ),
        "counting.count_points.s": incl["counting.count_points"],
        "counting.eval_at.calls": calls["counting.eval_at"],
        "counting.derived_polys.s": incl["counting.derived_polys"],
        "counting.self_s": t.layer_self("counting"),
        "distribution.total_law.s": incl["distribution.total_law"],
        "distribution.convolve.calls": calls["distribution.Pmf.convolve"],
        "distribution.pattern_probability.s": incl["distribution.pattern_probability"],
        "distribution.euler_L.s": incl["distribution.euler_L"],
        "distribution.compare.s": incl["distribution.compare"],
        "distribution.self_s": t.layer_self("distribution"),
        "cli.main.self_s": own["cli.main"],
        "trace.overhead_s": overhead_s,
    }


def write_trace(name: str, seed: int, env: dict, t) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump(dict(env=env, workload=name, seed=seed, **t.dump()), fh)
    return path


def report(metrics: dict, units: dict, tally, out=None) -> None:
    """One line per metric, then the result object as the last line."""
    for name, unit in units.items():
        print("metric %s %.6g %s" % (name, metrics[name], unit), file=out)
    print("metric failed_frac %.6g ratio" % tally.failed_frac, file=out)
    for err in tally.errors:
        print("FAILED %s" % err, file=out)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), file=out)


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    print("env %s" % json.dumps(env))
    workload = workloads.WORKLOADS[workload_name](workloads.load_reference())
    if trace:
        metrics, tally, t = traced_run(workload, seed)
        print("trace written to %s" % write_trace(workload_name, seed, env, t))
        report(metrics, PER_LAYER, tally)
    else:
        metrics, tally, info = measure(workload, seed, seconds)
        print("run %s" % json.dumps(dict(workload=workload_name, seed=seed, **info)))
        report(metrics, END_TO_END, tally)
    return 0
