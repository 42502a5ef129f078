"""In-memory tracer for the benchmark's traced runs.

A Tracer wraps public functions of the abelcover modules at the layer
boundary.  A plain function is rebound under every name that holds it in
every loaded ``abelcover`` module (``moduli`` imports ``is_squarefree`` from
``polyring``, so the wrapper must replace ``moduli.is_squarefree`` too); the
benchmark calls the package through module attributes, so it sees the
wrappers as well.  A method is rebound on its class.  ``uninstall`` puts
every original back.  Two private helpers are wrapped only to count work:
``moduli._accept`` (candidate tuples tested while sampling) and
``counting._component_point_data`` (per-tuple point data of the bulk
histogram, whose distinct values the tracer counts).

For each wrapped name the tracer keeps the call count, the inclusive time
and the self time (inclusive time minus the time of wrapped calls made
from inside it).  Calls of the functions in ``KEEP`` are also kept as spans
``(name, start, end, parent)``, where ``parent`` indexes the enclosing kept
span.  The hot leaf functions (field arithmetic, polynomial arithmetic) are
only aggregated: a span each would need gigabytes.  Time spent in code that
is not wrapped, such as ``IndexPair`` hashing or ``Polynomial.__init__``,
counts as self time of the nearest wrapped caller.

A generator function is traced per resume: each ``next()`` is timed as a
call into the layer that defines it, so consumer time between draws is not
charged to the generator.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# Wrapped names per layer; "Class.method" rebinds the method on the class.
# Besides the functions the per-layer metrics name, the list holds what other
# layers call into a layer on the traced jobs, so that the time lands in the
# layer that does the work.
TARGETS = {
    "field": [
        "make_field", "character",
        "FieldCtx.add", "FieldCtx.neg", "FieldCtx.mul", "FieldCtx.inv",
        "FieldCtx.pow", "FieldCtx.dlog",
    ],
    "polyring": [
        "Polynomial.__add__", "Polynomial.__neg__", "Polynomial.__sub__",
        "Polynomial.__mul__", "Polynomial.__pow__", "Polynomial.__divmod__",
        "Polynomial.evaluate", "Polynomial.derivative", "Polynomial.monic",
        "poly_gcd", "is_squarefree", "enumerate_coprime_tuples",
    ],
    "groupcomb": [
        "enumerate_index_pairs", "a_beta", "beta_classes", "phi_G",
        "ram_exponent", "euler_phi", "divisors",
    ],
    "moduli": ["component_sizes", "sample_space", "_accept"],
    "counting": [
        "derived_polys", "eval_at", "count_points", "space_count_histogram",
        "_component_point_data",
    ],
    "distribution": [
        "total_law", "Pmf.convolve", "pattern_probability", "euler_L", "compare",
    ],
    "cli": ["main"],
}

# Functions whose every call is kept as a span.
KEEP = {
    "field.make_field", "cli.main", "counting.space_count_histogram",
    "counting.count_points", "moduli.component_sizes",
    "distribution.total_law", "distribution.pattern_probability",
    "distribution.euler_L", "distribution.compare",
}

# Field arithmetic: the hottest calls, timed without a frame of their own.
# FieldCtx.sub is left unwrapped; it is add after neg.
LEAVES = {
    "field.FieldCtx.add", "field.FieldCtx.neg", "field.FieldCtx.mul",
    "field.FieldCtx.inv", "field.FieldCtx.pow", "field.FieldCtx.dlog",
}

MAX_SPANS = 200_000


class Tracer:
    """Call counts, inclusive and self times, counters and spans of the
    wrapped abelcover functions while installed."""

    def __init__(self):
        self.counters = Counter()
        self.spans = []
        self.dropped_spans = 0
        self._acc = {}  # name -> [calls, inclusive seconds, self seconds]
        self._stack = []  # frames [child seconds, enclosing kept span id]
        self._signatures = set()
        self._paused = [False]
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "abelcover" or name.startswith("abelcover."))
        ]
        hooks = self._hooks()
        for layer, attrs in TARGETS.items():
            mod = sys.modules["abelcover." + layer]
            for attr in attrs:
                name = "%s.%s" % (layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = vars(cls)[meth]
                    self._rebind(cls, meth, self._wrap(name, orig, hooks.get(name)))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(name, orig, hooks.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, key, wrapper)

    def exclude(self, obj, key):
        """Rebind ``obj.key`` so that nothing it calls is counted: the
        benchmark's own output checks run between the timed calls and use
        the package too."""
        fn, paused = vars(obj)[key], self._paused

        def untraced(*args, **kwargs):
            paused[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                paused[0] = False

        self._rebind(obj, key, untraced)

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def _rebind(self, obj, key, value):
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, hook):
        acc = self._acc.setdefault(name, [0, 0.0, 0.0])
        if name in LEAVES:
            wrapper = self._wrap_leaf(acc, fn)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(acc, fn, hook)
        else:
            wrapper = self._wrap_call(name, acc, fn, hook)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_leaf(self, acc, fn):
        # A leaf makes no wrapped calls, so it needs no frame of its own.
        stack, paused = self._stack, self._paused
        clock = time.perf_counter

        def traced(*args):
            if paused[0]:
                return fn(*args)
            t0 = clock()
            result = fn(*args)
            dur = clock() - t0
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur
            if stack:
                stack[-1][0] += dur
            return result

        return traced

    def _wrap_call(self, name, acc, fn, hook):
        stack, spans, paused = self._stack, self.spans, self._paused
        clock = time.perf_counter
        keep = name in KEEP
        before, after = hook if hook else (None, None)

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            parent = stack[-1][1] if stack else None
            sid = parent
            if keep:
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)
                else:
                    self.dropped_spans += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                if sid != parent:
                    spans[sid] = (name, t0, t1, parent)
                if stack:
                    stack[-1][0] += dur
            if after:
                t2 = clock()
                after(token, result)
                if stack:
                    # Hook time is tracer overhead, not the caller's work.
                    stack[-1][0] += clock() - t2
            return result

        return traced

    def _wrap_generator(self, acc, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        on_yield = hook[1] if hook else None

        def drive(gen):
            try:
                while True:
                    frame = [0.0, stack[-1][1] if stack else None]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        stack.pop()
                        acc[1] += dur
                        acc[2] += dur - frame[0]
                        if stack:
                            stack[-1][0] += dur
                    if on_yield:
                        on_yield(None, item)
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            if self._paused[0]:
                return fn(*args, **kwargs)
            acc[0] += 1
            return drive(fn(*args, **kwargs))

        return traced

    # -- work counters at the boundaries -----------------------------------

    def _hooks(self):
        counters, signatures = self.counters, self._signatures

        def squarefree_after(_token, result):
            if result:
                counters["polyring.is_squarefree.accepted"] += 1

        def tuple_yielded(_token, _item):
            counters["polyring.tuples"] += 1

        def draw_yielded(_token, _item):
            counters["moduli.sample_space.draws"] += 1

        def histogram_before(args, kwargs):
            ctx, G = args[0], args[1]
            signatures.clear()
            return counters["polyring.tuples"], (ctx.q - 1) ** G.n

        def histogram_after(token, _result):
            tuples_before, block = token
            counters["counting.c_block_evals"] += (
                counters["polyring.tuples"] - tuples_before
            ) * block
            counters["counting.point_data.distinct"] += len(signatures)

        def point_data_after(_token, data):
            signatures.add(tuple((beta, tuple(exps.values())) for beta, exps in data))

        return {
            "polyring.is_squarefree": (None, squarefree_after),
            "polyring.enumerate_coprime_tuples": (None, tuple_yielded),
            "moduli.sample_space": (None, draw_yielded),
            "counting.space_count_histogram": (histogram_before, histogram_after),
            "counting._component_point_data": (None, point_data_after),
        }

    # -- results --------------------------------------------------------

    def _column(self, i, zero):
        out = defaultdict(lambda: zero)
        out.update((name, acc[i]) for name, acc in self._acc.items())
        return out

    @property
    def calls(self):
        return self._column(0, 0)

    @property
    def incl(self):
        return self._column(1, 0.0)

    @property
    def self_time(self):
        return self._column(2, 0.0)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(acc[2] for name, acc in self._acc.items() if name.startswith(prefix))

    def dump(self):
        """Everything recorded, as a JSON-ready dict."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "inclusive_s": dict(sorted(self.incl.items())),
            "self_s": dict(sorted(self.self_time.items())),
            "counters": dict(sorted(self.counters.items())),
            "spans": [list(s) for s in self.spans if s is not None],
            "dropped_spans": self.dropped_spans,
        }
