"""The benchmark's traced runs wrap package functions by name (bench/tracer.py).

A rename or a changed call path would make ``--trace 1`` fail or report
zeros; these tests make it fail here instead.
"""

import os
import sys

import pytest

import abelcover.cli  # noqa: F401  (the tracer wraps names in every module)
from abelcover import counting
from abelcover.field import make_field
from abelcover.groupcomb import GroupSpec
from abelcover.moduli import component_degree_maps, make_cover_tuple, normalize_degrees
from abelcover.polyring import Polynomial, count_coprime_tuples

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracer_mod(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_targets_resolve_and_point_data_hook_runs(tracer_mod):
    ctx = make_field(5)
    G = GroupSpec((2,))
    cover = make_cover_tuple((1,), {(1,): Polynomial(ctx, [1, 0, 1])})
    original = counting.count_points
    t = tracer_mod.Tracer()
    t.install()
    try:
        report = counting.count_points(ctx, G, cover)
        hist = counting.space_count_histogram(ctx, G, normalize_degrees(G, {(1,): 2}))
    finally:
        t.uninstall()
    assert counting.count_points is original
    wrapped = {
        "%s.%s" % (layer, attr)
        for layer, attrs in tracer_mod.TARGETS.items()
        for attr in attrs
    }
    assert wrapped <= set(t.calls)
    assert report.total == 6
    assert sum(hist.values()) == 100
    assert t.calls["counting.count_points"] == 1
    assert t.calls["counting.space_count_histogram"] == 1
    # the call from count_points; the bulk walk reads key-table rows instead
    assert t.calls["counting._component_point_data"] == 1
    # the traced walk still sees every polynomial tuple of the space
    assert t.counters["polyring.tuples"] == 25
    assert t.counters["counting.c_block_evals"] == 100


def test_traced_walk_yields_once_per_tuple_where_masks_filter(tracer_mod):
    """Three coprime linear coordinates, and the dropped components where
    one of them is the constant 1: 60 + 3 * 20 tuples, each yielded once."""
    ctx = make_field(5)
    G = GroupSpec((2, 2))
    dv = normalize_degrees(G, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    t = tracer_mod.Tracer()
    t.install()
    try:
        hist = counting.space_count_histogram(ctx, G, dv)
    finally:
        t.uninstall()
    components = component_degree_maps(G, dv)
    sizes = [count_coprime_tuples(5, m.values()) for _, m in components]
    assert sizes == [60, 20, 20, 20]
    assert t.counters["polyring.tuples"] == 120
    assert sum(hist.values()) == 120 * 4**2
