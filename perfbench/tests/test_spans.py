import types

import pytest

from spans import Tracer, layer_totals, self_times


def span(name, start, end, parent=None, request=0):
    return [name, start, end, parent, request]


def test_self_time_on_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0),            # 0: children a, b, c cover 3 + 2 + 1
        span("a", 1.0, 4.0, parent=0),      # 1: child leaf covers 1
        span("b", 4.0, 6.0, parent=0),      # 2
        span("leaf", 2.0, 3.0, parent=1),   # 3
        span("c", 8.0, 9.0, parent=0),      # 4
    ]
    assert self_times(spans) == pytest.approx([10 - 6.0, 2.0, 2.0, 1.0, 1.0])


def test_layer_totals_sum_per_name():
    spans = [
        span("req", 0.0, 4.0, request=1),
        span("f", 1.0, 2.0, parent=0, request=1),
        span("f", 2.0, 3.5, parent=0, request=1),
        span("req", 10.0, 11.0, request=2),
        span("f", 10.0, 10.5, parent=3, request=2),
    ]
    totals = layer_totals(spans)
    assert totals["f"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert totals["req"]["self_s"] == pytest.approx(1.5 + 0.5)


def test_install_records_nested_spans_and_uninstall_restores():
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: next(clock))
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    original = mod.outer, mod.leaf
    tracer.install(mod, "outer", "m.outer")
    tracer.install(mod, "leaf", "m.leaf", tally=lambda args, kwargs: args[0])
    tracer.request = 7
    assert mod.outer(3) == 8
    tracer.uninstall()
    assert (mod.outer, mod.leaf) == original
    assert [s[0] for s in tracer.spans] == ["m.outer", "m.leaf"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 7
    assert tracer.counts["m.leaf:tally"] == 3


def test_count_only_opens_no_span():
    tracer = Tracer()
    mod = types.SimpleNamespace(hot=lambda: None)
    tracer.install(mod, "hot", "m.hot", count_only=True)
    for _ in range(5):
        mod.hot()
    tracer.uninstall()
    assert tracer.counts["m.hot"] == 5 and tracer.spans == []


def test_method_patch_on_class_binds_self():
    class Thing:
        def value(self):
            return 42

    tracer = Tracer()
    tracer.install(Thing, "value", "thing.value")
    assert Thing().value() == 42
    tracer.uninstall()
    assert Thing.value.__name__ == "value" and len(tracer.spans) == 1
