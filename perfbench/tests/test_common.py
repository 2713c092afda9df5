"""Span self times, span attribute sums, the tail percentile and the
Prometheus reader.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import pytest

from common import attr_sum, layer_table, parse_prometheus, self_times, tail


def _span(name, start, duration, children=()):
    return {"name": name, "start": start, "duration": duration, "children": list(children)}


def test_self_time_subtracts_the_covered_part_once():
    spans = [
        _span("op", 0.0, 10.0, [
            _span("bdd.service_availability_kernel", 1.0, 6.0, [
                _span("bdd.compile", 1.5, 5.0, [_span("store.put", 5.0, 1.0)]),
            ]),
            # two children overlapping in time (worker threads) cover 3 s, not 4
            _span("engine.discover", 7.0, 2.0),
            _span("engine.discover", 8.0, 2.0),
        ])
    ]
    table = self_times(spans)
    assert table["op"]["self_s"] == pytest.approx(10.0 - 6.0 - 3.0)
    assert table["bdd.compile"]["self_s"] == pytest.approx(4.0)
    assert table["engine.discover"]["count"] == 2
    layers = layer_table(table)
    assert layers["bdd"]["self_s"] == pytest.approx(1.0 + 4.0)
    assert layers["store"]["self_s"] == pytest.approx(1.0)
    # concurrent children each keep their own self time
    assert layers["engine"]["self_s"] == pytest.approx(4.0)


def test_attr_sum_matches_name_and_attributes_at_any_depth():
    def delta(paths, cached):
        return dict(_span("engine.discover_delta", 0.0, 1.0), attrs={"paths": paths, "cached": cached})

    spans = [
        dict(_span("op", 0.0, 5.0, [
            _span("dynamics.recompute", 0.0, 4.0, [delta(116, False), delta(52, True)]),
            delta(220, False),
        ]), attrs={}),
        _span("engine.discover", 6.0, 1.0),
    ]
    assert attr_sum(spans, "engine.discover_delta", "paths", cached=False) == 336
    assert attr_sum(spans, "engine.discover_delta", "paths") == 388
    assert attr_sum(spans, "engine.discover", "paths") == 0


def test_tail_needs_forty_samples_and_leaves_ten_beyond():
    assert tail([1.0] * 39) is None
    values = [float(i) for i in range(1, 101)]
    pct, value = tail(values)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in values) == 10


def test_prometheus_sums_label_sets_and_skips_buckets():
    text = """# HELP x demo
repro_store_hits_total 7
repro_dimensions_evaluations_total{dimension="cost"} 1
repro_dimensions_evaluations_total{dimension="latency"} 2
repro_x_seconds_bucket{le="0.1"} 5
"""
    values = parse_prometheus(text)
    assert values["repro_store_hits_total"] == 7
    assert values["repro_dimensions_evaluations_total"] == 3
    assert "repro_x_seconds_bucket" not in values
