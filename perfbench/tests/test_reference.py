"""The reference evaluator against closed forms.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest

from reference import (
    ROBDD,
    Reference,
    Structure,
    bfs_order,
    formula1,
    link_name,
    path_components,
    simple_paths,
)

EXACT = 1e-15


def _bdd_availability(path_sets, p, order=None):
    order = order or sorted({c for s in path_sets for c in s})
    return Structure([path_sets], p, order).availability()[0]


def test_formula1():
    assert formula1(1000.0, 10.0) == pytest.approx(0.99, abs=EXACT)
    assert formula1(1000.0, 0.0) == 1.0
    # one standby replica: down only when both are
    assert formula1(1000.0, 100.0, 1) == pytest.approx(1 - 0.1**2, abs=EXACT)
    with pytest.raises(ValueError):
        formula1(10.0, 20.0)


def test_series_is_the_product():
    p = {"a": 0.9, "b": 0.8, "c": 0.95}
    assert _bdd_availability([{"a", "b", "c"}], p) == pytest.approx(0.9 * 0.8 * 0.95, abs=EXACT)


def test_parallel_is_one_minus_product_of_failures():
    p = {"a": 0.9, "b": 0.8, "c": 0.95}
    want = 1 - (1 - 0.9) * (1 - 0.8) * (1 - 0.95)
    assert _bdd_availability([{"a"}, {"b"}, {"c"}], p) == pytest.approx(want, abs=EXACT)


BRIDGE_PATHS = [{"a", "d"}, {"b", "e"}, {"a", "c", "e"}, {"b", "c", "d"}]


def test_bridge_equal_probabilities():
    for q in (0.5, 0.9, 0.99):
        p = dict.fromkeys("abcde", q)
        want = 2 * q**2 + 2 * q**3 - 5 * q**4 + 2 * q**5
        assert _bdd_availability(BRIDGE_PATHS, p) == pytest.approx(want, abs=1e-14)


def test_bridge_by_conditioning_on_the_bridge_for_every_order():
    p = {"a": 0.91, "b": 0.82, "c": 0.73, "d": 0.64, "e": 0.95}
    up = (1 - (1 - p["a"]) * (1 - p["b"])) * (1 - (1 - p["d"]) * (1 - p["e"]))
    down = 1 - (1 - p["a"] * p["d"]) * (1 - p["b"] * p["e"])
    want = p["c"] * up + (1 - p["c"]) * down
    for order in ("abcde", "edcba", "cabde", "daebc"):
        assert _bdd_availability(BRIDGE_PATHS, p, list(order)) == pytest.approx(want, abs=1e-15)


def test_robdd_is_reduced_and_canonical():
    bdd = ROBDD(list("abc"))
    f = bdd.any_of([{"a", "b"}, {"a", "c"}])
    g = bdd.apply("and", bdd.cube({"a"}), bdd.any_of([{"b"}, {"c"}]))
    assert f == g
    assert bdd.size(f) == 3
    assert bdd.apply("or", f, bdd.FALSE) == f


def test_bridge_graph_paths_and_two_terminal_availability():
    """The bridge as a graph: s-a-t, s-b-t with a bridge a-b; components
    are the four edges and the bridge (nodes certainly up)."""
    graph = nx.Graph([("s", "x"), ("s", "y"), ("x", "y"), ("x", "t"), ("y", "t")])
    paths = simple_paths(graph, "s", "t")
    assert sorted(paths) == sorted(
        [("s", "x", "t"), ("s", "y", "t"), ("s", "x", "y", "t"), ("s", "y", "x", "t")]
    )
    q = 0.9
    table = dict.fromkeys(graph.nodes, 1.0)
    table.update({link_name(a, b): q for a, b in graph.edges})
    system, (pair,) = Reference(graph, table).availability([("s", "t")])
    assert system == pair
    assert system == pytest.approx(2 * q**2 + 2 * q**3 - 5 * q**4 + 2 * q**5, abs=1e-14)


def test_path_components_and_order():
    assert path_components(("a", "b", "c")) == {"a", "b", "c", "a|b", "b|c"}
    graph = nx.path_graph(["a", "b", "c"])
    order = bfs_order(graph, "a", {"a", "b", "c", "a|b", "b|c"})
    assert order == ["a", "b", "a|b", "c", "b|c"]


def test_overrides_replace_single_annotations():
    graph = nx.Graph([("s", "t")])
    table = {"s": 0.9, "t": 0.8, "s|t": 0.99}
    ref = Reference(graph, table)
    assert ref.availability([("s", "t")])[0] == pytest.approx(0.9 * 0.8 * 0.99, abs=EXACT)
    assert ref.availability([("s", "t")], {"s": 1.0})[0] == pytest.approx(0.8 * 0.99, abs=EXACT)
    assert not math.isnan(ref.structure([("s", "t")]).availability()[0])
