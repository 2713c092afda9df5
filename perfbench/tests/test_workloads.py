"""The churn workload's seeded rounds apply cleanly and keep their mix.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import random
from collections import Counter

import networkx as nx
import pytest

from checks import ChurnReplay
from reference import model_graph
from workloads import CHURN_SHAPE, ROUND_EVENTS, ChurnRounds


@pytest.fixture(scope="module")
def campus_model():
    from repro.network.generators import campus

    dist, edges, clients = CHURN_SHAPE
    return campus(
        dist_switches=dist, edges_per_dist=edges, clients_per_edge=clients, dual_homed=True
    ).object_model


@pytest.mark.parametrize("seed", [1, 2, 3, 1000])
def test_rounds_apply_and_end_on_the_healthy_campus(campus_model, seed):
    graph = model_graph(campus_model)
    healthy = {frozenset(e) for e in graph.edges}
    endpoints = {n for n in graph if n.startswith("client") or n == "server"}
    stream = ChurnRounds(campus_model, random.Random(seed))
    for _ in range(2 * len(stream.uplinks)):  # every seeded cycle, twice
        events = stream.round()
        assert len(events) == ROUND_EVENTS
        kinds = Counter(type(e).__name__ for e in events)
        assert kinds == {
            "LinkFlap": 8, "LinkCut": 3, "LinkRestore": 3,
            "ComponentCrash": 1, "ComponentRestore": 1,
        }
        replay = ChurnReplay(graph)
        for event in events:
            if hasattr(event, "a"):
                # a link event names a link of the campus whose ends are up;
                # flaps and cuts find it up, restores find it down
                assert frozenset((event.a, event.b)) in healthy
                assert event.a in replay.graph and event.b in replay.graph
                up = replay.graph.has_edge(event.a, event.b)
                assert up == (type(event).__name__ != "LinkRestore")
            else:
                assert event.name not in endpoints
            replay.apply(event)
        assert {frozenset(e) for e in replay.graph.edges} == healthy
        assert nx.is_connected(replay.graph)
