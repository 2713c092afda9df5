"""Each checker accepts the program's real answer and rejects a perturbed
one.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import copy
import io

import pytest

from checks import (
    ChurnReplay,
    check_campus,
    check_casestudy,
    check_churn_epoch,
    check_churn_final,
    check_population,
    device_availability,
)
from reference import Reference, annotation_table, model_graph


@pytest.fixture(scope="module")
def usi_ref():
    from repro.casestudy import usi_network

    return Reference.of_model(usi_network())


def _campus(dist=2, edges=2, clients=1):
    from repro.network.generators import campus

    return campus(
        dist_switches=dist, edges_per_dist=edges, clients_per_edge=clients, dual_homed=True
    ).object_model


# -- campus_cold -------------------------------------------------------------


@pytest.fixture(scope="module")
def campus_answer():
    from repro.analysis.transformations import component_availabilities, service_availability_kernel
    from repro.core.mapping import ServiceMapping, ServiceMappingPair
    from repro.core.upsim import generate_upsim
    from repro.network.topology import Topology
    from repro.services.atomic import AtomicService
    from repro.services.composite import CompositeService

    model = _campus()
    topology = Topology(model)
    service = CompositeService.sequential(
        "access", [AtomicService("request", "ask"), AtomicService("reply", "answer")]
    )
    mapping = ServiceMapping(
        [ServiceMappingPair("request", "client", "server"), ServiceMappingPair("reply", "server", "client")]
    )
    upsim = generate_upsim(topology, service, mapping)
    system, groups = service_availability_kernel(upsim).evaluate_all(component_availabilities(topology))
    answer = {
        "client": "client",
        "server": "server",
        "paths": list(upsim.path_sets["request"].paths),
        "availability": system,
        "pair_availability": groups[0],
    }
    return answer, Reference.of_model(model)


def test_campus_accepts_the_program(campus_answer):
    answer, ref = campus_answer
    assert check_campus(answer, ref) == []


@pytest.mark.parametrize("perturb", ["drop_path", "extra_path", "availability", "pair"])
def test_campus_rejects_a_perturbed_answer(campus_answer, perturb):
    answer, ref = campus_answer
    bad = copy.deepcopy(answer)
    if perturb == "drop_path":
        bad["paths"] = bad["paths"][1:]
    elif perturb == "extra_path":
        bad["paths"].append(("client", "server"))
    elif perturb == "availability":
        bad["availability"] += 1e-10
    else:
        bad["pair_availability"] -= 1e-10
    assert check_campus(bad, ref)


# -- churn_stream ------------------------------------------------------------


@pytest.fixture(scope="module")
def churn_run():
    from repro.core.churn import ChurnPolicy, ChurnStream, LiveEvaluator

    model = _campus(3, 2, 1)
    clients = sorted(i.name for i in model.instances if i.name.startswith("client"))
    pairs = [(c, "server") for c in clients]
    evaluator = LiveEvaluator(_campus(3, 2, 1), pairs, policy=ChurnPolicy(delta=True))
    replay = ChurnReplay(model_graph(model))
    epochs = []
    for event in ChurnStream(_campus(3, 2, 1), pairs, seed=5).events(30):
        evaluator.submit(event)
        evaluator.pump()
        replay.apply(event)
        snap = evaluator.snapshot().snapshot
        epochs.append(
            (
                {
                    "availability": snap.availability,
                    "pair_availability": dict(snap.pair_availability),
                    "disconnected": tuple(snap.disconnected),
                    "path_sets": {p: list(ps.paths) for p, ps in snap.path_sets.items()},
                },
                replay.graph.copy(),
            )
        )
    return epochs, annotation_table(model), pairs


def test_churn_accepts_every_epoch(churn_run):
    epochs, table, pairs = churn_run
    for snapshot, graph in epochs[::5]:
        assert check_churn_epoch(snapshot, graph, table, pairs) == []


def test_churn_rejects_perturbed_epochs(churn_run):
    epochs, table, pairs = churn_run
    snapshot, graph = epochs[-1]
    pair = pairs[0]
    bad = copy.deepcopy(snapshot)
    bad["pair_availability"][pair] = bad["pair_availability"][pair] * (1 - 1e-9)
    assert check_churn_epoch(bad, graph, table, pairs)
    bad = copy.deepcopy(snapshot)
    bad["availability"] += 1e-9
    assert check_churn_epoch(bad, graph, table, pairs)
    bad = copy.deepcopy(snapshot)
    bad["disconnected"] = bad["disconnected"] + (tuple(sorted(pair)),)
    assert check_churn_epoch(bad, graph, table, pairs)
    # an epoch checked against the wrong topology: one cut link more
    cut = graph.copy()
    cut.remove_edge(*next(iter(cut.edges("server"))))
    assert check_churn_epoch(snapshot, cut, table, pairs)


def test_churn_final_state():
    assert check_churn_final(False, 0, 0) == []
    assert check_churn_final(True, 2, 0)
    assert check_churn_final(False, 0, 1)


# -- casestudy_cli -----------------------------------------------------------


def _casestudy_text(client, printer):
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(
            ["casestudy", "--client", client, "--printer", printer,
             "--dimensions", "availability,responsiveness,performability,latency,cost"]
        ) == 0
    return out.getvalue()


@pytest.mark.parametrize("client,printer", [("t1", "p2"), ("t15", "p3"), ("t7", "p1")])
def test_casestudy_accepts_the_program(usi_ref, client, printer):
    assert check_casestudy(_casestudy_text(client, printer), client, printer, usi_ref) == []


@pytest.mark.parametrize(
    "old,new",
    [
        ("0.991626700", "0.991626702"),  # service availability, last digit
        ("t1—e1—d1—c1—d4—printS\n", ""),  # one of the paper's two paths dropped
        ("[d2:C3750]", ""),  # a Figure-11 component missing from the UPSIM
        ("  cost ", "  costs "),  # a dimension missing
    ],
)
def test_casestudy_rejects_perturbed_output(usi_ref, old, new):
    text = _casestudy_text("t1", "p2")
    assert old in text
    assert check_casestudy(text.replace(old, new, 1), "t1", "p2", usi_ref)


# -- population_sweep --------------------------------------------------------


@pytest.fixture(scope="module")
def population_record(usi_ref):
    import numpy as np

    from repro.casestudy import CLIENTS, printing_mapping, printing_service, usi_topology
    from repro.workload import Population, UserClass, evaluate_population

    classes = (
        UserClass("staff", weight=3.0, device_availability=0.999),
        UserClass("student", weight=5.0, jitter=0.02),
    )
    pop = Population.generate(5000, classes, CLIENTS, seed=3)
    report = evaluate_population(
        usi_topology(), printing_service(), lambda c: printing_mapping(c, "p2"), pop, top=3
    )
    table = usi_ref.table
    avail = report.availability
    device = np.array(
        [
            device_availability(
                table[pop.attachments[pop.attachment_index[u]]],
                classes[pop.class_index[u]].device_availability,
                classes[pop.class_index[u]].jitter,
                float(pop.jitter_unit[u]),
            )
            for u in range(pop.n_users)
        ]
    )
    ratio = avail / device
    ratios = {
        a: (float(ratio[pop.attachment_index == i].min()), float(ratio[pop.attachment_index == i].max()))
        for i, a in enumerate(pop.attachments)
    }
    users = [0, 17, 4999] + [w.user for w in report.worst]
    return {
        "n": pop.n_users,
        "class_users": {s.name: s.users for s in report.class_summaries},
        "class_percentiles": {s.name: (s.p99, s.p90, s.p50) for s in report.class_summaries},
        "ratios": ratios,
        "users": [
            (pop.attachments[pop.attachment_index[u]], float(device[u]), float(avail[u])) for u in users
        ],
    }


def test_population_accepts_the_program(usi_ref, population_record):
    assert check_population(population_record, usi_ref, "p2", {}) == []


def test_population_rejects_perturbed_records(usi_ref, population_record):
    bad = copy.deepcopy(population_record)
    bad["n"] += 1
    assert check_population(bad, usi_ref, "p2", {})
    bad = copy.deepcopy(population_record)
    name = next(iter(bad["class_percentiles"]))
    p99, p90, p50 = bad["class_percentiles"][name]
    bad["class_percentiles"][name] = (p50 + 1e-6, p90, p50)
    assert check_population(bad, usi_ref, "p2", {})
    bad = copy.deepcopy(population_record)
    low, high = bad["ratios"]["t3"]
    bad["ratios"]["t3"] = (low, high * (1 + 1e-8))
    assert check_population(bad, usi_ref, "p2", {})
    bad = copy.deepcopy(population_record)
    attachment, device, value = bad["users"][0]
    bad["users"][0] = (attachment, device, value * (1 - 1e-8))
    assert check_population(bad, usi_ref, "p2", {})
    # the right record checked against the wrong printer perspective
    assert check_population(population_record, usi_ref, "p3", {})
