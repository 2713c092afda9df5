"""The four workloads, as the worker process runs them.

Each workload is a closed loop of one operation at a time:

* :meth:`Workload.setup` does everything before the first timed
  operation (imports, input generation, filling the store, warm-up);
* :meth:`Workload.next_input` makes the next operation's inputs from the
  seed, off the clock;
* :meth:`Workload.run` is the operation — the only timed code;
* :meth:`Workload.keep` reduces the answer to what the checks need, off
  the clock;
* :meth:`Workload.check` runs the output checks after the timed phase
  and returns ``{operation index: [problems]}``.

In a ``--trace 1`` run every second block of ``trace_period``
operations is traced (``traced`` is set while their inputs are made and
they run), so traced and untraced operations get the same input mix and
cache history; :meth:`Workload.trace_data`
returns the spans and counter deltas of the traced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import DIMENSIONS, HERE, ROOT, child_env, parse_prometheus

Problems = Dict[int, List[str]]


def _rss_mib(usage) -> float:
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def _registry() -> Dict[str, float]:
    """Sample name -> value of the program's metrics registry, summed
    over label sets (histogram buckets skipped)."""
    from repro import obs

    values: Dict[str, float] = {}
    for family in obs.registry().collect():
        for sample, _labels, value in family["samples"]:
            if not sample.endswith("_bucket"):
                values[sample] = values.get(sample, 0.0) + value
    return values


class Workload:
    name = ""
    #: operations inherit children whose peak RSS counts (wait4 per child)
    own_children = False
    #: length of the workload's repeating input pattern; a traced run
    #: traces every second block of this many operations, so traced and
    #: untraced operations get the same mix
    trace_period = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.traced = False
        self.child_peak_mib = 0.0

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def next_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def keep(self, i: int, inp, out) -> None:
        raise NotImplementedError

    def check(self) -> Problems:
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        own = _rss_mib(resource.getrusage(resource.RUSAGE_SELF))
        if self.own_children:
            return max(own, self.child_peak_mib)
        return max(own, _rss_mib(resource.getrusage(resource.RUSAGE_CHILDREN)))

    # -- traced operations --------------------------------------------------

    def trace_op_begin(self) -> None:
        """Activate the program's tracer around one traced operation and
        note the metrics registry before it."""
        from repro import obs

        if not hasattr(self, "tracer"):
            self.tracer = obs.Tracer()
            self.counters: Dict[str, float] = {}
        self._activation = obs.activate(self.tracer)
        self._activation.__enter__()
        self._before = _registry()

    def trace_op_end(self) -> None:
        after = _registry()
        self._activation.__exit__(None, None, None)
        for k, v in after.items():
            self.counters[k] = self.counters.get(k, 0.0) + v - self._before.get(k, 0.0)

    def trace_data(self) -> Tuple[List[dict], Dict[str, float]]:
        """(span dicts, counter deltas) of the traced operations."""
        return self.tracer.to_dict()["spans"], self.counters

    def extra_layer_metrics(self, ops: int) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}

    def extra_trace_info(self) -> Dict:
        return {}


def span(name: str, **attrs):
    """A benchmark span around one call into a layer (no-op untraced)."""
    from repro import obs

    return obs.span(name, **attrs)


# ---------------------------------------------------------------------------
# campus_cold
# ---------------------------------------------------------------------------

#: (dist_switches, edges_per_dist, clients_per_edge), all dual-homed; the
#: three shapes have 52, 116 and 220 paths per pair and 36 clients each
CAMPUS_SHAPES = ((2, 3, 6), (3, 2, 6), (3, 3, 4))
#: the shape of each operation, cyclically: the middle shape takes half
#: the operations, so the median latency falls well inside its samples
#: instead of on the edge between two shapes
SHAPE_CYCLE = (0, 1, 2, 1)
#: operations between clears of the program's in-process caches
CACHE_ROUND = 12
#: structures of the traced operations recompiled with the seed compiler
SEED_COMPARE_STRUCTURES = 6


class CampusCold(Workload):
    """Every client->server pair of three dual-homed campus shapes,
    answered once each through generate_upsim and the program's kernel
    entry, cycling over the shapes (SHAPE_CYCLE), with cold caches and an
    empty artifact store."""

    name = "campus_cold"
    trace_period = len(SHAPE_CYCLE)

    def setup(self) -> None:
        from repro import store
        from repro.analysis.transformations import (
            component_availabilities,
            service_availability_kernel,
        )
        from repro.core.mapping import ServiceMapping, ServiceMappingPair
        from repro.core.upsim import generate_upsim
        from repro.network.generators import campus
        from repro.network.topology import Topology
        from repro.services.atomic import AtomicService
        from repro.services.composite import CompositeService

        self._store = store
        self._generate_upsim = generate_upsim
        self._kernel = service_availability_kernel
        self._mapping = lambda c: ServiceMapping(
            [ServiceMappingPair("request", c, "server"), ServiceMappingPair("reply", "server", c)]
        )
        self.service = CompositeService.sequential(
            "access",
            [AtomicService("request", "client asks the server"), AtomicService("reply", "server answers")],
        )
        self.shapes = []
        for dist, edges, clients in CAMPUS_SHAPES:
            model = campus(
                dist_switches=dist, edges_per_dist=edges, clients_per_edge=clients, dual_homed=True
            ).object_model
            topology = Topology(model)
            names = sorted(i.name for i in model.instances if i.name.startswith("client"))
            self.rng.shuffle(names)
            self.shapes.append((model, topology, component_availabilities(topology), names))
        # warm-up on a shape of its own, into a store of its own, so lazy
        # imports are done and the measured caches and store stay cold
        warm = campus(dist_switches=2, edges_per_dist=1, clients_per_edge=1, dual_homed=True).object_model
        store.configure(str(self.workdir / "warm-store"))
        warm_topology = Topology(warm)
        warm_table = component_availabilities(warm_topology)
        self._answer(warm_topology, warm_table, "client")
        self.passes = 0
        self._new_pass()
        self.records: List[dict] = []
        #: (shape, path-set groups) of the first traced structures
        self.compare: List[Tuple[int, list]] = []

    def _clear_caches(self) -> None:
        from repro.core import engine
        from repro.dependability import bdd

        engine.path_cache_clear()
        engine.block_cache_clear()
        bdd.kernel_cache_clear()

    def _new_pass(self) -> None:
        """Every pair answered once more: an empty store, cold caches."""
        self._clear_caches()
        self._store.configure(str(self.workdir / f"store-{self.passes}"))
        self.passes += 1
        self.cursor = [0] * len(self.shapes)

    def _answer(self, topology, table, client):
        with span("upsim.generate_upsim"):
            upsim = self._generate_upsim(topology, self.service, self._mapping(client))
        with span("bdd.service_availability_kernel"):
            kernel = self._kernel(upsim)
        with span("eval.evaluate_all"):
            system, groups = kernel.evaluate_all(table)
        return upsim, kernel, system, groups

    def next_input(self, i: int):
        k = SHAPE_CYCLE[i % len(SHAPE_CYCLE)]
        if self.cursor[k] == len(self.shapes[k][3]):
            self._new_pass()
        elif i and i % CACHE_ROUND == 0:
            # no answer is ever reused, so dropping the kernels the caches
            # hold keeps memory the same however many pairs a run answers
            self._clear_caches()
        client = self.shapes[k][3][self.cursor[k]]
        self.cursor[k] += 1
        return k, client

    def run(self, inp):
        k, client = inp
        _model, topology, table, _ = self.shapes[k]
        with span("op", workload=self.name):
            return self._answer(topology, table, client)

    def keep(self, i: int, inp, out) -> None:
        k, client = inp
        upsim, kernel, system, groups = out
        self.records.append(
            {
                "i": i,
                "shape": k,
                "client": client,
                "server": "server",
                "paths": list(upsim.path_sets["request"].paths),
                "availability": system,
                "pair_availability": groups[0],
            }
        )
        if self.traced and len(self.compare) < SEED_COMPARE_STRUCTURES:
            from repro.analysis.transformations import service_path_set_groups

            self.compare.append((k, service_path_set_groups(upsim)))

    def check(self) -> Problems:
        from checks import check_campus
        from reference import Reference

        refs = [Reference.of_model(model) for model, *_ in self.shapes]
        problems: Problems = {}
        for record in self.records:
            found = check_campus(record, refs[record["shape"]])
            if found:
                problems[record["i"]] = found
        return problems

    def extra_layer_metrics(self, ops: int) -> Dict[str, float]:
        """The first traced structures, compiled again off the clock: by the program (no cache, no reordering) and by the seed's
        dict compiler, under the program's default topology order and
        under frequency order."""
        from repro.dependability.bdd import compile_structure, frequency_order, order_from_topology
        from seedcompile import seed_compile

        rows = []
        for k, groups in self.compare:
            topology = self.shapes[k][1]
            members = {c for g in groups for p in g for c in p}
            orders = {
                "topology": order_from_topology(topology, members),
                "frequency": frequency_order(groups),
            }
            row = {"shape": CAMPUS_SHAPES[k], "paths": sum(len(g) for g in groups)}
            for label, order in orders.items():
                t0 = time.perf_counter()
                kernel = compile_structure(groups, order=order, use_cache=False, reorder="none")
                program_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                seed_nodes = seed_compile(groups, order)
                seed_s = time.perf_counter() - t0
                row[label] = {
                    "program_s": program_s,
                    "seed_s": seed_s,
                    "program_nodes": kernel.size,
                    "seed_nodes": seed_nodes,
                }
            rows.append(row)
        self._compare_rows = rows

        def total(order, key):
            return sum(r[order][key] for r in rows)

        return {
            "bdd.compile_vs_seed_ratio": total("topology", "program_s") / total("topology", "seed_s"),
            "bdd.nodes_topology_order": total("topology", "program_nodes") / len(rows),
            "bdd.nodes_frequency_order": total("frequency", "program_nodes") / len(rows),
        }

    def extra_trace_info(self) -> Dict:
        return {"seed_compare": getattr(self, "_compare_rows", [])}


# ---------------------------------------------------------------------------
# churn_stream
# ---------------------------------------------------------------------------

#: the 12-pair dual-homed campus of the churn benches
CHURN_SHAPE = (3, 2, 2)
#: share of events whose adopted epoch is checked against the reference
#: (the last epoch of the run is checked too)
CHECKPOINT_SHARE = 1 / 40


#: events in one round of the churn stream
ROUND_EVENTS = 16


class ChurnRounds:
    """The benchmark's seeded churn stream over a dual-homed campus.

    Every round is the same sixteen events in the same structural
    relation to each other.  Their mix follows the weights of the
    program's own ``ChurnStream.DEFAULT_WEIGHTS`` (flap 4, cut 1.5,
    crash 0.5), with every cut and crash undone within the round: eight
    link flaps, three cuts, three restores, one crash and one component
    restore.  With E–D an uplink between edge switch E and distribution
    switch D, and X an edge switch:

    * cut E–D, flap a client link of another edge switch and a D–core
      link, restore E–D;
    * flap a client link, cut a second one, flap a third, restore the
      second;
    * crash X, flap two client links of other edge switches, restore X;
    * flap an uplink of X, cut and restore it, flap the D–core link.

    The order sets the cost of each event, and so where the median
    latency falls.  The three cuts and the crash cost several times the
    rest; the four flaps made while E–D is cut or X is down are the
    cheapest; the other eight events cost about the same.
    So the median falls in the middle of those eight, and a slower or
    faster host moves it in proportion.  In a round whose cheap events
    fill the lower half, the median sits at the upper edge of the cheap
    cluster, where the latencies thin out, and a slower host moves it by
    more than its own slowdown.

    The seed orders the members: E–D links and crashed edge switches go
    round in seeded cyclic order, so every run visits each of them about
    equally often, however fast it runs.  A round starts and ends on the
    healthy campus, flaps and cuts only links that are up, restores only
    links that are down, never names a link of a crashed component and
    never crashes an endpoint of a pair, so every event applies.
    """

    def __init__(self, model, rng: random.Random):
        from repro.core.churn import ComponentCrash, ComponentRestore, LinkCut, LinkFlap, LinkRestore

        self.cut, self.restore, self.flap = LinkCut, LinkRestore, LinkFlap
        self.crash, self.revive = ComponentCrash, ComponentRestore
        self.rng = rng
        links = sorted(tuple(sorted((l.end1.name, l.end2.name))) for l in model.links)
        self.client_links = [l for l in links if l[0].startswith("client")]
        #: (dist, edge) uplinks and (core, dist) links, sorted by name
        self.uplinks = [l for l in links if l[0].startswith("dist") and l[1].startswith("edge")]
        self.core_links = [l for l in links if l[0].startswith("core") and l[1].startswith("dist")]
        edges = sorted({edge for _, edge in self.uplinks})
        self.uplink_cycle = rng.sample(self.uplinks, len(self.uplinks))
        self.edge_cycle = rng.sample(edges, len(edges))
        self.rounds = 0

    def round(self) -> List:
        dist, edge = self.uplink_cycle[self.rounds % len(self.uplink_cycle)]
        crashed = self.edge_cycle[self.rounds % len(self.edge_cycle)]
        self.rounds += 1

        def client_links(avoid, k):
            return self.rng.sample([l for l in self.client_links if l[1] != avoid], k)

        first, second, cut, third = client_links(edge, 4)
        during_crash, also_during_crash = client_links(crashed, 2)
        core_link = self.rng.choice([l for l in self.core_links if l[1] == dist])
        x_uplinks = [l for l in self.uplinks if l[1] == crashed]
        return [
            self.cut(dist, edge),
            self.flap(*first),
            self.flap(*core_link),
            self.restore(dist, edge),
            self.flap(*second),
            self.cut(*cut),
            self.flap(*third),
            self.restore(*cut),
            self.crash(crashed),
            self.flap(*during_crash),
            self.flap(*also_during_crash),
            self.revive(crashed),
            self.flap(*self.rng.choice(x_uplinks)),
            self.cut(*x_uplinks[0]),
            self.restore(*x_uplinks[0]),
            self.flap(*core_link),
        ]


def _recompile_nodes(spans: List[dict]) -> List[int]:
    """The ``nodes`` attribute of every ``bdd.recompile_delta`` span under
    *spans*, in start order."""
    found, stack = [], list(spans)
    while stack:
        node = stack.pop()
        if node["name"] == "bdd.recompile_delta" and "nodes" in node["attrs"]:
            found.append((node["start"], node["attrs"]["nodes"]))
        stack.extend(node.get("children", []))
    return [nodes for _, nodes in sorted(found)]


class ChurnStreamWorkload(Workload):
    """The benchmark's seeded churn stream (:class:`ChurnRounds`) over the
    12-pair campus, one event at a time through LiveEvaluator.submit +
    pump (delta mode, no deadline) and a snapshot read.

    Every round runs on a new evaluator, with the engine's path and block
    caches cleared, both off the clock.  Within a round the manager
    persists and the caches fill as they would in service.  Across rounds
    nothing carries over, so a round costs the same however many rounds a
    run gets through.  On one long-lived evaluator, later rounds revisit
    cached states and get cheaper, and a faster host then finishes more of
    the cheap rounds: run-to-run noise was amplified (a spread of 27–31%
    in throughput, against 12–18% for the other workloads).
    """

    name = "churn_stream"
    trace_period = ROUND_EVENTS

    def _campus(self, dist, edges, clients):
        from repro.network.generators import campus

        return campus(
            dist_switches=dist, edges_per_dist=edges, clients_per_edge=clients, dual_homed=True
        ).object_model

    def _pairs(self, model):
        clients = sorted(
            (i.name for i in model.instances if i.name.startswith("client")),
            key=lambda n: (len(n), n),
        )
        return [(c, "server") for c in clients]

    def setup(self) -> None:
        from repro.core import engine
        from repro.core.churn import ChurnPolicy, LiveEvaluator

        self._engine, self._evaluator_cls = engine, LiveEvaluator
        self._policy = ChurnPolicy(delta=True)
        # warm-up on a campus of its own (the smallest with enough client
        # links for a round): lazy imports, not caches
        warm = self._campus(3, 1, 2)
        warm_eval = LiveEvaluator(warm, self._pairs(warm), policy=self._policy)
        for event in ChurnRounds(self._campus(3, 1, 2), random.Random(self.seed)).round():
            warm_eval.submit(event)
            warm_eval.pump()
        self.initial = self._campus(*CHURN_SHAPE)
        self.pairs = self._pairs(self.initial)
        self.stream = ChurnRounds(self.initial, self.rng)
        self.evaluator = None
        self.pending: List = []
        self.events: List = []
        self.checkpoints: Dict[int, dict] = {}
        self.problems: Problems = {}
        #: manager nodes after each traced round's initial compile
        self.manager_bases: List[int] = []
        self._new_round()

    def _new_round(self) -> None:
        """Close the last round's evaluator; a new one on the healthy
        campus, cold engine caches and the next round's events."""
        if self.evaluator is not None:
            self._close_round()
        self._engine.path_cache_clear()
        self._engine.block_cache_clear()
        def build():
            return self._evaluator_cls(self._campus(*CHURN_SHAPE), self.pairs, policy=self._policy)

        if self.traced:
            # the manager's size after the initial compile is the base
            # from which the traced events' node growth is counted
            from repro import obs

            tracer = obs.Tracer()
            with obs.activate(tracer):
                self.evaluator = build()
            self.manager_bases.append(_recompile_nodes(tracer.to_dict()["spans"])[-1])
        else:
            self.evaluator = build()
        self.applied = 0
        self.pending = self.stream.round()

    def _close_round(self) -> None:
        """The round's last epoch is checked; its final snapshot must be
        fresh and nothing may be quarantined."""
        from checks import check_churn_final

        last = len(self.events) - 1
        self.checkpoints[last] = self._plain(self.last_view.snapshot)
        final = self.evaluator.snapshot()
        found = check_churn_final(final.stale, final.lag_events, len(self.evaluator.quarantine))
        if found:
            self.problems.setdefault(last, []).extend(found)

    def next_input(self, i: int):
        if not self.pending:
            self._new_round()
        return self.pending.pop(0)

    def run(self, event):
        evaluator = self.evaluator
        with span("op", workload=self.name):
            with span("churn.submit_pump"):
                evaluator.submit(event)
                evaluator.pump()
            with span("churn.snapshot"):
                return evaluator.snapshot()

    def keep(self, i: int, event, view) -> None:
        self.events.append(event)
        self.last_view = view
        self.applied += 1
        if view.stale or view.snapshot.applied_events != self.applied:
            self.problems.setdefault(i, []).append(
                f"event {i} not adopted (stale={view.stale}, lag={view.lag_events})"
            )
        if self.rng.random() < CHECKPOINT_SHARE:
            self.checkpoints[i] = self._plain(view.snapshot)

    @staticmethod
    def _plain(snap) -> dict:
        return {
            "availability": snap.availability,
            "pair_availability": dict(snap.pair_availability),
            "disconnected": tuple(snap.disconnected),
            "path_sets": {pair: list(ps.paths) for pair, ps in snap.path_sets.items()},
        }

    def extra_layer_metrics(self, ops: int) -> Dict[str, float]:
        """bdd.nodes: the incremental kernel counts no allocated nodes, so
        they are read from its ``bdd.recompile_delta`` spans, whose
        ``nodes`` attribute is the size of the persistent manager.  Each
        traced block is one round on a new evaluator; an event's growth is
        its last recompile's size minus the one before (the first against
        the round's initial compile), or the whole size when the program
        replaced its manager."""
        roots, _ = self.trace_data()
        grown = 0
        for block, base in enumerate(self.manager_bases):
            previous = base
            for root in roots[block * ROUND_EVENTS:(block + 1) * ROUND_EVENTS]:
                for nodes in _recompile_nodes([root]):
                    grown += nodes - previous if nodes >= previous else nodes
                    previous = nodes
        return {"bdd.nodes": grown / ops}

    def check(self) -> Problems:
        """Replay every event on networkx (each round starts and ends on
        the healthy campus, as each evaluator does); the checkpointed
        epochs and each round's last one must match the reference."""
        from checks import ChurnReplay, check_churn_epoch
        from reference import annotation_table, model_graph

        self._close_round()
        problems = self.problems
        table = annotation_table(self.initial)
        replay = ChurnReplay(model_graph(self.initial))
        for i, event in enumerate(self.events):
            replay.apply(event)
            if i in self.checkpoints:
                found = check_churn_epoch(self.checkpoints[i], replay.graph, table, self.pairs)
                if found:
                    problems.setdefault(i, []).extend(found)
        return problems


# ---------------------------------------------------------------------------
# casestudy_cli
# ---------------------------------------------------------------------------

CLIENTS = tuple(f"t{i}" for i in range(1, 16))
PRINTERS = ("p1", "p2", "p3")


def fill_store(store_dir: str) -> None:
    """Run the casestudy command in-process for all 45 perspectives with
    the artifact store at *store_dir* (the set-up of casestudy_cli)."""
    os.environ["REPRO_STORE"] = store_dir
    from repro import cli

    for client in CLIENTS:
        for printer in PRINTERS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(
                    ["casestudy", "--client", client, "--printer", printer, "--dimensions", DIMENSIONS]
                )
            if code != 0:
                raise SystemExit(f"casestudy {client}/{printer} exited {code} while filling the store")


class CasestudyCli(Workload):
    """Fresh ``python -m repro.cli casestudy`` processes, one at a time,
    cycling through the paper's 45 perspectives and reading a store
    filled during set-up."""

    name = "casestudy_cli"
    own_children = True

    def setup(self) -> None:
        self.store_dir = self.workdir / "store"
        fill = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--fill-store", str(self.store_dir)],
            env=child_env(),
            cwd=ROOT,
            timeout=170,
        )
        if fill.returncode != 0:
            raise SystemExit("filling the artifact store failed")
        self.perspectives = [(c, p) for c in CLIENTS for p in PRINTERS]
        self.rng.shuffle(self.perspectives)
        self.env = child_env(REPRO_STORE=str(self.store_dir))
        #: (operation, client, printer, exit code, standard output)
        self.outputs: List[Tuple[int, str, str, int, str]] = []
        self.child_traces: List[str] = []
        self.child_metrics: List[Dict[str, float]] = []

    def next_input(self, i: int):
        client, printer = self.perspectives[i % len(self.perspectives)]
        argv = [
            sys.executable, "-m", "repro.cli", "casestudy",
            "--client", client, "--printer", printer, "--dimensions", DIMENSIONS,
        ]
        trace_file = None
        if self.traced:
            trace_file = str(self.workdir / f"cli-trace-{i}.json")
            argv += ["--trace", trace_file, "--metrics"]
        return client, printer, argv, trace_file

    def run(self, inp):
        _client, _printer, argv, _ = inp
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_mib = max(self.child_peak_mib, _rss_mib(usage))
        return proc.returncode, out.decode("utf-8")

    def keep(self, i: int, inp, out) -> None:
        client, printer, _argv, trace_file = inp
        code, text = out
        if trace_file is not None and code == 0:
            self.child_traces.append(trace_file)
            self.child_metrics.append(parse_prometheus(text[text.find("# HELP"):]))
        self.outputs.append((i, client, printer, code, text))

    def trace_op_begin(self) -> None:
        pass  # the child process traces itself (--trace, --metrics)

    def trace_op_end(self) -> None:
        pass

    def trace_data(self):
        spans: List[dict] = []
        for path in self.child_traces:
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.load(handle)["spans"])
        counters: Dict[str, float] = {}
        for metrics in self.child_metrics:
            for k, v in metrics.items():
                counters[k] = counters.get(k, 0.0) + v
        return spans, counters

    def check(self) -> Problems:
        from checks import check_casestudy
        from reference import Reference
        from repro.casestudy import usi_network

        ref = Reference.of_model(usi_network())
        problems: Problems = {}
        for i, client, printer, code, text in self.outputs:
            if code != 0:
                problems[i] = [f"casestudy {client}/{printer} exited {code}"]
                continue
            found = check_casestudy(text, client, printer, ref)
            if found:
                problems[i] = found
        return problems


# ---------------------------------------------------------------------------
# population_sweep
# ---------------------------------------------------------------------------

#: users per sweep: the size of the repository's 1M-user population bench
POPULATION_USERS = 1_000_000
#: seeded users recomputed per sweep (plus the listed worst-served)
POPULATION_SAMPLE = 8


def _user_classes():
    """The user classes of the repository's population bench (``CLASSES``
    in ``benchmarks/test_bench_population.py``), imported, not copied:
    std (weight 4, device 0.98, jitter 0.05) and gold (weight 1, device
    0.9999)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_population", ROOT / "benchmarks" / "test_bench_population.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLASSES


class PopulationSweep(Workload):
    """Seeded populations on the USI printing service over its 15
    attachments: each operation is one evaluate_population (shards=2,
    shared-memory transport) with a new seed and printer perspective,
    on kernels compiled during set-up."""

    name = "population_sweep"

    def setup(self) -> None:
        from repro.casestudy import CLIENTS as USI_CLIENTS
        from repro.casestudy import printing_mapping, printing_service, usi_topology
        from repro.workload import Population, evaluate_population

        self.shards = min(2, os.cpu_count() or 1)
        self.topology = usi_topology()
        self.service = printing_service()
        self.attachments = tuple(USI_CLIENTS)
        self.classes = _user_classes()
        self._generate = Population.generate
        self._evaluate = evaluate_population
        self._mapping = printing_mapping
        # compile every (attachment, printer) kernel and start the shard
        # transport once
        for printer in PRINTERS:
            warm = Population.generate(3000, self.classes, self.attachments, seed=self.seed)
            self._sweep(warm, printer)
        self.records: List[dict] = []
        #: (users, rows, shard seconds) of each traced sweep
        self.shard_stats: List[Tuple[int, int, List[float]]] = []
        self.ref = None

    def _sweep(self, population, printer):
        mapping = self._mapping
        return self._evaluate(
            self.topology,
            self.service,
            lambda client: mapping(client, printer),
            population,
            shards=self.shards,
            top=5,
        )

    def next_input(self, i: int):
        printer = PRINTERS[self.rng.randrange(len(PRINTERS))]
        population = self._generate(
            POPULATION_USERS, self.classes, self.attachments, seed=self.rng.randrange(2**32)
        )
        return printer, population

    def run(self, inp):
        printer, population = inp
        with span("op", workload=self.name):
            with span("population.evaluate_population"):
                return self._sweep(population, printer)

    def keep(self, i: int, inp, report) -> None:
        import numpy as np

        from checks import device_availability
        from reference import Reference

        printer, pop = inp
        if self.ref is None:
            self.ref = Reference.of_model(self.topology.model)
        table = self.ref.table
        override = np.array(
            [np.nan if c.device_availability is None else c.device_availability for c in self.classes]
        )
        jitter = np.array([c.jitter for c in self.classes])
        attach_value = np.array([table[a] for a in pop.attachments])
        cls = pop.class_index
        base = np.where(np.isnan(override[cls]), attach_value[pop.attachment_index], override[cls])
        device = np.clip(base * (1.0 - jitter[cls] * pop.jitter_unit), 0.0, 1.0)
        avail = report.availability
        ratio = avail / device
        ratios = {}
        for ai, attachment in enumerate(pop.attachments):
            r = ratio[pop.attachment_index == ai]
            if r.size:
                ratios[attachment] = (float(r.min()), float(r.max()))
        users = [int(u) for u in self.rng.sample(range(pop.n_users), POPULATION_SAMPLE)]
        users += [w.user for w in report.worst]
        sample = []
        for u in users:
            c = self.classes[cls[u]]
            attachment = pop.attachments[pop.attachment_index[u]]
            d = device_availability(table[attachment], c.device_availability, c.jitter, float(pop.jitter_unit[u]))
            sample.append((attachment, d, float(avail[u])))
        worst_ok = all(w.availability == float(avail[w.user]) for w in report.worst) and (
            not report.worst or report.worst[0].availability == float(avail.min())
        )
        self.records.append(
            {
                "i": i,
                "printer": printer,
                "n": pop.n_users,
                "class_users": {s.name: s.users for s in report.class_summaries},
                "class_percentiles": {s.name: (s.p99, s.p90, s.p50) for s in report.class_summaries},
                "ratios": ratios,
                "users": sample,
                "worst_ok": worst_ok,
            }
        )
        if self.traced:
            self.shard_stats.append((pop.n_users, report.rows, list(report.shard_seconds)))

    def check(self) -> Problems:
        from checks import check_population

        memo: Dict = {}
        problems: Problems = {}
        for record in self.records:
            found = check_population(record, self.ref, record["printer"], memo)
            if not record["worst_ok"]:
                found.append("worst-served users are not the lowest availabilities")
            if found:
                problems[record["i"]] = found
        return problems

    def extra_layer_metrics(self, ops: int) -> Dict[str, float]:
        traced = self.shard_stats
        users = sum(n for n, _, _ in traced)
        rows = sum(r for _, r, _ in traced)
        imbalance = [max(s) / (sum(s) / len(s)) for _, _, s in traced if s and sum(s) > 0]
        return {
            "eval.evaluate_s": sum(sum(s) for _, _, s in traced) / ops,
            "population.rows": rows / ops,
            "population.dedup_ratio": users / rows if rows else 0.0,
            "population.shard_imbalance": sum(imbalance) / len(imbalance) if imbalance else 0.0,
        }


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (CampusCold, ChurnStreamWorkload, CasestudyCli, PopulationSweep)
}
