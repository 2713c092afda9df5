"""Output checks for every workload, run off the clock.

Each checker takes the program's answer as plain data plus a
:class:`reference.Reference` and returns a list of problems (empty when
the answer is right).  Expected values come from the reference
evaluator, from networkx, from the paper's printed paths and figures and
from properties every right answer has — never from a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from reference import Reference

#: absolute tolerance between the program and the reference evaluator
EXACT = 1e-12
#: tolerance for population users (one perturbed sweep per row)
POPULATION = 1e-9

#: Section VI-G of the paper: the two printed paths between t1 and printS
PAPER_T1_PRINTS = {
    ("t1", "e1", "d1", "c1", "d4", "printS"),
    ("t1", "e1", "d1", "c1", "c2", "d4", "printS"),
}
#: components visible in Figure 11 (UPSIM, client t1, printer p2)
FIGURE_11 = {"t1", "e1", "d1", "c1", "c2", "d4", "printS", "e3", "d2", "p2"}
#: components visible in Figure 12 (UPSIM, client t15, printer p3)
FIGURE_12 = {"t15", "e4", "d2", "c2", "c1", "d4", "printS", "p3", "d1"}

Pair = Tuple[str, str]


def _paths_problems(label: str, got: Iterable[Sequence[str]], want: Iterable[Sequence[str]]) -> List[str]:
    got_list = [tuple(p) for p in got]
    got_set, want_set = set(got_list), {tuple(p) for p in want}
    problems = []
    if len(got_set) != len(got_list):
        problems.append(f"{label}: duplicate paths")
    if got_set != want_set:
        problems.append(
            f"{label}: {len(got_set - want_set)} paths not in networkx's set, "
            f"{len(want_set - got_set)} of networkx's paths missing"
        )
    return problems


def _close(label: str, got: float, want: float, tol: float) -> List[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: {got!r} differs from the reference {want!r} by {abs(got - want):.3g}"]


# -- campus_cold -------------------------------------------------------------


def check_campus(answer: Mapping, ref: Reference) -> List[str]:
    """One client->server answer: its paths equal networkx's and its
    availability is the reference's to 1e-12."""
    client, server = answer["client"], answer["server"]
    label = f"{client}->{server}"
    problems = _paths_problems(label, answer["paths"], ref.paths(client, server))
    system, (pair,) = ref.availability([(client, server)])
    problems += _close(f"{label} availability", answer["availability"], system, EXACT)
    problems += _close(f"{label} pair availability", answer["pair_availability"], pair, EXACT)
    return problems


# -- churn_stream ------------------------------------------------------------


class ChurnReplay:
    """The benchmark's own copy of the churn topology: each event is
    replayed on a networkx graph with the events' documented semantics
    (state-setting cuts and restores, flaps that end with the link up,
    crashes that take the component's links along and restores that
    re-cable it to the neighbours still present)."""

    def __init__(self, graph: nx.Graph):
        self.graph = graph.copy()
        self._crashed: Dict[str, List[str]] = {}

    def apply(self, event) -> None:
        kind = type(event).__name__
        g = self.graph
        if kind == "LinkCut":
            if g.has_edge(event.a, event.b):
                g.remove_edge(event.a, event.b)
        elif kind in ("LinkRestore", "LinkFlap"):
            g.add_edge(event.a, event.b)
        elif kind == "ComponentCrash":
            if event.name not in self._crashed and event.name in g:
                self._crashed[event.name] = list(g.neighbors(event.name))
                g.remove_node(event.name)
        elif kind == "ComponentRestore":
            neighbours = self._crashed.pop(event.name, None)
            if neighbours is not None:
                g.add_node(event.name)
                g.add_edges_from((event.name, n) for n in neighbours if n in g)
        else:
            raise ValueError(f"churn event {kind} has no replay")


def check_churn_epoch(
    snapshot: Mapping, graph: nx.Graph, table: Mapping[str, float], pairs: Sequence[Pair]
) -> List[str]:
    """One adopted epoch against the replayed topology: disconnected
    pairs are exactly those networkx finds no path for, connected pairs
    carry networkx's paths and the reference availability, and the
    system value is the reference's (0 when any pair is cut off)."""
    ref = Reference(graph, table)
    problems: List[str] = []
    connected: List[Pair] = []
    disconnected = {tuple(sorted(p)) for p in snapshot["disconnected"]}
    for pair in pairs:
        key = tuple(sorted(pair))
        reachable = nx.has_path(graph, *pair)
        if reachable == (key in disconnected):
            problems.append(
                f"{pair}: networkx says {'connected' if reachable else 'disconnected'}, "
                f"the epoch says the opposite"
            )
            continue
        if not reachable:
            problems += _close(f"{pair} availability", snapshot["pair_availability"][pair], 0.0, 0.0)
            continue
        connected.append(pair)
        problems += _paths_problems(f"{pair}", snapshot["path_sets"][pair], ref.paths(*pair))
    if problems:
        return problems
    if connected:
        system, per_pair = ref.availability(connected)
        for pair, want in zip(connected, per_pair):
            problems += _close(f"{pair} availability", snapshot["pair_availability"][pair], want, EXACT)
    else:
        system = 0.0
    if disconnected:
        system = 0.0
    problems += _close("system availability", snapshot["availability"], system, EXACT)
    return problems


def check_churn_final(stale: bool, lag_events: int, quarantined: int) -> List[str]:
    problems = []
    if stale or lag_events:
        problems.append(f"final snapshot is stale ({lag_events} events behind)")
    if quarantined:
        problems.append(f"{quarantined} events quarantined")
    return problems


# -- casestudy_cli -----------------------------------------------------------

_PATHS_HEAD = re.compile(r"^paths (\S+) -> (\S+) \((\d+)\):$")
_ROW = re.compile(r"^(\w+)\s+(\S+)\s+(\S+)\s+(\d+)\s+([01]\.\d+)\s+[\d.]+$")
_SERVICE = re.compile(r"^service \(all pairs\)\s+([01]\.\d+)\s+[\d.]+$")
_DIMENSION = re.compile(r"^\s+(availability|responsiveness|performability|latency|cost)\s+(\S+)")
_INSTANCE = re.compile(r"\[(\w+):\w+\]")


def _tolerance(token: str) -> float:
    """Half a unit in the last printed digit."""
    decimals = len(token.split(".", 1)[1]) if "." in token else 0
    return 0.5 * 10.0 ** -decimals * (1 + 1e-9)


def parse_casestudy(text: str) -> Dict:
    """The parts of ``upsim casestudy`` output the checks read."""
    out: Dict = {"paths": {}, "rows": [], "service": None, "upsim": set(), "dimensions": {}}
    lines = text.splitlines()
    i = 0
    section = None
    while i < len(lines):
        line = lines[i]
        head = _PATHS_HEAD.match(line)
        if head:
            pair = (head.group(1), head.group(2))
            n = int(head.group(3))
            out["paths"][pair] = [tuple(l.strip().split("—")) for l in lines[i + 1 : i + 1 + n]]
            i += 1 + n
            continue
        if line.startswith("object diagram "):
            section = "upsim"
        elif line.startswith("User-perceived availability report"):
            section = "report"
        elif line.startswith("User-perceived dimensions"):
            section = "dimensions"
        elif line.startswith("Component importance"):
            section = None
        elif section == "upsim":
            out["upsim"].update(_INSTANCE.findall(line))
        elif section == "report":
            row, service = _ROW.match(line), _SERVICE.match(line)
            if row:
                out["rows"].append(row.groups())
            elif service:
                out["service"] = service.group(1)
        elif section == "dimensions":
            dim = _DIMENSION.match(line)
            if dim:
                out["dimensions"][dim.group(1)] = dim.group(2)
        i += 1
    return out


def check_casestudy(text: str, client: str, printer: str, ref: Reference, server: str = "printS") -> List[str]:
    """One ``casestudy`` process's output for one perspective."""
    parsed = parse_casestudy(text)
    problems: List[str] = []
    wanted_pairs = {(client, server), (printer, server), (server, printer)}
    if set(parsed["paths"]) != wanted_pairs:
        problems.append(f"path listings for {sorted(parsed['paths'])}, expected {sorted(wanted_pairs)}")
    for pair, paths in parsed["paths"].items():
        problems += _paths_problems(f"{pair[0]}->{pair[1]}", paths, ref.paths(*pair))
    if client == "t1" and set(parsed["paths"].get(("t1", server), [])) != PAPER_T1_PRINTS:
        problems.append("t1->printS does not list exactly the two paths of Section VI-G")
    pairs = [(client, server), (printer, server)]
    members = {n for pair in pairs for path in ref.paths(*pair) for n in path}
    if parsed["upsim"] != members:
        problems.append(f"UPSIM components {sorted(parsed['upsim'])}, expected {sorted(members)}")
    figure = {("t1", "p2"): FIGURE_11, ("t15", "p3"): FIGURE_12}.get((client, printer))
    if figure is not None and not figure <= parsed["upsim"]:
        problems.append(f"UPSIM lacks components of the paper's figure: {sorted(figure - parsed['upsim'])}")
    system, per_pair = ref.availability(pairs)
    by_key = {tuple(sorted(p)): v for p, v in zip(pairs, per_pair)}
    if len(parsed["rows"]) != 5:
        problems.append(f"{len(parsed['rows'])} report rows, expected the five atomic services")
    for service, rq, pr, n_paths, value in parsed["rows"]:
        want = by_key.get(tuple(sorted((rq, pr))))
        if want is None:
            problems.append(f"report row {service} names an unexpected pair ({rq}, {pr})")
            continue
        problems += _close(f"{service} availability", float(value), want, _tolerance(value))
        if int(n_paths) != len(ref.paths(rq, pr)):
            problems.append(f"{service}: {n_paths} paths, networkx finds {len(ref.paths(rq, pr))}")
    if parsed["service"] is None:
        problems.append("no service availability line")
    else:
        problems += _close("service availability", float(parsed["service"]), system, _tolerance(parsed["service"]))
    dims = parsed["dimensions"]
    if set(dims) != {"availability", "responsiveness", "performability", "latency", "cost"}:
        problems.append(f"dimensions section lists {sorted(dims)}")
    elif parsed["service"] is not None and dims["availability"] != parsed["service"]:
        problems.append("availability dimension differs from the service availability")
    return problems


# -- population_sweep --------------------------------------------------------


def device_availability(
    attachment_value: float, override: Optional[float], jitter: float, unit: float
) -> float:
    """A user's own device: the class override (or the attachment's
    Formula-1 value) degraded by the user's jitter draw, clipped."""
    base = attachment_value if override is None else override
    return min(1.0, max(0.0, base * (1.0 - jitter * unit)))


def check_population(
    record: Mapping, ref: Reference, printer: str, memo: Dict, server: str = "printS"
) -> List[str]:
    """One population sweep, reduced off the clock to *record*:

    * ``n`` and ``class_users``: class user counts must sum to ``n``;
    * ``class_percentiles``: (p99, p90, p50) per class, non-decreasing;
    * ``ratios``: per attachment, the (min, max) of availability divided
      by the user's device availability — equal within one attachment
      (the device is in series) and equal to the reference evaluated with
      the device certainly up;
    * ``users``: (attachment, device availability, availability) of a
      seeded sample plus the worst-served, each recomputed to 1e-9.
    """
    problems: List[str] = []
    if sum(record["class_users"].values()) != record["n"]:
        problems.append(f"class user counts sum to {sum(record['class_users'].values())}, not {record['n']}")
    for name, (p99, p90, p50) in record["class_percentiles"].items():
        if not p99 <= p90 <= p50:
            problems.append(f"class {name}: p99 {p99} <= p90 {p90} <= p50 {p50} does not hold")

    def reference(attachment: str, value: float) -> float:
        key = (printer, attachment)
        if key not in memo:
            memo[key] = ref.structure([(attachment, server), (printer, server)])
        return memo[key].availability({attachment: value})[0]

    for attachment, (low, high) in record["ratios"].items():
        if high - low > POPULATION * high:
            problems.append(f"{attachment}: A_i/d_i ranges over [{low!r}, {high!r}]")
        problems += _close(f"{attachment} A_i/d_i", high, reference(attachment, 1.0), POPULATION)
    for attachment, device, value in record["users"]:
        problems += _close(f"user at {attachment}", value, reference(attachment, device), POPULATION)
    return problems
