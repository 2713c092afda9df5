"""Reference evaluator for the benchmark's output checks.

It answers "what availability does this pair perceive?" without any of
``repro``'s discovery or BDD code:

* path sets come from networkx ``all_simple_paths`` on the model graph;
* component availabilities follow the paper's Formula 1,
  ``A = 1 - MTTR/MTBF`` (with ``redundantComponents = k`` standby
  replicas: ``1 - (1 - A)^(k+1)``), read from the model's annotations;
* the availability of a set of path sets comes from a small dict-based
  ROBDD (tuple-keyed unique table, recursive apply) evaluated by Shannon
  expansion.

Only the UML object model itself (instances, links and their property
values) is read from ``repro``; everything computed from it is computed
here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Sequence, Tuple

import networkx as nx

Path = Tuple[str, ...]


def link_name(a: str, b: str) -> str:
    """The component name of the link between *a* and *b* (``lo|hi``)."""
    return f"{a}|{b}" if a <= b else f"{b}|{a}"


def formula1(mtbf: float, mttr: float, redundant: int = 0) -> float:
    """Formula 1, ``1 - MTTR/MTBF``, with *redundant* standby replicas."""
    if mtbf <= 0 or mttr < 0 or mttr > mtbf:
        raise ValueError(f"Formula 1 needs 0 <= MTTR <= MTBF, got {mtbf}, {mttr}")
    single = 1.0 - mttr / mtbf
    return 1.0 - (1.0 - single) ** (redundant + 1)


def _annotated(properties: Mapping[str, object]) -> float:
    return formula1(
        float(properties["MTBF"]),
        float(properties["MTTR"]),
        int(properties.get("redundantComponents") or 0),
    )


def annotation_table(model) -> Dict[str, float]:
    """Formula-1 availability of every instance and link of a UML object
    model, keyed by instance name and :func:`link_name`."""
    table = {
        inst.name: _annotated(inst.property_dict()) for inst in model.instances
    }
    for link in model.links:
        table[link_name(link.end1.name, link.end2.name)] = _annotated(
            link.property_dict()
        )
    return table


def model_graph(model) -> nx.Graph:
    """The undirected infrastructure graph of a UML object model."""
    graph = nx.Graph()
    graph.add_nodes_from(inst.name for inst in model.instances)
    graph.add_edges_from((link.end1.name, link.end2.name) for link in model.links)
    return graph


def simple_paths(graph: nx.Graph, source: str, target: str) -> List[Path]:
    """Every simple path from *source* to *target* (networkx)."""
    if source not in graph or target not in graph:
        return []
    return [tuple(p) for p in nx.all_simple_paths(graph, source, target)]


def path_components(path: Sequence[str]) -> FrozenSet[str]:
    """The components a path depends on: its nodes and its links."""
    return frozenset(path) | {link_name(a, b) for a, b in zip(path, path[1:])}


def bfs_order(graph: nx.Graph, source: str, components: Iterable[str]) -> List[str]:
    """A variable order: nodes by BFS distance from *source* (then name),
    each link right after the later of its two endpoints."""
    distance = nx.single_source_shortest_path_length(graph, source)
    far = len(distance) + 1
    nodes = sorted(
        (c for c in components if "|" not in c),
        key=lambda n: (distance.get(n, far), n),
    )
    rank = {n: i for i, n in enumerate(nodes)}
    links = sorted(
        (c for c in components if "|" in c),
        key=lambda l: (max(rank.get(e, len(rank)) for e in l.split("|")), l),
    )
    order: List[str] = []
    pending = list(links)
    for node in nodes:
        order.append(node)
        while pending and max(rank.get(e, len(rank)) for e in pending[0].split("|")) == rank[node]:
            order.append(pending.pop(0))
    order.extend(pending)
    return order


class ROBDD:
    """A reduced ordered BDD over a fixed variable order, dict-based."""

    FALSE = 0
    TRUE = 1

    def __init__(self, order: Sequence[Hashable]):
        self.order = list(order)
        self.level = {v: i for i, v in enumerate(self.order)}
        terminal = len(self.order)
        self.nodes: List[Tuple[int, int, int]] = [(terminal, -1, -1), (terminal, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._memo: Dict[Tuple[str, int, int], int] = {}

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self.nodes)
            self.nodes.append(key)
            self._unique[key] = node
        return node

    def cube(self, variables: Iterable[Hashable]) -> int:
        node = self.TRUE
        for level in sorted({self.level[v] for v in variables}, reverse=True):
            node = self.mk(level, self.FALSE, node)
        return node

    def apply(self, op: str, a: int, b: int) -> int:
        if op == "and":
            if a == self.FALSE or b == self.FALSE:
                return self.FALSE
            if a == self.TRUE:
                return b
            if b == self.TRUE:
                return a
        else:
            if a == self.TRUE or b == self.TRUE:
                return self.TRUE
            if a == self.FALSE:
                return b
            if b == self.FALSE:
                return a
        if a == b:
            return a
        if a > b:
            a, b = b, a
        key = (op, a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        la, a0, a1 = self.nodes[a]
        lb, b0, b1 = self.nodes[b]
        level = min(la, lb)
        if la != level:
            a0 = a1 = a
        if lb != level:
            b0 = b1 = b
        result = self.mk(level, self.apply(op, a0, b0), self.apply(op, a1, b1))
        self._memo[key] = result
        return result

    def any_of(self, path_sets: Iterable[Iterable[Hashable]]) -> int:
        """The OR over path sets of the AND of each set's variables."""
        root = self.FALSE
        for path in path_sets:
            root = self.apply("or", root, self.cube(path))
        return root

    def probability(self, root: int, p: Mapping[Hashable, float]) -> float:
        """Shannon expansion ``P(f) = p_v P(f|v=1) + (1-p_v) P(f|v=0)``."""
        values = {self.FALSE: 0.0, self.TRUE: 1.0}
        stack = [root]
        while stack:
            node = stack[-1]
            if node in values:
                stack.pop()
                continue
            level, low, high = self.nodes[node]
            missing = [c for c in (low, high) if c not in values]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            pv = p[self.order[level]]
            values[node] = pv * values[high] + (1.0 - pv) * values[low]
        return values[root]

    def size(self, root: int) -> int:
        """Decision nodes reachable from *root*."""
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node <= self.TRUE or node in seen:
                continue
            seen.add(node)
            stack.extend(self.nodes[node][1:])
        return len(seen)


class Structure:
    """Path-set groups compiled into one ROBDD: "every group has a working
    path set" (the system) and each group alone."""

    def __init__(
        self,
        groups: Sequence[Sequence[Iterable[str]]],
        table: Mapping[str, float],
        order: Sequence[str],
    ):
        self.table = table
        self.bdd = ROBDD(order)
        self.roots = [self.bdd.any_of(group) for group in groups]
        system = self.bdd.TRUE
        for root in self.roots:
            system = self.bdd.apply("and", system, root)
        self.system = system

    def availability(self, overrides: Mapping[str, float] = ()) -> Tuple[float, List[float]]:
        """(system, per-group) availability; *overrides* replace single
        annotations of the table."""
        table = dict(self.table)
        table.update(dict(overrides))
        return (
            self.bdd.probability(self.system, table),
            [self.bdd.probability(r, table) for r in self.roots],
        )


class Reference:
    """Reference answers over one infrastructure graph and one table."""

    def __init__(self, graph: nx.Graph, table: Mapping[str, float]):
        self.graph = graph
        self.table = table

    @classmethod
    def of_model(cls, model) -> "Reference":
        return cls(model_graph(model), annotation_table(model))

    def paths(self, source: str, target: str) -> List[Path]:
        return simple_paths(self.graph, source, target)

    def structure(self, pairs: Sequence[Tuple[str, str]]) -> Structure:
        """The compiled structure of *pairs* (distinct unordered pairs in
        series); every pair must have a path."""
        groups = [[path_components(p) for p in self.paths(a, b)] for a, b in pairs]
        if any(not g for g in groups):
            raise ValueError("a pair has no path")
        members = {c for g in groups for path in g for c in path}
        return Structure(groups, self.table, bfs_order(self.graph, pairs[0][0], members))

    def availability(
        self,
        pairs: Sequence[Tuple[str, str]],
        overrides: Mapping[str, float] = (),
    ) -> Tuple[float, List[float]]:
        """System and per-pair availability of *pairs*."""
        return self.structure(pairs).availability(overrides)
