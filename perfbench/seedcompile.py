"""The seed's dict compiler, driven under a chosen variable order.

``DictBDD`` is imported from ``benchmarks/test_bench_compile.py`` (the
repository's replica of the seed construction path), not copied; this
module only folds path-set groups through it the way the seed's
``compile_structure`` did — an OR over each group's path cubes, then an
AND over the distinct group roots — with the order given by the caller.
"""

from __future__ import annotations

import importlib.util
from typing import Iterable, Sequence

from common import ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_compile_seed", ROOT / "benchmarks" / "test_bench_compile.py"
)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
DictBDD = _module.DictBDD


def seed_compile(groups: Sequence[Sequence[Iterable[str]]], order: Sequence[str]) -> int:
    """Compile *groups* with the seed compiler under *order*; return the
    number of decision nodes reachable from the system root."""
    index = {name: i for i, name in enumerate(order)}
    bdd = DictBDD(len(order))
    roots = []
    for group in groups:
        root = bdd.FALSE
        for path in group:
            root = bdd._apply("or", root, bdd.cube(index[c] for c in path))
        roots.append(root)
    system = bdd.TRUE
    for root in dict.fromkeys(roots):
        system = bdd._apply("and", system, root)
    seen = set()
    stack = [system]
    while stack:
        node = stack.pop()
        if node <= bdd.TRUE or node in seen:
            continue
        seen.add(node)
        stack.extend((bdd.low[node], bdd.high[node]))
    return len(seen)
