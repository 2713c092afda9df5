"""Helpers shared by the benchmark's launcher, worker and steadiness tool.

Standard library only: the launcher imports this before it knows whether
the program's sources are present.
"""

from __future__ import annotations

import os
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of the benchmark inside the checkout (git-ignored)
WORK = ROOT / ".perfbench"

WORKLOADS = ("campus_cold", "churn_stream", "casestudy_cli", "population_sweep")

#: the five built-in user-perceived dimensions, in registry order
DIMENSIONS = "availability,responsiveness,performability,latency,cost"

#: end-to-end metrics: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: per-layer metrics of the traced run: name -> unit (see README.md)
PER_LAYER: Dict[str, str] = {
    "import.repro_cli_s": "s",
    "model.build_s": "s",
    "vpm.import_s": "s",
    "engine.discover_s": "s",
    "engine.enumerations": "count",
    "engine.paths": "count",
    "engine.path_cache_hit_ratio": "ratio",
    "engine.block_cache_hit_ratio": "ratio",
    "upsim.generate_s": "s",
    "bdd.compile_s": "s",
    "bdd.compilations": "count",
    "bdd.nodes": "count",
    "bdd.ite_cache_hits": "count",
    "bdd.compile_vs_seed_ratio": "ratio",
    "bdd.nodes_topology_order": "count",
    "bdd.nodes_frequency_order": "count",
    "eval.evaluate_s": "s",
    "eval.evaluations": "count",
    "analysis.report_s": "s",
    "dimensions.evaluate_s": "s",
    "store.read_s": "s",
    "store.write_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "churn.pump_s": "s",
    "churn.recomputes": "count",
    "churn.epochs": "count",
    "population.evaluate_s": "s",
    "population.rows": "count",
    "population.dedup_ratio": "ratio",
    "population.shard_imbalance": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a process that imports the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_STORE", None)
    env.update(extra)
    return env


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None with fewer than forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    rank = n - 10  # 1-based rank with exactly ten samples above it
    return 100.0 * rank / n, ordered[rank - 1]


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


# -- program counters ---------------------------------------------------------

_PROM_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sample name -> value summed over label sets, from the Prometheus
    text the CLI prints with ``--metrics`` (histogram buckets skipped)."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        match = _PROM_LINE.match(line.strip())
        if not match or match.group(1).endswith("_bucket"):
            continue
        try:
            value = float(match.group(3))
        except ValueError:
            continue
        values[match.group(1)] = values.get(match.group(1), 0.0) + value
    return values


# -- spans --------------------------------------------------------------------

#: span-name prefix -> layer; the benchmark's own spans use layer names
_PREFIX_LAYER = {
    "engine": "engine",
    "bdd": "bdd",
    "store": "store",
    "dynamics": "churn",
    "churn": "churn",
    "workload": "population",
    "population": "population",
    "analysis": "analysis",
    "dimensions": "dimensions",
    "upsim": "upsim",
    "eval": "eval",
    "model": "model",
    "vpm": "vpm",
    "op": "op",
}

#: the CLI's per-step spans (paper Figure 4) -> layer
_STEP_LAYER = {
    "casestudy.step1_annotate_profiles": "model",
    "casestudy.step2_object_diagram": "model",
    "casestudy.step3_service_description": "model",
    "casestudy.step4_mapping": "model",
    "casestudy.step5_import_uml": "vpm",
    "casestudy.step6_import_mapping": "vpm",
    "casestudy.step7_path_discovery": "engine",
    "casestudy.step8_generate_upsim": "upsim",
}


def layer_of(name: str) -> str:
    if name in _STEP_LAYER:
        return _STEP_LAYER[name]
    return _PREFIX_LAYER.get(name.split(".", 1)[0], "other")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Iterable[Mapping]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self seconds (the span minus the
    part of its interval that child spans cover), from span dicts as
    ``repro.obs`` writes them."""
    table: Dict[str, Dict[str, float]] = {}
    stack = list(spans)
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        stack.extend(children)
        covered = _covered(
            [(c["start"], c["start"] + c["duration"]) for c in children]
        )
        row = table.setdefault(node["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += node["duration"]
        row["self_s"] += max(0.0, node["duration"] - covered)
    return table


def attr_sum(spans: Iterable[Mapping], name: str, attr: str, **match) -> float:
    """Sum of attribute *attr* over every span called *name* under
    *spans* whose attributes equal *match*."""
    total, stack = 0.0, list(spans)
    while stack:
        node = stack.pop()
        stack.extend(node.get("children", []))
        attrs = node.get("attrs", {})
        if node["name"] == name and attr in attrs and all(attrs.get(k) == v for k, v in match.items()):
            total += attrs[attr]
    return total


def layer_table(by_name: Mapping[str, Mapping[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum :func:`self_times` rows by layer."""
    layers: Dict[str, Dict[str, float]] = {}
    for name, row in by_name.items():
        agg = layers.setdefault(layer_of(name), {"spans": 0, "self_s": 0.0})
        agg["spans"] += row["count"]
        agg["self_s"] += row["self_s"]
    return layers


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)
