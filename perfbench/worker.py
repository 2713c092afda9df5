"""One workload in a fresh process: set-up, timed closed loop, checks.

Started by ``run.py``; prints ``READY`` on standard output when set-up is
done (the launcher times set-up up to that line) and writes its result
as JSON to ``--result``.  With ``--setup-only`` it stops after ``READY``.
``--fill-store DIR`` is the set-up child of ``casestudy_cli``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import PER_LAYER, ROOT, SRC, attr_sum, child_env, layer_table, self_times, tail  # noqa: E402

sys.path.insert(0, str(SRC))

#: fresh interpreters timed for import.repro_cli_s
IMPORT_SAMPLES = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


def timed_loop(workload, budget: float, trace: bool, failures: dict):
    """Run operations until their summed latency reaches *budget*
    seconds; with *trace*, every second block of the workload's
    ``trace_period`` operations is traced.  Return the (untraced, traced)
    latencies."""
    latencies = ([], [])
    clock = 0.0
    wall_limit = time.perf_counter() + 3 * budget + 30
    i = 0
    while clock < budget and time.perf_counter() < wall_limit:
        traced = trace and (i // workload.trace_period) % 2 == 1
        workload.traced = traced
        inp = workload.next_input(i)
        if traced:
            workload.trace_op_begin()
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:  # an operation that raises counts as failed
            out = None
            failures.setdefault(i, []).append(traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
        if traced:
            workload.trace_op_end()
        latencies[traced].append(dt)
        clock += dt
        if out is not None:
            workload.keep(i, inp, out)
        i += 1
    workload.traced = False
    return latencies


def import_seconds() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def layer_metrics(workload, traced, overhead: float, import_s: float):
    """Every per-layer metric of the traced operations (their latencies
    are *traced*), plus the trace record."""
    ops = len(traced)
    op_mean = sum(traced) / ops
    spans, counters = workload.trace_data()
    by_name = self_times(spans)
    layers = layer_table(by_name)

    def per_op(layer):
        return layers.get(layer, {}).get("self_s", 0.0) / ops

    def count(name):
        return counters.get(name, 0.0) / ops

    def ratio(hits, misses):
        h, m = counters.get(hits, 0.0), counters.get(misses, 0.0)
        return (h / (h + m) if h + m else 0.0), {"hits": h, "lookups": h + m}

    path_ratio, path_base = ratio("repro_engine_path_cache_hits", "repro_engine_path_cache_misses")
    block_ratio, block_base = ratio("repro_engine_block_cache_hits", "repro_engine_block_cache_misses")
    store_ratio, store_base = ratio("repro_store_hits_total", "repro_store_misses_total")
    metrics = {
        "import.repro_cli_s": import_s,
        "model.build_s": per_op("model"),
        "vpm.import_s": per_op("vpm"),
        "engine.discover_s": per_op("engine"),
        # full enumerations, plus the per-block enumerations and the paths
        # assembled from blocks by delta-aware discovery (the churn path),
        # which the full-enumeration counters leave out
        "engine.enumerations": count("repro_engine_enumerations_total")
        + count("repro_engine_block_enumerations_total"),
        "engine.paths": count("repro_engine_paths_discovered_total")
        + attr_sum(spans, "engine.discover_delta", "paths", cached=False) / ops,
        "engine.path_cache_hit_ratio": path_ratio,
        "engine.block_cache_hit_ratio": block_ratio,
        "upsim.generate_s": per_op("upsim"),
        "bdd.compile_s": per_op("bdd"),
        # structures compiled whole, plus pair groups the incremental
        # kernel of the churn path compiled into its persistent manager
        "bdd.compilations": count("repro_bdd_compilations_total")
        + count("repro_bdd_group_root_misses_total"),
        "bdd.nodes": count("repro_bdd_nodes_allocated_total"),
        "bdd.ite_cache_hits": count("repro_bdd_ite_cache_hits_total"),
        "bdd.compile_vs_seed_ratio": 0.0,
        "bdd.nodes_topology_order": 0.0,
        "bdd.nodes_frequency_order": 0.0,
        "eval.evaluate_s": per_op("eval"),
        "eval.evaluations": count("repro_bdd_evaluations_total"),
        "analysis.report_s": per_op("analysis"),
        "dimensions.evaluate_s": per_op("dimensions"),
        "store.read_s": by_name.get("store.get", {}).get("self_s", 0.0) / ops,
        "store.write_s": by_name.get("store.put", {}).get("self_s", 0.0) / ops,
        "store.hits": count("repro_store_hits_total"),
        "store.misses": count("repro_store_misses_total"),
        "store.writes": count("repro_store_writes_total"),
        "store.hit_ratio": store_ratio,
        "store.bytes": count("repro_store_bytes_read_total") + count("repro_store_bytes_written_total"),
        "churn.pump_s": per_op("churn"),
        "churn.recomputes": count("repro_dynamics_recomputes_total"),
        "churn.epochs": count("repro_dynamics_epochs_total"),
        "population.evaluate_s": per_op("population"),
        "population.rows": 0.0,
        "population.dedup_ratio": 0.0,
        "population.shard_imbalance": 0.0,
        "obs.trace_overhead_ratio": overhead,
    }
    metrics.update(workload.extra_layer_metrics(ops))
    assert set(metrics) == set(PER_LAYER), set(metrics) ^ set(PER_LAYER)
    record = {
        "ops": ops,
        "op_mean_s": op_mean,
        # share: of one traced operation's latency (for casestudy_cli the
        # process wall, most of which no span covers: start and import)
        "layers": {
            name: dict(row, per_op_s=row["self_s"] / ops, share=row["self_s"] / ops / op_mean)
            for name, row in sorted(layers.items())
        },
        "spans_by_name": by_name,
        "counters": counters,
        "ratio_bases": {
            "engine.path_cache_hit_ratio": path_base,
            "engine.block_cache_hit_ratio": block_base,
            "store.hit_ratio": store_base,
        },
        "spans": spans,
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fill-store")
    args = parser.parse_args(argv)

    from workloads import WORKLOAD_CLASSES, fill_store

    if args.fill_store:
        fill_store(args.fill_store)
        return 0

    workdir = Path(args.workdir)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    failures: dict = {}
    untraced, traced = timed_loop(workload, args.seconds, bool(args.trace), failures)
    peak = workload.peak_rss_mib()

    for i, problems in workload.check().items():
        failures.setdefault(i, []).extend(problems)
    for i in sorted(failures)[:5]:
        print(f"perfbench: {args.workload} operation {i} failed: {failures[i][:3]}", file=sys.stderr)

    result = {
        "attempted": len(untraced) + len(traced),
        "failed": len(failures),
        "latencies": untraced,
        "peak_rss_mb": peak,
    }
    if args.trace:
        throughput = len(untraced) / sum(untraced)
        traced_throughput = len(traced) / sum(traced)
        metrics, record = layer_metrics(
            workload, traced, traced_throughput / throughput, import_seconds()
        )
        record["overhead_bases"] = {
            "untraced_ops": len(untraced), "untraced_s": sum(untraced),
            "traced_ops": len(traced), "traced_s": sum(traced),
        }
        record.update(workload.extra_trace_info())
        result["per_layer"] = metrics
        result["trace"] = record
    else:
        result["tail"] = tail(untraced)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, default=list)
    return 0


if __name__ == "__main__":
    sys.exit(main())
