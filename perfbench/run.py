"""The repository benchmark: four workloads over the Figure-4 chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (or ``--workload all``) from the root of a checkout.
Each workload runs in a fresh worker process as a closed loop of one
operation at a time for S seconds of operation time, then checks every
answer against independent computations (see ``checks.py``).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``throughput``, ``latency_p50_ms``, ``peak_rss_mb``); with ``--trace 1``
every second block of the workload's input cycle is traced and the
metrics are the per-layer ones,
and the spans plus a per-layer self-time table go to
``.perfbench/traces/<workload>-seed<N>.json``.  A wrong answer counts as
a failed operation and makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import END_TO_END, HERE, PER_LAYER, ROOT, SRC, WORK, WORKLOADS, child_env, die  # noqa: E402

#: set-ups per run; setup_s is their median (the last one is the run's)
SETUPS = 3
#: a worker that takes longer than this is killed and the run fails
WORKER_TIMEOUT = 170.0


def _launch(args, workdir: Path, result: Path, setup_only: bool, deadline: float):
    """Start one worker; return (seconds until READY, exit code)."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload_name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result),
    ]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, code


def run_workload(args) -> dict:
    """One workload: SETUPS - 1 set-up-only workers, then the run."""
    deadline = time.monotonic() + WORKER_TIMEOUT
    setups = []
    base = WORK / f"{args.workload_name}-seed{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for k in range(SETUPS):
            workdir = base / f"setup{k}"
            workdir.mkdir(parents=True)
            result = workdir / "result.json"
            ready, code = _launch(args, workdir, result, k < SETUPS - 1, deadline)
            if ready is None or code != 0:
                die(f"{args.workload_name}: worker exited {code} during set-up", 1)
            setups.append(ready)
        with open(result, encoding="utf-8") as handle:
            outcome = json.load(handle)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    outcome["setups"] = setups
    return outcome


def report(args, outcome: dict) -> dict:
    name = args.workload_name
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{name} seed {args.seed}: {attempted} operations, {failed} failed")
    if args.trace:
        metrics = outcome["per_layer"]
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{name}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(dict(outcome["trace"], metrics=metrics), handle, indent=1, sort_keys=True)
        layers = outcome["trace"]["layers"]
        print(f"  per-layer self time per operation (spans in {trace_file.relative_to(ROOT)}):")
        for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {layer:<11} {row['per_op_s'] * 1e3:10.3f} ms  {row['share']:6.1%}  ({row['spans']} spans)")
        units = PER_LAYER
    else:
        latencies = outcome["latencies"]
        metrics = {
            "setup_s": statistics.median(outcome["setups"]),
            "throughput": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": outcome["peak_rss_mb"],
        }
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
        setups = ", ".join(f"{s:.3f}" for s in outcome["setups"])
        print(f"  set-ups: {setups} s")
        if outcome.get("tail"):
            pct, value = outcome["tail"]
            print(f"  latency tail: p{pct:.1f} = {value * 1e3:.3f} ms over {len(latencies)} operations")
        else:
            print(f"  latency tail: not reported, {len(latencies)} < 40 operations")
    for key, value in metrics.items():
        print(f"  {key:<30} {value:14.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        die(f"the program's sources are missing ({SRC / 'repro'}); run from a checkout of the repository")
    if args.seconds <= 0:
        die("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        args.workload_name = name
        line = report(args, run_workload(args))
        correct = correct and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
