"""Steadiness runs: each workload many times, alternating order.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1]
                                [--baseline DIR]

Run ``r`` (0-based) uses seed ``seed-base + r`` for every workload and
runs the workloads forwards on even ``r`` and backwards on odd ``r``,
each for ``run_seconds`` of ``BENCHMARK.json``.
For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, against the metric's bound in ``BENCHMARK.json``.  The
default seeds are 1-10; the hold-out seeds for checking a claim are
``--seed-base 1000``.

``--baseline DIR`` names a second checkout (the parent commit): every
run then measures both checkouts back to back, alternating which goes
first, and the table adds the baseline's median and the share of runs
the change wins.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, spread  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout}: no result\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    sides = [("change", ROOT)] + ([("baseline", args.baseline.resolve())] if args.baseline else [])
    results = {side: {w: [] for w in workloads} for side, _ in sides}
    for r in range(args.runs):
        seed = args.seed_base + r
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            pair = sides if r % 2 == 0 else sides[::-1]
            for side, checkout in pair:
                t0 = time.perf_counter()
                line = run_once(checkout, workload, seed, spec["run_seconds"])
                wall = time.perf_counter() - t0
                results[side][workload].append(line)
                print(f"run {r + 1}/{args.runs} {side} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
                      + f" (wall {wall:.1f} s)", flush=True)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print()
    print(f"{'workload':<17} {'metric':<15} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict"
          + ("   baseline  wins" if args.baseline else ""))
    for workload in workloads:
        lines = results["change"][workload]
        shares = {line["failed"] / line["attempted"] for line in lines}
        for name, meta in bounds.items():
            values = [line["metrics"][name]["value"] for line in lines]
            mid, q1, q3, share = spread(values)
            bound = meta["bound"]
            verdict = "steady" if share < bound / 3 else "within bound" if share <= bound else "TOO WIDE"
            row = f"{workload:<17} {name:<15} {mid:11.5g} {q1:11.5g} {q3:11.5g} {share:7.1%} {bound:6.0%}  {verdict}"
            if args.baseline:
                base = [line["metrics"][name]["value"] for line in results["baseline"][workload]]
                lower = meta["better"] == "lower"
                wins = sum((c < b) if lower else (c > b) for c, b in zip(values, base))
                row += f"  {spread(base)[0]:9.5g}  {wins}/{len(values)}"
            print(row)
        print(f"{workload:<17} failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
