"""Run the benchmark over several seeds and summarize its run-to-run spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads spheres,lens] [--out FILE]

Runs ``run.py`` once per workload and seed, one process at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  ``--out`` writes the same summary as
JSON, with the machine's CPU count, the Python version and the seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = _seeds(args.seeds)
    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in names:
        runs = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarize(values)
            s = summary[metric]
            print(f"{workload:<8} {metric:<15} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {bounds[metric]}", flush=True)
        summary["attempted"] = summarize([r["attempted"] for r in runs])
        report["workloads"][workload] = summary
    print("all runs correct" if ok else "SOME RUNS FAILED")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
