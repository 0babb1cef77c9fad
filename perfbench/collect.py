"""Run the benchmark over several seeds and record medians, quartiles and a trace.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

For every workload: ``--runs`` untraced runs, seeds ``--first-seed`` onward,
then one traced run on the first seed.  Writes, per workload and end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median, plus the traced per-layer metrics and the
machine's description.  A later change measures its own rows the same way
on the same machine and compares them with these.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    return result


def _environment() -> dict:
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default all")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"environment": _environment(), "run_seconds": args.seconds, "workloads": {}}
    for name in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        started = time.perf_counter()
        runs = [_run(name, seed, args.seconds, 0) for seed in seeds]
        wall = (time.perf_counter() - started) / len(seeds)
        traced = _run(name, seeds[0], args.seconds, 1)
        metrics = {m: _summary([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        record["workloads"][name] = {
            "seeds": seeds,
            "wall_s_per_run": wall,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        print(f"{name}: " + ", ".join(
            f"{m} {v['median']:.6g} (spread {v['spread']:.3f})" for m, v in metrics.items()),
            flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
