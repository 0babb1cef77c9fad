"""vsatlink benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload sim-kptcl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Either way the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same metrics for a reader.  The
exit code is 0 only when every run's output passed its check.

``--self-check`` runs every workload at a small bit count and confirms that
each metric named in BENCHMARK.json is emitted with its unit and that the
output check rejects a corrupted BER.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 3
# Stays under the 180 s a run may take, set-up included.
LOOP_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20

# Time from before ``import vsatlink`` to a loaded scenario, in a fresh interpreter.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import vsatlink
from vsatlink.scenario import load_scenario
load_scenario(sys.argv[1])
print(time.perf_counter() - start)
"""


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work)
    return env


def _run_child(cmd: list[str], timeout: float, env: dict) -> str:
    """Run ``cmd`` in its own process group; return its stdout or raise."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} exceeded {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure_setup(w: workloads.Workload, work: Path, repeats: int) -> float:
    env = _child_env(work)
    times = [float(_run_child([sys.executable, "-c", SETUP_CODE, w.scenario],
                              SETUP_TIMEOUT_S, env).split()[-1])
             for _ in range(repeats)]
    return statistics.median(times)


def measure_loop(w: workloads.Workload, seed: int, seconds: float, trace: bool, work: Path,
                 bits: int | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", w.name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(work)]
    if bits is not None:
        cmd += ["--bits", str(bits)]
    out = _run_child(cmd, LOOP_TIMEOUT_S, _child_env(work))
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(loop: dict, setup_s: float) -> dict:
    run_s = statistics.median(loop["samples"])
    return {
        "run_s": run_s,
        "bits_per_s": loop["bits"] / run_s,
        "setup_s": setup_s,
        "peak_rss_mb": loop["peak_rss_mb"],
        "ber_log_err": loop["ber_log_err"],
        "pass_ratio": 1.0 - loop["failed"] / loop["attempted"],
    }


def per_layer(loop: dict) -> dict:
    layers = loop["layers"]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    traced = statistics.median(loop["traced_samples"])
    metrics["trace.run_s"] = traced
    metrics["trace.overhead_s"] = traced - statistics.median(loop["samples"])
    return metrics


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}; max {max(samples):.4f} s"
    return f"p{100.0 * (n - 10) / n:.0f} (10 samples beyond) {sorted(samples)[n - 11]:.4f} s"


def report(w: workloads.Workload, seed: int, trace: bool, loop: dict, metrics: dict,
           units: dict) -> None:
    print(f"workload {w.name}, seed {seed}, trace {int(trace)}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    samples = loop["samples"]
    print(f"  run_s samples: n={len(samples)}, median {statistics.median(samples):.4f} s, "
          f"{_tail(samples)}")
    print(f"  fail_ratio {loop['failed'] / loop['attempted']:.6g} "
          f"({loop['failed']} of {loop['attempted']} runs)")
    for problem in loop["problems"]:
        print(f"  problem: {problem}")


def _payload(loop: dict, metrics: dict, units: dict) -> dict:
    return {
        "correct": not loop["problems"] and all(math.isfinite(v) for v in metrics.values()),
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        # JSON has no infinity: a metric with no valid run reads null.
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def declared_units() -> dict:
    """Metric name -> unit, for "end_to_end" and "per_layer", from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def run(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(w, work, SETUP_REPEATS)
        loop = measure_loop(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units()
    if args.trace:
        metrics, units = per_layer(loop), units["per_layer"]
    else:
        metrics, units = end_to_end(loop, setup_s), units["end_to_end"]
    report(w, args.seed, bool(args.trace), loop, metrics, units)
    payload = _payload(loop, metrics, units)
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


def self_check() -> int:
    """Small-scale run of every workload plus a corrupted-output check."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared_units()
    failures = []
    if [x["name"] for x in bench["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")

    sys.path.insert(0, str(ROOT / "src"))
    from vsatlink.cli import main as cli_main

    bits = 40_000
    for w in workloads.WORKLOADS.values():
        work = WORK / f"self-check-{w.name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            setup_s = measure_setup(w, work, 1)
            loop = measure_loop(w, 1, 0, True, work, bits)
            # The check must pass on real output and reject a corrupted BER.
            args = workloads.cli_args(w, None, work, bits)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(args)
            outcome = workloads.read_outcome(w, work)
            clean = workloads.check(w, outcome, bits)
            value, ber, *counts = outcome.rows[0]
            corrupt = replace(outcome, rows=((value, ber * 10.0, *counts),) + outcome.rows[1:])
            caught = workloads.check(w, corrupt, bits)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        e2e, layer = end_to_end(loop, setup_s), per_layer(loop)
        print(f"self-check {w.name}: " + ", ".join(
            f"{k} {v:.4g} {declared['end_to_end'][k]}" for k, v in e2e.items()))
        for key, emitted in (("end_to_end", e2e), ("per_layer", layer)):
            if set(emitted) != set(declared[key]):
                failures.append(f"{w.name}: {key} metrics emitted {sorted(emitted)}, "
                                f"declared {sorted(declared[key])}")
        if loop["problems"] or loop["failed"]:
            failures.append(f"{w.name}: {loop['problems']}")
        if rc != 0 or clean:
            failures.append(f"{w.name}: clean output rejected: rc {rc}, {clean}")
        if not caught:
            failures.append(f"{w.name}: a BER ten times too high passed the output check")
        agc = layer["receiver.agc.s"]
        spans = {k: v for k, v in layer.items() if k.endswith(".s")
                 and not k.startswith(("trace.", "pipeline.run_sweep", "scenario.load"))}
        if w.name == "sim-kptcl" and agc != max(spans.values()):
            failures.append(f"{w.name}: receiver.agc.s is not the largest layer span")
        if w.name != "sim-kptcl" and agc != 0.0:
            failures.append(f"{w.name}: receiver.agc.s is {agc}, expected 0")
    for failure in failures:
        print(f"self-check FAILED: {failure}")
    print("self-check", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "vsatlink" / "__init__.py").is_file():
        print(f"no vsatlink package under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
