"""The measured part of one benchmark run, in a process of its own.

    python3 perfbench/loop.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

One client drives ``vsatlink.cli.main`` in this process as a closed loop:
each invocation starts when the previous one has returned.  The first
invocation runs the scenario's own default seed; it is untimed, lets lazy
set-up finish, and gives ``ber_log_err``.  The timed invocations all run
``--seed`` until ``--seconds`` have passed, so every one of them must leave
byte-identical output.  With ``--trace 1`` untraced and traced invocations
alternate, which pairs them for the tracing overhead.

Prints one JSON object: the samples, per-layer metrics of the traced
invocations, peak memory and every problem found.  A process of its own
keeps the peak resident memory that of the run alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import vsatlink.cli as cli  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


def _invoke(argv: list[str], tracer) -> tuple[float, object, str]:
    """Run the CLI once; returns (seconds, exit code or exception text, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli"):
                    rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, rc, err.getvalue()


class Loop:
    def __init__(self, w: workloads.Workload, work: Path, bits: int | None):
        self.w, self.work, self.bits = w, work, bits
        self.attempted = 0
        self.problems: list[str] = []

    def run_once(self, seed: int | None, tracer=None):
        """One checked invocation; returns (seconds, outcome or None)."""
        out = self.work / ("default-seed" if seed is None else "seed")
        out.mkdir(parents=True, exist_ok=True)
        argv = workloads.cli_args(self.w, seed, out, self.bits)
        if tracer is not None:
            layertrace.install(tracer)
        try:
            seconds, rc, stderr = _invoke(argv, tracer)
        finally:
            layertrace.uninstall()
        self.attempted += 1
        label = f"run {self.attempted} ({'default seed' if seed is None else f'seed {seed}'})"
        if rc != 0:
            self.problems.append(f"{label}: exit {rc}: {stderr.strip()[-300:]}")
            return seconds, None
        try:
            outcome = workloads.read_outcome(self.w, out)
        except (OSError, KeyError, ValueError) as exc:
            self.problems.append(f"{label}: unreadable output: {exc!r}")
            return seconds, None
        errors = workloads.check(self.w, outcome, self.bits)
        self.problems.extend(f"{label}: {e}" for e in errors)
        return seconds, None if errors else outcome


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool, work: Path,
            bits: int | None) -> dict:
    loop = Loop(w, work, bits)
    _, reference = loop.run_once(None)
    ber_log_err = workloads.ber_log_err(w, reference) if reference else float("inf")

    samples, traced, layers, outcomes = [], [], [], []
    need_untraced, need_traced = (1, 2) if trace else (2, 0)
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(samples) < need_untraced
           or len(traced) < need_traced):
        tracer = layertrace.Tracer() if trace and len(traced) < len(samples) else None
        took, outcome = loop.run_once(seed, tracer)
        outcomes.append(outcome)
        if tracer is None:
            samples.append(took)
        else:
            traced.append(took)
            layers.append(layertrace.layer_metrics(tracer.export(), took, w.jobs))

    failed = sum(o is None for o in outcomes) + (reference is None)
    ok = [o for o in outcomes if o is not None]
    if len({o.digest for o in ok}) > 1:
        loop.problems.append(f"seed {seed}: outputs differ between runs of one seed")
    for name in layertrace.EXACT:
        if len({m[name] for m in layers}) > 1:
            loop.problems.append(f"seed {seed}: {name} differs between runs of one seed")

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "samples": samples,
        "traced_samples": traced,
        "layers": layers,
        "bits": ok[0].bits if ok else 0,
        "ber_log_err": ber_log_err,
        # Linux reports kilobytes.  Only sweep pool workers are children;
        # each peaks at about the largest one's size, so count it per worker.
        "peak_rss_mb": (usage + w.jobs * workers) / 1024.0,
        "attempted": loop.attempted,
        "failed": failed,
        "problems": loop.problems,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--bits", type=int, default=None,
                        help="bits per run (per point for sweep); default the workload's")
    args = parser.parse_args()
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.work, args.bits)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
