"""Per-layer spans for the traced run, recorded from the benchmark's side.

``install(tracer)`` replaces the names ``vsatlink.cli`` and
``vsatlink.pipeline`` call through (and ``scenario.scenario_from_dict``,
which the sweep imports at call time) with wrappers that record a span
around each call and count the work it was given.  The program's own code
runs unchanged; ``uninstall()`` puts the original names back.

Sweep points run in pool workers.  The pool is handed
:func:`traced_sweep_point` in place of ``pipeline._sweep_point``; it traces
the point in the worker and returns its spans inside the row, which the
``run_sweep`` wrapper strips again before the CLI sees the rows.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import vsatlink.cli as cli
import vsatlink.pipeline as pipeline
import vsatlink.scenario as scenario

TRACE_KEY = "_perfbench_trace"

# (module, attribute) -> original object, for every name currently wrapped.
_originals: dict = {}
# (pid, tracer) of the last install, so a sweep point run in that same
# process (a serial sweep) records into its tracer.
_owner: tuple = ()


class Tracer:
    """Spans (name, start, end, parent index) and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.values: dict = {}
        self.workers: list[dict] = []  # exported tracers of sweep points
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "values": self.values,
                "workers": self.workers}


def _traced(tracer: Tracer, name: str, fn, count=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, count):
    """Counts the call without a span: its time stays in the caller's self time."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(tracer, args)
        return result

    return wrapper


def _fir_macs(tracer: Tracer, args) -> None:
    """Direct-convolution multiply-accumulates: taps x filter input samples."""
    frame, cfg = args
    taps = cfg.filter_span_symbols * cfg.samples_per_symbol + 1
    upsample = cfg.samples_per_symbol if frame.sample_rate_hz < cfg.sample_rate_hz else 1
    tracer.counts["modem.fir_macs"] += len(frame) * upsample * taps


def _subclass(tracer: Tracer, base, name: str, method: str, after=None):
    """Subclass of ``base`` whose ``method`` records a span named ``name``."""
    original = getattr(base, method)

    def traced(self, x):
        with tracer.span(name):
            y = original(self, x)
        if after is not None:
            after(tracer, self, x)
        return y

    return type(base.__name__, (base,), {method: traced})


def _after_channel(tracer, chan, x):
    tracer.counts["channel.run.samples"] += len(x)


def _after_agc(tracer, loop, x):
    tracer.counts["receiver.agc.samples"] += len(x)
    tracer.values["receiver.agc.final_gain_db"] = 20.0 * math.log10(loop.gain)


def _count_bytes(tracer, args):
    tracer.counts["cli.bytes_written"] += len(args[1].encode())


def _count_round_trip(tracer, args):
    tracer.counts["scenario.round_trip.calls"] += 1


def _run_sweep(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        with tracer.span("pipeline.run_sweep"):
            rows = fn(*args, **kwargs)
        for row in rows:
            worker = row.pop(TRACE_KEY)
            if worker is not None:
                tracer.workers.append(worker)
        return rows

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced name so that calls record into ``tracer``."""
    global _owner
    uninstall()
    _owner = (os.getpid(), tracer)
    p = pipeline
    wraps = [
        (cli, "load_scenario", _traced(tracer, "scenario.load_scenario", cli.load_scenario)),
        (cli, "simulate", _traced(tracer, "pipeline.simulate", cli.simulate)),
        (cli, "run_sweep", _run_sweep(tracer, cli.run_sweep)),
        (cli, "_atomic_write", _counted(tracer, cli._atomic_write, _count_bytes)),
        (p, "simulate", _traced(tracer, "pipeline.simulate", p.simulate)),
        (p, "_sweep_point", traced_sweep_point),
        (p, "scenario_to_dict", _traced(tracer, "scenario.round_trip", p.scenario_to_dict,
                                        _count_round_trip)),
        (scenario, "scenario_from_dict",
         _traced(tracer, "scenario.round_trip", scenario.scenario_from_dict, _count_round_trip)),
        (p, "generate_bits", _traced(tracer, "modem.generate_bits", p.generate_bits)),
        (p, "qam_modulate", _traced(tracer, "modem.qam_modulate", p.qam_modulate)),
        (p, "tx_shape", _traced(tracer, "modem.tx_shape", p.tx_shape, _fir_macs)),
        (p, "rx_match", _traced(tracer, "modem.rx_match", p.rx_match, _fir_macs)),
        (p, "qam_demodulate", _traced(tracer, "modem.qam_demodulate", p.qam_demodulate)),
        (p, "SatelliteChannel",
         _subclass(tracer, p.SatelliteChannel, "channel.run", "run", _after_channel)),
        (p, "DcOffsetCompensator",
         _subclass(tracer, p.DcOffsetCompensator, "receiver.dc_offset_remove", "process")),
        (p, "AutomaticGainControl",
         _subclass(tracer, p.AutomaticGainControl, "receiver.agc", "process", _after_agc)),
        (p, "phase_freq_correct",
         _traced(tracer, "receiver.phase_freq_correct", p.phase_freq_correct)),
        (p, "measure_ber", _traced(tracer, "analysis.measure_ber", p.measure_ber)),
        (p, "constellation_snapshot",
         _traced(tracer, "analysis.constellation_snapshot", p.constellation_snapshot)),
        (p, "estimate_psd", _traced(tracer, "analysis.estimate_psd", p.estimate_psd)),
    ]
    for module, attr, replacement in wraps:
        _originals[(module, attr)] = getattr(module, attr)
        setattr(module, attr, replacement)


def uninstall() -> None:
    """Restore every name ``install`` replaced."""
    global _owner
    _owner = ()
    while _originals:
        (module, attr), original = _originals.popitem()
        setattr(module, attr, original)


def traced_sweep_point(*args):
    """Pool entry point: one sweep point, traced in the worker process.

    A forked worker inherits the parent's wrappers and a spawned one starts
    without them; either way the point is traced into a fresh tracer.  In
    the tracing process itself (a serial sweep) it records in place.
    """
    if _owner and _owner[0] == os.getpid():
        with _owner[1].span("pipeline.sweep_point"):
            row = _originals[(pipeline, "_sweep_point")](*args)
        row[TRACE_KEY] = None
        return row
    uninstall()
    sweep_point = pipeline._sweep_point
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("pipeline.sweep_point"):
            row = sweep_point(*args)
    finally:
        uninstall()
    row[TRACE_KEY] = tracer.export()
    return row


# Layers timed as the whole span (reported as "<name>.s").
SPAN_LAYERS = (
    "receiver.agc", "receiver.dc_offset_remove", "receiver.phase_freq_correct",
    "modem.tx_shape", "modem.rx_match", "modem.qam_modulate", "modem.qam_demodulate",
    "modem.generate_bits", "channel.run", "analysis.estimate_psd", "analysis.measure_ber",
    "analysis.constellation_snapshot", "pipeline.run_sweep", "scenario.load_scenario",
    "scenario.round_trip",
)
# Metrics that must repeat exactly between two runs of one seed.
EXACT = ("modem.fir_macs", "channel.run.samples", "receiver.agc.final_gain_db",
         "cli.bytes_written", "scenario.round_trip.calls")


def _durations(spans) -> tuple[Counter, Counter, float]:
    """Total and self time per span name, and the summed time of root spans."""
    total, self_time, roots = Counter(), Counter(), 0.0
    dur = [end - start for _, start, end, _ in spans]
    own = list(dur)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
        else:
            roots += dur[i]
    for (name, *_), d, o in zip(spans, dur, own):
        total[name] += d
        self_time[name] += o
    return total, self_time, roots


def layer_metrics(export: dict, run_s: float, jobs: int) -> dict:
    """Per-layer metrics of one traced CLI invocation timed at ``run_s``.

    Spans from sweep points are summed over the points, so on a parallel
    sweep they add up busy time across workers, not wall time.
    """
    total, self_time, roots = _durations(export["spans"])
    counts = Counter(export["counts"])
    values = dict(export["values"])
    for worker in export["workers"]:
        t, s, _ = _durations(worker["spans"])
        total.update(t)
        self_time.update(s)
        counts.update(worker["counts"])
        values.update(worker["values"])
    m = {f"{name}.s": total[name] for name in SPAN_LAYERS}
    agc_samples = counts["receiver.agc.samples"]
    m["receiver.agc.ns_per_sample"] = (
        1e9 * total["receiver.agc"] / agc_samples if agc_samples else 0.0)
    m["receiver.agc.final_gain_db"] = values.get("receiver.agc.final_gain_db", 0.0)
    for name in ("modem.fir_macs", "channel.run.samples", "scenario.round_trip.calls",
                 "cli.bytes_written"):
        m[name] = counts[name]
    m["pipeline.simulate.self_s"] = self_time["pipeline.simulate"]
    m["cli.self_s"] = self_time["cli"]
    sweep = total["pipeline.run_sweep"]
    m["pipeline.run_sweep.pool_eff"] = (
        total["pipeline.sweep_point"] / (jobs * sweep) if sweep else 0.0)
    # Self times in this process sum to the root spans; the rest of the
    # measured run is the harness between its clock and the "cli" span.
    m["trace.unattributed_s"] = run_s - roots
    return m
