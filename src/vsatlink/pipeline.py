"""End-to-end simulation runs: modem -> channel -> receiver -> analysis.

Seed discipline: every random stream is derived from the scenario master
seed with a splitmix64 mix (documented in :func:`derive_seed`), so runs are
reproducible bit-for-bit and sweep points are independent yet replayable.
Each sweep point's seed is derived from that point's own ``seed``, so a
sweep of ``seed`` itself gives one run per swept value.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .analysis import BerReport, constellation_snapshot, estimate_psd, measure_ber
from .channel import SatelliteChannel
from .errors import ParameterError, PipelineError
from .frames import ComplexFrame
from .linkbudget import LinkBudgetReport, compute_budget
from .modem import (
    generate_bits,
    pipeline_delay_bits,
    pipeline_delay_symbols,
    qam_demodulate,
    qam_modulate,
    rx_match,
    tx_shape,
)
from .receiver import AutomaticGainControl, DcOffsetCompensator, phase_freq_correct
from .scenario import ScenarioConfig, replace_key, run_bits, scenario_to_dict

__all__ = [
    "derive_seed",
    "SimulationResult",
    "simulate",
    "run_linkbudget",
    "parse_sweep_values",
    "run_sweep",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

SNAPSHOT_POINTS_DEFAULT = 1024
SPECTRUM_SEGMENT_LEN = 1024
# a start:stop:step grid longer than this is refused before it is built
MAX_SWEEP_POINTS = 10_000

# stream tags for derive_seed
_STREAM_BITS = 1
_STREAM_NOISE = 2
_SWEEP_BASE = 1000


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, stream: int) -> int:
    """Independent 64-bit seed for stream ``stream`` of run ``master``.

    Fixed integer mix: splitmix64(master XOR (stream * golden-gamma)).
    """
    return _splitmix64((master & _MASK64) ^ ((stream * _GOLDEN) & _MASK64))


@dataclass
class SimulationResult:
    ber: BerReport
    run_log: dict
    constellation_tx: np.ndarray
    constellation_rx_precorrection: np.ndarray
    constellation_rx_postcorrection: np.ndarray
    spectrum_tx: tuple[np.ndarray, np.ndarray]
    spectrum_rx: tuple[np.ndarray, np.ndarray]


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name attached.

    Only ``Exception`` is wrapped: an interrupt or exit passes through as is.
    """
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


@contextlib.contextmanager
def _threads(n: int):
    """``n`` worker threads that end with the block: queued work is cancelled."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=n)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def simulate(
    scenario: ScenarioConfig,
    snapshot_points: int = SNAPSHOT_POINTS_DEFAULT,
    with_spectra: bool = True,
) -> SimulationResult:
    """Run the full pipeline once and collect BER plus figure artifacts.

    With ``with_spectra`` the two Welch PSDs run on one worker thread while
    the chain goes on (numpy's FFTs and ufuncs release the GIL); the thread
    is shut down before this returns or raises.  Without, no thread starts.
    """
    with _threads(1) if with_spectra else contextlib.nullcontext() as pool:
        return _simulate(scenario, snapshot_points, pool)


def _simulate(scenario: ScenarioConfig, snapshot_points: int, pool) -> SimulationResult:
    """The run of :func:`simulate`; ``pool`` computes the spectra, or is None."""
    cfg = scenario.modem
    if snapshot_points <= 0:
        raise ParameterError(f"snapshot_points must be > 0, got {snapshot_points}")
    n_bits = run_bits(scenario.total_bits, cfg.bits_per_symbol)

    bits_seed = derive_seed(scenario.seed, _STREAM_BITS)
    impairments = scenario.impairments
    if impairments.seed == 0:  # 0: derive the noise stream from the master seed
        impairments = replace(impairments, seed=derive_seed(scenario.seed, _STREAM_NOISE))
    noise_seed = impairments.seed

    with _stage("modem.generate_bits"):
        tx_bits = generate_bits(n_bits, bits_seed)
    with _stage("modem.qam_modulate"):
        symbols = qam_modulate(tx_bits, cfg)
    with _stage("modem.tx_shape"):
        tx_wave = tx_shape(symbols, cfg)

    # The spectra are computed on the worker while the chain goes on.  No
    # stage writes a frame it is handed (the channel, DC, AGC, de-rotation
    # and rx_match each return a new array), so the worker reads each frame
    # as it was submitted.
    seg = min(SPECTRUM_SEGMENT_LEN, len(tx_wave))
    spectrum_tx = spectrum_rx = (np.empty(0), np.empty(0))
    if pool is not None:
        psd = pool.submit(_spectrum, tx_wave, seg)
    with _stage("channel.run"):
        rx_wave, plan = SatelliteChannel(
            scenario.gains,
            scenario.saleh,
            impairments,
            mode=scenario.mode,  # type: ignore[arg-type]
            target_es_n0_db=scenario.target_es_n0_db,
            reference_symbol_power=cfg.mean_symbol_power,
        ).run(tx_wave)

    # Each waveform-sized frame is dropped once its last reader is done, so
    # at its peak the run holds two of them plus smaller arrays.  The worker
    # reads tx_wave until its PSD is done, so that PSD is collected before
    # the receiver makes a new waveform.
    del tx_wave
    if pool is not None:
        with _stage("analysis.spectra"):
            spectrum_tx = psd.result()

    # AGC drives total power to its reference; the corrections here are
    # data-aided, so the reference is the known signal power plus the known
    # injected noise power - otherwise the noise share would shrink the
    # recovered constellation below the decision grid.
    agc_reference = plan.input_power_w + plan.noise_variance_w

    comp = scenario.compensation
    with _stage("receiver.dc_offset_remove"):
        if comp.dc:
            rx_wave = DcOffsetCompensator().process(rx_wave)
    with _stage("receiver.agc"):
        if comp.agc:
            loop = AutomaticGainControl(agc_reference)
            rx_wave = loop.process(rx_wave)
    if pool is not None:
        psd = pool.submit(_spectrum, rx_wave, seg)
    with _stage("receiver.phase_freq_correct"):
        if comp.phase_freq:
            corrected = phase_freq_correct(
                rx_wave, impairments.phase_offset_deg, impairments.freq_offset_hz
            )
        else:
            corrected = rx_wave

    # figure artifacts: skip the filter transients (2 x span symbols).  The
    # pre-correction symbols feed only their snapshot, and output symbol k
    # reads input samples up to k * sps, so only that window is filtered.
    skip = 2 * pipeline_delay_symbols(cfg)
    window = (skip + snapshot_points) * cfg.samples_per_symbol
    with _stage("modem.rx_match"):
        pre_window = rx_wave.with_samples(rx_wave.samples[:window])
        pre_symbols = rx_match(pre_window, cfg)
        post_symbols = rx_match(corrected, cfg)
    del pre_window, rx_wave, corrected
    with _stage("modem.qam_demodulate"):
        rx_bits = qam_demodulate(post_symbols, cfg)

    delay_bits = pipeline_delay_bits(cfg)
    with _stage("analysis.measure_ber"):
        report = measure_ber(tx_bits, rx_bits, delay_bits=delay_bits)

    with _stage("analysis.snapshots"):
        cons_tx = constellation_snapshot(symbols, snapshot_points)
        shown = slice(skip, skip + snapshot_points)
        cons_pre = constellation_snapshot(
            pre_symbols.with_samples(pre_symbols.samples[shown]), snapshot_points
        )
        cons_post = constellation_snapshot(
            post_symbols.with_samples(post_symbols.samples[shown]), snapshot_points
        )
    if pool is not None:
        with _stage("analysis.spectra"):
            spectrum_rx = psd.result()
    run_log = {
        "vsatlink_version": __version__,
        "scenario": scenario_to_dict(scenario),
        "effective": {
            "total_bits": n_bits,
            "master_seed": scenario.seed,
            "bits_seed": bits_seed,
            "noise_seed": noise_seed,
            "bits_per_symbol": cfg.bits_per_symbol,
            "symbol_rate_hz": cfg.symbol_rate_hz,
            "sample_rate_hz": cfg.sample_rate_hz,
            "tx_waveform_power_w": plan.input_power_w,
            "agc_reference_power": agc_reference,
            "alignment_delay_bits": delay_bits,
            "snapshot_skip_symbols": skip,
            "channel": asdict(plan),
        },
        "ber": report.as_dict(),
    }
    return SimulationResult(
        ber=report,
        run_log=run_log,
        constellation_tx=cons_tx,
        constellation_rx_precorrection=cons_pre,
        constellation_rx_postcorrection=cons_post,
        spectrum_tx=spectrum_tx,
        spectrum_rx=spectrum_rx,
    )


def _spectrum(x: ComplexFrame, segment_len: int) -> tuple[np.ndarray, np.ndarray]:
    spec = estimate_psd(x, segment_len)
    return spec.frequencies_hz, spec.psd_w_per_hz


def run_linkbudget(scenario: ScenarioConfig) -> list[LinkBudgetReport]:
    if not scenario.budget_legs:
        raise ParameterError("budget_legs: no legs configured")
    return [compute_budget(leg) for leg in scenario.budget_legs]


def _sweep_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"sweep value {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ParameterError(f"sweep values must be finite, got {text.strip()!r}")
    return value


def parse_sweep_values(spec: str) -> list[float]:
    """Parse ``a:b:step`` into an inclusive grid (also accepts ``v1,v2,...``)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(f"sweep values must be 'start:stop:step', got {spec!r}")
        a, b, step = (_sweep_number(p) for p in parts)
        if step <= 0:
            raise ParameterError("sweep step must be > 0")
        span = (b - a) / step + 1e-9  # may be inf: checked before int()
        if not span < MAX_SWEEP_POINTS:
            raise ParameterError(
                f"sweep grid {spec!r} has more than {MAX_SWEEP_POINTS} points"
            )
        count = int(np.floor(span)) + 1
        values = [a + i * step for i in range(count)]
    else:
        values = [_sweep_number(p) for p in spec.split(",") if p.strip()]
    if not values:
        raise ParameterError("sweep produced no values")
    return values


def _sweep_point(point: ScenarioConfig, value: float) -> dict:
    result = simulate(point, with_spectra=False)
    return {
        "swept_value": value,
        "ber": result.ber.ber,
        "errors": result.ber.bit_errors,
        "bits": result.ber.bits_compared,
    }


def run_sweep(
    scenario: ScenarioConfig,
    param: str,
    values: list[float],
    jobs: int = 1,
) -> list[dict]:
    """One pipeline run per value; point i is seeded from its own ``seed``.

    Points are independent, so they run on ``min(jobs, points)`` threads;
    rows come back in sweep order, equal to a one-thread run.  A failing
    point cancels the queued ones and raises its own error.
    """
    if not values:
        raise ParameterError("sweep produced no values")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    # build (and so check) every point before any run
    points = [replace_key(scenario, param, value) for value in values]
    points = [replace(p, seed=derive_seed(p.seed, _SWEEP_BASE + i)) for i, p in enumerate(points)]
    with _threads(min(jobs, len(points))) as pool:
        return list(pool.map(_sweep_point, points, values))
