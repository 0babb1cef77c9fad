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

from . import __version__, frames
# simulate streams its stages through TxShaper, RxMatcher and WelchSum, and
# de-rotates inside RxMatcher; perfbench/layertrace.py still wraps the names
# tx_shape, rx_match, estimate_psd, measure_ber and phase_freq_correct here,
# so they stay importable from this module
from .analysis import (  # noqa: F401
    BerReport,
    WelchSum,
    constellation_snapshot,
    estimate_psd,
    measure_ber,
)
from .channel import ChannelLog, SatelliteChannel
from .errors import ParameterError, PipelineError
from .frames import ComplexFrame, PowerSum, _unchecked
from .linkbudget import LinkBudgetReport, compute_budget
from .modem import (  # noqa: F401
    ModemConfig,
    RxMatcher,
    TxShaper,
    generate_bits,
    pipeline_delay_bits,
    pipeline_delay_symbols,
    qam_demodulate,
    qam_modulate,
    rx_match,
    tx_samples,
    tx_shape,
)
from .receiver import AutomaticGainControl, DcOffsetCompensator, phase_freq_correct  # noqa: F401
from .scenario import CompensationFlags, ScenarioConfig, replace_key, run_bits, scenario_to_dict

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


class _stage:
    """Re-raise stage failures with the stage name attached.

    Only ``Exception`` is wrapped: an interrupt or exit passes through as is.
    A class, not a generator context manager: the chain enters a stage a few
    times per block.
    """

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, Exception) and not isinstance(exc, PipelineError):
            raise PipelineError(self.name, str(exc)) from exc


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

    The run is one chain of blocks: bits, symbols and ``tx_shape`` (one
    overlap-save segment at a time) make the transmit waveform on the
    ``frames.BLOCK_SAMPLES`` grid; each block passes the TWTA, the channel,
    DC removal, AGC and the de-rotating ``rx_match``, and its symbols are
    decided and counted against the transmitted bits.  The run log's powers,
    the two spectra and the snapshots are taken from the blocks as they pass.

    No waveform-sized array exists, unless the run must hold the TWTA output
    (see :func:`_simulate`).  With ``with_spectra`` a pool of two worker
    threads runs beside the chain (numpy's normal draws, FFTs and ufuncs
    release the GIL).  Each of its tasks takes one block: the next block of
    channel noise, drawn ahead; or one block fed, in order, to the running
    transmit power and transmit Welch sum (and, when held, the TWTA); or to
    the running receive Welch sum.  Each of the three has at most one task
    in flight.  The threads are shut down before this returns or raises.
    Without, no thread starts.
    """
    with contextlib.ExitStack() as run:
        pool = run.enter_context(_threads(2)) if with_spectra else None
        # entered after the pool, so left before it shuts down
        return _simulate(scenario, snapshot_points, pool, run)


class _Tap:
    """Hands each block fed to it to ``consumers``, in feed order: one pool
    task per block, or at once when ``pool`` is None.  A feed first waits
    for the previous block's task, so at most one block is with the worker,
    and a lagging worker holds up the chain, not memory.  A tap never
    copies a block: the feeder writes no more to it once fed.  :meth:`spare`
    reuses the fed blocks, so that the chain does not allocate (and fault
    in) new blocks as it runs."""

    def __init__(self, pool, consumers: list):
        self._pool, self._consumers = pool, consumers
        self._task = None  # the last block's task
        self._made: list[np.ndarray] = []  # the blocks of spare

    def _consume(self, block: np.ndarray) -> None:
        for consume in self._consumers:
            consume(block)

    def feed(self, block: np.ndarray) -> None:
        """Hand on ``block``; raise the error of a consumer that has failed."""
        if self._pool is None:
            self._consume(block)
            return
        self.join()
        self._task = self._pool.submit(self._consume, block)

    def spare(self, size: int) -> np.ndarray:
        """An array of ``size`` samples to fill, for a feeder that takes one
        before each feed.  The first two are new; then it is the block fed
        before last, whose task the last feed waited for.  So a run makes
        two blocks, however fast the worker is."""
        if len(self._made) < 2:
            self._made.append(np.empty(size, dtype=np.complex128))
        else:
            self._made.reverse()
        return self._made[-1][:size]

    def join(self) -> None:
        """Return once every fed block is consumed; raise a consumer's error."""
        if self._task is not None:
            self._task.result()


class _Rows:
    """Rows ``lo, lo + 1, ...`` (fewer than ``hi``) of a stream of arrays,
    kept as the arrays pass."""

    def __init__(self, lo: int, hi: int):
        self._lo, self._hi, self._seen = lo, hi, 0
        self._parts: list[np.ndarray] = []

    def add(self, x: np.ndarray) -> None:
        a, b = self._lo - self._seen, self._hi - self._seen
        if a < x.size and b > 0:
            self._parts.append(x[max(a, 0) : b].copy())
        self._seen += x.size

    def frame(self, rate_hz: float) -> ComplexFrame:
        rows = np.concatenate(self._parts) if self._parts else np.empty(0, dtype=np.complex128)
        return _unchecked(ComplexFrame, rows, rate_hz)


class _ErrorCount:
    """Bit errors of a stream of decisions against the ``n`` transmitted bits:
    decision ``i`` meets transmitted bit ``i - lag``.  Only the transmitted
    bits not yet compared are kept, packed eight to a byte."""

    def __init__(self, n: int, lag: int):
        import collections

        self._n, self._lag = n, lag
        self._waiting: collections.deque = collections.deque()  # (packed, count)
        self._sent = np.empty(0, dtype=np.uint8)  # unpacked head of the waiting bits
        self._decided = self._compared = self._errors = 0

    def transmitted(self, bits: np.ndarray) -> None:
        self._waiting.append((np.packbits(bits), bits.size))

    def received(self, bits: np.ndarray) -> None:
        skip = max(self._lag - self._decided, 0)
        self._decided += bits.size
        bits = bits[skip : skip + self._n - self._compared]
        while bits.size:
            if not self._sent.size:
                packed, count = self._waiting.popleft()
                self._sent = np.unpackbits(packed, count=count)
            m = min(self._sent.size, bits.size)
            self._errors += int(np.count_nonzero(self._sent[:m] != bits[:m]))
            self._compared += m
            bits, self._sent = bits[m:], self._sent[m:]

    def report(self) -> BerReport:
        return BerReport(self._errors, self._compared, self._lag)


def _block_grid(pieces, n: int, new_block):
    """Yield ``(start, block)`` for the ``n`` samples of the iterable
    ``pieces`` (arrays that, joined, are the stream) cut on the
    ``BLOCK_SAMPLES`` grid, each block the array ``new_block(start, size)``."""
    start, block, fill = 0, None, 0
    for piece in pieces:
        done = 0
        while done < piece.size:
            if block is None:
                block, fill = new_block(start, min(frames.BLOCK_SAMPLES, n - start)), 0
            take = min(piece.size - done, block.size - fill)
            block[fill : fill + take] = piece[done : done + take]
            done += take
            fill += take
            if fill == block.size:
                yield start, block
                start, block = start + block.size, None


class _Receiver:
    """The receive side of the chain for ``n`` channel output samples, fed in
    order, block by block: DC removal and AGC in place, the pre-correction
    filter over the snapshot window, the de-rotating matched filter, the
    receive tap, the decisions and their error count."""

    def __init__(self, cfg: ModemConfig, comp: CompensationFlags,
                 derotate: tuple[float, float] | None, agc_reference: float, n: int,
                 skip: int, points: int, tap: _Tap, errors: _ErrorCount):
        self._cfg, self._tap, self._errors = cfg, tap, errors
        self._rates = cfg.sample_rate_hz, cfg.symbol_rate_hz
        self._dc = DcOffsetCompensator() if comp.dc else None
        self._agc = None
        if comp.agc:
            with _stage("receiver.agc"):
                self._agc = AutomaticGainControl(agc_reference)
        # output symbol k reads input samples up to k * sps, so the
        # pre-correction symbols of the snapshot need only this window
        self._n_pre = min((skip + points) * cfg.samples_per_symbol, n)
        with _stage("modem.rx_match"):
            self._pre = RxMatcher(self._n_pre, cfg)
            self._post = RxMatcher(n, cfg, derotate=derotate)
        self.shown_pre = _Rows(skip, skip + points)
        self.shown_post = _Rows(skip, skip + points)

    def __call__(self, start: int, block: np.ndarray) -> None:
        """Take the channel output samples ``start, start + 1, ...``; the
        block then belongs to the receive tap."""
        cfg, (fs, rs) = self._cfg, self._rates
        frame = _unchecked(ComplexFrame, block, fs, start)
        if self._dc is not None:
            with _stage("receiver.dc_offset_remove"):
                self._dc.process_in_place(frame)
        if self._agc is not None:
            with _stage("receiver.agc"):
                self._agc.process_in_place(frame)
        with _stage("modem.rx_match"):
            if self._pre is not None:
                for symbols in self._pre.feed(block[: self._n_pre - start]):
                    self.shown_pre.add(symbols)
                if start + block.size >= self._n_pre:
                    self._pre = None
            pieces = list(self._post.feed(block))
        with _stage("analysis.spectra"):
            self._tap.feed(block)
        if not pieces:
            return
        # one decision per block: each piece is an array of its own
        symbols = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        self.shown_post.add(symbols)
        with _stage("modem.qam_demodulate"):
            bits = qam_demodulate(_unchecked(ComplexFrame, symbols, rs), cfg)
        with _stage("analysis.measure_ber"):
            self._errors.received(bits.bits)


def _simulate(scenario: ScenarioConfig, snapshot_points: int, pool,
              run: contextlib.ExitStack) -> SimulationResult:
    """The run of :func:`simulate`; ``pool`` draws the noise and sums the
    spectra, or is None.  ``run`` closes what the run leaves open.

    The chain holds the TWTA output whole (one waveform-sized array) in two
    cases: when the channel plan or the AGC reference needs the whole run's
    powers before the first channel block (a non-linear TWTA under
    normalized mode or auto-closure, or the AGC on), and when the plan has
    noise that no worker draws (there is no pool), which adds all real parts
    before the first imaginary one.  The transmit side then fills the held
    array, the transmit tap overwrites each block with its TWTA output once the
    transmit power and spectrum have read it, the plan is made from the
    summed powers, :meth:`SatelliteChannel.propagate` runs the channel over
    the array, and the receive side reads it block by block.
    Otherwise each block passes the whole chain as it is made: the plan is
    known up front, and its powers are logged from the sums at the end.
    Either way a noise worker, where there is one, draws the noise.
    """
    cfg = scenario.modem
    if snapshot_points <= 0:
        raise ParameterError(f"snapshot_points must be > 0, got {snapshot_points}")
    n_bits = run_bits(scenario.total_bits, cfg.bits_per_symbol)
    bits_seed = derive_seed(scenario.seed, _STREAM_BITS)
    impairments = scenario.impairments
    if impairments.seed == 0:  # 0: derive the noise stream from the master seed
        impairments = replace(impairments, seed=derive_seed(scenario.seed, _STREAM_NOISE))
    noise_seed = impairments.seed
    comp = scenario.compensation
    bps, sps, fs = cfg.bits_per_symbol, cfg.samples_per_symbol, cfg.sample_rate_hz
    n_symbols = n_bits // bps
    n = tx_samples(n_symbols, cfg)

    with _stage("channel.run"):
        channel = SatelliteChannel(
            scenario.gains,
            scenario.saleh,
            impairments,
            mode=scenario.mode,  # type: ignore[arg-type]
            target_es_n0_db=scenario.target_es_n0_db,
            reference_symbol_power=cfg.mean_symbol_power,
        )
        plan = channel.plan(1.0, 1.0, fs)  # the gain and noise when no power is read
        noise = channel.noise_ahead(pool, n, plan)
        held = channel.plan_reads_powers or comp.agc or (
            noise is None and plan.noise_variance_w != 0.0)
        if noise is not None:
            run.callback(noise.close)

    p_in = PowerSum(n)
    p_sig = None if channel.linear_twta else PowerSum(n)
    welch = []
    if pool is not None:
        seg = min(SPECTRUM_SEGMENT_LEN, n)
        welch = [WelchSum(n, seg, fs), WelchSum(n, seg, fs)]
    # the transmit power is summed beside the transmit spectrum; a held run
    # then overwrites the block with its TWTA output, in the same task
    tx = [p_in.add] + [w.add for w in welch[:1]]
    if held and p_sig is not None:
        def amplify(block: np.ndarray) -> None:
            with _stage("channel.run"):
                channel.amplify_block(block, block)
                p_sig.add(block)

        tx.append(amplify)
    taps = [_Tap(pool, tx), _Tap(pool, [w.add for w in welch[1:]])]

    delay_bits = pipeline_delay_bits(cfg)
    errors = _ErrorCount(n_bits, delay_bits)
    # figure artifacts: skip the filter transients (2 x span symbols)
    skip = 2 * pipeline_delay_symbols(cfg)
    shown_tx = _Rows(0, snapshot_points)
    derotate = None
    if comp.phase_freq:
        derotate = (impairments.phase_offset_deg, impairments.freq_offset_hz)

    def receiver(plan: ChannelLog) -> _Receiver:
        # AGC drives total power to its reference; the corrections here are
        # data-aided, so the reference is the known signal power plus the
        # known injected noise power - otherwise the noise share would shrink
        # the recovered constellation below the decision grid.
        return _Receiver(cfg, comp, derotate, plan.input_power_w + plan.noise_variance_w, n,
                         skip, snapshot_points, taps[1], errors)

    def transmitted(new_block):
        """Yield the transmit waveform's blocks, filled into ``new_block(start,
        size)``; their bits wait in ``errors``.  The caller hands each block
        to the transmit tap, and writes no more to it."""
        rng = np.random.default_rng(bits_seed)
        chunk = max(frames.BLOCK_SAMPLES // sps, 1)  # symbols
        with _stage("modem.tx_shape"):
            shaper = TxShaper(n_symbols, cfg)

        def pieces():
            for first in range(0, n_symbols, chunk):
                with _stage("modem.generate_bits"):
                    bits = generate_bits(min(chunk, n_symbols - first) * bps, rng)
                with _stage("modem.qam_modulate"):
                    symbols = qam_modulate(bits, cfg).samples
                errors.transmitted(bits.bits)
                shown_tx.add(symbols)
                with _stage("modem.tx_shape"):
                    yield from shaper.feed(symbols)

        yield from _block_grid(pieces(), n, new_block)

    def summed_plan() -> ChannelLog:
        """The plan of the run's powers (``p_sig`` is ``p_in`` when the TWTA
        is skipped, as in :meth:`SatelliteChannel.run`)."""
        p = p_in.mean
        return channel.plan(p, p if p_sig is None else p_sig.mean, fs)

    if held:
        # the transmit side fills the held waveform, and the transmit tap
        # overwrites each block of it with its TWTA output
        wave = np.empty(n, dtype=np.complex128)
        for _, block in transmitted(lambda start, size: wave[start : start + size]):
            with _stage("analysis.spectra"):
                taps[0].feed(block)
        with _stage("analysis.spectra"):
            taps[0].join()
        with _stage("channel.run"):
            plan = summed_plan()
            channel.propagate(_unchecked(ComplexFrame, wave, fs), plan, noise)
        receive = receiver(plan)
        for sl in frames.block_slices(n):
            receive(sl.start, wave[sl])
        del wave, block
    else:
        link = channel.propagation(plan, n, fs, noise)
        receive = receiver(plan)
        for start, block in transmitted(lambda start, size: taps[0].spare(size)):
            with _stage("analysis.spectra"):
                taps[0].feed(block)  # the chain only reads it from here on
            with _stage("channel.run"):
                out = taps[1].spare(block.size)
                if p_sig is not None:
                    channel.amplify_block(block, out)
                    p_sig.add(out)
                link(start, block if p_sig is None else out, out)
            receive(start, out)

    with _stage("analysis.spectra"):
        for tap in taps:
            tap.join()
    with _stage("channel.run"):
        plan = summed_plan()
    spectrum_tx = spectrum_rx = (np.empty(0), np.empty(0))
    if welch:
        with _stage("analysis.spectra"):
            spectrum_tx, spectrum_rx = ((s.frequencies_hz, s.psd_w_per_hz)
                                        for s in (w.estimate() for w in welch))
    with _stage("analysis.snapshots"):
        cons_tx = constellation_snapshot(shown_tx.frame(cfg.symbol_rate_hz), snapshot_points)
        cons_pre = constellation_snapshot(receive.shown_pre.frame(cfg.symbol_rate_hz),
                                          snapshot_points)
        cons_post = constellation_snapshot(receive.shown_post.frame(cfg.symbol_rate_hz),
                                           snapshot_points)
    report = errors.report()
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
            "agc_reference_power": plan.input_power_w + plan.noise_variance_w,
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
