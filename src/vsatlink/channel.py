"""RF impairments: Saleh TWTA, dB gains, path loss, rotation, noise, I/Q skew.

The full transponder chain (:class:`SatelliteChannel`) is one pass: TWTA ->
one scalar gain -> phase/Doppler rotation -> receiver noise -> I/Q imbalance.
Every block after the TWTA is linear, and the rotation has unit modulus, so
the seven dB terms of the link (Tx dish gain, uplink path loss, satellite Rx
gain, transponder amplifier gain, satellite Tx gain, downlink path loss, Rx
dish gain) collapse into that one gain and commute with the rotation.

Two power modes choose the gain and noise in :meth:`SatelliteChannel.plan`:

* ``physical`` - the gain is the literal dB sum; noise is kTB from the
  receiver noise temperature.  If the transponder amplifier gain is left
  unset it is auto-closed so the mean pre-noise received power equals the
  channel-input power (the published gain/loss figures do not close the
  link by themselves); the value used is reported.  Under auto-closure the
  seven terms cancel to ``10*log10(p_in/p_sig)`` whatever :class:`LinkGains`
  holds (``p_sig`` is the TWTA output power), so the dB figures change only
  the logged transponder gain.
* ``normalized`` - the gain is ``sqrt(p_in/p_sig)``, the same closure without
  the dB round trip, and noise comes from a target Es/N0 instead of a
  temperature.  With all impairments neutral this mode is an exact identity.

Physical auto-closure and normalized mode therefore differ only in the noise
variance and in the logged numbers.  The TWTA, the rotation and the I/Q step
are skipped when their parameters make them the identity (a linear TWTA, no
phase or Doppler offset, no imbalance or DC offset); running them could
change only the sign of an exact zero.

The rotation's phasor comes from a table, not from cos/sin per sample:
sample n gets ``anchor[n // L] * step[n % L]`` with L =
:data:`ROTATION_ROW_SAMPLES`, the rows counted on the global sample clock.
It depends on n alone, so it is exact under any split into frames or
blocks.  The first sample of every row, and every phase-only rotation, is
``exp(1j*theta)`` bit for bit; the other samples are within a few
``np.spacing(theta)`` of it (2.2 ulp at theta = 503 rad, the end of a 1e6-bit
run of the 2 Hz link).  The receiver's inverse is the exact conjugate.

The channel works block by block, in two passes: the TWTA, then
``rotate(gain * y) + noise`` and the I/Q step.  Where the gain needs the
whole TWTA output's power (:attr:`SatelliteChannel.plan_reads_powers`) the
passes cannot merge; elsewhere the plan is known before the first sample,
and each block can take both passes as it arrives.  The noise stream is
``std * z`` for all real parts, then all imaginary parts.  Each block
takes its real noise as it is written.  A run with a pool starts a noise
worker from the plan (:meth:`SatelliteChannel.noise_ahead`), which draws
the imaginary noise one block ahead, one pool task per block, so each block
takes its imaginary noise too; noise that no worker draws is added as the
imaginary half in one sweep once every real part is in.  Either way each
sample takes the one sum ``signal + noise`` of the chain run in stage
order, possibly with its operands swapped; IEEE addition commutes, so the
output keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from . import frames
from .errors import CheckedConfig, ParameterError, PipelineError, ranged
from .frames import ComplexFrame, _check_finite, _unchecked, block_slices

__all__ = [
    "BOLTZMANN_J_PER_K",
    "SalehParams",
    "ImpairmentConfig",
    "LinkGains",
    "saleh_amplify",
    "phase_freq_offset",
    "SatelliteChannel",
    "ChannelLog",
]

BOLTZMANN_J_PER_K = 1.380649e-23

# Range limits for the config numbers: wide enough for any real link, narrow
# enough that every power in the chain (|x|^2, kTB, 10^(dB/10)) stays finite.
MAX_ABS_DB = 400.0
MAX_NOISE_TEMPERATURE_K = 1e9
MAX_SALEH_COEFFICIENT = 1e6
DB_RANGE = (-MAX_ABS_DB, MAX_ABS_DB)
LOSS_DB_RANGE = (0.0, MAX_ABS_DB)
PHASE_RANGE_DEG = (-360.0, 360.0)
AMPLITUDE_RANGE = (-1e6, 1e6)  # volts across 1 ohm

# Row length of the rotation's phasor table (see _Rotation).  The rows are
# anchored at global sample 0, so the table does not depend on
# frames.BLOCK_SAMPLES or on how a stream is split into frames.
ROTATION_ROW_SAMPLES = 4096


def _db_to_amplitude(db: float) -> float:
    return 10.0 ** (db / 20.0)


@dataclass(frozen=True)
class SalehParams(CheckedConfig):
    """TWTA AM/AM and AM/PM coefficients plus dB drive scalings.

    AM/AM: A(r) = amam_alpha * r / (1 + amam_beta * r^2)
    AM/PM: phi(r) = ampm_alpha * r^2 / (1 + ampm_beta * r^2)   [radians]
    applied to the input amplitude after ``input_scale_db``; the result is
    scaled by ``output_scale_db``.
    """

    input_scale_db: float = ranged(*DB_RANGE, default=-16.1821)
    amam_alpha: float = ranged(1 / MAX_SALEH_COEFFICIENT, MAX_SALEH_COEFFICIENT, default=2.1587)
    amam_beta: float = ranged(0.0, MAX_SALEH_COEFFICIENT, default=1.1517)
    ampm_alpha: float = ranged(-MAX_SALEH_COEFFICIENT, MAX_SALEH_COEFFICIENT, default=4.0033)
    ampm_beta: float = ranged(0.0, MAX_SALEH_COEFFICIENT, default=9.1040)
    output_scale_db: float = ranged(*DB_RANGE, default=32.9118)

    @classmethod
    def linear(cls) -> "SalehParams":
        """A transparent amplifier: A(r) = r, phi(r) = 0, unity scalings."""
        return cls(0.0, 1.0, 0.0, 0.0, 1.0, 0.0)

    @property
    def amam_peak_input(self) -> float:
        """Input amplitude at which AM/AM saturates (scalings removed)."""
        if self.amam_beta == 0:
            return np.inf
        return 1.0 / np.sqrt(self.amam_beta)

    @property
    def amam_peak_output(self) -> float:
        """Maximum AM/AM output amplitude (scalings removed)."""
        if self.amam_beta == 0:
            return np.inf
        return self.amam_alpha / (2.0 * np.sqrt(self.amam_beta))


@dataclass(frozen=True)
class ImpairmentConfig(CheckedConfig):
    """Link impairment settings (all transparent at their zero defaults)."""

    phase_offset_deg: float = ranged(*PHASE_RANGE_DEG, default=0.0)
    freq_offset_hz: float = ranged(-1e9, 1e9, default=0.0)
    noise_temperature_k: float = ranged(0.0, MAX_NOISE_TEMPERATURE_K, default=0.0)
    iq_amplitude_imbalance_db: float = ranged(*DB_RANGE, default=0.0)
    iq_phase_imbalance_deg: float = ranged(*PHASE_RANGE_DEG, default=0.0)
    dc_offset_i: float = ranged(*AMPLITUDE_RANGE, default=0.0)
    dc_offset_q: float = ranged(*AMPLITUDE_RANGE, default=0.0)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")


@dataclass(frozen=True)
class LinkGains(CheckedConfig):
    """Fixed dB gains and path losses along the transponder chain."""

    tx_dish_gain_db: float = ranged(*DB_RANGE, default=52.48)
    sat_rx_gain_db: float = ranged(*DB_RANGE, default=38.2)
    # None -> auto-closure
    transponder_amp_gain_db: Optional[float] = ranged(*DB_RANGE, default=None)
    sat_tx_gain_db: float = ranged(*DB_RANGE, default=31.0)
    rx_dish_gain_db: float = ranged(*DB_RANGE, default=36.85)
    uplink_loss_db: float = ranged(*LOSS_DB_RANGE, default=221.0)
    downlink_loss_db: float = ranged(*LOSS_DB_RANGE, default=217.0)


def saleh_amplify(x: ComplexFrame, p: SalehParams) -> ComplexFrame:
    """Memoryless TWTA model: apply AM/AM and AM/PM to every sample.

    Computed in complex-gain form, x * alpha/(1+beta*r^2) * exp(j*phi(r)),
    which is the same A(r)*exp(j(arg x + phi)) without a polar round trip.
    The output is checked: ``r^2`` overflows for a finite input near 1e154,
    and the resulting NaN raises :class:`ParameterError` here.  ``x`` is
    unchanged; :meth:`SatelliteChannel.amplify_block` runs the same steps
    into any array, ``x.samples`` included.
    """
    out = np.empty_like(x.samples)
    _saleh(x.samples, out, p)
    return _unchecked(ComplexFrame, out, x.sample_rate_hz, x.start_sample)


def _saleh(src: np.ndarray, dst: np.ndarray, p: SalehParams) -> None:
    """Write the :func:`saleh_amplify` output of ``src`` into ``dst``, which
    may be ``src`` itself, and check it."""
    scale_in = _db_to_amplitude(p.input_scale_db)
    scale_out = _db_to_amplitude(p.output_scale_db)
    # in power-sum leaf pieces, not blocks: a worker thread's heap keeps the
    # most its temporaries ever took (whole blocks: +5 MB peak RSS at 1e6 bits)
    for i in range(0, src.size, frames.MEAN_POWER_LEAF_SAMPLES):
        sl = slice(i, i + frames.MEAN_POWER_LEAF_SAMPLES)
        xs = src[sl] * scale_in
        r2 = xs.real * xs.real + xs.imag * xs.imag
        xs *= p.amam_alpha / (1.0 + p.amam_beta * r2)
        # phi(r) = ampm_alpha * r2 / (1 + ampm_beta * r2), written over r2
        # and with den freed, so the phasor is the one new block beside xs
        den = p.ampm_beta * r2
        den += 1.0
        r2 *= p.ampm_alpha
        r2 /= den
        del den
        # xs first, into an array that is neither operand: see _Rotation
        blk = dst[sl]
        np.multiply(xs, _unit_phasor(r2), out=blk)
        blk *= scale_out
    _check_finite(dst)


def _unit_phasor(theta: np.ndarray) -> np.ndarray:
    """``exp(1j*theta)``, bit for bit, without the complex argument array."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def phase_freq_offset(x: ComplexFrame, phase_deg: float, freq_hz: float) -> ComplexFrame:
    """Rotate sample n by ``phase + 2*pi*f*n/fs``, n counted on the frame's
    global clock (``x.start_sample`` is the index of its first sample).

    The phasor of sample n is ``anchor[n // L] * step[n % L]`` from a table of
    :data:`ROTATION_ROW_SAMPLES` = L steps and one anchor per row (see
    :class:`_Rotation`).  It depends on n alone, so any split of a stream
    into frames gives the same bits.  Every row's first sample and every
    phase-only rotation equal ``exp(1j*theta) * x`` bit for bit; the other
    samples are within a few ``np.spacing(theta)`` of it, the rounding that
    ``theta`` itself carries.  ``(-phase, -f)`` gives the exact conjugate
    phasor.
    """
    out = np.empty_like(x.samples)
    rotation = _Rotation(x.start_sample, len(x), x.sample_rate_hz, phase_deg, freq_hz)
    rotation.apply(0, x.samples, out)
    return _unchecked(ComplexFrame, out, x.sample_rate_hz, x.start_sample)


class _Rotation:
    """The rotation of :func:`phase_freq_offset` for the ``n`` samples of a
    stream whose first sample is ``start`` on the global clock, applied to
    any run of them; the tables are built once.

    The global clock is cut into rows of L = :data:`ROTATION_ROW_SAMPLES`
    samples, anchored at sample 0.  Row r's anchor is
    ``exp(1j*(2*pi*f*r*L/fs + phase))``, theta evaluated as for any sample,
    and ``step[k] = exp(1j*2*pi*f*k/fs)``; sample n gets
    ``anchor[n // L] * step[n % L]``.  ``step[0]`` is exactly ``1+0j``, so the
    anchor samples keep their bits, and a zero frequency makes every step
    ``1+0j``.  Negating phase and frequency negates every angle exactly,
    which conjugates both tables and so their products.  cos and sin run on
    L angles plus one per row.

    numpy's SIMD complex multiply rounds the imaginary part of a*b and b*a
    differently.  The whole-frame x*exp(1j*theta) runs as phasor*x (numpy
    writes the product into the exp temporary), so :meth:`apply` puts the
    phasor first.  A one-sample product written over one of its operands
    takes a scalar loop that rounds differently again, so it writes
    elsewhere.
    """

    def __init__(self, start: int, n: int, fs: float, phase_deg: float, freq_hz: float):
        phase_rad = np.deg2rad(phase_deg)
        omega = 2.0 * np.pi * float(freq_hz)
        width = ROTATION_ROW_SAMPLES
        self._start = start
        self._first_row = self._start // width
        rows = np.arange(self._first_row, (self._start + n - 1) // width + 1)
        self._anchors = _unit_phasor(omega * (rows * width) / fs + phase_rad)
        self._step = _unit_phasor(omega * np.arange(width) / fs)
        self._phasor = np.empty(width, dtype=np.complex128)

    def apply(self, first: int, src: np.ndarray, out: np.ndarray) -> None:
        """``out = phasor * src`` for the samples ``first, first + 1, ...`` of
        the stream, one table row at a time; ``out`` does not overlap ``src``."""
        width = ROTATION_ROW_SAMPLES
        lo = self._start + first
        hi = lo + src.size
        for row in range(lo // width, (hi - 1) // width + 1):
            n0 = row * width
            a, b = max(lo, n0), min(hi, n0 + width)
            phasor = self._phasor[: b - a]
            np.multiply(self._anchors[row - self._first_row], self._step[a - n0 : b - n0],
                        out=phasor)
            np.multiply(phasor, src[a - lo : b - lo], out=out[a - lo : b - lo])


def _ktb_variance(temperature_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power kTB in watts."""
    return BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz


class _NoiseAhead:
    """The imaginary half of the next ``n`` noise samples, drawn on a pool
    worker a block at a time, one task per block.

    The stream is ``std * z`` for all ``n`` real parts, then all ``n``
    imaginary parts.  A clone of the channel's generator, made here before
    the channel draws from its own, is first advanced by ``n`` normals
    (drawing blocks and dropping them), so that it sits exactly at the
    start of the imaginary half; that task then draws the first block of
    imaginary parts.  :meth:`add_next` adds the drawn block and only then
    submits the next draw, into the same block-sized array: at most one
    task is in flight, so the noise's memory does not depend on how the
    threads interleave.
    """

    def __init__(self, rng: np.random.Generator, n: int, std: float, pool):
        import copy

        self.rng = copy.deepcopy(rng)
        """The generator; past the whole stream once every block is added."""
        self._n, self._std, self._pool = n, std, pool
        self._z = np.empty(min(n, frames.BLOCK_SAMPLES))
        self._taken = 0
        self._closed = False
        self._drawn = pool.submit(self._advance)

    def _advance(self) -> Optional[np.ndarray]:
        """Draw past the real half, looking for a close before each block,
        then draw the first block of imaginary parts."""
        for sl in block_slices(self._n):
            if self._closed:
                return None
            self.rng.standard_normal(out=self._z[: sl.stop - sl.start])
        return self._draw(self._z.size)

    def _draw(self, size: int) -> np.ndarray:
        z = self._z[:size]
        self.rng.standard_normal(out=z)
        z *= self._std
        return z

    def add_next(self, part: np.ndarray) -> None:
        """``part += `` the next block of imaginary parts, ``std * z``; raise
        the error of a draw that failed."""
        part += self._drawn.result()
        self._taken += part.size
        if self._taken < self._n:
            size = min(self._n - self._taken, frames.BLOCK_SAMPLES)
            self._drawn = self._pool.submit(self._draw, size)

    def close(self) -> None:
        """Stop an advance that is still running, at its next block; a
        block's draw in flight ends by itself."""
        self._closed = True


def _iq_imbalance(samples: np.ndarray, cfg: ImpairmentConfig) -> None:
    """Apply the amplitude/phase mismatch between branches plus DC offsets
    to ``samples`` in place.

    Split-phase convention with the amplitude imbalance on the Q branch:
        I' = Re(x) cos(t/2) + Im(x) g sin(t/2) + dc_i
        Q' = Re(x) sin(t/2) + Im(x) g cos(t/2) + dc_q
    """
    if (cfg.iq_amplitude_imbalance_db, cfg.iq_phase_imbalance_deg,
            cfg.dc_offset_i, cfg.dc_offset_q) == (0.0, 0.0, 0.0, 0.0):
        return
    g = _db_to_amplitude(cfg.iq_amplitude_imbalance_db)
    theta = np.deg2rad(cfg.iq_phase_imbalance_deg)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    for sl in block_slices(samples.size):
        blk = samples[sl]
        re, im = blk.real, blk.imag
        i_out = re * c + im * g * s + cfg.dc_offset_i
        q_out = re * s + im * g * c + cfg.dc_offset_q
        blk.real, blk.imag = i_out, q_out


class _Propagation:
    """``rotate(gain * y) + noise`` and the I/Q step for the ``n`` samples of
    one stream, one block at a time: :meth:`SatelliteChannel.propagate` is
    this over the ``BLOCK_SAMPLES`` blocks of a frame.

    Each call writes one block: in order, on the ``frames.BLOCK_SAMPLES``
    grid counted from the stream's first sample, the grid on which a noise
    worker draws its blocks.  Every block takes its real noise as it is
    written.  With a noise worker, or at zero noise variance, each block
    leaves finished and checked.  Without a worker the imaginary noise needs
    every real part drawn first, so :meth:`SatelliteChannel.propagate` adds
    it, and the I/Q step, to the whole stream afterwards.
    """

    def __init__(self, channel: "SatelliteChannel", plan: ChannelLog, n: int, fs: float,
                 noise: Optional[_NoiseAhead], start_sample: int):
        imp = channel.impairments
        self._channel, self._plan, self._noise, self._n = channel, plan, noise, n
        self._scaled = self._normals = None  # block scratch, made on first use
        self._std = np.sqrt(plan.noise_variance_w / 2.0)
        self._rotation = None
        if imp.phase_offset_deg != 0.0 or imp.freq_offset_hz != 0.0:
            self._rotation = _Rotation(start_sample, n, fs, imp.phase_offset_deg,
                                       imp.freq_offset_hz)
        self._written = 0

    def __call__(self, first: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Write the output for the samples ``first, first + 1, ...`` of the
        stream, the TWTA output ``src``, into ``dst`` (which may be ``src``)."""
        if self._rotation is None:
            np.multiply(src, self._plan.gain, out=dst)
        else:
            # rotated from a scaled copy that is neither operand
            if self._scaled is None:
                self._scaled = np.empty(min(self._n, frames.BLOCK_SAMPLES), dtype=np.complex128)
            signal = np.multiply(src, self._plan.gain, out=self._scaled[: src.size])
            self._rotation.apply(first, signal, dst)
        channel, noise = self._channel, self._noise
        if self._plan.noise_variance_w != 0.0:
            self._add_normals(dst.real)
            if noise is None:
                return
            noise.add_next(dst.imag)
        _iq_imbalance(dst, channel.impairments)
        _check_finite(dst)
        self._written += dst.size
        if noise is not None and self._written == self._n:
            channel._rng = noise.rng

    def _add_normals(self, part: np.ndarray) -> None:
        """``part += std * z``, the next normals of the channel's generator,
        drawn a block at a time."""
        if self._normals is None:
            self._normals = np.empty(min(self._n, frames.BLOCK_SAMPLES))
        for sl in block_slices(part.size):
            z = self._normals[: sl.stop - sl.start]
            self._channel._rng.standard_normal(out=z)
            z *= self._std
            part[sl] += z


@dataclass(frozen=True)
class ChannelLog:
    """The gain and noise plan of one channel run, as the run log records it."""

    mode: str
    input_power_w: float  # mean |x|^2 of the channel input
    twta_output_power_w: float  # mean |x|^2 after the TWTA
    transponder_amp_gain_db: float = 0.0
    normalization_factor: float = 1.0
    noise_variance_w: float = 0.0
    net_fixed_gain_db: float = 0.0

    @property
    def gain(self) -> float:
        """The one scalar amplitude gain applied after the TWTA."""
        if self.mode == "normalized":
            return self.normalization_factor
        return _db_to_amplitude(self.net_fixed_gain_db)


class SatelliteChannel:
    """Transponder chain.  The noise stream carries across runs; the rotation
    is counted from each frame's ``start_sample``, so a stream split into
    frames with consecutive clocks gets the same rotation as one frame.

    :meth:`run` is three steps that a caller owning its buffer can also
    take one by one, in this order, over the same input: :meth:`amplify_block`
    writes the TWTA output over it, :meth:`plan` takes the input and TWTA
    output powers, then :meth:`propagate` writes ``rotate(gain * y) + noise``
    and the I/Q step over it.  A caller streaming the input takes the same
    steps per block: :meth:`amplify_block`, then the blocks of
    :meth:`propagation`, with the plan of the powers it has summed or, when
    not :attr:`plan_reads_powers`, of any.  :meth:`noise_ahead` starts
    drawing a plan's noise on a pool's worker thread before the input
    exists: the noise variance does not depend on the powers.
    """

    def __init__(
        self,
        gains: LinkGains,
        saleh: SalehParams,
        impairments: ImpairmentConfig,
        mode: Literal["physical", "normalized"] = "physical",
        target_es_n0_db: Optional[float] = None,
        reference_symbol_power: float = 10.0,
    ):
        if mode not in ("physical", "normalized"):
            raise ParameterError(f"mode must be 'physical' or 'normalized', got {mode!r}")
        self.gains = gains
        self.saleh = saleh
        self.impairments = impairments
        self.mode = mode
        self.target_es_n0_db = target_es_n0_db
        self.reference_symbol_power = float(reference_symbol_power)
        self.linear_twta = saleh == SalehParams.linear()
        """True when the TWTA is skipped: :meth:`amplify_block` copies."""
        self._rng = np.random.default_rng(impairments.seed)

    def plan(self, p_in: float, p_sig: float, sample_rate_hz: float) -> ChannelLog:
        """The plan for input power ``p_in`` and TWTA output power ``p_sig``: reads
        only the constructor's config, and is the one place the power modes differ."""
        if self.mode == "normalized":
            factor = np.sqrt(p_in / p_sig) if p_in > 0.0 and p_sig > 0.0 else 1.0
            noise = 0.0
            if self.target_es_n0_db is not None:
                noise = self.reference_symbol_power / 10.0 ** (self.target_es_n0_db / 10.0)
            return ChannelLog(self.mode, p_in, p_sig, normalization_factor=float(factor),
                              noise_variance_w=noise)
        g = self.gains

        def net_db(transponder_db):  # in link order: another order moves the last bit
            return (g.tx_dish_gain_db - g.uplink_loss_db + g.sat_rx_gain_db + transponder_db
                    + g.sat_tx_gain_db - g.downlink_loss_db + g.rx_dish_gain_db)

        transponder_db = g.transponder_amp_gain_db
        if transponder_db is None:  # auto-closure against the TWTA output
            if p_in <= 0.0 or p_sig <= 0.0:
                raise PipelineError(
                    "channel", "cannot auto-close transponder gain on a zero-power signal"
                )
            transponder_db = 10.0 * np.log10(p_in / p_sig) - net_db(0.0)
        return ChannelLog(
            self.mode, p_in, p_sig,
            transponder_amp_gain_db=float(transponder_db),
            noise_variance_w=_ktb_variance(self.impairments.noise_temperature_k, sample_rate_hz),
            net_fixed_gain_db=float(net_db(transponder_db)),
        )

    def noise_ahead(self, pool, n: int, plan: ChannelLog) -> Optional[_NoiseAhead]:
        """Start a worker on ``pool`` that draws the imaginary half of the next
        ``n`` noise samples of ``plan``'s variance ahead, for :meth:`propagate`
        over ``n`` samples; None without a pool or at zero noise variance,
        where no worker draws.  The caller calls its ``close`` before the
        pool shuts down."""
        if pool is None or plan.noise_variance_w == 0.0:
            return None
        return _NoiseAhead(self._rng, n, np.sqrt(plan.noise_variance_w / 2.0), pool)

    @property
    def plan_reads_powers(self) -> bool:
        """Whether the gain of :meth:`plan` depends on the powers it is given:
        a non-linear TWTA under normalized mode or auto-closure.  Otherwise
        the TWTA is skipped (``p_sig`` is ``p_in``, and ``p_in / p_sig`` is
        exactly 1) or the gain is fixed, so ``plan(1.0, 1.0, fs)`` has the
        gain and noise of any run's plan; only the logged powers differ."""
        return not self.linear_twta and (
            self.mode == "normalized" or self.gains.transponder_amp_gain_db is None)

    def amplify_block(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Write the TWTA output of the samples ``src`` into ``dst`` (which may
        be ``src``), checked; a copy when :attr:`linear_twta`.  The TWTA is
        memoryless, so this over any split of a frame gives the same bits."""
        if self.linear_twta:
            np.copyto(dst, src)
        else:
            _saleh(src, dst, self.saleh)

    def propagation(self, plan: ChannelLog, n: int, sample_rate_hz: float,
                    noise: Optional[_NoiseAhead] = None,
                    start_sample: int = 0) -> "_Propagation":
        """The :meth:`propagate` of a stream of ``n`` TWTA output samples,
        whose first sample is ``start_sample`` on the global clock, to be
        taken block by block (see :class:`_Propagation`)."""
        return _Propagation(self, plan, n, sample_rate_hz, noise, start_sample)

    def propagate(self, y: ComplexFrame, plan: ChannelLog,
                  noise: Optional[_NoiseAhead] = None) -> ComplexFrame:
        """Overwrite ``y.samples`` (the :meth:`amplify_block` output) with
        ``rotate(gain * y) + noise``, then the I/Q step, and return ``y`` as
        the channel output (checked: the gain and offsets may overflow).

        ``noise`` is the :meth:`noise_ahead` worker for ``y``, if one was
        started.  At zero noise variance the signal alone is written.
        """
        samples = y.samples
        step = self.propagation(plan, len(y), y.sample_rate_hz, noise, y.start_sample)
        for sl in block_slices(len(y)):
            step(sl.start, samples[sl], samples[sl])
        if noise is None and plan.noise_variance_w != 0.0:  # every real part is in
            step._add_normals(samples.imag)
            _iq_imbalance(samples, self.impairments)
            _check_finite(samples)
        return _unchecked(ComplexFrame, samples, y.sample_rate_hz, y.start_sample)

    def run(self, x: ComplexFrame) -> tuple[ComplexFrame, ChannelLog]:
        """The channel output for ``x`` and the plan it applied; ``x`` is unchanged."""
        y = _unchecked(ComplexFrame, np.empty_like(x.samples), x.sample_rate_hz, x.start_sample)
        self.amplify_block(x.samples, y.samples)
        p_in = x.mean_power
        plan = self.plan(p_in, p_in if self.linear_twta else y.mean_power, x.sample_rate_hz)
        return self.propagate(y, plan), plan
