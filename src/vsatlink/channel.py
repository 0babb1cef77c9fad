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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import CheckedConfig, ParameterError, PipelineError, ranged
from .frames import ComplexFrame, _unchecked, block_slices

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
    and the resulting NaN raises :class:`ParameterError` here.
    """
    scale_in = _db_to_amplitude(p.input_scale_db)
    scale_out = _db_to_amplitude(p.output_scale_db)
    out = np.empty_like(x.samples)
    for sl in block_slices(len(x)):
        xs = x.samples[sl] * scale_in
        r2 = xs.real * xs.real + xs.imag * xs.imag
        xs *= p.amam_alpha / (1.0 + p.amam_beta * r2)
        blk = out[sl]
        # xs first, into a separate array: see _rotate
        np.multiply(xs, _unit_phasor(p.ampm_alpha * r2 / (1.0 + p.ampm_beta * r2)), out=blk)
        blk *= scale_out
    return x.with_samples(out)


def _unit_phasor(theta: np.ndarray) -> np.ndarray:
    """``exp(1j*theta)``, bit for bit, without the complex argument array."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def phase_freq_offset(x: ComplexFrame, phase_deg: float, freq_hz: float) -> ComplexFrame:
    """Rotate sample n by ``phase + 2*pi*f*n/fs``, n counted on the frame's
    global clock (``x.start_sample`` is the index of its first sample)."""
    out = np.empty_like(x.samples)
    _rotate(x, out, phase_deg, freq_hz)
    return _unchecked(ComplexFrame, out, x.sample_rate_hz, x.start_sample)


def _rotate(x: ComplexFrame, dst: np.ndarray, phase_deg: float, freq_hz: float) -> None:
    """Write :func:`phase_freq_offset` of ``x`` into ``dst`` (which may be
    ``x.samples``)."""
    src = x.samples
    phase_rad = np.deg2rad(phase_deg)
    omega = 2.0 * np.pi * float(freq_hz)
    for sl in block_slices(src.size):
        n = np.arange(x.start_sample + sl.start, x.start_sample + sl.stop)
        theta = omega * n / x.sample_rate_hz + phase_rad
        # numpy's SIMD complex multiply rounds the imaginary part of a*b
        # and b*a differently.  The whole-frame x*exp(1j*theta) runs as
        # phasor*x (numpy writes the product into the exp temporary), so
        # the phasor comes first.  A one-sample product written over an
        # input takes a scalar loop that rounds differently again, so the
        # product goes to a fresh array before it is copied into dst.
        dst[sl] = np.multiply(_unit_phasor(theta), src[sl])


def _ktb_variance(temperature_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power kTB in watts."""
    return BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz


def _add_noise(samples: np.ndarray, sigma2: float, rng: np.random.Generator) -> None:
    """Add complex Gaussian noise of total variance ``sigma2`` in place.

    The real parts are drawn first, then the imaginary parts, so the stream
    equals ``std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))``.
    """
    if sigma2 == 0.0:
        return
    std = np.sqrt(sigma2 / 2.0)
    for part in (samples.real, samples.imag):
        for sl in block_slices(part.size):
            blk = part[sl]
            blk += std * rng.standard_normal(blk.size)


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
    frames with consecutive clocks gets the same rotation as one frame."""

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
        self._linear_twta = saleh == SalehParams.linear()
        self._rng = np.random.default_rng(impairments.seed)

    def plan(self, p_in: float, p_sig: float, sample_rate_hz: float) -> ChannelLog:
        """The plan for input power ``p_in`` and TWTA output power ``p_sig``: reads
        only the constructor's config, and is the one place the power modes differ."""
        if self.mode == "normalized":
            factor = np.sqrt(p_in / p_sig) if p_in > 0.0 and p_sig > 0.0 else 1.0
            noise = 0.0 if self.target_es_n0_db is None else (
                self.reference_symbol_power / 10.0 ** (self.target_es_n0_db / 10.0))
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

    def run(self, x: ComplexFrame) -> tuple[ComplexFrame, ChannelLog]:
        """The channel output for ``x`` and the plan it applied; ``x`` is unchanged."""
        p_in = x.mean_power
        imp = self.impairments
        # a stage that is the identity could only multiply by 1+0j or add +0,
        # which changes no nonzero sample; the TWTA's copy keeps x intact
        if self._linear_twta:
            y = _unchecked(ComplexFrame, x.samples.copy(), x.sample_rate_hz, x.start_sample)
            p_sig = p_in
        else:
            y = saleh_amplify(x, self.saleh)
            p_sig = y.mean_power
        plan = self.plan(p_in, p_sig, y.sample_rate_hz)

        # every later step works in place on the TWTA output
        out = y.samples
        out *= plan.gain
        if imp.phase_offset_deg != 0.0 or imp.freq_offset_hz != 0.0:
            _rotate(y, out, imp.phase_offset_deg, imp.freq_offset_hz)
        _add_noise(out, plan.noise_variance_w, self._rng)
        _iq_imbalance(out, imp)
        return y.with_samples(out), plan  # checked: the gain and offsets may overflow
