"""Receiver-side impairment compensation: DC removal, AGC, de-rotation.

Block order follows the receive chain: DC offset removal -> AGC ->
phase/frequency correction -> matched filter.  The corrections are
data-aided: they take the true impairment values (the link injects and
removes offsets with the same known numbers); blind estimation is out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as _signal

from .channel import PhaseFrequencyRotator
from .errors import ParameterError
from .frames import ComplexFrame

__all__ = [
    "AgcConfig",
    "DcOffsetCompensator",
    "dc_offset_remove",
    "AutomaticGainControl",
    "agc",
    "phase_freq_correct",
]

# 0.999 per waveform sample: settles a constant offset to 1e-4 within 1e4
# samples while notching only ~8 Hz at a 50 kHz rate.  A faster 0.99 weight
# (100-sample constant) would high-pass away ~3 % of the occupied band and
# put a 3e-2 floor under the compensated BER.
DC_FORGETTING_FACTOR = 0.999

# The AGC filters long frames in blocks of this many samples, carrying the
# filter state between blocks; the split changes no output.
AGC_BLOCK_SAMPLES = 2**16


@dataclass(frozen=True)
class AgcConfig:
    """Gain-control settings.

    ``reference_power`` defaults to 10, the mean symbol power of the M=16,
    d=2 grid; drive it with the actual waveform power when the AGC sits
    before the matched filter.  ``step_size`` is the weight of each new
    sample in the power average (0.01: a 100-sample time constant).
    """

    reference_power: float = 10.0
    step_size: float = 0.01
    max_gain_db: float = 60.0

    def __post_init__(self):
        if not self.reference_power > 0:
            raise ParameterError("reference_power must be > 0")
        if not 0.0 < self.step_size <= 1.0:
            raise ParameterError("step_size must be in (0, 1]")


class DcOffsetCompensator:
    """Subtracts a running exponentially weighted mean with weight ``w``.

    ``w`` defaults to :data:`DC_FORGETTING_FACTOR`.  The estimator starts at
    0 and carries across frames, so a constant offset decays geometrically:
    the residual on the n-th sample (counting from 1) is ``offset * w**n``.
    """

    def __init__(self, forgetting_factor: float = DC_FORGETTING_FACTOR):
        if not 0.0 < forgetting_factor < 1.0:
            raise ParameterError("forgetting factor must be in (0, 1)")
        self.w = forgetting_factor
        self._zi = np.zeros(1, dtype=np.complex128)

    @property
    def estimate(self) -> complex:
        """Current running-mean estimate (the lfilter state holds w * m)."""
        return complex(self._zi[0] / self.w)

    def process(self, x: ComplexFrame) -> ComplexFrame:
        if len(x) == 0:
            raise ParameterError("dc_offset_remove requires a non-empty frame")
        # m[n] = w*m[n-1] + (1-w)*x[n], then y[n] = x[n] - m[n]
        mean, self._zi = _signal.lfilter(
            [1.0 - self.w], [1.0, -self.w], x.samples, zi=self._zi
        )
        return x.with_samples(x.samples - mean)


def dc_offset_remove(x: ComplexFrame) -> ComplexFrame:
    """One-shot DC removal with a fresh estimator."""
    return DcOffsetCompensator().process(x)


class AutomaticGainControl:
    """Feed-forward gain control driving output power to a reference.

    The input power is tracked by a one-pole average that starts at
    ``P_ref`` and carries across frames:
    ``p[n] = (1-mu)*p[n-1] + mu*|x[n]|^2``.  Sample n is scaled by
    ``sqrt(P_ref / p[n-1])``, so its gain depends on the input up to sample
    n-1 only.  The average is clipped to ``P_ref / g_max**2 .. P_ref *
    g_max**2``, which keeps the gain within +-max_gain_db: an all-zero input
    rides the gain up to the clamp and emits zeros (no divide by zero).
    ``gain`` is the gain the next sample would get.
    """

    def __init__(self, cfg: AgcConfig | None = None):
        self.cfg = cfg or AgcConfig()
        # lfilter state of the delayed average: the estimate p[n-1] that
        # scales the next sample
        self._zi = np.array([self.cfg.reference_power])

    @property
    def gain(self) -> float:
        return float(self._gains(self._zi)[0])

    def _gains(self, p_prev: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        g_max2 = 10.0 ** (cfg.max_gain_db / 10.0)
        ref = cfg.reference_power
        return np.sqrt(ref / np.clip(p_prev, ref / g_max2, ref * g_max2))

    def process(self, x: ComplexFrame) -> ComplexFrame:
        mu = self.cfg.step_size
        # p_prev[n] = (1-mu)*p_prev[n-1] + mu*|x[n-1]|^2: the average delayed
        # by one sample, so the filter output is the estimate sample n uses
        b, a = [0.0, mu], [1.0, mu - 1.0]
        out = x.samples.copy()
        # bounded blocks keep the float temporaries small on long frames
        for start in range(0, out.size, AGC_BLOCK_SAMPLES):
            blk = out[start:start + AGC_BLOCK_SAMPLES]
            power = blk.real * blk.real + blk.imag * blk.imag
            p_prev, self._zi = _signal.lfilter(b, a, power, zi=self._zi)
            blk *= self._gains(p_prev)
        return x.with_samples(out)


def agc(x: ComplexFrame, cfg: AgcConfig | None = None) -> ComplexFrame:
    """One-shot AGC starting from unity gain."""
    return AutomaticGainControl(cfg).process(x)


def phase_freq_correct(x: ComplexFrame, phase_deg: float, freq_hz: float) -> ComplexFrame:
    """Exact inverse of the channel's phase/Doppler rotation.

    Multiplies sample n by exp(-j*(2*pi*f*n/fs + phase)); the sample index
    continues the frame's global clock, matching the impairment's counter.
    """
    rot = PhaseFrequencyRotator(phase_deg, freq_hz, sign=-1)
    rot.sample_counter = x.start_sample
    return rot.process(x)
