"""Receiver-side impairment compensation: DC removal, AGC, de-rotation.

Block order follows the receive chain: DC offset removal -> AGC ->
phase/frequency correction -> matched filter.  The corrections are
data-aided: they take the true impairment values (the link injects and
removes offsets with the same known numbers); blind estimation is out of
scope.  The loop constants are fixed: the DC forgetting factor, the AGC
step and the AGC clamp.  The one value a caller sets is the AGC's
reference power.

DC removal and AGC each offer ``process``, which returns a new frame and
leaves its input alone, and ``process_in_place``, which overwrites the
frame it is given one :data:`~vsatlink.frames.BLOCK_SAMPLES` block at a
time; ``process`` is ``process_in_place`` on a copy.  Their loops are
exact under any split, so the block size never changes a bit.
:func:`phase_freq_correct` returns a new frame; ``simulate`` instead
de-rotates inside the matched filter (``rx_match(..., derotate=...)``),
with the same phasors and the same bits.
"""

from __future__ import annotations

import numpy as np

from .channel import phase_freq_offset
from .errors import ParameterError
from .frames import ComplexFrame, _unchecked, block_slices

__all__ = [
    "DcOffsetCompensator",
    "AutomaticGainControl",
    "phase_freq_correct",
]

# 0.999 per waveform sample: settles a constant offset to 1e-4 within 1e4
# samples while notching only ~8 Hz at a 50 kHz rate.  A faster 0.99 weight
# (100-sample constant) would high-pass away ~3 % of the occupied band and
# put a 3e-2 floor under the compensated BER.
DC_FORGETTING_FACTOR = 0.999
# Weight of each new sample in the AGC power average: a 100-sample time constant.
AGC_STEP_SIZE = 0.01
# The AGC gain stays within +-60 dB, so an all-zero input meets a finite gain.
AGC_MAX_GAIN_DB = 60.0

# Longest row of the one-pole recursion.  The row is halved until
# a**(L-1) >= _MIN_ROW_DECAY, so the row scale factors a**-k stay within 1e16
# and only inputs near the float limit could overflow.
ONE_POLE_ROW_SAMPLES = 2048
_MIN_ROW_DECAY = 1e-16


class _OnePole:
    """Streaming ``y[n] = a*y[n-1] + b*x[n]`` from the state ``y[-1] = y0``.

    The input is cut into rows of ``L`` samples on a grid anchored at the
    first sample ever processed.  Each row is solved from zero state in closed
    form, ``a**k * cumsum(b * a**-k * x[k])``; a scalar loop carries the
    row-end values from row to row, and the state ``c`` entering a row adds
    ``a**(k+1) * c`` to its sample k.  The input of a partial last row is kept
    and that row is solved again on the next call, so any split of the input
    gives the same output bits.
    """

    def __init__(self, a: float, b: float, y0):
        width = ONE_POLE_ROW_SAMPLES
        while width > 1 and a ** (width - 1) < _MIN_ROW_DECAY:
            width //= 2
        self.a = a
        self._decay = a ** np.arange(width)
        self._scale = b / self._decay
        self._carry = y0  # y just before the first sample of the pending row
        self._pending = np.empty(0)  # input samples of the partial last row
        self.last = y0  # y of the last input sample

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Return y for the samples of ``x``, continuing the previous call."""
        skip = self._pending.size
        xs = np.concatenate([self._pending, x]) if skip else x
        size, width = xs.size, self._decay.size
        full, part = divmod(size, width)
        z = np.empty((full + (part > 0), width), dtype=np.result_type(xs, self._scale))
        np.multiply(xs[: full * width].reshape(full, width), self._scale, out=z[:full])
        if part:
            np.multiply(xs[full * width :], self._scale[:part], out=z[full, :part])
            z[full, part:] = 0.0
        np.cumsum(z, axis=1, out=z)
        # zero-state row ends, then the state entering each row
        ends = (z[:, -1] * self._decay[-1]).tolist()
        a, carry = self.a, self._carry
        a_row = a * self._decay[-1]
        starts = []
        for end in ends:
            starts.append(carry)
            carry = end + a_row * carry
        if part:
            self._carry, self._pending = starts[-1], xs[full * width :].copy()
        else:
            self._carry, self._pending = carry, np.empty(0)
        z += a * np.array(starts)[:, None]
        z *= self._decay
        y = z.reshape(-1)[skip:size]
        if y.size:
            self.last = y[-1].item()
        return y


def _in_place_on_copy(process_in_place, x: ComplexFrame) -> ComplexFrame:
    out = _unchecked(ComplexFrame, x.samples.copy(), x.sample_rate_hz, x.start_sample)
    process_in_place(out)
    return out


class DcOffsetCompensator:
    """Subtracts a running exponentially weighted mean with weight
    ``w`` = :data:`DC_FORGETTING_FACTOR`.  The estimator starts at 0 and
    carries across frames, so a constant offset decays geometrically: the
    residual on the n-th sample (counting from 1) is ``offset * w**n``.
    """

    def __init__(self):
        w = DC_FORGETTING_FACTOR
        # m[n] = w*m[n-1] + (1-w)*x[n]
        self._mean = _OnePole(w, 1.0 - w, 0j)

    @property
    def estimate(self) -> complex:
        """Current running-mean estimate: the mean after the last sample."""
        return complex(self._mean.last)

    def process(self, x: ComplexFrame) -> ComplexFrame:
        """``x`` with the running mean removed, in a new frame; ``x`` is unchanged."""
        return _in_place_on_copy(self.process_in_place, x)

    def process_in_place(self, x: ComplexFrame) -> None:
        """Overwrite ``x.samples`` with the :meth:`process` output."""
        if len(x) == 0:
            raise ParameterError("DC offset removal requires a non-empty frame")
        for sl in block_slices(len(x)):
            blk = x.samples[sl]
            np.subtract(blk, self._mean(blk), out=blk)


class AutomaticGainControl:
    """Feed-forward gain control driving output power to ``reference_power``.

    The input power is tracked by a one-pole average that starts at
    ``P_ref`` and carries across frames:
    ``p[n] = (1-mu)*p[n-1] + mu*|x[n]|^2`` with ``mu`` =
    :data:`AGC_STEP_SIZE`.  Sample n is scaled by ``sqrt(P_ref / p[n-1])``,
    so its gain depends on the input up to sample n-1 only.  The average is
    clipped to ``P_ref / g_max**2 .. P_ref * g_max**2``, which keeps the gain
    within +-:data:`AGC_MAX_GAIN_DB`: an all-zero input rides the gain up to
    the clamp and emits zeros (no divide by zero).  ``gain`` is the gain the
    next sample would get.
    """

    def __init__(self, reference_power: float):
        # the AGC output is not checked again: a NaN or infinite reference
        # would pass NaN/Inf samples on
        if not 0.0 < reference_power < np.inf:
            raise ParameterError(
                f"reference_power must be finite and > 0, got {reference_power!r}"
            )
        self.reference_power = reference_power
        g_max2 = 10.0 ** (AGC_MAX_GAIN_DB / 10.0)
        self._p_min, self._p_max = reference_power / g_max2, reference_power * g_max2
        mu = AGC_STEP_SIZE
        # p[n] = (1-mu)*p[n-1] + mu*|x[n]|^2; its last value scales the next sample
        self._power = _OnePole(1.0 - mu, mu, reference_power)

    @property
    def gain(self) -> float:
        return float(self._gains(np.array([self._power.last]))[0])

    def _gains(self, p_prev: np.ndarray) -> np.ndarray:
        return np.sqrt(self.reference_power / np.clip(p_prev, self._p_min, self._p_max))

    def process(self, x: ComplexFrame) -> ComplexFrame:
        """``x`` scaled to the reference power, in a new frame; ``x`` is unchanged."""
        return _in_place_on_copy(self.process_in_place, x)

    def process_in_place(self, x: ComplexFrame) -> None:
        """Overwrite ``x.samples`` with the :meth:`process` output."""
        for sl in block_slices(len(x)):
            blk = x.samples[sl]
            p_last = self._power.last
            p = self._power(blk.real * blk.real + blk.imag * blk.imag)
            # sample n is scaled by the average up to sample n-1
            blk *= self._gains(np.concatenate(([p_last], p[:-1])))


def phase_freq_correct(x: ComplexFrame, phase_deg: float, freq_hz: float) -> ComplexFrame:
    """Exact inverse of the channel's phase/Doppler rotation.

    Multiplies sample n by exp(-j*(2*pi*f*n/fs + phase)); the sample index
    is counted from ``x.start_sample``, the same clock the channel's rotation
    uses.
    """
    return phase_freq_offset(x, -phase_deg, -freq_hz)
