"""Measurement sinks: BER counting, PSD estimation, constellation capture.

BER alignment takes the delay as given: the caller passes the analytic
modem round-trip delay (``modem.pipeline_delay_bits``), and the receive
stream is compared from that many bits on.  The PSD is a Welch estimate
whose Hann-windowed segments always overlap by half; :class:`WelchSum`
takes it over a stream fed in pieces, as ``simulate`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ParameterError
from .frames import BitFrame, ComplexFrame

__all__ = [
    "BerReport",
    "SpectrumEstimate",
    "measure_ber",
    "estimate_psd",
    "WelchSum",
    "constellation_snapshot",
    "theoretical_qam_ber",
]

# Welch segments transformed per FFT call; bounds the scratch memory of a
# Welch sum to this many segments whatever the frame length.  The groups
# are counted from the first segment, so the value groups the power sum:
# changing it moves the PSD by ~1e-15 relative.
PSD_BLOCK_SEGMENTS = 16

@dataclass(frozen=True)
class BerReport:
    bit_errors: int
    bits_compared: int
    alignment_delay_bits: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_compared

    def as_dict(self) -> dict:
        return {
            "bit_errors": self.bit_errors,
            "bits_compared": self.bits_compared,
            "ber": self.ber,
            "alignment_delay_bits": self.alignment_delay_bits,
        }


@dataclass(frozen=True)
class SpectrumEstimate:
    frequencies_hz: np.ndarray
    psd_w_per_hz: np.ndarray
    resolution_bw_hz: float


def measure_ber(tx_bits: BitFrame, rx_bits: BitFrame, delay_bits: int) -> BerReport:
    """Count bit errors over the overlapping region after delay removal.

    The receive stream is taken as delayed by ``delay_bits`` bits.
    """
    a, b = tx_bits.bits, rx_bits.bits
    lag = int(delay_bits)
    if lag < 0:
        raise ParameterError("delay_bits must be >= 0")
    if lag >= b.size or a.size == 0:
        raise InsufficientDataError(
            f"no overlap: delay {lag} bits, stream lengths {a.size}/{b.size}"
        )
    n = min(a.size, b.size - lag)
    errors = int(np.count_nonzero(a[:n] != b[lag : lag + n]))
    return BerReport(bit_errors=errors, bits_compared=n, alignment_delay_bits=lag)


def estimate_psd(x: ComplexFrame, segment_len: int) -> SpectrumEstimate:
    """Welch-averaged, Hann-windowed two-sided PSD over [-fs/2, fs/2).

    Density normalization: the PSD integrated over frequency equals the
    mean signal power.  Segments overlap by half: they start every
    ``segment_len - segment_len // 2`` samples (a tail shorter than a
    segment is dropped, as in ``scipy.signal.welch``) and are transformed
    ``PSD_BLOCK_SEGMENTS`` at a time, one FFT call per group.  This is
    :class:`WelchSum` fed the whole frame at once.
    """
    welch = WelchSum(len(x), segment_len, x.sample_rate_hz)
    welch.add(x.samples)
    return welch.estimate()


class WelchSum:
    """:func:`estimate_psd` of a stream of ``n`` samples fed in order, in any
    pieces, equal to it bit for bit.

    The segments and their groups of :data:`PSD_BLOCK_SEGMENTS` are counted
    from the stream's first sample, whatever the pieces.  A group that
    spans two pieces is gathered in a group-sized array; the samples from
    the next group's first segment on (at most one group's span) are kept
    for the next piece, so a piece is never copied whole.
    """

    def __init__(self, n: int, segment_len: int, sample_rate_hz: float):
        if segment_len < 2:
            raise ParameterError(f"segment_len must be >= 2, got {segment_len}")
        if segment_len > n:
            raise ParameterError(f"segment_len {segment_len} exceeds frame length {n}")
        self._segment_len = segment_len
        self._step = segment_len - segment_len // 2
        self._count = (n - segment_len) // self._step + 1  # segments in the stream
        self._next = 0  # the first segment not yet summed
        self._carry = np.empty(0, dtype=np.complex128)  # samples from that segment on
        # periodic Hann window, as scipy.signal.get_window("hann", segment_len)
        self._window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_len + 1)[:-1])
        self._power = np.zeros(segment_len)
        self._fs = float(sample_rate_hz)

    def add(self, x: np.ndarray) -> None:
        """Take the next ``x.size`` samples of the stream."""
        step, m = self._step, self._segment_len
        carry = self._carry
        # the groups that start in the carried samples, gathered with the head of x
        while carry.size and self._next < self._count:
            need = (self._group() - 1) * step + m
            if carry.size + x.size < need:
                break
            samples = np.concatenate((carry[:need], x[: max(need - carry.size, 0)]))
            self._sum(sliding_window_view(samples, m)[::step])
            advance = self._group() * step
            self._next += self._group()
            if advance < carry.size:
                carry = carry[advance:]
            else:
                x, carry = x[advance - carry.size :], carry[:0]
        if not carry.size and x.size >= m:
            # the groups that x holds whole, from one view of its segments
            segments = sliding_window_view(x, m)[::step]
            first = 0
            while self._next < self._count and first + self._group() <= len(segments):
                group = self._group()
                self._sum(segments[first : first + group])
                first += group
                self._next += group
            x = x[first * step :]
        self._carry = np.concatenate((carry, x)) if self._next < self._count else carry[:0]

    def _group(self) -> int:
        """The number of segments in the group from segment ``self._next`` on."""
        return min(PSD_BLOCK_SEGMENTS, self._count - self._next)

    def _sum(self, segments: np.ndarray) -> None:
        """Add the power spectra of one group of ``segments`` (rows)."""
        windowed = segments * self._window
        spectra = np.fft.fft(windowed, axis=-1)
        del windowed
        self._power += np.sum(spectra.real**2 + spectra.imag**2, axis=0)

    def estimate(self) -> SpectrumEstimate:
        """The PSD of the whole stream, once every segment is in."""
        if self._next < self._count:
            raise ParameterError(f"Welch sum has {self._next} of {self._count} segments")
        fs, m = self._fs, self._segment_len
        psd = self._power / (self._count * fs * np.sum(self._window**2))
        return SpectrumEstimate(
            frequencies_hz=np.fft.fftshift(np.fft.fftfreq(m, 1.0 / fs)),
            psd_w_per_hz=np.fft.fftshift(psd),
            resolution_bw_hz=fs / m,
        )


def constellation_snapshot(x: ComplexFrame, max_points: int) -> np.ndarray:
    """First ``max_points`` symbols as an (n, 2) array of (re, im) rows."""
    if max_points <= 0:
        raise ParameterError("max_points must be > 0")
    pts = x.samples[:max_points]
    return np.column_stack([pts.real, pts.imag])


def theoretical_qam_ber(es_n0_db: float, m_ary: int) -> float:
    """Nearest-neighbour Gray bit-error probability for square M-QAM on AWGN.

    Pb = (1 - 1/sqrt(M)) / log2(sqrt(M)) * erfc(sqrt(3/(2(M-1)) * Es/N0));
    for M=16 this reduces to (3/8) * erfc(sqrt(Es/N0 / 10)).
    """
    if m_ary < 4 or (4 ** int(round(math.log(m_ary, 4)))) != m_ary:
        raise ParameterError(f"m_ary must be square (a power of 4), got {m_ary}")
    q = int(round(math.sqrt(m_ary)))
    es_n0 = 10.0 ** (es_n0_db / 10.0)
    arg = math.sqrt(3.0 * es_n0 / (2.0 * (m_ary - 1)))
    return (1.0 - 1.0 / q) / math.log2(q) * math.erfc(arg)
