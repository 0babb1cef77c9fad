"""Measurement sinks: BER counting, PSD estimation, constellation capture.

BER alignment takes the delay as given: the caller passes the analytic
modem round-trip delay (``modem.pipeline_delay_bits``), and the receive
stream is compared from that many bits on.  The PSD is a Welch estimate
whose Hann-windowed segments always overlap by half.
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
    "constellation_snapshot",
    "theoretical_qam_ber",
]

# Welch segments transformed per FFT call; bounds the scratch memory of
# estimate_psd to this many segments whatever the frame length.  simulate
# runs the PSDs on a worker thread beside the chain, so this scratch adds to
# the chain's own peak: at 16 a 2e5-bit kptcl-cband run peaks at 2.79
# waveforms, at 64 at 3.15, over the 3 that test_pipeline.TestMemory allows.
# The value groups the power sum, so changing it moves the PSD by ~1e-15
# relative.
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
    ``PSD_BLOCK_SEGMENTS`` at a time, one FFT call per block.
    """
    if segment_len < 2:
        raise ParameterError(f"segment_len must be >= 2, got {segment_len}")
    if segment_len > len(x):
        raise ParameterError(
            f"segment_len {segment_len} exceeds frame length {len(x)}"
        )
    fs = x.sample_rate_hz
    step = segment_len - segment_len // 2
    segments = sliding_window_view(x.samples, segment_len)[::step]
    # periodic Hann window, as scipy.signal.get_window("hann", segment_len)
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_len + 1)[:-1])
    power = np.zeros(segment_len)
    for start in range(0, len(segments), PSD_BLOCK_SEGMENTS):
        spectra = np.fft.fft(segments[start : start + PSD_BLOCK_SEGMENTS] * window, axis=-1)
        power += np.sum(spectra.real**2 + spectra.imag**2, axis=0)
    psd = power / (len(segments) * fs * np.sum(window**2))
    return SpectrumEstimate(
        frequencies_hz=np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / fs)),
        psd_w_per_hz=np.fft.fftshift(psd),
        resolution_bw_hz=fs / segment_len,
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
