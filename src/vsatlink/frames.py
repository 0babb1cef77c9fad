"""Sample-block containers shared by every processing stage.

All signals travel as :class:`ComplexFrame` (complex baseband samples plus
their sample rate) and bit streams as :class:`BitFrame`.  Amplitudes are
dimensionless; in physical mode they are read as volts across a 1-ohm
reference, so ``|x|**2`` is watts.

Frames are checked where outside data enters: the public constructors and
:meth:`ComplexFrame.with_samples` refuse a NaN/Inf sample or rate, a non-positive
rate and bits other than 0/1.  A stage whose output is 1-D ``complex128``
samples at a ``float`` rate (or ``int8`` 0/1 bits) by construction builds
it with :func:`_unchecked` instead, so a waveform is not scanned again at
every stage.  The two stages that can turn finite input into NaN/Inf keep
the check, in place or not: the TWTA (``saleh_amplify``,
``SatelliteChannel.amplify``; ``|x|**2`` overflows near 1e154) and the
output of the whole transponder chain (``SatelliteChannel.add_signal``,
which ``run`` ends with).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .errors import ParameterError

__all__ = ["BLOCK_SAMPLES", "BitFrame", "ComplexFrame", "block_slices"]

# The sample-wise stages walk long frames in blocks of this many samples and
# write into one full-length output, which bounds their float temporaries to
# a few blocks.  Every stage computes each sample from that sample alone (or
# from a state that is split-exact), so the block size never changes the bits.
BLOCK_SAMPLES = 2**16

# Leaf length of ComplexFrame.mean_power's sum.  It must be at least 128,
# numpy's own pairwise leaf, so that every split taken here is one numpy
# takes too; it is fixed, not BLOCK_SAMPLES, which may be set below that.
MEAN_POWER_LEAF_SAMPLES = 2**14


def block_slices(n: int) -> Iterator[slice]:
    """Consecutive slices of at most :data:`BLOCK_SAMPLES` covering ``range(n)``."""
    for start in range(0, n, BLOCK_SAMPLES):
        yield slice(start, min(start + BLOCK_SAMPLES, n))


def _check_finite(samples: np.ndarray) -> None:
    if samples.size and not np.isfinite(samples).all():
        raise ParameterError("ComplexFrame samples must be finite (no NaN/Inf)")


def _pairwise_power(x: np.ndarray) -> float:
    """numpy's pairwise sum of ``np.abs(x) ** 2``, one leaf at a time."""
    n = x.size
    if n <= MEAN_POWER_LEAF_SAMPLES:
        power = np.abs(x)
        np.multiply(power, power, out=power)
        return float(np.add.reduce(power))
    half = n // 2
    half -= half % 8
    return _pairwise_power(x[:half]) + _pairwise_power(x[half:])


def _unchecked(cls, *values):
    """A ``cls`` frame holding ``values`` (its fields in order), built
    without ``__post_init__``: no check, no copy, no coercion.  A field left
    out keeps its default."""
    frame = object.__new__(cls)
    frame.__dict__.update(zip([f.name for f in fields(cls)], values))
    return frame


@dataclass
class BitFrame:
    """An ordered block of hard bits (values 0/1)."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ParameterError("BitFrame requires a non-empty 1-D bit sequence")
        if not np.isin(bits, (0, 1)).all():
            raise ParameterError("BitFrame elements must be exactly 0 or 1")
        self.bits = bits.astype(np.int8)

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass
class ComplexFrame:
    """A block of complex baseband samples at a known sample rate."""

    samples: np.ndarray
    sample_rate_hz: float
    start_sample: int = field(default=0)
    """Index of the first sample on the global sample clock.  It is the only
    clock of the link's phase/frequency rotation: the channel and the
    receiver's correction both count sample n from here, so a stream split
    into frames with consecutive ``start_sample`` is rotated as one frame."""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ParameterError("ComplexFrame samples must be 1-D")
        if not 0.0 < float(self.sample_rate_hz) < np.inf:
            raise ParameterError(f"sample_rate_hz must be in (0, inf), got {self.sample_rate_hz}")
        _check_finite(samples)
        self.samples = samples
        self.sample_rate_hz = float(self.sample_rate_hz)

    def with_samples(self, samples: np.ndarray) -> "ComplexFrame":
        """New frame with the same clock but different samples."""
        return ComplexFrame(samples, self.sample_rate_hz, self.start_sample)

    @property
    def mean_power(self) -> float:
        """Mean ``|x|**2`` over the frame (watts into 1 ohm).

        Equal bit for bit to ``np.mean(np.abs(x) ** 2)``, without its
        frame-sized temporary: numpy sums a float64 array pairwise, halving
        n as ``n2 = n//2 - (n//2) % 8`` down to leaves of at most 128.  This
        takes the same splits down to :data:`MEAN_POWER_LEAF_SAMPLES` and
        lets numpy sum each leaf, so every partial sum is numpy's own.
        """
        if self.samples.size == 0:
            return 0.0
        return _pairwise_power(self.samples) / self.samples.size

    def __len__(self) -> int:
        return int(self.samples.size)
