"""Bit source, Gray-coded rectangular M-QAM, and root-raised-cosine shaping.

The mapping convention is fixed so golden tests stay stable: of the
``log2(M)`` bits of a symbol (first bit first on the wire), the high half
Gray-selects the I level and the low half Gray-selects the Q level, with
Gray order ``00 -> lowest level`` .. ``10 -> highest level`` per axis
(binary-reflected code).  For M=16, d=2 the levels are {-3,-1,+1,+3} and
e.g. ``0000 -> -3-3j``, ``1010 -> +3+3j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import _Rotation
from .errors import CheckedConfig, FramingError, InsufficientDataError, ParameterError, ranged
from .frames import BitFrame, ComplexFrame, _unchecked

__all__ = [
    "ModemConfig",
    "generate_bits",
    "qam_modulate",
    "qam_demodulate",
    "constellation_points",
    "rrc_taps",
    "tx_shape",
    "rx_match",
    "TxShaper",
    "RxMatcher",
]

# Both RRC filters run overlap-save convolutions (_OverlapSave) over segments
# of this many symbol-rate rows, so their temporaries stay a few segments
# wide whatever the frame length.  It must exceed the largest
# filter_span_symbols, which every segment keeps as overlap.
FFT_BLOCK_SYMBOLS = 2048

# numpy keeps the plan of each transform length for the life of the process.
# The filters' one plan is made here, before any run allocates: without this
# line the peak RSS of repeated 1e6-bit kptcl-cband runs in one process read
# 0.3-0.5 MB higher in 2 of 3 checkout directories.
np.fft.fft(np.zeros(FFT_BLOCK_SYMBOLS, dtype=np.complex128))


@dataclass(frozen=True)
class ModemConfig(CheckedConfig):
    """Modulator/filter parameters (defaults are the shipped scenario's)."""

    # the upper bounds keep the label table and the RRC taps small
    m_ary: int = ranged(4, 4096, default=16)
    # a micro- to a megavolt keeps |s|^2 well inside float64
    min_distance: float = ranged(1e-6, 1e6, default=2.0)
    gray_coding: bool = True
    rolloff: float = 0.2
    samples_per_symbol: int = ranged(2, 64, default=8)
    # 30 symbols keeps the Tx+Rx cascade ISI comfortably below 1e-3 at
    # roll-off 0.2 (3.1e-4 worst lag); shorter truncations leak more at the
    # edge lags (span 10 reaches 4e-3).
    filter_span_symbols: int = ranged(2, 256, default=30)
    # 1 bit/s to 1 Tbit/s
    bit_sample_time_s: float = ranged(1e-12, 1.0, default=4.0 / 100000.0)

    def __post_init__(self):
        super().__post_init__()
        if self.m_ary not in (4, 16, 64, 256, 1024, 4096):
            raise ParameterError(f"m_ary must be a power of 4, got {self.m_ary}")
        # rolloff 0 is a pure sinc, which never decays enough to truncate
        if not 0.0 < self.rolloff <= 1.0:
            raise ParameterError(f"rolloff must be in (0, 1], got {self.rolloff}")
        if self.filter_span_symbols % 2:
            raise ParameterError("filter_span_symbols must be even")

    @property
    def bits_per_symbol(self) -> int:
        return int(round(np.log2(self.m_ary)))

    @property
    def levels_per_axis(self) -> int:
        return int(round(np.sqrt(self.m_ary)))

    @property
    def symbol_rate_hz(self) -> float:
        return 1.0 / (self.bits_per_symbol * self.bit_sample_time_s)

    @property
    def sample_rate_hz(self) -> float:
        """Waveform rate after pulse shaping."""
        return self.symbol_rate_hz * self.samples_per_symbol

    @property
    def axis_levels(self) -> np.ndarray:
        k = np.arange(self.levels_per_axis)
        return (2 * k - (self.levels_per_axis - 1)) * (self.min_distance / 2.0)

    @property
    def mean_symbol_power(self) -> float:
        """Mean |s|^2 over the constellation (10.0 for M=16, d=2)."""
        pts = constellation_points(self)
        return float(np.mean(np.abs(pts) ** 2))


def _axis_codes(cfg: ModemConfig) -> np.ndarray:
    """Code carried by each ascending level of one axis."""
    k = np.arange(cfg.levels_per_axis)
    return k ^ (k >> 1) if cfg.gray_coding else k


def constellation_points(cfg: ModemConfig) -> np.ndarray:
    """All M lattice points indexed by bit label: the one statement of the mapping.

    The label's high half is the I axis code and its low half the Q code;
    ascending level ``k`` of an axis carries code ``k ^ (k >> 1)`` under
    ``gray_coding``, else ``k``.  ``qam_modulate`` looks labels up here.
    """
    half = cfg.bits_per_symbol // 2
    axis = np.empty(cfg.levels_per_axis)
    axis[_axis_codes(cfg)] = cfg.axis_levels  # the level each code selects
    labels = np.arange(cfg.m_ary)
    return axis[labels >> half] + 1j * axis[labels & (cfg.levels_per_axis - 1)]


def generate_bits(n: int, seed: int | np.random.Generator) -> BitFrame:
    """Draw ``n`` i.i.d. equiprobable bits from a new generator seeded with
    ``seed``, or from the generator ``seed``, whose stream the next call carries on."""
    if n <= 0:
        raise ParameterError(f"bit count must be > 0, got {n}")
    rng = np.random.default_rng(seed)
    return _unchecked(BitFrame, (rng.random(n) < 0.5).astype(np.int8))


def _qam_tables(cfg: ModemConfig) -> tuple[np.ndarray, ...]:
    """The tables :func:`qam_modulate` and :func:`qam_demodulate` look up:
    the label weights (first bit the MSB), the lattice points by label, the
    decision boundaries of one axis, the axis codes and the bits of each
    label.  Built once per mapping, as ``simulate`` maps and decides a run
    block by block."""
    key = (cfg.m_ary, cfg.min_distance, cfg.gray_coding)
    tables = _QAM_TABLES.get(key)
    if tables is None:
        k = cfg.bits_per_symbol
        weights = 1 << np.arange(k - 1, -1, -1)
        lv = cfg.axis_levels
        label_bits = (np.arange(cfg.m_ary)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        tables = _QAM_TABLES[key] = (weights, constellation_points(cfg), (lv[:-1] + lv[1:]) / 2.0,
                                     _axis_codes(cfg), label_bits.astype(np.int8))
    return tables


# _qam_tables by (m_ary, min_distance, gray_coding)
_QAM_TABLES: dict[tuple, tuple[np.ndarray, ...]] = {}


def qam_modulate(bits: BitFrame, cfg: ModemConfig) -> ComplexFrame:
    """Map a bit frame to one lattice point per ``log2(M)`` bits.

    Returns a symbol-rate frame (one sample per symbol).
    """
    b = bits.bits
    k = cfg.bits_per_symbol
    if b.size % k:
        raise FramingError(
            f"bit count {b.size} is not divisible by bits/symbol {k}"
        )
    weights, points = _qam_tables(cfg)[:2]
    labels = b.reshape(-1, k) @ weights
    return _unchecked(ComplexFrame, points[labels], cfg.symbol_rate_hz)


def qam_demodulate(symbols: ComplexFrame, cfg: ModemConfig) -> BitFrame:
    """Hard decision: nearest level independently per axis, then unlabel.

    Boundaries sit halfway between adjacent levels; a value exactly on a
    boundary goes to the lower level, anything outside clamps to the edge.
    The two axis codes form the label ``codes[li] << half | codes[lq]``,
    the inverse of :func:`constellation_points`.
    """
    s = symbols.samples
    boundaries, codes, label_bits = _qam_tables(cfg)[2:]
    li = np.searchsorted(boundaries, s.real, side="left")
    lq = np.searchsorted(boundaries, s.imag, side="left")
    labels = codes[li] << cfg.bits_per_symbol // 2 | codes[lq]
    return _unchecked(BitFrame, label_bits.take(labels, axis=0).reshape(-1))


def rrc_taps(cfg: ModemConfig) -> np.ndarray:
    """Square-root raised-cosine FIR taps of ``cfg``, normalized to unit energy.

    ``filter_span_symbols * samples_per_symbol + 1`` taps, even-symmetric
    about the center tap.  The removable singularities at t=0 and
    t=+-T/(4*rolloff) are evaluated by their analytic limits.  The rules on
    the rolloff, the oversampling and the even span are :class:`ModemConfig`'s.
    """
    beta = float(cfg.rolloff)
    sps = cfg.samples_per_symbol
    n = cfg.filter_span_symbols * sps
    t = (np.arange(n + 1) - n / 2) / sps  # in symbol periods
    h = np.empty(t.shape)

    at_zero = np.abs(t) < 1e-12
    at_sing = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) < 1e-9
    regular = ~(at_zero | at_sing)

    h[at_zero] = 1.0 - beta + 4.0 * beta / np.pi
    h[at_sing] = (beta / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
    )
    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - beta)) + 4.0 * beta * tr * np.cos(
        np.pi * tr * (1.0 + beta)
    )
    den = np.pi * tr * (1.0 - (4.0 * beta * tr) ** 2)
    h[regular] = num / den

    return h / np.sqrt(np.sum(h**2))


class _OverlapSave:
    """Polyphase FIR at symbol rate by block FFT convolution (overlap-save),
    fed its input in order, in any pieces, its output yielded in stream order.

    Row ``j`` of the input is ``x[j*width - shift : (j+1)*width - shift]``
    (reads outside the ``n_in`` input samples are 0).  Output row ``j`` is
    ``out[j, o] = sum_m sum_i row[j - m][i] * taps[m, o, i]``, for ``j <
    n_out``.  Each segment of ``FFT_BLOCK_SYMBOLS`` rows starts ``span`` rows
    before its first output; it takes one forward transform down its
    columns, sums the products with the tap spectra (bin, ``o``, ``i``) over
    ``i``, takes one inverse transform down the bins and keeps its last
    ``FFT_BLOCK_SYMBOLS - span`` rows, each row's samples in sequence.  The segments are counted from input
    row 0, so the pieces never change the output: a segment is transformed
    once its input is in (or the input has ended), and its last ``span``
    rows are carried into the next one.  With ``rotation`` (a
    :class:`~vsatlink.channel._Rotation` of the input) each sample is
    rotated as it enters a segment.
    """

    def __init__(self, taps: np.ndarray, width: int, shift: int, n_in: int, n_out: int,
                 rotation: Optional[_Rotation] = None):
        k = FFT_BLOCK_SYMBOLS
        self._span = taps.shape[0] - 1
        self._hf = np.fft.fft(taps, k, axis=0)
        self._prod = np.empty(self._hf.shape, dtype=np.complex128)
        self._seg = np.zeros(k * width, dtype=np.complex128)
        self._fill = self._span * width + shift  # the zeros before input sample 0
        self._width, self._n_in, self._n_out = width, n_in, n_out
        self._taken = 0  # input samples in
        self._first = 0  # the first output row of the segment being filled
        self._rotation = rotation

    def feed(self, x: np.ndarray):
        """Take the next ``x.size`` input samples; yield ``(j, rows)`` for each
        segment they complete, ``rows`` being output rows ``j, j + 1, ...``:
        a view of an array made for that segment, which the filter does not
        touch again.  The piece that ends the input yields every remaining
        row."""
        k, span, seg = FFT_BLOCK_SYMBOLS, self._span, self._seg
        while self._first < self._n_out:
            take = min(x.size, seg.size - self._fill)
            if take:
                dst = seg[self._fill : self._fill + take]
                if self._rotation is None:
                    dst[...] = x[:take]
                else:
                    self._rotation.apply(self._taken, x[:take], dst)
                x = x[take:]
            self._fill += take
            self._taken += take
            if self._fill < seg.size:
                if self._taken < self._n_in:
                    return
                seg[self._fill :] = 0.0
            np.multiply(np.fft.fft(seg.reshape(k, self._width), axis=0)[:, None, :], self._hf,
                        out=self._prod)
            # summing one input branch would only copy the products, at ~10% of tx_shape
            prod = self._prod
            y = np.fft.ifft(prod.sum(axis=2) if self._width > 1 else prod[..., 0], axis=0)
            first = self._first
            yield first, y[span : span + self._n_out - first]
            keep = span * self._width
            seg[:keep] = seg[seg.size - keep :]
            self._fill = keep
            self._first += k - span


def _tx_taps(cfg: ModemConfig) -> np.ndarray:
    """The RRC taps as (tap, output phase, input): output row j holds samples
    ``j*sps + p``, phase p shaped by the taps ``h[p::sps]``."""
    sps = cfg.samples_per_symbol
    return np.pad(rrc_taps(cfg), (0, sps - 1)).reshape(-1, sps)[:, :, None]


def _rx_taps(cfg: ModemConfig) -> np.ndarray:
    """The RRC taps as (tap, output, input column): row k holds ``x[k*sps -
    sps + 1 .. k*sps]``, and its column c meets ``h[sps - 1 - c :: sps]``."""
    sps = cfg.samples_per_symbol
    return np.pad(rrc_taps(cfg), (0, sps - 1)).reshape(-1, sps)[:, None, ::-1]


class TxShaper:
    """:func:`tx_shape` of ``n_symbols`` symbols fed in order, in any pieces:
    :meth:`feed` yields the waveform one overlap-save segment at a time, and
    the pieces join to the :func:`tx_shape` output bit for bit."""

    def __init__(self, n_symbols: int, cfg: ModemConfig):
        self._rows = n_symbols + cfg.filter_span_symbols
        self._filter = _OverlapSave(_tx_taps(cfg), 1, 0, n_symbols, self._rows)

    def feed(self, symbols: np.ndarray):
        """Take the next symbols; yield each piece of the waveform they
        complete (a view the shaper does not touch again)."""
        for first, rows in self._filter.feed(symbols):
            if first + len(rows) == self._rows:
                rows[-1, 1:] = 0.0  # the sps - 1 positions no tap reaches
            yield rows.reshape(-1)


class RxMatcher:
    """:func:`rx_match` of a ``n_samples``-sample waveform fed in order, in
    any pieces: :meth:`feed` yields the symbols one overlap-save segment at a
    time, and the pieces join to the :func:`rx_match` output bit for bit.
    ``start_sample`` is the waveform's first sample on the global clock,
    which ``derotate`` counts from; :attr:`n_out` is the number of symbols."""

    def __init__(self, n_samples: int, cfg: ModemConfig, *,
                 derotate: Optional[tuple[float, float]] = None, start_sample: int = 0):
        sps = cfg.samples_per_symbol
        group_delay_samples = cfg.filter_span_symbols * sps
        if n_samples <= group_delay_samples:
            raise InsufficientDataError(
                f"need more than {group_delay_samples} samples "
                f"(total group delay), got {n_samples}"
            )
        rotation = None
        if derotate is not None:
            phase_deg, freq_hz = derotate
            rotation = _Rotation(start_sample, n_samples, cfg.sample_rate_hz, -phase_deg,
                                 -freq_hz)
        self.n_out = n_out = (n_samples + group_delay_samples - 1) // sps + 1
        self._filter = _OverlapSave(_rx_taps(cfg), sps, sps - 1, n_samples, n_out, rotation)

    def feed(self, samples: np.ndarray):
        """Take the next samples; yield each piece of symbols they complete,
        which the matcher does not touch again."""
        for _, rows in self._filter.feed(samples):
            yield rows.reshape(-1)


def _joined(pieces, n: int) -> np.ndarray:
    """The ``n`` samples of ``pieces`` in one array."""
    out = np.empty(n, dtype=np.complex128)
    filled = 0
    for piece in pieces:
        out[filled : filled + len(piece)] = piece
        filled += len(piece)
    return out


def tx_shape(symbols: ComplexFrame, cfg: ModemConfig) -> ComplexFrame:
    """Zero-stuff by ``samples_per_symbol`` and shape with the RRC filter.

    Unit-energy taps are used on both the transmit and receive side, which
    makes the cascade gain at symbol instants exactly one, so recovered
    symbols land directly on the constellation grid.  The filter tail
    (span * sps samples) is retained; alignment is owned by the analysis
    stage.  This is :class:`TxShaper` fed every symbol at once.
    """
    if not np.isclose(symbols.sample_rate_hz, cfg.symbol_rate_hz, rtol=1e-9):
        raise ParameterError(
            f"tx_shape expects symbol-rate input ({cfg.symbol_rate_hz} Hz), "
            f"got {symbols.sample_rate_hz} Hz"
        )
    n = len(symbols)
    shaped = _joined(TxShaper(n, cfg).feed(symbols.samples), tx_samples(n, cfg))
    return _unchecked(ComplexFrame, shaped, cfg.sample_rate_hz)


def rx_match(waveform: ComplexFrame, cfg: ModemConfig, *,
             derotate: Optional[tuple[float, float]] = None) -> ComplexFrame:
    """Matched-filter and decimate back to symbol rate.

    Decimation phase is chosen at the cascade peak; the total Tx+Rx group
    delay is ``filter_span_symbols`` symbols, so the first valid output
    symbol sits at index ``filter_span_symbols`` (head retained, trimmed
    centrally by the analysis stage).  Only the kept outputs
    ``(x * h)[k * sps]`` are computed.  This is :class:`RxMatcher` fed the
    whole waveform at once.

    ``derotate=(phase_deg, freq_hz)`` filters
    ``phase_freq_correct(waveform, phase_deg, freq_hz)`` bit for bit, without
    that waveform-sized array: each filter segment is filled with the
    de-rotated samples it reads.
    """
    if not np.isclose(waveform.sample_rate_hz, cfg.sample_rate_hz, rtol=1e-9):
        raise ParameterError(
            f"rx_match expects {cfg.sample_rate_hz} Hz input, "
            f"got {waveform.sample_rate_hz} Hz"
        )
    matcher = RxMatcher(len(waveform), cfg, derotate=derotate,
                        start_sample=waveform.start_sample)
    return _unchecked(ComplexFrame, _joined(matcher.feed(waveform.samples), matcher.n_out),
                      cfg.symbol_rate_hz)


def tx_samples(n_symbols: int, cfg: ModemConfig) -> int:
    """Length of the :func:`tx_shape` output for ``n_symbols`` symbols: their
    ``samples_per_symbol`` samples each plus the filter tail."""
    return (n_symbols + cfg.filter_span_symbols) * cfg.samples_per_symbol


def pipeline_delay_symbols(cfg: ModemConfig) -> int:
    """Tx+Rx matched-filter group delay in symbols."""
    return cfg.filter_span_symbols


def pipeline_delay_bits(cfg: ModemConfig) -> int:
    """Analytic modem round-trip delay in bits (used for BER alignment)."""
    return pipeline_delay_symbols(cfg) * cfg.bits_per_symbol
