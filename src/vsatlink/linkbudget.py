"""Link-budget math: antenna gain, free-space path loss, kTB noise, C/N.

Everything here is a pure function of its inputs.  The speed of light is
fixed at 3e8 m/s to match the source figures (affects the 4th significant
digit of the path loss).  The transmit and receive pointing losses are
reported as budget lines of their own rather than folded into the aperture
gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .channel import BOLTZMANN_J_PER_K, DB_RANGE, LOSS_DB_RANGE, MAX_NOISE_TEMPERATURE_K
from .errors import CheckedConfig, ParameterError, ranged

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "BOLTZMANN_J_PER_K",
    "AntennaSpec",
    "LinkGeometry",
    "BudgetLeg",
    "LinkBudgetReport",
    "antenna_gain_db",
    "free_space_path_loss_db",
    "noise_power_dbw",
    "compute_budget",
    "combined_cn_db",
    "format_report",
]

SPEED_OF_LIGHT_M_S = 3.0e8

# Range limits for the budget numbers: wide enough for any real link, narrow
# enough that every dB line and the combined C/N of two legs stay finite.
DIAMETER_RANGE_M = (1e-3, 1e3)
EFFICIENCY_RANGE = (1e-6, 1.0)
DISTANCE_RANGE_M = (1e-3, 1e13)
FREQUENCY_RANGE_HZ = (1.0, 1e15)
TX_POWER_RANGE_W = (1e-12, 1e9)
BANDWIDTH_RANGE_HZ = (1.0, 1e12)
NOISE_TEMPERATURE_RANGE_K = (1e-3, MAX_NOISE_TEMPERATURE_K)


@dataclass(frozen=True)
class AntennaSpec(CheckedConfig):
    diameter_m: float = ranged(*DIAMETER_RANGE_M)
    efficiency: float = ranged(*EFFICIENCY_RANGE)
    pointing_loss_db: float = ranged(*LOSS_DB_RANGE, default=0.0)


@dataclass(frozen=True)
class LinkGeometry(CheckedConfig):
    range_m: float = ranged(*DISTANCE_RANGE_M)
    frequency_hz: float = ranged(*FREQUENCY_RANGE_HZ)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz


@dataclass(frozen=True)
class BudgetLeg(CheckedConfig):
    """One direction of the link.

    Each antenna side takes exactly one of an explicit gain in dB or an
    :class:`AntennaSpec` (gain computed from aperture and frequency).
    """

    name: str
    tx_power_w: float = ranged(*TX_POWER_RANGE_W)
    geometry: LinkGeometry
    bandwidth_hz: float = ranged(*BANDWIDTH_RANGE_HZ)
    system_noise_temperature_k: float = ranged(*NOISE_TEMPERATURE_RANGE_K)
    tx_antenna_gain_db: Optional[float] = ranged(*DB_RANGE, default=None)
    tx_antenna: Optional[AntennaSpec] = None
    rx_antenna_gain_db: Optional[float] = ranged(*DB_RANGE, default=None)
    rx_antenna: Optional[AntennaSpec] = None
    loss_override_db: Optional[float] = ranged(*LOSS_DB_RANGE, default=None)

    def __post_init__(self):
        super().__post_init__()
        if (self.tx_antenna_gain_db is None) == (self.tx_antenna is None):
            raise ParameterError(
                "provide exactly one of tx_antenna_gain_db or tx_antenna"
            )
        if (self.rx_antenna_gain_db is None) == (self.rx_antenna is None):
            raise ParameterError(
                "provide exactly one of rx_antenna_gain_db or rx_antenna"
            )


@dataclass(frozen=True)
class LinkBudgetReport:
    """Decibel power balance for one leg (plus its input lines)."""

    name: str
    tx_power_dbw: float
    tx_antenna_gain_db: float
    pointing_loss_db: float
    eirp_dbw: float
    path_loss_computed_db: float
    path_loss_override_db: Optional[float]
    path_loss_db: float  # the value actually used
    rx_gain_db: float
    rx_pointing_loss_db: float
    rx_power_dbw: float
    noise_power_dbw: float
    cn_db: float


def antenna_gain_db(spec: AntennaSpec, frequency_hz: float) -> float:
    """Parabolic aperture gain 10*log10(eta*(pi*D/lambda)^2), pointing loss
    excluded (it is a separate budget line)."""
    if not frequency_hz > 0:
        raise ParameterError("frequency must be > 0 Hz")
    lam = SPEED_OF_LIGHT_M_S / frequency_hz
    g = spec.efficiency * (math.pi * spec.diameter_m / lam) ** 2
    return 10.0 * math.log10(g)


def free_space_path_loss_db(geom: LinkGeometry) -> float:
    """20*log10(4*pi*R/lambda)."""
    return 20.0 * math.log10(4.0 * math.pi * geom.range_m / geom.wavelength_m)


def noise_power_dbw(temperature_k: float, bandwidth_hz: float) -> float:
    """kTB in dBW."""
    if not temperature_k > 0 or not bandwidth_hz > 0:
        raise ParameterError("temperature and bandwidth must be > 0")
    return 10.0 * math.log10(BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz)


def _side_gain(gain_db: Optional[float], antenna: Optional[AntennaSpec],
               frequency_hz: float) -> tuple[float, float]:
    """The gain and pointing loss of one antenna side: from ``antenna`` when
    it is given, else the explicit ``gain_db`` with no pointing loss."""
    if antenna is None:
        return float(gain_db), 0.0
    return antenna_gain_db(antenna, frequency_hz), antenna.pointing_loss_db


def compute_budget(leg: BudgetLeg) -> LinkBudgetReport:
    """Evaluate the power balance for one leg.

    EIRP = Pt(dBW) + Gt - Tx pointing loss; Pr = EIRP - Lp + Gr - Rx pointing
    loss; C/N = Pr - N.  A side given as an explicit gain has no pointing loss.
    The computed free-space loss is always reported; an override replaces it
    in the balance when set.
    """
    f = leg.geometry.frequency_hz
    gt, pointing = _side_gain(leg.tx_antenna_gain_db, leg.tx_antenna, f)
    pt_dbw = 10.0 * math.log10(leg.tx_power_w)
    eirp = pt_dbw + gt - pointing

    loss_computed = free_space_path_loss_db(leg.geometry)
    loss_used = leg.loss_override_db if leg.loss_override_db is not None else loss_computed

    gr, rx_pointing = _side_gain(leg.rx_antenna_gain_db, leg.rx_antenna, f)
    pr = eirp - loss_used + gr - rx_pointing
    n = noise_power_dbw(leg.system_noise_temperature_k, leg.bandwidth_hz)
    return LinkBudgetReport(
        name=leg.name,
        tx_power_dbw=pt_dbw,
        tx_antenna_gain_db=gt,
        pointing_loss_db=pointing,
        eirp_dbw=eirp,
        path_loss_computed_db=loss_computed,
        path_loss_override_db=leg.loss_override_db,
        path_loss_db=loss_used,
        rx_gain_db=gr,
        rx_pointing_loss_db=rx_pointing,
        rx_power_dbw=pr,
        noise_power_dbw=n,
        cn_db=pr - n,
    )


def combined_cn_db(cn_up_db: float, cn_down_db: float) -> float:
    """End-to-end C/N of two cascaded legs (reciprocal sum in linear units).

    Not part of the published tables; provided as an extension.
    """
    up = 10.0 ** (cn_up_db / 10.0)
    down = 10.0 ** (cn_down_db / 10.0)
    return 10.0 * math.log10(1.0 / (1.0 / up + 1.0 / down))


def format_report(report: LinkBudgetReport) -> str:
    """Fixed-width text table for one leg."""
    rows = [
        ("Tx power", f"{report.tx_power_dbw:10.2f} dBW"),
        ("Tx antenna gain", f"{report.tx_antenna_gain_db:10.2f} dB"),
        ("Pointing loss", f"{report.pointing_loss_db:10.2f} dB"),
        ("EIRP", f"{report.eirp_dbw:10.2f} dBW"),
        ("Path loss (computed)", f"{report.path_loss_computed_db:10.2f} dB"),
    ]
    if report.path_loss_override_db is not None:
        rows.append(("Path loss (override; used)", f"{report.path_loss_override_db:10.2f} dB"))
    rows += [
        ("Rx antenna gain", f"{report.rx_gain_db:10.2f} dB"),
        ("Rx pointing loss", f"{report.rx_pointing_loss_db:10.2f} dB"),
        ("Rx power", f"{report.rx_power_dbw:10.2f} dBW"),
        ("Noise power", f"{report.noise_power_dbw:10.2f} dBW"),
        ("C/N", f"{report.cn_db:10.2f} dB"),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"== {report.name} =="]
    lines += [f"{label:<{width}} {value}" for label, value in rows]
    return "\n".join(lines)
