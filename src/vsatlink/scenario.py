"""Scenario files: JSON schema mirroring the module configs, with strict
key checking (unknown keys are errors - they are usually typos in dB
fields).  ``comment``/``comments`` keys are allowed everywhere for value
annotations and are ignored; a free-form ``metadata`` section is carried
into the run log untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from .channel import ImpairmentConfig, LinkGains, SalehParams
from .errors import ConfigError, ParameterError
from .linkbudget import AntennaSpec, BudgetLeg, LinkGeometry
from .modem import ModemConfig

__all__ = [
    "CompensationFlags",
    "ScenarioConfig",
    "load_scenario",
    "scenario_from_dict",
    "builtin_scenario_names",
    "builtin_scenario_path",
]

_ANNOTATION_KEYS = {"comment", "comments"}

MIN_BER_RUN_BITS = 10_000


@dataclass(frozen=True)
class CompensationFlags:
    dc: bool = True
    agc: bool = True
    phase_freq: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    modem: ModemConfig
    saleh: SalehParams
    gains: LinkGains
    impairments: ImpairmentConfig
    compensation: CompensationFlags
    mode: str = "physical"
    target_es_n0_db: Optional[float] = None
    total_bits: int = 1_000_000
    seed: int = 1
    budget_legs: tuple[BudgetLeg, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("physical", "normalized"):
            raise ConfigError(f"mode: must be 'physical' or 'normalized', got {self.mode!r}")
        if self.total_bits < MIN_BER_RUN_BITS:
            raise ConfigError(
                f"total_bits: BER runs need >= {MIN_BER_RUN_BITS} bits, got {self.total_bits}"
            )
        if self.mode == "normalized" and self.target_es_n0_db is None:
            raise ConfigError("target_es_n0_db: required when mode is 'normalized'")


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed - _ANNOTATION_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(
            f"{section}: unknown key {key!r} (allowed: {', '.join(sorted(allowed))})"
        )


def _clean(data: dict) -> dict:
    return {k: v for k, v in data.items() if k not in _ANNOTATION_KEYS}


def _build(section: str, factory, data: dict, allowed: set[str]):
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object, got {type(data).__name__}")
    _check_keys(section, data, allowed)
    try:
        return factory(**_clean(data))
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


_MODEM_KEYS = {
    "m_ary", "min_distance", "gray_coding", "rolloff",
    "samples_per_symbol", "filter_span_symbols", "bit_sample_time_s",
}
_SALEH_KEYS = {
    "input_scale_db", "amam_alpha", "amam_beta", "ampm_alpha", "ampm_beta",
    "output_scale_db",
}
_GAINS_KEYS = {
    "tx_dish_gain_db", "sat_rx_gain_db", "transponder_amp_gain_db",
    "sat_tx_gain_db", "rx_dish_gain_db", "uplink_loss_db", "downlink_loss_db",
}
_IMPAIRMENT_KEYS = {
    "phase_offset_deg", "freq_offset_hz", "noise_temperature_k",
    "iq_amplitude_imbalance_db", "iq_phase_imbalance_deg",
    "dc_offset_i", "dc_offset_q", "seed",
}
_COMP_KEYS = {"dc", "agc", "phase_freq"}
_ANTENNA_KEYS = {"diameter_m", "efficiency", "pointing_loss_db"}
_GEOMETRY_KEYS = {"range_m", "frequency_hz"}
_LEG_KEYS = {
    "name", "tx_power_w", "tx_antenna", "tx_antenna_gain_db",
    "rx_antenna", "rx_antenna_gain_db",
    "geometry", "loss_override_db", "bandwidth_hz", "system_noise_temperature_k",
}
_TOP_KEYS = {
    "modem", "saleh", "gains", "impairments", "compensation", "mode",
    "target_es_n0_db", "total_bits", "seed", "budget_legs", "metadata",
}


def _integer(key: str, value: Any) -> int:
    """``value`` as an int; a non-integral number is an error, not truncated."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def _build_leg(index: int, data: dict) -> BudgetLeg:
    section = f"budget_legs[{index}]"
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object")
    _check_keys(section, data, _LEG_KEYS)
    data = _clean(data)
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if value is None:
            continue  # JSON null means "not provided"
        if key in ("tx_antenna", "rx_antenna"):
            kwargs[key] = _build(f"{section}.{key}", AntennaSpec, value, _ANTENNA_KEYS)
        elif key == "geometry":
            kwargs[key] = _build(f"{section}.geometry", LinkGeometry, value, _GEOMETRY_KEYS)
        else:
            kwargs[key] = value
    try:
        return BudgetLeg(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario document and build the typed config."""
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    _check_keys("scenario", data, _TOP_KEYS)
    data = _clean(data)

    modem = _build("modem", ModemConfig, data.get("modem", {}), _MODEM_KEYS)
    saleh = _build("saleh", SalehParams, data.get("saleh", {}), _SALEH_KEYS)
    gains = _build("gains", LinkGains, data.get("gains", {}), _GAINS_KEYS)
    imp = _build("impairments", ImpairmentConfig, data.get("impairments", {}), _IMPAIRMENT_KEYS)
    comp = _build("compensation", CompensationFlags, data.get("compensation", {}), _COMP_KEYS)

    legs = data.get("budget_legs", [])
    if not isinstance(legs, list):
        raise ConfigError("budget_legs: expected a list")
    built_legs = tuple(_build_leg(i, leg) for i, leg in enumerate(legs))

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ConfigError("metadata: expected an object")

    return ScenarioConfig(
        modem=modem,
        saleh=saleh,
        gains=gains,
        impairments=imp,
        compensation=comp,
        mode=data.get("mode", "physical"),
        target_es_n0_db=data.get("target_es_n0_db"),
        total_bits=_integer("total_bits", data.get("total_bits", 1_000_000)),
        seed=_integer("seed", data.get("seed", 1)),
        budget_legs=built_legs,
        metadata=metadata,
    )


def builtin_scenario_names() -> list[str]:
    """Names resolvable by the CLI in place of a file path."""
    pkg = resources.files("vsatlink") / "scenarios"
    return sorted(p.name.removesuffix(".scenario.json") for p in pkg.iterdir()
                  if p.name.endswith(".scenario.json"))


def builtin_scenario_path(name: str) -> Path:
    pkg = resources.files("vsatlink") / "scenarios" / f"{name}.scenario.json"
    with resources.as_file(pkg) as path:
        return Path(path)


def load_scenario(source: str | Path) -> ScenarioConfig:
    """Load a scenario from a file path or a builtin scenario name."""
    path = Path(source)
    if not path.exists():
        names = builtin_scenario_names()
        if str(source) in names:
            path = builtin_scenario_path(str(source))
        else:
            raise ConfigError(
                f"scenario: no file {source!r} and no builtin scenario of that name "
                f"(builtins: {', '.join(names)})"
            )
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario: {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully-resolved scenario (every default applied) for the run log."""
    return {
        "modem": {
            "m_ary": cfg.modem.m_ary,
            "min_distance": cfg.modem.min_distance,
            "gray_coding": cfg.modem.gray_coding,
            "rolloff": cfg.modem.rolloff,
            "samples_per_symbol": cfg.modem.samples_per_symbol,
            "filter_span_symbols": cfg.modem.filter_span_symbols,
            "bit_sample_time_s": cfg.modem.bit_sample_time_s,
        },
        "saleh": {
            "input_scale_db": cfg.saleh.input_scale_db,
            "amam_alpha": cfg.saleh.amam_alpha,
            "amam_beta": cfg.saleh.amam_beta,
            "ampm_alpha": cfg.saleh.ampm_alpha,
            "ampm_beta": cfg.saleh.ampm_beta,
            "output_scale_db": cfg.saleh.output_scale_db,
        },
        "gains": {
            "tx_dish_gain_db": cfg.gains.tx_dish_gain_db,
            "sat_rx_gain_db": cfg.gains.sat_rx_gain_db,
            "transponder_amp_gain_db": cfg.gains.transponder_amp_gain_db,
            "sat_tx_gain_db": cfg.gains.sat_tx_gain_db,
            "rx_dish_gain_db": cfg.gains.rx_dish_gain_db,
            "uplink_loss_db": cfg.gains.uplink_loss_db,
            "downlink_loss_db": cfg.gains.downlink_loss_db,
        },
        "impairments": {
            "phase_offset_deg": cfg.impairments.phase_offset_deg,
            "freq_offset_hz": cfg.impairments.freq_offset_hz,
            "noise_temperature_k": cfg.impairments.noise_temperature_k,
            "iq_amplitude_imbalance_db": cfg.impairments.iq_amplitude_imbalance_db,
            "iq_phase_imbalance_deg": cfg.impairments.iq_phase_imbalance_deg,
            "dc_offset_i": cfg.impairments.dc_offset_i,
            "dc_offset_q": cfg.impairments.dc_offset_q,
            "seed": cfg.impairments.seed,
        },
        "compensation": {
            "dc": cfg.compensation.dc,
            "agc": cfg.compensation.agc,
            "phase_freq": cfg.compensation.phase_freq,
        },
        "mode": cfg.mode,
        "target_es_n0_db": cfg.target_es_n0_db,
        "total_bits": cfg.total_bits,
        "seed": cfg.seed,
        "budget_legs": [
            {
                "name": leg.name,
                "tx_power_w": leg.tx_power_w,
                "tx_antenna": None if leg.tx_antenna is None else {
                    "diameter_m": leg.tx_antenna.diameter_m,
                    "efficiency": leg.tx_antenna.efficiency,
                    "pointing_loss_db": leg.tx_antenna.pointing_loss_db,
                },
                "tx_antenna_gain_db": leg.tx_antenna_gain_db,
                "rx_antenna": None if leg.rx_antenna is None else {
                    "diameter_m": leg.rx_antenna.diameter_m,
                    "efficiency": leg.rx_antenna.efficiency,
                    "pointing_loss_db": leg.rx_antenna.pointing_loss_db,
                },
                "rx_antenna_gain_db": leg.rx_antenna_gain_db,
                "geometry": {
                    "range_m": leg.geometry.range_m,
                    "frequency_hz": leg.geometry.frequency_hz,
                },
                "loss_override_db": leg.loss_override_db,
                "bandwidth_hz": leg.bandwidth_hz,
                "system_noise_temperature_k": leg.system_noise_temperature_k,
            }
            for leg in cfg.budget_legs
        ],
        "metadata": cfg.metadata,
    }
