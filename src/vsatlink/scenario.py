"""Scenario files: JSON documents whose schema is the config dataclasses.

Each object's allowed keys are its dataclass fields, the dataclass checks
each value (``errors.check_fields``), and a missing key takes its default.
Unknown keys are errors (they are usually typos in dB fields).
``comment``/``comments`` keys are allowed everywhere for value annotations
and are ignored; a free-form ``metadata`` section is carried into the run
log untouched.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union, get_args, get_origin

from .channel import MAX_ABS_DB, ImpairmentConfig, LinkGains, SalehParams
from .errors import CheckedConfig, ConfigError, ParameterError, field_types
from .linkbudget import BudgetLeg
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
# 1e8 bits is a 3.2 GB waveform at 8 samples per 16-QAM symbol; a longer run
# is refused before any array exists, not by the allocator mid-run.  Memory
# follows the samples, so they have their own cap (2e8, that same waveform);
# the bits keep theirs, as generate_bits draws 8 bytes per bit.
MAX_TOTAL_BITS = 10**8
MAX_WAVEFORM_SAMPLES = 2 * 10**8


def run_bits(total_bits: int, bits_per_symbol: int) -> int:
    """The bits a run of ``total_bits`` simulates: the count in whole symbols.

    Raises :class:`ParameterError` naming ``total_bits`` when the request
    exceeds ``MAX_TOTAL_BITS`` or the trimmed count falls below
    ``MIN_BER_RUN_BITS``.
    """
    n_bits = total_bits - total_bits % bits_per_symbol
    if n_bits < MIN_BER_RUN_BITS or total_bits > MAX_TOTAL_BITS:
        bound = f"<= {MAX_TOTAL_BITS}" if total_bits > MAX_TOTAL_BITS else f">= {MIN_BER_RUN_BITS}"
        trimmed = f" ({n_bits} in whole symbols)" if n_bits != total_bits else ""
        raise ParameterError(f"total_bits: must be {bound}, got {total_bits}{trimmed}")
    return n_bits


@dataclass(frozen=True)
class CompensationFlags(CheckedConfig):
    dc: bool = True
    agc: bool = True
    phase_freq: bool = True


@dataclass(frozen=True)
class ScenarioConfig(CheckedConfig):
    modem: ModemConfig = field(default_factory=ModemConfig)
    saleh: SalehParams = field(default_factory=SalehParams)
    gains: LinkGains = field(default_factory=LinkGains)
    impairments: ImpairmentConfig = field(default_factory=ImpairmentConfig)
    compensation: CompensationFlags = field(default_factory=CompensationFlags)
    mode: str = "physical"
    target_es_n0_db: Optional[float] = None
    total_bits: int = 1_000_000
    seed: int = 1
    budget_legs: tuple[BudgetLeg, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("physical", "normalized"):
            raise ConfigError(f"mode: must be 'physical' or 'normalized', got {self.mode!r}")
        n_bits = run_bits(self.total_bits, self.modem.bits_per_symbol)
        samples = n_bits // self.modem.bits_per_symbol * self.modem.samples_per_symbol
        if samples > MAX_WAVEFORM_SAMPLES:
            raise ConfigError(
                f"total_bits: {self.total_bits} bits at modem.samples_per_symbol "
                f"{self.modem.samples_per_symbol} are {samples} waveform samples; "
                f"must be <= {MAX_WAVEFORM_SAMPLES}"
            )
        if self.mode == "normalized" and self.target_es_n0_db is None:
            raise ConfigError("target_es_n0_db: required when mode is 'normalized'")
        if self.mode == "physical" and self.target_es_n0_db is not None:
            raise ConfigError("target_es_n0_db: must be null when mode is 'physical'")
        if self.target_es_n0_db is not None and not abs(self.target_es_n0_db) <= MAX_ABS_DB:
            raise ConfigError(
                f"target_es_n0_db: must be in [{-MAX_ABS_DB:g}, {MAX_ABS_DB:g}], "
                f"got {self.target_es_n0_db!r}"
            )


def _value(key: str, hint: Any, value: Any) -> Any:
    """``value`` for the field ``key`` of type ``hint``, each object in it built
    as the dataclass that the hint names; the dataclass checks the rest."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is Union:  # Optional[X]
        (hint,) = args
    if is_dataclass(hint) and isinstance(value, dict):
        return _build(key, hint, value)
    if get_origin(hint) is tuple and isinstance(value, (list, tuple)):  # tuple[X, ...]
        return tuple(_value(f"{key}[{i}]", args[0], item) for i, item in enumerate(value))
    return value


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its error raised as a :class:`ConfigError`
    naming the dotted ``section`` ("" at top level) that it builds."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:  # the message starts with the field's key
        if not section:
            raise
        raise ConfigError(f"{section}.{exc}") from exc
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"{section or 'scenario'}: {exc}") from exc


def _build(section: str, cls, data: Any):
    """``cls`` built from the object ``data`` found at ``section`` ("" at top level)."""
    where = section or "scenario"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object, got {data!r}")
    types = field_types(cls)
    unknown = sorted(set(data) - set(types) - _ANNOTATION_KEYS)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key {unknown[0]!r} (allowed: {', '.join(sorted(types))})"
        )
    prefix = f"{section}." if section else ""
    return _checked(section, cls, **{key: _value(prefix + key, types[key], value)
                                     for key, value in data.items() if key in types})


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario document and build the typed config."""
    return _build("", ScenarioConfig, data)


def replace_key(cfg, key: str, value: Any):
    """``cfg`` with the ``int``, ``float`` or ``Optional`` number at the dotted ``key``
    set to ``value``, checked and rebuilt level by level as the loader builds it."""
    names = key.split(".")
    nodes = [cfg]
    for name in names:
        hint = field_types(type(nodes[-1])).get(name) if is_dataclass(nodes[-1]) else None
        if hint is None:
            raise ConfigError(f"{key}: no such key")
        nodes.append(getattr(nodes[-1], name))
    if hint not in (int, float, Optional[int], Optional[float]):
        raise ConfigError(f"{key}: not a scalar numeric key")
    for depth in reversed(range(len(names))):
        value = _checked(".".join(names[:depth]), replace, nodes[depth], **{names[depth]: value})
    return value


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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario: {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"scenario: cannot read {path}: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully-resolved scenario (every default applied) for the run log."""
    return asdict(cfg)
