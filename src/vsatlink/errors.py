"""Exception types raised by the library, and the field checks that raise them."""

import math
from dataclasses import MISSING, field, fields, is_dataclass
from functools import cache
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np


class VsatLinkError(Exception):
    """Base class for all vsatlink errors."""


class ParameterError(VsatLinkError, ValueError):
    """A numeric parameter is outside its valid domain."""


class FramingError(VsatLinkError, ValueError):
    """A bit stream cannot be split into whole symbols."""


class InsufficientDataError(VsatLinkError, ValueError):
    """Not enough samples/bits to produce any output."""


class ConfigError(VsatLinkError, ValueError):
    """A scenario file failed to parse or validate.

    The message names the offending key and the violated constraint.
    """


class PipelineError(VsatLinkError, RuntimeError):
    """A simulation stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def check_range(name: str, value: float, low: float, high: float) -> None:
    """Raise :class:`ParameterError` naming ``name`` unless ``low <= value <= high``."""
    if not low <= value <= high:
        raise ParameterError(f"{name} must be in [{low:g}, {high:g}], got {value!r}")


def ranged(low: float, high: float, default: Any = MISSING):
    """A config field whose number (when not None) must lie in ``[low, high]``."""
    return field(default=default, metadata={"range": (low, high)})


# What a value must be for the field types that take it unchanged.
_PLAIN_TYPES = {bool: "true or false", str: "a string", dict: "an object"}


@cache
def field_types(cls) -> dict[str, Any]:
    """The type hint of each field of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _typed(key: str, hint: Any, value: Any) -> Any:
    """``value`` checked against the type ``hint`` of the field ``key``."""
    # stored as the Python number: a numpy one is not JSON and overflows the 64-bit seed mix
    if isinstance(value, np.generic):
        value = value.item()
    if hint is float:  # stored unchanged, so an int stays an int in the run log
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # an int is finite, and math.isfinite cannot take one past the float range
        if not (number and (isinstance(value, int) or math.isfinite(value))):
            raise ConfigError(f"{key}: must be a finite number, got {value!r}")
        return value
    if hint is int:  # an integral float is taken; anything else is not truncated
        integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not integral:
            raise ConfigError(f"{key}: must be an integer, got {value!r}")
        return int(value)
    if hint in _PLAIN_TYPES:
        if not isinstance(value, hint):
            raise ConfigError(f"{key}: must be {_PLAIN_TYPES[hint]}, got {value!r}")
        return value
    if is_dataclass(hint):  # a config section
        if not isinstance(value, hint):
            raise ConfigError(f"{key}: must be an object ({hint.__name__}), got {value!r}")
        return value
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: must be a list, got {value!r}")
        return tuple(_typed(f"{key}[{i}]", args[0], item) for i, item in enumerate(value))
    if origin is Union and type(None) in args:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _typed(key, inner, value)  # null: "not provided"
    raise TypeError(f"{key}: no rule for fields of type {hint}")


def check_fields(config) -> None:
    """Store each field of the frozen dataclass ``config`` as checked against its
    type hint (else :class:`ConfigError`), then check its :func:`ranged` range."""
    for name, hint in field_types(type(config)).items():
        object.__setattr__(config, name, _typed(name, hint, getattr(config, name)))
    for f in fields(config):
        if "range" in f.metadata and getattr(config, f.name) is not None:
            check_range(f.name, getattr(config, f.name), *f.metadata["range"])


class CheckedConfig:
    """Base of the config dataclasses: each instance made checks its fields."""

    def __post_init__(self):
        check_fields(self)
