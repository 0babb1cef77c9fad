"""Exception types raised by the library, and the range check that raises them."""


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
