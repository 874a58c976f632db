"""Exception types shared across the package.

Every error raised by public entry points derives from SpdgError so the CLI
can map failures to a machine-readable JSON payload on stderr.
"""

import math


class SpdgError(Exception):
    code = "error"


class ShapeError(SpdgError):
    code = "shape_error"


class DegenerateVectorError(SpdgError):
    code = "degenerate_vector"


class NormalizationError(SpdgError):
    code = "unnormalized_input"


class TokenizeError(SpdgError):
    code = "tokenize_error"


class BatchCompositionError(SpdgError):
    code = "batch_composition"


class ConfigError(SpdgError):
    code = "config_error"


def check_range(name: str, value, low: float, high: float = math.inf,
                low_open: bool = False, high_open: bool = True) -> None:
    """Raise ConfigError unless value is a finite number between low and high,
    each end open or closed as flagged. NaN fails every comparison, and an int
    too large for a float counts as infinite."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not (finite and (low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)):
        interval = f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
        raise ConfigError(f"{name} must be in {interval}, got {value!r}")


def check_type(name: str, value, kinds: tuple) -> None:
    """Raise ConfigError unless value is an instance of one of kinds; bool is an
    int to isinstance, and no field admits it."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, "
                          f"got {type(value).__name__} {value!r}")


class FormatError(SpdgError):
    code = "format_error"


class TrainingDiverged(SpdgError):
    code = "training_diverged"


class GradCheckError(SpdgError):
    code = "grad_check"
