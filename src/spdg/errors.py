"""Exception types shared across the package.

Every error raised by public entry points derives from SpdgError so the CLI
can map failures to a machine-readable JSON payload on stderr.
"""

import math
from dataclasses import fields


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


# the values each field annotation admits: a float field takes an int too, only a bool
# field takes a bool (to isinstance, a bool is an int), and a list holds strings only
_FIELD_TYPES = {
    "int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
    "str | None": (str, type(None)), "list[str]": (list,),
}


def check_fields(obj, *nested: type) -> None:
    """Raise ConfigError unless every field of the dataclass obj holds a value its
    annotation admits: one of _FIELD_TYPES, or one of the nested config classes."""
    kinds = {**_FIELD_TYPES, **{kind.__name__: (kind,) for kind in nested}}
    for f in fields(obj):
        value, allowed = getattr(obj, f.name), kinds[f.type]
        if (not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed)
                or (isinstance(value, list) and not all(isinstance(v, str) for v in value))):
            raise ConfigError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")


class FormatError(SpdgError):
    code = "format_error"


class TrainingDiverged(SpdgError):
    code = "training_diverged"


class GradCheckError(SpdgError):
    code = "grad_check"
