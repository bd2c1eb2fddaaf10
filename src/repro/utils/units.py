"""Byte-size and time unit helpers.

Times inside the simulator are plain floats in **seconds**; message sizes are
integers in **bytes**.  These helpers convert between human-readable strings
("32KiB", "2.5ms") and the internal representation, and format values for the
experiment reports.
"""

from __future__ import annotations

import re

from repro.errors import ConfigurationError

MICROSECOND = 1e-6
MILLISECOND = 1e-3

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

_BYTE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KIB,
    "kb": KIB,
    "kib": KIB,
    "m": MIB,
    "mb": MIB,
    "mib": MIB,
    "g": GIB,
    "gb": GIB,
    "gib": GIB,
}

_BYTES_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_bytes(value: int | float | str) -> int:
    """Parse a byte count from an int, float, or string like ``"32KiB"``.

    Raises :class:`ConfigurationError` for negative, non-finite or
    fractional sizes and unknown units.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"invalid byte size: {value!r}")
    if isinstance(value, (int, float)):
        # is_integer() is False for NaN and the infinities as well.
        if value < 0 or (isinstance(value, float) and not value.is_integer()):
            raise ConfigurationError(f"invalid byte size: {value!r}")
        return int(value)
    match = _BYTES_RE.match(value)
    if match is None:
        raise ConfigurationError(f"cannot parse byte size {value!r}")
    number, suffix = match.groups()
    factor = _BYTE_SUFFIXES.get(suffix.lower())
    if factor is None:
        raise ConfigurationError(f"unknown byte-size suffix {suffix!r} in {value!r}")
    result = float(number) * factor
    if not result.is_integer():
        raise ConfigurationError(f"byte size {value!r} is not an integer number of bytes")
    return int(result)


def format_bytes(nbytes: int) -> str:
    """Render a byte count the way the paper's axes do (2B ... 1MiB)."""
    if nbytes < 0:
        raise ConfigurationError(f"negative byte size: {nbytes}")
    for factor, suffix in ((GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if nbytes >= factor and nbytes % factor == 0:
            return f"{nbytes // factor}{suffix}"
    return f"{nbytes}B"


def format_time(seconds: float) -> str:
    """Render a duration with an auto-selected unit (s, ms, us, ns)."""
    magnitude = abs(seconds)
    if magnitude >= 1.0:
        return f"{seconds:.3f}s"
    if magnitude >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    if magnitude >= 1e-6:
        return f"{seconds * 1e6:.3f}us"
    return f"{seconds * 1e9:.1f}ns"
