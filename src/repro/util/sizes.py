"""Byte-size parsing, formatting and power-of-two helpers.

The paper uses base-2 units throughout ("we use megabytes (MB) and
kilobytes (KB) in the base-2 sense, i.e. 2**20 and 2**10"); this module
follows the same convention: ``KB``/``KiB`` = 1024 bytes, ``MB``/``MiB`` =
1024**2 bytes.
"""

from __future__ import annotations

import re

from ..errors import ConfigurationError

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "parse_size",
    "format_size",
    "is_power_of_two",
    "next_power_of_two",
    "prev_power_of_two",
    "ceil_log2",
    "floor_log2",
]

KIB = 1024
MIB = 1024**2
GIB = 1024**3

_UNITS = {
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

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_size(text: "str | int | float") -> int:
    """Parse a human byte size (``"512KB"``, ``"1.5MiB"``, ``4096``) to bytes.

    Units are base-2 as in the paper. Raises :class:`ConfigurationError`
    for unknown units or negative values.
    """
    if isinstance(text, bool):
        raise ConfigurationError(f"not a byte size: {text!r}")
    if isinstance(text, (int, float)):
        if text < 0:
            raise ConfigurationError(f"negative byte size: {text!r}")
        return int(text)
    m = _SIZE_RE.match(text)
    if not m:
        raise ConfigurationError(f"cannot parse byte size: {text!r}")
    value, unit = m.groups()
    factor = _UNITS.get(unit.lower())
    if factor is None:
        raise ConfigurationError(f"unknown byte-size unit {unit!r} in {text!r}")
    return int(float(value) * factor)


def format_size(nbytes: float, precision: int = 1) -> str:
    """Render *nbytes* with the largest fitting base-2 unit (``"2.0MiB"``)."""
    if nbytes < 0:
        return "-" + format_size(-nbytes, precision)
    for limit, suffix in ((GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if nbytes >= limit:
            scaled = nbytes / limit
            if scaled == int(scaled):
                return f"{int(scaled)}{suffix}"
            return f"{scaled:.{precision}f}{suffix}"
    if nbytes == int(nbytes):
        return f"{int(nbytes)}B"
    return f"{nbytes:.{precision}f}B"


def is_power_of_two(n: int) -> bool:
    """True iff *n* is a positive integral power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= *n* (n >= 1)."""
    if n < 1:
        raise ConfigurationError(f"next_power_of_two needs n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def prev_power_of_two(n: int) -> int:
    """Largest power of two <= *n* (n >= 1)."""
    if n < 1:
        raise ConfigurationError(f"prev_power_of_two needs n >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def ceil_log2(n: int) -> int:
    """ceil(log2(n)) for n >= 1; this is the binomial-tree depth for n ranks."""
    if n < 1:
        raise ConfigurationError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def floor_log2(n: int) -> int:
    """floor(log2(n)) for n >= 1."""
    if n < 1:
        raise ConfigurationError(f"floor_log2 needs n >= 1, got {n}")
    return n.bit_length() - 1


__doctest_skip__ = ["*"]
