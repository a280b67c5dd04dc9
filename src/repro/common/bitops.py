"""Small bit-manipulation helpers used throughout the cache models.

Cache geometry in this package is always a power of two (the paper restricts
``A_threshold`` and ``M`` to integral powers of two as well), so the helpers
here validate and exploit that property.  Everything operates on plain Python
integers: block addresses fit comfortably in machine words and the simulator
hot path only ever does shifts/masks.

:func:`crc32c_table` is the lookup table of the result store's record
checksum, shared by its Python step and the C source it is generated into.
"""

from __future__ import annotations

from functools import cache

from .errors import ConfigError

__all__ = [
    "is_pow2",
    "log2_exact",
    "mask",
    "extract_bits",
    "flip_bit",
    "align_down",
    "align_up",
    "crc32c_table",
]


def is_pow2(value: int) -> bool:
    """Return ``True`` iff *value* is a positive integral power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int, *, what: str = "value") -> int:
    """Return ``log2(value)`` for an exact power of two.

    Parameters
    ----------
    value:
        The number whose base-2 logarithm is required.
    what:
        Human-readable name used in the error message.

    Raises
    ------
    ConfigError
        If *value* is not a positive power of two.
    """
    if not is_pow2(value):
        raise ConfigError(f"{what} must be a positive power of two, got {value!r}")
    return value.bit_length() - 1


def mask(nbits: int) -> int:
    """Return an integer with the *nbits* least-significant bits set."""
    if nbits < 0:
        raise ConfigError(f"mask width must be non-negative, got {nbits}")
    return (1 << nbits) - 1


def extract_bits(value: int, lo: int, nbits: int) -> int:
    """Extract *nbits* bits of *value* starting at bit position *lo*."""
    return (value >> lo) & mask(nbits)


def flip_bit(value: int, bit: int) -> int:
    """Return *value* with bit position *bit* inverted.

    This is the primitive behind the paper's *index-bit flipping* grouping
    scheme (Section 3.2): flipping the last index bit pairs set ``s`` with
    its neighbour ``s ^ 1``.
    """
    return value ^ (1 << bit)


def align_down(value: int, alignment: int) -> int:
    """Round *value* down to a multiple of the power-of-two *alignment*."""
    if not is_pow2(alignment):
        raise ConfigError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of the power-of-two *alignment*."""
    if not is_pow2(alignment):
        raise ConfigError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


@cache
def crc32c_table() -> tuple:
    """The 256-entry byte table of CRC32C (Castagnoli, reflected
    polynomial ``0x82F63B78``): entry ``i`` is the CRC register after
    shifting byte ``i`` through it."""
    poly = 0x82F63B78
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)
