"""Range classification and post-cipher constraints for coordinate parts.

Integer parts of longitude/latitude fall into five digit-class intervals;
after the round network the intermediate value is folded back into the
interval of its plaintext class so a 3-digit longitude stays a 3-digit
longitude.  Fraction parts are kept below 10**d instead.

The scalar rules are the reference; ``mask_widths``, ``range_folds`` and
``fraction_folds`` apply the same rules elementwise to uint64 arrays, which
is how the cipher runs them.
"""

from __future__ import annotations

import numpy as np

from .coords import MAX_FRAC_DIGITS

# Range type codes
RT_PASSTHROUGH = 0
RT_LON_UNITS = 1  # [0, 10)
RT_LON_TENS = 2  # [10, 100)
RT_LON_HUNDREDS = 3  # [100, 180)
RT_LAT_UNITS = 4  # [0, 10)
RT_LAT_TENS = 5  # [10, 90)

INT_MASK_BITS = 16


def range_type(v: int, is_lon: bool, is_int: bool) -> int:
    """Classify an integer coordinate part into its range-type code.

    Fraction parts always classify as passthrough (0).  The boundary values
    lon=180 and lat=90 are folded into codes 3 and 5 so they get constrained
    instead of leaking through unencrypted.
    """
    if not is_int:
        return RT_PASSTHROUGH
    if is_lon:
        if 0 <= v < 10:
            return RT_LON_UNITS
        if 10 <= v < 100:
            return RT_LON_TENS
        if 100 <= v <= 180:
            return RT_LON_HUNDREDS
    else:
        if 0 <= v < 10:
            return RT_LAT_UNITS
        if 10 <= v <= 90:
            return RT_LAT_TENS
    return RT_PASSTHROUGH


def range_constrain(v_prime: int, rt: int) -> int:
    """Fold a post-cipher integer into the interval selected by ``rt``.

    Works elementwise on a numpy array of values.
    """
    if rt == RT_LON_UNITS or rt == RT_LAT_UNITS:
        return v_prime % 10
    if rt == RT_LON_TENS:
        return 10 + (v_prime % 90)
    if rt == RT_LON_HUNDREDS:
        return 100 + (v_prime % 80)
    if rt == RT_LAT_TENS:
        return 10 + (v_prime % 80)
    if rt == RT_PASSTHROUGH:
        return v_prime
    raise ValueError(f"unknown range type {rt}")


def mask_width(v: int, is_int: bool, d: int = 0) -> int:
    """Bit width of the mask applied inside the round network.

    Integer parts use a uniform 16-bit mask.  Fraction parts tier by value:
    8 bits below 100, 10 bits below 1000, else the smallest width covering
    all d-digit fractions.
    """
    if is_int:
        return INT_MASK_BITS
    if v < 100:
        return 8
    if v < 1000:
        return 10
    return max((10**d - 1).bit_length(), 1)


def fraction_constrain(v_prime: int, d: int) -> int:
    """Fold a post-cipher fraction into [0, 10**d); 0 when d == 0.

    Works elementwise on a numpy array of values.
    """
    return v_prime % 10**d


# ---------------------------------------------------------------------------
# Array forms of the rules above

POW10 = np.array([10**d for d in range(MAX_FRAC_DIGITS + 1)], dtype=np.uint64)
# mask_width of a fraction of d digits that is at least 1000
_FRAC_TOP_WIDTHS = np.array(
    [max((10**d - 1).bit_length(), 1) for d in range(MAX_FRAC_DIGITS + 1)],
    dtype=np.uint64,
)
# range_type of an integer part: class edges (searchsorted "right") and the
# code of each interval they bound
_CLASSES = {
    True: (np.array([10, 100, 181], dtype=np.uint64),
           np.array([RT_LON_UNITS, RT_LON_TENS, RT_LON_HUNDREDS, RT_PASSTHROUGH])),
    False: (np.array([10, 91], dtype=np.uint64),
            np.array([RT_LAT_UNITS, RT_LAT_TENS, RT_PASSTHROUGH])),
}
# range_constrain per code: base + v_prime % modulus; passthrough is masked
# out, its modulus 1 only keeps the division defined
_FOLD_BASE = np.array([0, 0, 10, 100, 0, 10], dtype=np.uint64)
_FOLD_MOD = np.array([1, 10, 90, 80, 10, 80], dtype=np.uint64)


def mask_widths(values: np.ndarray, digits, is_int: bool) -> np.ndarray:
    """``mask_width`` elementwise: uint64 widths of uint64 values and their
    digit counts (ignored for integer parts)."""
    if is_int:
        return np.full(values.shape, INT_MASK_BITS, dtype=np.uint64)
    top = _FRAC_TOP_WIDTHS[digits]
    return np.where(values < 100, np.uint64(8), np.where(values < 1000, np.uint64(10), top))


def range_folds(values: np.ndarray, v_prime: np.ndarray, is_lon: bool) -> np.ndarray:
    """``range_constrain(v_prime, range_type(value, is_lon, True))``
    elementwise over uint64 integer parts and their post-cipher values."""
    edges, codes = _CLASSES[is_lon]
    rt = codes[np.searchsorted(edges, values, side="right")]
    folded = _FOLD_BASE[rt] + v_prime % _FOLD_MOD[rt]
    return np.where(rt == RT_PASSTHROUGH, v_prime, folded)


def fraction_folds(v_prime: np.ndarray, digits) -> np.ndarray:
    """``fraction_constrain`` elementwise over uint64 values and digit counts."""
    return v_prime % POW10[digits]
