"""Range classification and post-cipher constraints for coordinate parts.

Integer parts of longitude/latitude fall into five digit-class intervals;
after the round network the intermediate value is folded back into the
interval of its plaintext class so a 3-digit longitude stays a 3-digit
longitude.  Fraction parts are kept below 10**d instead.
"""

from __future__ import annotations

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
