"""Scalar reference of every cipher rule, for comparisons with geofpe.cipher.

Independent of geofpe.cipher's batch code: one Python integer at a time.
- ``tweak``: the per-value MD5 tweak;
- ``encrypt_rounds_raw`` / ``decrypt_rounds_raw``: the tweak-driven
  XOR/rotate rounds and their inverse;
- ``range_type`` / ``range_constrain``: the five digit-class intervals of an
  integer part, and the post-cipher fold into the interval of its plaintext
  class, so a 3-digit longitude stays a 3-digit longitude;
- ``mask_width`` / ``fraction_constrain``: the mask width of the rounds, and
  the fold of a fraction below 10**d;
- ``encrypt_block``: one SM4 block, which checks the key schedule of
  geofpe.sm4 end to end against the standard's published vector.
"""

from hashlib import md5

from geofpe.cipher import INT_MASK_BITS
from geofpe.sm4 import _rotl32, _tau

# Range type codes
RT_PASSTHROUGH = 0
RT_LON_UNITS = 1  # [0, 10)
RT_LON_TENS = 2  # [10, 100)
RT_LON_HUNDREDS = 3  # [100, 180)
RT_LAT_UNITS = 4  # [0, 10)
RT_LAT_TENS = 5  # [10, 90)


def tweak(key: bytes, kind: str, value_text: str) -> int:
    """32-bit tweak: leading four bytes (big-endian) of
    MD5(kind ':' value_text MD5(key))."""
    digest = md5(
        kind.encode("ascii") + b":" + value_text.encode("ascii") + md5(key).digest()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def encrypt_rounds_raw(v: int, w: int, t: int, rk, n_rounds: int) -> int:
    mask = (1 << w) - 1
    x = (v ^ t) & mask
    tk = t & 31
    ts = t & 7
    for i in range(n_rounds):
        s = (((i ^ ts) % 7) + 1) % w
        if s == 0:
            s = 1
        x ^= rk[(i + tk) & 31] & mask
        if s != w:
            x = ((x << s) | (x >> (w - s))) & mask
    return x


def decrypt_rounds_raw(c: int, w: int, t: int, rk, n_rounds: int) -> int:
    mask = (1 << w) - 1
    x = c & mask
    tk = t & 31
    ts = t & 7
    for i in range(n_rounds - 1, -1, -1):
        s = (((i ^ ts) % 7) + 1) % w
        if s == 0:
            s = 1
        if s != w:
            x = ((x >> s) | (x << (w - s))) & mask
        x ^= rk[(i + tk) & 31] & mask
    return (x ^ t) & mask


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
    """Fold a post-cipher integer into the interval selected by ``rt``."""
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
    """Fold a post-cipher fraction into [0, 10**d); 0 when d == 0."""
    return v_prime % 10**d


def _t_enc(a: int) -> int:
    b = _tau(a)
    return b ^ _rotl32(b, 2) ^ _rotl32(b, 10) ^ _rotl32(b, 18) ^ _rotl32(b, 24)


def encrypt_block(block: bytes, rk: tuple[int, ...]) -> bytes:
    """One-block SM4 encryption under the round keys ``rk``."""
    x = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(32):
        x.append(x[-4] ^ _t_enc(x[-3] ^ x[-2] ^ x[-1] ^ rk[i]))
        x.pop(0)
    return b"".join(w.to_bytes(4, "big") for w in reversed(x))
