"""Round network kernels: the scalar reference and its numpy batch port.

``encrypt_rounds_raw``/``decrypt_rounds_raw`` are the reference
implementation of the tweak-driven XOR/rotate rounds on Python integers;
``encrypt_rounds_u64`` runs the same rounds over uint64 arrays and matches
the reference bit for bit.  Callers guarantee 0 <= v < 2**w, 1 <= w <= 64
for the batch kernel, and n_rounds >= 0.
"""

from __future__ import annotations

import numpy as np

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


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


def encrypt_rounds_u64(v, w, t, rk, n_rounds: int) -> np.ndarray:
    """``encrypt_rounds_raw`` elementwise over uint64 arrays.

    ``v``, ``w`` and ``t`` broadcast together, so each element may carry its
    own mask width; ``rk`` holds the 32 round keys.  When the rotation equals
    the width (only possible for w <= 7) the formula below reduces to the
    identity, which is the reference's skipped rotation.
    """
    w = np.asarray(w, dtype=np.uint64)
    t = np.asarray(t, dtype=np.uint64)
    rk = np.asarray(rk, dtype=np.uint64)
    mask = _ALL_ONES >> (np.uint64(64) - w)
    x = (np.asarray(v, dtype=np.uint64) ^ t) & mask
    tk = t & np.uint64(31)
    ts = t & np.uint64(7)
    for i in range(n_rounds):
        s = ((ts ^ np.uint64(i)) % np.uint64(7) + np.uint64(1)) % w
        s = np.maximum(s, np.uint64(1))
        x ^=rk[(tk + np.uint64(i)) & np.uint64(31)] & mask
        x = ((x << s) | (x >> (w - s))) & mask
    return x
