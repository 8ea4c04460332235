"""Tweak-driven, dynamically keyed round network over masked coordinate parts.

Each component (integer or fraction part of a longitude/latitude) is XOR-mixed
with a per-value tweak, run through n_rounds of key-XOR + data-dependent
rotation inside a w-bit mask, and finally folded into its valid range.  The
fold is lossy by design; exact decryption goes through the mapping store.

Components are encrypted in batches.  Under one key a component's ciphertext
depends only on (kind, value, digit count), so ``CoordinateCipher``
deduplicates each batch, looks the distinct values up in a codebook it builds
as it goes, and runs only the misses through the numpy round kernel.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from . import _rounds
from .coords import MAX_FRAC_DIGITS
from .ranges import (
    INT_MASK_BITS,
    fraction_constrain,
    mask_width,
    range_constrain,
    range_type,
)

BACKEND = "numpy"

KINDS = ("lon_int", "lon_frac", "lat_int", "lat_frac")
DEFAULT_ROUNDS = 8

_POW10 = np.array([10**d for d in range(MAX_FRAC_DIGITS + 1)], dtype=np.uint64)
_EMPTY_BOOK = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))


class DomainError(ValueError):
    """Input outside the cipher's declared domain."""


def check_key(key: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)) or len(key) != 16:
        raise DomainError("master key must be exactly 16 bytes")
    return bytes(key)


def is_lon(kind: str) -> bool:
    return kind.startswith("lon")


def is_int_part(kind: str) -> bool:
    return kind.endswith("_int")


def _check_batch(kind: str, values, digits) -> tuple[np.ndarray, np.ndarray | None]:
    """The domain checks of one batch of components.

    Returns the values as uint64 and, for fraction parts, the per-value digit
    counts as int64; integer parts ignore ``digits`` and get None.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown component kind {kind!r}")
    signed = isinstance(values, np.ndarray) and values.dtype.kind == "i"
    if signed and (values < 0).any():
        raise DomainError("component value must be non-negative")
    try:
        values = np.asarray(values, dtype=np.uint64)
    except OverflowError:
        raise DomainError("component value must be in [0, 2^64)") from None
    if is_int_part(kind):
        if (values >= 1 << INT_MASK_BITS).any():
            raise DomainError(f"integer part must be below 2^{INT_MASK_BITS}")
        return values, None
    if digits is None:
        raise DomainError("fraction parts need one digit count per value")
    digits = np.asarray(digits, dtype=np.int64)
    if digits.shape != values.shape:
        raise DomainError("fraction parts need one digit count per value")
    if digits.size and not (0 <= digits.min() and digits.max() <= MAX_FRAC_DIGITS):
        raise DomainError(f"fraction digit count must be in [0, {MAX_FRAC_DIGITS}]")
    too_wide = values >= _POW10[digits]
    if too_wide.any():
        i = int(np.argmax(too_wide))
        v, d = int(values[i]), int(digits[i])
        raise DomainError(f"fraction {v} does not fit in {d} digits")
    return values, digits


def _encrypt_distinct(kind: str, d: int, values: np.ndarray, tweaks, rk, n_rounds: int):
    """Round kernel and range fold for checked values of one (kind, d)."""
    int_kind = is_int_part(kind)
    listed = values.tolist()
    widths = [mask_width(v, int_kind, d) for v in listed]
    c = _rounds.encrypt_rounds_u64(values, widths, tweaks, rk, n_rounds)
    if not int_kind:
        return fraction_constrain(c, d)
    types = np.array([range_type(v, is_lon(kind), True) for v in listed])
    for rt in np.unique(types).tolist():
        sel = types == rt
        c[sel] = range_constrain(c[sel], rt)
    return c


def _lookup(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion positions of sorted ``values`` in sorted ``keys``, and which
    of them are already there."""
    pos = np.searchsorted(keys, values)
    if not len(keys):
        return pos, np.zeros(len(values), dtype=bool)
    return pos, keys[np.minimum(pos, len(keys) - 1)] == values


class CoordinateCipher:
    """Master key, derived schedule and round count bound together, plus a
    codebook of the components encrypted so far.

    The key, schedule and round count never change.  The codebook holds, per
    (kind, digit count), two sorted uint64 columns: plaintext values and
    their ciphertexts.  It starts empty and grows with each batch.  The
    pipeline uses one instance on one thread.  Merges into the codebook
    still take a lock, and a batch gathers only from the columns it looked
    up and the misses it computed itself, so two threads sharing an instance
    can cost a recomputation but never a wrong value.
    """

    def __init__(self, key: bytes, n_rounds: int = DEFAULT_ROUNDS):
        from .sm4 import derive_round_keys

        self.key = check_key(key)
        if n_rounds < 1:
            raise DomainError(f"round count must be >= 1, got {n_rounds}")
        self.n_rounds = n_rounds
        self.round_keys = derive_round_keys(self.key)
        self._rk = np.array(self.round_keys, dtype=np.uint64)
        self._key_hash = hashlib.md5(self.key).digest()
        self._codebooks: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        self._merge_lock = threading.Lock()

    def tweak(self, kind: str, value_text: str) -> int:
        """32-bit tweak: leading four bytes (big-endian) of
        MD5(kind ':' value_text MD5(key))."""
        digest = hashlib.md5(
            kind.encode("ascii") + b":" + value_text.encode("ascii") + self._key_hash
        ).digest()
        return int.from_bytes(digest[:4], "big")

    def encrypt_batch(self, kind: str, values, digits=None) -> np.ndarray:
        """Encrypt a batch of one kind's components.

        ``digits`` holds the fraction digit count of each value; integer
        parts ignore it.  Returns uint64 ciphertexts in input order.
        """
        values, digits = _check_batch(kind, values, digits)
        if digits is None:
            return self._encrypt_group(kind, 0, values)
        out = np.empty_like(values)
        for d in np.unique(digits).tolist():
            sel = digits == d
            out[sel] = self._encrypt_group(kind, d, values[sel])
        return out

    def _encrypt_group(self, kind: str, d: int, values: np.ndarray) -> np.ndarray:
        book = (kind, d)
        uniq, inverse = np.unique(values, return_inverse=True)
        keys, encs = self._codebooks.get(book, _EMPTY_BOOK)
        pos, hit = _lookup(keys, uniq)
        out = np.empty_like(uniq)
        out[hit] = encs[pos[hit]]
        miss = ~hit
        if miss.any():
            new = uniq[miss]
            tweaks = [self.tweak(kind, str(v)) for v in new.tolist()]
            enc = _encrypt_distinct(kind, d, new, tweaks, self._rk, self.n_rounds)
            out[miss] = enc
            self._merge(book, new, enc)
        return out[inverse]

    def _merge(self, book: tuple[str, int], new: np.ndarray, enc: np.ndarray) -> None:
        with self._merge_lock:
            keys, encs = self._codebooks.get(book, _EMPTY_BOOK)
            pos, known = _lookup(keys, new)  # merged by another batch meanwhile
            fresh = ~known
            self._codebooks[book] = (
                np.insert(keys, pos[fresh], new[fresh]),
                np.insert(encs, pos[fresh], enc[fresh]),
            )
