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
from .coords import MAX_FRAC_DIGITS, DecimalNumber
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


def _tweak(kind: str, value_text: str, key_hash: bytes) -> int:
    digest = hashlib.md5(
        kind.encode("ascii") + b":" + value_text.encode("ascii") + key_hash
    ).digest()
    return int.from_bytes(digest[:4], "big")


def compute_tweak(tag: str, value_text: str, key: bytes) -> int:
    """32-bit tweak: leading four bytes (big-endian) of
    MD5(tag ':' value_text MD5(key))."""
    if tag not in KINDS:
        raise DomainError(f"unknown component tag {tag!r}")
    if not value_text or not value_text.isascii() or not value_text.isdigit():
        raise DomainError(f"tweak value text must be ASCII digits, got {value_text!r}")
    return _tweak(tag, value_text, hashlib.md5(check_key(key)).digest())


def key_index(i: int, t: int) -> int:
    """Round-key index for round i: the tweak's low 5 bits rotate the schedule."""
    return (i + (t & 31)) & 31


def shift_amount(i: int, t: int) -> int:
    """Rotation amount in [1, 7] from the round number and the tweak's low 3 bits."""
    return ((i ^ (t & 7)) % 7) + 1


def _check_rounds_args(v: int, w: int, n_rounds: int) -> None:
    if w < 1:
        raise DomainError(f"mask width must be >= 1, got {w}")
    if n_rounds < 0:
        raise DomainError(f"round count must be >= 0, got {n_rounds}")
    if not 0 <= v < (1 << w):
        raise DomainError(f"value {v} outside [0, 2^{w})")


def encrypt_rounds(v: int, w: int, t: int, rk, n_rounds: int = DEFAULT_ROUNDS) -> int:
    """Bijective w-bit transform: tweak mix, then n_rounds of XOR + rotate."""
    _check_rounds_args(v, w, n_rounds)
    return _rounds.encrypt_rounds_raw(v, w, t & 0xFFFFFFFF, rk, n_rounds)


def decrypt_rounds(c: int, w: int, t: int, rk, n_rounds: int = DEFAULT_ROUNDS) -> int:
    """Exact inverse of encrypt_rounds on the pre-constraint domain."""
    _check_rounds_args(c, w, n_rounds)
    return _rounds.decrypt_rounds_raw(c, w, t & 0xFFFFFFFF, rk, n_rounds)


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


def encrypt_component(
    value: int,
    kind: str,
    d: int,
    key: bytes,
    rk,
    n_rounds: int = DEFAULT_ROUNDS,
) -> int:
    """Encrypt one coordinate part, constrained to its plaintext digit class.

    The range type is taken from the plaintext value so a 3-digit longitude
    integer always encrypts to a 3-digit longitude integer.
    """
    values, _ = _check_batch(kind, [value], [d])
    if n_rounds < 0:
        raise DomainError(f"round count must be >= 0, got {n_rounds}")
    t = compute_tweak(kind, str(value), key)
    return int(_encrypt_distinct(kind, d, values, [t], rk, n_rounds)[0])


class CoordinateCipher:
    """Master key, derived schedule and round count bound together, plus a
    codebook of the components encrypted so far.

    The key, schedule and round count never change.  The codebook holds, per
    (kind, digit count), two sorted uint64 columns: plaintext values and
    their ciphertexts.  It starts empty and grows with each batch.
    Instances are safe to share across worker threads: merges into the
    codebook take a lock, and a batch gathers only from the columns it looked
    up and the misses it computed itself, so a race can cost a recomputation
    but never a wrong value.
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
        return _tweak(kind, value_text, self._key_hash)

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

    def encrypt_component(self, value: int, kind: str, d: int = 0) -> int:
        return int(self.encrypt_batch(kind, [value], [d])[0])

    def encrypt_number(self, n: DecimalNumber, axis: str) -> DecimalNumber:
        """Encrypt one coordinate: sign passes through, parts independently."""
        enc_int = self.encrypt_component(n.int_part, f"{axis}_int")
        enc_frac = self.encrypt_component(n.frac_value, f"{axis}_frac", n.frac_digits)
        return DecimalNumber(n.sign, enc_int, enc_frac, n.frac_digits)
