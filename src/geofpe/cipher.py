"""Tweak-driven round network with dynamic keying over masked coordinate parts.

Each component (integer or fraction part of a longitude/latitude) is XOR-mixed
with a per-value tweak, run through ROUNDS rounds of key-XOR + data-dependent
rotation inside a w-bit mask, and finally folded into its valid range.  The
fold is lossy by design; exact decryption goes through the mapping store.

Components are encrypted in batches.  Under one key a component's ciphertext
depends only on (kind, digit count, value).  ``CoordinateCipher`` packs each
fraction's digit count d and value into one uint64 key, value + R[d] with R[d]
the repunit (10**d - 1) // 9; the map is order-preserving and one-to-one for
every d <= 19 (the largest key, about 1.11e19, is below 2**64).  An integer
part's key is its value.  One batch of a kind is then deduplicated with one
``np.unique``, looked up in that kind's codebook, and all its misses run
through one call of the numpy round kernel, with per-element mask widths,
tweaks and range folds.  The misses go into a small sorted tail of the
codebook that merges into its sorted book only once it holds an eighth of it.

The mask width is 16 bits for an integer part; a fraction's width tiers by
value: 8 bits below 100, 10 below 1000, else the narrowest width that holds
every d-digit fraction.  The fold keeps the format: an integer part falls into a
digit class of its axis (lon [0, 10), [10, 100), [100, 180]; lat [0, 10),
[10, 90]) and its ciphertext is folded back into that class, and a d-digit
fraction's ciphertext is taken modulo 10**d.  ``tests/oracle_cipher.py``
holds the scalar reference of each rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:  # the built-in MD5 spares every command the OpenSSL load of hashlib
    from _md5 import md5
except ImportError:  # an interpreter built without _md5
    from hashlib import md5

from .text import MAX_FRAC_DIGITS

BACKEND = "numpy"

KINDS = ("lon_int", "lon_frac", "lat_int", "lat_frac")
ROUNDS = 8

# REPUNIT[d] = 11...1 (d ones): the codebook key of a d-digit fraction is
# value + REPUNIT[d], so the keys of d digits fill [REPUNIT[d], REPUNIT[d + 1])
REPUNIT = np.array([(10**d - 1) // 9 for d in range(MAX_FRAC_DIGITS + 1)], dtype=np.uint64)
_EMPTY_BOOK = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
_EMPTY_CODEBOOK = (_EMPTY_BOOK, _EMPTY_BOOK)
# a codebook's tail merges into its book once the tail holds more than
# 1/_TAIL_SHARE of the book's entries
_TAIL_SHARE = 8

INT_MASK_BITS = 16
POW10 = np.array([10**d for d in range(MAX_FRAC_DIGITS + 1)], dtype=np.uint64)
# the mask width of a d-digit fraction of at least 1000
_FRAC_TOP_WIDTHS = np.array(
    [max((10**d - 1).bit_length(), 1) for d in range(MAX_FRAC_DIGITS + 1)],
    dtype=np.uint64,
)
# per axis (is_lon): the upper edges of the integer digit classes
# (searchsorted "right"), and each class's fold base + v_prime % modulus; a
# value past the last edge passes through
_FOLDS = {
    is_lon: tuple(np.array(col, dtype=np.uint64) for col in cols)
    for is_lon, cols in (
        (True, ([10, 100, 181], [0, 10, 100], [10, 90, 80])),  # [0, 10), [10, 100), [100, 180]
        (False, ([10, 91], [0, 10], [10, 80])),  # [0, 10), [10, 90]
    )
}
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class DomainError(ValueError):
    """Input outside the cipher's declared domain."""


def check_key(key: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)) or len(key) != 16:
        raise DomainError("master key must be exactly 16 bytes")
    return bytes(key)


def map_fingerprint(key: bytes) -> bytes:
    """The 16-byte key fingerprint a GFPEMAP2 map is written under:
    MD5(b"geofpe-map-v2" + key).  The prefix keeps it apart from MD5(key),
    the secret input to every tweak."""
    return md5(b"geofpe-map-v2" + check_key(key)).digest()


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
    too_wide = values >= POW10[digits]
    if too_wide.any():
        i = int(np.argmax(too_wide))
        v, d = int(values[i]), int(digits[i])
        raise DomainError(f"fraction {v} does not fit in {d} digits")
    return values, digits


def mask_widths(values: np.ndarray, digits, is_int: bool) -> np.ndarray:
    """uint64 mask widths of uint64 values and their digit counts (ignored
    for integer parts)."""
    if is_int:
        return np.full(values.shape, INT_MASK_BITS, dtype=np.uint64)
    top = _FRAC_TOP_WIDTHS[digits]
    return np.where(values < 100, np.uint64(8), np.where(values < 1000, np.uint64(10), top))


def range_folds(values: np.ndarray, v_prime: np.ndarray, is_lon: bool) -> np.ndarray:
    """Post-cipher values ``v_prime`` of uint64 integer parts ``values``,
    each folded into its value's digit class."""
    edges, base, mod = _FOLDS[is_lon]
    cls = np.searchsorted(edges, values, side="right")
    inside = cls < len(edges)
    cls = np.minimum(cls, len(edges) - 1)
    return np.where(inside, base[cls] + v_prime % mod[cls], v_prime)


def fraction_folds(v_prime: np.ndarray, digits) -> np.ndarray:
    """Post-cipher fractions folded below 10**d, d their digit counts."""
    return v_prime % POW10[digits]


def encrypt_rounds_u64(v, w, t, rk, n_rounds: int) -> np.ndarray:
    """The tweak-driven XOR/rotate rounds over uint64 arrays.

    ``v``, ``w`` and ``t`` broadcast together, so each element carries its
    own mask width, with 0 <= v < 2**w and 1 <= w <= 64; ``rk`` holds the 32
    round keys.  Round i XORs in round key (i + t) mod 32 and rotates left by
    s = ((i ^ (t mod 8)) mod 7 + 1) mod w, 0 read as 1; s equals w only when
    w is 1, and the rotation is then the identity.
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
        x ^= rk[(tk + np.uint64(i)) & np.uint64(31)] & mask
        x = ((x << s) | (x >> (w - s))) & mask
    return x


def component_keys(values: np.ndarray, digits: np.ndarray | None) -> np.ndarray:
    """Codebook keys of checked components: value + REPUNIT[d] for fractions,
    the value itself for integer parts (``digits`` None)."""
    return values if digits is None else values + REPUNIT[digits]


def _lookup(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion positions of sorted ``values`` in sorted ``keys``, and which
    of them are already there."""
    pos = np.searchsorted(keys, values)
    if not len(keys):
        return pos, np.zeros(len(values), dtype=bool)
    return pos, keys[np.minimum(pos, len(keys) - 1)] == values


def _insert(book, keys: np.ndarray, encs: np.ndarray):
    """``book`` with the sorted ``keys`` it lacks and their ``encs`` added."""
    at = np.searchsorted(book[0], keys) + np.arange(len(keys))
    old = np.ones(len(book[0]) + len(keys), dtype=bool)
    old[at] = False
    merged = []
    for col, new in zip(book, (keys, encs)):
        out = np.empty(old.size, dtype=np.uint64)
        out[at] = new
        out[old] = col
        merged.append(out)
    return tuple(merged)


@dataclass
class CipherCounts:
    """Work done by ``CoordinateCipher.encrypt_batch`` since construction."""

    components: int = 0  # values passed in
    distinct: int = 0  # distinct keys, summed over calls
    hits: int = 0  # distinct keys found in the codebook
    kernel_calls: int = 0  # round-kernel calls
    tweaks: int = 0  # MD5 tweaks computed, one per miss


class CoordinateCipher:
    """Master key and derived schedule bound together, plus a codebook of
    the components encrypted so far.

    The key and schedule never change; every component runs ``ROUNDS``
    rounds.  The codebook of a kind maps the keys of the components
    encrypted so far (see ``component_keys``: value + REPUNIT[d] for a
    d-digit fraction) to their ciphertexts.  It is a book and a tail, each
    two sorted uint64 columns of keys and ciphertexts with no key in both.  A batch makes one pass:
    one ``np.unique``, one lookup in the book and the tail, one round-kernel
    call over all its misses, and one insert of the misses into the tail.
    The tail merges into the book only once it holds more than
    1/_TAIL_SHARE of it, so a batch copies the small tail, not the whole
    book.  Not thread-safe: the codebook and ``counts`` are updated without
    a lock, so an instance belongs to one thread.
    """

    def __init__(self, key: bytes):
        from .sm4 import derive_round_keys

        self.key = check_key(key)
        self.round_keys = derive_round_keys(self.key)
        self._rk = np.array(self.round_keys, dtype=np.uint64)
        self._key_hash = md5(self.key).digest()
        self._codebooks: dict[str, tuple] = {}  # kind -> (book, tail)
        self.counts = CipherCounts()

    def _tweaks(self, kind: str, values: np.ndarray) -> np.ndarray:
        """The 32-bit tweak of each value v, as uint64: the leading four bytes
        (big-endian) of MD5(kind ':' str(v) MD5(key))."""
        prefix, key_hash = kind.encode("ascii") + b":", self._key_hash
        digests = b"".join(
            [md5(b"%b%d%b" % (prefix, v, key_hash)).digest()[:4] for v in values.tolist()]
        )
        return np.frombuffer(digests, dtype=">u4").astype(np.uint64)

    def encrypt_batch(self, kind: str, values, digits=None) -> np.ndarray:
        """Encrypt a batch of one kind's components.

        ``digits`` holds the fraction digit count of each value; integer
        parts ignore it.  Returns uint64 ciphertexts in input order.
        """
        values, digits = _check_batch(kind, values, digits)
        uniq, first, inverse = np.unique(
            component_keys(values, digits), return_index=True, return_inverse=True
        )
        book, tail = self._codebooks.get(kind, _EMPTY_CODEBOOK)
        out = np.empty_like(uniq)
        hit = np.zeros(uniq.shape, dtype=bool)
        for keys, encs in (book, tail):
            pos, found = _lookup(keys, uniq)
            out[found] = encs[pos[found]]
            hit |= found
        miss = ~hit
        new = uniq[miss]
        if new.size:
            at = first[miss]
            out[miss] = enc = self._encrypt_misses(
                kind, values[at], None if digits is None else digits[at]
            )
            tail = _insert(tail, new, enc)
            if len(tail[0]) * _TAIL_SHARE > len(book[0]):
                book, tail = _insert(book, *tail), _EMPTY_BOOK
            self._codebooks[kind] = (book, tail)
        counts = self.counts
        counts.components += values.size
        counts.distinct += uniq.size
        counts.hits += uniq.size - new.size
        counts.kernel_calls += bool(new.size)
        counts.tweaks += new.size
        return out[inverse]

    def _encrypt_misses(
        self, kind: str, values: np.ndarray, digits: np.ndarray | None
    ) -> np.ndarray:
        """Tweaks, round kernel and range fold of one kind's components."""
        int_kind = is_int_part(kind)
        widths = mask_widths(values, digits, int_kind)
        c = encrypt_rounds_u64(values, widths, self._tweaks(kind, values), self._rk, ROUNDS)
        if int_kind:
            return range_folds(values, c, is_lon(kind))
        return fraction_folds(c, digits)
