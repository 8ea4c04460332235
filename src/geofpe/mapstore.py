"""Dense columnar mapping store: coordinate id -> (encrypted, original, digits).

The range/fraction constraints are lossy, so decryption is driven by this
store.  Four independent maps cover the longitude/latitude integer and
fraction parts.  Coordinate ids are dense, ``0..N-1``, and every id has one
entry per kind, so the id is the row of three columns.  Collisions between
different originals on the same encrypted value are expected, counted, and
harmless, because the exact lookup also checks the coordinate id.

Maps are GFPEMAP2: each column at the narrowest width that holds it, under
a fingerprint of the key (see ``MappingStore.save``).  Maps in the earlier
record layout hold no key, and are refused.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cipher import KINDS

_MAGIC = b"GFPEMAP2"
_FINGERPRINT_SIZE = 16
# a GFPEMAP2 section header: entry count, then the enc, orig and d byte widths
_HEADER = struct.Struct("<Q3B")
_WIDTHS = (0, 1, 2, 4, 8)
_FIELDS = ("enc", "orig", "d")
# values per column slice of a save, and per buffer of the load's checksum
# pass, which reads a slice of 8-byte values (256 KB) at a time
_SLICE = 32768


class MapFormatError(ValueError):
    """The map file is not a readable GFPEMAP2 store, or it was written under
    a different key."""


@dataclass(frozen=True)
class MapLayout:
    """How a GFPEMAP2 file holds a store: per kind the byte widths of its
    enc, orig and d columns."""

    widths: dict[str, tuple[int, int, int]]

    def __str__(self) -> str:
        widths = ", ".join(
            f"{kind} {'/'.join(map(str, w))}" for kind, w in self.widths.items()
        )
        return f"{_MAGIC.decode()}, enc/orig/d bytes {widths}"


def _bits(col: np.ndarray) -> int:
    """The bit length of the column's largest value."""
    return int(col.max()).bit_length() if col.size else 0


def _width(col: np.ndarray) -> int:
    """The byte width GFPEMAP2 stores a column in: 0 when every value is 0,
    else the narrowest of 1, 2, 4 and 8 bytes that holds the largest."""
    bits = _bits(col)
    return next(w for w in _WIDTHS if bits <= 8 * w)


@dataclass(frozen=True)
class Ambiguous:
    """Fuzzy lookup hit several distinct originals."""

    candidates: int


def _zeros(n: int) -> np.ndarray:
    """A width-0 column of n zeros: a read-only broadcast that holds no bytes."""
    return np.broadcast_to(np.uint8(0), (n,))


def _held(col: np.ndarray) -> int:
    """The bytes a column holds in memory; a ``_zeros`` column holds none."""
    return col.nbytes if col.strides[0] else 0


def _narrow(values) -> np.ndarray:
    """A copy of the uint64 values at their GFPEMAP2 width (see ``_width``)."""
    col = np.asarray(values, dtype=np.uint64)
    w = _width(col)
    return col.astype(f"u{w}") if w else _zeros(col.size)


def _join(parts: list) -> np.ndarray:
    """One column of the chunks ``parts``, possibly none, at the widest
    chunk's width."""
    if len(parts) == 1:
        return parts[0]
    if not any(map(_held, parts)):
        return _zeros(sum(map(len, parts)))
    return np.concatenate(parts)


def _starts(col: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted column starts."""
    starts = np.empty(col.size, dtype=bool)
    starts[:1] = True
    np.not_equal(col[1:], col[:-1], out=starts[1:])
    return starts


def _distinct_triples(enc: list, orig: list, d: list):
    """The distinct (enc, orig, d) entries of the chunks of three columns,
    sorted by enc, orig then d, each at its joined column's dtype.  When the
    three fit side by side in 64 bits, as fractions of up to 9 digits do,
    they are packed chunk by chunk into one key, sorted in place, in about
    half the memory of a lexsort's index arrays, and the chunks stay as
    they are."""
    enc_bits, orig_bits, d_bits = (max(map(_bits, parts), default=0) for parts in (enc, orig, d))
    dtypes = [np.result_type(*parts) if parts else np.uint8 for parts in (enc, orig, d)]
    if enc_bits + orig_bits + d_bits > 64:
        enc, orig, d = map(_join, (enc, orig, d))
        order = np.lexsort((d, orig, enc))
        enc, orig, d = enc[order], orig[order], d[order]
        new = _starts(enc) | _starts(orig) | _starts(d)
        return enc[new], orig[new], d[new]
    key = np.empty(sum(map(len, enc)), dtype=np.uint64)
    at = 0
    for chunk in zip(enc, orig, d):
        part = key[at : at + len(chunk[0])]
        part[:] = chunk[0]
        for col, bits in zip(chunk[1:], (orig_bits, d_bits)):
            part <<= bits
            part |= col
        at += len(part)
    key.sort()
    key = key[_starts(key)]
    return ((key >> orig_bits + d_bits).astype(dtypes[0]),
            (key >> d_bits & (1 << orig_bits) - 1).astype(dtypes[1]),
            (key & (1 << d_bits) - 1).astype(dtypes[2]))


def _distinct_entries(enc: list, orig: list, d: list):
    """The distinct (enc, orig, d) entries of one kind's column chunks (see
    ``_distinct_triples``), with the kind's conflict count and conflict
    rate.  Conflicts are counted over (enc, orig) pairs, whatever their
    digit counts."""
    enc, orig, d = _distinct_triples(enc, orig, d)
    new_enc = _starts(enc)
    new_pair = new_enc | _starts(orig)
    n_enc, n_pairs = int(new_enc.sum()), int(new_pair.sum())
    run_sizes = np.diff(np.append(np.flatnonzero(new_enc[new_pair]), n_pairs))
    rate = Fraction(int((run_sizes >= 2).sum()), n_enc) if n_enc else Fraction(0)
    return enc, orig, d, n_pairs - n_enc, rate


def _read_into(fh, buf: np.ndarray, path) -> None:
    """Fill ``buf`` from ``fh``; a short read means the file was cut."""
    if fh.readinto(buf) != buf.nbytes:
        raise MapFormatError(f"{path}: truncated map file")


def _read_columns(fh, end: int, path, fingerprint: bytes):
    """The columns and column widths of each kind of a GFPEMAP2 file whose
    CRC has been checked, ``fh`` just past the magic.  Each column is read
    straight into an array of its file width.  The key fingerprint is
    compared before any section is read."""
    pos = len(_MAGIC) + _FINGERPRINT_SIZE
    if pos > end:
        raise MapFormatError(f"{path}: truncated map file")
    if fh.read(_FINGERPRINT_SIZE) != fingerprint:
        raise MapFormatError(f"{path}: map written under a different key")
    columns, widths = {}, {}
    for kind in KINDS:
        if pos + _HEADER.size > end:
            raise MapFormatError(f"{path}: truncated map file")
        count, *kind_widths = _HEADER.unpack(fh.read(_HEADER.size))
        for field, w in zip(_FIELDS, kind_widths):
            allowed = (0, 1) if field == "d" else _WIDTHS
            if w not in allowed:
                raise MapFormatError(
                    f"{path}: {kind} {field} width {w} is not one of "
                    f"{', '.join(map(str, allowed))}"
                )
        pos += _HEADER.size + count * sum(kind_widths)
        if pos > end:
            raise MapFormatError(f"{path}: truncated map file")
        columns[kind] = cols = tuple(
            [np.empty(count, f"<u{w}") if w else _zeros(count)] for w in kind_widths
        )
        for (col,), w in zip(cols, kind_widths):
            if w:
                _read_into(fh, col, path)
        widths[kind] = tuple(kind_widths)
    if pos != end:
        raise MapFormatError(f"{path}: {end - pos} trailing bytes")
    return columns, widths


@contextmanager
def replacing(path, *, binary: bool = False, perms: int = 0o666):
    """Open a new ``<path>.tmp`` for writing, UTF-8 text with newlines kept
    as written unless ``binary``, and ``os.replace`` it onto ``path`` when
    the block ends; on any exception it is removed, so an earlier file at
    ``path`` is left as it was.  Whatever is at ``<path>.tmp`` beforehand, a
    stale file or a symlink, is removed first, and the file is created with
    ``O_EXCL`` and mode ``perms`` less the umask, so neither its mode nor a
    symlink's target carries over.  Every file geofpe writes goes through
    here."""
    tmp = f"{os.fspath(path)}.tmp"
    if os.path.lexists(tmp):
        os.unlink(tmp)
    fh = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8",
              newline=None if binary else "",
              opener=lambda name, flags: os.open(name, flags, perms))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise


class MappingStore:
    """Per kind, three columns indexed by coordinate id: encrypted values,
    original values and fraction digit counts, each held as unsigned
    integers of its GFPEMAP2 width (see ``_width``): 1, 2, 4 or 8 bytes, or
    none for a column of zeros.  A loaded store holds what its file holds.

    ``append`` gives the next ids of a kind one entry each, kept as a chunk
    of its own at its own narrowest width; ``save`` streams the chunks, and
    the first lookup or conflict query of a kind joins its chunks into one
    column at the widest chunk's width.  The exact
    lookup is ``lookup_exact_batch``, by coordinate id; ``lookup_fuzzy`` is
    the fallback by encrypted value alone.  Both take a digit count and match
    only entries stored with it.  ``lookup_fuzzy``, ``conflicts`` and
    ``conflict_rate`` derive from the distinct (enc, orig, d) entries of a
    kind, built lazily and dropped on ``append``, so a decrypt whose exact
    lookups all hit never builds them.  The conflict count of a kind is the
    number of distinct originals beyond the first over all encrypted
    values, so it does not depend on id order.

    Not thread-safe: even a lookup may join chunks or build the distinct
    entries in place, so a store belongs to one thread.
    """

    def __init__(self) -> None:
        # kind -> the chunks of its enc, orig and d columns
        self._cols: dict[str, tuple[list, list, list]] = {
            k: ([], [], []) for k in KINDS
        }
        self._entries: dict[str, tuple] = {}  # kind -> _distinct_entries(...)
        self.layout: MapLayout | None = None  # of the map file last saved or loaded

    def append(self, kind: str, enc, orig, d) -> None:
        """Store one entry per position of the equal-length sequences enc,
        orig and d under the next coordinate ids of ``kind``."""
        new = tuple(map(_narrow, (enc, orig, d)))
        if len({len(col) for col in new}) != 1:
            raise ValueError(f"{kind}: column lengths differ: {[len(c) for c in new]}")
        if new[2].itemsize > 1:
            raise ValueError(f"{kind}: digit counts must be below 256")
        for parts, col in zip(self._cols[kind], new):
            parts.append(col)
        self._entries.pop(kind, None)

    def _joined(self, kind: str) -> tuple:
        """The enc, orig and d columns of ``kind``, each joined in place
        from its chunks."""
        cols = self._cols[kind]
        for parts in cols:
            parts[:] = [_join(parts)]
        return tuple(parts[0] for parts in cols)

    def lookup_exact_batch(self, kind: str, coord_ids, enc_values, digits):
        """Exact lookup of arrays of int64 ids, uint64 encrypted values and
        digit counts (0 for integer parts; a scalar applies to every id).
        An id hits when it is a row of ``kind`` whose entry holds that
        encrypted value and digit count.  Returns a hit mask, and the
        originals as uint64 (0 where it misses)."""
        ids = np.asarray(coord_ids, dtype=np.int64)
        enc_values = np.asarray(enc_values, dtype=np.uint64)
        digits = np.broadcast_to(np.asarray(digits), ids.shape)
        found = np.zeros(ids.shape, dtype=np.uint64)
        enc_col, orig_col, d_col = self._joined(kind)
        hit = (ids >= 0) & (ids < len(enc_col))
        rows = ids[hit]
        match = (enc_col[rows] == enc_values[hit]) & (d_col[rows] == digits[hit])
        hit[hit] = match
        found[hit] = orig_col[rows[match]]
        return hit, found

    def _distinct(self, kind: str) -> tuple:
        if kind not in self._entries:
            self._entries[kind] = _distinct_entries(*self._cols[kind])
        return self._entries[kind]

    def lookup_fuzzy(self, kind: str, enc_value: int, digits: int) -> int | Ambiguous | None:
        """Fallback lookup by encrypted value and digit count (0 for integer
        parts), whatever the coordinate id.

        Returns the original when exactly one distinct value matches, an
        Ambiguous marker with the candidate count when several do, and None
        when none does.
        """
        enc, orig, d, _, _ = self._distinct(kind)
        # a value wider than the column cannot be in it; a needle of the
        # column's own dtype keeps searchsorted from copying the column
        if not 0 <= enc_value < 1 << 8 * enc.itemsize:
            return None
        lo, hi = (int(np.searchsorted(enc, enc.dtype.type(enc_value), side))
                  for side in ("left", "right"))
        candidates = orig[lo:hi][d[lo:hi] == digits]
        if len(candidates) > 1:
            return Ambiguous(len(candidates))
        return int(candidates[0]) if len(candidates) else None

    def conflicts(self, kind: str) -> int:
        return self._distinct(kind)[3]

    def conflict_rate(self, kind: str) -> Fraction:
        """Share of distinct encrypted values mapping to >= 2 originals."""
        return self._distinct(kind)[4]

    def entry_count(self, kind: str) -> int:
        return sum(map(len, self._cols[kind][0]))

    def column_bytes(self) -> int:
        """The bytes the columns of every kind hold in memory."""
        return sum(_held(col) for cols in self._cols.values()
                   for parts in cols for col in parts)

    def save(self, path, fingerprint: bytes) -> None:
        """Write the store as GFPEMAP2: the magic and the 16-byte key
        fingerprint (``cipher.map_fingerprint``), then per kind in ``KINDS``
        order a ``<Q`` entry count, the byte widths of its enc, orig and d
        columns (see ``_width``) and the three columns in coordinate-id
        order, trailed by a CRC32 of everything before it.

        Each column streams out chunk by chunk, ``_SLICE`` values at a
        time cast to the column's width, under a running CRC, so a save holds
        the columns plus one slice; it does not join the chunks.  The map is
        written through ``replacing`` with mode 0600 and fsynced before it
        replaces ``path``, so a failed save leaves any earlier map there
        untouched."""
        fingerprint = bytes(fingerprint)
        if len(fingerprint) != _FINGERPRINT_SIZE:
            raise ValueError(f"map fingerprint must be {_FINGERPRINT_SIZE} bytes")
        widths = {}
        with replacing(path, binary=True, perms=0o600) as fh:
            crc = 0

            def write(data) -> None:
                nonlocal crc
                fh.write(data)
                crc = zlib.crc32(data, crc)

            write(_MAGIC + fingerprint)
            for kind in KINDS:
                cols = self._cols[kind]
                widths[kind] = kind_widths = tuple(
                    max(map(_width, parts), default=0) for parts in cols
                )
                write(_HEADER.pack(self.entry_count(kind), *kind_widths))
                for parts, w in zip(cols, kind_widths):
                    for col in parts:
                        for lo in range(0, len(col) if w else 0, _SLICE):
                            write(col[lo : lo + _SLICE].astype(f"<u{w}"))
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        self.layout = MapLayout(widths)

    @classmethod
    def load(cls, path, fingerprint: bytes) -> "MappingStore":
        """Read a GFPEMAP2 map written under ``fingerprint`` and set the
        store's ``layout`` to the file's.  A map of the earlier record layout
        holds no key, so it is refused.

        A first streaming pass checks the CRC, so a corrupted file reports a
        checksum failure before any other error; the fingerprint is compared
        next.  A second pass reads each column into an array of its file
        width, sized from its count.  A load holds the columns plus one
        buffer of a slice of 8-byte values."""
        with open(path, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size - 4
            if end < len(_MAGIC):
                raise MapFormatError(f"{path}: truncated map file")
            magic = fh.read(len(_MAGIC))
            if magic == b"GFPEMAP1":
                raise MapFormatError(
                    f"{path}: GFPEMAP1 maps are no longer read: they hold no key "
                    "fingerprint; re-encrypt the plaintext to write a GFPEMAP2 map"
                )
            if magic != _MAGIC:
                raise MapFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
            raw = np.empty(_SLICE * 8, dtype="B")
            crc = zlib.crc32(magic)
            for lo in range(len(_MAGIC), end, raw.size):
                part = raw[: min(raw.size, end - lo)]
                _read_into(fh, part, path)
                crc = zlib.crc32(part, crc)
            if fh.read(4) != struct.pack("<I", crc):
                raise MapFormatError(f"{path}: checksum failure")
            fh.seek(len(_MAGIC))
            columns, widths = _read_columns(fh, end, path, bytes(fingerprint))
        store = cls()
        store._cols = columns
        store.layout = MapLayout(widths)
        return store

    def __eq__(self, other) -> bool:
        if not isinstance(other, MappingStore):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for kind in KINDS
            for a, b in zip(self._joined(kind), other._joined(kind))
        )
