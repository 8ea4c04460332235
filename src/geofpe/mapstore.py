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
import threading
import zlib
from array import array
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
# values per column slice of a save or a load; a load reads through one
# buffer of a slice of 8-byte values (256 KB)
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


def _width(col: np.ndarray) -> int:
    """The byte width GFPEMAP2 stores a column in: 0 when every value is 0,
    else the narrowest of 1, 2, 4 and 8 bytes that holds the largest."""
    top = int(col.max()) if col.size else 0
    return next(w for w in _WIDTHS if top < 1 << 8 * w)


@dataclass(frozen=True)
class Ambiguous:
    """Fuzzy lookup hit several distinct originals."""

    candidates: int


def _view(col: array) -> np.ndarray:
    """Zero-copy numpy view of an array column."""
    return np.frombuffer(col, dtype=col.typecode)


def _distinct_entries(enc_col: array, orig_col: array, d_col: array):
    """The distinct (enc, orig, d) entries of one kind, sorted by enc, orig
    then d, with the kind's conflict count and conflict rate.  Conflicts are
    counted over (enc, orig) pairs, whatever their digit counts."""
    enc, orig, d = _view(enc_col), _view(orig_col), _view(d_col)
    order = np.lexsort((d, orig, enc))
    enc, orig, d = enc[order], orig[order], d[order]
    new_enc = np.r_[True, enc[1:] != enc[:-1]][: enc.size]
    new_pair = new_enc | np.r_[True, orig[1:] != orig[:-1]][: enc.size]
    new_entry = new_pair | np.r_[True, d[1:] != d[:-1]][: enc.size]
    n_enc, n_pairs = int(new_enc.sum()), int(new_pair.sum())
    run_sizes = np.diff(np.append(np.flatnonzero(new_enc[new_pair]), n_pairs))
    rate = Fraction(int((run_sizes >= 2).sum()), n_enc) if n_enc else Fraction(0)
    return enc[new_entry], orig[new_entry], d[new_entry], n_pairs - n_enc, rate


def _read_into(fh, buf: np.ndarray, path) -> None:
    """Fill ``buf`` from ``fh``; a short read means the file was cut."""
    if fh.readinto(buf) != buf.nbytes:
        raise MapFormatError(f"{path}: truncated map file")


def _read_columns(fh, raw: np.ndarray, end: int, path, fingerprint: bytes):
    """The columns and column widths of each kind of a GFPEMAP2 file whose
    CRC has been checked, ``fh`` just past the magic.  The key fingerprint
    is compared before any section is read."""
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
        columns[kind] = cols = (array("Q", [0]) * count, array("Q", [0]) * count,
                                array("B", [0]) * count)
        for col, w in zip(cols, kind_widths):
            view = _view(col)
            for lo in range(0, count if w else 0, _SLICE):
                part = view[lo : lo + _SLICE]
                buf = raw[: part.size * w]
                _read_into(fh, buf, path)
                part[:] = buf.view(f"<u{w}")
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
    """Per kind, three columns indexed by coordinate id: ``array("Q")``
    encrypted values, ``array("Q")`` original values and ``array("B")``
    fraction digit counts.

    ``append`` gives the next ids of a kind one entry each.  The exact
    lookup is ``lookup_exact_batch``, by coordinate id; ``lookup_fuzzy`` is
    the fallback by encrypted value alone.  Both take a digit count and match
    only entries stored with it.  ``lookup_fuzzy``, ``conflicts`` and
    ``conflict_rate`` derive from the distinct (enc, orig, d) entries of a
    kind, built lazily under the lock and dropped on ``append``, so a
    decrypt whose exact lookups all hit never builds them.  The conflict
    count of a kind is the number of distinct originals beyond the first
    over all encrypted values, so it does not depend on id order.
    """

    def __init__(self) -> None:
        self._cols: dict[str, tuple[array, array, array]] = {
            k: (array("Q"), array("Q"), array("B")) for k in KINDS
        }
        self._entries: dict[str, tuple] = {}  # kind -> _distinct_entries(...)
        self._lock = threading.Lock()
        self.layout: MapLayout | None = None  # of the map file last saved or loaded

    def append(self, kind: str, enc, orig, d) -> None:
        """Store one entry per position of the equal-length sequences enc,
        orig and d under the next coordinate ids of ``kind``."""
        new = (array("Q", enc), array("Q", orig), array("B", d))
        if len({len(col) for col in new}) != 1:
            raise ValueError(f"{kind}: column lengths differ: {[len(c) for c in new]}")
        with self._lock:
            for col, values in zip(self._cols[kind], new):
                col.extend(values)
            self._entries.pop(kind, None)

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
        with self._lock:
            enc_col, orig_col, d_col = (_view(col) for col in self._cols[kind])
            hit = (ids >= 0) & (ids < len(enc_col))
            rows = ids[hit]
            match = (enc_col[rows] == enc_values[hit]) & (d_col[rows] == digits[hit])
            hit[hit] = match
            found[hit] = orig_col[rows[match]]
        return hit, found

    def _distinct(self, kind: str) -> tuple:
        entries = self._entries.get(kind)
        if entries is None:
            with self._lock:
                entries = self._entries.get(kind)
                if entries is None:
                    entries = self._entries[kind] = _distinct_entries(*self._cols[kind])
        return entries

    def lookup_fuzzy(self, kind: str, enc_value: int, digits: int) -> int | Ambiguous | None:
        """Fallback lookup by encrypted value and digit count (0 for integer
        parts), whatever the coordinate id.

        Returns the original when exactly one distinct value matches, an
        Ambiguous marker with the candidate count when several do, and None
        when none does.
        """
        if not 0 <= enc_value < 1 << 64:
            return None
        enc, orig, d, _, _ = self._distinct(kind)
        lo, hi = (int(np.searchsorted(enc, np.uint64(enc_value), side))
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
        return len(self._cols[kind][0])

    def save(self, path, fingerprint: bytes) -> None:
        """Write the store as GFPEMAP2: the magic and the 16-byte key
        fingerprint (``cipher.map_fingerprint``), then per kind in ``KINDS``
        order a ``<Q`` entry count, the byte widths of its enc, orig and d
        columns (see ``_width``) and the three columns in coordinate-id
        order, trailed by a CRC32 of everything before it.

        Each column streams out ``_SLICE`` values at a time under a
        running CRC, so a save holds the columns plus one slice.  The map is
        written through ``replacing`` with mode 0600 and fsynced before it
        replaces ``path``, so a failed save leaves any earlier map there
        untouched."""
        fingerprint = bytes(fingerprint)
        if len(fingerprint) != _FINGERPRINT_SIZE:
            raise ValueError(f"map fingerprint must be {_FINGERPRINT_SIZE} bytes")
        widths = {}
        with replacing(path, binary=True, perms=0o600) as fh, self._lock:
            crc = 0

            def write(data) -> None:
                nonlocal crc
                fh.write(data)
                crc = zlib.crc32(data, crc)

            write(_MAGIC + fingerprint)
            for kind in KINDS:
                cols = [_view(col) for col in self._cols[kind]]
                widths[kind] = kind_widths = tuple(_width(col) for col in cols)
                write(_HEADER.pack(len(cols[0]), *kind_widths))
                for col, w in zip(cols, kind_widths):
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
        next.  A second pass fills each kind's columns, sized from its count,
        ``_SLICE`` values at a time.  A load holds the columns plus
        one buffer of a slice of 8-byte values."""
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
            columns, widths = _read_columns(fh, raw, end, path, bytes(fingerprint))
        store = cls()
        store._cols = columns
        store.layout = MapLayout(widths)
        return store

    def __eq__(self, other) -> bool:
        if not isinstance(other, MappingStore):
            return NotImplemented
        return self._cols == other._cols
