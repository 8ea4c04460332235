"""Dense columnar mapping store: coordinate id -> (encrypted, original, digits).

The range/fraction constraints are lossy, so decryption is driven by this
store.  Four independent maps cover the longitude/latitude integer and
fraction parts.  Coordinate ids are dense, ``0..N-1``, and every id has one
entry per kind, so the id is the row of three columns.  Collisions between
different originals on the same encrypted value are expected, counted, and
harmless, because the exact lookup also checks the coordinate id.
"""

from __future__ import annotations

import csv
import os
import struct
import threading
import zlib
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cipher import KINDS

_MAGIC = b"GFPEMAP1"
# kind, coord_id, enc_value, orig_value, d: 26 bytes, little-endian, packed
_RECORD = np.dtype(
    [("kind", "u1"), ("coord_id", "<u8"), ("enc", "<u8"), ("orig", "<u8"), ("d", "u1")]
)
_FIELDS = ("enc", "orig", "d")
_COUNT = struct.Struct("<Q")
# records per chunk of a streaming save or load (852 KB)
_CHUNK_RECORDS = 32768
_KIND_CODE = {kind: i for i, kind in enumerate(KINDS)}


class MapFormatError(ValueError):
    """The map file is not a readable GFPEMAP1 store."""


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


def _read_section(fh, chunk: np.ndarray, kind: str, count: int, path):
    """The enc, orig and d columns of one kind's ``count`` records, read
    through the record array ``chunk``.

    A foreign kind code anywhere in the section is reported before an id
    out of order, as a whole-section check would."""
    cols = (array("Q", [0]) * count, array("Q", [0]) * count, array("B", [0]) * count)
    views = [_view(col) for col in cols]
    ids_in_order = True
    for lo in range(0, count, len(chunk)):
        hi = min(lo + len(chunk), count)
        part = chunk[: hi - lo]
        _read_into(fh, part.view("B"), path)
        foreign = part["kind"] != _KIND_CODE[kind]
        if foreign.any():
            raise MapFormatError(
                f"{path}: record kind {part['kind'][foreign][0]} in {kind} section"
            )
        ids_in_order = ids_in_order and np.array_equal(
            part["coord_id"], np.arange(lo, hi, dtype="u8")
        )
        for view, field in zip(views, _FIELDS):
            view[lo:hi] = part[field]
    if not ids_in_order:
        raise MapFormatError(
            f"{path}: {kind} coordinate ids are not 0..{count - 1} in order"
        )
    return cols


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

    def save(self, path) -> None:
        """Write the store: magic, then per kind an entry count and fixed-width
        records in coordinate-id order, trailed by a CRC32 of everything
        before it.

        The records stream out ``_CHUNK_RECORDS`` at a time through one
        reused record array per kind, under a running CRC, so a save holds
        the columns plus one chunk.  The bytes go to a sibling
        ``<path>.tmp`` that then replaces ``path``, so a failed save leaves
        any earlier map at ``path`` untouched."""
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "wb") as fh, self._lock:
                crc = 0

                def write(data) -> None:
                    nonlocal crc
                    fh.write(data)
                    crc = zlib.crc32(data, crc)

                write(_MAGIC)
                for kind in KINDS:
                    cols = [_view(col) for col in self._cols[kind]]
                    n = len(cols[0])
                    write(_COUNT.pack(n))
                    chunk = np.empty(min(n, _CHUNK_RECORDS), dtype=_RECORD)
                    chunk["kind"] = _KIND_CODE[kind]
                    for lo in range(0, n, _CHUNK_RECORDS):
                        hi = min(lo + _CHUNK_RECORDS, n)
                        part = chunk[: hi - lo]
                        part["coord_id"] = np.arange(lo, hi)
                        for field, col in zip(_FIELDS, cols):
                            part[field] = col[lo:hi]
                        write(part)
                fh.write(struct.pack("<I", crc))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "MappingStore":
        """Read a GFPEMAP1 map.  Each kind's ids must run ``0..count-1`` in
        order, as ``save`` writes them.

        Two streaming passes read the file ``_CHUNK_RECORDS`` records at a
        time into one reused record array.  The first checks the CRC, so a
        corrupted file reports a checksum failure before any structural
        error; the second checks each chunk's kind codes and ids and copies
        its fields into columns sized from the section's count.  A load
        holds the columns plus one chunk."""
        with open(path, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size - 4
            if end < len(_MAGIC):
                raise MapFormatError(f"{path}: truncated map file")
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise MapFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
            chunk = np.empty(_CHUNK_RECORDS, dtype=_RECORD)
            raw = chunk.view("B")
            crc = zlib.crc32(magic)
            for lo in range(len(_MAGIC), end, raw.size):
                part = raw[: min(raw.size, end - lo)]
                _read_into(fh, part, path)
                crc = zlib.crc32(part, crc)
            if fh.read(4) != struct.pack("<I", crc):
                raise MapFormatError(f"{path}: checksum failure")
            fh.seek(len(_MAGIC))
            store = cls()
            pos = len(_MAGIC)
            for kind in KINDS:
                if pos + _COUNT.size > end:
                    raise MapFormatError(f"{path}: truncated map file")
                (count,) = _COUNT.unpack(fh.read(_COUNT.size))
                pos += _COUNT.size + count * _RECORD.itemsize
                if pos > end:
                    raise MapFormatError(f"{path}: truncated map file")
                store._cols[kind] = _read_section(fh, chunk, kind, count, path)
            if pos != end:
                raise MapFormatError(f"{path}: {end - pos} trailing bytes")
        return store

    def export_csv(self, path) -> None:
        """Diagnostic audit export, in coordinate-id order per kind."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "coord_id", "enc_value", "orig_value"])
            with self._lock:
                for kind in KINDS:
                    enc_col, orig_col, _ = self._cols[kind]
                    writer.writerows(
                        (kind, cid, enc, orig)
                        for cid, (enc, orig) in enumerate(zip(enc_col, orig_col))
                    )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MappingStore):
            return NotImplemented
        return self._cols == other._cols
