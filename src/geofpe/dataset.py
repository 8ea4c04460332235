"""Trajectory dataset pipeline: the reader of both layouts, encrypt, decrypt.

Input files follow the taxi-trace convention "id,datetime,longitude,latitude",
one file per vehicle named <vehicle_id>.txt.  Encrypted files prepend a
coordinate id column; decrypted files restore the original four-column layout
byte for byte.  Each accepted line keeps its own terminator ("\n", "\r\n",
"\r" or none on a last line) through encryption and decryption.

_read is the one reader of both layouts, for encrypt, decrypt and the eval
loaders of ``geofpe.metrics``.  It reads files in name order into slices of
text, each walked by ``geofpe.text`` with one whole-text match per run of
accepted lines; a line where the walk stops is blanked to spaces in the
slice and gets its reason from the pattern's own pieces.  A slice's accepted lines are
then gathered from its bytes with numpy into columns: byte positions, and
per axis the integer part, fraction value and digit count.  Encrypt and
decrypt write the new digits back into the slice's bytes; the eval loaders
turn the columns into floats.
"""

from __future__ import annotations

import logging
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .cipher import KINDS, POW10, CoordinateCipher
from .mapstore import MappingStore
from .text import (
    MAX_FRAC_DIGITS,
    _dataset_files,
    _enc_reject_reason,
    _Part,
    _reject_reason,
    _walk,
    replacing,
)

log = logging.getLogger("geofpe.dataset")

# Bytes of text read per slice.  Encrypt and decrypt hold a slice's bytes
# and columns through the cipher or the map lookups and build each file's
# output from them, so their slices stay small: at 256 KB their peak memory
# per point grew by a tenth.  The eval loaders keep only the floats, so
# theirs are larger (``metrics._LOAD_SLICE``).
_CIPHER_SLICE = 1 << 16
_PAD = b" " * (MAX_FRAC_DIGITS + 1)  # so that a gather never reads past the buffer


# ---------------------------------------------------------------------------
# The reader


@dataclass
class _Axis:
    """A coordinate field of each gathered line."""

    neg: np.ndarray  # a "-" leads it
    start: np.ndarray  # byte of its first integer digit
    dot: np.ndarray  # byte past its integer digits: the "." or the field's end
    ints: np.ndarray  # uint64 integer parts
    fracs: np.ndarray  # uint64 fraction values
    digits: np.ndarray  # fraction digit counts


@dataclass
class _Rows:
    """The accepted lines of a slice as columns, in line order."""

    start: np.ndarray  # byte of the line's start
    comma: np.ndarray  # byte of its first comma
    eol: np.ndarray  # byte of its terminator, or of the "\n" after its file
    end: np.ndarray  # byte past its terminator
    lon: _Axis
    lat: _Axis

    def components(self) -> list[tuple]:
        """(kind, values, digit counts) of each component kind, in KINDS order."""
        zeros = np.zeros(len(self.start), dtype=np.int64)
        lon, lat = self.lon, self.lat
        return list(zip(KINDS, (lon.ints, lon.fracs, lat.ints, lat.fracs),
                        (zeros, lon.digits, zeros, lat.digits)))

    def widths(self) -> list[np.ndarray]:
        """The digit count of each kind's field of each row, in KINDS order."""
        lon, lat = self.lon, self.lat
        return [lon.dot - lon.start, lon.digits, lat.dot - lat.start, lat.digits]

    def put(self, buf, values) -> None:
        """Write one uint64 column of ``values`` per kind, in KINDS order,
        over each row's field of that kind in ``buf``, zero-padded to its
        width."""
        lon, lat = self.lon, self.lat
        for start, col, width in zip((lon.start, lon.dot + 1, lat.start, lat.dot + 1),
                                     values, self.widths()):
            _put(buf, start, col, width)


@dataclass
class _Slice:
    """Files read at once: their text as bytes, each followed by a "\n",
    every line where the walk stopped blanked to spaces, and _PAD; the
    columns of their accepted lines, and the lines read one by one (the
    stop lines)."""

    encrypted: bool
    buf: np.ndarray  # writable uint8
    parts: list[_Part]
    rows: _Rows | None = None
    line_path: int = 0
    _ends: np.ndarray | None = None  # bytes that end a line

    def line_nos(self, part: _Part, at) -> list[int]:
        """The line numbers in ``part`` of the lines that start at bytes ``at``."""
        if self._ends is None:
            buf = self.buf
            eols = np.flatnonzero((buf == 10) | (buf == 13))
            self._ends = eols[(buf[eols] == 10) | (buf[eols + 1] != 10)]  # "\r\n" ends one
        ends = self._ends
        return (np.searchsorted(ends, at) - np.searchsorted(ends, part.start) + 1).tolist()

    def errors(self, part: _Part) -> list[tuple[int, str]]:
        """The (line no, reason) of each stop line of ``part``, in order, with
        the reason of the slice's layout."""
        if not part.stops:
            return []
        reason = _enc_reject_reason if self.encrypted else _reject_reason
        at, lines = zip(*part.stops)
        return list(zip(self.line_nos(part, np.add(at, part.start)), map(reason, lines)))


def _read(paths, encrypted, size: int):
    """The files at ``paths``, in order, as slices of about ``size`` bytes of
    text, each of one layout (see _walk).  A file with no bytes to gather
    is a part of the slice all the same."""
    parts, chunks, at, layout = [], [], 0, encrypted
    for path in paths:
        part = _Part(path, at, at)
        data, enc = _walk(part, encrypted)
        if data is not None:
            if chunks and enc != layout:
                yield _slice(layout, parts, chunks)
                parts, at = [], 0
            layout = enc
            part.start, part.end = at, at + len(data)
            chunks += (data, b"\n")
            at = part.end + 1
        parts.append(part)
        if at >= size:
            yield _slice(layout, parts, chunks)
            parts, at = [], 0
    if parts:
        yield _slice(layout, parts, chunks)


def _slice(encrypted, parts: list[_Part], chunks: list[bytes]) -> _Slice:
    """The slice of ``parts``, from their bytes in ``chunks``, which it
    empties: the columns of their accepted lines, and each part's rows."""
    buf = np.frombuffer(bytearray().join([*chunks, _PAD]), np.uint8)
    chunks.clear()
    sl = _Slice(bool(encrypted), buf, parts)
    sl.line_path = sum(len(part.stops) for part in parts)
    rows = _gather(buf, sl.encrypted)
    bounds = np.searchsorted(rows.start, [(part.start, part.end) for part in parts])
    for part, (lo, hi) in zip(parts, bounds.tolist()):
        part.rows = range(lo, hi)
    sl.rows = rows
    return sl


def _gather(buf: np.ndarray, encrypted: bool) -> _Rows:
    """The columns of the accepted lines of a slice's bytes, where every
    non-blank line has 3 commas, or 4 encrypted, and ends in a terminator."""
    commas = np.flatnonzero(buf == 44).reshape(-1, 4 if encrypted else 3)
    eols = np.flatnonzero((buf == 10) | (buf == 13))
    dots = np.append(np.flatnonzero(buf == 46), len(buf))
    lat_start = commas[:, -1] + 1
    eol = eols[np.searchsorted(eols, lat_start)]
    start = np.append(0, eols + 1)[np.searchsorted(eols, commas[:, 0])]
    end = eol + 1 + ((buf[eol] == 13) & (buf[eol + 1] == 10))
    # both axes in one pass: the lon fields, then the lat ones
    both = _axis(buf, dots, np.concatenate((commas[:, -2] + 1, lat_start)),
                 np.concatenate((commas[:, -1], eol)))
    lon, lat = (_Axis(*(col[half] for col in vars(both).values()))
                for half in (slice(len(start)), slice(len(start), None)))
    return _Rows(start, commas[:, 0].copy(), eol, end, lon, lat)


def _axis(buf, dots, start, end) -> _Axis:
    """The coordinate fields at ``buf[start:end]``."""
    neg = buf[start] == 45  # "-"
    start = start + neg
    dot = np.minimum(dots[np.searchsorted(dots, start)], end)
    digits = np.maximum(end - dot - 1, 0)
    return _Axis(neg, start, dot, _number(buf, start, dot - start),
                 _number(buf, dot + 1, digits), digits)


def _number(buf, start, width) -> np.ndarray:
    """The uint64 value of the decimal digits at ``buf[start:start + width]``
    of each row, one digit a pass."""
    value = np.zeros(len(start), dtype=np.uint64)
    for k in range(int(width.max(initial=0))):
        value = np.where(width > k, value * 10 + (buf[start + k] - 48), value)
    return value


def _put(buf, start, values, widths) -> None:
    """Write each of the uint64 ``values`` as decimal digits, zero-padded to
    its width, at ``buf[start:start + width]``, one digit a pass from the
    last."""
    end = start + widths
    values = np.array(values, dtype=np.uint64)
    digit = np.empty_like(values)
    for k in range(1, int(widths.max(initial=0)) + 1):
        np.divmod(values, 10, out=(values, digit))
        at = widths >= k
        buf[end[at] - k] = digit[at] + 48


def _widths(values) -> np.ndarray:
    """The digit count of each of the uint64 ``values``."""
    return np.maximum(np.searchsorted(POW10, values, side="right"), 1)


def _texts(values) -> tuple[np.ndarray, np.ndarray]:
    """The decimal texts of uint64 ``values``, each followed by a comma, as
    one uint8 array; and the length of each."""
    widths = _widths(values)
    lens = widths + 1
    text = np.full(int(lens.sum()), 44, dtype=np.uint8)
    _put(text, np.cumsum(lens) - lens, values, widths)
    return text, lens


def _spans(n: int, starts, ends) -> np.ndarray:
    """A mask of ``n`` bytes, True in each of the sorted, disjoint spans
    [starts[i], ends[i])."""
    lengths = np.diff(np.stack((starts, ends), axis=-1).ravel(), prepend=0, append=n)
    inside = np.zeros(len(lengths), dtype=bool)
    inside[1::2] = True
    return np.repeat(inside, lengths)


def _splice(buf, keep, at, text, lens) -> np.ndarray:
    """The bytes of ``buf`` that ``keep`` marks, with the pieces of ``text``
    (of ``lens``) inserted before the bytes at ``at``."""
    cut = np.flatnonzero(~keep)
    return np.insert(buf[keep], np.repeat(at - np.searchsorted(cut, at), lens), text)


# ---------------------------------------------------------------------------
# Encryption / decryption pipeline


@dataclass
class EncryptStats:
    files: int = 0
    records: int = 0
    dropped: int = 0
    parse_errors: int = 0
    failed_files: list[str] = field(default_factory=list)


@dataclass
class DecryptStats:
    files: int = 0
    records: int = 0
    record_errors: int = 0
    fuzzy_restored: int = 0
    failed_files: list[str] = field(default_factory=list)


def _refuse_strays(out_dir: Path, names: set[str], input_dir: Path | None = None) -> None:
    """Raise ValueError, before anything is written, when ``out_dir`` is
    ``input_dir``, or holds a ``.txt`` file whose name is not in ``names``,
    the files the run writes: a reused directory would keep outputs the run
    does not cover."""
    if out_dir.is_dir():
        if input_dir is not None and out_dir.samefile(input_dir):
            raise ValueError(f"{out_dir} is the input directory, whose files the run "
                             "would overwrite; use another output directory")
        stray = [p.name for p in _dataset_files(out_dir) if p.name not in names]
        if stray:
            raise ValueError(
                f"{out_dir} holds .txt files that this run would not write: "
                f"{', '.join(stray)}; use an empty output directory"
            )


def _sidecar(out_path: Path) -> Path:
    return out_path.with_name(f"{out_path.name}.errors")


def _write_sidecar(out_path: Path, errors) -> None:
    """Write the .errors sidecar of out_path; a clean file removes a stale one."""
    if errors:
        with replacing(_sidecar(out_path)) as fh:
            fh.writelines(f"{line_no}: {reason}\n" for line_no, reason in errors)
    else:
        _sidecar(out_path).unlink(missing_ok=True)


def _write(out_path: Path, errors, data: np.ndarray) -> None:
    """Write a file's sidecar, then its bytes."""
    _write_sidecar(out_path, errors)
    with replacing(out_path, binary=True) as fh:
        fh.write(data)


def _file_failed(stats, out_path: Path, exc: Exception) -> None:
    """List a file the run could not finish, and remove the output and
    sidecar an earlier run left at its path: their ids may now be another
    file's, or the eval would score them as this run's."""
    reason = f"{out_path.name}: {exc}"
    try:
        for path in (out_path, _sidecar(out_path)):
            path.unlink(missing_ok=True)
    except OSError as unlink_exc:
        reason += f"; its earlier output is left: {unlink_exc}"
    stats.failed_files.append(reason)


def encrypt_dataset(
    input_dir,
    out_dir,
    cipher: CoordinateCipher,
    store: MappingStore,
) -> EncryptStats:
    """Encrypt every trajectory file under input_dir into out_dir.

    Files are read in sorted-filename order, several to a slice, and each
    slice is encrypted by _encrypt_slice.  Coordinate ids are assigned
    sequentially over the written files' records as the store's next rows.
    A file that cannot be read, decoded or written is listed in
    ``failed_files`` with its reason, gets no ids and leaves no output (an
    earlier run's output at its path is removed); the other files are still
    encrypted.  A file's rows go into the store only once its output is
    written, so the store always matches the output tree.  An ``out_dir``
    that is ``input_dir``, or holds a ``.txt`` file that no input names, is
    refused with ValueError before anything is written.
    """
    started = time.perf_counter()
    counted = astuple(cipher.counts)
    input_dir, out_dir = Path(input_dir), Path(out_dir)
    files = _dataset_files(input_dir)
    _refuse_strays(out_dir, {path.name for path in files}, input_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = EncryptStats(files=len(files))
    next_id, line_path, slices = store.entry_count("lon_int"), 0, 0
    for sl in _read(files, False, _CIPHER_SLICE):
        next_id = _encrypt_slice(sl, cipher, store, out_dir, stats, next_id)
        line_path += sl.line_path
        slices += 1
        del sl  # before the next slice is read
    components, distinct, hits, kernel_calls, tweaks = (
        now - then for now, then in zip(astuple(cipher.counts), counted)
    )
    log.debug(
        "encrypt %s: %d files, %d components, %d distinct keys, %d codebook hits, "
        "%d kernel calls, %d tweaks in %.3fs; %d lines read one by one, %d gather slices",
        input_dir, stats.files, components, distinct, hits, kernel_calls, tweaks,
        time.perf_counter() - started, line_path, slices,
    )
    return stats


def _encrypt_slice(sl: _Slice, cipher, store, out_dir: Path, stats, next_id: int) -> int:
    """Encrypt a slice's components, one batch per kind, and write their
    digits over the slice's own; then write each of its files, every
    accepted line behind its coordinate id, from ``next_id`` on, and append
    the written files' rows to the store.  Returns the next id."""
    rows, buf = sl.rows, sl.buf
    components = rows.components()
    enc = [cipher.encrypt_batch(kind, values, digits) for kind, values, digits in components]
    rows.put(buf, enc)  # the fold keeps every field's digit count
    keep = _spans(len(buf), rows.start, rows.end)
    written = np.zeros(len(rows.start), dtype=bool)
    for part in sl.parts:
        out_path = out_dir / part.path.name
        if part.failure is not None:
            _file_failed(stats, out_path, part.failure)
            continue
        lines, n = slice(part.rows.start, part.rows.stop), len(part.rows)
        s, e = part.start, part.end
        ids = np.arange(next_id, next_id + n, dtype=np.uint64)
        errors = sl.errors(part)
        try:
            _write(out_path, errors, _splice(buf[s:e], keep[s:e], rows.start[lines] - s,
                                             *_texts(ids)))
        except OSError as exc:
            _file_failed(stats, out_path, exc)
            continue
        written[lines] = True
        next_id += n
        dropped = sum(reason.startswith("out of range") for _, reason in errors)
        stats.records += n
        stats.dropped += dropped
        stats.parse_errors += len(errors) - dropped
    for (kind, orig, digits), col in zip(components, enc):
        store.append(kind, col[written], orig[written], digits[written])
    return next_id


def decrypt_dataset(enc_dir, out_dir, store: MappingStore) -> DecryptStats:
    """Restore original coordinate text from encrypted files via the store.

    Files are read as encrypt reads them, several to a slice, and each
    slice is restored by _decrypt_slice.  Lines outside the encrypted
    grammar, and records that cannot be resolved, are reported in a
    per-file .errors sidecar; the rest of the file is written regardless.
    Failed files and stray outputs are handled as in encrypt_dataset.
    """
    started = time.perf_counter()
    enc_dir, out_dir = Path(enc_dir), Path(out_dir)
    files = _dataset_files(enc_dir)
    _refuse_strays(out_dir, {path.name for path in files}, enc_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = DecryptStats(files=len(files))
    line_path = slices = 0
    for sl in _read(files, True, _CIPHER_SLICE):
        _decrypt_slice(sl, store, out_dir, stats)
        line_path += sl.line_path
        slices += 1
        del sl  # before the next slice is read
    log.debug(
        "decrypt %s: %d files, %d lines restored, %d record errors "
        "(%d fuzzy restores) in %.3fs; %d lines read one by one, %d gather slices",
        enc_dir, stats.files, stats.records, stats.record_errors,
        stats.fuzzy_restored, time.perf_counter() - started, line_path, slices,
    )
    return stats


def _decrypt_slice(sl: _Slice, store: MappingStore, out_dir: Path, stats) -> None:
    """Restore a slice's accepted lines through _lookups, write the original
    digits over the encrypted ones as encrypt writes them, and write each of
    its files: a restored line is its bytes past the coordinate id."""
    rows, buf = sl.rows, sl.buf
    ids = _number(buf, rows.start, rows.comma - rows.start).astype(np.int64)
    orig, failed, fuzzy = _lookups(store, ids, rows)
    ok = np.ones(len(ids), dtype=bool)
    ok[list(failed)] = False
    fuzzy = np.bincount(fuzzy, minlength=len(ids)) * ok  # per restored row
    rows.put(buf, orig)  # a restored value has its field's digit count
    keep = _spans(len(buf), rows.comma[ok] + 1, rows.end[ok])
    bad = np.array(sorted(failed), dtype=np.int64)
    for part in sl.parts:
        out_path = out_dir / part.path.name
        if part.failure is not None:
            _file_failed(stats, out_path, part.failure)
            continue
        errors = sl.errors(part)
        lo, hi = np.searchsorted(bad, (part.rows.start, part.rows.stop))
        if hi > lo:
            errors += zip(sl.line_nos(part, rows.start[bad[lo:hi]]),
                          map(failed.get, bad[lo:hi].tolist()))
            errors.sort()
        s, e = part.start, part.end
        try:
            _write(out_path, errors, buf[s:e][keep[s:e]])
        except OSError as exc:
            _file_failed(stats, out_path, exc)
            continue
        stats.records += int(ok[part.rows.start : part.rows.stop].sum())
        stats.record_errors += len(errors)
        stats.fuzzy_restored += int(fuzzy[part.rows.start : part.rows.stop].sum())


def _lookups(store: MappingStore, ids, rows: _Rows):
    """The originals of each component kind of encrypted rows, the reason
    of each row that cannot be restored, and a row per fuzzy restore.

    Each kind takes one exact lookup.  A row that misses gets a fuzzy
    lookup of that component, unless an earlier kind has already failed
    it; the first kind whose fuzzy lookup fails gives the row's reason.
    Then each restored value must fit its field: a fraction its digit
    count, and an integer part its field's digit count exactly, as the
    fold keeps it; the first kind that does not gives the reason."""
    failed, fuzzy, orig = {}, [], []  # row -> reason; a row per fuzzy restore
    for kind, enc, digits in rows.components():
        hit, found = store.lookup_exact_batch(kind, ids, enc, digits)
        miss = np.flatnonzero(~hit)
        for r, value, d in zip(miss.tolist(), enc[miss].tolist(), digits[miss].tolist()):
            if r in failed:
                continue
            value = store.lookup_fuzzy(kind, value, d)
            if isinstance(value, int):
                found[r] = value
                fuzzy.append(r)
            else:
                failed[r] = (
                    f"no {kind} mapping for coord_id {ids[r]} "
                    f"(fuzzy: {'ambiguous' if value else 'not found'})"
                )
        orig.append(found)
    for kind, col, width in zip(KINDS, orig, rows.widths()):
        if kind.endswith("_int"):
            need = _widths(col)
            for r in np.flatnonzero(need != width).tolist():
                failed.setdefault(r, f"{kind} mapping for coord_id {ids[r]} needs "
                                     f"{need[r]} digits, not {width[r]}")
        else:
            for r in np.flatnonzero(col >= POW10[width]).tolist():
                failed.setdefault(r, f"{kind} mapping for coord_id {ids[r]} needs more "
                                     f"than {width[r]} digits")
    return orig, failed, fuzzy
