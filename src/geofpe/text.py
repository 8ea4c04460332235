"""The text layer, without numpy: the line grammar of both layouts, the walk
of a file's text, the listing and writing of files, and the decryption
accuracy protocol.

``geofpe.dataset`` gathers the walked bytes into columns for encrypt,
decrypt and the eval loaders.  ``keygen`` and ``eval accuracy`` need no
more than this module, so they start without numpy.
"""

from __future__ import annotations

import logging
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger("geofpe.text")

# Widest fraction whose value fits the map's u64 field and the uint64 round
# kernel: 10**19 - 1 < 2**64 <= 10**20 - 1.
MAX_FRAC_DIGITS = 19

# An accepted plain line: id and timestamp without separators, canonical lon
# in [-180, 180] and lat in [-90, 90] (at the bound, only zeros follow the
# dot).  An encrypted line puts a canonical coordinate id (at most 18
# digits, so it fits an int64) in front.  Each coordinate is an atomic
# group, and its fraction a possessive repeat, so a match keeps no
# backtracking state in them.  They accept the lines that plain groups do:
# any shorter match of a coordinate stops before a digit, where its comma
# or line end cannot be.  That holds while each coordinate's alternatives
# run longest first, which an unterminated last line needs anyway: nothing
# follows its lat, so a shorter alternative would end the match inside it.
# _reject_reason words a stopped line's reason from the same pieces, _LON
# and _LAT.
_FRAC = rf"(?:\.[0-9]{{1,{MAX_FRAC_DIGITS}}}+)?+"
_ZEROS = rf"(?:\.0{{1,{MAX_FRAC_DIGITS}}}+)?+"
_LON = rf"-?(?>180{_ZEROS}|(?:1[0-7][0-9]|[1-9][0-9]?|0){_FRAC})"
_LAT = rf"-?(?>90{_ZEROS}|(?:[1-8][0-9]|[1-9]|0){_FRAC})"
_PLAIN_BODY = rf"[^,\r\n]*+,[^,\r\n]*+,{_LON},{_LAT}"
# Canonical decimal text: no plus sign, no leading zero, no exponent.
_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?")
_CID = r"(?:0|[1-9][0-9]{0,17})"
_CID_TEXT = re.compile(_CID)


def _text_pattern(body: str) -> re.Pattern:
    """A whole text of lines that ``body`` matches or that are blank (only the
    whitespace str.strip removes), in one match, with terminators as
    readlines splits them.  The lines' contents and terminators cannot
    overlap, so a failed match does not backtrack far, and the repeat over
    lines is possessive, so it keeps no backtracking state per line."""
    return re.compile(rf"(?:(?:{body}|[^\S\r\n]*)(?:\r\n|\n|\r(?!\n)))*+(?:{body}|[^\S\r\n]*)")


_PLAIN_TEXT = _text_pattern(_PLAIN_BODY)
_ENC_TEXT = _text_pattern(f"{_CID},{_PLAIN_BODY}")
_EOL = re.compile(r"\r\n?|\n")


def _reject_reason(line: str) -> str | None:
    """The sidecar reason of a non-blank plain line, None if it is accepted:
    the field count, then each coordinate's decimal text, fraction width
    and range, lon before lat, checked with the line pattern's pieces."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 4:
        return f"parse error: expected 4 comma-separated fields, got {len(fields)}"
    axes = (("lon", fields[2], _LON), ("lat", fields[3], _LAT))
    for text in fields[2:]:
        if not _DECIMAL.fullmatch(text):
            return f"parse error: malformed decimal text: {text!r}"
    for axis, text, _ in axes:
        digits = len(text.partition(".")[2])
        if digits > MAX_FRAC_DIGITS:
            return f"parse error: {axis} fraction has {digits} digits, more than {MAX_FRAC_DIGITS}"
    for axis, text, pattern in axes:
        if not re.fullmatch(pattern, text):
            return f"out of range: {axis}"
    return None


def _enc_reject_reason(line: str) -> str:
    """The sidecar reason of a non-blank line outside the encrypted layout:
    the field count, the id, then _reject_reason on the rest."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 5:
        return f"expected 5 fields, got {len(fields)}"
    if not _CID_TEXT.fullmatch(fields[0]):
        return f"parse error: malformed coordinate id {fields[0]!r}"
    return _reject_reason(line.split(",", 1)[1])


# ---------------------------------------------------------------------------
# The walk


@dataclass
class _Part:
    """A file of a slice."""

    path: Path
    start: int  # its bytes in the slice
    end: int
    rows: range = range(0)  # its rows of the slice's columns
    stops: list = field(default_factory=list)  # (byte in the file, line) where the walk stopped
    failure: Exception | None = None  # it could not be read or decoded
    rejected: tuple | None = None  # read as encrypted in auto mode: (line no, reason)


def _stops(match, text: str):
    """The (start, end) of each line, terminator included, that stops the
    whole-text ``match``: neither blank nor taken by its line pattern.  Each
    step is one match from the end of the last such line."""
    pos = 0
    while (e := match(text, pos).end()) < len(text):
        start = max(text.rfind("\n", pos, e), text.rfind("\r", pos, e), pos - 1) + 1
        eol = _EOL.search(text, e)
        pos = eol.end() if eol else len(text)
        yield start, pos


def _walk(part: _Part, encrypted):
    """Read the file of ``part`` and walk it in its layout: plain, encrypted,
    or with ``encrypted`` None, as metrics.load_points_auto detects it.
    Returns its UTF-8 bytes with each stop line blanked to as many spaces,
    terminator kept, so that no terminator moves; and its layout.  No bytes
    if it cannot be read or decoded, or is auto-read as encrypted and has a
    stop line."""
    try:
        with open(part.path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        part.failure = exc
        return None, encrypted
    stops = _stops(_PLAIN_TEXT.match if encrypted is False else _ENC_TEXT.match, text)
    if encrypted is None:
        first = next(stops, None)
        encrypted = first is None or text.count(",", *first) == 4 and all(
            line.count(",") == 4 for line in _EOL.split(text) if line.strip()
        )
        if encrypted and first:
            start, end = first
            part.rejected = (len(_EOL.findall(text, 0, start)) + 1,
                             _enc_reject_reason(text[start:end]))
            return None, encrypted
        if not encrypted:
            stops = _stops(_PLAIN_TEXT.match, text)
    pieces, pos, at = [], 0, 0
    for start, end in stops:
        line = text[start:end]
        body = line.rstrip("\r\n")
        pieces.append(text[pos:start].encode())
        at += len(pieces[-1])
        part.stops.append((at, line))
        pieces.append(b" " * len(body.encode()) + line[len(body):].encode())
        at += len(pieces[-1])
        pos = end
    pieces.append(text[pos:].encode())
    return b"".join(pieces), encrypted


# ---------------------------------------------------------------------------
# Files


def _dataset_files(input_dir: Path) -> list[Path]:
    return sorted(
        p for p in Path(input_dir).iterdir() if p.is_file() and p.suffix == ".txt"
    )


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


# ---------------------------------------------------------------------------
# Decryption accuracy

UNREADABLE = "cannot read"


def _rows(path: Path) -> list[tuple[str, list[str] | None]]:
    """Each non-blank line of a file, if it exists, with its fields (None
    unless the line has four)."""
    rows = []
    if not path.is_file():
        return rows
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() == "":
                continue
            fields = line.rstrip("\r\n").split(",")
            rows.append((line, fields if len(fields) == 4 else None))
    return rows


def _match(orig_rows, dec_rows) -> tuple[int, int]:
    """(points, matched) of one original/decrypted file pair.

    Decrypt writes the original's accepted lines in order, copying id and
    timestamp verbatim, and leaves out each line it cannot restore.  So the
    original is walked against the decrypted records: a line equal to the
    next record matches.  Otherwise a line that encrypt rejects is skipped
    (the parse runs only on these lines); one with the next record's id and
    timestamp is a mismatch; any other is a point that decrypt dropped, and
    the record waits for a later line.  Decrypted lines left over or without
    four fields are mismatched points too.
    """
    records = [fields for _, fields in dec_rows if fields is not None]
    j = points = matched = 0
    for line, fields in orig_rows:
        record = records[j] if j < len(records) else None
        if fields is not None and fields == record:
            matched += 1
        elif _reject_reason(line) is not None:
            continue
        elif record is None or fields[:2] != record[:2]:
            points += 1
            continue
        points += 1
        j += 1
    return points + len(dec_rows) - j, matched


def _walked(orig_path: Path, dec_path: Path) -> tuple[int, int, str | None]:
    """(points, matched, error) of a file pair by _rows and _match: the
    reference that scores every pair."""
    rows, error = [], None
    for side, path in (("original", orig_path), ("decrypted", dec_path)):
        try:
            rows.append(_rows(path))
        except (OSError, UnicodeDecodeError) as exc:
            rows.append([])
            error = error or f"{UNREADABLE} {side} file: {exc}"
    n, matched = _match(*rows)
    if error is None and not (orig_path.is_file() and dec_path.is_file()):
        error = "missing counterpart file"
    return n, matched, error


def _whole(orig_path: Path, dec_path: Path) -> int | None:
    """The points of a file pair whose decrypted bytes are the original's
    less its stop lines, all of which match; None for any other pair.

    Decrypt writes exactly the accepted lines, each with its terminator.
    What stays of the original is those lines and its blank ones, which
    _match skips: a pair that is equal here is all matched by _match too.
    An accepted line has three commas and a blank one none."""
    part = _Part(orig_path, 0, 0)
    data, _ = _walk(part, False)
    if data is None:
        return None
    kept, pos = [], 0
    for at, line in part.stops:
        kept.append(data[pos:at])
        pos = at + len(line.encode())
    kept.append(data[pos:])
    try:
        with open(dec_path, "rb") as fh:
            dec = fh.read()
    except OSError:
        return None
    return dec.count(b",") // 3 if dec == b"".join(kept) else None


def accuracy(orig_dir, dec_dir) -> dict:
    """Point-to-point exact text matching between original and decrypted files.

    A point matches iff its decrypted line has the same id, timestamp and
    coordinate texts.  Points are the original lines that encrypt accepts,
    including those decrypt could not restore; files correspond by name, and
    a missing counterpart counts as fully mismatched.  A file that cannot be
    read or decoded counts as empty, and its pair gets an ``error`` that
    starts with UNREADABLE.  A missing directory raises OSError.

    A pair is first compared whole (_whole); one that differs is walked
    line by line (_walked).
    """
    started = time.perf_counter()
    orig_dir, dec_dir = Path(orig_dir), Path(dec_dir)
    names = sorted({p.name for d in (orig_dir, dec_dir) for p in _dataset_files(d)})
    per_file = []
    total = matched_total = fully_matched = whole = 0
    for name in names:
        orig_path, dec_path = orig_dir / name, dec_dir / name
        n = _whole(orig_path, dec_path)
        if n is None:
            n, matched, error = _walked(orig_path, dec_path)
        else:
            matched, error = n, None
            whole += 1
        total += n
        if error is not None:
            per_file.append(
                {"file": name, "total": n, "matched": 0, "fmr": 0.0, "error": error}
            )
            continue
        fully_matched += matched == n
        per_file.append(
            {"file": name, "total": n, "matched": matched, "fmr": matched / n if n else 1.0}
        )
        matched_total += matched
    log.debug(
        "accuracy %s vs %s: %d files, %d compared whole, %d walked line by line in %.3fs",
        orig_dir, dec_dir, len(names), whole, len(names) - whole,
        time.perf_counter() - started,
    )
    mismatched = total - matched_total
    return {
        "total_points": total,
        "matched_points": matched_total,
        "mismatched_points": mismatched,
        "omr": matched_total / total if total else 1.0,
        "mmr": mismatched / total if total else 0.0,
        "file_count": len(names),
        "fully_matched_files": fully_matched,
        "per_file": per_file,
    }
