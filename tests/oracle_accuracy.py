"""Line-by-line accuracy oracle for ``geofpe.text.accuracy`` comparisons.

Every file pair is read line by line and scored by _match, which skips the
lines that the reference grammar of oracle_coords rejects; no pair is
compared whole.  ``test_accuracy_equals_the_line_by_line_oracle`` holds the
library's protocol equal to this one.
"""

from __future__ import annotations

from pathlib import Path

from geofpe.text import _dataset_files
from oracle_coords import reject_reason as _reject_reason

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


def accuracy(orig_dir, dec_dir) -> dict:
    """Point-to-point exact text matching between original and decrypted files.

    A point matches iff its decrypted line has the same id, timestamp and
    coordinate texts.  Points are the original lines that encrypt accepts,
    including those decrypt could not restore; files correspond by name, and
    a missing counterpart counts as fully mismatched.  A file that cannot be
    read or decoded counts as empty, and its pair gets an ``error`` that
    starts with UNREADABLE.  A missing directory raises OSError.
    """
    orig_dir, dec_dir = Path(orig_dir), Path(dec_dir)
    names = sorted({p.name for d in (orig_dir, dec_dir) for p in _dataset_files(d)})
    per_file = []
    total = matched_total = fully_matched = 0
    for name in names:
        orig_path, dec_path = orig_dir / name, dec_dir / name
        rows, error = [], None
        for side, path in (("original", orig_path), ("decrypted", dec_path)):
            try:
                rows.append(_rows(path))
            except (OSError, UnicodeDecodeError) as exc:
                rows.append([])
                error = error or f"{UNREADABLE} {side} file: {exc}"
        n, matched = _match(*rows)
        total += n
        if error is None and not (orig_path.is_file() and dec_path.is_file()):
            error = "missing counterpart file"
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
