"""A one-file view of geofpe.dataset._read: the columns of a file's accepted
lines as texts and ints, in line order, and its rejects."""

import tempfile
from dataclasses import dataclass
from pathlib import Path

from geofpe import dataset


@dataclass
class FileScan:
    at: list[int]  # index of each accepted line in the file, from 0
    cids: tuple[str, ...]  # coordinate id texts; empty in the plain layout
    heads: tuple[str, ...]  # "id,timestamp"
    lon: tuple  # columns of sign ("-" or ""), int part, fraction value, digits
    lat: tuple
    ends: tuple[str, ...]  # "\n", "\r\n", "\r" or "" (a last line)
    errors: list[tuple[int, str]]  # (line no, reason)
    parse_errors: int
    dropped: int


def scan_file(path, encrypted=False) -> FileScan:
    """Read one file as encrypt (or, ``encrypted``, decrypt) reads it."""
    [sl] = dataset._read([Path(path)], encrypted, dataset._CIPHER_SLICE)
    [part] = sl.parts
    if part.failure is not None:
        raise part.failure
    rows, buf = sl.rows, sl.buf

    def texts(starts, ends):
        return tuple(buf[a:b].tobytes().decode() for a, b in zip(starts.tolist(), ends.tolist()))

    def axis(a):
        signs = tuple("-" if neg else "" for neg in a.neg.tolist())
        return signs, a.ints.tolist(), a.fracs.tolist(), a.digits.tolist()

    errors = sl.errors(part)
    dropped = sum(reason.startswith("out of range") for _, reason in errors)
    head_end = rows.lon.start - rows.lon.neg - 1  # the comma before the longitude
    return FileScan(
        [n - 1 for n in sl.line_nos(part, rows.start)],
        texts(rows.start, rows.comma) if encrypted else (),
        texts(rows.comma + 1 if encrypted else rows.start, head_end),
        axis(rows.lon),
        axis(rows.lat),
        texts(rows.eol, rows.end.clip(max=part.end)),
        errors,
        len(errors) - dropped,
        dropped,
    )


def scan_text(text: str, encrypted=False) -> FileScan:
    """scan_file of a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "1.txt")
        path.write_bytes(text.encode())
        return scan_file(path, encrypted)
