"""Trajectory dataset pipeline: parse, clean, sample, encrypt, decrypt, synthesize.

Input files follow the taxi-trace convention "id,datetime,longitude,latitude",
one file per vehicle named <vehicle_id>.txt.  Encrypted files prepend a
coordinate id column; decrypted files restore the original four-column layout
byte for byte.  Each accepted line keeps its own terminator ("\n", "\r\n" or
none on a last line) through encryption and decryption.  scan_lines is the
one parser of both layouts: encrypt, decrypt and the loaders read its columns.
"""

from __future__ import annotations

import datetime
import logging
import math
import random
import re
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .cipher import KINDS, CoordinateCipher
from .coords import (
    LAT_MAX,
    LON_MAX,
    MAX_FRAC_DIGITS,
    ParseError,
    decompose,
    validate_point,
)
from .mapstore import MappingStore, replacing
from .ranges import POW10

log = logging.getLogger("geofpe.dataset")

SYNTH_FRAC_DIGITS = 5


@dataclass
class FileScan:  # a file's accepted lines as columns, in line order, and its rejects
    at: list[int]  # index of each accepted line in the file, from 0
    cids: tuple[str, ...]  # coordinate id texts; empty in the plain layout
    heads: tuple[str, ...]  # "id,timestamp"
    lon: tuple  # columns of sign ("-" or ""), int part, fraction value, digits
    lat: tuple
    ends: tuple[str, ...]  # "\n", "\r\n", "\r" or "" (a last line)
    errors: list[tuple[int, str]]  # (line no, reason)
    parse_errors: int
    dropped: int


# An accepted plain line, less the range check: id and timestamp without
# separators, canonical lon and lat (at most 3 and 2 integer digits), one
# terminator.  An encrypted line puts a canonical coordinate id (at most 18
# digits, so it fits an int64) in front.  coords.decompose is the reference
# grammar.
_PLAIN_BODY = (
    r"([^,\r\n]*,[^,\r\n]*),"
    rf"(-?)(0|[1-9][0-9]{{0,2}})(?:\.([0-9]{{1,{MAX_FRAC_DIGITS}}}))?,"
    rf"(-?)(0|[1-9][0-9]?)(?:\.([0-9]{{1,{MAX_FRAC_DIGITS}}}))?"
)
_CID = r"0|[1-9][0-9]{0,17}"
_CID_TEXT = re.compile(_CID)
_END = r"(\r\n|\n|\r|)"
_PLAIN_LINE = re.compile(_PLAIN_BODY + _END)
_ENC_LINE = re.compile(f"({_CID}),{_PLAIN_BODY}{_END}")
_INT_PARTS = {str(i): i for i in range(1000)}  # the pattern's int parts; beats int()
_INSIDE = ({str(i) for i in range(LON_MAX)}, {str(i) for i in range(LAT_MAX)})  # int parts


def scan_lines(lines, encrypted=False) -> FileScan:
    """Parse and clean a file's lines (terminators kept), in the plain
    layout or, with ``encrypted``, the encrypted one.  Accepted lines become
    the columns of a FileScan; only the plain layout checks the range.  A
    rejected line gives its line number and reason, a blank one is skipped."""
    match = (_ENC_LINE if encrypted else _PLAIN_LINE).fullmatch
    reject = _enc_reject_reason if encrypted else _reject_reason
    lon_in, lat_in = _INSIDE
    at, groups, errors, dropped = [], [], [], 0
    for i, line in enumerate(lines):
        m = match(line)
        if m is not None:
            g = m.groups("")  # the lon and lat int parts are at -6 and -3
            # in range below both bounds; the reference grammar decides the rest
            if encrypted or g[-6] in lon_in and g[-3] in lat_in or reject(line) is None:
                at.append(i)
                groups.append(g)
                continue
        elif not line.strip():
            continue
        reason = reject(line)
        errors.append((i + 1, reason))
        dropped += reason.startswith("out of range")
    cols = list(zip(*groups)) or [()] * (9 if encrypted else 8)
    heads, lon_s, lon_i, lon_f, lat_s, lat_i, lat_f, ends = cols[-8:]
    return FileScan(at, cols[0] if encrypted else (), heads, _axis(lon_s, lon_i, lon_f),
                    _axis(lat_s, lat_i, lat_f), ends, errors, len(errors) - dropped, dropped)


def _axis(signs, ints, fracs) -> tuple:
    """The four columns of an axis from its matched texts."""
    ints = list(map(_INT_PARTS.__getitem__, ints))
    return signs, ints, [int(f) if f else 0 for f in fracs], list(map(len, fracs))


def scan_file(path: Path, encrypted=False) -> FileScan:
    """scan_lines over one trajectory file."""
    with open(path, encoding="utf-8", newline="") as fh:
        return scan_lines(fh, encrypted)


def _reject_reason(line: str) -> str | None:
    """The sidecar reason of a non-blank plain line that scan_lines rejects,
    found with the reference grammar of coords; None if it accepts it."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 4:
        return f"parse error: expected 4 comma-separated fields, got {len(fields)}"
    try:
        lon, lat = decompose(fields[2]), decompose(fields[3])
    except ParseError as exc:
        return f"parse error: {exc}"
    for axis, n in (("lon", lon), ("lat", lat)):
        if n.frac_digits > MAX_FRAC_DIGITS:
            return (
                f"parse error: {axis} fraction has {n.frac_digits} digits, "
                f"more than {MAX_FRAC_DIGITS}"
            )
    axis = validate_point(lon, lat)
    return axis and f"out of range: {axis}"


def _enc_reject_reason(line: str) -> str:
    """The sidecar reason of a non-blank encrypted line that scan_lines
    rejects, found with the reference grammar: the field count, the id,
    then _reject_reason on the rest."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 5:
        return f"expected 5 fields, got {len(fields)}"
    if not _CID_TEXT.fullmatch(fields[0]):
        return f"parse error: malformed coordinate id {fields[0]!r}"
    return _reject_reason(line.split(",", 1)[1])


def _decimal_texts(signs, ints, fracs, digits) -> list[str]:
    """Coordinate texts of one axis's columns."""
    return [
        f"{s}{i}.{f:0{d}d}" if d else f"{s}{i}"
        for s, i, f, d in zip(signs, ints, fracs, digits)
    ]


_POW10 = [10**d for d in range(MAX_FRAC_DIGITS + 1)]


def _floats(signs, ints, fracs, digits) -> list[float]:
    """Floats of one axis's columns.  Python's frac / 10**d divides two exact
    integers, so each equals DecimalNumber.to_float bit for bit."""
    p = _POW10
    return [
        -(i + f / p[d]) if s else i + f / p[d]
        for s, i, f, d in zip(signs, ints, fracs, digits)
    ]


def _points(scan: FileScan) -> list[tuple[float, float]]:
    """(lon, lat) floats of a scan's accepted lines."""
    return list(zip(_floats(*scan.lon), _floats(*scan.lat)))


def stratified_sample(trajectories, n_total: int, seed) -> list[tuple[str, int]]:
    """Sample n_total (vehicle, position) pairs, quota per vehicle proportional
    to its point count (largest-remainder rounding), uniform without
    replacement inside each vehicle.  Deterministic for a fixed seed."""
    sizes = {vid: len(seq) for vid, seq in trajectories.items()}
    population = sum(sizes.values())
    if n_total > population:
        raise ValueError(f"sample size {n_total} exceeds population {population}")
    if n_total < 0:
        raise ValueError("sample size must be non-negative")
    vids = sorted(sizes)
    quotas = {}
    remainders = []
    assigned = 0
    for vid in vids:
        q, r = divmod(n_total * sizes[vid], population)
        quotas[vid] = q
        assigned += q
        remainders.append((-r, vid))
    remainders.sort()
    for _, vid in remainders[: n_total - assigned]:
        quotas[vid] += 1
    sample = []
    for vid in vids:
        k = quotas[vid]
        if k == 0:
            continue
        rng = random.Random(f"{seed}:{vid}")
        for idx in sorted(rng.sample(range(sizes[vid]), k)):
            sample.append((vid, idx))
    return sample


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


def _dataset_files(input_dir: Path) -> list[Path]:
    return sorted(
        p for p in Path(input_dir).iterdir() if p.is_file() and p.suffix == ".txt"
    )


def _refuse_strays(out_dir: Path, names: set[str]) -> None:
    """Raise ValueError, before anything is written, when ``out_dir`` holds a
    ``.txt`` file whose name is not in ``names``, the files the run writes:
    a reused directory would keep outputs the run does not cover."""
    if out_dir.is_dir():
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

    Files are taken in sorted-filename order.  Each is parsed once and its
    components encrypted as batches; coordinate ids are assigned sequentially
    over the cleaned records as the store's next rows.  A file that cannot be
    read, decoded or written is listed in ``failed_files`` with its reason,
    gets no ids and leaves no output (an earlier run's output at its path is
    removed); the other files are still encrypted.  A file's rows go into the
    store only once its output is written, so the store always matches the
    output tree.  An ``out_dir`` holding a ``.txt`` file that no input names
    is refused with ValueError before anything is written.
    """
    started = time.perf_counter()
    counted = astuple(cipher.counts)
    input_dir, out_dir = Path(input_dir), Path(out_dir)
    files = _dataset_files(input_dir)
    _refuse_strays(out_dir, {path.name for path in files})
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = EncryptStats(files=len(files))

    for path in files:
        out_path = out_dir / path.name
        try:
            scan = scan_file(path)
            (lon_s, lon_i, lon_f, lon_d), (lat_s, lat_i, lat_f, lat_d) = scan.lon, scan.lat
            zeros = (0,) * len(scan.heads)
            parts = [("lon_int", lon_i, zeros), ("lon_frac", lon_f, lon_d),
                     ("lat_int", lat_i, zeros), ("lat_frac", lat_f, lat_d)]
            enc = [cipher.encrypt_batch(*part).tolist() for part in parts]
            texts = zip(scan.heads, _decimal_texts(lon_s, enc[0], enc[1], lon_d),
                        _decimal_texts(lat_s, enc[2], enc[3], lat_d), scan.ends)
            _write_sidecar(out_path, scan.errors)
            with replacing(out_path) as fh:
                fh.writelines(f"{cid},{head},{lon},{lat}{end}" for cid, (head, lon, lat, end)
                              in enumerate(texts, store.entry_count("lon_int")))
        except (OSError, UnicodeDecodeError) as exc:
            _file_failed(stats, out_path, exc)
            continue
        for (kind, orig, d), enc_col in zip(parts, enc):
            store.append(kind, enc_col, orig, d)
        stats.records += len(scan.heads)
        stats.dropped += scan.dropped
        stats.parse_errors += scan.parse_errors
    components, distinct, hits, kernel_calls, tweaks = (
        now - then for now, then in zip(astuple(cipher.counts), counted)
    )
    log.debug(
        "encrypt %s: %d files, %d components, %d distinct keys, %d codebook hits, "
        "%d kernel calls, %d tweaks in %.3fs",
        input_dir, stats.files, components, distinct, hits, kernel_calls, tweaks,
        time.perf_counter() - started,
    )
    return stats


def decrypt_dataset(enc_dir, out_dir, store: MappingStore) -> DecryptStats:
    """Restore original coordinate text from encrypted files via the store.

    Every file goes through _decrypt_lines: an exact lookup by coordinate id
    first, then on a miss a fuzzy lookup by encrypted value alone, accepted
    when unambiguous.  Both lookups match a fraction only to entries stored
    with the line's digit count.  Lines outside the encrypted grammar, and
    records that still cannot be resolved, are reported in a per-file
    .errors sidecar; the rest of the file is written regardless.  Failed
    files and stray outputs are handled as in encrypt_dataset.
    """
    started = time.perf_counter()
    enc_dir, out_dir = Path(enc_dir), Path(out_dir)
    files = _dataset_files(enc_dir)
    _refuse_strays(out_dir, {path.name for path in files})
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = DecryptStats(files=len(files))

    for path in files:
        out_path = out_dir / path.name
        try:
            lines, errors, fuzzy = _decrypt_lines(scan_file(path, encrypted=True), store)
            _write_sidecar(out_path, errors)
            with replacing(out_path) as fh:
                fh.writelines(lines)
        except (OSError, UnicodeDecodeError) as exc:
            _file_failed(stats, out_path, exc)
            continue
        stats.records += len(lines)
        stats.record_errors += len(errors)
        stats.fuzzy_restored += fuzzy
    log.debug(
        "decrypt %s: %d files, %d lines restored, %d record errors "
        "(%d fuzzy restores) in %.3fs",
        enc_dir, stats.files, stats.records, stats.record_errors,
        stats.fuzzy_restored, time.perf_counter() - started,
    )
    return stats


def _decrypt_lines(scan: FileScan, store: MappingStore):
    """The decrypted lines, the (line no, reason) errors and the number of
    fuzzy restores, of one encrypted file's scan.

    The accepted lines are restored as columns, one exact lookup per kind,
    fractions at the line's digit count.  A row that misses gets a fuzzy
    lookup of that component, unless an earlier kind has already failed it;
    the first kind whose fuzzy lookup fails gives the row's reason.  A
    restored fraction must fit its digit count.  The scan's rejected lines
    keep their reasons."""
    (lon_s, lon_i, lon_f, lon_d), (lat_s, lat_i, lat_f, lat_d) = scan.lon, scan.lat
    cids, ids = scan.cids, np.asarray(scan.cids, dtype=np.int64)
    zeros = (0,) * len(cids)
    failed, fuzzy, orig = {}, [], []  # row -> reason; a row per fuzzy restore
    for kind, enc, digits in zip(
        KINDS, (lon_i, lon_f, lat_i, lat_f), (zeros, lon_d, zeros, lat_d)
    ):
        hit, found = store.lookup_exact_batch(kind, ids, enc, digits)
        for r in np.flatnonzero(~hit).tolist():
            if r in failed:
                continue
            value = store.lookup_fuzzy(kind, enc[r], digits[r])
            if isinstance(value, int):
                found[r] = value
                fuzzy.append(r)
            else:
                failed[r] = (
                    f"no {kind} mapping for coord_id {cids[r]} "
                    f"(fuzzy: {'ambiguous' if value else 'not found'})"
                )
        orig.append(found)
    for kind, col, digits in (("lon_frac", orig[1], lon_d), ("lat_frac", orig[3], lat_d)):
        for r in np.flatnonzero(col >= POW10[digits]).tolist():
            failed.setdefault(r, f"{kind} mapping for coord_id {cids[r]} needs more "
                                 f"than {digits[r]} digits")
    lon_i, lon_f, lat_i, lat_f = (col.tolist() for col in orig)
    texts = zip(scan.heads, _decimal_texts(lon_s, lon_i, lon_f, lon_d),
                _decimal_texts(lat_s, lat_i, lat_f, lat_d), scan.ends)
    out = [
        f"{head},{lon},{lat}{end}"
        for r, (head, lon, lat, end) in enumerate(texts) if r not in failed
    ]
    errors = scan.errors + [(scan.at[r] + 1, reason) for r, reason in failed.items()]
    errors.sort()
    return out, errors, sum(r not in failed for r in fuzzy)


# ---------------------------------------------------------------------------
# Synthetic trajectory generation


@dataclass
class SynthConfig:
    n_vehicles: int
    points_per_vehicle: int
    centers: list[tuple[float, float]]  # (lon, lat) hotspot centers
    hotspot_std: float = 0.001  # degrees
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_vehicles <= 0 or self.points_per_vehicle <= 0:
            raise ValueError("vehicle and point counts must be positive")
        if not (math.isfinite(self.hotspot_std) and self.hotspot_std > 0):
            raise ValueError(
                f"hotspot std-dev must be positive and finite, not {self.hotspot_std}"
            )
        for lon, lat in self.centers:
            if not (-180 <= lon <= 180 and -90 <= lat <= 90):
                raise ValueError(f"hotspot center out of range: {lon},{lat}")


def _clamp(value: float, bound: float) -> float:
    return max(-bound, min(bound, value))


def _format_point(lon: float, lat: float) -> tuple[str, str]:
    return (
        f"{_clamp(lon, 180.0):.{SYNTH_FRAC_DIGITS}f}",
        f"{_clamp(lat, 90.0):.{SYNTH_FRAC_DIGITS}f}",
    )


def _vehicle_track(cfg: SynthConfig, vid: int) -> list[tuple[float, float]]:
    rng = random.Random(f"{cfg.seed}:vehicle:{vid}")
    n = cfg.points_per_vehicle
    points: list[tuple[float, float]] = []
    if not cfg.centers:
        # pure random walk
        lon = rng.uniform(-170.0, 170.0)
        lat = rng.uniform(-80.0, 80.0)
        for _ in range(n):
            lon += rng.gauss(0.0, 0.02)
            lat += rng.gauss(0.0, 0.02)
            points.append((lon, lat))
        return points
    cur = rng.choice(cfg.centers)
    while len(points) < n:
        # dwell at the current hotspot
        for _ in range(rng.randint(50, 90)):
            if len(points) >= n:
                break
            points.append(
                (cur[0] + rng.gauss(0.0, cfg.hotspot_std),
                 cur[1] + rng.gauss(0.0, cfg.hotspot_std))
            )
        if len(points) >= n:
            break
        # drive to the next hotspot
        nxt = rng.choice(cfg.centers)
        steps = rng.randint(18, 30)
        jitter = 3.0 * cfg.hotspot_std
        for step in range(1, steps + 1):
            if len(points) >= n:
                break
            frac = step / (steps + 1)
            points.append(
                (cur[0] + (nxt[0] - cur[0]) * frac + rng.gauss(0.0, jitter),
                 cur[1] + (nxt[1] - cur[1]) * frac + rng.gauss(0.0, jitter))
            )
        cur = nxt
    return points


def generate_synthetic(cfg: SynthConfig, out_dir) -> int:
    """Write cfg.n_vehicles trajectory files of Gaussian hotspot dwells joined
    by jittered drive segments; deterministic for a fixed seed.  Returns the
    total number of points written.  An ``out_dir`` that holds other ``.txt``
    files is refused with ValueError, and nothing is written."""
    out_dir = Path(out_dir)
    _refuse_strays(out_dir, {f"{vid}.txt" for vid in range(1, cfg.n_vehicles + 1)})
    out_dir.mkdir(parents=True, exist_ok=True)
    start = datetime.datetime(2008, 2, 2, 13, 30, 0)
    total = 0
    for vid in range(1, cfg.n_vehicles + 1):
        track = _vehicle_track(cfg, vid)
        with replacing(out_dir / f"{vid}.txt") as fh:
            for i, (lon, lat) in enumerate(track):
                stamp = (start + datetime.timedelta(seconds=15 * i)).strftime(
                    "%Y-%m-%d %H:%M:%S"
                )
                lon_text, lat_text = _format_point(lon, lat)
                fh.write(f"{vid},{stamp},{lon_text},{lat_text}\n")
        total += len(track)
    log.info("synthesized %d vehicles, %d points", cfg.n_vehicles, total)
    return total


# ---------------------------------------------------------------------------
# Loaders for the evaluation harness


def load_plain_points(input_dir) -> dict[str, list[tuple[float, float]]]:
    """Cleaned per-vehicle (lon, lat) floats in file order, by file stem."""
    return {path.stem: _points(scan_file(path)) for path in _dataset_files(input_dir)}


# A whole file of lines that _ENC_LINE matches or that are blank (only the
# whitespace str.strip removes), in one match: the line pattern without its
# groups, and terminators as readlines splits them.  The lines' contents
# and terminators cannot overlap, so a failed match does not backtrack far.
_ENC_BODY = re.sub(r"\((?!\?)", "(?:", f"({_CID})," + _PLAIN_BODY)
_ENC_TEXT = re.compile(
    rf"(?:(?:{_ENC_BODY}|[^\S\r\n]*)(?:\r\n|\n|\r(?!\n)))*(?:{_ENC_BODY}|[^\S\r\n]*)"
)


def load_points_auto(input_dir, rejects=None) -> dict[str, list[tuple[float, float]]]:
    """Load a directory in either layout, detected per file by column count.

    A file whose every non-blank line has five columns is an encrypted file
    (coordinate id first); each of its lines must be in the encrypted
    layout.  At the first line that is not, the file's ``(line no,
    reason)`` goes into the dict ``rejects`` under its stem and the file is
    left out; without ``rejects`` it raises ValueError "<path>:<line no>:
    <reason>".  Any other file is read in the plain layout, which gets the
    usual cleaning.  Lets the identity checks point an eval at a plain tree.
    A good encrypted file takes one whole-file match and ``float`` per field,
    correctly rounded and faster than scan_lines, which names a bad line.
    """
    out = {}
    for path in _dataset_files(input_dir):
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        rows = [line.rstrip("\r\n").split(",") for line in lines if line.strip()]
        if not (rows and all(len(fields) == 5 for fields in rows)):
            out[path.stem] = _points(scan_lines(lines))
        elif _ENC_TEXT.fullmatch("".join(lines)):
            out[path.stem] = [(float(fields[3]), float(fields[4])) for fields in rows]
        else:
            line_no, reason = scan_lines(lines, encrypted=True).errors[0]
            if rejects is None:
                raise ValueError(f"{path}:{line_no}: {reason}")
            rejects[path.stem] = (line_no, reason)
    return out
