"""Trajectory dataset pipeline: parse, clean, sample, encrypt, decrypt, synthesize.

Input files follow the taxi-trace convention "id,datetime,longitude,latitude",
one file per vehicle named <vehicle_id>.txt.  Encrypted files prepend a
coordinate id column; decrypted files restore the original four-column layout
byte for byte.  Each accepted line keeps its own terminator ("\n", "\r\n" or
none on a last line) through encryption and decryption.  scan_lines is the
one line parser of both layouts, and encrypt and decrypt read its columns.
The eval loaders walk whole texts with patterns built from the same body,
send each line where the walk stops to scan_lines' reject reasons, and
gather the accepted text's floats with numpy.
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


@dataclass
class TreePoints:
    """The (lon, lat) floats of a tree's accepted lines as one float64 array,
    files in name order, and each file stem's rows of it; ``tree[stem]`` is a
    view of that file's rows.  The counts say how the loader read them."""

    xy: np.ndarray  # shape (n, 2)
    rows: dict[str, range]
    line_path: int = 0  # lines read one by one: rejects and range candidates
    exact: int = 0  # values the float rule could not convert, converted in Python
    slices: int = 0  # slices of text gathered

    def __getitem__(self, stem: str) -> np.ndarray:
        rows = self.rows[stem]
        return self.xy[rows.start : rows.stop]


def _text_pattern(line_body: str) -> re.Pattern:
    """A whole text of lines that ``line_body`` matches or that are blank (only
    the whitespace str.strip removes), in one match: the line pattern without
    its groups, and terminators as readlines splits them.  The lines' contents
    and terminators cannot overlap, so a failed match does not backtrack far."""
    body = re.sub(r"\((?!\?)", "(?:", line_body)
    return re.compile(rf"(?:(?:{body}|[^\S\r\n]*)(?:\r\n|\n|\r(?!\n)))*(?:{body}|[^\S\r\n]*)")


_PLAIN_TEXT = _text_pattern(_PLAIN_BODY)
_ENC_TEXT = _text_pattern(f"({_CID}),{_PLAIN_BODY}")
_EOL = re.compile(r"\r\n?|\n")
_SLICE_CHARS = 1 << 20  # text gathered at once
_PAD = " " * (MAX_FRAC_DIGITS + 1)  # so that a gather never reads past the buffer
_P10 = np.array([10**d for d in range(MAX_FRAC_DIGITS + 1)], dtype=np.uint64)
_P10F = _P10.astype(np.float64)  # exact: 10**19 = 2**19 * 5**19, and 5**19 < 2**53
_EXACT = np.uint64(2**53)  # a smaller uint64 converts to float64 exactly


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


def load_plain_points(input_dir) -> TreePoints:
    """The floats of a tree's cleaned lines, read in the plain layout."""
    return _load(input_dir, auto=False)


def load_points_auto(input_dir, rejects=None) -> TreePoints:
    """Load a directory in either layout, detected per file by column count.

    A file whose every non-blank line has five columns is an encrypted file
    (coordinate id first); each of its lines must be in the encrypted
    layout.  At the first line that is not, the file's ``(line no, reason)``
    goes into the dict ``rejects`` under its stem and the file is left out;
    without ``rejects`` it raises ValueError "<path>:<line no>: <reason>".
    Any other file is read in the plain layout, which gets the usual
    cleaning.  Lets the identity checks point an eval at a plain tree.  An
    encrypted field's float is ``float`` of its text, correctly rounded; a
    plain one's is Python's ``i + f / 10**d`` of its parts.
    """
    return _load(input_dir, auto=True, rejects=rejects)


def _load(input_dir, auto: bool, rejects=None) -> TreePoints:
    """The one eval loader.  Each file's text is walked with one whole-text
    match per run of accepted lines; a line where the match stops is a
    reject of scan_lines.  The accepted text of many files is gathered in
    slices of about _SLICE_CHARS characters, one layout each."""
    tree = TreePoints(np.empty((0, 2)), {})
    blocks, pending, size, layout = [], [], 0, False
    for path in _dataset_files(input_dir):
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        encrypted = auto
        if auto and (stop := next(_stops(_ENC_TEXT.match, text), None)):
            start, end = stop
            encrypted = text.count(",", start, end) == 4 and all(
                line.count(",") == 4 for line in _EOL.split(text) if line.strip()
            )
            if encrypted:
                tree.line_path += 1
                line_no = len(_EOL.findall(text, 0, start)) + 1
                reason = _enc_reject_reason(text[start:end])
                if rejects is None:
                    raise ValueError(f"{path}:{line_no}: {reason}")
                rejects[path.stem] = (line_no, reason)
                continue
        if not encrypted:
            kept, pos = [], 0
            for start, end in _stops(_PLAIN_TEXT.match, text):
                kept.append(text[pos:start])
                pos = end
                tree.line_path += 1
            kept.append(text[pos:])
            text = "".join(kept)
        if text and text[-1] not in "\r\n":
            text += "\n"
        if pending and encrypted != layout:
            _gather(tree, blocks, pending, layout)
            pending, size = [], 0
        pending.append((path.stem, text))
        size, layout = size + len(text), encrypted
        if size >= _SLICE_CHARS:
            _gather(tree, blocks, pending, layout)
            pending, size = [], 0
    if pending:
        _gather(tree, blocks, pending, layout)
    if blocks:
        tree.xy = np.concatenate(blocks)
    return tree


def _gather(tree: TreePoints, blocks: list, pending: list, encrypted: bool) -> None:
    """Gather the accepted lines of the ``pending`` (stem, text) files, each
    line terminated, as one slice: the floats go into ``blocks`` and each
    file gets its rows in ``tree``.  A plain line whose int parts are at or
    past a range bound is kept only if _reject_reason accepts it."""
    text = "".join(text for _, text in pending)
    buf = np.frombuffer((text + _PAD).encode(), dtype=np.uint8)
    commas = np.flatnonzero(buf == 44).reshape(-1, 4 if encrypted else 3)
    eols = np.flatnonzero((buf == 10) | (buf == 13))
    dots = np.append(np.flatnonzero(buf == 46), len(buf))
    lat_start = commas[:, -1] + 1
    lat_end = eols[np.searchsorted(eols, lat_start)]
    xy = np.empty((len(commas), 2))
    ints = []
    for axis, start, end in ((0, commas[:, -2] + 1, commas[:, -1]), (1, lat_start, lat_end)):
        xy[:, axis], axis_ints, exact = _floats(buf, dots, start, end, encrypted)
        ints.append(axis_ints)
        tree.exact += exact
    counts = np.array([text.count(",") for _, text in pending]) // commas.shape[1]
    if not encrypted:
        near = np.flatnonzero((ints[0] >= LON_MAX) | (ints[1] >= LAT_MAX))
        starts = np.append(0, eols + 1)[np.searchsorted(eols, commas[near, 0])]
        dropped = [
            r for r, a, b in zip(near.tolist(), starts.tolist(), lat_end[near].tolist())
            if _reject_reason(buf[a:b].tobytes().decode()) is not None
        ]
        tree.line_path += len(near)
        if dropped:
            files = np.searchsorted(np.cumsum(counts), dropped, side="right")
            counts -= np.bincount(files, minlength=len(counts))
            xy = np.delete(xy, dropped, axis=0)
    n = sum(map(len, blocks))
    for (stem, _), k in zip(pending, counts.tolist()):
        tree.rows[stem] = range(n, n + k)
        n += k
    blocks.append(xy)
    tree.slices += 1


def _floats(buf, dots, start, end, encrypted: bool):
    """The floats and int parts of the coordinate fields at ``buf[start:end]``
    per row, and how many of them the exact fallback converted.  A plain
    field's float is ``i + f / 10**d`` and an encrypted one's ``(i * 10**d +
    f) / 10**d``: in float64 both equal Python's result while f, or the
    numerator, is below 2**53, and other values are converted in Python."""
    neg = buf[start] == 45  # "-"
    start = start + neg
    dot = dots[np.searchsorted(dots, start)]
    int_end = np.minimum(dot, end)
    ints = buf[start].astype(np.int64) - 48
    for k in (1, 2):  # at most 3 int digits
        ints = np.where(int_end > start + k, ints * 10 + buf[start + k] - 48, ints)
    digits = np.maximum(end - int_end - 1, 0)
    fracs = np.zeros(len(start), dtype=np.uint64)
    for k in range(int(digits.max(initial=0))):
        np.multiply(fracs, 10, out=fracs, where=digits > k)
        np.add(fracs, buf[int_end + 1 + k] - 48, out=fracs, where=digits > k)
    if encrypted:
        num = ints.astype(np.uint64) * _P10[np.minimum(digits, 15)] + fracs
        fast = (num < _EXACT) & ((digits <= 15) | (ints == 0))
        values = num.astype(np.float64) / _P10F[digits]
    else:
        fast = fracs < _EXACT
        values = ints + fracs.astype(np.float64) / _P10F[digits]
    slow = np.flatnonzero(~fast)
    for r, i, f, d in zip(slow.tolist(), ints[slow].tolist(), fracs[slow].tolist(),
                          digits[slow].tolist()):
        values[r] = (i * 10**d + f) / 10**d if encrypted else i + f / 10**d
    np.negative(values, out=values, where=neg)
    return values, ints, len(slow)
