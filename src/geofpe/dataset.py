"""Trajectory dataset pipeline: parse, clean, sample, encrypt, decrypt, synthesize.

Input files follow the taxi-trace convention "id,datetime,longitude,latitude",
one file per vehicle named <vehicle_id>.txt.  Encrypted files prepend a
coordinate id column; decrypted files restore the original four-column layout
byte for byte.  Each accepted line keeps its own terminator ("\n", "\r\n" or
none on a last line) through encryption and decryption.
"""

from __future__ import annotations

import datetime
import logging
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .cipher import CoordinateCipher
from .coords import (
    LAT_MAX,
    LON_MAX,
    MAX_FRAC_DIGITS,
    DecimalNumber,
    GeoPoint,
    ParseError,
    decompose,
    recombine,
    validate_point,
)
from .mapstore import MappingStore

log = logging.getLogger("geofpe.dataset")

SYNTH_FRAC_DIGITS = 5


@dataclass
class TrajectoryRecord:
    vehicle_id: str
    timestamp: str  # passed through byte-exactly
    point: GeoPoint
    line_end: str = "\n"  # terminator as read; "" on an unterminated last line


def parse_line(text: str) -> TrajectoryRecord:
    """Parse one "id,datetime,lon,lat" line and keep its terminator;
    ParseError on malformed input, including a fraction wider than
    MAX_FRAC_DIGITS digits."""
    body = text.rstrip("\r\n")
    fields = body.split(",")
    if len(fields) != 4:
        raise ParseError(f"expected 4 comma-separated fields, got {len(fields)}")
    vid, timestamp, lon_text, lat_text = fields
    point = GeoPoint(decompose(lon_text), decompose(lat_text))
    for axis, n in (("lon", point.lon), ("lat", point.lat)):
        if n.frac_digits > MAX_FRAC_DIGITS:
            raise ParseError(
                f"{axis} fraction has {n.frac_digits} digits, "
                f"more than {MAX_FRAC_DIGITS}"
            )
    return TrajectoryRecord(vid, timestamp, point, text[len(body):])


@dataclass
class FileScan:
    records: list[TrajectoryRecord] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)  # (line no, reason)
    parse_errors: int = 0
    dropped: int = 0


def check_line(text: str) -> tuple[TrajectoryRecord | None, str]:
    """Parse and range-check one non-blank line as encrypt does: the record of
    an accepted line, or None and the reason for its sidecar entry."""
    try:
        rec = parse_line(text)
    except ParseError as exc:
        return None, f"parse error: {exc}"
    axis = validate_point(rec.point)
    if axis is not None:
        return None, f"out of range: {axis}"
    return rec, ""


# An accepted line as the eval loaders meet it: id and timestamp without
# separators, canonical longitude and latitude with at most three and two
# integer digits and at most 15 fraction digits, and one terminator.  Below
# 10**15 a fraction is exact in float64, so int + frac / 10.0**d rounds as
# DecimalNumber.to_float does.  Every other line takes check_line.
_PLAIN_LINE = re.compile(
    r"[^,\r\n]*,[^,\r\n]*,"
    r"(-?)(0|[1-9][0-9]{0,2})(?:\.([0-9]{1,15}))?,"
    r"(-?)(0|[1-9][0-9]?)(?:\.([0-9]{1,15}))?"
    r"(?:\r\n|\n|\r)?"
)


def _axis_float(sign: str, int_text: str, frac_text: str | None, bound: int):
    """Float of one matched coordinate, or None when it is out of range."""
    frac_text = frac_text or ""
    int_part, frac = int(int_text), int(frac_text or 0)
    if int_part > bound or (int_part == bound and frac):
        return None
    value = int_part + frac / 10.0 ** len(frac_text)
    return -value if sign else value


def _plain_points(lines) -> list[tuple[float, float]]:
    """(lon, lat) floats of the lines encrypt accepts, in order; the same
    values as check_line followed by DecimalNumber.to_float."""
    points = []
    match = _PLAIN_LINE.fullmatch
    for line in lines:
        m = match(line)
        if m is not None:
            lon_sign, lon_int, lon_frac, lat_sign, lat_int, lat_frac = m.groups()
            lon = _axis_float(lon_sign, lon_int, lon_frac, LON_MAX)
            lat = _axis_float(lat_sign, lat_int, lat_frac, LAT_MAX)
            if lon is not None and lat is not None:
                points.append((lon, lat))
            continue
        if line.strip() == "":
            continue
        rec = check_line(line)[0]
        if rec is not None:
            points.append((rec.point.lon.to_float(), rec.point.lat.to_float()))
    return points


def scan_file(path: Path) -> FileScan:
    """Parse and clean one trajectory file, keeping per-line error reasons
    and each accepted line's terminator."""
    scan = FileScan()
    with open(path, encoding="utf-8", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            rec, reason = check_line(line)
            if rec is not None:
                scan.records.append(rec)
                continue
            scan.errors.append((line_no, reason))
            if reason.startswith("out of range"):
                scan.dropped += 1
            else:
                scan.parse_errors += 1
    return scan


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


def _write_sidecar(out_path: Path, errors) -> None:
    if not errors:
        return
    with open(f"{out_path}.errors", "w", encoding="utf-8") as fh:
        for line_no, reason in errors:
            fh.write(f"{line_no}: {reason}\n")


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
    read or decoded is listed in ``failed_files`` with its reason and gets no
    output or ids; the other files are still encrypted.
    """
    input_dir, out_dir = Path(input_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _dataset_files(input_dir)
    stats = EncryptStats(files=len(files))

    for path in files:
        try:
            scan = scan_file(path)
        except (OSError, UnicodeDecodeError) as exc:
            stats.failed_files.append(f"{path.name}: {exc}")
            continue
        records = scan.records
        start = store.entry_count("lon_int")
        lines = [
            f"{cid},{rec.vehicle_id},{rec.timestamp}"
            for cid, rec in enumerate(records, start)
        ]
        parts = []
        for axis in ("lon", "lat"):
            nums = [getattr(rec.point, axis) for rec in records]
            ints = [num.int_part for num in nums]
            fracs = [num.frac_value for num in nums]
            digits = [num.frac_digits for num in nums]
            enc_ints = cipher.encrypt_batch(f"{axis}_int", ints).tolist()
            enc_fracs = cipher.encrypt_batch(f"{axis}_frac", fracs, digits).tolist()
            parts.append((f"{axis}_int", enc_ints, ints, [0] * len(records)))
            parts.append((f"{axis}_frac", enc_fracs, fracs, digits))
            for i, num in enumerate(nums):
                enc = DecimalNumber(num.sign, enc_ints[i], enc_fracs[i], num.frac_digits)
                lines[i] += f",{recombine(enc)}"
        for part in parts:
            store.append(*part)
        out_path = out_dir / path.name
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(line + rec.line_end for line, rec in zip(lines, records))
        _write_sidecar(out_path, scan.errors)
        stats.records += len(records)
        stats.dropped += scan.dropped
        stats.parse_errors += scan.parse_errors
    return stats


def decrypt_dataset(enc_dir, out_dir, store: MappingStore) -> DecryptStats:
    """Restore original coordinate text from encrypted files via the store.

    An exact lookup by coordinate id is tried first; on a miss, a fuzzy
    lookup by encrypted value alone is accepted when unambiguous.  Records
    that still cannot be resolved are reported in a per-file .errors
    sidecar; the rest of the file is written regardless.  A file that cannot
    be read or decoded is listed in ``failed_files`` with its reason and gets
    no output; the other files are still decrypted.
    """
    enc_dir, out_dir = Path(enc_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _dataset_files(enc_dir)
    stats = DecryptStats(files=len(files))

    for path in files:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                source = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            stats.failed_files.append(f"{path.name}: {exc}")
            continue
        lines = []
        errors = []
        for line_no, line in enumerate(source, start=1):
            if line.strip() == "":
                continue
            body = line.rstrip("\r\n")
            fields = body.split(",")
            if len(fields) != 5:
                errors.append((line_no, f"expected 5 fields, got {len(fields)}"))
                continue
            cid_text, vid, timestamp, enc_lon_text, enc_lat_text = fields
            try:
                cid = int(cid_text)
                enc_lon = decompose(enc_lon_text)
                enc_lat = decompose(enc_lat_text)
            except (ValueError, ParseError) as exc:
                errors.append((line_no, f"parse error: {exc}"))
                continue
            parts = {}
            failure = None
            for kind, enc_value in (
                ("lon_int", enc_lon.int_part),
                ("lon_frac", enc_lon.frac_value),
                ("lat_int", enc_lat.int_part),
                ("lat_frac", enc_lat.frac_value),
            ):
                orig = store.lookup_exact(kind, cid, enc_value)
                if orig is None:
                    orig = store.lookup_fuzzy(kind, enc_value)
                    if not isinstance(orig, int):
                        failure = (
                            f"no {kind} mapping for coord_id {cid} "
                            f"(fuzzy: {'ambiguous' if orig else 'not found'})"
                        )
                        break
                    stats.fuzzy_restored += 1
                parts[kind] = orig
            if failure is not None:
                errors.append((line_no, failure))
                continue
            lon = DecimalNumber(
                enc_lon.sign, parts["lon_int"], parts["lon_frac"], enc_lon.frac_digits
            )
            lat = DecimalNumber(
                enc_lat.sign, parts["lat_int"], parts["lat_frac"], enc_lat.frac_digits
            )
            lines.append(
                f"{vid},{timestamp},{recombine(lon)},{recombine(lat)}{line[len(body):]}"
            )
        out_path = out_dir / path.name
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        _write_sidecar(out_path, errors)
        stats.records += len(lines)
        stats.record_errors += len(errors)
    return stats


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
        if self.hotspot_std <= 0:
            raise ValueError("hotspot std-dev must be positive")
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
    total number of points written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = datetime.datetime(2008, 2, 2, 13, 30, 0)
    total = 0
    for vid in range(1, cfg.n_vehicles + 1):
        track = _vehicle_track(cfg, vid)
        with open(out_dir / f"{vid}.txt", "w", encoding="utf-8") as fh:
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


def _read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.readlines()


def load_plain_points(input_dir) -> dict[str, list[tuple[float, float]]]:
    """Cleaned per-vehicle (lon, lat) floats in file order, keyed by file stem."""
    return {
        path.stem: _plain_points(_read_lines(path))
        for path in _dataset_files(input_dir)
    }


def load_points_auto(input_dir) -> dict[str, list[tuple[float, float]]]:
    """Load a directory in either layout, detected per file by column count.

    A file whose every non-blank line has five columns is an encrypted file
    (coordinate id first), read as is; any other file is read in the plain
    layout, which gets the usual cleaning.  Lets the identity checks point an
    eval at a plain tree.
    """
    out = {}
    for path in _dataset_files(input_dir):
        lines = _read_lines(path)
        rows = [line.rstrip("\r\n").split(",") for line in lines if line.strip()]
        if rows and all(len(fields) == 5 for fields in rows):
            out[path.stem] = [(float(fields[3]), float(fields[4])) for fields in rows]
        else:
            out[path.stem] = _plain_points(lines)
    return out
