"""Line-by-line decrypt oracle for decrypt_dataset comparisons.

Independent of geofpe.dataset's decrypt code: every non-blank line is split
on commas, its id checked against the canonical id grammar (at most 18
digits, no leading zero) and its coordinates parsed with coords.decompose.
A coordinate outside the encrypted grammar (a fraction over 19 digits, an
integer part over 999 for lon or 99 for lat) gets the plain-line reason.
Each component is then restored through a one-element
MappingStore.lookup_exact_batch, then lookup_fuzzy on a miss; both lookups
of a fraction are given the line's digit count.  A restored fraction that
needs more digits than the line gives is a per-line error.  Fuzzy restores
are counted only on lines that are restored.  Outputs and sidecars are
written in place, as plain files.
"""

import re
from pathlib import Path

from geofpe.coords import (
    MAX_FRAC_DIGITS,
    DecimalNumber,
    ParseError,
    decompose,
    validate_point,
)
from geofpe.dataset import DecryptStats

_ID = re.compile(r"0|[1-9][0-9]{0,17}")


def recombine(n: DecimalNumber) -> str:
    """Inverse of decompose: canonical text with exactly ``frac_digits`` digits.

    Positive values carry no sign character; a zero digit count emits no
    decimal point.
    """
    sign = "-" if n.sign < 0 else ""
    if n.frac_digits == 0:
        return f"{sign}{n.int_part}"
    return f"{sign}{n.int_part}.{n.frac_value:0{n.frac_digits}d}"


def _grammar_reason(enc_lon, enc_lat):
    """The reason of coordinates that decompose accepts but the encrypted
    grammar does not, or None."""
    for axis, n in (("lon", enc_lon), ("lat", enc_lat)):
        if n.frac_digits > MAX_FRAC_DIGITS:
            return (
                f"parse error: {axis} fraction has {n.frac_digits} digits, "
                f"more than {MAX_FRAC_DIGITS}"
            )
    if enc_lon.int_part > 999 or enc_lat.int_part > 99:
        return f"out of range: {validate_point(enc_lon, enc_lat)}"
    return None


def _restore(line, store, stats):
    """(text, None) or (None, reason) for one non-blank encrypted line."""
    body = line.rstrip("\r\n")
    fields = body.split(",")
    if len(fields) != 5:
        return None, f"expected 5 fields, got {len(fields)}"
    cid_text, vid, timestamp, enc_lon_text, enc_lat_text = fields
    if not _ID.fullmatch(cid_text):
        return None, f"parse error: malformed coordinate id {cid_text!r}"
    cid = int(cid_text)
    try:
        enc_lon = decompose(enc_lon_text)
        enc_lat = decompose(enc_lat_text)
    except ParseError as exc:
        return None, f"parse error: {exc}"
    reason = _grammar_reason(enc_lon, enc_lat)
    if reason is not None:
        return None, reason
    parts, fuzzy = {}, 0
    for kind, enc_value, digits in (
        ("lon_int", enc_lon.int_part, 0),
        ("lon_frac", enc_lon.frac_value, enc_lon.frac_digits),
        ("lat_int", enc_lat.int_part, 0),
        ("lat_frac", enc_lat.frac_value, enc_lat.frac_digits),
    ):
        hit, found = store.lookup_exact_batch(kind, [cid], [enc_value], digits)
        if hit[0]:
            orig = int(found[0])
        else:
            orig = store.lookup_fuzzy(kind, enc_value, digits)
            if not isinstance(orig, int):
                state = "ambiguous" if orig else "not found"
                return None, f"no {kind} mapping for coord_id {cid} (fuzzy: {state})"
            fuzzy += 1
        parts[kind] = orig
    texts = []
    for axis, enc in (("lon", enc_lon), ("lat", enc_lat)):
        try:
            n = DecimalNumber(
                enc.sign, parts[f"{axis}_int"], parts[f"{axis}_frac"], enc.frac_digits
            )
        except ValueError:
            return None, (
                f"{axis}_frac mapping for coord_id {cid} needs more than "
                f"{enc.frac_digits} digits"
            )
        texts.append(recombine(n))
    stats.fuzzy_restored += fuzzy
    return f"{vid},{timestamp},{texts[0]},{texts[1]}{line[len(body):]}", None


def decrypt_oracle(enc_dir, out_dir, store) -> DecryptStats:
    enc_dir, out_dir = Path(enc_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(p for p in enc_dir.iterdir() if p.is_file() and p.suffix == ".txt")
    stats = DecryptStats(files=len(files))
    for path in files:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                source = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            stats.failed_files.append(f"{path.name}: {exc}")
            continue
        lines, errors = [], []
        for line_no, line in enumerate(source, start=1):
            if line.strip() == "":
                continue
            text, reason = _restore(line, store, stats)
            if reason is None:
                lines.append(text)
            else:
                errors.append(f"{line_no}: {reason}\n")
        with open(out_dir / path.name, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        if errors:
            with open(out_dir / f"{path.name}.errors", "w", encoding="utf-8",
                      newline="") as fh:
                fh.write("".join(errors))
        stats.records += len(lines)
        stats.record_errors += len(errors)
    return stats
