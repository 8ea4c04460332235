"""The reference decimal grammar of coordinate text, and the reject reason
of a plain line built on it.

Independent of geofpe.dataset's line patterns: a coordinate is split with
a canonical-decimal regex into sign / integer-part / fraction-value /
digit-count quadruples, never binary floats, and checked against the
ranges with exact integer arithmetic.  The tests check the library's
patterns and reasons against ``reject_reason``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from geofpe.text import MAX_FRAC_DIGITS

# Canonical decimal text: optional minus sign, integer part without leading
# zeros, optional fraction.  No plus sign (the formatted text could not restore
# it) and no exponent notation.
_DECIMAL_RE = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?")

LON_MAX = 180
LAT_MAX = 90


class ParseError(ValueError):
    """Raised when a coordinate string is not well-formed decimal text."""


@dataclass(frozen=True, slots=True)
class DecimalNumber:
    """A decimal value split into sign, integer part and fraction digits.

    ``frac_value`` keeps the fraction as an integer; ``frac_digits`` keeps the
    written digit count so trailing/leading zeros survive a round trip
    (``frac_value < 10**frac_digits``).
    """

    sign: int  # +1 or -1
    int_part: int
    frac_value: int
    frac_digits: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.int_part < 0 or self.frac_value < 0 or self.frac_digits < 0:
            raise ValueError("negative component in DecimalNumber")
        if self.frac_value >= 10**self.frac_digits:
            raise ValueError(
                f"frac_value {self.frac_value} needs more than "
                f"{self.frac_digits} digits"
            )


def decompose(text: str) -> DecimalNumber:
    """Split decimal text into (sign, int part, fraction value, digit count).

    Accepts canonical decimal strings only (no plus sign, no exponent, no
    leading zeros on the integer part, fraction digits present when a '.'
    is), so formatting the four parts gives the input text back.  Raises
    ParseError naming the offending input otherwise.
    """
    if not _DECIMAL_RE.fullmatch(text):
        raise ParseError(f"malformed decimal text: {text!r}")
    sign = -1 if text[0] == "-" else 1
    body = text.lstrip("-")
    if "." in body:
        int_text, frac_text = body.split(".", 1)
        return DecimalNumber(sign, int(int_text), int(frac_text), len(frac_text))
    return DecimalNumber(sign, int(body), 0, 0)


def _abs_within(n: DecimalNumber, bound: int) -> bool:
    # |value| <= bound, exactly: int*10^d + frac <= bound*10^d
    scale = 10**n.frac_digits
    return n.int_part * scale + n.frac_value <= bound * scale


def validate_point(lon: DecimalNumber, lat: DecimalNumber) -> str | None:
    """Return None when the point is in range, else the failing axis.

    Longitude must lie in [-180, 180] and latitude in [-90, 90]; the check is
    exact integer arithmetic so boundary values are handled precisely.
    """
    if not _abs_within(lon, LON_MAX):
        return "lon"
    if not _abs_within(lat, LAT_MAX):
        return "lat"
    return None


def reject_reason(line: str) -> str | None:
    """The sidecar reason of a non-blank plain line; None if the line is
    accepted."""
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
