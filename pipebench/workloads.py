"""Seeded inputs for the pipeline benchmark, with what each run must give back.

Each workload writes one trajectory file per vehicle and returns an
``Expected`` record: the exact text ``geofpe decrypt`` must restore for every
file, and the line number and rejection reason of every line the parser must
refuse.  The program under test sees only the files.
"""

from __future__ import annotations

import datetime
import hashlib
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

# The acceptance configuration (25 hotspot centres on a 5 x 5 grid, 0.2
# degrees apart, sigma 0.001 degrees, 500 points per vehicle, clean LF text
# with 5 fraction digits) at 40 vehicles instead of 220, so that one run
# holds several pipelines.
HOTSPOT_VEHICLES = 40
HOTSPOT_POINTS = 500
HOTSPOT_CENTERS = ";".join(
    f"{116.05 + 0.2 * i:.2f},{39.05 + 0.2 * j:.2f}" for i in range(5) for j in range(5)
)
HOTSPOT_STD = "0.001"

WALK_VEHICLES = 80
WALK_POINTS = 500
WALK_STEP_DEG = 0.02
WALK_MIN_DIGITS = 4
WALK_MAX_DIGITS = 8
WALK_BAD_SHARE = 0.01

_START = datetime.datetime(2008, 2, 2, 13, 30, 0)


@dataclass
class Expected:
    """What a correct encrypt -> decrypt round trip gives back."""

    # file name -> exact decrypted text (accepted lines only, in input order)
    texts: dict[str, str] = field(default_factory=dict)
    # file name -> {line number: reason prefix the .errors sidecar must carry}
    bad: dict[str, dict[int, str]] = field(default_factory=dict)
    lines: int = 0  # every generated line, accepted or not

    @property
    def accepted(self) -> int:
        return self.lines - sum(len(v) for v in self.bad.values())

    def distinct_components(self) -> int:
        """Distinct (kind, value, fraction digits) components among accepted
        lines: the tweaks a per-value memo would have to compute."""
        seen = set()
        for text in self.texts.values():
            for line in text.splitlines():
                fields = line.split(",")
                for axis, coord in (("lon", fields[2]), ("lat", fields[3])):
                    int_text, _, frac_text = coord.lstrip("+-").partition(".")
                    seen.add((axis + "_int", int(int_text), 0))
                    seen.add((axis + "_frac", int(frac_text or "0"), len(frac_text)))
        return len(seen)


def key_for(seed: str) -> bytes:
    """16-byte key derived from the workload seed, so one seed gives one ciphertext."""
    return hashlib.sha256(f"pipebench-key:{seed}".encode()).digest()[:16]


def write_hotspot(out_dir: Path, seed: str, python: str, env: dict) -> Expected:
    """Acceptance set through the program's own ``synth`` command
    (``generate_synthetic``); every line it writes is valid, so the expected
    decrypted text is the input text itself."""
    subprocess.run(
        [
            python, "-m", "geofpe.cli", "synth",
            "--output", str(out_dir),
            "--vehicles", str(HOTSPOT_VEHICLES),
            "--points", str(HOTSPOT_POINTS),
            "--centers", HOTSPOT_CENTERS,
            "--hotspot-std", HOTSPOT_STD,
            "--seed", seed,
        ],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    expected = Expected()
    for path in sorted(out_dir.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        expected.texts[path.name] = text
        expected.bad[path.name] = {}
        expected.lines += text.count("\n")
    if expected.lines != HOTSPOT_VEHICLES * HOTSPOT_POINTS:
        raise RuntimeError(f"synth wrote {expected.lines} lines, expected "
                           f"{HOTSPOT_VEHICLES * HOTSPOT_POINTS}")
    return expected


def _reflect(value: float, bound: float) -> float:
    if value > bound:
        return 2 * bound - value
    if value < -bound:
        return -2 * bound - value
    return value


def _bad_line(rng: random.Random, vid: int, stamp: str, lon: float, lat: float):
    """One planted line the parser must reject, with the reason it must give."""
    kind = rng.randrange(4)
    d = rng.randint(WALK_MIN_DIGITS, WALK_MAX_DIGITS)
    if kind == 0:  # a field is missing
        return f"{vid},{stamp},{lon:.{d}f}\n", "parse error"
    if kind == 1:  # exponent notation is not coordinate text
        return f"{vid},{stamp},{lon:.{d}e},{lat:.{d}f}\n", "parse error"
    if kind == 2:
        bad_lon = rng.choice((-1, 1)) * rng.uniform(180.01, 199.0)
        return f"{vid},{stamp},{bad_lon:.{d}f},{lat:.{d}f}\n", "out of range: lon"
    bad_lat = rng.choice((-1, 1)) * rng.uniform(90.01, 99.0)
    return f"{vid},{stamp},{lon:.{d}f},{bad_lat:.{d}f}\n", "out of range: lat"


def write_walk(out_dir: Path, seed: str) -> Expected:
    """Random walks with no hotspots: 4 to 8 fraction digits drawn per value,
    and about 1% planted malformed or out-of-range lines."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamps = [
        (_START + datetime.timedelta(seconds=15 * i)).strftime("%Y-%m-%d %H:%M:%S")
        for i in range(WALK_POINTS)
    ]
    expected = Expected()
    for vid in range(1, WALK_VEHICLES + 1):
        rng = random.Random(f"walk:{seed}:{vid}")
        lon, lat = rng.uniform(-170.0, 170.0), rng.uniform(-80.0, 80.0)
        lines, kept, bad = [], [], {}
        for i, stamp in enumerate(stamps):
            lon = _reflect(lon + rng.gauss(0.0, WALK_STEP_DEG), 179.9)
            lat = _reflect(lat + rng.gauss(0.0, WALK_STEP_DEG), 89.9)
            if rng.random() < WALK_BAD_SHARE:
                line, reason = _bad_line(rng, vid, stamp, lon, lat)
                bad[i + 1] = reason
            else:
                d_lon = rng.randint(WALK_MIN_DIGITS, WALK_MAX_DIGITS)
                d_lat = rng.randint(WALK_MIN_DIGITS, WALK_MAX_DIGITS)
                line = f"{vid},{stamp},{lon:.{d_lon}f},{lat:.{d_lat}f}\n"
                kept.append(line)
            lines.append(line)
        name = f"{vid}.txt"
        (out_dir / name).write_text("".join(lines), encoding="utf-8")
        expected.texts[name] = "".join(kept)
        expected.bad[name] = bad
        expected.lines += len(lines)
    return expected
