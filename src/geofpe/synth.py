"""Synthetic trajectory trees: Gaussian hotspot dwells joined by jittered
drive segments, or a pure random walk, in the plain taxi-trace layout of
``geofpe.dataset``."""

from __future__ import annotations

import datetime
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .dataset import _refuse_strays
from .text import replacing

log = logging.getLogger("geofpe.synth")

SYNTH_FRAC_DIGITS = 5


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
