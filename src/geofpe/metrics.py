"""Evaluation harness: distance-ratio retention, hotspot clustering, accuracy.

All three protocols compare an original dataset against its encrypted and/or
decrypted counterparts.  Point samples are (lon, lat) float pairs in degrees;
exactness-sensitive comparisons (decryption accuracy) work on coordinate text
instead.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dataset import check_line

EARTH_RADIUS_KM = 6371.0

NOISE = -1
_UNVISITED = -2


def haversine(p1, p2) -> float:
    """Great-circle distance in km between (lon, lat) degree pairs."""
    lon1, lat1 = p1
    lon2, lat2 = p2
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2) - math.radians(lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


# ---------------------------------------------------------------------------
# Relative distance retention rate


def relative_errors(orig, enc, draws) -> list[float]:
    """Relative error of the distance ratio for each (i, j, m, n) draw.

    The encrypted ratio uses the encrypted images of the same sampled
    indices.  Draws with a degenerate original ratio are the caller's job to
    avoid; a degenerate encrypted denominator yields an infinite error, which
    the RDR cap absorbs.
    """
    errors = []
    for i, j, m, n in draws:
        d_num = haversine(orig[i], orig[j])
        d_den = haversine(orig[m], orig[n])
        r_o = d_num / d_den
        e_num = haversine(enc[i], enc[j])
        e_den = haversine(enc[m], enc[n])
        r_e = e_num / e_den if e_den > 0 else math.inf
        errors.append(abs(r_o - r_e) / r_o)
    return errors


def rdr_from_errors(errors) -> float:
    return 1.0 - min(sum(errors) / len(errors), 1.0)


def rdr_trajectory(orig, enc, n_samples: int = 100, seed="0", max_retries: int = 10) -> float:
    """RDR of one trajectory pair: 1 - min(mean relative ratio error, 1).

    Each sample draws four distinct indices; draws whose original distances
    are zero are redrawn up to max_retries times, then skipped.  Raises
    ValueError when the trajectory is unusable (fewer than 4 points, or all
    draws degenerate).
    """
    if len(orig) != len(enc):
        raise ValueError(f"trajectory lengths differ: {len(orig)} vs {len(enc)}")
    if len(orig) < 4:
        raise ValueError(f"fewer than 4 points ({len(orig)})")
    rng = random.Random(seed)
    draws = []
    for _ in range(n_samples):
        for _ in range(max_retries):
            i, j, m, n = rng.sample(range(len(orig)), 4)
            if haversine(orig[m], orig[n]) > 0 and haversine(orig[i], orig[j]) > 0:
                draws.append((i, j, m, n))
                break
    if not draws:
        raise ValueError("all sampled point pairs were degenerate")
    return rdr_from_errors(relative_errors(orig, enc, draws))


def rdr_summary(values, bin_width: float = 0.02) -> dict:
    """Summary statistics, histogram and CDF of per-trajectory RDR values.

    Quartiles use linear interpolation; std_dev is the population standard
    deviation.
    """
    if len(values) == 0:
        raise ValueError("no RDR values to summarize")
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    n_bins = math.ceil(1.0 / bin_width)
    edges = np.linspace(0.0, n_bins * bin_width, n_bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    distinct = np.unique(arr)
    cdf = [[float(v), float(np.count_nonzero(arr <= v) / arr.size)] for v in distinct]
    return {
        "summary": {
            "mean": float(arr.mean()),
            "std_dev": float(arr.std()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "q1": float(q1),
            "median": float(median),
            "q3": float(q3),
            "zero_count": int(np.count_nonzero(arr == 0.0)),
            "total": int(arr.size),
        },
        "histogram": {
            "bin_width": bin_width,
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "cdf": cdf,
    }


# ---------------------------------------------------------------------------
# DBSCAN hotspot clustering


def dbscan(points, eps: float, min_pts: int) -> list[int]:
    """Density clustering; returns a label per point, NOISE (-1) for outliers.

    A point is core iff it has >= min_pts neighbours within eps degrees
    (Euclidean, inclusive), counting itself.  Scan order is input order, so
    labels are deterministic; border points join the first cluster that
    reaches them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return []
    xs, ys = pts[:, 0], pts[:, 1]
    eps2 = eps * eps

    def region(idx: int) -> np.ndarray:
        return np.flatnonzero((xs - xs[idx]) ** 2 + (ys - ys[idx]) ** 2 <= eps2)

    labels = [_UNVISITED] * n
    cid = 0
    for p in range(n):
        if labels[p] != _UNVISITED:
            continue
        neighbours = region(p)
        if len(neighbours) < min_pts:
            labels[p] = NOISE
            continue
        labels[p] = cid
        queue = deque(int(q) for q in neighbours)
        while queue:
            q = queue.popleft()
            if labels[q] == NOISE:
                labels[q] = cid
            if labels[q] != _UNVISITED:
                continue
            labels[q] = cid
            q_neighbours = region(q)
            if len(q_neighbours) >= min_pts:
                queue.extend(int(x) for x in q_neighbours)
        cid += 1
    return labels


def cluster_centroids(points, labels) -> list[dict]:
    """Centroid (mean lon/lat in degrees) and size per cluster, by cluster id."""
    clusters: dict[int, list] = {}
    for point, label in zip(points, labels):
        if label != NOISE:
            clusters.setdefault(label, []).append(point)
    out = []
    for label in sorted(clusters):
        members = clusters[label]
        out.append(
            {
                "centroid": [
                    sum(p[0] for p in members) / len(members),
                    sum(p[1] for p in members) / len(members),
                ],
                "size": len(members),
            }
        )
    return out


def _axis_ranges(points) -> tuple[float, float]:
    arr = np.asarray(points, dtype=float)
    return float(np.ptp(arr[:, 0])), float(np.ptp(arr[:, 1]))


def _greedy_match(orig_clusters, dec_clusters):
    pairs = sorted(
        (haversine(a["centroid"], b["centroid"]), i, j)
        for i, a in enumerate(orig_clusters)
        for j, b in enumerate(dec_clusters)
    )
    used_o, used_d, matched = set(), set(), []
    for dist, i, j in pairs:
        if i in used_o or j in used_d:
            continue
        used_o.add(i)
        used_d.add(j)
        matched.append(dist)
    return matched


def hotspot_analysis(
    orig_sample,
    enc_sample,
    dec_sample,
    eps_orig: float = 0.005,
    min_pts: int = 10,
) -> dict:
    """Cluster the three aligned samples and match original vs decrypted.

    Original and decrypted samples cluster at eps_orig in degree-space; the
    encrypted sample's radius is scaled by the mean per-axis coordinate-range
    ratio, since its spread bears no relation to the original's.
    """
    if not (len(orig_sample) and len(enc_sample) and len(dec_sample)):
        raise ValueError("hotspot analysis needs non-empty samples")
    if not (len(orig_sample) == len(enc_sample) == len(dec_sample)):
        raise ValueError(
            "samples are misaligned: "
            f"{len(orig_sample)}/{len(enc_sample)}/{len(dec_sample)} points"
        )
    ranges_o = _axis_ranges(orig_sample)
    ranges_e = _axis_ranges(enc_sample)
    ratios = [re / ro for re, ro in zip(ranges_e, ranges_o) if ro > 0]
    eps_enc = eps_orig * (sum(ratios) / len(ratios)) if ratios else eps_orig
    if eps_enc <= 0:
        eps_enc = eps_orig

    clusters = {}
    for name, sample, eps in (
        ("original", orig_sample, eps_orig),
        ("encrypted", enc_sample, eps_enc),
        ("decrypted", dec_sample, eps_orig),
    ):
        labels = dbscan(sample, eps, min_pts)
        clusters[name] = cluster_centroids(sample, labels)

    matched = _greedy_match(clusters["original"], clusters["decrypted"])
    n_orig = len(clusters["original"])
    return {
        "counts": {name: len(c) for name, c in clusters.items()},
        "eps": {"original": eps_orig, "encrypted": eps_enc, "decrypted": eps_orig},
        "min_pts": min_pts,
        "clusters": clusters,
        "matching": {
            "matched_pairs": len(matched),
            "mean_centroid_distance_km": (
                sum(matched) / len(matched) if matched else 0.0
            ),
            "match_accuracy": (len(matched) / n_orig) if n_orig else 1.0,
        },
    }


# ---------------------------------------------------------------------------
# Decryption accuracy


def _rows(path: Path) -> list[tuple[str, tuple[str, str] | None]]:
    """Each non-blank line of a file, if it exists, with its coordinate texts
    (None unless the line has four fields)."""
    rows = []
    if not path.is_file():
        return rows
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() == "":
                continue
            fields = line.rstrip("\r\n").split(",")
            rows.append((line, (fields[2], fields[3]) if len(fields) == 4 else None))
    return rows


def _match(orig_rows, dec_rows) -> tuple[int, int]:
    """(points, matched) of one original/decrypted file pair.

    A decrypted file holds the original's accepted lines in order, so both
    are walked together.  An original line whose coordinates differ from the
    next decrypted line's is skipped if encrypt rejects it, and is a
    mismatch otherwise; the parse runs only on those lines.
    """
    j = matched = 0
    for line, coords in orig_rows:
        if j < len(dec_rows) and coords is not None and coords == dec_rows[j][1]:
            matched += 1
        elif check_line(line)[0] is None:
            continue
        j += 1
    return max(j, len(dec_rows)), matched


def accuracy(orig_dir, dec_dir) -> dict:
    """Point-to-point exact text matching between original and decrypted files.

    A point matches iff both coordinate texts are identical.  Points are the
    original lines that encrypt accepts; files correspond by name, and a
    missing counterpart counts as fully mismatched.
    """
    orig_dir, dec_dir = Path(orig_dir), Path(dec_dir)
    names = sorted(
        {p.name for p in orig_dir.glob("*.txt")} | {p.name for p in dec_dir.glob("*.txt")}
    )
    per_file = []
    total = matched_total = fully_matched = 0
    for name in names:
        orig_path, dec_path = orig_dir / name, dec_dir / name
        n, matched = _match(_rows(orig_path), _rows(dec_path))
        total += n
        if not orig_path.is_file() or not dec_path.is_file():
            per_file.append(
                {"file": name, "total": n, "matched": 0, "fmr": 0.0,
                 "error": "missing counterpart file"}
            )
            continue
        fmr = Fraction(matched, n) if n else Fraction(1)
        if fmr == 1:
            fully_matched += 1
        per_file.append(
            {"file": name, "total": n, "matched": matched, "fmr": float(fmr)}
        )
        matched_total += matched
    omr = Fraction(matched_total, total) if total else Fraction(1)
    return {
        "total_points": total,
        "matched_points": matched_total,
        "mismatched_points": total - matched_total,
        "omr": float(omr),
        "mmr": float(1 - omr),
        "file_count": len(names),
        "fully_matched_files": fully_matched,
        "per_file": per_file,
    }
