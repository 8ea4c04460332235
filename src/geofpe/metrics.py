"""Evaluation harness: distance-ratio retention, hotspot clustering, accuracy.

All three protocols compare an original dataset against its encrypted and/or
decrypted counterparts.  Point samples are (lon, lat) float pairs in degrees;
exactness-sensitive comparisons (decryption accuracy) work on coordinate text
instead.
"""

from __future__ import annotations

import logging
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dataset import _dataset_files, scan_lines

log = logging.getLogger("geofpe.metrics")

EARTH_RADIUS_KM = 6371.0

NOISE = -1


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


# Grid cells are a hair wider than eps/2: two points in one cell are then
# strictly closer than eps, and a pair within eps lies at most two cells apart
# on each axis, so a region query reads the 5x5 block of cells around a point.
_CELL_SLACK = 1e-6
# Cell indices are computed in float64 and floored.  Below 2**30 cells per
# axis their rounding error stays far under the slack, and the padded indices
# combine into one int64 cell key.
_MAX_CELLS = 2**30
# Nearest offsets first, so that the dense-cell joins below mostly find their
# cells already joined through a nearer neighbour.
_BLOCK = sorted(
    ((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)),
    key=lambda d: (d[0] ** 2 + d[1] ** 2, d),
)
_PAIR_CHUNK = 1 << 18  # candidate point pairs held at once


def _block_pairs(order, start, size, ca, cb):
    """Every (point of cell ca[k], point of cell cb[k]) pair, as index arrays
    in chunks of about _PAIR_CHUNK pairs."""
    counts = size[ca] * size[cb]
    ends = np.cumsum(counts)
    sa, sb, wb = start[ca], start[cb], size[cb]
    lo = 0
    while lo < len(ca):
        base = ends[lo] - counts[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")))
        c = counts[lo:hi]
        k = np.repeat(np.arange(lo, hi), c)
        r = np.arange(ends[hi - 1] - base) - np.repeat(ends[lo:hi] - c - base, c)
        i, j = np.divmod(r, wb[k])
        yield order[sa[k] + i], order[sb[k] + j]
        lo = hi


def _flatten(parent):
    """Point every node of a forest straight at its root."""
    while True:
        up = parent[parent]
        if (up == parent).all():
            return parent
        parent = up


def _join(parent, u, v):
    """The forest with each edge (u[k], v[k]) joined, every node pointing at
    the smallest root of its tree."""
    while True:
        parent = _flatten(parent)
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            return parent
        ru, rv = ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))


def dbscan(points, eps: float, min_pts: int) -> list[int]:
    """Density clustering; returns a label per point, NOISE (-1) for outliers.

    A point is core iff it has >= min_pts neighbours within eps degrees
    (Euclidean, inclusive: dx**2 + dy**2 <= eps**2 in float64), counting
    itself.  Clusters are numbered in input order of their first core point,
    and a border point joins the lowest-numbered cluster that reaches it, as
    a scan in input order gives.  Points with a non-finite coordinate are
    NOISE and nobody's neighbour.

    Points are bucketed into cells of side just over eps/2.  A cell holding
    >= min_pts points is all core; only points of sparser cells count their
    neighbours, over the 5x5 block of cells around them.  Raises ValueError
    when eps is so small against the points' extent that the grid would
    exceed 2**30 cells on an axis.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be a positive finite number")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return []
    labels = np.full(n, NOISE, dtype=np.int64)
    finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
    if len(finite) == 0:
        return labels.tolist()
    xs, ys = pts[finite, 0], pts[finite, 1]
    m = len(xs)
    eps2 = eps * eps

    side = eps / 2 * (1 + _CELL_SLACK)
    gx, gy = (xs - xs.min()) / side, (ys - ys.min()) / side
    if not max(gx.max(), gy.max()) < _MAX_CELLS:
        raise ValueError(
            f"eps {eps!r} is too small for the points' extent: the DBSCAN grid "
            f"would need more than 2**30 cells on an axis"
        )
    width = int(gy.max()) + 5
    key = (gx.astype(np.int64) + 2) * width + gy.astype(np.int64) + 2
    order = np.argsort(key, kind="stable")
    cells, start, size = np.unique(key[order], return_index=True, return_counts=True)
    n_cells = len(cells)
    cell_of = np.empty(m, dtype=np.int64)
    cell_of[order] = np.repeat(np.arange(n_cells), size)

    def shifted(subset, dx: int, dy: int):
        """The cells of subset whose (dx, dy) neighbour cell holds points,
        and those neighbours."""
        wanted = cells[subset] + (dx * width + dy)
        found = np.minimum(np.searchsorted(cells, wanted), n_cells - 1)
        hit = cells[found] == wanted
        return subset[hit], found[hit]

    # Core points: only points of sparse cells count their neighbours.
    dense = size >= min_pts
    sparse_cells = np.flatnonzero(~dense)
    count = np.zeros(m, dtype=np.int64)
    for dx, dy in _BLOCK:
        for a, b in _block_pairs(order, start, size, *shifted(sparse_cells, dx, dy)):
            close = (xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2 <= eps2
            count += np.bincount(a[close], minlength=m)
    core = dense[cell_of] | (count >= min_pts)

    # Each sparse-cell point with the cells holding a core point within eps
    # of it: these give the joins of sparse cells and the border labels.  A
    # pass covers one offset, so a point meets one cell and its pairs come
    # in a run; keeping one pair per run keeps memory linear in the points.
    has_core = np.zeros(n_cells, dtype=bool)
    has_core[cell_of[core]] = True
    reach_pt, reach_cell = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for dx, dy in _BLOCK:
        ca, cb = shifted(sparse_cells, dx, dy)
        for a, b in _block_pairs(order, start, size, ca[has_core[cb]], cb[has_core[cb]]):
            close = (xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2 <= eps2
            close &= core[b]
            a, b = a[close], b[close]
            run_start = np.ones(len(a), dtype=bool)
            run_start[1:] = a[1:] != a[:-1]
            reach_pt.append(a[run_start])
            reach_cell.append(cell_of[b[run_start]])
    reach_pt, reach_cell = np.concatenate(reach_pt), np.concatenate(reach_cell)

    # The core points of one cell are pairwise within eps, so clusters are
    # the connected components of cells joined by a core pair within eps.
    link = core[reach_pt]
    parent = _join(np.arange(n_cells), cell_of[reach_pt[link]], reach_cell[link]).tolist()

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    dense_cells = np.flatnonzero(dense)
    for dx, dy in _BLOCK:
        if (dx, dy) <= (0, 0):
            continue  # each unordered pair of dense cells once
        ca, cb = shifted(dense_cells, dx, dy)
        pair = dense[cb]
        for a, b in zip(ca[pair].tolist(), cb[pair].tolist()):
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            pa = order[start[a] : start[a] + size[a]]
            pb = order[start[b] : start[b] + size[b]]
            rows = max(1, _PAIR_CHUNK // len(pb))
            for i in range(0, len(pa), rows):
                sub = pa[i : i + rows, None]
                if ((xs[sub] - xs[pb]) ** 2 + (ys[sub] - ys[pb]) ** 2 <= eps2).any():
                    parent[max(ra, rb)] = min(ra, rb)
                    break
    root = _flatten(np.array(parent, dtype=np.int64))

    # Number the clusters in order of their first core point.
    core_idx = np.flatnonzero(core)
    comp = root[cell_of[core_idx]]
    first = np.full(n_cells, m, dtype=np.int64)
    np.minimum.at(first, comp, core_idx)
    roots = np.flatnonzero(first < m)
    cluster = np.empty(n_cells, dtype=np.int64)
    cluster[roots[np.argsort(first[roots])]] = np.arange(len(roots))
    out = np.full(m, NOISE, dtype=np.int64)
    out[core_idx] = cluster[comp]

    # A border point takes the lowest cluster among its core neighbours.
    best = np.full(m, m, dtype=np.int64)
    np.minimum.at(best, reach_pt[~link], cluster[root[reach_cell[~link]]])
    reached = best < m
    out[reached] = best[reached]
    labels[finite] = out
    return labels.tolist()


def cluster_centroids(points, labels) -> list[dict]:
    """Centroid (mean lon/lat in degrees) and size per cluster, by cluster
    id.  Each mean is Python's sum of the members' floats in input order."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    labels = np.asarray(labels, dtype=np.int64)
    members = np.flatnonzero(labels != NOISE)
    members = members[np.argsort(labels[members], kind="stable")]
    _, starts, sizes = np.unique(labels[members], return_index=True, return_counts=True)
    out = []
    for start, size in zip(starts.tolist(), sizes.tolist()):
        lon, lat = pts[members[start : start + size]].T.tolist()
        out.append({"centroid": [sum(lon) / size, sum(lat) / size], "size": size})
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
        started = time.perf_counter()
        labels = dbscan(sample, eps, min_pts)
        elapsed = time.perf_counter() - started
        clusters[name] = cluster_centroids(sample, labels)
        log.debug(
            "dbscan %s: %d points, %d clusters (eps %r) in %.3fs",
            name, len(sample), len(clusters[name]), eps, elapsed,
        )

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
        elif not scan_lines((line,)).heads:
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
