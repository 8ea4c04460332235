"""Evaluation harness: tree loaders, sampling, distance-ratio retention,
hotspot clustering.

Both protocols here compare an original dataset against its encrypted and/or
decrypted counterparts.  Point samples are (lon, lat) float pairs in degrees,
loaded through the reader of ``geofpe.dataset``.  The third protocol,
decryption accuracy, compares coordinate text instead, and lives in the
numpy-free ``geofpe.text``.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .cipher import POW10
from .dataset import _PAD, _Axis, _read
from .text import _dataset_files

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
# Tree loaders and sampling

# Bytes of text read per slice: a loader keeps only the floats, and 1 MB
# slices load a tree about 15% faster than encrypt's 64 KB ones.
_LOAD_SLICE = 1 << 20
_P10F = POW10.astype(np.float64)  # exact: 10**19 = 2**19 * 5**19, and 5**19 < 2**53
_EXACT = np.uint64(2**53)  # a smaller uint64 converts to float64 exactly


@dataclass
class TreePoints:
    """The (lon, lat) floats of a tree's accepted lines as one float64 array,
    files in name order, and each file stem's rows of it; ``tree[stem]`` is a
    view of that file's rows.  The counts say how the loader read them."""

    xy: np.ndarray  # shape (n, 2)
    rows: dict[str, range]
    line_path: int = 0  # lines read one by one: the rejected ones
    exact: int = 0  # values the float rule could not convert, converted in Python
    slices: int = 0  # slices of text gathered

    def __getitem__(self, stem: str) -> np.ndarray:
        rows = self.rows[stem]
        return self.xy[rows.start : rows.stop]


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
    cleaning.  Lets the identity checks point an eval at a plain tree.  In
    either layout a field's float is ``float`` of its text, correctly
    rounded.
    """
    return _load(input_dir, auto=True, rejects=rejects)


def _load(input_dir, auto: bool, rejects=None) -> TreePoints:
    """The one eval loader: the floats of _read's slices of a tree.  A file
    that cannot be read or decoded raises its error."""
    tree = TreePoints(np.empty((0, 2)), {})
    blocks, n = [], 0
    for sl in _read(_dataset_files(input_dir), None if auto else False, _LOAD_SLICE):
        for part in sl.parts:
            if part.failure is not None:
                raise part.failure
            if part.rejected is not None:
                tree.line_path += 1
                if rejects is None:
                    raise ValueError(f"{part.path}:{part.rejected[0]}: {part.rejected[1]}")
                rejects[part.path.stem] = part.rejected
                continue
            tree.rows[part.path.stem] = range(n + part.rows.start, n + part.rows.stop)
        xy = np.empty((len(sl.rows.start), 2))
        for axis, coordinate in enumerate((sl.rows.lon, sl.rows.lat)):
            xy[:, axis], exact = _floats(coordinate)
            tree.exact += exact
        blocks.append(xy)
        n += len(xy)
        tree.line_path += sl.line_path
        tree.slices += len(sl.buf) > len(_PAD)
        del sl  # before the next slice is read
    if blocks:
        tree.xy = np.concatenate(blocks)
    return tree


def _floats(axis: _Axis):
    """The floats of a coordinate field of each row, and how many of them
    the exact fallback converted.  A field's float is ``(i * 10**d + f) /
    10**d``, which is ``float`` of its text: in float64 it equals Python's
    result while the numerator is below 2**53, and other values are
    converted in Python."""
    ints, fracs, digits = axis.ints, axis.fracs, axis.digits
    num = ints * POW10[np.minimum(digits, 15)] + fracs
    fast = (num < _EXACT) & ((digits <= 15) | (ints == 0))
    values = num.astype(np.float64) / _P10F[digits]
    slow = np.flatnonzero(~fast)
    for r, i, f, d in zip(slow.tolist(), ints[slow].tolist(), fracs[slow].tolist(),
                          digits[slow].tolist()):
        values[r] = (i * 10**d + f) / 10**d
    np.negative(values, out=values, where=axis.neg)
    return values, len(slow)


def stratified_sample(rows, n_total: int, seed) -> np.ndarray:
    """Sample n_total points of a tree whose ``rows`` map each vehicle to its
    range of rows: a quota per vehicle proportional to its point count
    (largest-remainder rounding), uniform without replacement inside each
    vehicle.  Returns their rows as int64, vehicles in sorted order and each
    one's rows in increasing order.  Deterministic for a fixed seed."""
    sizes = {vid: len(r) for vid, r in rows.items()}
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
    sample = [np.empty(0, dtype=np.int64)]
    for vid in vids:
        k = quotas[vid]
        if k == 0:
            continue
        rng = random.Random(f"{seed}:{vid}")
        picks = np.array(sorted(rng.sample(range(sizes[vid]), k)), dtype=np.int64)
        sample.append(rows[vid].start + picks)
    return np.concatenate(sample)


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
