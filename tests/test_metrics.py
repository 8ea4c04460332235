"""Evaluation metrics against analytic values and brute-force oracles."""

import io
import math
import random
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geofpe import metrics
from geofpe.cipher import CoordinateCipher
from geofpe.dataset import decrypt_dataset, encrypt_dataset
from geofpe.mapstore import MappingStore
from geofpe.metrics import (
    EARTH_RADIUS_KM,
    cluster_centroids,
    dbscan,
    haversine,
    hotspot_analysis,
    rdr_from_errors,
    rdr_summary,
    rdr_trajectory,
    relative_errors,
)
from geofpe.text import accuracy
from oracle_accuracy import accuracy as oracle_accuracy
from oracle_dbscan import dbscan_oracle

KEY = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")


# ---------------------------------------------------------------------------
# Haversine


def test_haversine_identity():
    assert haversine((116.5, 39.9), (116.5, 39.9)) == 0.0


def test_haversine_quarter_great_circle():
    # pole to equator: pi * R / 2
    assert haversine((0.0, 0.0), (0.0, 90.0)) == pytest.approx(
        math.pi * EARTH_RADIUS_KM / 2, abs=1e-3
    )


def test_haversine_half_great_circle():
    assert haversine((0.0, 0.0), (180.0, 0.0)) == pytest.approx(
        math.pi * EARTH_RADIUS_KM, abs=1e-3
    )


def test_haversine_symmetry_and_zero_random():
    rng = random.Random(17)
    for _ in range(5000):
        a = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        b = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        assert haversine(a, b) == haversine(b, a)
        assert haversine(a, a) == 0.0


def test_haversine_triangle_inequality():
    rng = random.Random(23)
    for _ in range(2000):
        pts = [(rng.uniform(-180, 180), rng.uniform(-90, 90)) for _ in range(3)]
        a, b, c = pts
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-9


# ---------------------------------------------------------------------------
# RDR


def _square_trajectory():
    return [(116.0, 39.0), (116.1, 39.0), (116.1, 39.1), (116.0, 39.1), (116.05, 39.05)]


def test_rdr_identity_is_exactly_one():
    traj = _square_trajectory()
    assert rdr_trajectory(traj, traj, n_samples=50, seed="x") == 1.0


def test_rdr_rigid_translation_keeps_ratios():
    traj = [(0.001 * k, 0.0005 * (k * k % 7)) for k in range(8)]
    moved = [(lon + 0.01, lat + 0.005) for lon, lat in traj]
    assert rdr_trajectory(traj, moved, n_samples=100, seed="t") == pytest.approx(
        1.0, abs=1e-6
    )


def test_rdr_exhaustive_tiny_instance_matches_oracle():
    orig = _square_trajectory()
    enc = [orig[i] for i in (3, 0, 4, 1, 2)]  # hand scramble
    draws = [
        (i, j, m, n)
        for i, j in combinations(range(5), 2)
        for m, n in combinations(range(5), 2)
    ]
    got = rdr_from_errors(relative_errors(orig, enc, draws))

    # independent arithmetic over the same draws
    def dist(p, q):
        phi1, phi2 = math.radians(p[1]), math.radians(q[1])
        a = (
            math.sin((phi2 - phi1) / 2) ** 2
            + math.cos(phi1)
            * math.cos(phi2)
            * math.sin((math.radians(q[0]) - math.radians(p[0])) / 2) ** 2
        )
        return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))

    errs = []
    for i, j, m, n in draws:
        r_o = dist(orig[i], orig[j]) / dist(orig[m], orig[n])
        r_e = dist(enc[i], enc[j]) / dist(enc[m], enc[n])
        errs.append(abs(r_o - r_e) / r_o)
    expected = 1.0 - min(sum(errs) / len(errs), 1.0)
    assert got == pytest.approx(expected, abs=1e-12)


def test_rdr_same_seed_same_result():
    orig = _square_trajectory()
    enc = [(lon + 1.0, lat - 0.5) for lon, lat in orig]
    a = rdr_trajectory(orig, enc, n_samples=40, seed="s")
    b = rdr_trajectory(orig, enc, n_samples=40, seed="s")
    assert a == b


def test_rdr_short_trajectory_rejected():
    with pytest.raises(ValueError, match="fewer than 4"):
        rdr_trajectory([(0, 0)] * 3, [(0, 0)] * 3)


def test_rdr_degenerate_draws_skipped():
    # all points coincident: every draw has zero distances
    traj = [(116.0, 39.0)] * 6
    with pytest.raises(ValueError, match="degenerate"):
        rdr_trajectory(traj, traj, n_samples=10, seed="d")


def test_rdr_summary_basic():
    report = rdr_summary([0.0, 0.0, 1.0])
    s = report["summary"]
    assert s["mean"] == pytest.approx(1 / 3)
    assert s["zero_count"] == 2
    assert s["total"] == 3
    assert s["min"] == 0.0 and s["max"] == 1.0


def test_rdr_summary_single_value():
    s = rdr_summary([0.5])["summary"]
    assert s["q1"] == s["median"] == s["q3"] == 0.5


def test_rdr_summary_quartiles_match_sort_oracle():
    rng = random.Random(29)
    values = [rng.random() for _ in range(1000)]

    def quantile(xs, q):
        xs = sorted(xs)
        h = (len(xs) - 1) * q
        lo, hi = math.floor(h), math.ceil(h)
        return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)

    s = rdr_summary(values)["summary"]
    assert s["q1"] == pytest.approx(quantile(values, 0.25), abs=1e-12)
    assert s["median"] == pytest.approx(quantile(values, 0.50), abs=1e-12)
    assert s["q3"] == pytest.approx(quantile(values, 0.75), abs=1e-12)


def test_rdr_summary_cdf_shape():
    report = rdr_summary([0.0, 0.2, 0.2, 0.9])
    cdf = report["cdf"]
    fractions = [p for _, p in cdf]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    assert report["histogram"]["counts"][0] == 1  # the exact zero
    assert sum(report["histogram"]["counts"]) == 4


def test_rdr_summary_empty_rejected():
    with pytest.raises(ValueError):
        rdr_summary([])


# ---------------------------------------------------------------------------
# DBSCAN


def test_dbscan_coincident_points_single_cluster():
    points = [(1.0, 1.0)] * 5
    labels = dbscan(points, eps=0.1, min_pts=5)
    assert labels == [0, 0, 0, 0, 0]


def test_dbscan_two_blobs():
    rng = random.Random(31)
    blob_a = [(rng.gauss(0, 0.01), rng.gauss(0, 0.01)) for _ in range(30)]
    blob_b = [(10 + rng.gauss(0, 0.01), rng.gauss(0, 0.01)) for _ in range(30)]
    points = blob_a + blob_b
    labels = dbscan(points, eps=0.1, min_pts=5)
    assert len({c for c in labels if c >= 0}) == 2
    assert labels == dbscan_oracle(points, 0.1, 5)


def test_dbscan_all_noise():
    points = [(float(i), 0.0) for i in range(10)]
    labels = dbscan(points, eps=0.5, min_pts=2)
    assert labels == [-1] * 10


def test_dbscan_matches_oracle_random_instances():
    rng = random.Random(37)
    for trial in range(60):
        n = rng.randint(1, 40)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        eps = rng.uniform(0.05, 0.4)
        min_pts = rng.randint(1, 6)
        assert dbscan(points, eps, min_pts) == dbscan_oracle(points, eps, min_pts), (
            trial,
            n,
            eps,
            min_pts,
        )


def test_dbscan_parameter_validation():
    with pytest.raises(ValueError):
        dbscan([(0, 0)], eps=0.0, min_pts=1)
    with pytest.raises(ValueError):
        dbscan([(0, 0)], eps=1.0, min_pts=0)
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            dbscan([(0, 0)], eps=eps, min_pts=1)


@st.composite
def _lattice_instance(draw):
    """Points on multiples of eps/2 with a power-of-two eps, so that some pairs
    are exactly eps apart and every point lies on a cell edge; small index
    ranges give duplicates."""
    eps = 2.0 ** draw(st.integers(-7, 3))
    origin = draw(st.sampled_from([0.0, 116.0, -180.0]))
    index = st.integers(-10, 10)
    cells = draw(st.lists(st.tuples(index, index), max_size=60))
    points = [(origin + i * eps / 2, j * eps / 2 - origin / 2) for i, j in cells]
    return points, eps, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(_lattice_instance())
def test_dbscan_matches_oracle_on_lattices(instance):
    points, eps, min_pts = instance
    assert dbscan(points, eps, min_pts) == dbscan_oracle(points, eps, min_pts)


def test_dbscan_matches_oracle_in_small_pair_chunks(monkeypatch):
    # Tiny chunks split the candidate pairs of one cell pair, and the rows of
    # a dense-cell join, across many passes.
    monkeypatch.setattr(metrics, "_PAIR_CHUNK", 3)
    rng = random.Random(59)
    for _ in range(40):
        centres = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        points = [
            (cx + rng.gauss(0, 0.05), cy + rng.gauss(0, 0.05))
            for cx, cy in centres
            for _ in range(rng.randint(0, 25))
        ]
        eps, min_pts = rng.uniform(0.02, 0.2), rng.randint(1, 8)
        assert dbscan(points, eps, min_pts) == dbscan_oracle(points, eps, min_pts)


def test_dbscan_non_finite_points_are_noise():
    rng = random.Random(61)
    finite = [(rng.gauss(0, 0.01), rng.gauss(0, 0.01)) for _ in range(30)]
    bad = [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan), (math.inf, math.inf)]
    bad_at = [0, 8, 16, 33]
    points = list(finite)
    for k, point in zip(bad_at, bad):
        points.insert(k, point)
    labels = dbscan(points, 0.02, 4)
    assert [labels[k] for k in bad_at] == [-1] * len(bad)
    rest = [label for k, label in enumerate(labels) if k not in bad_at]
    assert rest == dbscan_oracle(finite, 0.02, 4)
    assert len(set(rest)) > 1
    assert dbscan(bad, 1.0, 1) == [-1] * len(bad)


def test_dbscan_rejects_eps_too_small_for_the_extent():
    with pytest.raises(ValueError, match="eps 1e-08 is too small"):
        dbscan([(0.0, 0.0), (180.0, 0.0)], eps=1e-8, min_pts=1)
    with pytest.raises(ValueError, match="eps"):
        dbscan([(0.0, 0.0), (0.0, -90.0)], eps=1e-8, min_pts=1)
    # The grid spans the points only: a tiny eps over a tiny extent is fine.
    assert dbscan([(116.5, 39.9), (116.5, 39.9)], eps=1e-12, min_pts=2) == [0, 0]


def test_cluster_centroids():
    points = [(0.0, 0.0), (2.0, 2.0), (50.0, 50.0)]
    info = cluster_centroids(points, [0, 0, -1])
    assert info == [{"centroid": [1.0, 1.0], "size": 2}]


def _centroids_loop(points, labels):
    """cluster_centroids one point at a time: Python sums in input order."""
    clusters = {}
    for point, label in zip(points, labels):
        if label != -1:
            clusters.setdefault(label, []).append(point)
    return [
        {"centroid": [sum(p[0] for p in members) / len(members),
                      sum(p[1] for p in members) / len(members)],
         "size": len(members)}
        for members in (clusters[label] for label in sorted(clusters))
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.tuples(st.floats(-180, 180) | st.sampled_from([-0.0, 0.1, 0.2, 0.3]),
              st.floats(-90, 90) | st.sampled_from([-0.0, 1e-300])),
    st.integers(-1, 4),
), max_size=40))
def test_cluster_centroids_equal_the_per_point_sums(labelled):
    # the means must keep Python's left-to-right sums: np.mean sums
    # pairwise and would change the bits in hotspots.json
    points = [point for point, _ in labelled]
    labels = [label for _, label in labelled]
    got = cluster_centroids(points, labels)
    want = _centroids_loop(points, labels)
    assert [(c["size"], [v.hex() for v in c["centroid"]]) for c in got] == \
        [(c["size"], [v.hex() for v in c["centroid"]]) for c in want]


# ---------------------------------------------------------------------------
# Hotspot analysis


def _blobs(rng, centers, per_blob, std):
    return [
        (cx + rng.gauss(0, std), cy + rng.gauss(0, std))
        for cx, cy in centers
        for _ in range(per_blob)
    ]


def test_hotspot_identity_decrypted_side():
    rng = random.Random(41)
    orig = _blobs(rng, [(116.3, 39.8), (116.5, 40.0), (116.7, 39.9)], 60, 0.001)
    enc = [(rng.uniform(100, 180), rng.uniform(10, 90)) for _ in orig]
    report = hotspot_analysis(orig, enc, list(orig), eps_orig=0.005, min_pts=10)
    assert report["counts"]["original"] == report["counts"]["decrypted"] == 3
    assert report["matching"]["match_accuracy"] == 1.0
    assert report["matching"]["mean_centroid_distance_km"] == 0.0
    assert report["matching"]["matched_pairs"] == 3


def test_hotspot_encrypted_spread_reduces_clusters():
    rng = random.Random(43)
    orig = _blobs(rng, [(116.3, 39.8), (116.5, 40.0), (116.7, 39.9)], 80, 0.001)
    enc = [(rng.uniform(20, 180), rng.uniform(10, 90)) for _ in orig]
    report = hotspot_analysis(orig, enc, list(orig), eps_orig=0.005, min_pts=10)
    assert report["counts"]["encrypted"] < report["counts"]["original"]
    assert report["eps"]["encrypted"] > report["eps"]["original"]


def test_hotspot_single_blob():
    rng = random.Random(47)
    orig = _blobs(rng, [(116.4, 39.9)], 50, 0.001)
    enc = [(rng.uniform(100, 180), rng.uniform(10, 90)) for _ in orig]
    report = hotspot_analysis(orig, enc, list(orig), eps_orig=0.005, min_pts=10)
    assert report["counts"]["original"] == 1
    assert report["matching"]["matched_pairs"] == 1


def test_hotspot_misaligned_samples_rejected():
    with pytest.raises(ValueError, match="misaligned"):
        hotspot_analysis([(0, 0)] * 3, [(0, 0)] * 2, [(0, 0)] * 3)
    with pytest.raises(ValueError, match="non-empty"):
        hotspot_analysis([], [], [])


# ---------------------------------------------------------------------------
# Decryption accuracy


def _write(dirpath, name, lines):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / name).write_text("".join(lines))


def test_accuracy_identical_dirs(tmp_path):
    lines = [f"1,t{i},116.{i:05d},39.{i:05d}\n" for i in range(50)]
    _write(tmp_path / "orig", "1.txt", lines)
    _write(tmp_path / "dec", "1.txt", lines)
    report = accuracy(tmp_path / "orig", tmp_path / "dec")
    assert report["omr"] == 1.0
    assert report["mmr"] == 0.0
    assert report["fully_matched_files"] == report["file_count"] == 1
    assert all(f["fmr"] == 1.0 for f in report["per_file"])


def test_accuracy_one_altered_digit(tmp_path):
    lines = [f"1,t{i},116.{i:05d},39.{i:05d}\n" for i in range(100)]
    _write(tmp_path / "orig", "1.txt", lines)
    altered = list(lines)
    altered[7] = "1,t7,116.00008,39.00007\n"
    _write(tmp_path / "dec", "1.txt", altered)
    report = accuracy(tmp_path / "orig", tmp_path / "dec")
    assert report["omr"] == pytest.approx(0.99)
    assert report["matched_points"] == 99
    assert report["fully_matched_files"] == 0


def test_accuracy_missing_counterpart(tmp_path):
    _write(tmp_path / "orig", "1.txt", ["1,t,116.5,39.9\n"] * 4)
    _write(tmp_path / "orig", "2.txt", ["2,t,116.5,39.9\n"] * 6)
    _write(tmp_path / "dec", "1.txt", ["1,t,116.5,39.9\n"] * 4)
    report = accuracy(tmp_path / "orig", tmp_path / "dec")
    assert report["total_points"] == 10
    assert report["matched_points"] == 4
    missing = [f for f in report["per_file"] if f.get("error")]
    assert len(missing) == 1 and missing[0]["file"] == "2.txt"


def test_accuracy_skips_rejected_original_lines(tmp_path):
    _write(tmp_path / "orig", "1.txt", [
        "1,t,116.5,39.9\n", "1,t,bad,39.9\n", "1,t,181.5,0.5\n", "1,t\n",
        "1,t,116.25,-39.125\n", "1,t,1.5,2.5\n",
    ])
    _write(tmp_path / "dec", "1.txt", [
        "1,t,116.5,39.9\n", "1,t,116.25,-39.125\n", "1,t,1.5,2.6\n",
    ])
    report = accuracy(tmp_path / "orig", tmp_path / "dec")
    assert report["total_points"] == 3
    assert report["matched_points"] == 2


def test_accuracy_pairs_lines_by_id_and_timestamp(tmp_path):
    lines = [f"1,t{i},116.{i:05d},39.{i:05d}\n" for i in range(5)]
    _write(tmp_path / "orig", "1.txt", lines)
    # t1 and t3 were dropped by decrypt, t2 came back altered, and a line
    # without four fields was added; none of it shifts the later lines.
    _write(tmp_path / "dec", "1.txt", [
        lines[0], "1,t2,116.00002,39.00009\n", "junk\n", lines[4],
    ])
    report = accuracy(tmp_path / "orig", tmp_path / "dec")
    assert report["matched_points"] == 2
    assert report["total_points"] == 6  # five original points and the junk line


def test_accuracy_omr_is_point_weighted_fmr_mean(tmp_path):
    rng = random.Random(53)
    for name, n_points, n_bad in (("1.txt", 10, 0), ("2.txt", 7, 3), ("3.txt", 13, 13)):
        lines = [f"v,t{i},116.{i:05d},39.{i:05d}\n" for i in range(n_points)]
        _write(tmp_path / "orig", name, lines)
        bad = list(lines)
        for i in range(n_bad):
            bad[i] = f"v,t{i},0.0,0.0\n"
        _write(tmp_path / "dec", name, bad)
    report = accuracy(tmp_path / "orig", tmp_path / "dec")
    weighted = sum(
        Fraction(f["matched"], 1) for f in report["per_file"]
    ) / sum(f["total"] for f in report["per_file"])
    assert Fraction(report["matched_points"], report["total_points"]) == weighted
    assert report["omr"] == float(weighted)


# Lines of an original: accepted ones, ones that encrypt rejects (malformed,
# out of range, a field too few or too many, a non-ASCII digit), and blank
# ones.
_ACC_LINE = st.one_of(
    st.tuples(st.sampled_from(["1", "2"]), st.sampled_from(["t", "t2"]),
              st.sampled_from(["1.5", "-0.25", "116.5", "180", "0"]),
              st.sampled_from(["2.5", "39.9", "-90.0", "0.125"])).map(",".join),
    st.sampled_from(["1,t,bad", "1,t,181.5,0.5", "1,t,1.5,91", "1,t,+1.5,2.5", "1,t",
                     "1,t,1.5,2.5,9", "1,t,1.5,\u0662"]),
    st.sampled_from(["", " ", "\t", "\x0b", "\u3000"]),
)
_ACC_TEXT = st.tuples(
    st.lists(st.tuples(_ACC_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
    st.sampled_from(["", "1,t,1.5,2.5", "1,t,bad", " "]),  # an unterminated last line
).map(lambda t: "".join(line + eol for line, eol in t[0]) + t[1])
_UNDECODABLE = b"1,t,1.5,2.5\n\xff\n"
# What happens to a decrypted file after decrypt: a line is dropped,
# altered, added, blank or cut to three fields; or the file becomes
# undecodable, goes missing, or has no original.
_ACC_EDIT = st.tuples(
    st.sampled_from(["1", "2", "3"]),
    st.sampled_from(["drop", "alter", "add", "blank", "cut", "undecodable", "missing",
                     "extra"]),
    st.integers(0, 9),
)


def _edit_decrypted(dec_dir, name, op, k):
    path = dec_dir / f"{name}.txt"
    if op == "extra":
        if not path.exists():
            path.write_text("1,t,1.5,2.5\n")
        return
    if not path.exists():
        return
    if op == "missing":
        path.unlink()
        return
    if op == "undecodable":
        path.write_bytes(_UNDECODABLE)
        return
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    lines = io.StringIO(text, newline="").readlines()
    at = k % (len(lines) + 1)
    if op == "add":
        lines.insert(at, "2,t,1.5,2.5\n")
    elif op == "blank":
        lines.insert(at, "\n")
    elif at < len(lines):
        line = lines[at]
        body = line.rstrip("\r\n")
        if op == "drop":
            lines.pop(at)
        elif op == "alter":
            lines[at] = body + "7" + line[len(body):]
        elif op == "cut":
            lines[at] = body.rsplit(",", 1)[0] + line[len(body):]
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(["1", "2", "3"]),
                       _ACC_TEXT | st.just(_UNDECODABLE), max_size=3),
       st.lists(_ACC_EDIT, max_size=3))
@example({"1": "1,t,1.5,2.5\r1,t,bad\n\n"}, [])
@example({"1": "1,t,1.5,2.5\n\n"}, [("1", "blank", 1)])
def test_accuracy_equals_the_line_by_line_oracle(files, edits):
    # The decrypted tree is decrypt's own output, then edited.  Cutting the
    # stop line of the first example joins its "\r" and the blank line's
    # "\n" into one terminator, so the whole comparison fails and the pair
    # is walked.  In the second, the pair is equal whole with a blank line,
    # which is no point.
    with tempfile.TemporaryDirectory() as tmp:
        orig, enc, dec = (Path(tmp) / name for name in ("orig", "enc", "dec"))
        orig.mkdir()
        for name, text in files.items():
            (orig / f"{name}.txt").write_bytes(text if isinstance(text, bytes) else text.encode())
        store = MappingStore()
        encrypt_dataset(orig, enc, CoordinateCipher(KEY), store)
        decrypt_dataset(enc, dec, store)
        for name, op, k in edits:
            _edit_decrypted(dec, name, op, k)
        assert accuracy(orig, dec) == oracle_accuracy(orig, dec)


@given(st.integers(1, 2**53 - 1).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b))))
@example((1, 3))
@example((2**53 - 2, 2**53 - 1))
def test_int_true_division_is_the_rounded_fraction(pair):
    # accuracy's fmr, omr and mmr and the store's conflict rate divide ints
    # below 2**53: Python rounds a / b correctly, so it is float of the
    # exact quotient, and (b - a) / b is float of its complement
    a, b = pair
    assert a / b == float(Fraction(a, b))
    assert (b - a) / b == float(1 - Fraction(a, b))
