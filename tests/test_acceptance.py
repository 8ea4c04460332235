"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The shared synthetic
dataset (220 vehicles x 500 points, 25 planted hotspots, fixed seed) is built
once per session and reused by the dataset-level criteria.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from geofpe import metrics
from geofpe._rounds import decrypt_rounds_raw, encrypt_rounds_raw
from geofpe.cipher import CoordinateCipher, map_fingerprint
from geofpe.cli import main as cli_main
from geofpe.coords import decompose, validate_point
from geofpe.dataset import (
    SynthConfig,
    decrypt_dataset,
    encrypt_dataset,
    generate_synthetic,
    load_plain_points,
    load_points_auto,
    scan_file,
    stratified_sample,
)
from geofpe.mapstore import MappingStore
from geofpe.sm4 import derive_round_keys
from oracle_dbscan import dbscan_oracle

KEY = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")
KINDS = ("lon_int", "lon_frac", "lat_int", "lat_frac")

N_VEHICLES = 220
POINTS_PER_VEHICLE = 500
HOTSPOT_CENTERS = [(116.05 + 0.2 * i, 39.05 + 0.2 * j) for i in range(5) for j in range(5)]


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Synthesize, encrypt and decrypt the acceptance dataset."""
    root = tmp_path_factory.mktemp("acceptance")
    dirs = {
        "orig": root / "orig",
        "enc": root / "enc",
        "dec": root / "dec",
        "map": root / "store.map",
        "reports": root / "reports",
    }
    cfg = SynthConfig(
        n_vehicles=N_VEHICLES,
        points_per_vehicle=POINTS_PER_VEHICLE,
        centers=HOTSPOT_CENTERS,
        hotspot_std=0.001,
        seed="acceptance",
    )
    started = time.perf_counter()
    total = generate_synthetic(cfg, dirs["orig"])
    store = MappingStore()
    enc_stats = encrypt_dataset(dirs["orig"], dirs["enc"], CoordinateCipher(KEY), store)
    store.save(dirs["map"], map_fingerprint(KEY))
    dec_stats = decrypt_dataset(dirs["enc"], dirs["dec"], store)
    elapsed = time.perf_counter() - started
    return {
        "dirs": dirs,
        "store": store,
        "total_points": total,
        "enc_stats": enc_stats,
        "dec_stats": dec_stats,
        "elapsed": elapsed,
    }


def test_criterion_1_round_trip_exactness(pipeline):
    dirs = pipeline["dirs"]
    assert pipeline["total_points"] >= 100_000
    assert N_VEHICLES >= 100
    started = time.perf_counter()
    code = cli_main(
        ["eval", "accuracy", "--orig", str(dirs["orig"]), "--dec", str(dirs["dec"]),
         "--out", str(dirs["reports"])]
    )
    elapsed = pipeline["elapsed"] + (time.perf_counter() - started)
    assert code == 0
    report = json.loads((dirs["reports"] / "accuracy.json").read_text())
    ok = (
        report["omr"] == 1.0
        and report["mmr"] == 0.0
        and report["matched_points"] == report["total_points"] == pipeline["total_points"]
        and all(f["fmr"] == 1.0 for f in report["per_file"])
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"OMR={report['omr']} MMR={report['mmr']} over {report['total_points']} "
        f"points / {report['file_count']} files in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_format_validity(pipeline):
    dirs = pipeline["dirs"]
    checked = 0
    for orig_path in sorted(dirs["orig"].glob("*.txt")):
        scan = scan_file(orig_path)
        enc_lines = (dirs["enc"] / orig_path.name).read_text().splitlines()
        assert len(scan.heads) == len(enc_lines)
        for lon, lat, line in zip(zip(*scan.lon), zip(*scan.lat), enc_lines):
            _cid, _vid, _ts, lon_text, lat_text = line.split(",")
            enc_lon, enc_lat = decompose(lon_text), decompose(lat_text)
            assert validate_point(enc_lon, enc_lat) is None
            for orig, enc_n in ((lon, enc_lon), (lat, enc_lat)):
                sign, int_part, _, digits = orig
                assert len(str(enc_n.int_part)) == len(str(int_part))
                assert enc_n.frac_digits == digits
                assert enc_n.sign == (-1 if sign else 1)
            checked += 1
    _report(
        2,
        checked == pipeline["total_points"],
        f"{checked} encrypted points all valid, digit classes and d preserved",
    )


def test_criterion_3_cipher_core_permutation():
    rk = derive_round_keys(KEY)
    rng = random.Random("criterion3")
    started = time.perf_counter()
    checked = 0
    for w in range(3, 11):
        domain = 1 << w
        for _ in range(16):
            t = rng.randrange(1 << 32)
            outputs = set()
            for v in range(domain):
                c = encrypt_rounds_raw(v, w, t, rk, 8)
                outputs.add(c)
                assert decrypt_rounds_raw(c, w, t, rk, 8) == v
            assert len(outputs) == domain
            checked += domain
    elapsed = time.perf_counter() - started
    _report(
        3,
        elapsed < 5.0,
        f"bijective + invertible over w=3..10, 16 tweaks each "
        f"({checked} points, {elapsed:.2f}s < 5s)",
    )


def test_criterion_4_sm4_key_schedule():
    rk = derive_round_keys(KEY)
    ok = rk[0] == 0xF12186F9 and rk[31] == 0x9124A012
    _report(4, ok, f"rk[0]={rk[0]:08X}, rk[31]={rk[31]:08X} match the standard vector")


def test_criterion_5_spatial_disruption(pipeline):
    dirs = pipeline["dirs"]
    assert len(HOTSPOT_CENTERS) >= 5 and N_VEHICLES >= 200
    out = dirs["reports"] / "rdr"
    code = cli_main(
        ["eval", "rdr", "--orig", str(dirs["orig"]), "--enc", str(dirs["enc"]),
         "--out", str(out), "--samples", "100", "--seed", "acceptance"]
    )
    assert code == 0
    summary = json.loads((out / "rdr.json").read_text())["summary"]

    out_id = dirs["reports"] / "rdr_identity"
    code = cli_main(
        ["eval", "rdr", "--orig", str(dirs["orig"]), "--enc", str(dirs["orig"]),
         "--out", str(out_id), "--samples", "100", "--seed", "acceptance"]
    )
    assert code == 0
    identity = json.loads((out_id / "rdr.json").read_text())["summary"]

    ok = (
        summary["total"] >= 200
        and summary["mean"] <= 0.30
        and summary["median"] <= 0.20
        and identity["mean"] == 1.0
    )
    _report(
        5,
        ok,
        f"encrypted mean RDR {summary['mean']:.4f} (<= 0.30), median "
        f"{summary['median']:.4f} (<= 0.20); identity mean {identity['mean']} (== 1.0)",
    )


def test_criterion_6_hotspot_reduction(pipeline):
    dirs = pipeline["dirs"]
    orig = load_plain_points(dirs["orig"])
    enc = load_points_auto(dirs["enc"])
    dec = load_plain_points(dirs["dec"])
    sample = stratified_sample(orig.rows, 6000, seed="acceptance")
    report = metrics.hotspot_analysis(
        [orig[v][i] for v, i in sample],
        [enc[v][i] for v, i in sample],
        [dec[v][i] for v, i in sample],
        eps_orig=0.005,
        min_pts=10,
    )
    counts = report["counts"]
    matching = report["matching"]
    ok = (
        counts["original"] >= 5
        and counts["encrypted"] <= 0.20 * counts["original"]
        and counts["decrypted"] == counts["original"]
        and matching["match_accuracy"] == 1.0
        and matching["mean_centroid_distance_km"] == 0.0
    )
    _report(
        6,
        ok,
        f"hotspots original={counts['original']} encrypted={counts['encrypted']} "
        f"(<= 20%), decrypted={counts['decrypted']} (equal), accuracy "
        f"{matching['match_accuracy']:.0%}, distance "
        f"{matching['mean_centroid_distance_km']} km",
    )


def test_criterion_7_dbscan_oracle_equivalence():
    rng = random.Random("criterion7")
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 40)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        eps = rng.uniform(0.05, 0.4)
        min_pts = rng.randint(1, 6)
        if metrics.dbscan(points, eps, min_pts) != dbscan_oracle(points, eps, min_pts):
            mismatches += 1
    _report(7, mismatches == 0, "200/200 random instances match the brute-force oracle")


def test_criterion_8_conflict_accounting(tmp_path):
    src = tmp_path / "orig"
    src.mkdir()
    lines = []
    for i in range(40):
        lon = f"{i % 10}.{i:02d}"  # single-digit integer parts force collisions
        lat = f"{(i * 3) % 10}.{(i * 7) % 100:02d}"
        lines.append(f"1,2008-02-02 15:{i:02d}:00,{lon},{lat}\n")
    (src / "1.txt").write_text("".join(lines))

    store = MappingStore()
    encrypt_dataset(src, tmp_path / "enc", CoordinateCipher(KEY), store)
    assert sum(store.conflicts(k) for k in KINDS) > 0, "dataset must force conflicts"

    # recount from the plain tree paired line by line with the encrypted one
    by_kind: dict[str, dict[int, set[int]]] = {k: {} for k in KINDS}
    for orig_path in sorted(src.glob("*.txt")):
        enc_lines = (tmp_path / "enc" / orig_path.name).read_text().splitlines()
        for orig_line, enc_line in zip(orig_path.read_text().splitlines(), enc_lines, strict=True):
            orig_point = [decompose(t) for t in orig_line.split(",")[2:]]
            enc_point = [decompose(t) for t in enc_line.split(",")[3:]]
            for axis, orig_n, enc_n in zip(("lon", "lat"), orig_point, enc_point):
                for part, attr in (("int", "int_part"), ("frac", "frac_value")):
                    by_enc = by_kind[f"{axis}_{part}"]
                    by_enc.setdefault(getattr(enc_n, attr), set()).add(getattr(orig_n, attr))
    for kind in KINDS:
        index = by_kind[kind]
        expected_conflicts = sum(len(s) - 1 for s in index.values())
        expected_cr = (
            Fraction(sum(1 for s in index.values() if len(s) >= 2), len(index))
            if index
            else Fraction(0)
        )
        assert store.conflicts(kind) == expected_conflicts, kind
        assert store.conflict_rate(kind) == expected_cr, kind

    decrypt_dataset(tmp_path / "enc", tmp_path / "dec", store)
    report = metrics.accuracy(src, tmp_path / "dec")
    ok = report["omr"] == 1.0
    conflicts = {k: store.conflicts(k) for k in KINDS}
    _report(
        8,
        ok,
        f"conflicts {conflicts} match a recount from the plain and encrypted trees; "
        f"decryption still exact (OMR {report['omr']})",
    )


def _tree_bytes(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


def test_criterion_9_concurrency_determinism(pipeline, tmp_path):
    # The pipeline runs on one thread; --workers is accepted and ignored.
    dirs = pipeline["dirs"]
    key = tmp_path / "k.key"
    key.write_bytes(KEY)
    outputs = {}
    for workers in ("1", "8"):
        enc, dec, map_path = (tmp_path / f"{name}{workers}" for name in ("enc", "dec", "map"))
        for command, src, dst in (("encrypt", dirs["orig"], enc), ("decrypt", enc, dec)):
            assert cli_main([
                command, "--input", str(src), "--output", str(dst), "--key", str(key),
                "--map", str(map_path), "--workers", workers,
            ]) == 0
        outputs[workers] = (_tree_bytes(enc), map_path.read_bytes(), _tree_bytes(dec))
    enc1, map1, dec1 = outputs["1"]
    _report(
        9,
        outputs["1"] == outputs["8"]
        and enc1 == _tree_bytes(dirs["enc"])
        and map1 == dirs["map"].read_bytes()
        and dec1 == _tree_bytes(dirs["dec"]),
        f"CLI --workers 1 vs 8: {len(enc1)} encrypted files, the map and "
        f"{len(dec1)} decrypted files byte-identical, and equal to the library run",
    )


def test_criterion_10_haversine_accuracy():
    quarter = metrics.haversine((0.0, 0.0), (0.0, 90.0))
    half = metrics.haversine((0.0, 0.0), (180.0, 0.0))
    ok = (
        abs(quarter - math.pi * metrics.EARTH_RADIUS_KM / 2) < 1e-3
        and abs(half - math.pi * metrics.EARTH_RADIUS_KM) < 1e-3
    )
    rng = random.Random("criterion10")
    for _ in range(100_000):
        a = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        b = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        if metrics.haversine(a, b) != metrics.haversine(b, a):
            ok = False
            break
        if metrics.haversine(a, a) != 0.0:
            ok = False
            break
    _report(
        10,
        ok,
        f"quarter {quarter:.3f} km / half {half:.3f} km within 1e-3; "
        "symmetry and d(a,a)=0 on 100,000 random pairs",
    )
