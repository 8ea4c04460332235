"""Dataset pipeline: parsing, cleaning, sampling, synthesis, round trips."""

import pytest

from geofpe.cipher import CoordinateCipher
from geofpe.coords import ParseError, decompose
from geofpe.dataset import (
    SynthConfig,
    decrypt_dataset,
    encrypt_dataset,
    generate_synthetic,
    load_plain_points,
    load_points_auto,
    parse_line,
    scan_file,
    stratified_sample,
)
from geofpe.mapstore import MappingStore
from geofpe.metrics import dbscan

KEY = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")


# ---------------------------------------------------------------------------
# Parsing and cleaning


def test_parse_line_tdrive_format():
    rec = parse_line("1,2008-02-02 15:36:08,116.51172,39.92123\n")
    assert rec.vehicle_id == "1"
    assert rec.timestamp == "2008-02-02 15:36:08"
    assert rec.point.lon == decompose("116.51172")
    assert rec.point.lat == decompose("39.92123")
    assert rec.point.lon.frac_digits == rec.point.lat.frac_digits == 5


def test_parse_line_wrong_field_count():
    with pytest.raises(ParseError):
        parse_line("1,t,116.5")


def test_parse_line_bad_decimal():
    with pytest.raises(ParseError):
        parse_line("1,t,abc,39.9")


def test_scan_file_range_boundaries(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text(
        "1,t,-180,90\n"
        "1,t,180.000,-90.0\n"
        "1,t,181,0\n"
        "1,t,180.00001,0\n"
        "1,t,0,-90.5\n"
    )
    scan = scan_file(path)
    assert [(r.point.lon, r.point.lat) for r in scan.records] == [
        (decompose("-180"), decompose("90")),
        (decompose("180.000"), decompose("-90.0")),
    ]
    assert scan.dropped == 3 and scan.parse_errors == 0
    assert scan.errors == [
        (3, "out of range: lon"),
        (4, "out of range: lon"),
        (5, "out of range: lat"),
    ]


def test_clean_drops_out_of_range(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text("1,t,116.5,39.9\n1,t,181,0\n")
    scan = scan_file(path)
    assert len(scan.records) == 1 and scan.dropped == 1


def test_clean_keeps_all_valid(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text("1,t,116.5,39.9\n1,t,-180,90\n")
    scan = scan_file(path)
    assert len(scan.records) == 2 and scan.dropped == 0


def test_scan_file_empty(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text("")
    scan = scan_file(path)
    assert scan.records == [] and scan.errors == [] and scan.dropped == 0


def test_scan_file_counts_reasons(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text(
        "1,t,116.5,39.9\n"
        "garbage line\n"
        "1,t,181.0,39.9\n"
        "1,t,116.6,40.0\n"
    )
    scan = scan_file(path)
    assert len(scan.records) == 2
    assert scan.parse_errors == 1
    assert scan.dropped == 1
    assert [line_no for line_no, _ in scan.errors] == [2, 3]


# ---------------------------------------------------------------------------
# Stratified sampling


def test_stratified_sample_equal_quotas():
    trajectories = {"a": list(range(50)), "b": list(range(50))}
    sample = stratified_sample(trajectories, 10, seed=1)
    counts = {"a": 0, "b": 0}
    for vid, _ in sample:
        counts[vid] += 1
    assert counts == {"a": 5, "b": 5}


def test_stratified_sample_identity():
    trajectories = {"a": list(range(7))}
    sample = stratified_sample(trajectories, 7, seed=1)
    assert sample == [("a", i) for i in range(7)]


def test_stratified_sample_reproducible():
    trajectories = {str(v): list(range(20 + v)) for v in range(5)}
    assert stratified_sample(trajectories, 31, seed=9) == stratified_sample(
        trajectories, 31, seed=9
    )


def test_stratified_sample_proportionality():
    trajectories = {"a": list(range(300)), "b": list(range(100))}
    sample = stratified_sample(trajectories, 40, seed=2)
    counts = {"a": 0, "b": 0}
    for vid, _ in sample:
        counts[vid] += 1
    assert counts == {"a": 30, "b": 10}


def test_stratified_sample_population_error():
    with pytest.raises(ValueError):
        stratified_sample({"a": [1, 2]}, 3, seed=0)


def test_stratified_sample_no_replacement():
    trajectories = {"a": list(range(100))}
    sample = stratified_sample(trajectories, 60, seed=3)
    assert len(set(sample)) == 60


# ---------------------------------------------------------------------------
# Synthesis


def _small_cfg(**overrides):
    params = dict(
        n_vehicles=6,
        points_per_vehicle=200,
        centers=[(116.35, 39.85), (116.45, 39.95), (116.55, 40.05)],
        hotspot_std=0.001,
        seed=5,
    )
    params.update(overrides)
    return SynthConfig(**params)


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_synthetic(_small_cfg(), a)
    generate_synthetic(_small_cfg(), b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_synth_shape_and_validity(tmp_path):
    out = tmp_path / "synth"
    total = generate_synthetic(_small_cfg(), out)
    assert total == 6 * 200
    files = sorted(out.glob("*.txt"))
    assert len(files) == 6
    scan = scan_file(files[0])
    assert len(scan.records) == 200
    assert not scan.errors
    assert all(r.point.lon.frac_digits == 5 for r in scan.records)


def test_synth_hotspots_found_by_dbscan(tmp_path):
    out = tmp_path / "synth"
    generate_synthetic(_small_cfg(n_vehicles=10), out)
    points = [p for pts in load_plain_points(out).values() for p in pts]
    labels = dbscan(points, eps=0.005, min_pts=10)
    assert len({c for c in labels if c >= 0}) >= 3


def test_synth_pure_walk_has_no_hotspots(tmp_path):
    out = tmp_path / "walk"
    generate_synthetic(_small_cfg(centers=[], n_vehicles=4), out)
    points = [p for pts in load_plain_points(out).values() for p in pts]
    labels = dbscan(points, eps=0.005, min_pts=10)
    assert {c for c in labels if c >= 0} == set()


def test_synth_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(n_vehicles=0)
    with pytest.raises(ValueError):
        _small_cfg(centers=[(999.0, 0.0)])


# ---------------------------------------------------------------------------
# Encrypt / decrypt round trip


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "orig"
    generate_synthetic(_small_cfg(), out)
    return out


def _round_trip(tmp_path, orig_dir, workers=1):
    enc_dir = tmp_path / f"enc{workers}"
    dec_dir = tmp_path / f"dec{workers}"
    cipher = CoordinateCipher(KEY)
    store = MappingStore()
    enc_stats = encrypt_dataset(orig_dir, enc_dir, cipher, store, workers=workers)
    dec_stats = decrypt_dataset(enc_dir, dec_dir, store, workers=workers)
    return enc_dir, dec_dir, store, enc_stats, dec_stats


def test_round_trip_byte_identical(tmp_path, synth_dir):
    _, dec_dir, _, enc_stats, dec_stats = _round_trip(tmp_path, synth_dir)
    assert enc_stats.records == dec_stats.records == 6 * 200
    assert dec_stats.record_errors == 0
    for path in sorted(synth_dir.iterdir()):
        assert (dec_dir / path.name).read_bytes() == path.read_bytes()


def test_encrypted_format_is_preserved(tmp_path, synth_dir):
    enc_dir, _, _, _, _ = _round_trip(tmp_path, synth_dir)
    orig = load_plain_points(synth_dir)
    for path in sorted(enc_dir.glob("*.txt")):
        scan_lines = path.read_text().splitlines()
        assert len(scan_lines) == len(orig[path.stem])
        for line in scan_lines:
            cid, vid, ts, lon_text, lat_text = line.split(",")
            lon, lat = decompose(lon_text), decompose(lat_text)
            assert lon.frac_digits == 5 and lat.frac_digits == 5
            assert -180 <= lon.to_float() <= 180
            assert -90 <= lat.to_float() <= 90


def test_encrypt_assigns_sequential_coord_ids(tmp_path, synth_dir):
    enc_dir, _, _, _, _ = _round_trip(tmp_path, synth_dir)
    cids = []
    for path in sorted(enc_dir.glob("*.txt")):
        for line in path.read_text().splitlines():
            cids.append(int(line.split(",", 1)[0]))
    assert sorted(cids) == list(range(len(cids)))


def test_worker_count_does_not_change_output(tmp_path, synth_dir):
    enc1, dec1, store1, _, _ = _round_trip(tmp_path, synth_dir, workers=1)
    enc8, dec8, store8, _, _ = _round_trip(tmp_path, synth_dir, workers=8)
    for path in sorted(enc1.glob("*.txt")):
        assert path.read_bytes() == (enc8 / path.name).read_bytes()
    for path in sorted(dec1.glob("*.txt")):
        assert path.read_bytes() == (dec8 / path.name).read_bytes()
    assert store1 == store8


def test_decrypt_reports_unknown_enc_values(tmp_path, synth_dir):
    enc_dir, _, store, _, _ = _round_trip(tmp_path, synth_dir)
    # tamper one encrypted fraction into a value absent from the whole store,
    # so neither the exact nor the fuzzy lookup can resolve it
    unknown_frac = next(
        v for v in range(10**5) if store.lookup_fuzzy("lon_frac", v) is None
    )
    target = sorted(enc_dir.glob("*.txt"))[0]
    lines = target.read_text().splitlines(keepends=True)
    cid, vid, ts, lon, lat = lines[0].rstrip("\n").split(",")
    lines[0] = f"{cid},{vid},{ts},{lon.split('.')[0]}.{unknown_frac:05d},{lat}\n"
    target.write_text("".join(lines))

    dec_dir = tmp_path / "dec_tampered"
    stats = decrypt_dataset(enc_dir, dec_dir, store)
    assert stats.record_errors == 1
    sidecar = dec_dir / f"{target.name}.errors"
    assert sidecar.exists()
    assert "no lon_frac mapping" in sidecar.read_text()
    # partial output still written
    assert len((dec_dir / target.name).read_text().splitlines()) == len(lines) - 1


def test_decrypt_fuzzy_fallback_on_unknown_coord_id(tmp_path, synth_dir):
    enc_dir, _, store, _, _ = _round_trip(tmp_path, synth_dir)
    # break one composite key; every component value still has exactly one
    # distinct original in this dataset, so the fuzzy fallback restores it
    target = sorted(enc_dir.glob("*.txt"))[0]
    lines = target.read_text().splitlines(keepends=True)
    cid, rest = lines[0].split(",", 1)
    lines[0] = f"{int(cid) + 10**9},{rest}"
    target.write_text("".join(lines))

    dec_dir = tmp_path / "dec_fuzzy"
    stats = decrypt_dataset(enc_dir, dec_dir, store)
    assert stats.record_errors == 0
    assert stats.fuzzy_restored >= 1
    assert (dec_dir / target.name).read_bytes() == (
        synth_dir / target.name
    ).read_bytes()


def test_encrypt_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    store = MappingStore()
    stats = encrypt_dataset(empty, tmp_path / "enc", CoordinateCipher(KEY), store)
    assert stats.files == 0 and stats.records == 0


def test_parse_errors_produce_sidecar_not_failure(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "1.txt").write_text("1,t,116.5,39.9\nnot,a,valid\n1,t,116.6,39.8\n")
    store = MappingStore()
    stats = encrypt_dataset(src, tmp_path / "enc", CoordinateCipher(KEY), store)
    assert stats.records == 2
    assert stats.parse_errors == 1
    sidecar = tmp_path / "enc" / "1.txt.errors"
    assert sidecar.exists() and "parse error" in sidecar.read_text()


def test_load_points_auto_reads_both_layouts(tmp_path, synth_dir):
    enc_dir, _, _, _, _ = _round_trip(tmp_path, synth_dir)
    points = load_points_auto(enc_dir)
    assert set(points) == {p.stem for p in synth_dir.glob("*.txt")}
    assert all(len(v) == 200 for v in points.values())
    first = sorted(enc_dir.glob("*.txt"))[0]
    _cid, _vid, _ts, lon, lat = first.read_text().splitlines()[0].split(",")
    assert points[first.stem][0] == (float(lon), float(lat))
    assert load_points_auto(synth_dir) == load_plain_points(synth_dir)


def test_load_points_auto_rejects_ragged_encrypted_file(tmp_path):
    enc_dir = tmp_path / "enc"
    enc_dir.mkdir()
    (enc_dir / "1.txt").write_text("0,1,t,116.5,39.9\n1,1,t,116.6\n")
    with pytest.raises(ParseError, match="expected 5 fields"):
        load_points_auto(enc_dir)


def test_parse_line_rejects_plus_sign(tmp_path):
    with pytest.raises(ParseError):
        parse_line("1,t,+116.51172,39.92123")
    path = tmp_path / "1.txt"
    path.write_text("1,t,116.5,39.9\n1,t,+116.5,39.9\n1,t,116.5,+39.9\n")
    scan = scan_file(path)
    assert len(scan.records) == 1 and scan.parse_errors == 2
    assert [line_no for line_no, _ in scan.errors] == [2, 3]


def test_decrypt_tampered_coord_ids_and_values(tmp_path):
    # Every component maps enc 5 to two originals, so the fuzzy fallback is
    # ambiguous and only a correct exact hit can restore a line.
    store = MappingStore()
    for kind in ("lon_int", "lat_int"):
        store.append(kind, [5, 5], [116, 117], [0, 0])
    for kind in ("lon_frac", "lat_frac"):
        store.append(kind, [5, 5], [3, 4], [1, 1])
    enc_dir = tmp_path / "enc"
    enc_dir.mkdir()
    (enc_dir / "1.txt").write_text(
        "0,1,t,5.5,5.5\n"
        "-1,1,t,5.5,5.5\n"
        "2,1,t,5.5,5.5\n"
        f"1,1,t,{2**64}.5,5.5\n"
        "1,1,t,5.5,5.5\n"
    )
    stats = decrypt_dataset(enc_dir, tmp_path / "dec", store)
    assert stats.records == 2 and stats.record_errors == 3
    restored = (tmp_path / "dec" / "1.txt").read_text()
    assert restored == "1,t,116.3,116.3\n1,t,117.4,117.4\n"
    assert (tmp_path / "dec" / "1.txt.errors").read_text().splitlines() == [
        "2: no lon_int mapping for coord_id -1 (fuzzy: ambiguous)",
        "3: no lon_int mapping for coord_id 2 (fuzzy: ambiguous)",
        "4: no lon_int mapping for coord_id 1 (fuzzy: not found)",
    ]


def test_decrypt_isolates_undecodable_file(tmp_path, synth_dir):
    enc_dir, _, store, _, _ = _round_trip(tmp_path, synth_dir)
    names = sorted(p.name for p in enc_dir.glob("*.txt"))
    with open(enc_dir / names[1], "ab") as fh:
        fh.write(b"\xff\xfe\n")
    dec_dir = tmp_path / "dec_bad"
    stats = decrypt_dataset(enc_dir, dec_dir, store, workers=2)
    assert len(stats.failed_files) == 1
    assert stats.failed_files[0].startswith(f"{names[1]}: ")
    assert "decode" in stats.failed_files[0]
    assert not (dec_dir / names[1]).exists()
    for name in names[:1] + names[2:]:
        assert (dec_dir / name).read_bytes() == (synth_dir / name).read_bytes()


def test_second_encrypt_into_one_store_continues_the_ids(tmp_path):
    store = MappingStore()
    cipher = CoordinateCipher(KEY)
    trees = {"a": "1,t,116.5,39.9\n1,t,116.25,-39.125\n", "b": "2,t,1.5,2.5\n"}
    for name, text in trees.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "1.txt").write_text(text)
        encrypt_dataset(tmp_path / name, tmp_path / f"{name}_enc", cipher, store)
    assert (tmp_path / "b_enc" / "1.txt").read_text().startswith("2,")
    assert store.entry_count("lat_frac") == 3
    for name, text in trees.items():
        dec = tmp_path / f"{name}_dec"
        stats = decrypt_dataset(tmp_path / f"{name}_enc", dec, store)
        assert stats.fuzzy_restored == 0
        assert (dec / "1.txt").read_text() == text
