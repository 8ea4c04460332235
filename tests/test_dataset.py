"""Dataset pipeline: parsing, cleaning, sampling, synthesis, round trips."""

import io
import time
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofpe import dataset, mapstore
from geofpe.cipher import KINDS, CoordinateCipher
from geofpe.cli import main as cli_main
from geofpe.coords import (
    MAX_FRAC_DIGITS,
    ParseError,
    decompose,
    validate_point,
)
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
from geofpe.metrics import accuracy, dbscan
from halfwrite import open_failing_on
from oracle_decrypt import decrypt_oracle

KEY = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")


# ---------------------------------------------------------------------------
# Parsing and cleaning


def _scan_text(tmp_path, text):
    path = tmp_path / "1.txt"
    path.write_text(text)
    return scan_file(path)


def _rows(scan):
    """A scan's columns as one (head, lon sign, int, frac, digits, lat sign,
    int, frac, digits, terminator) row per accepted line."""
    return list(zip(scan.heads, *scan.lon, *scan.lat, scan.ends))


def _points(tree):
    """A loaded tree as {stem: [(lon, lat), ...]} of Python floats."""
    return {stem: list(map(tuple, tree[stem].tolist())) for stem in tree.rows}


def _components(text):
    """Sign, integer part, fraction value and digit count of coordinate text
    by the reference grammar, as a scan row holds them."""
    n = decompose(text)
    return "-" if n.sign < 0 else "", n.int_part, n.frac_value, n.frac_digits


def test_parse_line_tdrive_format(tmp_path):
    scan = _scan_text(tmp_path, "1,2008-02-02 15:36:08,116.51172,39.92123\n")
    assert scan.errors == []
    [row] = _rows(scan)
    assert row[0] == "1,2008-02-02 15:36:08"
    assert row[1:5] == _components("116.51172")
    assert row[5:9] == _components("39.92123")
    assert row[4] == row[8] == 5
    assert row[9] == "\n"


def test_parse_line_wrong_field_count(tmp_path):
    scan = _scan_text(tmp_path, "1,t,116.5")
    assert _rows(scan) == [] and scan.parse_errors == 1
    assert scan.errors == [(1, "parse error: expected 4 comma-separated fields, got 3")]


def test_parse_line_bad_decimal(tmp_path):
    scan = _scan_text(tmp_path, "1,t,abc,39.9")
    assert _rows(scan) == [] and scan.parse_errors == 1
    assert scan.errors == [(1, "parse error: malformed decimal text: 'abc'")]


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
    assert [(row[1:5], row[5:9]) for row in _rows(scan)] == [
        (_components("-180"), _components("90")),
        (_components("180.000"), _components("-90.0")),
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
    assert len(scan.heads) == 1 and scan.dropped == 1


def test_clean_keeps_all_valid(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text("1,t,116.5,39.9\n1,t,-180,90\n")
    scan = scan_file(path)
    assert len(scan.heads) == 2 and scan.dropped == 0


def test_scan_file_empty(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text("")
    scan = scan_file(path)
    assert _rows(scan) == [] and scan.errors == [] and scan.dropped == 0


def test_scan_file_counts_reasons(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text(
        "1,t,116.5,39.9\n"
        "garbage line\n"
        "1,t,181.0,39.9\n"
        "1,t,116.6,40.0\n"
    )
    scan = scan_file(path)
    assert len(scan.heads) == 2
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
    assert len(scan.heads) == 200
    assert not scan.errors
    assert all(row[4] == 5 for row in _rows(scan))


def test_synth_hotspots_found_by_dbscan(tmp_path):
    out = tmp_path / "synth"
    generate_synthetic(_small_cfg(n_vehicles=10), out)
    points = load_plain_points(out).xy
    labels = dbscan(points, eps=0.005, min_pts=10)
    assert len({c for c in labels if c >= 0}) >= 3


def test_synth_pure_walk_has_no_hotspots(tmp_path):
    out = tmp_path / "walk"
    generate_synthetic(_small_cfg(centers=[], n_vehicles=4), out)
    points = load_plain_points(out).xy
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


def _round_trip(tmp_path, orig_dir):
    enc_dir = tmp_path / "enc"
    dec_dir = tmp_path / "dec"
    cipher = CoordinateCipher(KEY)
    store = MappingStore()
    enc_stats = encrypt_dataset(orig_dir, enc_dir, cipher, store)
    dec_stats = decrypt_dataset(enc_dir, dec_dir, store)
    return enc_dir, dec_dir, store, enc_stats, dec_stats


def _tree_bytes(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


def test_round_trip_byte_identical(tmp_path, synth_dir):
    _, dec_dir, _, enc_stats, dec_stats = _round_trip(tmp_path, synth_dir)
    assert enc_stats.records == dec_stats.records == 6 * 200
    assert dec_stats.record_errors == 0
    for path in sorted(synth_dir.iterdir()):
        assert (dec_dir / path.name).read_bytes() == path.read_bytes()


def test_clean_decrypt_builds_no_fuzzy_index(tmp_path, synth_dir, monkeypatch):
    # Every line of an encrypt-written tree hits the exact lookup, so decrypt
    # never builds the distinct entries behind the fuzzy fallback.
    enc_dir, dec_dir = tmp_path / "enc", tmp_path / "dec"
    store = MappingStore()
    encrypt_dataset(synth_dir, enc_dir, CoordinateCipher(KEY), store)

    def refuse(*_):
        raise AssertionError("fuzzy index built for a clean tree")

    monkeypatch.setattr(mapstore, "_distinct_entries", refuse)
    stats = decrypt_dataset(enc_dir, dec_dir, store)
    assert (stats.records, stats.record_errors, stats.fuzzy_restored) == (1200, 0, 0)
    assert _tree_bytes(dec_dir) == _tree_bytes(synth_dir)


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
            assert -180 <= to_float(lon) <= 180
            assert -90 <= to_float(lat) <= 90


def test_encrypt_assigns_sequential_coord_ids(tmp_path, synth_dir):
    enc_dir, _, _, _, _ = _round_trip(tmp_path, synth_dir)
    cids = []
    for path in sorted(enc_dir.glob("*.txt")):
        for line in path.read_text().splitlines():
            cids.append(int(line.split(",", 1)[0]))
    assert sorted(cids) == list(range(len(cids)))


def test_worker_count_does_not_change_output(tmp_path, synth_dir):
    # --workers is accepted for compatibility and has no effect
    key = tmp_path / "k.key"
    key.write_bytes(KEY)
    outputs = {}
    for workers in ("1", "8"):
        enc, dec, map_path = (tmp_path / f"{name}{workers}" for name in ("enc", "dec", "map"))
        for command, src, dst in (("encrypt", synth_dir, enc), ("decrypt", enc, dec)):
            assert cli_main([
                command, "--input", str(src), "--output", str(dst), "--key", str(key),
                "--map", str(map_path), "--workers", workers,
            ]) == 0
        outputs[workers] = (_tree_bytes(enc), _tree_bytes(dec), map_path.read_bytes())
    assert outputs["1"] == outputs["8"]
    assert outputs["1"][1] == _tree_bytes(synth_dir)


def test_decrypt_reports_unknown_enc_values(tmp_path, synth_dir):
    enc_dir, _, store, _, _ = _round_trip(tmp_path, synth_dir)
    # tamper one encrypted fraction into a value absent from the whole store,
    # so neither the exact nor the fuzzy lookup can resolve it
    unknown_frac = next(
        v for v in range(10**5) if store.lookup_fuzzy("lon_frac", v, 5) is None
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
    points = _points(load_points_auto(enc_dir))
    assert set(points) == {p.stem for p in synth_dir.glob("*.txt")}
    assert all(len(v) == 200 for v in points.values())
    first = sorted(enc_dir.glob("*.txt"))[0]
    _cid, _vid, _ts, lon, lat = first.read_text().splitlines()[0].split(",")
    assert points[first.stem][0] == (float(lon), float(lat))
    assert _points(load_points_auto(synth_dir)) == _points(load_plain_points(synth_dir))


def test_load_points_auto_reads_ragged_file_as_plain(tmp_path):
    # A file is read as encrypted only when every non-blank line has five
    # fields; a stray 5-field line in a plain file is rejected by the cleaning.
    tree = tmp_path / "p5"
    tree.mkdir()
    (tree / "1.txt").write_text("x,1,t,116.5,39.9\n1,t,116.5,39.9\n1,t,116.25,-39.125\n")
    (tree / "2.txt").write_text("0,1,t,116.5,39.9\n1,1,t,116.6\n")
    assert _points(load_points_auto(tree)) == _points(load_plain_points(tree))
    assert _points(load_points_auto(tree))["1"] == [(116.5, 39.9), (116.25, -39.125)]


def test_load_points_auto_holds_encrypted_files_to_the_grammar(tmp_path):
    # An encrypted file is read only when every non-blank line matches the
    # encrypted grammar; float() alone would take nan, 1e2 or " 1.5".
    tree = tmp_path / "enc"
    tree.mkdir()
    (tree / "1.txt").write_text("0,1,t,116.5,39.9\r\n\n1,1,t,-0.25,1\n")
    (tree / "2.txt").write_text("2,2,t,116.5,39.9\n3,2,t,1e2,39.9\n4,2,t,nan,1\n")
    (tree / "3.txt").write_text("5,3,t,116.5,39.9\n\n007,3,t,116.5,39.9\n")
    rejects = {}
    assert _points(load_points_auto(tree, rejects)) == {"1": [(116.5, 39.9), (-0.25, 1.0)]}
    assert rejects == {
        "2": (2, "parse error: malformed decimal text: '1e2'"),
        "3": (3, "parse error: malformed coordinate id '007'"),
    }
    with pytest.raises(ValueError) as exc:
        load_points_auto(tree)
    assert str(exc.value) == f"{tree / '2.txt'}:2: parse error: malformed decimal text: '1e2'"


def test_parse_line_rejects_plus_sign(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text("1,t,116.5,39.9\n1,t,+116.5,39.9\n1,t,116.5,+39.9\n")
    scan = scan_file(path)
    assert len(scan.heads) == 1 and scan.parse_errors == 2
    assert scan.errors == [
        (2, "parse error: malformed decimal text: '+116.5'"),
        (3, "parse error: malformed decimal text: '+39.9'"),
    ]


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
        "2: parse error: malformed coordinate id '-1'",
        "3: no lon_int mapping for coord_id 2 (fuzzy: ambiguous)",
        "4: out of range: lon",
    ]


def test_decrypt_reports_a_fraction_wider_than_its_digits(tmp_path):
    # Id 0's encrypted longitude 65.08736 is shortened to 65.8736: the value
    # 8736 is still id 0's, but its entry holds five digits, so no lookup
    # matches.  That line goes to the sidecar; the rest is still written.
    store = MappingStore()
    store.append("lon_int", [65, 70], [116, 117], [0, 0])
    store.append("lon_frac", [8736, 1234], [77678, 5], [5, 5])
    store.append("lat_int", [12, 13], [39, 40], [0, 0])
    store.append("lat_frac", [3, 4], [9, 8], [1, 1])
    enc_dir, dec_dir = tmp_path / "enc", tmp_path / "dec"
    enc_dir.mkdir()
    (enc_dir / "1.txt").write_text("0,1,t,65.8736,12.3\n1,1,t,70.01234,13.4\n")
    (enc_dir / "2.txt").write_text("0,2,t,-65.08736,12.3\n1,2,t,70.01234,-13.4\n")
    stats = decrypt_dataset(enc_dir, dec_dir, store)
    assert (stats.files, stats.records, stats.record_errors) == (2, 3, 1)
    assert (dec_dir / "1.txt").read_text() == "1,t,117.00005,40.8\n"
    assert (dec_dir / "1.txt.errors").read_text() == (
        "1: no lon_frac mapping for coord_id 0 (fuzzy: not found)\n"
    )
    assert (dec_dir / "2.txt").read_text() == "2,t,-116.77678,39.9\n2,t,117.00005,-40.8\n"
    assert not (dec_dir / "2.txt.errors").exists()


def _two_id_store():
    """Ids 0 and 1; id 0's lon_frac 8736 holds five digits and maps to 77678."""
    store = MappingStore()
    store.append("lon_int", [65, 70], [116, 117], [0, 0])
    store.append("lon_frac", [8736, 1234], [77678, 5], [5, 5])
    store.append("lat_int", [12, 13], [39, 40], [0, 0])
    store.append("lat_frac", [3, 4], [9, 8], [1, 1])
    return store


def _decrypt_text(tmp_path, store, text):
    """Decrypt one file of text; the stats, output and sidecar text, after
    checking both against the line-by-line oracle."""
    enc_dir = tmp_path / "enc"
    enc_dir.mkdir()
    (enc_dir / "1.txt").write_text(text)
    stats = decrypt_dataset(enc_dir, tmp_path / "dec", store)
    assert stats == decrypt_oracle(enc_dir, tmp_path / "oracle", store)
    assert _tree_bytes(tmp_path / "dec") == _tree_bytes(tmp_path / "oracle")
    sidecar = tmp_path / "dec" / "1.txt.errors"
    errors = sidecar.read_text() if sidecar.exists() else ""
    return stats, (tmp_path / "dec" / "1.txt").read_text(), errors


def test_decrypt_checks_the_stored_digit_count(tmp_path):
    # A leading zero added to id 0's encrypted fraction 08736 keeps its value
    # but not its digit count: the line must not decrypt to 116.077678.  The
    # fuzzy fallback (id 5 is beyond the store) matches only entries of the
    # line's digit count too.
    store = _two_id_store()
    stats, out, errors = _decrypt_text(tmp_path, store, (
        "0,1,t,65.008736,12.3\n"
        "5,1,t,65.008736,12.3\n"
        "5,1,t,65.08736,12.3\n"
        "0,1,t,65.08736,12.3\n"
    ))
    assert (stats.records, stats.record_errors, stats.fuzzy_restored) == (2, 2, 4)
    assert out == "1,t,116.77678,39.9\n1,t,116.77678,39.9\n"
    assert errors == (
        "1: no lon_frac mapping for coord_id 0 (fuzzy: not found)\n"
        "2: no lon_frac mapping for coord_id 5 (fuzzy: not found)\n"
    )


def test_fuzzy_restores_count_only_restored_lines(tmp_path):
    # Id 5 is beyond the store: lon_int 70 and lon_frac 1234 have unique
    # fuzzy matches, lat_int 99 none, so the line fails and counts none.
    stats, out, errors = _decrypt_text(tmp_path, _two_id_store(), "5,1,t,70.01234,99.4\n")
    assert (stats.records, stats.record_errors, stats.fuzzy_restored) == (0, 1, 0)
    assert out == ""
    assert errors == "1: no lat_int mapping for coord_id 5 (fuzzy: not found)\n"


def test_decrypt_rejects_ids_and_coordinates_outside_the_grammar(tmp_path):
    # Every component of id 0 has a unique fuzzy match, so only the grammar
    # keeps a line with a lenient id from being restored.  An in-grammar id
    # beyond the store still restores through the fuzzy lookup.
    store = MappingStore()
    store.append("lon_int", [5], [116], [0])
    store.append("lon_frac", [3], [4], [1])
    store.append("lat_int", [6], [39], [0])
    store.append("lat_frac", [7], [9], [1])
    ids = ["0001", "+0", " 0", "0_0", "\u0660", "-1", "1" + "0" * 18]
    lines = [f"{cid},1,t,5.3,6.7\n" for cid in ids] + [
        f"{10**9},1,t,5.3,6.7\n",
        "0,1,t,1000.3,6.7\n",
        "0,1,t,5.3,100.7\n",
        f"0,1,t,5.{'3' * 20},6.7\n",
        "0,1,t,5.3,6.7\n",
    ]
    stats, out, errors = _decrypt_text(tmp_path, store, "".join(lines))
    assert (stats.records, stats.record_errors, stats.fuzzy_restored) == (2, 10, 4)
    assert out == "1,t,116.4,39.9\n" * 2
    assert errors.splitlines() == [
        f"{line_no}: parse error: malformed coordinate id {cid!r}"
        for line_no, cid in enumerate(ids, start=1)
    ] + [
        "9: out of range: lon",
        "10: out of range: lat",
        "11: parse error: lon fraction has 20 digits, more than 19",
    ]


def test_encrypt_debug_line_counts_cipher_work(tmp_path, caplog):
    src = tmp_path / "src"
    src.mkdir()
    (src / "1.txt").write_text("1,t,116.5,39.9\n1,t,116.25,-39.125\n1,t,-0.125,0.5\n")
    cipher, store = CoordinateCipher(KEY), MappingStore()
    with caplog.at_level("DEBUG", logger="geofpe"):
        for run in ("a", "b"):
            encrypt_dataset(src, tmp_path / run, cipher, store)
    spans = [r.getMessage() for r in caplog.records if r.name == "geofpe.dataset"]
    # 12 components; lon_int 116, 116, 0 and lat_int 39, 39, 0 repeat, the
    # fractions 5, 25, 125 and 9, 125, 5 differ in value or digit count
    assert [re.sub(r" in \d+\.\d{3}s$", "", span.split(": ", 1)[1]) for span in spans] == [
        "1 files, 12 components, 10 distinct keys, 0 codebook hits, "
        "4 kernel calls, 10 tweaks",
        "1 files, 12 components, 10 distinct keys, 10 codebook hits, "
        "0 kernel calls, 0 tweaks",
    ]


def test_decrypt_isolates_undecodable_file(tmp_path, synth_dir):
    enc_dir, _, store, _, _ = _round_trip(tmp_path, synth_dir)
    names = sorted(p.name for p in enc_dir.glob("*.txt"))
    with open(enc_dir / names[1], "ab") as fh:
        fh.write(b"\xff\xfe\n")
    dec_dir = tmp_path / "dec_bad"
    stats = decrypt_dataset(enc_dir, dec_dir, store)
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


@pytest.mark.parametrize("failing", ["enc/1.txt", "enc/1.txt.errors", "dec/1.txt"])
def test_failed_write_removes_the_earlier_output(tmp_path, monkeypatch, failing):
    src = tmp_path / "src"
    src.mkdir()
    (src / "1.txt").write_text("1,t,116.5,39.9\n1,t,bad,39.9\n1,t,-0.25,2.5\n")
    (src / "2.txt").write_text("2,t,116.25,39.5\n2,t,-0.5,-2.75\n")
    _round_trip(tmp_path, src)
    target = tmp_path / failing
    assert target.is_file()

    (src / "1.txt").write_text("1,t,1.5,2.5\n1,t,1.5\n1,t,3.25,4.75\n1,t,999,0\n")
    monkeypatch.setattr(mapstore, "open", open_failing_on(target), raising=False)
    enc_dir, dec_dir = tmp_path / "enc", tmp_path / "dec"
    store = MappingStore()
    enc_stats = encrypt_dataset(src, enc_dir, CoordinateCipher(KEY), store)
    if failing.startswith("enc"):
        # the earlier dec/1.txt has no encrypted file now: decrypt refuses it
        with pytest.raises(ValueError, match="would not write: 1.txt;"):
            decrypt_dataset(enc_dir, dec_dir, store)
        dec_dir = tmp_path / "dec2"
    dec_stats = decrypt_dataset(enc_dir, dec_dir, store)
    # the earlier enc/1.txt carries ids the new map gives to 2.txt, and the
    # earlier dec/1.txt would be scored as this run's: both are removed
    assert not target.parent.joinpath("1.txt").exists()
    assert not target.parent.joinpath("1.txt.errors").exists()
    assert list(tmp_path.glob("*/*.tmp")) == []
    failed, passed = (enc_stats, dec_stats) if failing.startswith("enc") else (dec_stats, enc_stats)
    assert len(failed.failed_files) == 1
    assert failed.failed_files[0].startswith("1.txt: ")
    assert "No space left" in failed.failed_files[0]
    assert passed.failed_files == []
    if failing.startswith("enc"):
        # the failed file got no ids: the store holds 2.txt's rows alone
        assert store.entry_count("lon_int") == enc_stats.records == 2
        assert (enc_dir / "2.txt").read_text().startswith("0,")
    # the rest of the tree still decrypts with the store
    assert (dec_dir / "2.txt").read_bytes() == (src / "2.txt").read_bytes()


def test_line_endings_round_trip(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    texts = {
        "crlf.txt": "1,t,116.5,39.9\r\n1,t,-0.125,-39.0\r\n",
        "no_final_newline.txt": "2,t,116.5,39.9\n2,t,116.25,-39.125",
        "mixed.txt": "3,t,1.5,2.5\r\n3,t,181,0\r\n\r\n3,t,1.25,2.75\n3,t,1,2",
    }
    for name, text in texts.items():
        (src / name).write_bytes(text.encode())
    enc_dir, dec_dir, _, enc_stats, dec_stats = _round_trip(tmp_path, src)
    assert enc_stats.records == dec_stats.records == 7
    assert (enc_dir / "crlf.txt").read_bytes().count(b"\r\n") == 2
    assert not (enc_dir / "no_final_newline.txt").read_bytes().endswith(b"\n")
    assert (dec_dir / "crlf.txt").read_bytes() == texts["crlf.txt"].encode()
    assert (dec_dir / "no_final_newline.txt").read_bytes() == (
        texts["no_final_newline.txt"].encode()
    )
    assert (dec_dir / "mixed.txt").read_bytes() == b"3,t,1.5,2.5\r\n3,t,1.25,2.75\n3,t,1,2"


# ---------------------------------------------------------------------------
# Line grammar property

# Vehicle ids and timestamps are passed through as text; anything but the
# field separator and the line terminators is allowed.
_FIELD = st.text(
    st.characters(codec="utf-8", exclude_characters=",\r\n"), max_size=6
)


@st.composite
def _coordinate(draw, bound, min_digits=0):
    """Canonical decimal text in [-bound, bound] with min_digits..MAX_FRAC_DIGITS
    fraction digits."""
    int_part = draw(st.integers(0, bound))
    digits = draw(st.integers(min_digits, MAX_FRAC_DIGITS))
    frac = 0 if int_part == bound else draw(st.integers(0, 10**digits - 1))
    text = draw(st.sampled_from(["", "-"])) + str(int_part)
    return f"{text}.{frac:0{digits}d}" if digits else text


@st.composite
def _accepted_line(draw):
    lon, lat = draw(_coordinate(180)), draw(_coordinate(90))
    return f"{draw(_FIELD)},{draw(_FIELD)},{lon},{lat}", None


@st.composite
def _rejected_line(draw):
    """A line the parser must refuse, with the reason its sidecar entry gives."""
    vid, stamp = draw(_FIELD), draw(_FIELD)
    lon, lat = draw(_coordinate(180)), draw(_coordinate(90))
    kind = draw(st.sampled_from(["fields", "malformed", "wide", "lon", "lat"]))
    if kind == "fields":
        n = draw(st.sampled_from([2, 3, 5]))
        return ",".join(draw(st.lists(_FIELD, min_size=n, max_size=n))), "parse error"
    if kind == "malformed":
        bad = draw(st.sampled_from(["+1.5", "1e5", "01.5", "1.", ".5", "", "1,5"]))
        return f"{vid},{stamp},{bad},{lat}", "parse error"
    if kind == "wide":
        wide = "1." + "7" * draw(st.integers(MAX_FRAC_DIGITS + 1, MAX_FRAC_DIGITS + 6))
        return f"{vid},{stamp},{lon},{wide}", "parse error"
    if kind == "lon":
        return f"{vid},{stamp},{draw(st.integers(181, 999))}.5,{lat}", "out of range: lon"
    return f"{vid},{stamp},{lon},-{draw(st.integers(91, 999))}", "out of range: lat"


_BLANK_LINE = st.tuples(st.sampled_from(["", " ", "\t "]), st.just(""))


@st.composite
def _trace_file(draw):
    """(body, terminator, reason) per line: reason is None for an accepted
    line, "" for a blank one (skipped, no sidecar entry), else the prefix of
    its sidecar entry.  Only the last line may lack a terminator."""
    lines = draw(st.lists(
        st.one_of(_accepted_line(), _rejected_line(), _BLANK_LINE), max_size=12
    ))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if ends:
        ends[-1] = draw(st.sampled_from(["\n", "\r\n", ""]))
    return [(body, end, reason) for (body, reason), end in zip(lines, ends)]


def _layout(text):
    """Sign, integer digit count and fraction digit count of decimal text."""
    int_text, _, frac_text = text.lstrip("-").partition(".")
    return text.startswith("-"), len(int_text), len(frac_text)


@settings(max_examples=60, deadline=None)
@given(_trace_file())
def test_accepted_lines_round_trip_and_rejected_lines_are_reported(lines):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src").mkdir()
        (root / "src" / "1.txt").write_bytes(
            "".join(body + end for body, end, _ in lines).encode()
        )
        _, dec_dir, _, enc_stats, dec_stats = _round_trip(root, root / "src")
        accepted = [body + end for body, end, reason in lines if reason is None]
        rejected = {
            line_no: reason
            for line_no, (_, _, reason) in enumerate(lines, start=1)
            if reason
        }
        assert enc_stats.failed_files == dec_stats.failed_files == []
        assert dec_stats.record_errors == 0
        assert (dec_dir / "1.txt").read_bytes() == "".join(accepted).encode()
        assert accuracy(root / "src", dec_dir)["omr"] == 1.0
        with open(root / "enc" / "1.txt", encoding="utf-8", newline="") as fh:
            encrypted = [line.rstrip("\r\n") for line in fh]
        assert len(encrypted) == len(accepted)
        for plain, enc in zip(accepted, encrypted):
            _, _, lon, lat = plain.rstrip("\r\n").split(",")
            _, _, _, enc_lon, enc_lat = enc.split(",")
            assert _layout(enc_lon) == _layout(lon)
            assert _layout(enc_lat) == _layout(lat)
        sidecar = root / "enc" / "1.txt.errors"
        reported = {}
        if sidecar.exists():
            for entry in sidecar.read_text(encoding="utf-8").split("\n")[:-1]:
                line_no, _, reason = entry.partition(": ")
                reported[int(line_no)] = reason
        assert set(reported) == set(rejected)
        for line_no, reason in rejected.items():
            assert reported[line_no].startswith(reason)


# ---------------------------------------------------------------------------
# Plain reader property

# Coordinate texts on the edges of the grammar: range bounds with zero and
# non-zero fractions, fraction widths around the 15 digits that convert to
# float exactly, negative zero, and non-canonical forms.
_EDGE_ANY = [
    "-0", "-0.0", "0.000000000000001", "1.123456789012345", "-1.1234567890123456",
    "-2.1234567890123456789", "1.12345678901234567890", "+1.5", "01.5", "-00.5",
    "00", "+0",
    # fractions above 2**53 whose float(frac) / 10.0**d misses the exact quotient
    "-0.9554383386220907", "3.2019195072593287042",
]
_EDGE_LON = _EDGE_ANY + [
    "180", "-180.0", "180.000000000000000", "180.000000000000001", "-180.5",
    "179.999999999999999", "-179.9999999999999999999", "180.0000000000000000000",
    "1000", "-999.5",
]
_EDGE_LAT = _EDGE_ANY + [
    "-90", "90.0000", "90.0000000000000000001", "-90.1", "89.9999999999999999999",
    "100", "-90.0000000000000000000",
]


@st.composite
def _edge_line(draw):
    lon = draw(st.one_of(
        st.sampled_from(_EDGE_LON), _coordinate(180), _coordinate(180, min_digits=16)
    ))
    lat = draw(st.one_of(
        st.sampled_from(_EDGE_LAT), _coordinate(90), _coordinate(90, min_digits=16)
    ))
    return f"{draw(_FIELD)},{draw(_FIELD)},{lon},{lat}"


_WHITESPACE_LINE = st.text(st.sampled_from(" \t\x0b\x0c\u00a0\u3000"), max_size=3)


def _row_parts(n):
    return "-" if n.sign < 0 else "", n.int_part, n.frac_value, n.frac_digits


def to_float(n):
    """The float of a DecimalNumber, as the plain layout's loaders give it:
    Python's ``frac / 10**d`` divides two exact integers, correctly rounded."""
    return n.sign * (n.int_part + n.frac_value / 10**n.frac_digits)


def _reference_scan(text):
    """Rows, their line indices, errors and (lon, lat) float.hex pairs of a
    plain file, line by line through decompose, validate_point and
    to_float."""
    rows, at, errors, floats = [], [], [], []
    for line_no, line in enumerate(io.StringIO(text, newline=""), start=1):
        if not line.strip():
            continue
        body = line.rstrip("\r\n")
        fields = body.split(",")
        if len(fields) != 4:
            errors.append(
                (line_no, f"parse error: expected 4 comma-separated fields, got {len(fields)}")
            )
            continue
        try:
            lon, lat = decompose(fields[2]), decompose(fields[3])
        except ParseError as exc:
            errors.append((line_no, f"parse error: {exc}"))
            continue
        wide = [
            f"parse error: {axis} fraction has {n.frac_digits} digits, "
            f"more than {MAX_FRAC_DIGITS}"
            for axis, n in (("lon", lon), ("lat", lat))
            if n.frac_digits > MAX_FRAC_DIGITS
        ]
        axis = validate_point(lon, lat)
        if wide or axis:
            errors.append((line_no, wide[0] if wide else f"out of range: {axis}"))
            continue
        rows.append(
            (f"{fields[0]},{fields[1]}", *_row_parts(lon), *_row_parts(lat),
             line[len(body):])
        )
        at.append(line_no - 1)
        floats.append((to_float(lon).hex(), to_float(lat).hex()))
    return rows, at, errors, floats


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                _accepted_line().map(lambda line: line[0]),
                _rejected_line().map(lambda line: line[0]),
                _edge_line(),
                _WHITESPACE_LINE,
            ),
            st.sampled_from(["\n", "\r\n", "\r"]),
        ),
        max_size=14,
    ),
    st.sampled_from(["\n", "\r\n", "\r", ""]),
)
def test_eval_loaders_equal_scan_file_floats(lines, last_end):
    # scan_file and the eval loaders share one reader; all three are checked
    # against the reference grammar of coords, line by line.
    text = "".join(body + end for body, end in lines[:-1])
    if lines:
        text += lines[-1][0] + last_end
    rows, at, errors, floats = _reference_scan(text)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        (tree / "7.txt").write_bytes(text.encode())
        scan = scan_file(tree / "7.txt")
        assert _rows(scan) == rows
        assert scan.at == at and scan.cids == ()
        assert scan.errors == errors
        assert scan.dropped == sum(r.startswith("out of range") for _, r in errors)
        assert scan.parse_errors == len(errors) - scan.dropped

        def hexed(tree):
            assert set(tree.rows) == {"7"}
            return [(lon.hex(), lat.hex()) for lon, lat in _points(tree)["7"]]

        assert hexed(load_plain_points(tree)) == floats
        with open(tree / "7.txt", encoding="utf-8", newline="") as fh:
            fields = [line.rstrip("\r\n").split(",") for line in fh if line.strip()]
        if not (fields and all(len(f) == 5 for f in fields)):
            assert hexed(load_points_auto(tree)) == floats


# Values around the loaders' float rule and range check: fractions of 16 to
# 19 digits, which may pass 2**53; 3-digit ints with 13 or more fraction
# digits, whose encrypted numerator i * 10**d + f may; negative zeros; and
# the range bounds, which only the plain layout checks.
_LOADER_EDGE = [
    "-0", "-0.000", "179", "180", "180.0", "180.0001", "-180.0000000000000000000",
    "89", "90", "-90.0", "90.0001", "0.9007199254740993", "-0.99999999999999999",
    "1.1234567890123456789", "179.9999999999999999999", "999.1234567890123",
    "-901.0000000000001", "123.99999999999999", "99.12345678901234567",
]


@st.composite
def _loader_line(draw):
    lon, lat = (draw(st.one_of(
        st.sampled_from(_LOADER_EDGE), _coordinate(bound), _coordinate(bound, min_digits=16)
    )) for bound in (180, 90))
    return f"{draw(_FIELD)},{draw(_FIELD)},{lon},{lat}"


@st.composite
def _loader_tree(draw):
    """The texts of 1 to 4 files: accepted, rejected, edge, blank and
    whitespace lines with any terminator; only a file's last line may lack
    one."""
    files = []
    for _ in range(draw(st.integers(1, 4))):
        bodies = draw(st.lists(st.one_of(
            _accepted_line().map(lambda line: line[0]),
            _rejected_line().map(lambda line: line[0]),
            _edge_line(), _loader_line(), _loader_line(), _WHITESPACE_LINE,
        ), max_size=8))
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in bodies]
        if ends:
            ends[-1] = draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
        files.append("".join(map(str.__add__, bodies, ends)))
    return files


def _in_encrypted_grammar(body):
    """Whether the encrypted layout takes ``cid,body``: four fields, canonical
    coordinates of at most 19 fraction digits and 3 (lon) or 2 (lat) int
    digits, whatever their range."""
    fields = body.split(",")
    try:
        lon, lat = decompose(fields[2]), decompose(fields[3])
    except (IndexError, ParseError):
        return False
    return (len(fields) == 4 and lon.int_part < 1000 and lat.int_part < 100
            and max(lon.frac_digits, lat.frac_digits) <= MAX_FRAC_DIGITS)


def _hexed(tree):
    return {stem: [(lon.hex(), lat.hex()) for lon, lat in pts]
            for stem, pts in _points(tree).items()}


@settings(max_examples=200, deadline=None)
@given(_loader_tree(), st.sampled_from([1, 80, 1 << 20]), st.integers(0, 10**18 - 1))
def test_loaders_equal_the_references_across_files(files, slice_chars, cid):
    # The loaders gather the accepted lines of many files at once, in slices
    # of about slice_chars characters.  Every float equals, bit for bit,
    # to_float of the reference grammar in the plain layout and float() of
    # the field's text in the encrypted one; the debug counts say which
    # lines took the per-line path and which values the exact fallback.
    stems = [str(k) for k in range(len(files))]
    plain_floats, enc_floats, line_path, exact = {}, {}, 0, [0, 0]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "_SLICE_CHARS", slice_chars):
        plain, enc = Path(tmp, "plain"), Path(tmp, "enc")
        plain.mkdir()
        enc.mkdir()
        for stem, text in zip(stems, files):
            (plain / f"{stem}.txt").write_bytes(text.encode())
            _, at, errors, plain_floats[stem] = _reference_scan(text)
            lines = io.StringIO(text, newline="").readlines()
            coordinates = [lines[i].rstrip("\r\n").split(",")[2:] for i in at]
            line_path += len(errors) + sum(
                decompose(lon).int_part == 180 or decompose(lat).int_part == 90
                for lon, lat in coordinates
            )
            # the lines in the grammar: gathered in both layouts
            enc_lines = [f"{cid},{line}" for line in lines
                         if _in_encrypted_grammar(line.rstrip("\r\n"))]
            (enc / f"{stem}.txt").write_bytes("".join(enc_lines).encode())
            fields = [line.rstrip("\r\n").split(",")[3:] for line in enc_lines]
            enc_floats[stem] = [(float(lon).hex(), float(lat).hex()) for lon, lat in fields]
            for n in (decompose(text) for f in fields for text in f):
                exact[0] += n.frac_value >= 2**53
                exact[1] += n.int_part * 10**n.frac_digits + n.frac_value >= 2**53
        tree = load_plain_points(plain)
        assert _hexed(tree) == plain_floats
        sizes = [len(floats) for floats in plain_floats.values()]
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        assert [rows.start for rows in tree.rows.values()] == starts
        assert len(tree.xy) == sum(sizes)
        assert (tree.line_path, tree.exact) == (line_path, exact[0])
        rejects = {}
        tree = load_points_auto(enc, rejects)
        assert rejects == {}
        assert _hexed(tree) == enc_floats
        assert (tree.line_path, tree.exact) == (0, exact[1])
        auto = _hexed(load_points_auto(plain, rejects))
        for stem, text in zip(stems, files):
            body = [line for line in io.StringIO(text, newline="") if line.strip()]
            if not body or any(line.count(",") != 4 for line in body):
                assert auto[stem] == plain_floats[stem]


@pytest.mark.parametrize("bad", ["1,t,1e5,1", "1,t,116.5,39.5,x", "1,t,181.5,1"])
def test_load_plain_points_reads_a_half_bad_file_in_linear_time(tmp_path, bad):
    # every second line stops the whole-text match or is a range candidate,
    # and each costs one step of the walk
    (tmp_path / "1.txt").write_text("\n".join(["1,t,116.12345,39.12345", bad] * 10_000) + "\n")
    started = time.perf_counter()
    tree = load_plain_points(tmp_path)
    assert time.perf_counter() - started < 5
    assert len(tree.xy) == tree.line_path == 10_000
    assert _points(tree)["1"] == [(116.12345, 39.12345)] * 10_000


def _scan_columns(scan):
    return scan.at, scan.heads, scan.lon, scan.lat, scan.ends


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _accepted_line().map(lambda line: line[0]),
        _rejected_line().map(lambda line: line[0]),
        _edge_line(),
    ),
    st.sampled_from(["\n", "\r\n", "\r", ""]),
    st.integers(0, 10**18 - 1),
)
def test_the_two_layouts_share_one_grammar(body, end, cid):
    # An encrypted line is a coordinate id and a plain line: the encrypted
    # layout accepts what the plain one does, with the same columns, and
    # rejects what it cannot parse, for the same reason.  It does not check
    # the range.
    plain = dataset.scan_lines([body + end])
    enc = dataset.scan_lines([f"{cid},{body}{end}"], encrypted=True)
    assert plain.cids == ()
    if plain.heads:
        assert enc.cids == (str(cid),)
        assert _scan_columns(enc) == _scan_columns(plain)
        assert enc.errors == []
    elif plain.parse_errors:
        [(line_no, reason)] = plain.errors
        fields = re.fullmatch(r"parse error: expected 4 comma-separated fields, got (\d+)",
                              reason)
        if fields:
            reason = f"expected 5 fields, got {int(fields[1]) + 1}"
        assert enc.heads == () and enc.parse_errors == 1
        assert enc.errors == [(line_no, reason)]
    else:  # out of range, which only the plain layout checks
        vid, stamp, lon, lat = body.split(",")
        if decompose(lon).int_part < 1000 and decompose(lat).int_part < 100:
            assert enc.errors == []
            assert _rows(enc) == [(f"{vid},{stamp}", *_components(lon), *_components(lat), end)]
        else:  # longer int parts than the grammar allows
            assert enc.heads == () and enc.errors == plain.errors


# ---------------------------------------------------------------------------
# Decrypt oracle property

_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                              "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def _decrypt_store(draw):
    """A store of up to 6 ids and its (enc, orig, digits) columns per kind.
    Encrypted values often collide, so the fuzzy lookup meets unique,
    ambiguous and unknown values; integer parts reach four digits."""
    n = draw(st.integers(0, 6))
    store, columns = MappingStore(), {}
    for kind in KINDS:
        if kind.endswith("_int"):
            digits = [0] * n
            enc = draw(st.lists(st.integers(0, 2) | st.integers(0, 1200),
                                min_size=n, max_size=n))
            orig = draw(st.lists(st.integers(0, 180), min_size=n, max_size=n))
        else:
            digits = draw(st.lists(st.integers(0, MAX_FRAC_DIGITS), min_size=n, max_size=n))
            enc = [draw(st.integers(0, min(2, 10**d - 1)) | st.integers(0, 10**d - 1))
                   for d in digits]
            orig = [draw(st.integers(0, 10**d - 1)) for d in digits]
        store.append(kind, enc, orig, digits)
        columns[kind] = enc, orig, digits
    return store, columns


def _tamper_coordinate(draw, coordinate, lon):
    """One change to a (sign, int text, frac text or None) coordinate."""
    sign, int_text, frac_text = coordinate
    change = draw(st.sampled_from(["int", "wide", "digits", "value"]))
    if change == "int":  # longer than the plain grammar allows
        int_text = str(draw(st.integers(1000 if lon else 100, 10**6)))
    elif change == "wide":
        frac_text = draw(st.text("0123456789", min_size=19, max_size=20))
    elif change == "digits":
        frac = frac_text or ""
        frac_text = draw(st.sampled_from(
            [frac[1:] or None, "0" + frac, frac + "0", None, frac or "0"]
        ))
    else:
        value = draw(st.integers(0, 3) | st.integers(0, 10**6))
        if frac_text and draw(st.booleans()):
            frac_text = f"{value:0{len(frac_text)}d}"
        else:
            int_text = str(value)
    return sign, int_text, frac_text


@st.composite
def _encrypted_line(draw, columns):
    """A line built from one id's entries, maybe tampered; or a blank or
    junk line."""
    n = len(columns["lon_int"][0])
    shape = draw(st.sampled_from(["entry", "entry", "entry", "blank", "junk"]))
    if shape == "blank" or n == 0 and shape == "entry":
        return draw(st.sampled_from(["", " ", "\t", "\u3000"]))
    if shape == "junk":
        return ",".join(draw(st.lists(_FIELD, min_size=1, max_size=6)))
    cid = draw(st.integers(0, n - 1))
    coordinates = []
    for axis in ("lon", "lat"):
        enc_int = columns[f"{axis}_int"][0][cid]
        enc_frac, _, d = (col[cid] for col in columns[f"{axis}_frac"])
        coordinates.append(
            (draw(st.sampled_from(["", "-"])), str(enc_int), f"{enc_frac:0{d}d}" if d else None)
        )
    cid_text = str(cid)
    fields = [draw(_FIELD), draw(_FIELD)]
    change = draw(st.sampled_from(["none", "none", "id", "lon", "lat", "fields"]))
    if change == "id":
        cid_text = draw(st.sampled_from([
            f"00{cid}", f"+{cid}", f" {cid}", f"{cid}_0", str(cid).translate(_ARABIC_INDIC),
            "-1", str(n), str(2**64),
        ]))
    elif change in ("lon", "lat"):
        i = change == "lat"
        coordinates[i] = _tamper_coordinate(draw, coordinates[i], change == "lon")
    elif change == "fields":
        fields = draw(st.sampled_from([fields[:1], fields + [draw(_FIELD)]]))
    texts = [f"{s}{i}.{f}" if f is not None else f"{s}{i}" for s, i, f in coordinates]
    return ",".join([cid_text, *fields, *texts])


@st.composite
def _decrypt_case(draw):
    """A store and the bytes of one or two encrypted files, plus sometimes an
    undecodable one."""
    store, columns = draw(_decrypt_store())
    files = {}
    for name in draw(st.sampled_from([["1.txt"], ["1.txt", "2.txt"]])):
        lines = draw(st.lists(_encrypted_line(columns), max_size=10))
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        if ends:
            ends[-1] = draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
        files[name] = "".join(map(str.__add__, lines, ends)).encode()
    if draw(st.booleans()):
        files["3.txt"] = b"0,1,t,1.5,2.5\n\xff\xfe\n"
    return store, files


@settings(max_examples=200, deadline=None)
@given(_decrypt_case())
def test_decrypt_equals_the_line_by_line_oracle(case):
    store, files = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "enc").mkdir()
        for name, data in files.items():
            (root / "enc" / name).write_bytes(data)
        stats = decrypt_dataset(root / "enc", root / "dec", store)
        assert stats == decrypt_oracle(root / "enc", root / "oracle", store)
        assert _tree_bytes(root / "dec") == _tree_bytes(root / "oracle")


@settings(max_examples=200, deadline=None)
@given(_decrypt_case())
def test_load_points_auto_checks_each_encrypted_line(case):
    # One match over the whole file accepts exactly the files whose every
    # non-blank line _ENC_LINE matches; the first line it does not match is
    # the one reported.
    _, files = case
    files.pop("3.txt", None)  # undecodable: eval stops on it
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name, data in files.items():
            (tree / name).write_bytes(data)
        rejects = {}
        points = _points(load_points_auto(tree, rejects))
    for name, data in files.items():
        stem, lines = name[:-4], io.StringIO(data.decode(), newline="").readlines()
        body = [line for line in lines if line.strip()]
        if not body or any(line.count(",") != 4 for line in body):
            continue  # read in the plain layout
        bad = [(i, line) for i, line in enumerate(lines, start=1)
               if line.strip() and not dataset._ENC_LINE.fullmatch(line)]
        if bad:
            assert stem not in points
            assert rejects[stem] == (bad[0][0], dataset._enc_reject_reason(bad[0][1]))
        else:
            assert stem not in rejects
            fields = [line.rstrip("\r\n").split(",") for line in body]
            assert points[stem] == [(float(f[3]), float(f[4])) for f in fields]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\r\n \r\n"])
def test_load_points_auto_rejects_a_long_file_in_linear_time(tmp_path, end):
    # a match that tried each terminator two ways would not end here
    (tmp_path / "1.txt").write_text(
        end.join(["12,1,t,116.12345,39.12345"] * 20_000) + end + "x,1,t,1,1" + end,
        newline="",
    )
    started = time.perf_counter()
    with pytest.raises(ValueError, match="malformed coordinate id 'x'"):
        load_points_auto(tmp_path)
    assert time.perf_counter() - started < 5
