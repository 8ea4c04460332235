"""CLI subcommand flows, exit codes, and report determinism."""

import importlib.util
import json
import logging
import os
import re
import shlex
import stat
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from geofpe.cli import build_parser, main
from geofpe.synth import SynthConfig
from halfwrite import open_failing_on

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# keygen


def test_keygen_writes_16_bytes(tmp_path, capsys):
    out = tmp_path / "k.key"
    code, _, _ = run(capsys, "keygen", str(out))
    assert code == 0
    assert len(out.read_bytes()) == 16


def test_keygen_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "k.key"
    assert run(capsys, "keygen", str(out))[0] == 0
    code, _, err = run(capsys, "keygen", str(out))
    assert code == 1
    assert "--force" in err
    assert run(capsys, "keygen", str(out), "--force")[0] == 0


def test_keygen_hex(tmp_path, capsys):
    out = tmp_path / "k.hex"
    assert run(capsys, "keygen", str(out))[0] == 0
    assert len(out.read_text().strip()) == 32


@pytest.mark.parametrize("text", [b"\xff" * 32, b"0123456789abcdefghij0123456789ab"])
def test_a_hex_key_that_is_not_hex_is_named(tmp_path, capsys, text):
    key = tmp_path / "k.hex"
    key.write_bytes(text)
    code, _, err = run(capsys, "encrypt", "--input", str(tmp_path / "in"), "--output",
                       str(tmp_path / "out"), "--key", str(key), "--map", str(tmp_path / "m"))
    assert code == 1
    assert err == f"error: {key}: not valid hex\n"


@pytest.fixture
def umask_022():
    umask = os.umask(0o022)
    yield
    os.umask(umask)


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("name", ["k.key", "k.hex"])
def test_keygen_creates_the_key_with_mode_0600(tmp_path, capsys, umask_022, name):
    out = tmp_path / name
    assert run(capsys, "keygen", str(out))[0] == 0
    assert _mode(out) == 0o600
    # --force over a key readable by all, and over a stale .tmp, ends at 0600
    out.chmod(0o644)
    (tmp_path / f"{name}.tmp").write_bytes(b"stale")
    before = out.read_bytes()
    assert run(capsys, "keygen", str(out), "--force")[0] == 0
    assert _mode(out) == 0o600
    assert out.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_failed_keygen_rewrite_keeps_the_earlier_key(tmp_path, capsys, monkeypatch):
    out = tmp_path / "k.key"
    assert run(capsys, "keygen", str(out))[0] == 0
    before = out.read_bytes()
    monkeypatch.setattr("builtins.open", open_failing_on(out))
    code, _, err = run(capsys, "keygen", str(out), "--force")
    assert code == 1
    assert "No space left" in err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["k.key"]


# ---------------------------------------------------------------------------
# pipeline


@pytest.fixture
def key_file(tmp_path):
    path = tmp_path / "k.key"
    path.write_bytes(bytes.fromhex("0123456789ABCDEFFEDCBA9876543210"))
    return str(path)


def _synth(capsys, tmp_path, **kw):
    out = tmp_path / "orig"
    args = [
        "synth", "--output", str(out), "--vehicles", "8", "--points", "120",
        "--seed", "7",
    ]
    for flag, value in kw.items():
        args += [f"--{flag}", str(value)]
    code, _, _ = run(capsys, *args)
    assert code == 0
    return out


def test_full_pipeline_round_trip(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path)
    enc, dec, mp = tmp_path / "enc", tmp_path / "dec", tmp_path / "store.map"

    code, out, _ = run(
        capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp),
    )
    assert code == 0
    assert "encrypted 960 records" in out

    code, out, _ = run(
        capsys, "decrypt", "--input", str(enc), "--output", str(dec),
        "--key", key_file, "--map", str(mp),
    )
    assert code == 0

    for path in sorted(orig.iterdir()):
        assert (dec / path.name).read_bytes() == path.read_bytes()

    report_dir = tmp_path / "reports"
    code, out, _ = run(
        capsys, "eval", "accuracy", "--orig", str(orig), "--dec", str(dec),
        "--out", str(report_dir),
    )
    assert code == 0
    assert "OMR 100.00%" in out
    report = json.loads((report_dir / "accuracy.json").read_text())
    assert report["omr"] == 1.0 and report["mmr"] == 0.0


def test_encrypt_empty_dir(tmp_path, capsys, key_file):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run(
        capsys, "encrypt", "--input", str(empty), "--output", str(tmp_path / "enc"),
        "--key", key_file, "--map", str(tmp_path / "m.map"),
    )
    assert code == 0
    assert "encrypted 0 records" in out


def _encrypt_decrypt(capsys, tmp_path, key_file, orig):
    enc, dec, mp = tmp_path / "enc", tmp_path / "dec", tmp_path / "store.map"
    enc_result = run(
        capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp),
    )
    dec_result = run(
        capsys, "decrypt", "--input", str(enc), "--output", str(dec),
        "--key", key_file, "--map", str(mp),
    )
    return enc_result, dec_result, enc, dec


def test_fraction_width_limit(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    wide19 = "1,t,116.1234567890123456789,39.9999999999999999999\n"
    wide20 = "1,t,116.12345678901234567890,39.5\n"
    plain = "1,t,116.5,39.9\n"
    (orig / "1.txt").write_text(wide19 + wide20 + plain)

    (enc_code, out, _), (dec_code, _, _), enc, dec = _encrypt_decrypt(
        capsys, tmp_path, key_file, orig
    )
    assert enc_code == 0 and dec_code == 0
    assert "encrypted 2 records" in out
    reason = (enc / "1.txt.errors").read_text()
    assert reason.startswith("2: parse error: lon fraction has 20 digits")
    assert (dec / "1.txt").read_text() == wide19 + plain


def test_files_without_accepted_records(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text("garbage\n1,t,200.5,39.9\n")
    (orig / "2.txt").write_text("")
    (orig / "3.txt").write_text("\n\n")
    plain = "4,t,116.5,39.9\n4,t,116.25,-39.125\n"
    (orig / "4.txt").write_text(plain)

    (enc_code, out, _), (dec_code, _, _), enc, dec = _encrypt_decrypt(
        capsys, tmp_path, key_file, orig
    )
    assert enc_code == 0 and dec_code == 0
    assert "encrypted 2 records from 4 files" in out
    assert (enc / "1.txt").read_text() == ""
    assert len((enc / "1.txt.errors").read_text().splitlines()) == 2
    assert (enc / "2.txt").read_text() == ""
    assert (dec / "4.txt").read_text() == plain


def test_eval_accuracy_skips_rejected_lines(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text(
        "1,t,116.5,39.9\n1,t,bad,39.9\n1,t,116.25,-39.125\n1,t,-0.125,0.5\n"
    )
    _encrypt_decrypt(capsys, tmp_path, key_file, orig)
    code, out, _ = run(
        capsys, "eval", "accuracy", "--orig", str(orig), "--dec", str(tmp_path / "dec"),
        "--out", str(tmp_path / "reports"),
    )
    assert code == 0
    assert "OMR 100.00% (3/3 points, 1/1 files fully matched)" in out


def test_eval_accuracy_counts_a_line_decrypt_dropped(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text(
        "".join(f"1,2008-02-02 13:30:{15 * i:02d},116.5000{i},39.9000{i}\n" for i in range(5))
    )
    enc_dir = tmp_path / "enc"
    run(
        capsys, "encrypt", "--input", str(orig), "--output", str(enc_dir),
        "--key", key_file, "--map", str(tmp_path / "store.map"),
    )
    # Line 2 gets an unknown coordinate id and an in-range longitude integer
    # that no entry holds (each holds a three-digit one), so decrypt can
    # restore it neither exactly nor by the fuzzy lookup.
    lines = (enc_dir / "1.txt").read_text().splitlines(keepends=True)
    _cid, vid, stamp, lon, lat = lines[1].rstrip("\n").split(",")
    lines[1] = f"999,{vid},{stamp},7.{lon.partition('.')[2]},{lat}\n"
    (enc_dir / "1.txt").write_text("".join(lines))
    dec = tmp_path / "dec"
    code, _, _ = run(
        capsys, "decrypt", "--input", str(enc_dir), "--output", str(dec),
        "--key", key_file, "--map", str(tmp_path / "store.map"),
    )
    assert code == 1
    assert (dec / "1.txt.errors").read_text() == (
        "2: no lon_int mapping for coord_id 999 (fuzzy: not found)\n"
    )
    kept = (orig / "1.txt").read_text().splitlines(keepends=True)
    assert (dec / "1.txt").read_text() == "".join(kept[:1] + kept[2:])
    code, out, _ = run(
        capsys, "eval", "accuracy", "--orig", str(orig), "--dec", str(dec),
        "--out", str(tmp_path / "reports"),
    )
    assert code == 0
    assert "OMR 80.00% (4/5 points, 0/1 files fully matched)" in out


def test_unreadable_file_is_isolated(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path)
    (orig / "4.txt").write_bytes(b"4,t,116.5,39.9\n\xff\xfe\n")
    total = sum(
        len(p.read_text().splitlines()) for p in orig.glob("*.txt") if p.name != "4.txt"
    )

    (enc_code, out, err), (dec_code, _, _), enc, dec = _encrypt_decrypt(
        capsys, tmp_path, key_file, orig
    )
    assert enc_code == 1
    assert "4.txt" in err and "decode" in err
    assert f"encrypted {total} records from 8 files" in out
    assert not (enc / "4.txt").exists()
    cids = sorted(
        int(line.split(",", 1)[0])
        for p in enc.glob("*.txt")
        for line in p.read_text().splitlines()
    )
    assert cids == list(range(total))
    assert dec_code == 0
    for path in orig.glob("*.txt"):
        if path.name != "4.txt":
            assert (dec / path.name).read_bytes() == path.read_bytes()


def test_undecodable_encrypted_file_is_isolated(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    for i in (1, 2, 3):
        (orig / f"{i}.txt").write_text(f"{i},t,116.5,39.9\n{i},t,116.25,-39.125\n")
    (enc_code, _, _), _, enc, dec = _encrypt_decrypt(capsys, tmp_path, key_file, orig)
    assert enc_code == 0
    with open(enc / "2.txt", "ab") as fh:
        fh.write(b"\xff\xfe")

    code, out, err = run(
        capsys, "decrypt", "--input", str(enc), "--output", str(tmp_path / "dec2"),
        "--key", key_file, "--map", str(tmp_path / "store.map"),
    )
    assert code == 1
    assert "decrypted 4 records from 3 files" in out
    assert err.startswith("error: failed file 2.txt: ") and "decode" in err
    assert not (tmp_path / "dec2" / "2.txt").exists()
    for name in ("1.txt", "3.txt"):
        assert (tmp_path / "dec2" / name).read_bytes() == (orig / name).read_bytes()


def test_shortened_fraction_goes_to_the_sidecar(tmp_path, capsys, key_file):
    # Dropping the leading 0 of an encrypted fraction keeps its value but not
    # its digit count; the map stores no 4-digit fraction, so neither the
    # exact nor the fuzzy lookup matches.
    orig = tmp_path / "orig"
    orig.mkdir()
    plain = [f"1,t,116.{50000 + 997 * i},39.9\n" for i in range(40)]
    (orig / "1.txt").write_text("".join(plain))
    (orig / "2.txt").write_text("2,t,116.5,39.9\n")
    (enc_code, _, _), (dec_code, _, _), enc, dec = _encrypt_decrypt(
        capsys, tmp_path, key_file, orig
    )
    assert enc_code == dec_code == 0
    lines = (enc / "1.txt").read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if ".0" in line.split(",")[3])
    cid, vid, stamp, lon, lat = lines[i].split(",")
    int_text, frac_text = lon.split(".")
    lines[i] = f"{cid},{vid},{stamp},{int_text}.{frac_text[1:]},{lat}"
    (enc / "1.txt").write_text("".join(lines))

    code, out, err = run(
        capsys, "decrypt", "--input", str(enc), "--output", str(tmp_path / "dec2"),
        "--key", key_file, "--map", str(tmp_path / "store.map"),
    )
    assert code == 1
    assert "decrypted 40 records from 2 files (1 record errors" in out
    assert err == ""
    assert (tmp_path / "dec2" / "1.txt").read_text() == "".join(plain[:i] + plain[i + 1:])
    assert (tmp_path / "dec2" / "1.txt.errors").read_text() == (
        f"{i + 1}: no lon_frac mapping for coord_id {cid} (fuzzy: not found)\n"
    )
    assert (tmp_path / "dec2" / "2.txt").read_bytes() == (orig / "2.txt").read_bytes()


def test_decrypt_debug_log_counts_both_paths(tmp_path, capsys, caplog, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    plain = "1,t,116.5,39.9\n1,t,116.25,-39.125\n1,t,-0.125,0.5\n"
    (orig / "1.txt").write_text(plain)
    enc, mp = tmp_path / "enc", tmp_path / "store.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp))
    lines = (enc / "1.txt").read_text().splitlines(keepends=True)
    # an id beyond the map: every component of the line has one fuzzy match
    cid, rest = lines[1].split(",", 1)
    lines[1] = f"{int(cid) + 10**9},{rest}"
    (enc / "1.txt").write_text("".join(lines))

    with caplog.at_level(logging.DEBUG, logger="geofpe"):
        code, out, _ = run(
            capsys, "decrypt", "--input", str(enc), "--output", str(tmp_path / "dec"),
            "--key", key_file, "--map", str(mp),
        )
    assert code == 0
    assert re.fullmatch(
        r"decrypted 3 records from 1 files \(0 record errors, 4 fuzzy fallbacks\) "
        r"in \d+\.\d\ds\n", out
    )
    assert (tmp_path / "dec" / "1.txt").read_text() == plain
    spans = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(spans) == 2
    # the loaded store holds the map's columns: all but the magic, the
    # fingerprint, four 11-byte headers and the CRC
    assert re.fullmatch(
        r"load map .*store\.map: GFPEMAP2, enc/orig/d bytes lon_int 1/1/0, "
        r"lon_frac 2/1/1, lat_int 1/1/0, lat_frac 2/1/1; "
        r"3 coordinate ids, 36 column bytes held, 108 bytes in \d+\.\d{3}s", spans[0]
    )
    assert mp.stat().st_size - (8 + 16 + 4 * 11 + 4) == 36
    assert re.fullmatch(
        r"decrypt .*enc: 1 files, 3 lines restored, 0 record errors "
        r"\(4 fuzzy restores\) in \d+\.\d{3}s; 0 lines read one by one, 1 gather slices",
        spans[1],
    )


def test_eval_debug_log_spans_each_tree_load(tmp_path, capsys, caplog, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text(
        "1,t,116.5,39.9\n1,t,116.25,-39.125\n"
        "1,t,180.0,0.5\n"  # on the bound: accepted
        "1,t,180.5,0.5\n1,t,1e5,1\n"  # out of range, malformed: both stop the walk
        "1,t,0.12345678901234567,1.5\n"  # a fraction past 2**53: the exact fallback
        "1,t,-0.125,0.5\n"
    )
    enc = tmp_path / "enc"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(tmp_path / "store.map"))
    with caplog.at_level(logging.DEBUG, logger="geofpe.cli"):
        code, _, _ = run(capsys, "eval", "rdr", "--orig", str(orig), "--enc", str(enc),
                         "--out", str(tmp_path / "reports"))
    assert code == 0
    spans = [r.getMessage() for r in caplog.records
             if r.name == "geofpe.cli" and r.getMessage().startswith("load ")]
    assert len(spans) == 2
    assert re.fullmatch(
        r"load original .*orig: 5 points in 1 files in \d+\.\d{3}s; 2 lines read one "
        r"by one, 1 exact float fallbacks, 1 gather slices", spans[0]
    )
    assert re.fullmatch(
        r"load encrypted .*enc: 5 points in 1 files in \d+\.\d{3}s; 0 lines read one "
        r"by one, [01] exact float fallbacks, 1 gather slices", spans[1]
    )


def test_eval_accuracy_debug_log_counts_whole_and_walked_files(tmp_path, capsys, caplog,
                                                               key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    for vid in (1, 2):
        (orig / f"{vid}.txt").write_text(
            "".join(f"{vid},t{i},116.5000{i},39.9000{i}\n" for i in range(3))
            + f"{vid},t,bad,39.9\n"  # a stop line: cut before the whole comparison
        )
    enc, dec, mp = tmp_path / "enc", tmp_path / "dec", tmp_path / "store.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp))
    # decrypt drops line 2 of 2.txt: an unknown coordinate id and a one-digit
    # longitude integer, which no entry holds
    lines = (enc / "2.txt").read_text().splitlines(keepends=True)
    _cid, vid, stamp, lon, lat = lines[1].split(",")
    lines[1] = f"999,{vid},{stamp},7.{lon.partition('.')[2]},{lat}"
    (enc / "2.txt").write_text("".join(lines))
    assert run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
               "--key", key_file, "--map", str(mp))[0] == 1
    with caplog.at_level(logging.DEBUG, logger="geofpe"):
        code, out, _ = run(capsys, "eval", "accuracy", "--orig", str(orig), "--dec", str(dec),
                           "--out", str(tmp_path / "reports"))
    assert code == 0
    assert "(5/6 points, 1/2 files fully matched)" in out
    [span] = [r.getMessage() for r in caplog.records if r.name == "geofpe.text"]
    assert re.fullmatch(
        r"accuracy .*orig vs .*dec: 2 files, 1 compared whole, 1 walked line by line "
        r"in \d+\.\d{3}s", span
    )


def test_encrypt_debug_log_spans_the_save(tmp_path, capsys, caplog, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,116.25,-39.125\n1,t,-0.125,0.5\n")
    mp = tmp_path / "store.map"
    with caplog.at_level(logging.DEBUG, logger="geofpe"):
        code, _, _ = run(
            capsys, "encrypt", "--input", str(orig), "--output", str(tmp_path / "enc"),
            "--key", key_file, "--map", str(mp),
        )
    assert code == 0
    spans = [
        r.getMessage() for r in caplog.records
        if r.name == "geofpe.cli" and r.levelno == logging.DEBUG
    ]
    # magic and fingerprint, per kind an 11-byte header and three entries of
    # 1+1 (integer parts) or 2+1+1 (fractions) bytes, then the CRC
    assert mp.stat().st_size == 8 + 16 + 4 * 11 + 3 * (2 + 4 + 2 + 4) + 4 == 108
    assert len(spans) == 1
    # one file's chunks, at the widths of its map's columns
    assert re.fullmatch(
        r"save map .*store\.map: GFPEMAP2, enc/orig/d bytes lon_int 1/1/0, "
        r"lon_frac 2/1/1, lat_int 1/1/0, lat_frac 2/1/1; "
        r"3 coordinate ids, 36 column bytes held, 108 bytes in \d+\.\d{3}s", spans[0]
    )


def test_encrypt_writes_the_map_with_mode_0600(tmp_path, capsys, key_file, umask_022):
    orig = _synth(capsys, tmp_path)
    mp = tmp_path / "store.map"
    assert run(capsys, "encrypt", "--input", str(orig), "--output", str(tmp_path / "enc"),
               "--key", key_file, "--map", str(mp))[0] == 0
    assert _mode(mp) == 0o600


def test_decrypt_with_a_different_key_writes_nothing(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path)
    enc, mp = tmp_path / "enc", tmp_path / "store.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp))
    other_key = tmp_path / "other.hex"
    other_key.write_text("0123456789ABCDEFFEDCBA9876543211\n")
    dec = tmp_path / "dec"
    code, out, err = run(
        capsys, "decrypt", "--input", str(enc), "--output", str(dec),
        "--key", str(other_key), "--map", str(mp),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {mp}: map written under a different key\n"
    assert not dec.exists()


# Written by the GFPEMAP1 writer that GFPEMAP2 replaced, from _V1_PLAIN
# under key_file's key.
_V1_PLAIN = "1,t,116.5,39.9\n1,t,116.25,-39.125\n1,t,-0.125,0.5\n"
_V1_ENCRYPTED = "0,1,t,135.1,20.6\n1,1,t,135.07,-20.262\n2,1,t,-4.382,8.9\n"
_V1_MAP = bytes.fromhex(
    "474650454d41503103000000000000000000000000000000008700000000000000740000"
    "000000000000000100000000000000870000000000000074000000000000000000020000"
    "000000000004000000000000000000000000000000000300000000000000010000000000"
    "000000010000000000000005000000000000000101010000000000000007000000000000"
    "001900000000000000020102000000000000007e010000000000007d0000000000000003"
    "030000000000000002000000000000000014000000000000002700000000000000000201"
    "000000000000001400000000000000270000000000000000020200000000000000080000"
    "000000000000000000000000000003000000000000000300000000000000000600000000"
    "00000009000000000000000103010000000000000006010000000000007d000000000000"
    "000303020000000000000009000000000000000500000000000000019ff29352"
)


def test_decrypt_refuses_a_gfpemap1_map(tmp_path, capsys, key_file):
    enc, mp = tmp_path / "enc", tmp_path / "v1.map"
    enc.mkdir()
    (enc / "1.txt").write_text(_V1_ENCRYPTED)
    mp.write_bytes(_V1_MAP)
    other_key = tmp_path / "other.hex"
    other_key.write_text("00" * 16)
    # GFPEMAP1 holds no key, so no key can be checked against it
    dec = tmp_path / "dec"
    for key in (key_file, str(other_key)):
        code, out, err = run(
            capsys, "decrypt", "--input", str(enc), "--output", str(dec),
            "--key", key, "--map", str(mp),
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {mp}: GFPEMAP1 maps are no longer read: they hold no key "
            "fingerprint; re-encrypt the plaintext to write a GFPEMAP2 map\n"
        )
        assert not dec.exists()
    # re-encrypting the plaintext writes the same tree, and a GFPEMAP2 map
    # that decrypts it
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text(_V1_PLAIN)
    v2 = tmp_path / "v2.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(tmp_path / "enc2"),
        "--key", key_file, "--map", str(v2))
    assert (tmp_path / "enc2" / "1.txt").read_text() == _V1_ENCRYPTED
    assert v2.read_bytes()[:8] == b"GFPEMAP2"
    assert run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
               "--key", key_file, "--map", str(v2))[0] == 0
    assert (dec / "1.txt").read_text() == _V1_PLAIN


@pytest.mark.skipif(
    importlib.util.find_spec("_md5") is None, reason="no built-in _md5 module"
)
def test_cli_import_loads_no_openssl():
    # hashlib loads OpenSSL (_hashlib), and secrets loads it through hmac;
    # either adds about 4 MB to the peak RSS of every command
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, geofpe.cli; "
         "print(sorted({'_hashlib', 'hashlib', 'secrets'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert probe.stdout == "[]\n"


def test_encrypt_and_decrypt_load_no_eval_or_synthesis_module(tmp_path, key_file):
    # every command's child imports geofpe.cli; what encrypt and decrypt do
    # not run, such as the eval harness, synthesis and fractions, costs
    # each of them memory to load and compile
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,bad,39.9\n1,t,-0.25,1\n")
    code = (
        "import sys\n"
        "from geofpe import cli\n"
        "orig, enc, dec, key, store = sys.argv[1:]\n"
        "codes = [cli.main(['encrypt', '--input', orig, '--output', enc, '--key', key,\n"
        "                   '--map', store]),\n"
        "         cli.main(['decrypt', '--input', enc, '--output', dec, '--key', key,\n"
        "                   '--map', store])]\n"
        "eval_only = {'fractions', 'decimal', 'json', 'csv', 'geofpe.metrics', 'geofpe.synth'}\n"
        "print(codes, sorted(eval_only & set(sys.modules)))\n"
    )
    probe = subprocess.run(
        [sys.executable, "-c", code, str(orig), str(tmp_path / "enc"), str(tmp_path / "dec"),
         key_file, str(tmp_path / "store.map")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert probe.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "dec" / "1.txt").read_text() == "1,t,116.5,39.9\n1,t,-0.25,1\n"


def test_keygen_and_eval_accuracy_load_no_numpy_layer(tmp_path, key_file, monkeypatch):
    # keygen and eval accuracy only write and compare text, so their
    # children start without numpy and the layers built on it
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,bad,39.9\n")
    code = (
        "import sys\n"
        "from geofpe import cli\n"
        "key, orig, out = sys.argv[1:]\n"
        "codes = [cli.main(['keygen', key]),\n"
        "         cli.main(['eval', 'accuracy', '--orig', orig, '--dec', orig, '--out', out])]\n"
        "layers = {'numpy', 'geofpe.cipher', 'geofpe.sm4', 'geofpe.dataset', 'geofpe.mapstore',\n"
        "          'geofpe.metrics'}\n"
        "print(codes, sorted(layers & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "new.key"), str(orig), str(tmp_path / "r")],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    assert probe.stdout.splitlines()[-1] == "[0, 0] []"
    # the benchmark's set-up child still reaches the cipher and the store
    # through geofpe.cli, and geofpe.BACKEND through the package
    *_, bench_run = _bench_modules(monkeypatch, "workloads", "check", "run")
    setup = subprocess.run([sys.executable, "-c", bench_run.SETUP_CODE, key_file],
                           capture_output=True, text=True, timeout=120, env=env)
    assert (setup.returncode, setup.stdout) == (0, "numpy\n")


def test_encrypt_frees_the_cipher_before_it_saves_the_map(tmp_path, capsys, key_file,
                                                          monkeypatch):
    # the cipher's codebook would add to encrypt's peak memory through the
    # map save and the conflict summary
    import geofpe.cipher as cipher
    import geofpe.mapstore as mapstore

    ciphers, alive_at_save = [], []

    class Cipher(cipher.CoordinateCipher):
        def __init__(self, key):
            super().__init__(key)
            ciphers.append(weakref.ref(self))

    save = mapstore.MappingStore.save

    def checked_save(store, *args):
        alive_at_save.append([ref() is not None for ref in ciphers])
        save(store, *args)

    monkeypatch.setattr(cipher, "CoordinateCipher", Cipher)
    monkeypatch.setattr(mapstore.MappingStore, "save", checked_save)
    orig = _synth(capsys, tmp_path)
    (code, _, _), _, _, _ = _encrypt_decrypt(capsys, tmp_path, key_file, orig)
    assert code == 0
    assert alive_at_save == [[False]]


def test_eval_accuracy_reports_undecodable_files(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    for i in (1, 2, 3):
        (orig / f"{i}.txt").write_text(f"{i},t,116.5,39.9\n{i},t,116.25,-39.125\n")
    (orig / "2.txt").write_bytes(b"2,t,116.5,39.9\n\xff\xfe\n")
    (enc_code, _, _), (dec_code, _, _), _, dec = _encrypt_decrypt(
        capsys, tmp_path, key_file, orig
    )
    assert (enc_code, dec_code) == (1, 0)
    with open(dec / "3.txt", "ab") as fh:
        fh.write(b"\xff\xfe\n")

    reports = tmp_path / "reports"
    code, out, err = run(
        capsys, "eval", "accuracy", "--orig", str(orig), "--dec", str(dec),
        "--out", str(reports),
    )
    assert code == 1
    assert "OMR 50.00% (2/4 points, 1/3 files fully matched)" in out
    failures = err.splitlines()
    assert [line.split(":")[0:2] for line in failures] == [
        ["error", " failed file 2.txt"], ["error", " failed file 3.txt"],
    ]
    assert all("can't decode" in line for line in failures)
    per_file = json.loads((reports / "accuracy.json").read_text())["per_file"]
    assert [(f["file"], f["total"], f["matched"]) for f in per_file] == [
        ("1.txt", 2, 2), ("2.txt", 0, 0), ("3.txt", 2, 0),
    ]
    assert "error" not in per_file[0]
    assert per_file[1]["error"].startswith("cannot read original file: 'utf-8' codec")
    assert per_file[2]["error"].startswith("cannot read decrypted file: 'utf-8' codec")


def test_plus_sign_goes_to_the_sidecar(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    plain = "1,t,116.51172,39.92123\n"
    (orig / "1.txt").write_text(plain + "1,t,+116.51172,39.92123\n" + plain)

    (enc_code, out, _), (dec_code, _, _), enc, dec = _encrypt_decrypt(
        capsys, tmp_path, key_file, orig
    )
    assert enc_code == 0 and dec_code == 0
    assert "encrypted 2 records" in out
    assert (enc / "1.txt.errors").read_text().startswith("2: parse error: malformed")
    assert (dec / "1.txt").read_text() == plain + plain


def test_clean_rerun_removes_stale_sidecars(tmp_path, capsys, key_file):
    orig = tmp_path / "orig"
    orig.mkdir()
    enc, dec = tmp_path / "enc", tmp_path / "dec"
    empty, mp, empty_map = tmp_path / "empty", tmp_path / "store.map", tmp_path / "empty.map"
    empty.mkdir()

    def encrypt():
        return run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
                   "--key", key_file, "--map", str(mp))

    def decrypt(map_path):
        return run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
                   "--key", key_file, "--map", str(map_path))

    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,bad,39.9\n")
    assert encrypt()[0] == 0
    assert (enc / "1.txt.errors").read_text() == (
        "2: parse error: malformed decimal text: 'bad'\n"
    )
    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,116.25,39.9\n")
    code, out, _ = encrypt()
    assert code == 0 and "0 parse errors" in out
    assert not (enc / "1.txt.errors").exists()

    # a map without entries restores nothing; the right one restores all
    run(capsys, "encrypt", "--input", str(empty), "--output", str(tmp_path / "e2"),
        "--key", key_file, "--map", str(empty_map))
    assert decrypt(empty_map)[0] == 1
    assert (dec / "1.txt.errors").exists()
    assert decrypt(mp)[0] == 0
    assert not (dec / "1.txt.errors").exists()
    assert (dec / "1.txt").read_text() == (orig / "1.txt").read_text()


def test_encrypt_refuses_an_output_directory_with_stray_files(tmp_path, capsys, key_file):
    four = _synth(capsys, tmp_path, vehicles=4, points=10)
    two = tmp_path / "two"
    two.mkdir()
    for name in ("1.txt", "2.txt"):
        (two / name).write_bytes((four / name).read_bytes())
    enc, mp = tmp_path / "enc", tmp_path / "store.map"
    assert run(capsys, "encrypt", "--input", str(four), "--output", str(enc),
               "--key", key_file, "--map", str(mp))[0] == 0
    before = {p.name: p.read_bytes() for p in (*enc.iterdir(), mp)}
    # 3.txt and 4.txt would keep ids that the 2-vehicle map gives to others
    code, out, err = run(capsys, "encrypt", "--input", str(two), "--output", str(enc),
                         "--key", key_file, "--map", str(mp))
    assert code == 1 and out == ""
    assert err == (
        f"error: {enc} holds .txt files that this run would not write: "
        "3.txt, 4.txt; use an empty output directory\n"
    )
    assert {p.name: p.read_bytes() for p in (*enc.iterdir(), mp)} == before


def test_decrypt_refuses_an_output_directory_with_stray_files(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path, vehicles=3, points=10)
    _, (code, _, _), enc, dec = _encrypt_decrypt(capsys, tmp_path, key_file, orig)
    assert code == 0
    (dec / "9.txt").write_bytes((orig / "1.txt").read_bytes())
    before = {p.name: p.read_bytes() for p in dec.iterdir()}
    # eval accuracy would score 9.txt, which no encrypted file restores
    code, out, err = run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
                         "--key", key_file, "--map", str(tmp_path / "store.map"))
    assert code == 1 and out == ""
    assert err == (
        f"error: {dec} holds .txt files that this run would not write: "
        "9.txt; use an empty output directory\n"
    )
    assert {p.name: p.read_bytes() for p in dec.iterdir()} == before


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_encrypt_and_decrypt_refuse_their_input_as_output(tmp_path, capsys, key_file, command):
    # Written in place, the outputs would overwrite the inputs, and the
    # undecodable 2.txt would be removed as a failed file's earlier output.
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,bad,39.9\n")
    mp = tmp_path / "store.map"
    if command == "encrypt":
        src = orig
    else:
        src = tmp_path / "enc"
        assert run(capsys, "encrypt", "--input", str(orig), "--output", str(src),
                   "--key", key_file, "--map", str(mp))[0] == 0
    (src / "2.txt").write_bytes(b"0,1,t,1.5,2.5\n\xff\xfe\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    same = src / ".." / src.name  # the same directory under another name
    code, out, err = run(capsys, command, "--input", str(src), "--output", str(same),
                         "--key", key_file, "--map", str(mp))
    assert code == 1 and out == ""
    assert err == (f"error: {same} is the input directory, whose files the run would "
                   "overwrite; use another output directory\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_decrypt_removes_the_earlier_output_of_a_failed_file(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path, vehicles=3, points=10)
    _, (code, _, _), enc, dec = _encrypt_decrypt(capsys, tmp_path, key_file, orig)
    assert code == 0 and (dec / "2.txt").read_bytes() == (orig / "2.txt").read_bytes()
    (dec / "2.txt.errors").write_text("1: stale\n")
    with open(enc / "2.txt", "ab") as fh:
        fh.write(b"\xff\xfe")
    code, _, err = run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
                       "--key", key_file, "--map", str(tmp_path / "store.map"))
    assert code == 1
    assert err.startswith("error: failed file 2.txt: ") and "decode" in err
    # the earlier 2.txt would be scored as restored by this run
    assert sorted(p.name for p in dec.iterdir()) == ["1.txt", "3.txt"]
    out = run(capsys, "eval", "accuracy", "--orig", str(orig), "--dec", str(dec),
              "--out", str(tmp_path / "rep"))[1]
    assert "OMR 66.67% (20/30 points, 2/3 files fully matched)" in out


def test_synth_refuses_an_output_directory_with_stray_files(tmp_path, capsys):
    orig = _synth(capsys, tmp_path, vehicles=3, points=10)
    before = {p.name: p.read_bytes() for p in orig.iterdir()}
    (orig / "notes.csv").write_text("kept\n")
    code, _, err = run(capsys, "synth", "--output", str(orig), "--vehicles", "2",
                       "--points", "5", "--seed", "8")
    assert code == 1
    assert "holds .txt files that this run would not write: 3.txt;" in err
    assert {p.name: p.read_bytes() for p in orig.iterdir() if p.suffix == ".txt"} == before
    # the same names, and files of other suffixes, are rewritten or kept
    assert run(capsys, "synth", "--output", str(orig), "--vehicles", "3",
               "--points", "5", "--seed", "8")[0] == 0
    assert (orig / "notes.csv").read_text() == "kept\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_keeps_the_exit_code(tmp_path, key_file, unbuffered):
    # `geofpe ... | head -1`: a reader that has gone must not turn a finished
    # run into a failure, nor add output about the pipe.
    orig = tmp_path / "orig"
    orig.mkdir()
    (orig / "1.txt").write_text("1,t,116.5,39.9\n1,t,bad,39.9\n")
    (orig / "2.txt").write_bytes(b"\xff\xfe\n")  # not UTF-8: encrypt exits 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def geofpe(argv, stdout):
        proc = subprocess.run(
            [sys.executable, "-m", "geofpe.cli", *map(str, argv)],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
        )
        return proc.returncode, proc.stderr.decode()

    runs = {}
    for closed in (False, True):
        out = tmp_path / ("closed" if closed else "open")
        commands = [
            ["encrypt", "--input", orig, "--output", out / "enc", "--key", key_file,
             "--map", out / "store.map"],
            ["decrypt", "--input", out / "enc", "--output", out / "dec",
             "--key", key_file, "--map", out / "store.map"],
            ["eval", "accuracy", "--orig", out / "dec", "--dec", out / "dec",
             "--out", out / "rep"],
        ]
        results = []
        for argv in commands:
            if not closed:
                results.append(geofpe(argv, subprocess.DEVNULL))
                continue
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                results.append(geofpe(argv, write_end))
            finally:
                os.close(write_end)
        runs[closed] = results, (out / "store.map").read_bytes()
    assert [code for code, _ in runs[False][0]] == [1, 0, 0]
    assert [code for code, _ in runs[True][0]] == [1, 0, 0]
    assert runs[True][1] == runs[False][1]
    for (_, err_open), (_, err_closed) in zip(runs[False][0], runs[True][0]):
        assert err_closed == err_open
        assert "pipe" not in err_closed.lower()


def test_decrypt_with_wrong_map_fails(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path)
    enc, mp = tmp_path / "enc", tmp_path / "store.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp))

    # a map produced from a different dataset misses these composite keys
    other = _synth(capsys, tmp_path / "other", seed=99)
    wrong_map = tmp_path / "wrong.map"
    run(capsys, "encrypt", "--input", str(other), "--output", str(tmp_path / "enc2"),
        "--key", key_file, "--map", str(wrong_map))

    code, out, _ = run(
        capsys, "decrypt", "--input", str(enc), "--output", str(tmp_path / "dec"),
        "--key", key_file, "--map", str(wrong_map),
    )
    assert code == 1
    sidecars = list((tmp_path / "dec").glob("*.errors"))
    assert sidecars, "expected per-file error sidecars"


def test_eval_rdr_identity(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path)
    enc, mp = tmp_path / "enc", tmp_path / "store.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp))
    dec = tmp_path / "dec"
    run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
        "--key", key_file, "--map", str(mp))

    # decrypted == original, so RDR must be exactly 1 for every trajectory
    report_dir = tmp_path / "rdr_identity"
    code, out, _ = run(
        capsys, "eval", "rdr", "--orig", str(orig), "--enc", str(enc),
        "--out", str(report_dir),
    )
    assert code == 0
    report = json.loads((report_dir / "rdr.json").read_text())
    assert report["summary"]["total"] == 8

    # identity check against the decrypted tree re-encoded as "encrypted" input
    # is covered in acceptance; here assert the report files exist and are stable
    again = tmp_path / "rdr_identity2"
    run(capsys, "eval", "rdr", "--orig", str(orig), "--enc", str(enc),
        "--out", str(again))
    assert (again / "rdr.json").read_bytes() == (report_dir / "rdr.json").read_bytes()
    assert (report_dir / "rdr_histogram.csv").exists()
    assert (report_dir / "rdr_cdf.csv").exists()


def test_eval_hotspots_smoke(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path, points=300)
    enc, dec, mp = tmp_path / "enc", tmp_path / "dec", tmp_path / "store.map"
    run(capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", key_file, "--map", str(mp))
    run(capsys, "decrypt", "--input", str(enc), "--output", str(dec),
        "--key", key_file, "--map", str(mp))
    report_dir = tmp_path / "hs"
    code, out, _ = run(
        capsys, "eval", "hotspots", "--orig", str(orig), "--enc", str(enc),
        "--dec", str(dec), "--out", str(report_dir), "--seed", "3",
    )
    assert code == 0
    report = json.loads((report_dir / "hotspots.json").read_text())
    assert report["counts"]["original"] == report["counts"]["decrypted"]
    assert report["matching"]["match_accuracy"] == 1.0
    assert report["matching"]["mean_centroid_distance_km"] == 0.0
    assert "match accuracy 100.00%" in out


_REPORTS = {  # report file -> the eval protocol and trees that write it
    "rdr.json": ("rdr", "orig", "enc"),
    "rdr_histogram.csv": ("rdr", "orig", "enc"),
    "rdr_cdf.csv": ("rdr", "orig", "enc"),
    "hotspots.json": ("hotspots", "orig", "enc", "dec"),
    "accuracy.json": ("accuracy", "orig", "dec"),
}


@pytest.mark.parametrize("report", list(_REPORTS))
def test_failed_report_write_keeps_the_earlier_report(
    tmp_path, capsys, monkeypatch, key_file, report
):
    trees = {"orig": _synth(capsys, tmp_path), "enc": tmp_path / "enc", "dec": tmp_path / "dec"}
    mp = tmp_path / "m.map"
    for command, src, dst in (("encrypt", "orig", "enc"), ("decrypt", "enc", "dec")):
        assert run(capsys, command, "--input", str(trees[src]), "--output",
                   str(trees[dst]), "--key", key_file, "--map", str(mp))[0] == 0
    protocol, *inputs = _REPORTS[report]
    out = tmp_path / "reports"
    argv = ["eval", protocol, "--out", str(out)]
    argv += [arg for name in inputs for arg in (f"--{name}", str(trees[name]))]
    assert run(capsys, *argv)[0] == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert report in before

    monkeypatch.setattr("builtins.open", open_failing_on(out / report))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "No space left" in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# every file the pipeline below writes; the key and the map are private
_OUTPUTS = ["k.key", "orig/1.txt", "enc/1.txt", "enc/2.txt.errors", "m.map", "dec/1.txt",
            *(f"rep/{report}" for report in _REPORTS)]


@pytest.mark.parametrize("output", _OUTPUTS)
def test_no_output_is_written_through_a_stale_tmp_symlink(tmp_path, capsys, umask_022, output):
    victim = tmp_path / "victim"
    victim.write_bytes(b"victim")
    target = tmp_path / output
    target.parent.mkdir(exist_ok=True)
    target.with_name(f"{target.name}.tmp").symlink_to(victim)

    key, mp = str(tmp_path / "k.key"), str(tmp_path / "m.map")
    trees = {name: str(tmp_path / name) for name in ("orig", "enc", "dec")}
    assert run(capsys, "keygen", key)[0] == 0
    _synth(capsys, tmp_path)
    with open(tmp_path / "orig" / "2.txt", "a") as fh:
        fh.write("2,t,bad,39.9\n")  # gives enc/2.txt a sidecar
    for command, src, dst in (("encrypt", "orig", "enc"), ("decrypt", "enc", "dec")):
        assert run(capsys, command, "--input", trees[src], "--output", trees[dst],
                   "--key", key, "--map", mp)[0] == 0
    for protocol, *inputs in dict.fromkeys(_REPORTS.values()):
        argv = [arg for name in inputs for arg in (f"--{name}", trees[name])]
        assert run(capsys, "eval", protocol, "--out", str(tmp_path / "rep"), *argv)[0] == 0

    assert victim.read_bytes() == b"victim"
    assert target.is_file() and not target.is_symlink()
    assert list(tmp_path.rglob("*.tmp")) == []
    assert {name: _mode(tmp_path / name) for name in _OUTPUTS} == {
        name: 0o600 if name in ("k.key", "m.map") else 0o644 for name in _OUTPUTS
    }


def test_eval_accuracy_rejects_a_missing_directory(tmp_path, capsys):
    orig = _synth(capsys, tmp_path)
    for trees in ((tmp_path / "nope", orig), (orig, tmp_path / "nope")):
        code, out, err = run(capsys, "eval", "accuracy", "--orig", str(trees[0]),
                             "--dec", str(trees[1]), "--out", str(tmp_path / "rep"))
        assert code == 1
        assert out == ""
        assert "No such file or directory" in err and "nope" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_encrypt_and_decrypt_reject_a_missing_input(tmp_path, capsys, key_file, command):
    orig, mp = _synth(capsys, tmp_path, vehicles=2, points=10), tmp_path / "store.map"
    assert run(capsys, "encrypt", "--input", str(orig), "--output", str(tmp_path / "enc"),
               "--key", key_file, "--map", str(mp))[0] == 0
    # encrypt writes a new map; decrypt reads the one just written
    new_map = tmp_path / "new.map" if command == "encrypt" else mp
    code, out, err = run(capsys, command, "--input", str(tmp_path / "nope"),
                         "--output", str(tmp_path / "out"), "--key", key_file,
                         "--map", str(new_map))
    assert code == 1
    assert out == ""
    assert "No such file or directory" in err and "nope" in err
    assert not (tmp_path / "out").exists()
    assert new_map.exists() == (command == "decrypt")


def _rdr_trees(tmp_path, bad_line):
    """A plain tree of two vehicles and its 'encrypted' tree, whose vehicle
    1 has ``bad_line`` in place of its first line."""
    orig, enc = tmp_path / "orig", tmp_path / "enc"
    orig.mkdir()
    enc.mkdir()
    coords = ("116.5,39.9", "116.25,39.125", "116.0,40.5", "115.5,40.0")
    for vid in ("1", "2"):
        (orig / f"{vid}.txt").write_text("".join(f"{vid},t,{c}\n" for c in coords))
    (enc / "1.txt").write_text(
        f"{bad_line}\n" + "".join(f"{i},1,t,{c}\n" for i, c in enumerate(coords[1:], 1))
    )
    (enc / "2.txt").write_text("".join(f"{i},2,t,{c}\n" for i, c in enumerate(coords, 4)))
    return orig, enc


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("0,1,t,abc,1.5", "parse error: malformed decimal text: 'abc'"),
        ("0,1,t,nan,1.5", "parse error: malformed decimal text: 'nan'"),
        ("0,1,t,1e2,1.5", "parse error: malformed decimal text: '1e2'"),
        ("0,1,t, 1.5,1.5", "parse error: malformed decimal text: ' 1.5'"),
        ("x,1,t,116.5,39.9", "parse error: malformed coordinate id 'x'"),
        ("0,1,t,263.5,39.9", "out of range: lon"),
        ("0,1,t,116.5,90.5", "out of range: lat"),
    ],
)
def test_eval_rdr_skips_a_vehicle_with_an_encrypted_line_out_of_grammar(
    tmp_path, capsys, bad_line, reason
):
    orig, enc = _rdr_trees(tmp_path, bad_line)
    code, out, err = run(capsys, "eval", "rdr", "--orig", str(orig), "--enc", str(enc),
                         "--out", str(tmp_path / "rep"))
    assert code == 0, err
    assert "RDR over 1 trajectories (1 skipped)" in out
    report = json.loads((tmp_path / "rep" / "rdr.json").read_text())
    assert report["skipped"] == {"1": f"line 1: {reason}"}
    assert list(report["per_trajectory"]) == ["2"]
    assert report["per_trajectory"]["2"] == 1.0  # the identity


def test_eval_hotspots_fails_on_an_encrypted_line_out_of_grammar(tmp_path, capsys):
    orig, enc = _rdr_trees(tmp_path, "0,1,t,116.5,nan")
    code, out, err = run(capsys, "eval", "hotspots", "--orig", str(orig), "--enc", str(enc),
                         "--dec", str(orig), "--out", str(tmp_path / "rep"))
    assert code == 1
    assert out == ""
    assert err == f"error: {enc / '1.txt'}:1: parse error: malformed decimal text: 'nan'\n"
    assert not (tmp_path / "rep").exists()


def test_eval_hotspots_fails_on_an_encrypted_line_out_of_range(tmp_path, capsys):
    orig, enc = _rdr_trees(tmp_path, "0,1,t,-180.5,39.9")
    code, _, err = run(capsys, "eval", "hotspots", "--orig", str(orig), "--enc", str(enc),
                       "--dec", str(orig), "--out", str(tmp_path / "rep"))
    assert code == 1
    assert err == f"error: {enc / '1.txt'}:1: out of range: lon\n"


def test_eval_rdr_still_checks_the_vehicle_sets(tmp_path, capsys):
    orig, enc = _rdr_trees(tmp_path, "0,1,t,abc,1.5")
    (orig / "1.txt").unlink()
    code, _, err = run(capsys, "eval", "rdr", "--orig", str(orig), "--enc", str(enc),
                       "--out", str(tmp_path / "rep"))
    assert code == 1
    assert "vehicle sets differ" in err


def test_synth_centers_flag(tmp_path, capsys):
    out = tmp_path / "two"
    code, _, _ = run(
        capsys, "synth", "--output", str(out), "--vehicles", "2", "--points", "50",
        "--centers", "116.4,39.9;116.6,40.0", "--seed", "1",
    )
    assert code == 0
    assert len(list(out.glob("*.txt"))) == 2


@pytest.mark.parametrize("centers", ["a,b", "116.4", "116.4,39.9,1", "116.4,39.9;x,39.9"])
def test_synth_rejects_a_bad_center(tmp_path, capsys, centers):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--output", str(tmp_path / "x"), "--centers", centers])
    assert exc.value.code == 2
    bad = centers.split(";")[-1]
    assert f"argument --centers: bad center {bad!r}, want lon,lat" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("std", ["0", "-1", "nan", "inf"])
def test_synth_rejects_a_hotspot_std_that_is_not_positive_and_finite(tmp_path, capsys, std):
    message = f"hotspot std-dev must be positive and finite, not {float(std)}"
    with pytest.raises(ValueError, match=message):
        SynthConfig(n_vehicles=1, points_per_vehicle=3, centers=[], hotspot_std=float(std))
    out = tmp_path / "orig"
    code, stdout, err = run(capsys, "synth", "--output", str(out), f"--hotspot-std={std}",
                            "--vehicles", "1", "--points", "3")
    assert code == 1
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_synth_zero_vehicles_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--output", str(tmp_path / "x"), "--vehicles", "0"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    paths = ["--input", "i", "--output", "o", "--key", "k", "--map", "m"]
    for argv in (
        ["keygen", str(tmp_path / "k.key"), "--loud"],
        ["keygen", str(tmp_path / "k.key"), "--hex"],  # the suffix decides
        ["encrypt", *paths, "--rounds", "8"],  # the round count is fixed
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert not (tmp_path / "k.key").exists()


def test_readme_cli_lines_parse():
    """Every command line of the README's CLI block is one the parser takes."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("geofpe ")]
    assert len(lines) == 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def _bench_modules(monkeypatch, *names):
    """The pipebench modules ``names``, loaded in order from their files,
    which are only read; a later one imports an earlier one by its name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = []
    for name in names:
        spec = importlib.util.spec_from_file_location(name, SRC.parent / "pipebench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # also for its dataclasses
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    """Every command line the benchmark runs is one the parser takes, so a
    renamed or dropped flag fails here rather than in every pipeline."""
    *_, bench_run = _bench_modules(monkeypatch, "workloads", "check", "run")
    parser = build_parser()
    for workload in bench_run.WORKLOADS.values():
        argvs = [argv for _, argv in bench_run.commands(workload, bench_run.Paths(tmp_path))]
        assert [argv[0] for argv in argvs] == ["encrypt", "decrypt", "eval", "eval", "eval"]
        for argv in argvs:
            parser.parse_args(argv)


def test_the_benchmark_tracer_installs_and_restores(monkeypatch):
    """pipebench's ``--trace 1`` tracer imports every geofpe module it
    patches and wraps the encrypt entry point; restore puts it back."""
    (tracing,) = _bench_modules(monkeypatch, "tracing")
    import geofpe.cli as cli

    original = cli.encrypt_dataset
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.encrypt_dataset is not original
        assert "dataset.encrypt_dataset" not in tracer.missing
    finally:
        tracer.restore()
    assert cli.encrypt_dataset is original


def test_the_benchmark_gate_passes_on_the_walk(tmp_path, capsys, monkeypatch):
    """The benchmark's own correctness gate on its walk workload (seed 1):
    every valid line comes back byte for byte, and each planted bad line,
    about half of them out of range, has its reason in the sidecar."""
    workloads, check = _bench_modules(monkeypatch, "workloads", "check")
    orig, enc, dec, reports = (tmp_path / name for name in ("orig", "enc", "dec", "reports"))
    expected = workloads.write_walk(orig, seed="1")
    key, mp = tmp_path / "bench.key", tmp_path / "store.map"
    key.write_bytes(workloads.key_for("1"))
    codes = {
        "encrypt": main(["encrypt", "--input", str(orig), "--output", str(enc),
                         "--key", str(key), "--map", str(mp)]),
        "decrypt": main(["decrypt", "--input", str(enc), "--output", str(dec),
                         "--key", str(key), "--map", str(mp)]),
        "eval accuracy": main(["eval", "accuracy", "--orig", str(orig), "--dec", str(dec),
                               "--out", str(reports)]),
    }
    capsys.readouterr()
    verdict = check.check_pipeline(expected, codes, enc, dec, mp, reports)
    assert (verdict.failed, verdict.problems) == (0, [])
    assert verdict.restored == expected.accepted and verdict.cli_omr == 1.0
    reasons = [reason for bad in expected.bad.values() for reason in bad.values()]
    assert sum(reason.startswith("out of range") for reason in reasons) > len(reasons) / 3


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen"], ["encrypt"], ["decrypt"], ["synth"],
        ["eval", "rdr"], ["eval", "hotspots"], ["eval", "accuracy"],
    ],
)
def test_help_exits_cleanly(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out or argv == ["keygen"]


def test_workers_flag_only_on_encrypt_and_decrypt(tmp_path, capsys):
    for command in ("encrypt", "decrypt"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "ignored" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["eval", "rdr", "--orig", "o", "--enc", "e", "--out", "r", "--workers", "2"])
    assert exc.value.code == 2


def test_misaligned_eval_inputs_fail(tmp_path, capsys, key_file):
    orig = _synth(capsys, tmp_path)
    other = _synth(capsys, tmp_path / "other", seed=99)
    enc, mp = tmp_path / "enc", tmp_path / "m.map"
    run(capsys, "encrypt", "--input", str(other), "--output", str(enc),
        "--key", key_file, "--map", str(mp))
    (enc / "extra.txt").write_text("0,9,t,1.0,1.0\n")
    code, _, err = run(
        capsys, "eval", "rdr", "--orig", str(orig), "--enc", str(enc),
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "differ" in err


def test_hex_key_round_trip(tmp_path, capsys):
    hex_key = tmp_path / "k.hex"
    run(capsys, "keygen", str(hex_key))
    orig = _synth(capsys, tmp_path)
    enc = tmp_path / "enc"
    code, _, _ = run(
        capsys, "encrypt", "--input", str(orig), "--output", str(enc),
        "--key", str(hex_key), "--map", str(tmp_path / "m.map"),
    )
    assert code == 0


def test_bad_key_file_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.key"
    bad.write_bytes(b"tooshort")
    orig = _synth(capsys, tmp_path)
    code, _, err = run(
        capsys, "encrypt", "--input", str(orig), "--output", str(tmp_path / "e"),
        "--key", str(bad), "--map", str(tmp_path / "m.map"),
    )
    assert code == 1
    assert "128-bit" in err
