"""Mapping store semantics: conflicts, lookups, persistence, and source lints."""

import ast
import os
import random
import stat
import struct
import tempfile
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofpe.cipher import KINDS, map_fingerprint
from geofpe import mapstore
from geofpe.mapstore import Ambiguous, MapFormatError, MapLayout, MappingStore


def _append(store, kind, *entries):
    """Append (enc, orig[, d]) entries to ``kind`` under its next ids."""
    enc = [e[0] for e in entries]
    orig = [e[1] for e in entries]
    d = [e[2] if len(e) > 2 else 0 for e in entries]
    store.append(kind, enc, orig, d)


def _exact(store, kind, coord_id, enc, digits):
    """One lookup_exact_batch row: the original, or None on a miss."""
    hit, orig = store.lookup_exact_batch(kind, [coord_id], [enc], digits)
    return int(orig[0]) if hit[0] else None


def test_record_fresh_then_conflict():
    store = MappingStore()
    _append(store, "lon_int", (143, 116))
    assert store.conflicts("lon_int") == 0
    _append(store, "lon_int", (143, 117))
    assert store.conflicts("lon_int") == 1


def test_record_same_original_is_not_a_conflict():
    store = MappingStore()
    _append(store, "lat_int", (39, 85), (39, 85))
    assert store.conflicts("lat_int") == 0


def test_append_gives_the_next_ids():
    store = MappingStore()
    _append(store, "lon_frac", (10, 20, 5), (11, 21, 5))
    _append(store, "lon_frac", (12, 22, 5))
    assert store.entry_count("lon_frac") == 3
    assert store.entry_count("lat_frac") == 0
    assert [_exact(store, "lon_frac", i, 10 + i, 5) for i in range(3)] == [20, 21, 22]


def test_append_rejects_unequal_lengths():
    store = MappingStore()
    with pytest.raises(ValueError, match="lengths"):
        store.append("lon_int", [1, 2], [3], [0, 0])
    assert store.entry_count("lon_int") == 0


def test_append_rejects_digit_counts_above_one_byte():
    # a GFPEMAP2 d column is 0 or 1 byte wide
    store = MappingStore()
    with pytest.raises(ValueError, match="below 256"):
        store.append("lon_frac", [1, 2], [3, 4], [5, 256])
    assert store.entry_count("lon_frac") == 0


def test_lookup_exact_distinguishes_composite_keys():
    store = MappingStore()
    _append(store, "lon_int", (143, 116), (143, 117))
    assert _exact(store, "lon_int", 0, 143, 0) == 116
    assert _exact(store, "lon_int", 1, 143, 0) == 117
    assert _exact(store, "lon_int", 0, 144, 0) is None
    assert _exact(store, "lon_int", 99, 143, 0) is None


def test_lookup_exact_ids_out_of_range():
    store = MappingStore()
    _append(store, "lon_int", (143, 116), (150, 117))
    # -1 must not wrap round to the last row.  Ids are int64: decrypt's line
    # pattern caps them at 18 digits, so no larger id reaches the store.
    assert _exact(store, "lon_int", -1, 150, 0) is None
    assert _exact(store, "lon_int", 2, 150, 0) is None
    assert _exact(store, "lon_int", 2**63 - 1, 150, 0) is None


def test_lookup_exact_batch_equals_lookup_exact():
    store = MappingStore()
    entries = [(143, 116, 3), (150, 117, 3), (2**64 - 1, 3, 19)]
    _append(store, "lon_frac", *entries)
    ids = [0, 1, 2, 0, -1, 3, -(2**62), 2**62, 2, 1]
    enc = [143, 150, 2**64 - 1, 150, 2**64 - 1, 143, 143, 150, 0, 150]
    digits = [3, 3, 19, 3, 19, 3, 3, 3, 19, 4]
    hit, orig = store.lookup_exact_batch("lon_frac", ids, enc, digits)
    # brute force: the entry at the id, when it holds the (enc, d) asked for
    expected = [
        entries[i][1] if 0 <= i < len(entries) and entries[i][::2] == (e, d) else None
        for i, e, d in zip(ids, enc, digits)
    ]
    assert hit.tolist() == [e is not None for e in expected]
    assert orig.tolist() == [e or 0 for e in expected]
    assert expected[:3] == [116, 117, 3] and expected[-1] is None
    hit, orig = MappingStore().lookup_exact_batch("lat_int", [0, -1], [0, 0], 0)
    assert hit.tolist() == [False, False] and orig.tolist() == [0, 0]


def test_lookup_fuzzy():
    store = MappingStore()
    _append(store, "lon_int", (143, 116))
    assert store.lookup_fuzzy("lon_int", 143, 0) == 116
    _append(store, "lon_int", (143, 117))
    assert store.lookup_fuzzy("lon_int", 143, 0) == Ambiguous(2)
    assert store.lookup_fuzzy("lon_int", 999, 0) is None
    assert store.lookup_fuzzy("lon_int", -1, 0) is None
    assert store.lookup_fuzzy("lon_int", 2**64 + 143, 0) is None
    assert store.lookup_fuzzy("lat_int", 143, 0) is None


def test_lookups_match_the_stored_digit_count():
    store = MappingStore()
    _append(store, "lat_frac", (7, 3, 1), (7, 3, 2), (7, 4, 2))
    assert _exact(store, "lat_frac", 0, 7, 1) == 3
    assert _exact(store, "lat_frac", 0, 7, 2) is None
    # each digit count sees only its own entries: 3 alone at d 1, 3 and 4 at d 2
    assert store.lookup_fuzzy("lat_frac", 7, 1) == 3
    assert store.lookup_fuzzy("lat_frac", 7, 2) == Ambiguous(2)
    assert store.lookup_fuzzy("lat_frac", 7, 3) is None


def test_lookup_fuzzy_full_u64_range():
    store = MappingStore()
    top = 2**64 - 1
    _append(store, "lat_frac", (top, top, 19), (0, 1, 19))
    assert store.lookup_fuzzy("lat_frac", top, 19) == top
    assert store.lookup_fuzzy("lat_frac", 0, 19) == 1
    assert _exact(store, "lat_frac", 0, top, 19) == top


@pytest.mark.parametrize("width", [1, 2, 4])
def test_ciphertext_wider_than_its_column_misses(tmp_path, width):
    # the top value sets the enc column's width; a query that agrees with a
    # stored value in the column's low bytes must not wrap onto it
    stored, top = 5, (1 << 8 * width) - 1
    store = MappingStore()
    _append(store, "lon_frac", (stored, 9, 3), (top, 1, 3))
    store.save(tmp_path / "store.map", FP)
    assert store.layout.widths["lon_frac"][0] == width
    wider = stored + 2 ** (8 * width)
    for s in (store, MappingStore.load(tmp_path / "store.map", FP)):
        assert _exact(s, "lon_frac", 0, stored, 3) == 9
        assert _exact(s, "lon_frac", 0, wider, 3) is None
        assert s.lookup_fuzzy("lon_frac", stored, 3) == 9
        assert s.lookup_fuzzy("lon_frac", wider, 3) is None


def test_conflict_rate():
    store = MappingStore()
    assert store.conflict_rate("lon_int") == 0
    _append(store, "lon_int", (143, 116), (143, 117), (150, 118))
    assert store.conflict_rate("lon_int") == Fraction(1, 2)
    assert store.conflict_rate("lat_int") == 0


def test_conflict_rate_all_unique():
    store = MappingStore()
    _append(store, "lat_frac", *[(1000 + i, 2000 + i, 5) for i in range(10)])
    assert store.conflict_rate("lat_frac") == 0


def _random_columns(n, seed):
    """Per kind, n random (enc, orig, d) entries with many collisions."""
    rng = random.Random(seed)
    return {
        kind: [(rng.randrange(200), rng.randrange(50), 5) for _ in range(n)]
        for kind in KINDS
    }


def _filled(columns):
    store = MappingStore()
    for kind, entries in columns.items():
        _append(store, kind, *entries)
    return store


def test_conflicts_match_incremental_count():
    # The count derived from the columns equals the number of entries that
    # attached a new original to an encrypted value already seen.
    columns = _random_columns(800, seed=13)
    store = MappingStore()
    for kind, entries in columns.items():
        seen: dict[int, set[int]] = {}
        expected = 0
        for enc, orig, d in entries:
            originals = seen.setdefault(enc, set())
            expected += bool(originals) and orig not in originals
            originals.add(orig)
            _append(store, kind, (enc, orig, d))
            assert store.conflicts(kind) == expected


def test_order_independence():
    columns = _random_columns(1000, seed=5)
    stores = []
    for perm_seed in (1, 2, 3):
        shuffled = {}
        for kind, entries in columns.items():
            shuffled[kind] = entries[:]
            random.Random(perm_seed).shuffle(shuffled[kind])
        stores.append(_filled(shuffled))
    for kind in KINDS:
        assert len({s.conflicts(kind) for s in stores}) == 1
        assert len({s.conflict_rate(kind) for s in stores}) == 1
        assert len({s.lookup_fuzzy(kind, 7, 5) for s in stores}) == 1


def test_append_refreshes_derived_stats():
    store = MappingStore()
    _append(store, "lon_frac", (7, 1, 2))
    assert store.lookup_fuzzy("lon_frac", 7, 2) == 1
    assert store.conflict_rate("lon_frac") == 0
    _append(store, "lon_frac", (7, 2, 2))
    assert store.lookup_fuzzy("lon_frac", 7, 2) == Ambiguous(2)
    assert store.conflicts("lon_frac") == 1
    assert store.conflict_rate("lon_frac") == 1


def test_conflict_rate_matches_brute_force_recount():
    columns = _random_columns(3000, seed=21)
    store = _filled(columns)
    for kind in KINDS:
        by_enc: dict[int, set[int]] = {}
        for enc, orig, _ in columns[kind]:
            by_enc.setdefault(enc, set()).add(orig)
        expected = Fraction(sum(1 for s in by_enc.values() if len(s) >= 2), len(by_enc))
        assert store.conflict_rate(kind) == expected
        assert store.conflicts(kind) == sum(len(s) - 1 for s in by_enc.values())


# ---------------------------------------------------------------------------
# Persistence

FP = map_fingerprint(bytes(range(16)))
OTHER_FP = map_fingerprint(bytes(16))


def _v1_bytes(columns):
    """A well-formed GFPEMAP1 file of a dict kind -> [(enc, orig, d)], laid
    out by hand: per kind in KINDS order a count, then (kind, coord_id, enc,
    orig, d) records, then the CRC32.  Such files are refused."""
    body = b"GFPEMAP1"
    for code, kind in enumerate(KINDS):
        entries = columns.get(kind, [])
        body += struct.pack("<Q", len(entries))
        for cid, entry in enumerate(entries):
            body += struct.pack("<BQQQB", code, cid, *entry)
    return body + struct.pack("<I", zlib.crc32(body))


def _width_of(values):
    """The GFPEMAP2 width rule, spelled out: 0 when all are 0, else the
    narrowest of 1, 2, 4 and 8 bytes that holds the largest."""
    top = max(values, default=0)
    return next(w for w in (0, 1, 2, 4, 8) if top < 256**w)


def _v2_bytes(columns, widths=None):
    """A GFPEMAP2 file laid out by hand from a dict kind -> [(enc, orig, d)]:
    magic, fingerprint FP, per kind in KINDS order a count, three widths and
    the enc, orig and d columns, then the CRC32.  ``widths`` overrides the
    widths of the rule per kind."""
    body = b"GFPEMAP2" + FP
    for kind in KINDS:
        entries = columns.get(kind, [])
        cols = list(zip(*entries)) or [(), (), ()]
        kind_widths = (widths or {}).get(kind) or tuple(_width_of(c) for c in cols)
        body += struct.pack("<Q3B", len(entries), *kind_widths)
        for col, w in zip(cols, kind_widths):
            body += b"".join(v.to_bytes(w, "little") for v in col)
    return body + struct.pack("<I", zlib.crc32(body))


_GOLDEN = {
    "lon_int": [(143, 116, 0), (143, 117, 0), (2, 2, 0)],
    "lon_frac": [(51172, 92123, 5), (2**64 - 1, 10**19 - 1, 19), (0, 0, 0)],
    "lat_int": [(39, 39, 0), (40, 39, 0), (0, 90, 0)],
    "lat_frac": [(7, 3, 1), (7, 3, 1), (12, 1, 2)],
}


# Every width: lon_int 1/1/0, lon_frac 8/8/1 (the largest fraction entry a
# map can hold), lat_int 0/1/0 (encrypted integer parts all 0), lat_frac 4/2/1.
_GOLDEN_V2 = {
    "lon_int": [(143, 116, 0), (143, 117, 0), (2, 2, 0)],
    "lon_frac": [(51172, 92123, 5), (2**64 - 1, 10**19 - 1, 19), (0, 0, 0)],
    "lat_int": [(0, 39, 0), (0, 38, 0), (0, 90, 0)],
    "lat_frac": [(70000, 300, 5), (7, 3, 1), (12, 1, 2)],
}
_GOLDEN_V2_WIDTHS = {
    "lon_int": (1, 1, 0), "lon_frac": (8, 8, 1), "lat_int": (0, 1, 0), "lat_frac": (4, 2, 1),
}


def _golden_v2_bytes():
    body = (
        b"GFPEMAP2" + FP
        + struct.pack("<Q3B", 3, 1, 1, 0) + bytes([143, 143, 2, 116, 117, 2])
        + struct.pack("<Q3B", 3, 8, 8, 1)
        + struct.pack("<3Q", 51172, 2**64 - 1, 0) + struct.pack("<3Q", 92123, 10**19 - 1, 0)
        + bytes([5, 19, 0])
        + struct.pack("<Q3B", 3, 0, 1, 0) + bytes([39, 38, 90])
        + struct.pack("<Q3B", 3, 4, 2, 1)
        + struct.pack("<3I", 70000, 7, 12) + struct.pack("<3H", 300, 3, 1) + bytes([5, 1, 2])
    )
    return body + struct.pack("<I", zlib.crc32(body))


def test_v2_golden_bytes_follow_the_layout():
    data = _golden_v2_bytes()
    # magic, fingerprint, four section headers, 3 * (2 + 17 + 1 + 7) column bytes, CRC
    assert len(data) == 8 + 16 + 4 * 11 + 3 * 27 + 4 == 153
    assert data == _v2_bytes(_GOLDEN_V2)


def test_save_matches_hand_built_golden_map(tmp_path):
    store = _filled(_GOLDEN_V2)
    path = tmp_path / "store.map"
    store.save(path, FP)
    assert path.read_bytes() == _golden_v2_bytes()
    assert store.layout == MapLayout(_GOLDEN_V2_WIDTHS)


def test_load_reads_hand_built_v2_golden_map(tmp_path):
    path = tmp_path / "golden.map"
    path.write_bytes(_golden_v2_bytes())
    loaded = MappingStore.load(path, FP)
    assert loaded == _filled(_GOLDEN_V2)
    assert loaded.layout == MapLayout(_GOLDEN_V2_WIDTHS)
    assert _exact(loaded, "lon_frac", 1, 2**64 - 1, 19) == 10**19 - 1
    assert _exact(loaded, "lat_frac", 0, 70000, 5) == 300
    assert loaded.lookup_fuzzy("lon_int", 143, 0) == Ambiguous(2)


@pytest.mark.parametrize(
    "top, width",
    [(0, 0), (1, 1), (255, 1), (256, 2), (2**16 - 1, 2), (2**16, 4),
     (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)],
)
def test_width_rule(tmp_path, top, width):
    store = MappingStore()
    _append(store, "lat_frac", (top, 0, 0), (0, top, 0))
    path = tmp_path / "store.map"
    store.save(path, FP)
    assert store.layout.widths["lat_frac"] == (width, width, 0)
    assert store.layout.widths["lon_int"] == (0, 0, 0)
    assert path.stat().st_size == 8 + 16 + 4 * 11 + 2 * 2 * width + 4
    assert MappingStore.load(path, FP) == store


_ENTRY = st.tuples(
    st.one_of(st.integers(0, 300), st.integers(0, 2**64 - 1)),
    st.one_of(st.integers(0, 70000), st.integers(0, 2**64 - 1)),
    st.integers(0, 19),
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(KINDS), st.lists(_ENTRY, max_size=7)),
       st.integers(1, 4))
def test_save_load_save_round_trip(columns, chunk):
    store = _filled(columns)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "store.map", Path(tmp) / "again.map"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mapstore, "_SLICE", chunk)
            store.save(path, FP)
            loaded = MappingStore.load(path, FP)
            loaded.save(again, FP)
        assert loaded == store
        assert loaded.layout == store.layout
        assert again.read_bytes() == path.read_bytes() == _v2_bytes(columns)


# values on either side of each width boundary, so that a later chunk can
# widen a column that earlier chunks held narrower
_STRADDLING = st.sampled_from([1, 2**8, 2**16, 2**32, 2**64 - 2]).flatmap(
    lambda edge: st.integers(edge - 1, edge + 1)
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.sampled_from(KINDS),
    st.lists(st.lists(st.tuples(_STRADDLING, _STRADDLING, st.integers(0, 2)), max_size=5),
             max_size=4),
))
def test_chunks_that_widen_a_column_save_as_one_append(chunks):
    columns = {kind: [e for part in parts for e in part] for kind, parts in chunks.items()}
    chunked, whole = MappingStore(), _filled(columns)
    for kind, parts in chunks.items():
        for part in parts:
            _append(chunked, kind, *part)
    with tempfile.TemporaryDirectory() as tmp:
        path, once = Path(tmp) / "chunked.map", Path(tmp) / "once.map"
        chunked.save(path, FP)
        whole.save(once, FP)
        assert path.read_bytes() == once.read_bytes() == _v2_bytes(columns)
        loaded = MappingStore.load(path, FP)
    # the loaded store holds the file's column bytes; chunks hold no more
    held = len(_v2_bytes(columns)) - (8 + 16 + 4 * 11 + 4)
    assert chunked.column_bytes() <= loaded.column_bytes() == held
    for kind in KINDS:
        entries = columns.get(kind, [])
        ids = list(range(len(entries) + 1))
        enc = [e[0] for e in entries] + [0]
        digits = [e[2] for e in entries] + [0]
        queries = {(e[0] + delta, e[2]) for e in entries for delta in (-1, 0, 1)}
        results = []
        for s in (whole, chunked, loaded):
            # the conflict count and fuzzy entries come from the chunks as
            # appended, which they leave unjoined; the exact lookup joins
            fuzzy_found = sorted((q, s.lookup_fuzzy(kind, *q)) for q in queries)
            conflicts = s.conflicts(kind), s.conflict_rate(kind)
            if s is chunked:
                assert len(s._cols[kind][0]) == len(chunks.get(kind, []))
            hit, found = s.lookup_exact_batch(kind, ids, enc, digits)
            results.append((hit.tolist(), found.tolist(), fuzzy_found, *conflicts))
        assert results[0] == results[1] == results[2]
        # brute force, over values that take the packed sort and the lexsort
        by_query, by_enc = {}, {}
        for e, o, d in entries:
            by_query.setdefault((e, d), set()).add(o)
            by_enc.setdefault(e, set()).add(o)
        fuzzy = {q: by_query.get(q, set()) for q in queries}
        assert results[0][2] == sorted(
            (q, None if not o else o.pop() if len(o) == 1 else Ambiguous(len(o)))
            for q, o in fuzzy.items()
        )
        assert results[0][3] == sum(len(o) - 1 for o in by_enc.values())
        assert results[0][4] == (
            Fraction(sum(len(o) >= 2 for o in by_enc.values()), len(by_enc)) if by_enc else 0
        )
        assert results[0][0][:-1] == [True] * len(entries)
    assert chunked == loaded == whole


def test_load_rejects_a_different_key(tmp_path):
    path = tmp_path / "store.map"
    _filled(_GOLDEN_V2).save(path, FP)
    with pytest.raises(MapFormatError, match="written under a different key"):
        MappingStore.load(path, OTHER_FP)
    # the key is checked before any section is parsed ...
    path.write_bytes(_v2_bytes(_GOLDEN_V2, widths={"lon_int": (3, 1, 0)}))
    with pytest.raises(MapFormatError, match="different key"):
        MappingStore.load(path, OTHER_FP)
    # ... and after the CRC
    data = bytearray(_golden_v2_bytes())
    data[40] ^= 0x01
    path.write_bytes(data)
    with pytest.raises(MapFormatError, match="checksum"):
        MappingStore.load(path, OTHER_FP)


def _cut_section(columns, kind, n):
    """_v2_bytes whose ``kind`` section claims n more entries than it holds."""
    data = bytearray(_v2_bytes(columns)[:-4])
    at = 8 + 16
    for k in KINDS[: KINDS.index(kind)]:
        entries = columns.get(k, [])
        widths = [_width_of(c) for c in (list(zip(*entries)) or [(), (), ()])]
        at += 11 + len(entries) * sum(widths)
    count = struct.unpack_from("<Q", data, at)[0]
    struct.pack_into("<Q", data, at, count + n)
    return bytes(data) + struct.pack("<I", zlib.crc32(data))


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize(
    "data, message",
    [
        (_v2_bytes(_GOLDEN_V2, widths={"lat_frac": (3, 2, 1)}),
         "lat_frac enc width 3 is not one of 0, 1, 2, 4, 8"),
        (_v2_bytes(_GOLDEN_V2, widths={"lat_int": (0, 16, 0)}),
         "lat_int orig width 16 is not one of 0, 1, 2, 4, 8"),
        (_v2_bytes(_GOLDEN_V2, widths={"lat_frac": (4, 2, 2)}),
         "lat_frac d width 2 is not one of 0, 1"),
        (_cut_section(_GOLDEN_V2, "lat_frac", 1), "truncated"),
        (_cut_section(_GOLDEN_V2, "lat_int", 2**40), "truncated"),
        (_with_crc(_golden_v2_bytes()[:-4] + b"\0\0"), "2 trailing bytes"),
        (_with_crc(b"GFPEMAP2" + FP[:15]), "truncated"),
        (_with_crc(b"GFPEMAP2" + FP + bytes(10)), "truncated"),
        (_golden_v2_bytes()[:-1], "checksum"),
        # shorter than a magic and a CRC
        (b"GFPEMAP2", "truncated"),
    ],
)
def test_load_rejects_malformed_v2(tmp_path, data, message):
    path = tmp_path / "bad.map"
    path.write_bytes(data)
    with pytest.raises(MapFormatError, match=message):
        MappingStore.load(path, FP)


def test_save_rejects_a_malformed_fingerprint(tmp_path):
    with pytest.raises(ValueError, match="16 bytes"):
        MappingStore().save(tmp_path / "store.map", FP[:8])
    assert list(tmp_path.iterdir()) == []


def test_save_load_round_trip_large(tmp_path):
    store = MappingStore()
    rng = random.Random(31)
    for kind in KINDS:
        n = 25_000
        store.append(
            kind,
            [rng.randrange(10**6) for _ in range(n)],
            [rng.randrange(10**6) for _ in range(n)],
            [5] * n,
        )
    path = tmp_path / "store.map"
    store.save(path, FP)
    loaded = MappingStore.load(path, FP)
    assert loaded == store
    for kind in KINDS:
        assert loaded.conflicts(kind) == store.conflicts(kind)
    loaded.save(tmp_path / "again.map", FP)
    assert (tmp_path / "again.map").read_bytes() == path.read_bytes()


def test_failed_save_keeps_the_earlier_map(tmp_path, monkeypatch):
    path = tmp_path / "store.map"
    earlier = MappingStore()
    _append(earlier, "lon_int", (143, 116))
    earlier.save(path, FP)
    before = path.read_bytes()

    class HalfWriter:
        """A file that takes half of a write, then fails as a full disk would."""

        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(
        mapstore, "open", lambda *a, **kw: HalfWriter(open(*a, **kw)), raising=False
    )
    larger = MappingStore()
    _append(larger, "lon_int", *[(i, i) for i in range(100)])
    with pytest.raises(OSError, match="No space"):
        larger.save(path, FP)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.map"]


def test_failed_save_after_several_chunks_keeps_the_earlier_map(tmp_path, monkeypatch):
    monkeypatch.setattr(mapstore, "_SLICE", 2)
    path = tmp_path / "store.map"
    earlier = _filled(_GOLDEN)
    earlier.save(path, FP)
    before = path.read_bytes()

    class FailingWriter:
        """A file whose writes fail from the third on, as a full disk would."""

        def __init__(self, fh):
            self._fh = fh
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes >= 3:
                raise OSError(28, "No space left on device")
            return self._fh.write(data)

    writers = []

    def failing_open(*a, **kw):
        writers.append(FailingWriter(open(*a, **kw)))
        return writers[-1]

    monkeypatch.setattr(mapstore, "open", failing_open, raising=False)
    larger = MappingStore()
    _append(larger, "lon_int", *[(i, i) for i in range(9)])
    with pytest.raises(OSError, match="No space"):
        larger.save(path, FP)
    # magic and fingerprint, then the lon_int header went out; the first
    # 2-value slice of its enc column failed
    assert writers[0].writes == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.map"]


def _chunked_columns(n):
    """n entries per kind, distinct per kind and per id."""
    return {
        kind: [(1000 * code + i, 2**64 - 1 - i, (code + i) % 20) for i in range(n)]
        for code, kind in enumerate(KINDS)
    }


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_chunked_round_trip_at_chunk_boundaries(tmp_path, monkeypatch, n):
    # with 2-value slices: 0, 1 (also chunk - 1), chunk, chunk + 1, 2 * chunk + 1
    monkeypatch.setattr(mapstore, "_SLICE", 2)
    store = _filled(_chunked_columns(n))
    path = tmp_path / "store.map"
    store.save(path, FP)
    assert path.read_bytes() == _v2_bytes(_chunked_columns(n))
    loaded = MappingStore.load(path, FP)
    assert loaded == store
    loaded.save(tmp_path / "again.map", FP)
    assert (tmp_path / "again.map").read_bytes() == path.read_bytes()


_FIVE = _v2_bytes(_chunked_columns(5))


def _flipped(data, at):
    data = bytearray(data)
    data[at] ^= 0x01
    return bytes(data)


@pytest.mark.parametrize(
    "data, message",
    [
        # a byte of the lat_frac d column, in the last, partial CRC buffer
        (_flipped(_FIVE, len(_FIVE) - 4 - 2), "checksum"),
        # each error follows earlier sections read 2 values at a time
        (_v2_bytes(_chunked_columns(5), widths={"lat_frac": (3, 8, 1)}),
         "lat_frac enc width 3 is not one of 0, 1, 2, 4, 8"),
        (_cut_section(_chunked_columns(5), "lat_frac", 1), "truncated"),
        (_with_crc(_FIVE[:-4] + b"\0\0"), "2 trailing bytes"),
    ],
    ids=["checksum", "width", "truncated", "trailing"],
)
def test_chunked_load_reports_errors_in_later_chunks(tmp_path, monkeypatch, data, message):
    monkeypatch.setattr(mapstore, "_SLICE", 2)
    path = tmp_path / "bad.map"
    path.write_bytes(data)
    with pytest.raises(MapFormatError, match=message):
        MappingStore.load(path, FP)


def test_chunked_load_detects_corruption_and_truncation(tmp_path, monkeypatch):
    monkeypatch.setattr(mapstore, "_SLICE", 2)
    path = tmp_path / "store.map"
    _filled(_chunked_columns(5)).save(path, FP)
    data = path.read_bytes()
    # lon_int: header at 24, 5 one-byte enc values, then 8-byte originals;
    # flip a byte of the second original, in the first slice
    orig_at = 8 + 16 + 11 + 5
    flipped = bytearray(data)
    flipped[orig_at + 8 + 3] ^= 0x01
    path.write_bytes(flipped)
    with pytest.raises(MapFormatError, match="checksum"):
        MappingStore.load(path, FP)
    # cut mid-slice in lon_int, and in the lat_frac d column
    for cut in (orig_at + 3 * 8 + 3, len(data) - 4 - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(MapFormatError):
            MappingStore.load(path, FP)


def test_save_and_load_hold_the_columns_plus_a_few_chunks(tmp_path):
    n = 50_000  # per kind: a 200k-entry store, appended 10k entries at a time
    rng = np.random.default_rng(7)
    store = MappingStore()
    for kind, top in zip(KINDS, (2**63, 256, 2**63, 256)):
        for _ in range(5):
            store.append(
                kind,
                rng.integers(0, top, n // 5, dtype=np.uint64),
                rng.integers(0, top, n // 5, dtype=np.uint64),
                rng.integers(0, 20 if top > 256 else 1, n // 5, dtype=np.uint8),
            )
    # 8-byte enc and orig with 1-byte d, and 1-byte enc and orig with no d
    columns = 2 * n * (8 + 8 + 1) + 2 * n * (1 + 1)
    slices = 4 * mapstore._SLICE * 8
    path = tmp_path / "store.map"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        store.save(path, FP)
        saved_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = MappingStore.load(path, FP)
        loaded_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert loaded == store
    # 1.9 MB of columns, against 1 MB of 8-byte slices; a load that held
    # each kind at 17 bytes per entry would take 3.4 MB
    assert path.stat().st_size == 8 + 16 + 4 * 11 + columns + 4
    assert loaded.column_bytes() == store.column_bytes() == columns
    assert saved_peak < slices
    assert loaded_peak < columns + slices


def test_save_load_empty(tmp_path):
    store = MappingStore()
    path = tmp_path / "empty.map"
    store.save(path, FP)
    assert path.read_bytes() == _v2_bytes({})
    assert store.layout.widths == {kind: (0, 0, 0) for kind in KINDS}
    loaded = MappingStore.load(path, FP)
    assert loaded == store
    assert loaded.conflict_rate("lon_int") == 0


def test_save_creates_the_map_with_mode_0600(tmp_path):
    path = tmp_path / "store.map"
    # a stale .tmp of a killed run, readable by all, and an earlier map
    stale = tmp_path / "store.map.tmp"
    stale.write_bytes(b"stale")
    stale.chmod(0o644)
    path.write_bytes(b"earlier")
    path.chmod(0o644)
    umask = os.umask(0o022)
    try:
        _filled(_GOLDEN_V2).save(path, FP)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_bytes() == _golden_v2_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["store.map"]


_SRC = Path(mapstore.__file__).parent
_MOVES = ("os.replace", "os.rename")
_WRITE_METHODS = ("write_text", "write_bytes", "touch")


def _os_open_creates(flags) -> bool:
    """Whether ``os.open`` flags may create or truncate: anything but an
    ``|`` of ``os.O_*`` names other than O_CREAT and O_TRUNC counts."""
    if isinstance(flags, ast.BinOp) and isinstance(flags.op, ast.BitOr):
        return _os_open_creates(flags.left) or _os_open_creates(flags.right)
    name = ast.unparse(flags)
    return not name.startswith("os.O_") or name in ("os.O_CREAT", "os.O_TRUNC")


def _file_writes(tree):
    """The lines of the calls in ``tree`` that can create or write a file:
    ``open`` or ``<path>.open`` with a mode that is not a read-only string,
    ``os.open`` that may create (see ``_os_open_creates``), ``os.replace``,
    ``os.rename`` and the Path methods in _WRITE_METHODS."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        kwargs = {kw.arg: kw.value for kw in node.keywords}
        if name == "os.open":
            flags = node.args[1] if len(node.args) > 1 else kwargs.get("flags")
            writes = flags is None or _os_open_creates(flags)
        elif name == "open" or name.endswith(".open"):
            at = 1 if name == "open" else 0  # the mode follows the path argument
            mode = node.args[at] if len(node.args) > at else kwargs.get("mode")
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            )
        else:
            writes = name in _MOVES or (
                isinstance(node.func, ast.Attribute) and node.func.attr in _WRITE_METHODS
            )
        if writes:
            yield node.lineno


def test_replacing_is_the_only_file_writer():
    """No module creates or writes a file except through ``replacing``."""
    writes, writers = [], 0
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "replacing":
                writers += 1
                node.body = []  # the one writer may open its file
        writes += [f"{path.name}:{line}" for line in _file_writes(tree)]
    assert writers == 1
    assert writes == []
    # the lint sees each of these writes, one a line, and passes the reads
    caught = [
        'open(p, "w")', 'open(p, mode="ab")', 'open(p, "r+")', "open(p, m)",
        'p.open("x")', "p.write_text(t)", "os.open(p, os.O_WRONLY | os.O_CREAT)",
        "os.open(p, flags)", "os.replace(a, b)",
    ]
    assert list(_file_writes(ast.parse("\n".join(caught)))) == list(range(1, len(caught) + 1))
    reads = 'open(p)\nopen(p, "rb")\nopen(p, encoding="utf-8")\nos.open(p, os.O_WRONLY)'
    assert list(_file_writes(ast.parse(reads))) == []


_LINE_PATTERNS = ("_PLAIN_LINE", "_ENC_LINE")
_TEXT_PATTERNS = ("_PLAIN_TEXT", "_ENC_TEXT")


def _pattern_users(tree, patterns=_LINE_PATTERNS, owner="scan_lines"):
    """The lines, inside a function other than ``owner``, that name one of
    ``patterns``."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.Lambda)) and (
            getattr(func, "name", None) != owner
        ):
            for node in ast.walk(func):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in patterns:
                    yield node.lineno


def _src_pattern_users(patterns, owner):
    """How many functions of src/geofpe are named ``owner``, and the
    ``file:line`` of each other use of ``patterns`` there."""
    owners, found = 0, []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners += sum(isinstance(node, ast.FunctionDef) and node.name == owner
                      for node in ast.walk(tree))
        found += [f"{path.name}:{line}" for line in _pattern_users(tree, patterns, owner)]
    return owners, found


def test_scan_lines_is_the_only_line_parser():
    """Only ``dataset.scan_lines`` matches lines against the layouts'
    patterns, so one grammar decides what every command accepts."""
    assert _src_pattern_users(_LINE_PATTERNS, "scan_lines") == (1, [])
    # the lint sees each of these, one a line, and passes the pattern
    # definitions, scan_lines itself and the whole-text patterns
    caught = [
        "def f(line): return _PLAIN_LINE.fullmatch(line)",
        "def f(lines): return [dataset._ENC_LINE.match(x) for x in lines]",
        "f = lambda line: _ENC_LINE.fullmatch(line)",
    ]
    assert list(_pattern_users(ast.parse("\n".join(caught)))) == [1, 2, 3]
    passed = (
        "_ENC_LINE = re.compile(_PLAIN_LINE.pattern)\n"
        "def scan_lines(lines): return _ENC_LINE.fullmatch\n"
        "def f(text): return _ENC_TEXT.fullmatch(text)"
    )
    assert list(_pattern_users(ast.parse(passed))) == []


def test_the_eval_loader_is_the_only_whole_text_parser():
    """Only ``dataset._load`` walks a file's text with the layouts'
    whole-text patterns; a line where the walk stops goes to the per-line
    reject path, so the whole-text patterns add no second grammar."""
    assert _src_pattern_users(_TEXT_PATTERNS, "_load") == (1, [])
    caught = [
        "def f(text): return _ENC_TEXT.fullmatch(text)",
        "def load_points_auto(d): return dataset._PLAIN_TEXT.match",
        "f = lambda text: _PLAIN_TEXT.match(text)",
    ]
    found = _pattern_users(ast.parse("\n".join(caught)), _TEXT_PATTERNS, "_load")
    assert list(found) == [1, 2, 3]
    passed = (
        "_PLAIN_TEXT = _text_pattern(_PLAIN_BODY)\n"
        "def _load(d): return _ENC_TEXT.match, _PLAIN_TEXT.match\n"
        "def f(line): return _ENC_LINE.fullmatch(line)"
    )
    assert list(_pattern_users(ast.parse(passed), _TEXT_PATTERNS, "_load")) == []


_THREAD_MODULES = ("threading", "concurrent", "multiprocessing")


def _thread_imports(tree):
    """The lines of the imports in ``tree`` of _THREAD_MODULES or their
    submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in _THREAD_MODULES for name in names):
            yield node.lineno


def test_no_module_imports_threads():
    """``CoordinateCipher`` and ``MappingStore`` are not thread-safe, so no
    module may start threads or processes that could share them."""
    imports = [
        f"{path.name}:{line}"
        for path in sorted(_SRC.glob("*.py"))
        for line in _thread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert imports == []
    # the lint sees each of these imports, one a line, and passes the others
    caught = [
        "import threading", "import os, multiprocessing.pool",
        "from concurrent.futures import ThreadPoolExecutor", "from threading import Lock",
    ]
    assert list(_thread_imports(ast.parse("\n".join(caught)))) == [1, 2, 3, 4]
    others = "import os\nfrom . import threading\nimport concurrency\nfrom queue import Queue"
    assert list(_thread_imports(ast.parse(others))) == []


@pytest.mark.parametrize("offset", [-1, -5, -29, -38])
def test_load_detects_corruption(tmp_path, offset):
    store = MappingStore()
    _append(store, "lon_int", (143, 116))
    path = tmp_path / "store.map"
    store.save(path, FP)
    data = bytearray(path.read_bytes())
    # the high byte of the trailing CRC, the lat_frac d width and the
    # lon_frac enc width (whose width errors must not mask the checksum
    # failure), or the original of the only entry
    data[offset] ^= 0xFF
    path.write_bytes(data)
    with pytest.raises(MapFormatError, match="checksum"):
        MappingStore.load(path, FP)


def test_load_detects_truncation(tmp_path):
    store = MappingStore()
    _append(store, "lon_int", (143, 116))
    path = tmp_path / "store.map"
    store.save(path, FP)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(MapFormatError):
        MappingStore.load(path, FP)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"NOTAMAP0" + bytes(64), r"bad magic b'NOTAMAP0', expected b'GFPEMAP2'$"),
        # a well-formed GFPEMAP1 map holds no key, so any key is refused
        (_v1_bytes(_GOLDEN), r"GFPEMAP1 maps are no longer read: they hold no key "
         r"fingerprint; re-encrypt the plaintext to write a GFPEMAP2 map$"),
    ],
    ids=["foreign", "GFPEMAP1"],
)
def test_load_rejects_wrong_magic(tmp_path, data, message):
    path = tmp_path / "bogus.map"
    path.write_bytes(data)
    for fingerprint in (FP, OTHER_FP):
        with pytest.raises(MapFormatError, match=message):
            MappingStore.load(path, fingerprint)


def test_save_is_canonical_regardless_of_insert_order(tmp_path):
    # The kinds may be filled in any order and in any chunks.
    columns = _random_columns(500, seed=41)
    a = _filled(columns)
    b = MappingStore()
    for kind in reversed(KINDS):
        entries = columns[kind]
        for start in range(0, len(entries), 137):
            _append(b, kind, *entries[start : start + 137])
    a.save(tmp_path / "a.map", FP)
    b.save(tmp_path / "b.map", FP)
    assert (tmp_path / "a.map").read_bytes() == (tmp_path / "b.map").read_bytes()
