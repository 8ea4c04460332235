"""Round-network properties: tweaks, key/shift selection, bijectivity, inverse."""

import functools
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofpe.cipher import (
    _TAIL_SHARE,
    INT_MASK_BITS,
    REPUNIT,
    CoordinateCipher,
    DomainError,
    component_keys,
    encrypt_rounds_u64,
    is_int_part,
    is_lon,
)
from geofpe.sm4 import derive_round_keys
from geofpe.text import MAX_FRAC_DIGITS
from oracle_cipher import (
    decrypt_rounds_raw,
    encrypt_rounds_raw,
    fraction_constrain,
    mask_width,
    range_constrain,
    range_type,
    tweak,
)
from oracle_coords import DecimalNumber, decompose
from oracle_decrypt import recombine

STD_KEY = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")
ZERO_KEY = bytes(16)
RK = derive_round_keys(STD_KEY)
ZERO_TWEAK = functools.partial(tweak, ZERO_KEY)
STD_TWEAK = functools.partial(tweak, STD_KEY)


# ---------------------------------------------------------------------------
# Tweak computation


def test_tweak_golden_value():
    # frozen from the reference MD5: first 4 bytes of
    # MD5(b"lon_int:116" + MD5(0^16)), big-endian
    assert ZERO_TWEAK("lon_int", "116") == 0x315E5B1E


def test_tweak_matches_reference_construction():
    key_hash = hashlib.md5(ZERO_KEY).digest()
    digest = hashlib.md5(b"lat_frac:92123" + key_hash).digest()
    assert ZERO_TWEAK("lat_frac", "92123") == int.from_bytes(
        digest[:4], "big"
    )


def test_tweak_deterministic():
    assert STD_TWEAK("lon_int", "116") == tweak(bytes(STD_KEY), "lon_int", "116")


def test_tweak_separates_tags():
    assert ZERO_TWEAK("lat_int", "116") == 0x33366D50
    assert ZERO_TWEAK("lon_int", "116") != ZERO_TWEAK("lat_int", "116")


# ---------------------------------------------------------------------------
# Key index and shift amount


def _keys_used(t, n_rounds):
    """Round-key indices the kernel reads in n_rounds rounds with tweak t.

    Each key is XORed in at most once and the rounds are linear, so a key
    shows in the output exactly when a round reads it.
    """
    base = encrypt_rounds_raw(0, 64, t, [0] * 32, n_rounds)
    used = set()
    for k in range(32):
        one_hot = [0] * k + [1] + [0] * (31 - k)
        if encrypt_rounds_raw(0, 64, t, one_hot, n_rounds) != base:
            used.add(k)
    return used


def _round_key(i, t):
    (k,) = _keys_used(t, i + 1) - _keys_used(t, i)
    return k


def _round_shift(i, t):
    """Rotation of round i with tweak t: follow one set bit through zero round
    keys at width 64."""
    bits = [
        encrypt_rounds_raw(t ^ 1, 64, t, [0] * 32, n).bit_length() - 1 for n in (i, i + 1)
    ]
    return (bits[1] - bits[0]) % 64


def test_key_index_examples():
    assert _round_key(0, 0) == 0
    assert _round_key(3, 30) == 1  # (3 + 30) mod 32


def test_key_index_uses_low_five_bits():
    # low 5 bits 0x18 vs 0x01 pick different keys at the same round
    assert 0x12345678 & 31 == 0x18
    assert 0x87654321 & 31 == 0x01
    for i in range(8):
        assert _round_key(i, 0x12345678) != _round_key(i, 0x87654321)


def test_shift_amount_examples():
    assert _round_shift(0, 0) == 1
    assert _round_shift(6, 6) == 1  # (6 xor 6) mod 7 + 1


def test_shift_amount_range_exhaustive():
    assert {_round_shift(i, t) for i in range(64) for t in range(8)} == set(
        range(1, 8)
    )


# ---------------------------------------------------------------------------
# Round network


def test_zero_rounds_is_tweak_mix():
    for w in (3, 8, 16):
        for v in (0, 1, (1 << w) - 1):
            t = 0xA5A5A5A5
            assert encrypt_rounds_raw(v, w, t, RK, 0) == (v ^ t) & ((1 << w) - 1)
            assert decrypt_rounds_raw(v, w, t, RK, 0) == (v ^ t) & ((1 << w) - 1)


def test_bijective_at_width_8():
    t = STD_TWEAK("lon_frac", "42")
    outputs = {encrypt_rounds_raw(v, 8, t, RK, 8) for v in range(256)}
    assert len(outputs) == 256


def test_inverse_exhaustive_width_8():
    t = STD_TWEAK("lat_frac", "7")
    for v in range(256):
        assert decrypt_rounds_raw(encrypt_rounds_raw(v, 8, t, RK, 8), 8, t, RK, 8) == v


def test_golden_round_trip_triple():
    # frozen after the first correct build: (v=12345, w=16, t=0xDEADBEEF,
    # key=standard SM4 test key, 8 rounds)
    assert encrypt_rounds_raw(12345, 16, 0xDEADBEEF, RK, 8) == 28716
    assert decrypt_rounds_raw(28716, 16, 0xDEADBEEF, RK, 8) == 12345


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=16),
)
def test_round_trip_property(w, v_raw, t, n_rounds):
    v = v_raw % (1 << w)
    c = encrypt_rounds_raw(v, w, t, RK, n_rounds)
    assert 0 <= c < (1 << w)
    assert decrypt_rounds_raw(c, w, t, RK, n_rounds) == v


def test_permutation_all_widths():
    rng = random.Random(7)
    for w in range(3, 11):
        t = rng.randrange(1 << 32)
        seen = set()
        for v in range(1 << w):
            c = encrypt_rounds_raw(v, w, t, RK, 8)
            seen.add(c)
            assert decrypt_rounds_raw(c, w, t, RK, 8) == v
        assert len(seen) == 1 << w


def test_batch_kernel_parity():
    rng = random.Random(11)
    widths = [w for w in range(1, 65) for _ in range(12)]
    for n_rounds in range(13):
        values = [rng.choice((0, (1 << w) - 1, rng.randrange(1 << w))) for w in widths]
        tweaks = [rng.randrange(1 << 32) for _ in widths]
        got = encrypt_rounds_u64(
            np.array(values, dtype=np.uint64), widths, tweaks, RK, n_rounds
        )
        assert got.tolist() == [
            encrypt_rounds_raw(v, w, t, RK, n_rounds)
            for v, w, t in zip(values, widths, tweaks)
        ]


def test_tweak_avalanche_smoke():
    # flipping any effective tweak bit (below the mask width) changes the
    # output for nearly all inputs; threshold is a harness parameter
    w, n_rounds = 16, 8
    t0 = 0x5EED1234
    rng = random.Random(3)
    inputs = [rng.randrange(1 << w) for _ in range(2048)]
    for bit in range(w):
        t1 = t0 ^ (1 << bit)
        changed = sum(
            1
            for v in inputs
            if encrypt_rounds_raw(v, w, t0, RK, n_rounds)
            != encrypt_rounds_raw(v, w, t1, RK, n_rounds)
        )
        assert changed / len(inputs) >= 0.95, f"bit {bit}: {changed}/{len(inputs)}"


# ---------------------------------------------------------------------------
# Component encryption


def _encrypt_one(value, kind, d=0, key=STD_KEY):
    return CoordinateCipher(key).encrypt_batch(kind, [value], [d]).tolist()[0]


def test_component_lon_int_stays_in_class():
    assert 100 <= _encrypt_one(116, "lon_int") < 180


def test_component_lat_frac_stays_below_modulus():
    assert 0 <= _encrypt_one(92123, "lat_frac", 5) < 10**5


def test_component_deterministic():
    assert _encrypt_one(42, "lon_frac", 2) == _encrypt_one(42, "lon_frac", 2)


def test_component_class_preservation_sweep():
    cipher = CoordinateCipher(STD_KEY)
    lon = [(0, 0, 10), (9, 0, 10), (10, 10, 100), (99, 10, 100),
           (100, 100, 180), (179, 100, 180), (180, 100, 180)]
    lat = [(0, 0, 10), (9, 0, 10), (10, 10, 90), (89, 10, 90), (90, 10, 90)]
    for kind, cases in (("lon_int", lon), ("lat_int", lat)):
        enc = cipher.encrypt_batch(kind, [v for v, _, _ in cases]).tolist()
        for c, (_, lo, hi) in zip(enc, cases):
            assert lo <= c < hi


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_integer_parts_keep_their_digit_count_under_any_key(key):
    # decrypt writes an original integer part in place over its ciphertext,
    # so every integer part in range must keep its digit count
    cipher = CoordinateCipher(key)
    for kind, bound in (("lon_int", 180), ("lat_int", 90)):
        values = list(range(bound + 1))
        enc = cipher.encrypt_batch(kind, values).tolist()
        assert [len(str(c)) for c in enc] == [len(str(v)) for v in values]


def test_component_rejects_oversized_fraction():
    with pytest.raises(DomainError):
        _encrypt_one(100, "lon_frac", 2)


def test_encrypt_number_preserves_sign_and_digits():
    # a whole number is encrypted as encrypt_dataset does it: the integer
    # and fraction parts as components, the sign and digit count carried over
    cipher = CoordinateCipher(STD_KEY)
    n = decompose("-116.0350")
    enc_int = cipher.encrypt_batch("lon_int", [n.int_part]).tolist()[0]
    enc_frac = cipher.encrypt_batch("lon_frac", [n.frac_value], [n.frac_digits]).tolist()[0]
    enc = decompose(recombine(DecimalNumber(n.sign, enc_int, enc_frac, n.frac_digits)))
    assert enc.sign == -1
    assert enc.frac_digits == 4
    assert 100 <= enc.int_part < 180


def test_cipher_params_validation():
    with pytest.raises(DomainError):
        CoordinateCipher(b"short")


# ---------------------------------------------------------------------------
# Batch path and codebook


def _scalar_component(value, kind, d):
    """The component path one value at a time: MD5 tweak, reference rounds,
    range fold."""
    int_kind = is_int_part(kind)
    w = mask_width(value, int_kind, d)
    t = STD_TWEAK(kind, str(value))
    c = encrypt_rounds_raw(value & ((1 << w) - 1), w, t, RK, 8)
    if int_kind:
        return range_constrain(c, range_type(value, is_lon(kind), True))
    return fraction_constrain(c, d)


@st.composite
def _component(draw, kind):
    """A (value, digit count) pair of one kind; integer parts get d 0."""
    if is_int_part(kind):
        return draw(st.integers(0, 200)), 0
    d = draw(st.integers(0, MAX_FRAC_DIGITS))
    return draw(st.integers(0, 10**d - 1) | st.sampled_from([0, 10**d - 1])), d


@st.composite
def _component_batches(draw):
    kind = draw(st.sampled_from(["lon_int", "lat_int", "lon_frac", "lat_frac"]))
    pool = draw(st.lists(_component(kind), min_size=1, max_size=12))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=40))
    return kind, [v for v, _ in pairs], [d for _, d in pairs]


@settings(max_examples=150, deadline=None)
@given(_component_batches())
def test_batch_matches_scalar_component(batch):
    kind, values, digits = batch
    expected = [_scalar_component(v, kind, d) for v, d in zip(values, digits)]

    cipher = CoordinateCipher(STD_KEY)
    half = len(values) // 2
    got = cipher.encrypt_batch(kind, values[:half], digits[:half]).tolist()
    assert got == expected[:half]
    assert cipher.encrypt_batch(kind, values, digits).tolist() == expected  # part warm
    assert cipher.encrypt_batch(kind, values, digits).tolist() == expected  # all warm
    assert [
        cipher.encrypt_batch(kind, [v], [d]).tolist()[0] for v, d in zip(values, digits)
    ] == expected


def test_batch_per_value_digits():
    # one call over every digit count, at both ends of each and in between
    rng = random.Random(13)
    values, digits = [7, 7, 123, 0, 42], [1, 3, 3, 0, 5]
    for d in range(MAX_FRAC_DIGITS + 1):
        for v in (0, 10**d - 1, rng.randrange(10**d), 99, 100, 999, 1000):
            if v < 10**d:
                values.append(v)
                digits.append(d)
    cipher = CoordinateCipher(STD_KEY)
    assert cipher.encrypt_batch("lat_frac", values, digits).tolist() == [
        _scalar_component(v, "lat_frac", d) for v, d in zip(values, digits)
    ]
    assert cipher.counts.kernel_calls == 1


def test_component_keys_round_trip_every_digit_count():
    values = [v for d in range(MAX_FRAC_DIGITS + 1) for v in (0, 10**d - 1)]
    digits = [d for d in range(MAX_FRAC_DIGITS + 1) for _ in range(2)]
    keys = component_keys(np.array(values, dtype=np.uint64), np.array(digits))
    # ordered by (d, value), so one-to-one, and the largest fits uint64
    assert keys.tolist() == sorted(keys.tolist())
    assert len(set(keys.tolist())) == len(keys) - 1  # d 0 has the one value 0
    assert keys.tolist()[-1] == 10**19 - 1 + int(REPUNIT[19]) < 2**64
    # each key decodes back to its (value, d)
    decoded = np.searchsorted(REPUNIT, keys, side="right") - 1
    assert (keys - REPUNIT[decoded]).tolist() == values and decoded.tolist() == digits
    # "1" (d 1) and "01" (d 2) are different components
    one = component_keys(np.array([1, 1], dtype=np.uint64), np.array([1, 2]))
    assert one[0] != one[1]
    int_keys = np.array([0, 180], dtype=np.uint64)
    assert component_keys(int_keys, None) is int_keys


def test_codebook_tail_merges_into_the_book():
    rng = random.Random(17)
    cipher = CoordinateCipher(STD_KEY)
    seen, tail_sizes = set(), []
    for size in [1, 40, 3, 5, 2, 30, 1, 7, 60, 4] * 3:
        values = [rng.randrange(10**6) for _ in range(size)] + [rng.choice([0, *seen])]
        got = cipher.encrypt_batch("lat_frac", values, [6] * len(values)).tolist()
        assert got == [_scalar_component(v, "lat_frac", 6) for v in values]
        seen.update(values)
        (keys, encs), (tail_keys, tail_encs) = cipher._codebooks["lat_frac"]
        # two sorted levels, every key seen in exactly one, the tail small
        for level in (keys, tail_keys):
            assert level.tolist() == sorted(level.tolist())
        both = np.concatenate([keys, tail_keys]).tolist()
        assert sorted(both) == sorted(v + int(REPUNIT[6]) for v in seen)
        assert len(tail_keys) * _TAIL_SHARE <= len(keys)
        assert np.concatenate([encs, tail_encs]).tolist() == [
            _scalar_component(k - int(REPUNIT[6]), "lat_frac", 6) for k in both
        ]
        tail_sizes.append(len(tail_keys))
    assert 0 in tail_sizes and max(tail_sizes) > 0  # both levels were used
    # each distinct key sits in the codebook once, and encrypting every
    # distinct value again hits it for each one: no tweak is computed
    assert len(both) == len(seen)
    distinct = sorted(seen)
    tweaks = cipher.counts.tweaks
    got = cipher.encrypt_batch("lat_frac", distinct, [6] * len(distinct)).tolist()
    assert got == [_scalar_component(v, "lat_frac", 6) for v in distinct]
    assert cipher.counts.tweaks == tweaks


def test_batch_domain_errors():
    cipher = CoordinateCipher(STD_KEY)
    with pytest.raises(DomainError):
        cipher.encrypt_batch("altitude", [1])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lon_int", [-1])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lon_int", np.array([3, -1]))
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lon_int", [1 << INT_MASK_BITS])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lat_int", [70000])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lon_frac", [1, 100], [2, 2])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lat_frac", [5], [MAX_FRAC_DIGITS + 1])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lat_frac", [5, 5], [1, -1])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lat_frac", [5, 5], [1])
    with pytest.raises(DomainError):
        cipher.encrypt_batch("lat_frac", [5])


def test_empty_batches():
    cipher = CoordinateCipher(STD_KEY)
    for kind in ("lon_int", "lat_int"):
        assert cipher.encrypt_batch(kind, []).tolist() == []
    for kind in ("lon_frac", "lat_frac"):
        assert cipher.encrypt_batch(kind, [], []).tolist() == []
