"""SM4 key-expansion conformance against the published standard vectors."""

import pytest

from geofpe.sm4 import derive_round_keys
from oracle_cipher import encrypt_block

STD_KEY = bytes.fromhex("0123456789ABCDEFFEDCBA9876543210")


def test_round_key_endpoints():
    rk = derive_round_keys(STD_KEY)
    assert len(rk) == 32
    assert rk[0] == 0xF12186F9
    assert rk[31] == 0x9124A012


def test_round_keys_are_32_bit_words():
    rk = derive_round_keys(STD_KEY)
    assert all(0 <= w <= 0xFFFFFFFF for w in rk)


def test_schedule_is_deterministic():
    assert derive_round_keys(STD_KEY) == derive_round_keys(bytes(STD_KEY))


def test_block_cipher_standard_vector():
    # independent end-to-end check of the schedule: the standard's one-block
    # example encrypts the key to this ciphertext
    rk = derive_round_keys(STD_KEY)
    assert encrypt_block(STD_KEY, rk) == bytes.fromhex(
        "681EDF34D206965E86B3E94F536E4246"
    )


def test_key_length_enforced():
    with pytest.raises(ValueError):
        derive_round_keys(b"short")
    with pytest.raises(ValueError):
        derive_round_keys(bytes(17))
