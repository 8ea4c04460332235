"""Decimal decomposition/recombination round trips and point validation."""

from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_coords import (
    DecimalNumber,
    ParseError,
    decompose,
    validate_point,
)
from oracle_decrypt import recombine


def test_decompose_basic():
    assert decompose("116.35") == DecimalNumber(1, 116, 35, 2)


def test_decompose_negative_trailing_zero():
    assert decompose("-0.50") == DecimalNumber(-1, 0, 50, 2)


def test_decompose_tdrive_sample():
    # oracle: an independent decimal parser agrees on value and digit count
    n = decompose("39.92123")
    d = Decimal("39.92123")
    sign, digits, exponent = d.as_tuple()
    assert n == DecimalNumber(1, 39, 92123, 5)
    assert -exponent == n.frac_digits == 5
    assert Decimal(n.int_part) + Decimal(n.frac_value) / 10**n.frac_digits == d


def test_decompose_integer_only():
    assert decompose("117") == DecimalNumber(1, 117, 0, 0)
    assert decompose("-0") == DecimalNumber(-1, 0, 0, 0)


def test_decompose_rejects_plus_sign():
    # recombine could not give the "+" back, so the round trip would not be exact
    with pytest.raises(ParseError, match=r"'\+116\.35'"):
        decompose("+116.35")


@pytest.mark.parametrize(
    "bad",
    ["", "abc", "116.", ".5", "1e5", "1.2.3", "--1", "07.5", " 1.0", "1,0", "1.5\n", "7\n"],
)
def test_decompose_rejects_malformed(bad):
    with pytest.raises(ParseError) as err:
        decompose(bad)
    assert repr(bad) in str(err.value)


def test_recombine_basic():
    assert recombine(DecimalNumber(1, 116, 35, 2)) == "116.35"


def test_recombine_pads_leading_zeros():
    assert recombine(DecimalNumber(1, 39, 4, 3)) == "39.004"


def test_recombine_negative_zero_int():
    assert recombine(DecimalNumber(-1, 0, 50, 2)) == "-0.50"


def test_decimal_number_invariants():
    with pytest.raises(ValueError):
        DecimalNumber(1, 1, 100, 2)  # frac needs 3 digits
    with pytest.raises(ValueError):
        DecimalNumber(0, 1, 0, 0)
    with pytest.raises(ValueError):
        DecimalNumber(1, 1, 1, 0)  # d = 0 forces frac_value 0


_decimal_texts = st.builds(
    lambda sign, int_part, frac: f"{sign}{int_part}{frac}",
    st.sampled_from(["", "-"]),
    st.integers(min_value=0, max_value=10**9).map(str),
    st.one_of(
        st.just(""),
        st.text(alphabet="0123456789", min_size=1, max_size=12).map(lambda s: "." + s),
    ),
)


@given(_decimal_texts)
def test_round_trip_matches_canonical_text(text):
    assert recombine(decompose(text)) == text


@given(_decimal_texts)
def test_round_trip_is_numerically_exact(text):
    n = decompose(text)
    expected = Decimal(text)
    got = n.sign * (Decimal(n.int_part) + Decimal(n.frac_value) / 10**n.frac_digits)
    # compare as exact rationals; -0 and 0 are numerically equal
    assert got == expected


def _point(lon_text, lat_text):
    return decompose(lon_text), decompose(lat_text)


def test_validate_point_in_range():
    assert validate_point(*_point("116.51172", "39.92123")) is None


def test_validate_point_boundaries():
    assert validate_point(*_point("180.00000", "90.00000")) is None
    assert validate_point(*_point("-180", "-90")) is None


def test_validate_point_lon_out_of_range():
    assert validate_point(*_point("181.0", "0")) == "lon"
    assert validate_point(*_point("180.00001", "0")) == "lon"


def test_validate_point_lat_out_of_range():
    assert validate_point(*_point("0", "-90.00001")) == "lat"
