"""Range classification, constraint closure, and mask-width tiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofpe.cipher import fraction_folds, mask_widths, range_folds
from geofpe.text import MAX_FRAC_DIGITS
from oracle_cipher import fraction_constrain, mask_width, range_constrain, range_type

# (rt, interval) pairs from the five digit-class ranges
_INTERVALS = {1: (0, 10), 2: (10, 100), 3: (100, 180), 4: (0, 10), 5: (10, 90)}


def test_range_type_lon_tens():
    assert range_type(15, True, True) == 2


def test_range_type_lon_hundreds():
    assert range_type(116, True, True) == 3


def test_range_type_lat_units():
    assert range_type(5, False, True) == 4


def test_range_type_fraction_is_passthrough():
    assert range_type(35, True, False) == 0
    assert range_type(92123, False, False) == 0


def test_range_type_boundaries_are_constrained():
    # 180/90 fall outside the half-open ranges but must not pass through
    assert range_type(180, True, True) == 3
    assert range_type(90, False, True) == 5
    assert range_type(181, True, True) == 0
    assert range_type(91, False, True) == 0


@pytest.mark.parametrize(
    "v,rt,expected",
    [(37, 1, 7), (123, 2, 43), (523, 3, 143), (999, 0, 999), (37, 4, 7), (523, 5, 53)],
)
def test_range_constrain_examples(v, rt, expected):
    assert range_constrain(v, rt) == expected


def test_range_constrain_closure_brute_force():
    for rt, (lo, hi) in _INTERVALS.items():
        for v in range(1 << 16):
            assert lo <= range_constrain(v, rt) < hi


def test_range_constrain_preserves_digit_class():
    for rt, (lo, hi) in _INTERVALS.items():
        digits = {len(str(range_constrain(v, rt))) for v in range(1 << 16)}
        assert digits == {len(str(lo)) if lo else 1}


def test_range_constrain_residue_balance():
    # the folded outputs hit each residue of the modulus near-uniformly
    counts = {}
    for v in range(1 << 16):
        out = range_constrain(v, 1)
        counts[out] = counts.get(out, 0) + 1
    assert set(counts) == set(range(10))
    spread = max(counts.values()) - min(counts.values())
    assert spread <= -(-(1 << 16) // 10) - ((1 << 16) // 10)


def test_mask_width_integer_parts():
    assert mask_width(116, True) == 16
    assert mask_width(0, True) == 16


def test_mask_width_fraction_tiers():
    assert mask_width(73, False, 2) == 8
    assert mask_width(523, False, 3) == 10
    # smallest w with 2^w >= 10^5: 2^17 = 131072 >= 100000, 2^16 = 65536 < 100000
    assert mask_width(92123, False, 5) == 17


def test_mask_width_covers_all_fraction_values():
    # every d-digit fraction fits inside its mask, d <= 9 exhaustive over tiers
    for d in range(10):
        top = 10**d - 1
        probes = {0, 1, 99, 100, 999, 1000, top, max(top - 1, 0)}
        for v in probes:
            if v > top:
                continue
            w = mask_width(v, False, d)
            assert v < (1 << w), (d, v, w)
            if v >= 1000:
                assert (1 << w) >= 10**d and (1 << (w - 1)) < 10**d


@pytest.mark.parametrize(
    "v,d,expected", [(131071, 5, 31071), (42, 5, 42), (7, 0, 0)]
)
def test_fraction_constrain(v, d, expected):
    assert fraction_constrain(v, d) == expected


def test_fraction_constrain_closure():
    for d in (0, 1, 2, 5):
        for v in (0, 1, 9, 99, 12345, 10**6 + 7):
            assert 0 <= fraction_constrain(v, d) < max(10**d, 1)


# ---------------------------------------------------------------------------
# Array forms against the scalar rules

_U64 = st.integers(0, 2**64 - 1)


@st.composite
def _fractions(draw):
    """A (value, digit count) pair, often on a width tier's edge."""
    d = draw(st.integers(0, MAX_FRAC_DIGITS))
    edges = [v for v in (0, 99, 100, 999, 1000, 10**d - 1) if v < 10**d]
    return draw(st.sampled_from(edges) | st.integers(0, 10**d - 1)), d


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_fractions(), _U64), max_size=30))
def test_array_widths_and_fraction_folds_equal_scalar(cases):
    values = np.array([v for (v, _), _ in cases], dtype=np.uint64)
    digits = np.array([d for (_, d), _ in cases], dtype=np.int64)
    v_prime = np.array([c for _, c in cases], dtype=np.uint64)
    assert mask_widths(values, digits, False).tolist() == [
        mask_width(v, False, d) for (v, d), _ in cases
    ]
    assert mask_widths(values, digits, True).tolist() == [16] * len(cases)
    assert fraction_folds(v_prime, digits).tolist() == [
        fraction_constrain(c, d) for (_, d), c in cases
    ]


_INT_EDGES = [0, 9, 10, 89, 90, 91, 99, 100, 179, 180, 181, 2**16 - 1]


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.lists(
        st.tuples(st.sampled_from(_INT_EDGES) | st.integers(0, 2**16 - 1), _U64),
        max_size=30,
    ),
)
def test_array_range_folds_equal_scalar(is_lon, cases):
    values = np.array([v for v, _ in cases], dtype=np.uint64)
    v_prime = np.array([c for _, c in cases], dtype=np.uint64)
    assert range_folds(values, v_prime, is_lon).tolist() == [
        range_constrain(c, range_type(v, is_lon, True)) for v, c in cases
    ]
