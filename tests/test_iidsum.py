"""Sum-of-scores distributions of the convolution oracle against direct
enumeration."""
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from symbolwise_oracle import (
    SumDistCapError, merge_values, convolve, power_convolve,
    tail_mass_strict, mean_tail_strict,
)
from twoshare.prob import CapExceededError

NEG_INF = float("-inf")


def brute_power(values, probs, n):
    """Sum distribution by full sequence enumeration, left-to-right sums."""
    out = {}
    for seq in itertools.product(range(len(values)), repeat=n):
        total = 0.0
        p = 1.0
        for i in seq:
            total = total + values[i]
            p *= probs[i]
        out[total] = out.get(total, 0.0) + p
    return out


def test_merge_values_groups_near_duplicates():
    d = merge_values([1.0, 1.0 + 5e-13, 2.0], [0.2, 0.3, 0.5])
    assert set(d) == {1.0, 2.0}
    assert d[1.0] == pytest.approx(0.5)


def test_merge_values_drops_zero_mass():
    d = merge_values([1.0, 3.0], [1.0, 0.0])
    assert d == {1.0: 1.0}


def test_convolve_matches_enumeration():
    vals, probs = [0.0, 1.0, 2.5], [0.5, 0.3, 0.2]
    d = merge_values(vals, probs)
    got = power_convolve(d, 3)
    ref = brute_power(vals, probs, 3)
    assert set(got) == set(ref)
    for v in ref:
        assert got[v] == pytest.approx(ref[v], abs=1e-14)


def test_power_zero_is_point_mass_at_zero():
    assert power_convolve({1.0: 1.0}, 0) == {0.0: 1.0}


def test_negative_infinity_absorbs():
    d = {1.0: 0.5, NEG_INF: 0.5}
    out = power_convolve(d, 2)
    assert out[NEG_INF] == pytest.approx(0.75)
    assert out[2.0] == pytest.approx(0.25)


def test_tail_mass_strict_boundary_excluded():
    d = {0.0: 0.25, 1.0: 0.5, 2.0: 0.25}
    assert tail_mass_strict(d, 1.0) == pytest.approx(0.25)
    assert tail_mass_strict(d, 0.5) == pytest.approx(0.75)


def test_mean_tail_skips_minus_infinity():
    d = {NEG_INF: 0.3, 4.0: 0.7}
    assert mean_tail_strict(d, 4, 0.5) == pytest.approx(0.7)
    assert mean_tail_strict(d, 4, 1.0) == 0.0  # tie rejected


def test_cap_raised_and_is_a_cap_error():
    wide = {float(i) + 0.1 * (i % 7): 1.0 / 64 for i in range(64)}
    with pytest.raises(SumDistCapError):
        power_convolve(wide, 5, cap=100)
    assert issubclass(SumDistCapError, CapExceededError)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=5),
       probs=st.lists(st.floats(min_value=0.05, max_value=1.0),
                      min_size=2, max_size=3))
def test_power_convolve_total_mass(n, probs):
    total = sum(probs)
    vals = [float(i) for i in range(len(probs))]
    d = merge_values(vals, [p / total for p in probs])
    out = power_convolve(d, n)
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)
    assert min(out) >= 0.0 and max(out) <= (len(probs) - 1) * n
