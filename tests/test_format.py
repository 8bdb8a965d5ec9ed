"""The CLI's number formatter: the bytes of Python's "%.8e", a column at a time."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hawkdeco import cli

DBL_MAX = sys.float_info.max


def sci(values) -> list[str]:
    """The CSV cells the writer prints for a float column."""
    return "".join(cli._rows([np.array(values, dtype=float)])).splitlines()


def reference(values) -> list[str]:
    return ["%.8e" % v for v in values]


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
def test_formatter_is_percent_8e(values):
    # st.floats draws subnormals, +-0, +-inf and DBL_MAX among the rest
    assert sci(values) == reference(values)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    values = np.concatenate([values, -values]).tolist()
    assert sci(values) == reference(values)


@pytest.mark.parametrize("value, text", [
    (5e-324, "4.94065646e-324"),
    (-5e-324, "-4.94065646e-324"),
    (DBL_MAX, "1.79769313e+308"),
    (-DBL_MAX, "-1.79769313e+308"),
    (2.2250738585072014e-308, "2.22507386e-308"),  # the smallest normal double
    (1.234e-100, "1.23400000e-100"),
    (-9.87e150, "-9.87000000e+150"),
    (0.0, "0.00000000e+00"),
    (-0.0, "-0.00000000e+00"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
])
def test_edge_values(value, text):
    assert sci([value]) == [text] == reference([value])


def test_carry_to_the_next_power_of_ten():
    x = 9.9999999950000001e5
    values = [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf), 9.9999999949999e99,
              9.99999999500001e99, -9.9999999950001e-100]
    assert sci(values) == reference(values)
    assert sci([x])[0] == "1.00000000e+06"


def test_ties_round_half_to_even_through_the_fallback(monkeypatch):
    taken = []

    def exact(x):
        taken.extend(x.tolist())
        return fallback(x)

    fallback = cli._exact
    monkeypatch.setattr(cli, "_exact", exact)
    assert sci([1234567885.0, 1.5, 1234567895.0]) == [
        "1.23456788e+09", "1.50000000e+00", "1.23456790e+09"]
    assert taken == [1234567885.0, 1234567895.0]

