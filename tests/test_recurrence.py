import pytest

from computus import (
    correction_flags,
    epact,
    epact_by_recurrence,
    epact_sequence,
    jump,
    lunar_correction,
    lunar_sum,
    lunar_sum_alt,
    metonic_correction,
    solar_correction,
    solar_sum,
    verify_range,
)
from helpers import (
    brute_lunar_count,
    brute_solar_count,
    lunar_correction_years,
)


def test_metonic_correction():
    assert metonic_correction(1596) == 1
    assert metonic_correction(1597) == 0
    assert metonic_correction(1615) == 1
    assert metonic_correction(2033) == 1


def test_solar_correction():
    assert solar_correction(1700) == 1
    assert solar_correction(1900) == 1
    assert solar_correction(2000) == 0
    assert solar_correction(1950) == 0
    assert solar_correction(2400) == 0


def test_lunar_correction():
    assert lunar_correction(1800) == 1
    assert lunar_correction(2100) == 1
    assert lunar_correction(3900) == 1
    assert lunar_correction(4300) == 1
    assert lunar_correction(4200) == 0
    assert lunar_correction(1583) == 0


def test_lunar_correction_matches_gap_walk():
    expected = set(lunar_correction_years(40000))
    actual = {y for y in range(1583, 40001) if lunar_correction(y) == 1}
    assert actual == expected


def test_lunar_correction_spacing():
    years = [y for y in range(1583, 30001) if lunar_correction(y) == 1]
    gaps = [b - a for a, b in zip(years, years[1:])]
    for i, gap in enumerate(gaps):
        assert gap == (300 if i % 8 < 7 else 400)


def test_correction_flags():
    assert correction_flags(16400) == (0, 0, 1)
    assert correction_flags(106400) == (1, 0, 1)
    assert correction_flags(4200) == (0, 1, 0)
    assert correction_flags(1998) == (0, 0, 0)


def test_epact_by_recurrence_anchors():
    assert epact_by_recurrence(1582).value == 26
    assert epact_by_recurrence(1945).value == 16
    assert epact_by_recurrence(16399).value == 19
    assert epact_by_recurrence(16400).value == 1


def test_epact_by_recurrence_range():
    with pytest.raises(ValueError):
        epact_by_recurrence(1581)
    with pytest.raises(ValueError):
        epact_by_recurrence(10_000_001)


def test_epact_sequence_matches_point_queries():
    values = dict(epact_sequence(1582, 1700))
    assert values[1582] == 26
    assert values[1583] == epact_by_recurrence(1583).value
    assert values[1700] == epact_by_recurrence(1700).value


def test_recurrence_agrees_with_closed_form():
    for year, value in epact_sequence(1583, 3500):
        assert value == epact(year).value, year


def test_solar_sum():
    assert solar_sum(1699) == 0
    assert solar_sum(1700) == 1
    assert solar_sum(2100) == 4


def test_lunar_sum():
    assert lunar_sum(1799) == 0
    assert lunar_sum(1800) == 1
    assert lunar_sum(4300) == 9


def test_sums_match_brute_force():
    for year in range(1583, 6001):
        assert solar_sum(year) == brute_solar_count(year), year
        assert lunar_sum(year) == brute_lunar_count(year), year


def test_lunar_sum_alt():
    assert lunar_sum_alt(1800) == 1
    assert lunar_sum_alt(1583) == 0  # century 16, the zero-correction anchor
    assert lunar_sum_alt(1650) == 0
    assert lunar_sum_alt(106400) == lunar_sum(106400)


def test_lunar_sum_alt_agrees_everywhere():
    # the two century forms have breakpoints every 25 centuries; cover a
    # few full cycles year by year and then every century far out
    for year in range(1583, 12000):
        assert lunar_sum_alt(year) == lunar_sum(year), year
    for century_year in range(12000, 10_000_001, 100):
        assert lunar_sum_alt(century_year) == lunar_sum(century_year), century_year


def test_jump_values():
    assert jump(16400) == 1
    assert jump(106400) == 2
    assert jump(4200) == -1
    assert jump(1998) == 0
    assert jump(1583) == 0  # anchored on the 1582 epact


def test_jump_decomposition():
    for year in range(1584, 6001):
        m, s, lun = correction_flags(year)
        assert jump(year) == m - s + lun, year


def test_jump_range_is_minus_one_to_two():
    values = {jump(y) for y in range(1584, 25001)}
    assert values <= {-1, 0, 1, 2}


class _Index:
    """An integer-like value that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "function",
    [
        jump,
        epact_by_recurrence,
        correction_flags,
        metonic_correction,
        solar_correction,
        lunar_correction,
        solar_sum,
        lunar_sum,
        lunar_sum_alt,
    ],
)
def test_index_years_are_used_as_ints(function):
    assert function(_Index(16400)) == function(16400)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda start, end: list(epact_sequence(start, end)), id="epact_sequence"),
        pytest.param(verify_range, id="verify_range"),
    ],
)
@pytest.mark.parametrize("start, end", [(1600.5, 1602), (1600, 1602.0), (True, 1602), (1600, True)])
def test_range_bounds_must_be_integers(call, start, end):
    with pytest.raises(TypeError):
        call(start, end)


@pytest.mark.parametrize(
    "start, end, error",
    [(1582, 1582.0, TypeError), (2000, 1999, ValueError), (1581, 1600, ValueError)],
)
def test_epact_sequence_checks_bounds_when_called(start, end, error):
    # A generator function would check only at the first next().
    with pytest.raises(error):
        epact_sequence(start, end)
