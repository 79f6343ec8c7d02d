import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from computus import (
    CalendarDate,
    Epact,
    LunationBranch,
    MoonAgeMode,
    age_in_mode,
    century_number,
    corrected_age,
    day_number,
    day_of_week,
    easter_date,
    epact,
    epact_label,
    golden_number,
    is_leap_year,
    lunation_branch,
    lunation_value,
    moon_age,
    new_moon_dates,
    transition_table,
    year_ages,
    year_table,
)
from computus import core


def test_golden_number():
    assert golden_number(1945) == 8
    assert golden_number(1582) == 6
    assert golden_number(2033) == 1
    assert golden_number(1583) == 7


def test_century_number():
    assert century_number(1582) == 16
    assert century_number(2033) == 21
    assert century_number(1700) == 18
    assert century_number(1699) == 17


def test_year_range_rejected():
    with pytest.raises(ValueError):
        golden_number(1581)
    with pytest.raises(ValueError):
        epact(1582)
    with pytest.raises(ValueError):
        epact(4_000_001)
    with pytest.raises(ValueError):
        moon_age(1500, 3, 1)


def test_epact_values():
    assert epact(1945).value == 16
    assert epact(1968).value == 0
    assert epact(2033).value == 29
    e = epact(1973)
    assert e.value == 25 and e.special25


def test_special25_requires_high_golden():
    # golden 17 in 1973 makes the 25 special; a 25 with golden below 12
    # stays the plain xxv
    assert epact(1973).special25
    assert not Epact(25, False).special25
    with pytest.raises(ValueError):
        Epact(16, True)
    with pytest.raises(ValueError):
        Epact(30)


def test_epact_labels():
    assert epact(1945).label == "xvj"
    assert epact(1968).label == "*"
    assert epact(1973).label == "25"
    assert epact_label(25, False) == "xxv"
    assert epact_label(1) == "j"
    assert epact_label(4) == "iv"
    assert epact_label(9) == "ix"
    assert epact_label(19) == "xix"
    assert epact_label(24) == "xxiv"
    assert epact_label(20) == "xx"
    with pytest.raises(ValueError):
        epact_label(30)


def test_epact_periodic_within_century():
    # same century and 19 years apart means the same epact
    for year in (1601, 1650, 1901, 1910, 2001, 2060, 250003):
        assert year // 100 == (year + 19) // 100
        assert epact(year) == epact(year + 19)


def test_day_number_anchors():
    assert day_number(1, 1) == 0
    assert day_number(12, 31) == 364
    assert day_number(2, 29) == 58
    assert day_number(2, 28) == 58
    assert day_number(3, 1) == 59


def test_day_number_matches_cumulative_month_lengths():
    lengths = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    n = 0
    for month, length in enumerate(lengths, start=1):
        for day in range(1, length + 1):
            assert day_number(month, day) == n
            n += 1
    assert n == 365


def test_day_number_bijection():
    lengths = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    seen = {
        day_number(m, d)
        for m, length in enumerate(lengths, start=1)
        for d in range(1, length + 1)
    }
    assert seen == set(range(365))


def test_day_number_rejects_invalid_dates():
    for month, day in ((0, 1), (13, 1), (4, 31), (2, 30), (1, 0), (6, 32)):
        with pytest.raises(ValueError):
            day_number(month, day)


def test_lunation_value_anchors():
    assert lunation_value(0) == 1
    assert lunation_value(30) == 1
    assert lunation_value(29) == 30
    assert lunation_value(58) == 29
    assert lunation_value(59) == 1
    with pytest.raises(ValueError):
        lunation_value(-1)


def test_lunation_period_structure():
    # one period is the ages 1..30 followed by 1..29
    period = [lunation_value(x) for x in range(59)]
    assert period == list(range(1, 31)) + list(range(1, 30))


def test_lunation_periodicity():
    for x in range(0, 1_000_001):
        assert lunation_value(x) == lunation_value(x + 59)


def test_lunation_branch():
    assert lunation_branch(16, 8) is LunationBranch.SHORT_FIRST
    assert lunation_branch(25, 12) is LunationBranch.SHORT_FIRST
    assert lunation_branch(25, 11) is LunationBranch.LONG_FIRST
    assert lunation_branch(24, 1) is LunationBranch.SHORT_FIRST
    assert lunation_branch(26, 19) is LunationBranch.LONG_FIRST


def test_moon_age_point_values():
    assert moon_age(1945, 8, 15) == 7
    assert moon_age(1945, 7, 15) == 5
    assert moon_age(1945, 7, 11) == 1
    assert moon_age(2032, 12, 4) == 1
    assert moon_age(2033, 1, 1) == 30


def test_moon_age_january_first_is_epact_plus_one():
    for year in range(1583, 1583 + 300):
        assert moon_age(year, 1, 1) == epact(year).value + 1


def test_moon_age_range():
    for year in (1583, 1700, 1973, 2024, 8511, 16400):
        for month in range(1, 13):
            assert 1 <= moon_age(year, month, 1) <= 30
            assert 1 <= moon_age(year, month, 28) <= 30


def test_moon_age_leap_day():
    assert is_leap_year(2024) and not is_leap_year(1900) and is_leap_year(2000)
    assert moon_age(2024, 2, 29) == moon_age(2024, 2, 28)
    with pytest.raises(ValueError):
        moon_age(2023, 2, 29)
    with pytest.raises(ValueError):
        moon_age(1900, 2, 29)
    assert moon_age(2000, 2, 29) == moon_age(2000, 2, 28)


def test_leap_day_of_a_common_year_near_the_ceiling():
    # 3,999,999 is a common year: each dated entry point refuses its Feb 29
    for function in (moon_age, age_in_mode, day_of_week):
        with pytest.raises(ValueError, match="February 29 does not exist in 3999999"):
            function(3_999_999, 2, 29)


def test_calendar_date_tuple_behaviour():
    d = CalendarDate(4, 23)
    assert d.month == 4 and d.day == 23
    assert d == (4, 23)
    assert CalendarDate(3, 22) < CalendarDate(4, 1)


def test_operations_at_year_ceiling():
    assert 0 <= epact(4_000_000).value <= 29
    assert 1 <= moon_age(4_000_000, 6, 1) <= 30
    with pytest.raises(ValueError):
        epact(4_000_001)


class _Index:
    """An integer-like value that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_non_integers_rejected():
    with pytest.raises(TypeError):
        moon_age(1945.5, 8, 15)
    with pytest.raises(TypeError):
        moon_age(1945.0, 8, 15)
    with pytest.raises(TypeError):
        epact(1945.0)
    with pytest.raises(TypeError):
        easter_date(2000.7)
    with pytest.raises(TypeError):
        moon_age(1945, 8.0, 15)
    # bool is an int subclass, but True is no month.
    with pytest.raises(TypeError):
        moon_age(1945, True, 15)
    with pytest.raises(TypeError):
        day_number(1, False)


def test_is_leap_year_takes_integers_only():
    # Any integer has a Gregorian answer, so no range is checked.
    for year in (True, 1.0, 2033.5, float("nan")):
        with pytest.raises(TypeError):
            is_leap_year(year)
    assert is_leap_year(_Index(2000)) and not is_leap_year(_Index(1900))
    assert is_leap_year(-4) and is_leap_year(10**30)


def test_float_call_leaves_int_results():
    with pytest.raises(TypeError):
        moon_age(1945.0, 8, 15)
    age = moon_age(1945, 8, 15)
    assert age == 7 and type(age) is int
    assert all(type(a) is int for a in year_ages(1945))


def test_index_types_accepted_as_plain_ints():
    age = moon_age(_Index(1945), _Index(8), _Index(15))
    assert age == 7 and type(age) is int
    assert epact(_Index(1945)) == Epact(16)
    assert golden_number(_Index(1945)) == 8
    assert easter_date(_Index(2000)) == (4, 23)
    assert corrected_age(_Index(4200), 1, _Index(30)) == 31
    ages = year_ages(_Index(4200), MoonAgeMode.CORRECTED)
    assert ages == year_ages(4200, MoonAgeMode.CORRECTED)
    assert all(type(a) is int for a in ages)
    assert type(year_table(_Index(2033)).year) is int
    assert type(transition_table(_Index(2033)).year) is int
    assert new_moon_dates(_Index(2033)) == new_moon_dates(2033)


@pytest.mark.parametrize(
    "function, args, error, message",
    [
        (lunation_value, (1.5,), TypeError, "integer"),
        (lunation_value, (True,), TypeError, "integer"),
        (lunation_branch, (25.0, 12), TypeError, "integer"),
        (lunation_branch, (25, 12.0), TypeError, "integer"),
        (lunation_branch, (False, 12), TypeError, "integer"),
        (lunation_branch, (40, 12), ValueError, "epact value 40 not in 0..29"),
        (lunation_branch, (-1, 12), ValueError, "epact value -1 not in 0..29"),
        (lunation_branch, (16, 99), ValueError, "golden number 99 not in 1..19"),
        (lunation_branch, (16, 0), ValueError, "golden number 0 not in 1..19"),
        (Epact, (3.5,), TypeError, "integer"),
        (Epact, (True,), TypeError, "integer"),
        (epact_label, (3.0,), TypeError, "integer"),
        (epact_label, (True,), TypeError, "integer"),
    ],
)
def test_kernel_inputs_checked(function, args, error, message):
    with pytest.raises(error, match=message):
        function(*args)


@pytest.mark.parametrize("flag", ["no", "", 1, 0, None, 25.0])
def test_special25_must_be_a_bool(flag):
    # A truthy string used to build an Epact unequal to Epact(25, True) that
    # still labelled as "25"; a falsy one passed as plain xxv.
    with pytest.raises(TypeError, match="special25 must be a bool"):
        Epact(25, flag)
    with pytest.raises(TypeError, match="special25 must be a bool"):
        epact_label(25, flag)


def test_kernel_index_inputs_are_plain_ints():
    assert lunation_value(_Index(30)) == 1
    assert lunation_branch(_Index(25), _Index(12)) is LunationBranch.SHORT_FIRST
    assert epact_label(_Index(16)) == "xvj"
    e = Epact(_Index(25), True)
    assert e == Epact(25, True) and type(e.value) is int


def test_epact_memo_is_transparent_and_bounded():
    # Four threads share the memo and switch often; each asks for its years
    # twice, interleaved with the others' years, so hits, misses and evictions
    # race.  Every answer must be the closed form itself, and the memo's size
    # is a small constant however many years are asked for.
    fresh = core._epact_value.__wrapped__

    def wrong(k):
        years = range(1582 + k, 10_000_001, 1_009)
        return [y for y in years for _ in (0, 1) if core._epact_value(y) != fresh(y)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(wrong, range(4), timeout=120)) == [[]] * 4
    finally:
        sys.setswitchinterval(interval)
    assert core._epact_value.cache_info().maxsize <= 64
