"""The epact-class age kernel against the per-date functions and the
classical Easter oracle."""

from computus import (
    LunationBranch,
    MoonAgeMode,
    age_in_mode,
    corrected_age,
    day_number,
    easter_date,
    epact,
    is_leap_year,
    jump,
    lunation_branch,
    moon_age,
    pronounced_age,
    year_ages,
)
from computus.core import _class_ages
from helpers import classical_easter

MONTH_LENGTHS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
PER_DATE = (
    (MoonAgeMode.RAW, moon_age),
    (MoonAgeMode.PRONOUNCED, pronounced_age),
    (MoonAgeMode.CORRECTED, corrected_age),
)


def _kernel_years():
    """The first year of every epact class after 1583, plus hand-picked
    golden-number-1, jump, leap and ceiling years."""
    first_of_class = {}
    for year in range(1583, 2500):
        first_of_class.setdefault((epact(year).value, epact(year).special25), year)
    picked = [1805, 1900, 2000, 2024, 2033, 4200, 8512, 15200, 16400, 106400]
    picked += [3_999_999, 4_000_000]
    return sorted(set(first_of_class.values()) | set(picked))


def test_kernel_years_cover_every_class_and_jump():
    years = _kernel_years()
    assert len({(epact(y).value, epact(y).special25) for y in years}) == 31
    assert {jump(y) for y in years} == {-1, 0, 1, 2}
    assert any(y % 19 == 0 and epact(y).value > 0 for y in years)  # pronounced shift
    assert any(y % 19 == 0 and epact(y).value == 0 for y in years)  # golden 1, no shift
    assert any(is_leap_year(y) for y in years)


def test_per_date_functions_equal_year_ages():
    for year in _kernel_years():
        for mode, func in PER_DATE:
            ages = year_ages(year, mode)
            for month, length in enumerate(MONTH_LENGTHS, start=1):
                for day in range(1, length + 1):
                    if month == 2 and day == 29 and not is_leap_year(year):
                        continue
                    expected = ages[day_number(month, day)]
                    assert func(year, month, day) == expected, (year, mode, month, day)
                    assert age_in_mode(year, month, day, mode) == expected


def test_easter_matches_classical_oracle_low_and_deep():
    for years in (range(1583, 20_001), range(3_990_000, 4_000_001)):
        for year in years:
            assert tuple(easter_date(year)) == classical_easter(year), year


def test_year_ages_returns_a_fresh_list():
    for mode, _ in PER_DATE:
        ages = year_ages(4200, mode)
        assert type(ages) is list
        expected = list(ages)
        ages[0] = 99
        ages.append(0)
        assert year_ages(4200, mode) == expected


def test_kernel_cache_is_keyed_by_class_not_year():
    for year in range(1583, 20_001):
        for mode, _ in PER_DATE:
            year_ages(year, mode)
    # 31 epact classes times January shifts -1..2 at most; a year in the key
    # would leave tens of thousands of tables here.
    assert 31 <= _class_ages.cache_info().currsize <= 124


def test_class_tables_follow_lunation_branch():
    # The lunation after the first January one starts on day 30 - e; it is
    # the 29-day one exactly when the branch is SHORT_FIRST.
    for e, special25 in [(e, False) for e in range(30)] + [(25, True)]:
        golden = 12 if special25 else 11 if e == 25 else 1
        ages = _class_ages(e, special25, 0)
        start = 30 - e
        assert ages[start] == 1, (e, special25)
        short = lunation_branch(e, golden) is LunationBranch.SHORT_FIRST
        assert ages.index(1, start + 1) - start == (29 if short else 30), (e, special25)
