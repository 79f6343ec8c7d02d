import datetime
import json
import random

import pytest

from computus import (
    CalendarDate,
    Epact,
    LetterMap,
    MoonAgeMode,
    Weekday,
    age_in_mode,
    corrected_age,
    day_of_week,
    easter_date,
    epact,
    golden_number,
    jump,
    load_letter_map,
    martyrology_letter,
    moon_age,
    new_moon_dates,
    pronounced_age,
    transition_table,
    year_ages,
    year_table,
)
from helpers import TRANSITION_ROWS, classical_easter


def test_pronounced_age_point_values():
    assert pronounced_age(2033, 1, 1) == 29
    assert pronounced_age(2033, 1, 2) == 1
    assert pronounced_age(2033, 2, 1) == moon_age(2033, 2, 1)
    assert pronounced_age(8512, 1, 1) == 1


def test_pronounced_identity_outside_golden_one_years():
    # untouched whenever the golden number is not 1 or the epact is 0
    for year in (1584, 1700, 1968, 2024, 4200):
        assert golden_number(year) != 1 or epact(year).value == 0
        assert year_ages(year, MoonAgeMode.PRONOUNCED) == year_ages(year)


def test_pronounced_zero_epact_year_needs_no_shift():
    # golden 1 with epact 0: January already starts at age 1
    years = [
        y
        for y in range(1583, 25001)
        if golden_number(y) == 1 and epact(y).value == 0
    ]
    assert years, "expected at least one such year in range"
    for year in years[:3]:
        assert year_ages(year, MoonAgeMode.PRONOUNCED) == year_ages(year)


def test_corrected_age_point_values():
    assert corrected_age(16400, 1, 1) == 1
    assert corrected_age(106400, 1, 1) == 30
    assert corrected_age(4200, 1, 30) == 31
    assert corrected_age(2033, 1, 1) == 29


def test_corrected_equals_pronounced_in_plain_metonic_years():
    # when golden is 1, the epact positive and the jump exactly 1, the two
    # treatments coincide on every day of the year
    years = [
        y
        for y in range(1584, 25001)
        if golden_number(y) == 1 and epact(y).value > 0 and jump(y) == 1
    ]
    assert years
    for year in years[:5] + years[-2:]:
        assert year_ages(year, MoonAgeMode.CORRECTED) == year_ages(
            year, MoonAgeMode.PRONOUNCED
        )


def test_correction_touches_january_only():
    for year in (2033, 4200, 16400, 106400, 15200):
        raw = year_ages(year)
        corrected = year_ages(year, MoonAgeMode.CORRECTED)
        assert raw[31:] == corrected[31:]
        for month in (2, 3, 7, 12):
            assert corrected_age(year, month, 15) == moon_age(year, month, 15)


def test_age_31_only_in_jump_minus_one_januaries():
    for year in range(1584, 10001):
        table = year_ages(year, MoonAgeMode.CORRECTED)
        if 31 in table:
            assert jump(year) == -1
            e = epact(year).value
            assert all(
                n <= 29 - e for n, age in enumerate(table) if age == 31
            )


def test_age_in_mode_dispatch():
    assert age_in_mode(2033, 1, 1) == moon_age(2033, 1, 1)
    assert age_in_mode(2033, 1, 1, MoonAgeMode.PRONOUNCED) == 29
    assert age_in_mode(4200, 1, 30, MoonAgeMode.CORRECTED) == 31


@pytest.mark.parametrize("mode", ["pronounced", None])
@pytest.mark.parametrize(
    "function, args",
    [
        pytest.param(function, args, id=function.__name__)
        for function, args in (
            (age_in_mode, (2033, 1, 1)),
            (year_ages, (4200,)),
            (year_table, (2033,)),
            (transition_table, (2033,)),
            (new_moon_dates, (2033,)),
            (easter_date, (2033,)),
        )
    ],
)
def test_mode_must_be_a_member(function, args, mode):
    # Any other value used to be read as raw, whatever it said.
    with pytest.raises(TypeError, match="MoonAgeMode"):
        function(*args, mode)


def test_year_ages_match_per_date_functions():
    lengths = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    for year in (1583, 1945, 1973, 2033, 4200, 8512, 16400):
        for mode, func in (
            (MoonAgeMode.RAW, moon_age),
            (MoonAgeMode.PRONOUNCED, pronounced_age),
            (MoonAgeMode.CORRECTED, corrected_age),
        ):
            ages = year_ages(year, mode)
            n = 0
            for month, length in enumerate(lengths, start=1):
                for day in range(1, length + 1):
                    assert ages[n] == func(year, month, day), (year, mode, month, day)
                    n += 1


def test_year_table_structure():
    table = year_table(2033)
    assert len(table.entries) == 365
    assert table.entries[0] == (1, 1, 30, False, False)
    assert table.entries[-1].month == 12 and table.entries[-1].day == 31
    months = [e.month for e in table.entries]
    assert months == sorted(months)
    for e in table.entries:
        assert e.is_new_moon == (e.age == 1)
        assert e.is_full_moon == (e.age == 14)


def test_year_table_point_values():
    assert [e.age for e in year_table(2033).entries[:3]] == [30, 1, 2]
    assert year_table(1968).entries[0].age == 1
    moons_1945 = year_table(1945).new_moons()
    for date in ((5, 13), (6, 11), (7, 11)):
        assert date in moons_1945


def test_new_moon_dates():
    nm = new_moon_dates(1945)
    assert nm == sorted(nm)
    assert CalendarDate(5, 13) in nm
    assert CalendarDate(1, 2) in new_moon_dates(2033)
    assert CalendarDate(1, 1) in new_moon_dates(8512, MoonAgeMode.PRONOUNCED)


def test_new_moon_counts():
    for year in list(range(1583, 3001)) + [4200, 8512, 15200, 16400, 106400]:
        for mode in MoonAgeMode:
            assert len(new_moon_dates(year, mode)) in (12, 13), (year, mode)


def test_new_moon_counts_raw_full_range():
    for year in range(1583, 25_001):
        assert year_ages(year).count(1) in (12, 13), year


def test_transition_rows_match_fixtures():
    for (year, mode), (dec_row, jan_row) in TRANSITION_ROWS.items():
        table = transition_table(year, MoonAgeMode(mode))
        assert [a for _, a in table.december] == dec_row, (year, mode)
        assert [a for _, a in table.january] == jan_row, (year, mode)
        assert [d for d, _ in table.december] == list(range(1, 32))
        assert [d for d, _ in table.january] == list(range(1, 32))


def test_transition_december_is_always_raw():
    for mode in MoonAgeMode:
        table = transition_table(16400, mode)
        assert [a for _, a in table.december] == year_ages(16399)[334:]


def test_transition_window_is_december_and_january():
    # The window read from the year tables' own dates, with no day offsets.
    def days(table, month):
        return tuple((e.day, e.age) for e in table.entries if e.month == month)

    for year in range(1584, 2001):
        december = days(year_table(year - 1), 12)
        for mode in MoonAgeMode:
            table = transition_table(year, mode)
            assert table.december == december, (year, mode)
            assert table.january == days(year_table(year, mode), 1), (year, mode)


def test_transition_rejects_first_supported_year():
    message = "year 1583 not in supported range 1584..4000000"
    with pytest.raises(ValueError) as excinfo:
        transition_table(1583)
    assert str(excinfo.value) == message
    transition_table(1584)


def test_no_double_new_moon_from_combined_fixes():
    # the pronounced January restores the new moon on Jan 1; December 31
    # must keep age 30, not gain a second new moon
    table = transition_table(8512, MoonAgeMode.PRONOUNCED)
    assert table.december[-1].age == 30
    assert table.january[0].age == 1


def test_martyrology_letter_anchors():
    assert martyrology_letter(Epact(1)).symbol == "a"
    assert martyrology_letter(epact(1945)) == ("r", False)
    assert martyrology_letter(Epact(25, True)) == ("F", True)
    assert martyrology_letter(Epact(25, False)) == ("F", False)
    assert martyrology_letter(Epact(0)).symbol == "*"


def test_letter_map_is_complete():
    letters = load_letter_map()
    assert len(letters.symbols) == 30
    assert len(set(letters.symbols[1:])) == 29  # distinct glyphs for 1..29


def test_default_letters_pinned():
    glyphs = "*abcdefghiklmnpqrstuABCDEFGHIK"
    assert [martyrology_letter(Epact(v)).symbol for v in range(30)] == list(glyphs)
    assert martyrology_letter(Epact(25, True)) == ("F", True)
    assert load_letter_map() == LetterMap(tuple(glyphs), "F")


def test_custom_letter_map(tmp_path):
    data = {
        "epacts": {str(v): f"s{v}" for v in range(30)},
        "special_25": "Z",
    }
    path = tmp_path / "letters.json"
    path.write_text(json.dumps(data))
    letters = load_letter_map(path)
    assert martyrology_letter(Epact(16), letters).symbol == "s16"
    assert martyrology_letter(Epact(25, True), letters) == ("Z", True)


def test_incomplete_letter_map_rejected(tmp_path):
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({"epacts": {"0": "*"}, "special_25": "F"}))
    with pytest.raises(ValueError):
        load_letter_map(path)


def test_day_of_week_known_dates():
    assert day_of_week(2000, 1, 1) is Weekday.SATURDAY
    assert day_of_week(1900, 1, 1) is Weekday.MONDAY


def test_day_of_week_against_datetime():
    rng = random.Random(20330417)
    for _ in range(400):
        ordinal = rng.randint(
            datetime.date(1583, 1, 1).toordinal(),
            datetime.date(9999, 12, 31).toordinal(),
        )
        d = datetime.date.fromordinal(ordinal)
        expected = (d.weekday() + 1) % 7  # datetime Monday=0, here Sunday=0
        assert day_of_week(d.year, d.month, d.day) == expected, d


def test_day_of_week_400_year_period():
    for year, month, day in ((2000, 1, 1), (9999, 12, 31), (16400, 1, 1), (106400, 7, 4)):
        assert day_of_week(year, month, day) == day_of_week(year + 400, month, day)


def test_easter_point_values():
    assert easter_date(2000) == (4, 23)
    assert easter_date(1943) == (4, 25)
    assert easter_date(2033) == (4, 17)


def test_easter_against_classical_oracle_sample():
    for year in range(1583, 1800):
        assert tuple(easter_date(year)) == classical_easter(year), year
    for year in (2024, 2038, 4200, 8512, 16400):
        assert tuple(easter_date(year)) == classical_easter(year), year


def test_easter_mode_agnostic():
    for year in (1583, 1943, 2033, 4200, 15200, 16400, 106400):
        raw = easter_date(year, MoonAgeMode.RAW)
        assert easter_date(year, MoonAgeMode.CORRECTED) == raw
        assert easter_date(year, MoonAgeMode.PRONOUNCED) == raw


def test_easter_window_sample():
    for year in range(1900, 2101):
        month, day = easter_date(year)
        assert (3, 22) <= (month, day) <= (4, 25)


def test_year_table_as_dict_schema():
    payload = year_table(2033).as_dict()
    assert payload["year"] == 2033
    assert payload["mode"] == "raw"
    assert len(payload["entries"]) == 365
    first = payload["entries"][0]
    assert first == {"month": 1, "day": 1, "age": 30, "new_moon": False, "full_moon": False}


def test_transition_as_dict_schema():
    payload = transition_table(4200, MoonAgeMode.CORRECTED).as_dict()
    assert payload["year"] == 4200
    assert payload["mode"] == "corrected"
    assert payload["december"][0] == {"day": 1, "age": 1}
    assert payload["january"][29] == {"day": 30, "age": 31}


@pytest.mark.parametrize(
    "symbols, special25, message",
    [
        (("a",), "F", "tuple of 30 epact glyphs"),
        (list("*abcdefghiklmnpqrstuABCDEFGHIK"), "F", "tuple of 30 epact glyphs"),
        (tuple("*abcdefghiklmnpqrstuABCDEFGHIK") + ("L",), "F", "tuple of 30 epact glyphs"),
        (tuple("*abcdefghiklmnpqrstuABCDEFGHI") + (None,), "F", "entry epacts 29 .* None"),
        (tuple("*abcdefghiklmnpqrstuABCDEFGHI") + ("",), "F", "entry epacts 29 .* ''"),
        (tuple("*abcdefghiklmnpqrstuABCDEFGHIK"), "", "entry special_25 .* ''"),
        (tuple("*abcdefghiklmnpqrstuABCDEFGHIK"), 7, "entry special_25 .* 7"),
    ],
    ids=["short", "list", "long", "glyph-none", "glyph-empty", "special-empty", "special-int"],
)
def test_letter_map_checks_itself(symbols, special25, message):
    # LetterMap(("a",), "F") used to be built, and a letter lookup for a
    # later epact then raised IndexError.
    with pytest.raises(ValueError, match=message):
        LetterMap(symbols, special25)


def test_load_letter_map_messages_unchanged(tmp_path):
    data = {"epacts": {str(v): "Z" for v in range(30) if v != 7}, "special_25": "Q"}
    path = tmp_path / "letters.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as error:
        load_letter_map(path)
    assert str(error.value) == "letter map entry epacts 7 must be a non-empty string, got None"


@pytest.mark.parametrize("e", [16, "xvj", None, (16, False)])
def test_martyrology_letter_needs_an_epact(e):
    with pytest.raises(TypeError, match="must be an Epact"):
        martyrology_letter(e)


@pytest.mark.parametrize("letters", [("a",) * 30, "abc"], ids=["tuple", "str"])
def test_martyrology_letter_needs_a_letter_map(letters):
    with pytest.raises(TypeError) as error:
        martyrology_letter(Epact(1), letters)
    assert str(error.value) == f"letters must be a LetterMap, not {type(letters).__name__}"
