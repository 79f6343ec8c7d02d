"""Year-level lunar products.

Pronounced and fully corrected moon ages, day-by-day tables with new-moon
and full-moon flags, December/January transition tables, new-moon date
lists, Martyrology letters, and the date of Easter.
"""

from __future__ import annotations

import collections
import enum
import os

from . import core
from .core import _TABLE_DATES, CalendarDate, Epact, _check_date, _check_year, age_in_mode
from .core import _CORRECTED, _PRONOUNCED, MoonAgeMode, _ages, _Record, _weekday

# MoonAgeMode and age_in_mode are core's; they stay readable here.
__all__ = [
    "CSV_HEADER",
    "DayAge",
    "DayEntry",
    "LetterMap",
    "MartyrologyLetter",
    "TransitionTable",
    "Weekday",
    "YearLunarTable",
    "corrected_age",
    "day_of_week",
    "easter_date",
    "load_letter_map",
    "martyrology_letter",
    "new_moon_dates",
    "pronounced_age",
    "transition_table",
    "year_ages",
    "year_table",
]


def pronounced_age(year: int, month: int, day: int) -> int:
    """Moon age as pronounced at the reading of the Martyrology.

    In years with golden number 1 and a positive epact, the age through the
    first January lunation is announced one day lower than the raw age,
    restoring the new moon lost when the Metonic correction lands.  On all
    other days this equals :func:`computus.core.moon_age`.
    """
    return age_in_mode(year, month, day, _PRONOUNCED)


def corrected_age(year: int, month: int, day: int) -> int:
    """Moon age with the year's full new-year jump removed, 1..31.

    Through the first January lunation the raw age is shifted down by the
    year's jump (wrapping back into range by adding 30), which keeps the
    day-over-day sequence continuous across every December 31 / January 1
    boundary.  Elsewhere this equals the raw age.  The value 31 appears
    only on January days of years whose jump is -1.
    """
    return age_in_mode(year, month, day, _CORRECTED)


def year_ages(year: int, mode: MoonAgeMode = MoonAgeMode.RAW) -> list[int]:
    """The year's 365 moon ages indexed by day number.

    A fresh copy of the table the per-date functions read, which every year
    of the same epact class and January shift shares.
    """
    return list(_ages(_check_year(year), mode))


DayEntry = collections.namedtuple("DayEntry", "month day age is_new_moon is_full_moon")
CSV_HEADER = ("month", "day", "age", "new_moon", "full_moon")


class YearLunarTable(_Record):
    """365 moon ages for one year, with the new moons (age 1) and
    ecclesiastical full moons (age 14) flagged."""

    __match_args__ = ("year", "mode", "entries")

    def __init__(self, year: int, mode: MoonAgeMode, entries: tuple[DayEntry, ...]) -> None:
        object.__setattr__(self, "year", year)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "entries", entries)

    def new_moons(self) -> list[CalendarDate]:
        return [CalendarDate(e.month, e.day) for e in self.entries if e.is_new_moon]

    def as_dict(self) -> dict:
        """JSON-ready form: {year, mode, entries: [{month, day, age,
        new_moon, full_moon}, ...]}."""
        return {
            "year": self.year,
            "mode": self.mode.value,
            "entries": [
                {
                    "month": e.month,
                    "day": e.day,
                    "age": e.age,
                    "new_moon": e.is_new_moon,
                    "full_moon": e.is_full_moon,
                }
                for e in self.entries
            ],
        }


def year_table(year: int, mode: MoonAgeMode = MoonAgeMode.RAW) -> YearLunarTable:
    """Build the day-by-day lunar table for a year."""
    year = _check_year(year)
    entries = tuple(
        DayEntry(month, day, age, age == 1, age == 14)
        for (month, day), age in zip(_TABLE_DATES, _ages(year, mode))
    )
    return YearLunarTable(year, mode, entries)


DayAge = collections.namedtuple("DayAge", "day age")
_Days = tuple[DayAge, ...]  # December or January, days 1..31


class TransitionTable(_Record):
    """December of the previous year laid next to January of the boundary
    year.

    December is always raw; only January is affected by the pronounced and
    corrected treatments.
    """

    __match_args__ = ("year", "mode", "december", "january")

    def __init__(self, year: int, mode: MoonAgeMode, december: _Days, january: _Days) -> None:
        object.__setattr__(self, "year", year)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "december", december)
        object.__setattr__(self, "january", january)

    def as_dict(self) -> dict:
        return {
            "year": self.year,
            "mode": self.mode.value,
            "december": [{"day": d, "age": a} for d, a in self.december],
            "january": [{"day": d, "age": a} for d, a in self.january],
        }


def transition_table(year: int, mode: MoonAgeMode = MoonAgeMode.RAW) -> TransitionTable:
    """The 31 + 31 day ages around the December 31 / January 1 boundary."""
    year, *window = core._boundary(year, mode)
    return TransitionTable(year, mode, *(tuple(map(DayAge, range(1, 32), a)) for a in window))


def new_moon_dates(year: int, mode: MoonAgeMode = MoonAgeMode.RAW) -> list[CalendarDate]:
    """All dates of the year whose age is 1, ascending; 12 or 13 of them."""
    ages = _ages(_check_year(year), mode)
    return [date for date, age in zip(_TABLE_DATES, ages) if age == 1]


MartyrologyLetter = collections.namedtuple("MartyrologyLetter", "symbol distinct_color")


class LetterMap(_Record):
    """A glyph for each epact value 0..29 plus the special-25 variant.

    Every glyph is a non-empty string; anything else raises ValueError.
    """

    __match_args__ = ("symbols", "special25")

    def __init__(self, symbols: tuple[str, ...], special25: str) -> None:
        if type(symbols) is not tuple or len(symbols) != 30:
            raise ValueError(f"letter map needs a tuple of 30 epact glyphs, got {symbols!r}")
        named = [(f"epacts {v}", g) for v, g in enumerate(symbols)]
        for name, g in named + [("special_25", special25)]:
            if not isinstance(g, str) or not g:
                raise ValueError(f"letter map entry {name} must be a non-empty string, got {g!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "special25", special25)


# Epacts 0..29, then the special 25.  The sources attest only a=1, r=16 and
# F=25; the glyphs for 0 and for 26..29 follow the conventional sequence and
# may be overridden with a custom file.
_LETTERS = LetterMap(tuple("*abcdefghiklmnpqrstuABCDEFGHIK"), "F")


def load_letter_map(path: str | os.PathLike[str] | None = None) -> LetterMap:
    """Read a letter mapping from a JSON file, or return the default.

    The file holds an ``epacts`` object keyed "0".."29" and a ``special_25``
    glyph, which :class:`LetterMap` checks.  An unreadable file or a
    malformed mapping raises ValueError.
    """
    if path is None:
        return _LETTERS
    import json  # only a custom letter file needs it, so most commands never load it
    try:
        with open(os.fspath(path), encoding="utf-8") as file:  # fspath: no descriptor numbers
            raw = json.load(file)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ValueError(f"cannot read letter map: {exc}") from None
    epacts = raw.get("epacts") if isinstance(raw, dict) else None
    if not isinstance(epacts, dict):
        raise ValueError("letter map must be an object holding an 'epacts' object")
    return LetterMap(tuple(epacts.get(str(v)) for v in range(30)), raw.get("special_25"))


def martyrology_letter(e: Epact, letters: LetterMap | None = None) -> MartyrologyLetter:
    """Glyph standing for the epact in Martyrology lunar tables.

    The special epact 25 shares its F with epact xxv; the distinct colour is
    the cue readers use to pick the right column, so it is reported as a
    flag here.
    """
    if not isinstance(e, Epact):
        raise TypeError(f"e must be an Epact, not {type(e).__name__}")
    if letters is None:
        letters = _LETTERS
    elif not isinstance(letters, LetterMap):
        raise TypeError(f"letters must be a LetterMap, not {type(letters).__name__}")
    if e.special25:
        return MartyrologyLetter(letters.special25, True)
    return MartyrologyLetter(letters.symbols[e.value], False)


Weekday = enum.IntEnum(
    "Weekday", "SUNDAY MONDAY TUESDAY WEDNESDAY THURSDAY FRIDAY SATURDAY", start=0
)


def day_of_week(year: int, month: int, day: int) -> Weekday:
    """Gregorian weekday by counting days.

    datetime.date stops at year 9999; the years handled here do not, so the
    weekday is computed directly.  The result repeats with the calendar's
    400-year period.
    """
    year = _check_year(year)
    return Weekday(_weekday(year, *_check_date(month, day, year)))


_MARCH_21 = core._day_number(3, 21)  # the earliest paschal full moon


def easter_date(year: int, mode: MoonAgeMode = MoonAgeMode.RAW) -> CalendarDate:
    """Easter Sunday: the Sunday strictly after the first 14th day of the
    moon falling on or after March 21.

    The full moon is looked up in the year's age table for the mode and the
    weekday of March 21 steps on to the Sunday.  The mode has no effect: it
    shifts only the first January lunation, days 0..29 - epact, so it
    cannot move the first 14th day on or after March 21.  The result always
    lies in March 22 .. April 25.
    """
    year = _check_year(year)
    full = _ages(year, mode).index(14, _MARCH_21)
    weekday = (_weekday(year, 3, 21) + full - _MARCH_21) % 7
    return _TABLE_DATES[full + 7 - weekday]
