"""Closed-form arithmetic for the ecclesiastical moon of the Gregorian calendar.

The age of the ecclesiastical moon on any date follows from three pieces of
integer arithmetic: the year's golden number and epact, a fixed day-of-year
numbering that ignores leap days, and a lunation cycle alternating 30- and
29-day months.  A year's 365 ages depend only on its epact class (the 30
epacts plus the special 25) and on a downward shift of its first January
lunation, so each (class, shift) table is built once, on first use, and
cached; there are at most 31 x 4 of them.  Everything in this module is a
pure function of its arguments, so all of it is safe to call concurrently.
"""

from __future__ import annotations

import collections
import enum
import functools
import operator

__all__ = [
    "ANCHOR_YEAR",
    "YEAR_MAX",
    "YEAR_MIN",
    "CalendarDate",
    "Epact",
    "LunationBranch",
    "MoonAgeMode",
    "age_in_mode",
    "century_number",
    "day_number",
    "epact",
    "epact_label",
    "golden_number",
    "is_leap_year",
    "lunation_branch",
    "lunation_value",
    "moon_age",
]

YEAR_MIN = 1583
YEAR_MAX = 4_000_000

# The reform year anchors the epact recurrence (epact 26).  It is accepted
# by golden_number and century_number only; every dated operation starts
# at YEAR_MIN.
ANCHOR_YEAR = 1582

# February has 28: day numbers and year tables skip Feb 29, valid in leap years.
_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def is_leap_year(year: int) -> bool:
    """True for Gregorian leap years (century years only when divisible by 400)."""
    if type(year) is not int:
        year = _as_int(year, "year")
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _as_int(value: int, name: str) -> int:
    # operator.index refuses floats; bool is an int subclass, refused here.
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    return operator.index(value)


def _check_year(year: int, minimum: int = YEAR_MIN, maximum: int = YEAR_MAX) -> int:
    # Returns the year as a plain int, for callers to use in its place.
    if type(year) is not int:
        year = _as_int(year, "year")
    if not minimum <= year <= maximum:
        raise ValueError(f"year {year} not in supported range {minimum}..{maximum}")
    return year


def _check_date(month: int, day: int, year: int | None = None) -> tuple[int, int]:
    # Returns month and day as plain ints, for callers to use in their place.
    if type(month) is not int or type(day) is not int:
        month, day = _as_int(month, "month"), _as_int(day, "day")
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} not in 1..12")
    if not 1 <= day <= _MONTH_LENGTHS[month - 1] + (month == 2):
        raise ValueError(f"day {day} invalid for month {month}")
    if year is not None and month == 2 and day == 29 and not is_leap_year(year):
        raise ValueError(f"February 29 does not exist in {year}")
    return month, day


CalendarDate = collections.namedtuple("CalendarDate", "month day")
CalendarDate.__doc__ = "A month and day within some Gregorian year."


# The 365 dates of a year table by day number, and each month's first one.
_TABLE_DATES = tuple(
    CalendarDate(month, day)
    for month, length in enumerate(_MONTH_LENGTHS, start=1)
    for day in range(1, length + 1)
)
_MONTH_STARTS = tuple(n for n, (_, day) in enumerate(_TABLE_DATES) if day == 1)


def _weekday(year: int, month: int, day: int) -> int:
    # Unchecked weekday, 0 for Sunday: days since Monday 1 January of year 1
    # mod 7 (a year is 52 weeks and a day); a leap day counts after February.
    y = year if month > 2 else year - 1
    return (year - 1 + y // 4 - y // 100 + y // 400 + _MONTH_STARTS[month - 1] + day) % 7


def golden_number(year: int) -> int:
    """Position of the year in the 19-year Metonic cycle, 1..19."""
    return _check_year(year, ANCHOR_YEAR) % 19 + 1


def century_number(year: int) -> int:
    """Century count starting from 1; the 1500s are century 16."""
    return _check_year(year, ANCHOR_YEAR) // 100 + 1


def _check_range(value: int, name: str, low: int, high: int) -> int:
    # Returns the value as a plain int, for callers to use in its place.
    if type(value) is not int:
        value = _as_int(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} {value} not in {low}..{high}")
    return value


_ROMAN_ONES = ("", "j", "ij", "iij", "iv", "v", "vj", "vij", "viij", "ix")


class _Record:
    # @dataclass(frozen=True) without loading dataclasses.  Each __init__ sets the
    # fields of __match_args__ in order with object.__setattr__, as the dataclass
    # did (filling vars(self) builds a dict per instance); ==, hash, repr read them.

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Epact(_Record):
    """Age of the ecclesiastical moon on January 1, minus one.

    ``special25`` marks the Arabic-numeral epact 25 used when the golden
    number is 12 or more; it places the year's new moons one day apart from
    the Roman-numeral xxv.
    """

    __match_args__ = ("value", "special25")

    def __init__(self, value: int, special25: bool = False) -> None:
        if type(value) is not int or not 0 <= value <= 29:
            value = _check_range(value, "epact value", 0, 29)
        if type(special25) is not bool:
            raise TypeError(f"special25 must be a bool, not {type(special25).__name__}")
        if special25 and value != 25:
            raise ValueError("special25 applies only to epact 25")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "special25", special25)

    @property
    def label(self) -> str:
        """Liturgical rendering: 0 is "*", the special epact 25 is Arabic
        "25", and everything else a lowercase Roman numeral with a final i
        printed as j (so 16 is "xvj", not "xvi")."""
        if self.value == 0:
            return "*"
        if self.special25:
            return "25"
        return "x" * (self.value // 10) + _ROMAN_ONES[self.value % 10]


def epact_label(value: int, special25: bool = False) -> str:
    """The label of ``Epact(value, special25)``, which checks both."""
    return Epact(value, special25).label


def _epact_value(year: int) -> int:
    # No range check: the 1582 anchor and the verify sweeps need this raw.
    g = year % 19 + 1
    c = year // 100 + 1
    return (11 * g - 3 * c // 4 + (8 * c + 5) // 25 + 27) % 30


def _special25(e: int, golden: int) -> bool:
    # The Arabic 25, read in place of xxv when the golden number is 12 or more.
    return e == 25 and golden >= 12


def epact(year: int) -> Epact:
    """Epact of the year by the closed form, with the special-25 flag set."""
    year = _check_year(year)
    value = _epact_value(year)
    return Epact(value, _special25(value, year % 19 + 1))


def day_number(month: int, day: int) -> int:
    """Leap-blind ordinal of a date: 0 for Jan 1 through 364 for Dec 31.

    February 29 shares February 28's number, so the numbering is identical
    in common and leap years.
    """
    return _day_number(*_check_date(month, day))


def _day_number(month: int, day: int) -> int:
    return _MONTH_STARTS[month - 1] + day - 1 - (month == 2 and day == 29)


def lunation_value(x: int) -> int:
    """Moon age at offset ``x`` of the alternating lunation cycle.

    Periodic with period 59: within one period the ages run 1..30 and then
    1..29.
    """
    if type(x) is not int:
        x = _as_int(x, "lunation offset")
    if x < 0:
        raise ValueError("lunation offset must be non-negative")
    return (x + x // 59) % 30 + 1


def _long_first(e: int, special25: bool) -> bool:
    # The lunation-branch rule: xxv and above, except the special 25.
    return e >= 25 and not special25


class LunationBranch(enum.Enum):
    """Which of the two alternating lunation sequences a year follows."""

    SHORT_FIRST = "short-first"
    LONG_FIRST = "long-first"


def lunation_branch(epact_value: int, golden: int) -> LunationBranch:
    """SHORT_FIRST for epacts below 25 and for the special 25; LONG_FIRST
    for xxv and above.  The year's class table follows it."""
    epact_value = _check_range(epact_value, "epact value", 0, 29)
    golden = _check_range(golden, "golden number", 1, 19)
    long_first = _long_first(epact_value, _special25(epact_value, golden))
    return LunationBranch.LONG_FIRST if long_first else LunationBranch.SHORT_FIRST


@functools.lru_cache(maxsize=None)
def _class_ages(e: int, special25: bool, shift: int) -> tuple[int, ...]:
    # Keyed by epact class (value, special-25 flag) and January shift, never
    # by year: at most 31 x 4 tables.  The first January lunation, days
    # 0..29-e, runs e+1..30 in both lunation branches; after it LONG_FIRST
    # reads the 59-day lunation cycle 29 days further on than SHORT_FIRST.
    offset = e + 29 if _long_first(e, special25) else e
    ages = (e + n + 1 - shift if n + e < 30 else lunation_value(offset + n) for n in range(365))
    return tuple(age + 30 if age <= 0 else age for age in ages)


class MoonAgeMode(enum.Enum):
    """How January of a correction year is treated."""

    RAW = "raw"
    PRONOUNCED = "pronounced"
    CORRECTED = "corrected"


# Looking up an enum member is slow before Python 3.12; the per-date paths
# compare against these instead.
_RAW, _PRONOUNCED, _CORRECTED = MoonAgeMode


def _jump(year: int, e: int) -> int:
    # e is the year's own epact.  Unchecked: recurrence.jump checks the year.
    return (e - _epact_value(year - 1)) % 30 - 11


def _ages(year: int, mode: MoonAgeMode = _RAW) -> tuple[int, ...]:
    # The 365 ages of a checked year by day number.  The modes differ only
    # in how far the first January lunation is shifted down: by the jump
    # when corrected, by one when pronounced in a golden-number-1 year with
    # a positive epact.  Callers share the tuple and never hand it out.
    e = _epact_value(year)
    if mode is _RAW:
        shift = 0
    elif mode is _CORRECTED:
        shift = _jump(year, e)
    elif mode is _PRONOUNCED:
        shift = 1 if year % 19 == 0 and e > 0 else 0
    else:
        raise TypeError(f"mode must be a MoonAgeMode, got {mode!r}")
    return _class_ages(e, _special25(e, year % 19 + 1), shift)


def _window(before: tuple[int, ...], ages: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # December of one year's ages and January of the next's, 31 days each.
    return before[_MONTH_STARTS[11]:], ages[:_MONTH_LENGTHS[0]]


def _boundary(year: int, mode: MoonAgeMode) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    # The year as a plain int (YEAR_MIN has no December before it), then the window.
    year = _check_year(year, YEAR_MIN + 1)
    return year, *_window(_ages(year - 1), _ages(year, mode))


def age_in_mode(year: int, month: int, day: int, mode: MoonAgeMode = _RAW) -> int:
    """The raw, pronounced, or corrected age, read from the year's table."""
    year = _check_year(year)
    return _ages(year, mode)[_day_number(*_check_date(month, day, year))]


def moon_age(year: int, month: int, day: int) -> int:
    """Age of the ecclesiastical moon on the given date, 1..30.

    This is the raw age of :func:`age_in_mode`: Januaries of correction
    years may skip or repeat a day relative to the previous December.
    """
    return age_in_mode(year, month, day)
