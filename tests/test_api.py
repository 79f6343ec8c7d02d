"""The package's public names: one owner each, exported once, each callable
refusing a bad value of any one of its parameters."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import computus
from computus import ANCHOR_YEAR, RECURRENCE_MAX, core, recurrence, tables, verify

MODULES = (core, recurrence, tables, verify)

# The 51 public names of computus, pinned so that no export is lost or added
# by accident.
PUBLIC = """
    ANCHOR_EPACT ANCHOR_YEAR CSV_HEADER CalendarDate CorrectionFlags DayAge
    DayEntry Epact LetterMap LunationBranch MartyrologyLetter MoonAgeMode
    PropertyCheck RECURRENCE_MAX TransitionTable VerifyReport Weekday YEAR_MAX
    YEAR_MIN YearLunarTable age_in_mode century_number corrected_age
    correction_flags day_number day_of_week easter_date epact
    epact_by_recurrence epact_label epact_sequence golden_number is_leap_year
    jump load_letter_map lunar_correction lunar_sum lunar_sum_alt
    lunation_branch lunation_value martyrology_letter metonic_correction
    moon_age new_moon_dates pronounced_age solar_correction solar_sum
    transition_table verify_range year_ages year_table
""".split()


def test_public_names_pinned():
    assert len(PUBLIC) == 51
    assert sorted(computus.__all__) == sorted(PUBLIC)


def test_each_public_name_has_one_owner():
    owners = [name for module in MODULES for name in module.__all__]
    assert len(owners) == len(set(owners))
    assert set(owners) == set(computus.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from computus import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(computus.__all__)


def test_exports_are_the_owners_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(computus, name) is getattr(module, name), name
    # tables keeps reading core's mode and per-date lookup
    assert tables.MoonAgeMode is core.MoonAgeMode
    assert tables.age_in_mode is core.age_in_mode


@pytest.mark.parametrize("value, special25", [(16, True), (0, True), (30, False), (-1, False)])
def test_epact_label_checks_as_epact_does(value, special25):
    with pytest.raises(ValueError) as from_epact:
        computus.Epact(value, special25)
    with pytest.raises(ValueError) as from_label:
        computus.epact_label(value, special25)
    assert str(from_label.value) == str(from_epact.value)


# The input contract of every public callable: given a bad value of one
# parameter and good values of the rest, it raises TypeError or ValueError.
_NON_VALUES = (None, True, 2033.5, math.nan, "2033", [2033])


def _bad(*allowed, outside=st.nothing()):
    # The non-values the kind does not take, or a drawn out-of-range integer.
    non_values = [v for v in _NON_VALUES if not any(v is a for a in allowed)]
    return st.sampled_from(non_values) | outside


def _outside(low, high=None):
    below = st.integers(max_value=low - 1)
    return below if high is None else below | st.integers(min_value=high + 1)


# Per parameter kind: a good value, and a strategy of bad ones.  A year
# outside ANCHOR_YEAR..RECURRENCE_MAX is outside every function's range.
_LETTERS = computus.load_letter_map()
KINDS = {
    "year": (2033, _bad(outside=_outside(ANCHOR_YEAR, RECURRENCE_MAX))),
    "any year": (2033, _bad()),  # is_leap_year: any integer
    "month": (4, _bad(outside=_outside(1, 12))),
    "day": (17, _bad(outside=_outside(1, 31))),
    "mode": (computus.MoonAgeMode.CORRECTED, _bad()),
    "lunation offset": (5, _bad(outside=_outside(0))),  # lunation_value: any non-negative
    "epact value": (16, _bad(outside=_outside(0, 29))),
    "golden number": (8, _bad(outside=_outside(1, 19))),
    "special-25 flag": (False, _bad(True)),
    "span bound": (2000, _bad(outside=_outside(ANCHOR_YEAR, RECURRENCE_MAX))),
    "glyphs": (_LETTERS.symbols, _bad()),
    "glyph": (_LETTERS.special25, _bad("2033")),
    "Epact": (computus.Epact(16), _bad()),
    "LetterMap": (_LETTERS, _bad(None)),  # None: the default map
    "letter-file path": (None, _bad(None)),  # "2033" names no file
}

_YEAR = ("year",)
_DATE = ("year", "month", "day")
_YEAR_MODE = ("year", "mode")
SIGNATURES = {
    "Epact": ("epact value", "special-25 flag"),
    "LetterMap": ("glyphs", "glyph"),
    "age_in_mode": (*_DATE, "mode"),
    "century_number": _YEAR,
    "corrected_age": _DATE,
    "correction_flags": _YEAR,
    "day_number": ("month", "day"),
    "day_of_week": _DATE,
    "easter_date": _YEAR_MODE,
    "epact": _YEAR,
    "epact_by_recurrence": _YEAR,
    "epact_label": ("epact value", "special-25 flag"),
    "epact_sequence": ("span bound", "span bound"),
    "golden_number": _YEAR,
    "is_leap_year": ("any year",),
    "jump": _YEAR,
    "load_letter_map": ("letter-file path",),
    "lunar_correction": _YEAR,
    "lunar_sum": _YEAR,
    "lunar_sum_alt": _YEAR,
    "lunation_branch": ("epact value", "golden number"),
    "lunation_value": ("lunation offset",),
    "martyrology_letter": ("Epact", "LetterMap"),
    "metonic_correction": _YEAR,
    "moon_age": _DATE,
    "new_moon_dates": _YEAR_MODE,
    "pronounced_age": _DATE,
    "solar_correction": _YEAR,
    "solar_sum": _YEAR,
    "transition_table": _YEAR_MODE,
    "verify_range": ("span bound", "span bound"),
    "year_ages": _YEAR_MODE,
    "year_table": _YEAR_MODE,
}

# Plain records take any field values, and the enums look members up by
# value, so that Weekday(True) is MONDAY.
EXEMPT = {
    "CalendarDate", "DayEntry", "DayAge", "MartyrologyLetter", "CorrectionFlags",
    "YearLunarTable", "TransitionTable", "PropertyCheck", "VerifyReport",
    "LunationBranch", "MoonAgeMode", "Weekday",
}


@settings(derandomize=True, database=None, deadline=None)
@given(st.data())
def test_public_callables_refuse_a_bad_value(data):
    public = {name for name in computus.__all__ if callable(getattr(computus, name))}
    assert public - EXEMPT == SIGNATURES.keys(), "declare each callable's kinds, or exempt it"
    for name, kinds in SIGNATURES.items():
        function = getattr(computus, name)
        assert len(inspect.signature(function).parameters) == len(kinds), name
        good = [KINDS[kind][0] for kind in kinds]
        function(*good)  # the good values are good together
        for i, kind in enumerate(kinds):
            bad = data.draw(KINDS[kind][1], label=f"{name} {kind}")
            with pytest.raises((TypeError, ValueError)):
                function(*good[:i], bad, *good[i + 1 :])
