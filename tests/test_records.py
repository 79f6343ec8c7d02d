"""The record classes behave as frozen value objects: shown, compared and
hashed by their fields, immutable, and copied and pickled whole.  The tuple
records are named tuples: equal to a plain tuple of their fields."""

import copy
import pickle

import pytest

from computus import (
    CalendarDate,
    CorrectionFlags,
    DayAge,
    DayEntry,
    Epact,
    LetterMap,
    MartyrologyLetter,
    MoonAgeMode,
    TransitionTable,
    YearLunarTable,
    correction_flags,
    easter_date,
    epact,
    martyrology_letter,
    transition_table,
    year_table,
)

_LETTERS = LetterMap(tuple("*abcdefghiklmnpqrstuABCDEFGHIK"), "F")
_TABLE = year_table(2033, MoonAgeMode.PRONOUNCED)
_TRANSITION = transition_table(2033, MoonAgeMode.CORRECTED)

# Each record with its field names and values, in declaration order.
RECORDS = [
    (Epact(16), ("value", "special25"), (16, False)),
    (Epact(25, True), ("value", "special25"), (25, True)),
    (_LETTERS, ("symbols", "special25"), (_LETTERS.symbols, "F")),
    (_TABLE, ("year", "mode", "entries"), (2033, MoonAgeMode.PRONOUNCED, _TABLE.entries)),
    (
        _TRANSITION,
        ("year", "mode", "december", "january"),
        (2033, MoonAgeMode.CORRECTED, _TRANSITION.december, _TRANSITION.january),
    ),
]
IDS = ["epact", "epact-special25", "letter-map", "year-table", "transition-table"]


def _rebuilt(record, values):
    # A new record of the same class from the same field values.
    return type(record)(*values)


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_fields_and_repr(record, names, values):
    assert type(record).__match_args__ == names
    assert tuple(getattr(record, name) for name in names) == values
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{type(record).__qualname__}({shown})"


def test_epact_repr_literal():
    assert repr(Epact(16)) == "Epact(value=16, special25=False)"
    assert repr(Epact(25, True)) == "Epact(value=25, special25=True)"
    assert repr(Epact(value=3)) == "Epact(value=3, special25=False)"


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_equality_and_hash(record, names, values):
    twin = _rebuilt(record, values)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    # A tuple of the same fields is another kind of value.
    assert record != values and not record == values
    assert record != object()
    with pytest.raises(TypeError):
        record < twin  # noqa: B015 -- records have no order


def test_records_differ_by_any_field():
    assert Epact(25) != Epact(25, True)
    assert year_table(2033) != year_table(2033, MoonAgeMode.PRONOUNCED)
    assert transition_table(2033) != transition_table(2034)
    assert LetterMap(_LETTERS.symbols, "G") != _LETTERS
    assert len({Epact(16), Epact(16), Epact(17)}) == 2


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, names, values):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names) == values


def _pickled(record):
    # Every protocol must give back the same record.
    twins = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin == record for twin in twins)
    return twins[0]


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled], ids=lambda f: f.__name__)
def test_copy_and_pickle_round_trip(record, names, values, clone):
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    assert tuple(getattr(twin, name) for name in names) == values
    with pytest.raises(AttributeError):
        setattr(twin, names[0], None)


def test_positional_match():
    match Epact(25, True):
        case Epact(25, special25):
            assert special25 is True
        case _:
            pytest.fail("Epact did not match positionally")
    match _TABLE:
        case YearLunarTable(year, mode, entries):
            assert (year, mode, len(entries)) == (2033, MoonAgeMode.PRONOUNCED, 365)
        case _:
            pytest.fail("YearLunarTable did not match positionally")
    match _TRANSITION:
        case TransitionTable(year, _, december, january):
            assert (year, len(december), len(january)) == (2033, 31, 31)
        case _:
            pytest.fail("TransitionTable did not match positionally")
    match _LETTERS:
        case LetterMap(symbols, "F"):
            assert symbols[16] == "r"
        case _:
            pytest.fail("LetterMap did not match positionally")


# Each tuple record as a library call returns it, with its defining module,
# docstring and field values.
TUPLE_RECORDS = [
    (
        easter_date(2033),
        "computus.core",
        "A month and day within some Gregorian year.",
        {"month": 4, "day": 17},
    ),
    (
        year_table(2033).entries[0],
        "computus.tables",
        "DayEntry(month, day, age, is_new_moon, is_full_moon)",
        {"month": 1, "day": 1, "age": 30, "is_new_moon": False, "is_full_moon": False},
    ),
    (
        transition_table(2033).january[0],
        "computus.tables",
        "DayAge(day, age)",
        {"day": 1, "age": 30},
    ),
    (
        martyrology_letter(epact(2033)),
        "computus.tables",
        "MartyrologyLetter(symbol, distinct_color)",
        {"symbol": "K", "distinct_color": False},
    ),
    (
        correction_flags(1800),
        "computus.recurrence",
        "The three 0/1 epact corrections applying to one year.",
        {"metonic": 0, "solar": 1, "lunar": 1},
    ),
]
TUPLE_CLASSES = [CalendarDate, DayEntry, DayAge, MartyrologyLetter, CorrectionFlags]


@pytest.mark.parametrize(
    "cls, record, module, doc, fields",
    [(cls, *row) for cls, row in zip(TUPLE_CLASSES, TUPLE_RECORDS)],
    ids=[cls.__name__ for cls in TUPLE_CLASSES],
)
def test_tuple_record_shape(cls, record, module, doc, fields):
    names, values = tuple(fields), tuple(fields.values())
    assert type(record) is cls and isinstance(record, tuple)
    assert cls.__name__ == cls.__qualname__
    assert cls._fields == cls.__match_args__ == names
    assert (cls.__doc__, cls.__module__) == (doc, module)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    # Unlike the frozen records, a tuple record is the tuple of its fields.
    assert record == values and hash(record) == hash(values)
    assert cls(*values) == record == cls(**fields)
    clones = [copy.copy(record), copy.deepcopy(record)]
    clones += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(type(c) is cls and c == record for c in clones)
    assert record._asdict() == fields
    first = names[0]
    changed = record._replace(**{first: "x"})
    assert type(changed) is cls and changed == ("x", *values[1:])
    match record:
        case cls(head) if head == values[0]:
            pass
        case _:
            pytest.fail(f"{cls.__name__} did not match positionally")
