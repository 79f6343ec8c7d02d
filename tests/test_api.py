"""The package's public names: one owner each, exported once."""

import pytest

import computus
from computus import core, recurrence, tables, verify

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
