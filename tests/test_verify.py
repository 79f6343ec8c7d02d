import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from computus import core, verify, verify_range
from computus.verify import _first_bad_step


def _by_name(report):
    return {c.name: c for c in report.checks}


def test_small_range_all_pass():
    report = verify_range(1583, 2000)
    assert report.ok
    assert report.failures == []
    names = _by_name(report)
    assert names["epact closed form vs recurrence"].years_checked == 418
    assert names["new year continuity"].years_checked == 417


def test_single_year_range():
    report = verify_range(1583, 1583)
    assert report.ok
    names = _by_name(report)
    assert names["raw age succession"].years_checked == 1
    # nothing before 1583 to compare against
    assert names["new year continuity"].years_checked == 0


def test_range_validation():
    with pytest.raises(ValueError):
        verify_range(1582, 2000)
    with pytest.raises(ValueError):
        verify_range(2000, 1999)
    with pytest.raises(ValueError):
        verify_range(1583, 10_000_001)


def test_injected_lunar_sum_fault_is_caught(monkeypatch):
    real = verify.recurrence.lunar_sum
    monkeypatch.setattr(verify.recurrence, "lunar_sum", lambda y: real(y) + 1)
    report = verify_range(1583, 1700)
    names = _by_name(report)
    assert not names["alternate lunar sum equivalence"].ok
    assert not names["lunar sum identity"].ok
    assert "1583" in names["alternate lunar sum equivalence"].counterexample


def test_injected_solar_sum_fault_is_caught(monkeypatch):
    real = verify.recurrence.solar_sum
    monkeypatch.setattr(verify.recurrence, "solar_sum", lambda y: real(y) + 1)
    report = verify_range(1583, 1700)
    assert [(c.name, c.years_checked, c.counterexample) for c in report.failures] == [
        ("solar sum identity", 118, "year 1583: solar_sum 1, accumulated 0")
    ]


def test_injected_easter_fault_is_caught(monkeypatch):
    real = verify.tables.easter_date
    monkeypatch.setattr(
        verify.tables, "easter_date", lambda y: core.CalendarDate(4, 26) if y == 1650 else real(y)
    )
    report = verify_range(1583, 1700)
    assert [(c.name, c.years_checked, c.counterexample) for c in report.failures] == [
        ("easter window", 118, "year 1650: easter 04-26")
    ]


def test_easter_before_march_22_is_caught(monkeypatch):
    real = verify.tables.easter_date
    monkeypatch.setattr(
        verify.tables, "easter_date", lambda y: core.CalendarDate(3, 21) if y == 1650 else real(y)
    )
    report = verify_range(1583, 1700)
    assert [(c.name, c.years_checked, c.counterexample) for c in report.failures] == [
        ("easter window", 118, "year 1650: easter 03-21")
    ]


def test_alternate_lunar_sum_fault_above_a_million_is_caught(monkeypatch):
    real = verify.recurrence.lunar_sum_alt
    monkeypatch.setattr(verify.recurrence, "lunar_sum_alt", lambda y: real(y) + 1)
    lunar = verify.recurrence.lunar_sum(1_000_001)
    report = verify_range(1_000_001, 1_000_001)
    assert [(c.name, c.years_checked, c.counterexample) for c in report.failures] == [
        ("alternate lunar sum equivalence", 1,
         f"year 1000001: lunar_sum {lunar}, alternate form {lunar + 1}")
    ]


def test_injected_correction_fault_is_caught(monkeypatch):
    real = verify.recurrence.lunar_correction
    monkeypatch.setattr(
        verify.recurrence, "lunar_correction", lambda y: 1 - real(y)
    )
    report = verify_range(1583, 1700)
    names = _by_name(report)
    assert not names["epact closed form vs recurrence"].ok
    assert not names["jump decomposition"].ok


def test_first_bad_step_helper():
    # Raw tables pass jump 0: a step is +1 or a reset to 1 from 29 or 30.
    assert _first_bad_step((1, 2, 3), 0) == -1
    assert _first_bad_step((29, 1, 2), 0) == -1
    assert _first_bad_step((30, 1, 2), 0) == -1
    assert _first_bad_step((5, 7), 0) == 0


def test_corrected_reset_set_follows_jump():
    # The corrected first January lunation ends at 30 minus the year's jump,
    # so a reset from 31 or 28 passes only at the jump that allows it.
    assert _first_bad_step((30, 31, 1, 2), -1) == -1
    assert _first_bad_step((30, 31, 1, 2), 0) == 1
    assert _first_bad_step((27, 28, 1, 2), 2) == -1
    assert _first_bad_step((27, 28, 1, 2), 1) == 1
    assert _first_bad_step((29, 1, 2), 2) == -1
    assert _first_bad_step((30, 1, 2), -1) == -1


def test_jump_two_boundary_accepted():
    # 15200 is the one year below 25000 whose jump is 2; its shortened
    # first January lunation legitimately ends at age 28
    report = verify_range(15150, 15250)
    assert report.ok, report.failures


def test_full_default_range_passes():
    report = verify_range(1583, 25000)
    assert report.ok, report.failures
    for check in report.checks:
        assert check.counterexample is None


def _corrupt_class_table(monkeypatch, key, day):
    """Make one (epact, special-25, shift) table wrong on one day."""
    real = core._class_ages

    def class_ages(*args):
        ages = real(*args)
        if args != key:
            return ages
        return ages[:day] + (ages[day] % 30 + 1,) + ages[day + 1 :]

    monkeypatch.setattr(core, "_class_ages", class_ages)


def _failing(report):
    # A failing check still counts every year it checked.
    return {c.name: (c.years_checked, c.counterexample) for c in report.failures}


def test_injected_raw_table_fault_is_caught(monkeypatch):
    # epact 7 is the class of 1583; day 200 lies past Easter and January
    _corrupt_class_table(monkeypatch, (7, False, 0), 200)
    failing = _failing(verify_range(1583, 1700))
    assert set(failing) == {"raw age succession"}
    years, counterexample = failing["raw age succession"]
    assert years == 118 and counterexample.startswith("year 1583:")


def test_injected_shifted_january_fault_is_caught(monkeypatch):
    # 1596 has golden number 1, epact 1 and jump 1: the first year of the
    # range to read the January table of class 1 shifted by one
    _corrupt_class_table(monkeypatch, (1, False, 1), 0)
    failing = _failing(verify_range(1583, 1700))
    assert set(failing) == {"new year continuity", "corrected December-January succession"}
    for years, counterexample in failing.values():
        assert years == 117 and counterexample.startswith("year 1596:")


def test_injected_december_fault_is_caught_at_range_start(monkeypatch):
    # 1599 has epact 4 and 1600 epact 15: a 1600..1600 sweep reads the
    # raw table of class 4 only for the December before its first year
    _corrupt_class_table(monkeypatch, (4, False, 0), 364)
    failing = _failing(verify_range(1600, 1600))
    assert set(failing) == {"new year continuity", "corrected December-January succession"}
    for years, counterexample in failing.values():
        assert years == 1 and counterexample.startswith("year 1600:")


def test_december_fault_mid_span_is_caught(monkeypatch):
    # The same December 31 fault inside a span: 1599's raw table is both the
    # year's own table and 1600's December, so both readings must fail.
    _corrupt_class_table(monkeypatch, (4, False, 0), 364)
    assert _failing(verify_range(1583, 1700)) == {
        "raw age succession": (118, "year 1599: day 363 age 14 then 16"),
        "corrected December-January succession": (
            117, "year 1600: boundary day 29 age 14 then 16"),
        "new year continuity": (117, "year 1600: Dec 31 age 16, corrected Jan 1 16"),
    }


def test_fault_in_one_year_of_a_class_is_caught(monkeypatch):
    # The memo is keyed by the ages walked, not by epact class: 1650 shares
    # its class with earlier years of the range, but its own table is wrong.
    real = core._ages

    def ages(year, mode=core.MoonAgeMode.RAW):
        table = real(year, mode)
        if year != 1650 or mode is not core.MoonAgeMode.RAW:
            return table
        return table[:200] + (table[200] % 30 + 1,) + table[201:]

    monkeypatch.setattr(core, "_ages", ages)
    failing = _failing(verify_range(1583, 1700))
    assert failing == {"raw age succession": (118, "year 1650: day 199 age 20 then 22")}


def test_fresh_table_on_every_call_is_walked(monkeypatch):
    # The memo is keyed by table identity.  Tables built afresh on every
    # call must each be walked: a memo that dropped them could see a new
    # table take a walked one's id and skip the faulty year.
    real = core._ages

    def ages(year, mode=core.MoonAgeMode.RAW):
        table = list(real(year, mode))
        if year == 1650 and mode is core.MoonAgeMode.RAW:
            table[340] = table[340] % 30 + 1
        return tuple(table)

    monkeypatch.setattr(core, "_ages", ages)
    failing = _failing(verify_range(1583, 1700))
    assert failing == {
        "raw age succession": (118, "year 1650: day 339 age 12 then 14"),
        "corrected December-January succession": (117, "year 1651: boundary day 5 age 12 then 14"),
    }


def _stable_fault(monkeypatch, key, day, by=1):
    """Make one class table wrong on one day by ``by`` (mod 30), as the same
    tuple on every call, so that a later sweep finds its verdict in the memo."""
    real = core._class_ages
    ages = real(*key)
    wrong = ages[:day] + ((ages[day] + by - 1) % 30 + 1,) + ages[day + 1 :]
    monkeypatch.setattr(core, "_class_ages", lambda *args: wrong if args == key else real(*args))


def _twice(start, end):
    # Two sweeps of one range in one process: the second reads the memo.
    first, second = verify_range(start, end), verify_range(start, end)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    return second


def test_remembered_raw_fault_is_reported_again(monkeypatch):
    assert verify_range(1583, 1700).ok
    _stable_fault(monkeypatch, (7, False, 0), 200)
    failing = _failing(_twice(1583, 1700))
    assert set(failing) == {"raw age succession"}
    years, counterexample = failing["raw age succession"]
    assert years == 118 and counterexample.startswith("year 1583:")


def test_remembered_window_fault_is_reported_again(monkeypatch):
    # Jan 1 off by 15: a continuity test taken mod 15 instead of 30 misses it
    assert verify_range(1583, 1700).ok
    _stable_fault(monkeypatch, (1, False, 1), 0, by=15)
    failing = _failing(_twice(1583, 1700))
    assert set(failing) == {"new year continuity", "corrected December-January succession"}
    for years, counterexample in failing.values():
        assert years == 117 and counterexample.startswith("year 1596:")


def test_remembered_window_fault_reslices_nothing(monkeypatch):
    # A failing window entry holds its counterexamples: a hit adds its year
    # and builds no December/January window again.
    _stable_fault(monkeypatch, (1, False, 1), 0, by=15)
    first = _failing(verify_range(1583, 1700))
    calls = []
    real = core._window

    def window(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_window", window)
    second = _failing(verify_range(1583, 1700))
    assert second == first
    assert set(second) == {"new year continuity", "corrected December-January succession"}
    assert calls == []


def test_second_sweep_walks_no_table(monkeypatch):
    verify_range(1583, 1700)
    calls = []
    real = verify._first_bad_step

    def first_bad_step(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_first_bad_step", first_bad_step)
    assert verify_range(1583, 1700).ok
    assert calls == []


_DATED_CHECKS = {
    "raw age succession",
    "corrected December-January succession",
    "new year continuity",
    "easter window",
}


def test_range_across_dated_ceiling():
    report = verify_range(3_999_990, 4_000_050)
    assert report.ok, report.failures
    for check in report.checks:
        assert check.years_checked == (11 if check.name in _DATED_CHECKS else 61), check.name


def test_range_above_dated_ceiling():
    report = verify_range(4_000_001, 4_000_001)
    assert report.ok, report.failures
    for check in report.checks:
        assert check.years_checked == (0 if check.name in _DATED_CHECKS else 1), check.name


_CHECKPOINT_RANGES = [
    (1583, 1583),
    (1599, 1601),
    (1600, 1600),
    (1699, 1701),
    (1583, 2000),
    (15150, 15250),
    (1_000_001, 1_000_001),
    (3_999_990, 4_000_050),
    (4_000_001, 4_000_001),
]


def test_checkpoints_change_no_report(monkeypatch):
    # Each cold sweep walks from 1583 with the memo empty, and keeps a state
    # only if its walk passed a century year below its start; the last one
    # leaves states up to 4,000,001, from which every warm sweep resumes.
    cold = {}
    for span in _CHECKPOINT_RANGES:
        monkeypatch.setattr(verify, "_prefix", {})
        cold[span] = dataclasses.asdict(verify_range(*span))
        assert bool(verify._prefix) == (span[0] >= 1600), span
    [states] = verify._prefix.values()
    assert len(states) // 3 == 4_000_001 // 100 - 14
    assert states.itemsize * len(states) <= 1 << 20
    for span in _CHECKPOINT_RANGES:
        assert dataclasses.asdict(verify_range(*span)) == cold[span], span


def test_later_sweep_resumes_at_a_checkpoint(monkeypatch):
    monkeypatch.setattr(verify, "_prefix", {})
    calls = dict.fromkeys(["metonic_correction", "solar_correction", "lunar_correction"], 0)
    for name in calls:

        def counted(year, real=getattr(verify.recurrence, name), name=name):
            calls[name] += 1
            return real(year)

        monkeypatch.setattr(verify.recurrence, name, counted)
    assert verify_range(5000, 5010).ok
    assert set(calls.values()) == {5010 - 1583 + 1}
    calls.update(dict.fromkeys(calls, 0))
    assert verify_range(5050, 5060).ok
    assert all(11 <= n <= 99 + 11 for n in calls.values()), calls


def test_warm_sweep_checks_its_first_year(monkeypatch):
    # A sweep resumes at or below its start, never past it: with states kept
    # up to 1800, a fault in 1650 alone is still found.
    monkeypatch.setattr(verify, "_prefix", {})
    assert verify_range(1800, 1800).ok
    real = verify.recurrence.solar_sum
    monkeypatch.setattr(verify.recurrence, "solar_sum", lambda y: real(y) + (y == 1650))
    assert _failing(verify_range(1650, 1650)) == {
        "solar sum identity": (1, "year 1650: solar_sum 1, accumulated 0")
    }


def test_new_predicate_walks_from_the_anchor(monkeypatch):
    # A predicate changed after the memo was warmed keys its own states: the
    # sweep reports what a process that never saw the real one reports.
    monkeypatch.setattr(verify, "_prefix", {})
    assert verify_range(2000, 2100).ok
    real = verify.recurrence.lunar_correction
    monkeypatch.setattr(
        verify.recurrence, "lunar_correction", lambda y: 1 - real(y) if y == 1800 else real(y)
    )
    warm = dataclasses.asdict(verify_range(2000, 2100))
    monkeypatch.setattr(verify, "_prefix", {})
    cold = dataclasses.asdict(verify_range(2000, 2100))
    assert warm == cold
    assert [c["name"] for c in cold["checks"] if not c["ok"]] == [
        "epact closed form vs recurrence",
        "lunar sum identity",
    ]


def test_concurrent_sweeps_report_what_lone_sweeps_report(monkeypatch):
    # Sweeps in threads read the checkpoints while others publish longer
    # ones; a publication lost to a later one costs a walk, not a state.
    spans = [(start, start + 3) for start in range(1600, 30_000, 1_237)]
    expected = []
    for span in spans:
        monkeypatch.setattr(verify, "_prefix", {})
        expected.append(dataclasses.asdict(verify_range(*span)))
    monkeypatch.setattr(verify, "_prefix", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            reports = pool.map(lambda span: verify_range(*span), spans * 2, timeout=120)
            got = [dataclasses.asdict(report) for report in reports]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 2
