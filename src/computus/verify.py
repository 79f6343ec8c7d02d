"""Property sweeps over year ranges, with first-counterexample reporting.

One pass of the epact recurrence drives all year-level identity checks;
day-level checks (age succession, new-year continuity, the Easter window)
ride along, each read from the epact-class tables of its year and the year before.
A step check is a pure function of the ages it walks, so a sweep walks each
distinct sequence once, keyed by its ages, not its class: a one-year fault still shows.

The sweep accumulates the recurrence itself from the public correction
predicates, looked up on :mod:`computus.recurrence` every year, rather than
reading :func:`computus.recurrence.epact_sequence`.  That loop uses the
unchecked private predicates, so reading it would leave the public ones
unchecked; routing it through the public ones instead would about double
its cost per year for every other caller.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import core, recurrence, tables


@dataclass
class PropertyCheck:
    name: str
    ok: bool
    years_checked: int
    counterexample: str | None = None


@dataclass
class VerifyReport:
    start: int
    end: int
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.ok]


_CHECK_NAMES = (
    "epact closed form vs recurrence",
    "solar sum identity",
    "lunar sum identity",
    "alternate lunar sum equivalence",
    "jump decomposition",
    "raw age succession",
    "corrected December-January succession",
    "new year continuity",
    "easter window",
)


def _record(check: PropertyCheck, failure: str | None) -> None:
    # Counts one year; the first failure is the check's counterexample.
    check.years_checked += 1
    if failure is not None and check.ok:
        check.ok = False
        check.counterexample = failure


def _first_bad_step(ages: Sequence[int], resets: tuple[int, ...]) -> int:
    """Index of the first day whose step to the next is neither +1 nor a
    reset to 1 from an allowed value; -1 if the whole sequence is fine."""
    for i in range(len(ages) - 1):
        a, b = ages[i], ages[i + 1]
        if b != a + 1 and not (b == 1 and a in resets):
            return i
    return -1


def _corrected_resets(year_jump: int) -> tuple[int, ...]:
    # Natural lunations end at 29 or 30; the corrected first January
    # lunation ends at 30 minus the year's jump (31 when the jump is -1,
    # 28 when it is 2).
    return (29, 30, 30 - year_jump)


def verify_range(start: int = core.YEAR_MIN, end: int = 25000) -> VerifyReport:
    """Check every published identity and structural property over a range.

    ``end`` may run to the recurrence ceiling; checks that need dated
    operations stop at the closed-form ceiling (4,000,000).  An age sequence
    is walked only in the first year reading it, its first failing year if any.
    """
    start, end = core._as_int(start, "start"), core._as_int(end, "end")
    if not core.YEAR_MIN <= start <= end <= recurrence.RECURRENCE_MAX:
        raise ValueError(
            f"need {core.YEAR_MIN} <= start <= end <= "
            f"{recurrence.RECURRENCE_MAX}, got {start}..{end}"
        )
    dated_end = min(end, core.YEAR_MAX)
    report = VerifyReport(start, end, [PropertyCheck(name, True, 0) for name in _CHECK_NAMES])
    rec, ssum, lsum, lalt, jdec, succ, csucc, cont, east = report.checks
    first_bad_step = functools.cache(_first_bad_step)  # keyed by (ages, resets)

    value = recurrence.ANCHOR_EPACT
    solar_total = 0
    lunar_total = 0
    for year in range(core.YEAR_MIN, end + 1):
        m = recurrence.metonic_correction(year)
        s = recurrence.solar_correction(year)
        lun = recurrence.lunar_correction(year)
        value = (value + 11 + m - s + lun) % 30
        solar_total += s
        lunar_total += lun
        if year < start:
            continue

        closed = core._epact_value(year)
        _record(rec, None if closed == value else
                f"year {year}: closed form {closed}, recurrence {value}")
        solar = recurrence.solar_sum(year)
        _record(ssum, None if solar == solar_total else
                f"year {year}: solar_sum {solar}, accumulated {solar_total}")
        lunar = recurrence.lunar_sum(year)
        _record(lsum, None if lunar == lunar_total else
                f"year {year}: lunar_sum {lunar}, accumulated {lunar_total}")
        alt = recurrence.lunar_sum_alt(year)
        _record(lalt, None if alt == lunar else
                f"year {year}: lunar_sum {lunar}, alternate form {alt}")
        year_jump = recurrence.jump(year)
        _record(jdec, None if year_jump == m - s + lun else
                f"year {year}: jump {year_jump}, corrections give {m - s + lun}")

        if year > dated_end:
            continue

        ages = core._ages(year)
        bad = first_bad_step(ages, (29, 30))
        _record(succ, None if bad < 0 else
                f"year {year}: day {bad} age {ages[bad]} then {ages[bad + 1]}")

        if year > core.YEAR_MIN:
            december, january = core._boundary(year, core.MoonAgeMode.CORRECTED)
            boundary = december + january
            bad = first_bad_step(boundary, _corrected_resets(year_jump))
            _record(csucc, None if bad < 0 else
                    f"year {year}: boundary day {bad} age {boundary[bad]} "
                    f"then {boundary[bad + 1]}")
            dec31 = december[-1]
            _record(cont, None if (january[0] - dec31 - 1) % 30 == 0 else
                    f"year {year}: Dec 31 age {dec31}, corrected Jan 1 {january[0]}")

        em, ed = tables.easter_date(year)
        _record(east, None if (3, 22) <= (em, ed) <= (4, 25) else
                f"year {year}: easter {em:02d}-{ed:02d}")

    return report
