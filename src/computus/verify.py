"""Property sweeps over year ranges, with first-counterexample reporting.

One pass of the epact recurrence drives all year-level identity checks;
day-level checks (age succession, new-year continuity, the Easter window)
ride along, each read from the epact-class tables of its year and the year before:
a year's raw table is the next year's December, so only a span's first year looks back.
A step check is a pure function of the tables it reads, so a process walks each
table, and each December/January pair with its jump, once: the memo is keyed by
identity and holds the tables it keys, so no id recurs and a fresh table is walked.
Every entry keeps the counterexample of each check it serves, less the year, or False,
so a hit only adds its year.  Concurrent sweeps can at worst compute the same verdict twice.

The sweep accumulates the recurrence itself from the public correction
predicates, looked up on :mod:`computus.recurrence` every year, rather than
reading :func:`computus.recurrence.epact_sequence`.  That loop uses the
unchecked private predicates, so reading it would leave the public ones
unchecked; routing it through the public ones instead would about double
its cost per year for every other caller.

No year before ``start`` is checked, so the walk up to it is kept, keyed by the three
predicates: each state (the epact and the two running totals) before 1600, 1700, ...
that a call's walk passes.  A later call resumes from the last state at or below its
start, at most 99 years back.  This assumes pure predicates, as the table memo assumes
immutable tables; a one-call ``computus verify`` from 1583 records and gains nothing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from . import core, recurrence, tables

__all__ = [
    "PropertyCheck",
    "VerifyReport",
    "verify_range",
]


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


def _fail(check: PropertyCheck, counterexample: str) -> None:
    # The first failure is the check's counterexample.
    if check.ok:
        check.ok, check.counterexample = False, counterexample


def _first_bad_step(ages: tuple[int, ...], jump: int) -> int:
    """Index of the first day whose step to the next is neither +1 nor a reset
    to 1 from 29 or 30, where natural lunations end, or from 30 minus the jump,
    where the corrected first January lunation ends (31 when the jump is -1,
    28 when it is 2); raw tables pass 0.  -1 if the whole sequence is fine."""
    for i in range(len(ages) - 1):
        a, b = ages[i], ages[i + 1]
        if b != a + 1 and not (b == 1 and a in (29, 30, 30 - jump)):
            return i
    return -1


_walked: dict = {}  # key -> (tables, held so no id recurs; then each check's text, or False)
_prefix: dict = {}  # predicates, held so no id recurs -> flat states before 1583, 1600, 1700, ...


def verify_range(start: int = core.YEAR_MIN, end: int = 25000) -> VerifyReport:
    """Check every published identity and structural property over a range.

    ``end`` may run to the recurrence ceiling; checks that need dated
    operations stop at the closed-form ceiling (4,000,000).  A check covers each
    year it applies to, walked or a memo hit, so its count follows from the range.
    """
    start, end = recurrence._check_span(start, end, core.YEAR_MIN)
    years = end - start + 1
    dated_end = min(end, core.YEAR_MAX)
    dated = max(0, dated_end - start + 1)
    boundary = dated - (start == core.YEAR_MIN)  # 1583 has no December before it
    rec = PropertyCheck("epact closed form vs recurrence", True, years)
    ssum = PropertyCheck("solar sum identity", True, years)
    lsum = PropertyCheck("lunar sum identity", True, years)
    lalt = PropertyCheck("alternate lunar sum equivalence", True, years)
    jdec = PropertyCheck("jump decomposition", True, years)
    succ = PropertyCheck("raw age succession", True, dated)
    csucc = PropertyCheck("corrected December-January succession", True, boundary)
    cont = PropertyCheck("new year continuity", True, boundary)
    east = PropertyCheck("easter window", True, dated)

    preds = recurrence.metonic_correction, recurrence.solar_correction, recurrence.lunar_correction
    saved = _prefix.get(preds, array("i", (recurrence.ANCHOR_EPACT, 0, 0)))
    kept = min(len(saved) // 3, start // 100 - 14)  # states at or below start
    value, solar_total, lunar_total = saved[3 * kept - 3 : 3 * kept]
    walked = array("i")
    before = core._ages(start - 1) if core.YEAR_MIN < start <= dated_end else None
    for year in range(max(core.YEAR_MIN, 100 * kept + 1400), end + 1):
        m = recurrence.metonic_correction(year)
        s = recurrence.solar_correction(year)
        lun = recurrence.lunar_correction(year)
        corrections = m - s + lun
        value = (value + 11 + corrections) % 30
        solar_total += s
        lunar_total += lun
        if year < start:
            if year % 100 == 99:
                walked.extend((value, solar_total, lunar_total))
            continue

        closed = core._epact_value(year)
        if closed != value:
            _fail(rec, f"year {year}: closed form {closed}, recurrence {value}")
        solar = recurrence.solar_sum(year)
        if solar != solar_total:
            _fail(ssum, f"year {year}: solar_sum {solar}, accumulated {solar_total}")
        lunar = recurrence.lunar_sum(year)
        if lunar != lunar_total:
            _fail(lsum, f"year {year}: lunar_sum {lunar}, accumulated {lunar_total}")
        alt = recurrence.lunar_sum_alt(year)
        if alt != lunar:
            _fail(lalt, f"year {year}: lunar_sum {lunar}, alternate form {alt}")
        year_jump = recurrence.jump(year)
        if year_jump != corrections:
            _fail(jdec, f"year {year}: jump {year_jump}, corrections give {corrections}")

        if year > dated_end:
            continue

        ages = core._ages(year)
        held = _walked.get(id(ages))
        if held is None:
            bad = _first_bad_step(ages, 0)
            steps = bad >= 0 and f"day {bad} age {ages[bad]} then {ages[bad + 1]}"
            held = _walked[id(ages)] = ages, steps
        if held[1]:
            _fail(succ, f"year {year}: {held[1]}")

        if before is not None:  # last year's raw table is this year's December
            corrected = core._ages(year, core._CORRECTED)
            key = (id(before), id(corrected), year_jump)
            held = _walked.get(key)
            if held is None:
                dec, jan = core._window(before, corrected)
                window = dec + jan
                bad = _first_bad_step(window, year_jump)
                steps = bad >= 0 and f"boundary day {bad} age {window[bad]} then {window[bad + 1]}"
                gap = (jan[0] - dec[-1] - 1) % 30 != 0 and (
                    f"Dec 31 age {dec[-1]}, corrected Jan 1 {jan[0]}")
                held = _walked[key] = (before, corrected), steps, gap
            _, steps, gap = held
            if steps:
                _fail(csucc, f"year {year}: {steps}")
            if gap:
                _fail(cont, f"year {year}: {gap}")
        before = ages

        easter = tables.easter_date(year)
        if not (3, 22) <= easter <= (4, 25):
            _fail(east, f"year {year}: easter {easter.month:02d}-{easter.day:02d}")

    if walked:
        _prefix[preds] = saved + walked
    return VerifyReport(start, end, [rec, ssum, lsum, lalt, jdec, succ, csucc, cont, east])
