"""Iterative definition of the epacts and the correction bookkeeping.

The year-over-year recurrence adds 11 to the previous epact plus three 0/1
correction terms, modulo 30.  It is deliberately kept as a plain linear
iteration: its job is to serve as an independent oracle for the closed form
in :mod:`computus.core`, not to be fast.  The module also carries the
closed-form correction counts and the size of the new-year jump.

Operations here accept years up to the recurrence ceiling (10**7), which is
looser than the dated operations' ceiling, so that verification sweeps can
cover the full range.
"""

from __future__ import annotations

import collections
from collections.abc import Iterator

from .core import ANCHOR_YEAR, Epact, _as_int, _check_year, _jump, _special25

__all__ = [
    "ANCHOR_EPACT",
    "RECURRENCE_MAX",
    "CorrectionFlags",
    "correction_flags",
    "epact_by_recurrence",
    "epact_sequence",
    "jump",
    "lunar_correction",
    "lunar_sum",
    "lunar_sum_alt",
    "metonic_correction",
    "solar_correction",
    "solar_sum",
]

RECURRENCE_MAX = 10_000_000

ANCHOR_EPACT = 26  # epact of the anchor year 1582


CorrectionFlags = collections.namedtuple("CorrectionFlags", "metonic solar lunar")
CorrectionFlags.__doc__ = "The three 0/1 epact corrections applying to one year."


def _metonic(year: int) -> int:
    return 1 if year % 19 == 0 else 0


def _solar(year: int) -> int:
    return 1 if year % 100 == 0 and year % 400 != 0 else 0


def _lunar(year: int) -> int:
    # Correction years are 1800 + 300k + 2500m with k in 0..7: seven gaps of
    # 300 years, then one of 400, repeating.
    offset = (year - 1800) % 2500
    return 1 if offset % 300 == 0 and offset // 300 <= 7 else 0


def metonic_correction(year: int) -> int:
    """1 in years with golden number 1, when a Metonic cycle has just closed."""
    return _metonic(_check_year(year, maximum=RECURRENCE_MAX))


def solar_correction(year: int) -> int:
    """1 in century years not divisible by 400 (the dropped leap days)."""
    return _solar(_check_year(year, maximum=RECURRENCE_MAX))


def lunar_correction(year: int) -> int:
    """1 in the years realigning the ecclesiastical moon with the mean moon."""
    return _lunar(_check_year(year, maximum=RECURRENCE_MAX))


def correction_flags(year: int) -> CorrectionFlags:
    year = _check_year(year, maximum=RECURRENCE_MAX)
    return CorrectionFlags(_metonic(year), _solar(year), _lunar(year))


def _check_span(start: int, end: int, minimum: int) -> tuple[int, int]:
    # Both bounds as plain ints, checked against minimum and RECURRENCE_MAX.
    start, end = _as_int(start, "start"), _as_int(end, "end")
    if not minimum <= start <= end <= RECURRENCE_MAX:
        raise ValueError(f"need {minimum} <= start <= end <= {RECURRENCE_MAX}, got {start}..{end}")
    return start, end


def epact_sequence(start: int, end: int) -> Iterator[tuple[int, int]]:
    """Iterator of (year, epact value) for start..end, running the recurrence once.

    The bounds are checked at the call, before any iteration.  Use this for
    sweeps; calling :func:`epact_by_recurrence` per year would restart the
    iteration from 1582 every time.
    """
    return _walk(*_check_span(start, end, ANCHOR_YEAR))


def _walk(start: int, end: int) -> Iterator[tuple[int, int]]:
    # The recurrence over checked bounds.
    value = ANCHOR_EPACT
    if start == ANCHOR_YEAR:
        yield ANCHOR_YEAR, value
    for year in range(ANCHOR_YEAR + 1, end + 1):
        value = (value + 11 + _metonic(year) - _solar(year) + _lunar(year)) % 30
        if year >= start:
            yield year, value


def epact_by_recurrence(year: int) -> Epact:
    """Epact obtained by iterating the recurrence from the 1582 anchor.

    Linear in ``year - 1582``.
    """
    year = _check_year(year, ANCHOR_YEAR, RECURRENCE_MAX)
    [(_, value)] = _walk(year, year)
    return Epact(value, _special25(value, year % 19 + 1))


def solar_sum(year: int) -> int:
    """Number of solar corrections in 1583..year, by the century closed form."""
    year = _check_year(year, maximum=RECURRENCE_MAX)
    return 3 * (year // 100 + 1) // 4 - 12


def lunar_sum(year: int) -> int:
    """Number of lunar corrections in 1583..year, by the century closed form."""
    year = _check_year(year, maximum=RECURRENCE_MAX)
    return (8 * (year // 100 + 1) + 5) // 25 - 5


def lunar_sum_alt(year: int) -> int:
    """The lunar-correction count in the century-figure form of De Morgan's
    Easter rule.

    Written with true floors; the inner quotient goes negative for the
    1500s and 1600s and must round toward minus infinity there.  Agrees
    with :func:`lunar_sum` for every supported year, which the verification
    sweep holds it to.
    """
    year = _check_year(year, maximum=RECURRENCE_MAX)
    c = year // 100 + 1
    return (c - (c - 18) // 25 - 16) // 3


def jump(year: int) -> int:
    """Deviation of the new-year moon-age step from the usual +1.

    Equals ``metonic - solar + lunar`` for the year and ranges over -1..2.
    A nonzero jump makes the age skip, double, or stall across the
    December 31 / January 1 boundary.
    """
    year = _check_year(year, maximum=RECURRENCE_MAX)
    return _jump(year)
