"""Seeded input generators for the benchmark workloads, and their self-check.

Each generator is a pure function of the seed and a batch index: a run
takes batches 0, 1, 2, ... in turn, so its inputs form one seeded stream in
which no input recurs by design.  The program under test only ever sees the
generated inputs.  ``self_check`` regenerates the first batches and confirms
that they are identical, that the second differs from the first, and that
the first still reaches every branch the workload exists to exercise, so a
reseed or an edit here cannot silently drop one.
"""

from __future__ import annotations

import random
from functools import lru_cache

from oracle import (
    SPECIAL_25,
    YEAR_MAX,
    YEAR_MIN,
    epact_class,
    epact_of,
    is_leap,
    jump_of,
    lunar_correction_year,
)

# Requests per batch.
POINT_YEARS = 2000
TABLE_REQUESTS = 600
LOW_SPANS, LOW_LENGTH, LOW_START_MAX = 4, 500, 5_000
DEEP_SPANS, DEEP_LENGTH = 1, 400

# Share of years drawn from those whose January depends on the mode.
MODE_SENSITIVE_SHARE = 0.25

MODES = ("raw", "pronounced", "corrected")
CLI_FORMATS = {
    "table": ("text", "csv", "json"),
    "transition": ("text", "csv", "json"),
    "new-moons": ("text", "json"),
}

_TABLE_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


# Lunar corrections fall on century years only.
_LUNAR_YEARS = [y for y in range(1800, YEAR_MAX + 1, 100) if lunar_correction_year(y)]
_JUMP_2_YEARS = [y for y in _LUNAR_YEARS if y % 19 == 0]


def _mode_sensitive_year(rng: random.Random, kind: int, low: int) -> int:
    """A year whose January differs between modes, of one of four kinds:
    golden number 1, jump -1, jump 2, or any lunar-correction year."""
    if kind == 0:
        return 19 * rng.randint(-(-low // 19), YEAR_MAX // 19)
    if kind == 1:
        while True:
            y = 100 * rng.randint(-(-low // 100), YEAR_MAX // 100)
            if jump_of(y) == -1:
                return y
    if kind == 2:
        return rng.choice(_JUMP_2_YEARS)
    return rng.choice(_LUNAR_YEARS)


def _seeded_years(rng: random.Random, n: int, low: int) -> list[int]:
    """n years: uniform over low..YEAR_MAX with a fixed share of
    mode-sensitive ones, topped up so that all 31 epact classes appear."""
    sensitive = int(n * MODE_SENSITIVE_SHARE)
    years = [_mode_sensitive_year(rng, i % 4, low) for i in range(sensitive)]
    years += [rng.randint(low, YEAR_MAX) for _ in range(n - sensitive - 31)]
    seen = {epact_class(y) for y in years}
    for cls in range(SPECIAL_25 + 1):
        y = rng.randint(low, YEAR_MAX - 100_000)
        while cls not in seen and epact_class(y) != cls:
            y += 1
        years.append(y)
        seen.add(epact_class(y))
    rng.shuffle(years)
    return years


def _other_date(rng: random.Random) -> tuple[int, int]:
    month = rng.randint(2, 12)
    return month, rng.randint(1, _TABLE_MONTH_LENGTHS[month - 1])


def point_queries(seed: int, index: int = 0) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(year, four dates) per request.  Two dates fall in January, one of
    them inside the first lunation; one is Feb 29 in leap years."""
    rng = random.Random(f"point-queries/{seed}/{index}")
    items = []
    for year in _seeded_years(rng, POINT_YEARS, YEAR_MIN):
        first_lunation = (1, rng.randint(1, 30 - epact_of(year)))
        january = (1, rng.randint(1, 31))
        leap_day = (2, 29) if is_leap(year) else _other_date(rng)
        items.append((year, (first_lunation, january, leap_day, _other_date(rng))))
    return items


def year_tables(seed: int, index: int = 0) -> list[list[str]]:
    """CLI argument lists: every command, format and mode combination equally
    often, in seeded order on seeded years; half the text tables and
    transitions ask for colour."""
    rng = random.Random(f"year-tables/{seed}/{index}")
    kinds = [(c, f, m) for c, fs in CLI_FORMATS.items() for f in fs for m in MODES]
    items = []
    for i, year in enumerate(_seeded_years(rng, TABLE_REQUESTS, YEAR_MIN + 1)):
        command, fmt, mode = kinds[i % len(kinds)]
        argv = [command, str(year), "--mode", mode, "--format", fmt]
        if fmt == "text" and command != "new-moons" and (i // len(kinds)) % 2:
            argv.append("--color")
        items.append(argv)
    return items


@lru_cache(maxsize=2)
def _low_starts(seed: int, cycle: int) -> list[int]:
    starts = list(range(YEAR_MIN + 1, LOW_START_MAX + 1))
    random.Random(f"sweep-low/{seed}/{cycle}").shuffle(starts)
    return starts


def sweep_low(seed: int, index: int = 0) -> list[tuple[int, int]]:
    """Fixed-length spans starting at seeded years of the low range, drawn
    without replacement: no start recurs until all 3,417 have been used."""
    starts = _low_starts(seed, index * LOW_SPANS // (LOW_START_MAX - YEAR_MIN))
    first = index * LOW_SPANS % (LOW_START_MAX - YEAR_MIN)
    return [(s, s + LOW_LENGTH - 1) for s in starts[first : first + LOW_SPANS]]


def sweep_deep(seed: int, index: int = 0) -> list[tuple[int, int]]:
    """Short fixed-length spans straddling YEAR_MAX: a seeded quarter to
    three quarters of each span is dated, the rest recurrence-only."""
    rng = random.Random(f"sweep-deep/{seed}/{index}")
    spans = []
    for _ in range(DEEP_SPANS):
        dated = rng.randint(DEEP_LENGTH // 4, 3 * DEEP_LENGTH // 4)
        start = YEAR_MAX - dated + 1
        spans.append((start, start + DEEP_LENGTH - 1))
    return spans


GENERATORS = {
    "point-queries": point_queries,
    "year-tables": year_tables,
    "sweep-low": sweep_low,
    "sweep-deep": sweep_deep,
}


def _coverage(years: list[int]) -> list[str]:
    missing = []
    classes = {epact_class(y) for y in years}
    if len(classes) != SPECIAL_25 + 1:
        missing.append(f"epact classes {sorted(set(range(SPECIAL_25 + 1)) - classes)}")
    jumps = {jump_of(y) for y in years}
    if jumps != {-1, 0, 1, 2}:
        missing.append(f"jumps {sorted({-1, 0, 1, 2} - jumps)}")
    if not any(y % 19 == 0 for y in years):
        missing.append("golden number 1")
    return missing


def self_check(workload: str, seed: int) -> list[str]:
    """Problems with the workload's inputs for this seed; empty when fine."""
    generate = GENERATORS[workload]
    items = generate(seed)
    problems = [] if generate(seed) == items else ["same seed gave different inputs"]
    if generate(seed, 1) == items:
        problems.append("the second batch repeats the first")
    if workload == "point-queries":
        problems += _coverage([year for year, _ in items])
        dates = [(year, d) for year, ds in items for d in ds]
        if not any(m == 1 and d <= 30 - epact_of(y) for y, (m, d) in dates):
            problems.append("January first-lunation days")
        if (2, 29) not in {d for _, d in dates}:
            problems.append("Feb 29")
    elif workload == "year-tables":
        problems += _coverage([int(argv[1]) for argv in items])
        kinds = {(argv[0], argv[5], argv[3]) for argv in items}
        wanted = {(c, f, m) for c, fs in CLI_FORMATS.items() for f in fs for m in MODES}
        if kinds != wanted:
            problems.append(f"command/format/mode {sorted(wanted - kinds)}")
    else:
        length = LOW_LENGTH if workload == "sweep-low" else DEEP_LENGTH
        for start, end in items:
            if end - start + 1 != length:
                problems.append(f"span {start}..{end} is not {length} years long")
            elif workload == "sweep-low" and not YEAR_MIN < start <= LOW_START_MAX:
                problems.append(f"span {start}..{end} is not in the low range")
            elif workload == "sweep-deep" and not start <= YEAR_MAX < end:
                problems.append(f"span {start}..{end} does not straddle {YEAR_MAX}")
    return problems
