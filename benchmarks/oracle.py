"""Independent oracles and output checks for the benchmark.

Nothing here imports ``computus``: the checks must not share code with the
program they judge.  Easter comes from the classical tabular computus
(Knuth, *TAOCP* Vol. 1, 1.3.2 Ex. 14); the epact class and the new-year
jump come from the same century corrections, written out again here.
Each ``check_*`` function returns ``None`` for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import re

YEAR_MIN = 1583
YEAR_MAX = 4_000_000
SPECIAL_25 = 30  # epact class of the Arabic-numeral 25

_ANSI = re.compile(r"\x1b\[\d+m")


def is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def epact_of(year: int) -> int:
    """Epact value 0..29 from Knuth's golden number and century terms."""
    g = year % 19 + 1
    c = year // 100 + 1
    x = 3 * c // 4 - 12
    z = (8 * c + 5) // 25 - 5
    return (11 * g + 20 + z - x) % 30


def epact_class(year: int) -> int:
    """0..29, or SPECIAL_25 for the epact 25 of golden numbers 12..19."""
    e = epact_of(year)
    return SPECIAL_25 if e == 25 and year % 19 + 1 > 11 else e


def lunar_correction_year(year: int) -> bool:
    offset = (year - 1800) % 2500
    return offset % 300 == 0 and offset // 300 <= 7


def jump_of(year: int) -> int:
    """Metonic minus solar plus lunar correction of the year, -1..2."""
    metonic = year % 19 == 0
    solar = year % 100 == 0 and year % 400 != 0
    return int(metonic) - int(solar) + int(lunar_correction_year(year))


def classical_easter(year: int) -> tuple[int, int]:
    """Gregorian Easter Sunday as (month, day), by the tabular algorithm."""
    g = year % 19 + 1
    c = year // 100 + 1
    x = 3 * c // 4 - 12
    z = (8 * c + 5) // 25 - 5
    d = 5 * year // 4 - x - 10
    e = (11 * g + 20 + z - x) % 30
    if (e == 25 and g > 11) or e == 24:
        e += 1
    n = 44 - e
    if n < 21:
        n += 30
    n = n + 7 - (d + n) % 7
    return (4, n - 31) if n > 31 else (3, n)


def _age_limit(mode: str) -> int:
    return 31 if mode == "corrected" else 30


def _check_ages(ages: list[int], mode: str, what: str) -> str | None:
    limit = _age_limit(mode)
    for i, age in enumerate(ages):
        if not 1 <= age <= limit:
            return f"{what}: age {age} at index {i} outside 1..{limit}"
    return None


def _check_year_ages(ages: list[int], mode: str, what: str) -> str | None:
    if len(ages) != 365:
        return f"{what}: {len(ages)} days, expected 365"
    bad = _check_ages(ages, mode, what)
    if bad:
        return bad
    new_moons = ages.count(1)
    if new_moons not in (12, 13):
        return f"{what}: {new_moons} new moons"
    return None


# -- point queries ----------------------------------------------------------


def check_point(year: int, dates, out) -> str | None:
    """``out`` is (epact value, special25, letter, easter, jump, ages) where
    ages holds a (raw, pronounced, corrected) triple per date."""
    value, special25, letter, easter, jump, ages = out
    cls = epact_class(year)
    if value != epact_of(year) or special25 != (cls == SPECIAL_25):
        return f"year {year}: epact {value}/{special25}, expected class {cls}"
    symbol, distinct = letter
    if not isinstance(symbol, str) or not symbol or distinct != special25:
        return f"year {year}: letter {letter!r}"
    if tuple(easter) != classical_easter(year):
        return f"year {year}: easter {tuple(easter)}, classical {classical_easter(year)}"
    if jump != jump_of(year):
        return f"year {year}: jump {jump}, expected {jump_of(year)}"
    for (month, day), (raw, pronounced, corrected) in zip(dates, ages):
        for mode, age in (("raw", raw), ("pronounced", pronounced), ("corrected", corrected)):
            if not 1 <= age <= _age_limit(mode):
                return f"{year}-{month:02d}-{day:02d}: {mode} age {age}"
        if month != 1 and not raw == pronounced == corrected:
            return f"{year}-{month:02d}-{day:02d}: modes differ outside January"
    return None


# -- CLI products -----------------------------------------------------------


def _check_json_bytes(text: str) -> tuple[object, str | None]:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"
    if json.dumps(obj, indent=2) + "\n" != text:
        return obj, "JSON does not re-serialise byte-identically"
    return obj, None


def _text_cells(line: str, skip: int) -> list[int]:
    body = line[skip:]
    cells = [body[i : i + 4] for i in range(0, len(body), 4)]
    return [int(c.strip().rstrip("*^")) for c in cells]


def _check_table(fmt: str, year: int, mode: str, out: str) -> str | None:
    what = f"table {year} {mode} {fmt}"
    if fmt == "json":
        obj, bad = _check_json_bytes(out)
        if bad:
            return f"{what}: {bad}"
        if obj["year"] != year or obj["mode"] != mode:
            return f"{what}: header {obj['year']} {obj['mode']}"
        entries = obj["entries"]
        for e in entries:
            if e["new_moon"] != (e["age"] == 1) or e["full_moon"] != (e["age"] == 14):
                return f"{what}: flags wrong on {e['month']}-{e['day']}"
        ages = [e["age"] for e in entries]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["month", "day", "age", "new_moon", "full_moon"]:
            return f"{what}: header {rows[0]}"
        ages = [int(r[2]) for r in rows[1:]]
        if any(int(r[3]) != (int(r[2]) == 1) for r in rows[1:]):
            return f"{what}: new_moon column disagrees with ages"
    else:
        lines = _ANSI.sub("", out).rstrip("\n").split("\n")
        if lines[0] != f"year {year} ({mode})" or len(lines) != 14:
            return f"{what}: unexpected layout"
        ages = [a for line in lines[2:] for a in _text_cells(line, 4)]
    return _check_year_ages(ages, mode, what)


def _check_transition(fmt: str, year: int, mode: str, out: str) -> str | None:
    what = f"transition {year} {mode} {fmt}"
    if fmt == "json":
        obj, bad = _check_json_bytes(out)
        if bad:
            return f"{what}: {bad}"
        december = [d["age"] for d in obj["december"]]
        january = [d["age"] for d in obj["january"]]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        december = [int(r[3]) for r in rows if r[1] == "12"]
        january = [int(r[3]) for r in rows if r[1] == "1"]
    else:
        lines = _ANSI.sub("", out).rstrip("\n").split("\n")
        width = len(lines[1]) - 4 * 31
        december = _text_cells(lines[2], width)
        january = _text_cells(lines[3], width)
    if len(december) != 31 or len(january) != 31:
        return f"{what}: {len(december)} December and {len(january)} January days"
    return _check_ages(december, "raw", what) or _check_ages(january, mode, what)


def _check_new_moons(fmt: str, year: int, mode: str, out: str) -> str | None:
    what = f"new-moons {year} {mode} {fmt}"
    if fmt == "json":
        obj, bad = _check_json_bytes(out)
        if bad:
            return f"{what}: {bad}"
        dates = obj["dates"]
    else:
        dates = out.split()
    if len(dates) not in (12, 13):
        return f"{what}: {len(dates)} new moons"
    if dates != sorted(dates) or any(not d.startswith(f"{year}-") for d in dates):
        return f"{what}: dates out of order or in another year"
    return None


_CLI_CHECKS = {
    "table": _check_table,
    "transition": _check_transition,
    "new-moons": _check_new_moons,
}


def check_cli(argv: list[str], out) -> str | None:
    """``out`` is (exit code, stdout, stderr) of ``cli.main(argv)``."""
    code, stdout, stderr = out
    if code != 0 or stderr:
        return f"{' '.join(argv)}: exit {code}, stderr {stderr!r}"
    command, year = argv[0], int(argv[1])
    mode = argv[argv.index("--mode") + 1]
    fmt = argv[argv.index("--format") + 1]
    return _CLI_CHECKS[command](fmt, year, mode, stdout)


# -- sweeps -----------------------------------------------------------------


def check_report(span: tuple[int, int], report) -> str | None:
    """The report must pass, and each check must cover exactly the span's
    years: every year for the epact identities, the dated years for the
    day-level checks."""
    start, end = span
    if report.start != start or report.end != end:
        return f"report covers {report.start}..{report.end}, not {start}..{end}"
    if not report.ok:
        failed = "; ".join(f"{c.name}: {c.counterexample}" for c in report.checks if not c.ok)
        return f"span {start}..{end} failed: {failed}"
    every = end - start + 1
    dated = max(0, min(end, YEAR_MAX) - start + 1)
    counts = sorted({c.years_checked for c in report.checks})
    if counts != sorted({dated, every}):
        return f"span {start}..{end}: years checked {counts}, expected {dated} and {every}"
    return None
