"""The CLI renders tables straight from the class tables.  These tests hold
its output to the public objects rendered independently: the JSON and CSV
of the year and transition tables the standard way, the text table with and
without colour, the new moons in text and JSON, and Easter.  They also check
that one argparse parser serves the calls that need one."""

import csv
import functools
import io
import json

import pytest

from computus import (
    CSV_HEADER,
    MoonAgeMode,
    cli,
    easter_date,
    epact,
    golden_number,
    jump,
    new_moon_dates,
    transition_table,
    year_table,
)

EDGE_YEARS = (15200, 106400, 4_000_000)
MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _shift(year, e, mode):
    # How far each mode moves the first January lunation down.
    if mode is MoonAgeMode.CORRECTED:
        return jump(year)
    if mode is MoonAgeMode.PRONOUNCED:
        return int(golden_number(year) == 1 and e.value > 0)
    return 0


@functools.lru_cache(maxsize=None)
def _key_years():
    # Per mode, the first year of every (epact class, January shift) key
    # that occurs in 1584..200,000, then the edge years.
    first = {mode: {} for mode in MoonAgeMode}
    for year in range(1584, 200_001):
        e = epact(year)
        for mode, years in first.items():
            years.setdefault((e.value, e.special25, _shift(year, e, mode)), year)
    return {mode: sorted(years.values()) + list(EDGE_YEARS) for mode, years in first.items()}


def _cli(capsys, *argv):
    assert cli.main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _iso(year, month, day):
    return f"{year}-{month:02d}-{day:02d}"


def _text(table, color):
    # The text table: a day header, then per month its name and a 4-wide
    # cell per day, the new moon marked "*" (red) and the full moon "^" (blue).
    def cell(entry):
        mark = "*" if entry.is_new_moon else "^" if entry.is_full_moon else ""
        text = f"{entry.age}{mark}".rjust(4)
        if not (color and mark):
            return text
        return ("\x1b[31m" if entry.is_new_moon else "\x1b[34m") + text + "\x1b[0m"

    header = " " * 4 + "".join(f"{d:>4}" for d in range(1, 32))
    lines = [f"year {table.year} ({table.mode.value})", header]
    for month, name in enumerate(MONTHS, 1):
        cells = "".join(cell(entry) for entry in table.entries if entry.month == month)
        lines.append(name.ljust(4) + cells)
    return "\n".join(lines) + "\n"


def test_key_years_cover_every_class_and_jump():
    years = _key_years()
    assert len(years[MoonAgeMode.RAW]) == 31 + len(EDGE_YEARS)
    assert {jump(year) for year in years[MoonAgeMode.CORRECTED]} == {-1, 0, 1, 2}


@pytest.mark.parametrize("mode", list(MoonAgeMode), ids=lambda m: m.value)
def test_year_table_output_equals_public_rendering(capsys, mode):
    for year in _key_years()[mode]:
        table = year_table(year, mode)
        argv = ("table", str(year), "--mode", mode.value, "--format")
        assert _cli(capsys, *argv, "json") == json.dumps(table.as_dict(), indent=2) + "\n"
        rows = [
            (e.month, e.day, e.age, int(e.is_new_moon), int(e.is_full_moon)) for e in table.entries
        ]
        assert _cli(capsys, *argv, "csv") == _csv(CSV_HEADER, rows)


@pytest.mark.parametrize("mode", list(MoonAgeMode), ids=lambda m: m.value)
def test_transition_output_equals_public_rendering(capsys, mode):
    for year in _key_years()[mode]:
        table = transition_table(year, mode)
        argv = ("transition", str(year), "--mode", mode.value, "--format")
        assert _cli(capsys, *argv, "json") == json.dumps(table.as_dict(), indent=2) + "\n"
        rows = [(year - 1, 12, d, a) for d, a in table.december]
        rows += [(year, 1, d, a) for d, a in table.january]
        assert _cli(capsys, *argv, "csv") == _csv(("year", "month", "day", "age"), rows)


@pytest.mark.parametrize("mode", list(MoonAgeMode), ids=lambda m: m.value)
def test_text_table_output_equals_public_rendering(capsys, mode):
    for year in _key_years()[mode]:
        table = year_table(year, mode)
        argv = ("table", str(year), "--mode", mode.value)
        assert _cli(capsys, *argv) == _text(table, color=False)
        assert _cli(capsys, *argv, "--format", "text", "--color") == _text(table, color=True)


@pytest.mark.parametrize("mode", list(MoonAgeMode), ids=lambda m: m.value)
def test_new_moons_output_equals_new_moon_dates(capsys, mode):
    for year in _key_years()[mode]:
        dates = [_iso(year, *date) for date in new_moon_dates(year, mode)]
        argv = ("new-moons", str(year), "--mode", mode.value, "--format")
        assert _cli(capsys, *argv, "text") == "".join(date + "\n" for date in dates)
        document = {"year": year, "mode": mode.value, "dates": dates}
        assert _cli(capsys, *argv, "json") == json.dumps(document, indent=2) + "\n"


def test_easter_output_equals_easter_date(capsys):
    for year in sorted({year for years in _key_years().values() for year in years}):
        assert _cli(capsys, "easter", str(year)) == _iso(year, *easter_date(year)) + "\n"


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    cli._build_parser.cache_clear()
    real = cli._build_parser
    served = []
    monkeypatch.setattr(cli, "_build_parser", lambda: served.append(real()) or served[-1])
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "abc"])
    assert exc.value.code == 2 and len(served) == 1
    capsys.readouterr()
    colored = _cli(capsys, "table", "2033", "--format", "text", "--color")
    plain = _cli(capsys, "table", "2033", "--format", "text")
    assert "\x1b[" in colored
    assert "\x1b[" not in plain
    for argv in (
        ["epact", "1945"],
        ["moon-age", "2033-01-01", "--mode", "corrected"],
        ["transition", "2033", "--format", "csv"],
        ["new-moons", "2033"],
        ["easter", "2033"],
        ["verify", "--from", "1583", "--to", "1584"],
    ):
        _cli(capsys, *argv)
    assert len(served) == 1  # no command in its plain form reaches argparse
    assert _cli(capsys, "table", "2033", "--format=text") == plain
    assert len(served) == 2 and len({id(p) for p in served}) == 1
    assert real.cache_info().misses == 1
