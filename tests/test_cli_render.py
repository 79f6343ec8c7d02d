"""The CLI renders tables straight from the class tables.  These tests hold
its JSON and CSV output to the public table objects rendered the standard
way, and check that one argparse parser serves the calls that need one."""

import csv
import functools
import io
import json

import pytest

from computus import (
    CSV_HEADER,
    MoonAgeMode,
    cli,
    epact,
    golden_number,
    jump,
    transition_table,
    year_table,
)

EDGE_YEARS = (15200, 106400, 4_000_000)


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
    assert len(served) == 1  # plain table commands never reach argparse
    assert _cli(capsys, "table", "2033", "--format=text") == plain
    assert len(served) == 2 and len({id(p) for p in served}) == 1
    assert real.cache_info().misses == 1
