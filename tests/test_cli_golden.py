"""The CLI's output is pinned byte for byte.

A fixed command set runs through ``cli.main`` in process, and the SHA-256
digest of each command's exit code, stdout and stderr must equal the one in
``data/cli_golden.json``.  The set covers one year of every epact class and
the edge years, every table command in every mode and format, the point
queries, two verify sweeps and the package's own input errors.  ``--help``
and argparse usage errors are left out: their text depends on the terminal
width and the Python version.

Without pytest, ``PYTHONPATH=src python tests/test_cli_golden.py`` runs the
same check and exits 1 naming the first changed commands.  After an intended
output change, rewrite the fixture by adding ``--write`` and review its diff.
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

from computus import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# The first year from 1584 of each of the 31 epact classes (1916 has the
# special 25), then the edge years: the jump -1 year 4200, the jump-2 years
# 15200 and 106400, the jump-1 year 16400, and the dated ceiling and the
# year before it.
CLASS_YEARS = (
    1584, 1585, 1586, 1587, 1588, 1589, 1590, 1591, 1592, 1593, 1594,
    1595, 1596, 1597, 1598, 1599, 1600, 1601, 1602, 1700, 1701, 1710,
    1711, 1712, 1713, 1714, 1715, 1716, 1717, 1718, 1916,
)
EDGE_YEARS = (4200, 15200, 16400, 106400, 3_999_999, 4_000_000)
MODES = ("raw", "pronounced", "corrected")
DATES = ("01-01", "01-20", "03-21", "12-31")

ERRORS = (
    ("epact", "1582"),
    ("epact", "4000001"),
    ("epact", "1945", "--letters", "no-such-letters.json"),
    ("table", "4000001"),
    ("transition", "1583"),
    ("new-moons", "1582", "--mode", "corrected"),
    ("easter", "1"),
    ("moon-age", "1900-02-29"),
    ("moon-age", "2033-13-01"),
    ("moon-age", "2033-04-31", "--mode", "corrected"),
    ("verify", "--from", "1582", "--to", "1600"),
    ("verify", "--from", "1600", "--to", "1599"),
    ("verify", "--from", "1583", "--to", "10000001"),
)


def commands():
    for year in map(str, CLASS_YEARS + EDGE_YEARS):
        for name in ("table", "transition"):
            for mode in MODES:
                for fmt in ("text", "csv", "json"):
                    yield name, year, "--mode", mode, "--format", fmt
                yield name, year, "--mode", mode, "--color"
        for mode in MODES:
            for fmt in ("text", "json"):
                yield "new-moons", year, "--mode", mode, "--format", fmt
            for date in DATES:
                yield "moon-age", f"{year}-{date}", "--mode", mode
        yield "epact", year
        yield "easter", year
    yield "verify", "--from", "1583", "--to", "1700"
    yield "verify", "--from", "3999990", "--to", "4000050"
    yield from ERRORS


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def digests():
    return {" ".join(argv): digest(argv) for argv in commands()}


def changed_commands(actual):
    # Commands whose digest differs from the fixture's, or that one side lacks.
    golden = json.loads(GOLDEN.read_text("utf-8"))
    commands = {**actual, **golden}
    return [command for command in commands if actual.get(command) != golden.get(command)]


def report(changed):
    return f"{len(changed)} commands changed output, first: {changed[:5]}"


def test_cli_output_matches_golden():
    changed = changed_commands(digests())
    assert not changed, report(changed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check the CLI output against the fixture.")
    parser.add_argument("--write", action="store_true", help="rewrite the fixture instead")
    actual = digests()
    if parser.parse_args().write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(actual, indent=0) + "\n", "utf-8")
    elif changed := changed_commands(actual):
        raise SystemExit(report(changed))
    else:
        print(f"{len(actual)} commands match {GOLDEN.name}")
