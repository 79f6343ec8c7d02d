"""Command-line front end: point queries, table emission, verification.

Exit codes: 0 on success, 1 when a verification property fails, 2 on bad
arguments, out-of-range dates or output that cannot be written (a full disk,
a closed descriptor).  When the reader of standard output closes it early,
the command stops writing and exits 0 without a message.

Tables render straight from the cached class ages, byte for byte as the
public table objects do under ``json.dumps(indent=2)`` and ``csv.writer``.

A table command in its plain form (an ASCII-digit year, then only the whole
words ``--mode V``, ``--format V`` and ``--color``) skips argparse, which is
imported only for help, usage errors and every other spelling.
"""

from __future__ import annotations

import functools
import os
import sys
import types

from . import core, tables
from .core import _TABLE_DATES

TYPE_CHECKING = False  # type checkers take it as true
if TYPE_CHECKING:
    import argparse

_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _parse_date(text: str) -> tuple[int, int, int]:
    try:
        year, month, day = map(int, text.split("-"))
    except ValueError:  # not three parts, or a part that is not an integer
        import argparse

        raise argparse.ArgumentTypeError(f"expected year-month-day, got {text!r}") from None
    return year, month, day


def _iso(year: int, month: int, day: int) -> str:
    return f"{year}-{month:02d}-{day:02d}"


def _cell(age: int, color: bool) -> str:
    mark = "*" if age == 1 else "^" if age == 14 else ""
    text = f"{age}{mark}".rjust(4)
    code = "\x1b[31m" if age == 1 else "\x1b[34m"  # red new moon, blue full moon
    return f"{code}{text}\x1b[0m" if color and mark else text


# Output fragments: one string per age (index 0 unused) and one per day, so
# that a table renders as one join over its class ages.
_HEADER = "".join(f"{d:>4}" for d in range(1, 32))
_CELLS = {color: tuple(_cell(age, color) for age in range(32)) for color in (False, True)}
_LABELS = tuple(f"\n{_MONTH_NAMES[m - 1]:<4}" if d == 1 else "" for m, d in _TABLE_DATES)
_CSV_DAYS = tuple(f"{m},{d}," for m, d in _TABLE_DATES)
_CSV_AGES = tuple(f"{age},{int(age == 1)},{int(age == 14)}\n" for age in range(32))
_JSON_DATES = tuple(f'    {{\n      "month": {m},\n      "day": {d},\n' for m, d in _TABLE_DATES)
_JSON_AGES = tuple(
    f'      "age": {age},\n      "new_moon": {str(age == 1).lower()},\n'
    f'      "full_moon": {str(age == 14).lower()}\n    }}'
    for age in range(32)
)
# Transition JSON items, {day, age} for days 1..31.
_JSON_DAYS = tuple(f'    {{\n      "day": {d},\n' for d in range(1, 32))
_JSON_DAY_AGES = tuple(f'      "age": {age}\n    }}' for age in range(32))


def _join(sep: str, days: tuple[str, ...], fragments: tuple[str, ...], ages) -> str:
    return sep.join(map(str.__add__, days, map(fragments.__getitem__, ages)))


def _json(year: int, mode: core.MoonAgeMode, **lists: str) -> str:
    # json.dumps(indent=2) of {year, mode, name: [items], ...}, items rendered.
    fields = [f'{{\n  "year": {year}', f'  "mode": "{mode.value}"']
    fields += [f'  "{name}": [\n{items}\n  ]' for name, items in lists.items()]
    return ",\n".join(fields) + "\n}"


def _cmd_epact(args: argparse.Namespace) -> int:
    e = core.epact(args.year)
    letter = tables.martyrology_letter(e, tables.load_letter_map(args.letters))
    print(
        f"epact {e.label} ({e.value}), golden {core.golden_number(args.year)}, "
        f"century {core.century_number(args.year)}, letter {letter.symbol}"
    )
    return 0


def _cmd_moon_age(args: argparse.Namespace) -> int:
    year, month, day = args.date
    print(core.age_in_mode(year, month, day, core.MoonAgeMode(args.mode)))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    year, mode = core._check_year(args.year), core.MoonAgeMode(args.mode)
    ages = core._ages(year, mode)
    if args.format == "json":
        print(_json(year, mode, entries=_join(",\n", _JSON_DATES, _JSON_AGES, ages)))
    elif args.format == "csv":
        print(",".join(tables.CSV_HEADER) + "\n" + _join("", _CSV_DAYS, _CSV_AGES, ages), end="")
    else:
        body = _join("", _LABELS, _CELLS[args.color], ages)
        print(f"year {year} ({mode.value})", "    " + _HEADER + body, sep="\n")
    return 0


def _cmd_transition(args: argparse.Namespace) -> int:
    mode = core.MoonAgeMode(args.mode)
    year, december, january = core._boundary(args.year, mode)
    if args.format == "json":
        items = [_join(",\n", _JSON_DAYS, _JSON_DAY_AGES, ages) for ages in (december, january)]
        print(_json(year, mode, december=items[0], january=items[1]))
    elif args.format == "csv":
        rows = [f"{year - 1},12,{d},{age}\n" for d, age in enumerate(december, 1)]
        rows += [f"{year},1,{d},{age}\n" for d, age in enumerate(january, 1)]
        print("year,month,day,age\n" + "".join(rows), end="")
    else:
        # "Jan <year>" is never shorter than "Dec <year - 1>".
        width, cells = len(f"Jan {year}") + 2, _CELLS[args.color].__getitem__
        print(
            f"December/January boundary of {year} ({mode.value} January)",
            " " * width + _HEADER,
            f"Dec {year - 1}".ljust(width) + "".join(map(cells, december)),
            f"Jan {year}".ljust(width) + "".join(map(cells, january)),
            sep="\n",
        )
    return 0


def _cmd_new_moons(args: argparse.Namespace) -> int:
    year, mode = args.year, core.MoonAgeMode(args.mode)
    dates = [_iso(year, *date) for date in tables.new_moon_dates(year, mode)]
    if args.format == "json":
        print(_json(year, mode, dates=",\n".join(f'    "{date}"' for date in dates)))
    else:
        print("\n".join(dates))
    return 0


def _cmd_easter(args: argparse.Namespace) -> int:
    month, day = tables.easter_date(args.year)
    print(_iso(args.year, month, day))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # only a sweep needs it, so other commands never load it
    # A bound the user left out is absent, so it takes verify_range's default.
    bounds = {name: value for name, value in vars(args).items() if name in ("start", "end")}
    report = verify.verify_range(**bounds)
    print(f"verifying years {report.start}..{report.end}")
    for check in report.checks:
        if check.ok:
            print(f"PASS {check.name} ({check.years_checked} years)")
        else:
            print(f"FAIL {check.name}: {check.counterexample}")
    if report.ok:
        print("all properties hold")
        return 0
    print(f"{len(report.failures)} of {len(report.checks)} properties failed")
    return 1


_MODES = tuple(m.value for m in core.MoonAgeMode)  # the first, raw, is the default
_GRID_FORMATS = ("text", "csv", "json")
# The table commands share a year, a January mode and an output format (the
# first listed is the default); new-moons prints a list of dates, so it has
# no CSV and no colour.  Per command: handler, help, formats, --color.
_TABLE_COMMANDS = {
    "table": (_cmd_table, "day-by-day lunar table for a year", _GRID_FORMATS, True),
    "transition": (_cmd_transition, "December/January ages around a new year", _GRID_FORMATS, True),
    "new-moons": (_cmd_new_moons, "dates of the year's new moons", ("text", "json"), False),
}


def _quick(argv: list[str]) -> types.SimpleNamespace | None:
    # What argparse returns for a table command in its plain form, without
    # argparse; None for anything else, which argparse then parses or rejects.
    if len(argv) < 2:
        return None
    command, year, *words = argv
    if command not in _TABLE_COMMANDS or not (year.isascii() and year.isdigit()):
        return None
    handler, _, formats, color = _TABLE_COMMANDS[command]
    args = {"mode": _MODES[0], "format": formats[0]} | ({"color": False} if color else {})
    choices = {"--mode": _MODES, "--format": formats}
    words = iter(words)
    for word in words:
        if word == "--color" and color:
            args["color"] = True
        elif word in choices and (value := next(words, None)) in choices[word]:
            args[word[2:]] = value
        else:
            return None
    try:
        year = int(year)
    except ValueError:  # more digits than int() reads: argparse says so
        return None
    return types.SimpleNamespace(command=command, year=year, handler=handler, **args)


def _add_choice(parser: argparse.ArgumentParser, flag: str, choices: tuple, text: str) -> None:
    default = choices[0]
    parser.add_argument(flag, choices=choices, default=default, help=f"{text} (default {default})")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and kept: parsing leaves the parser unchanged.
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_help(self, file=None) -> None:  # argparse's own writer drops write errors
            print(self.format_help(), end="", file=file)

    parser = _Parser(
        prog="computus",
        description="Age of the ecclesiastical moon in the Gregorian calendar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("epact", help="epact, golden number, century and letter of a year")
    p.add_argument("year", type=int)
    p.add_argument("--letters", metavar="PATH", help="custom letter mapping JSON file")
    p.set_defaults(handler=_cmd_epact)

    p = sub.add_parser("moon-age", help="age of the moon on a date")
    p.add_argument("date", type=_parse_date, help="year-month-day, e.g. 1945-08-15")
    _add_choice(p, "--mode", _MODES, "January treatment")
    p.set_defaults(handler=_cmd_moon_age)

    for name, (handler, text, formats, color) in _TABLE_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("year", type=int)
        _add_choice(p, "--mode", _MODES, "January treatment")
        _add_choice(p, "--format", formats, "output format")
        if color:
            p.add_argument("--color", action="store_true", help="ANSI colour in text output")
        p.set_defaults(handler=handler)

    p = sub.add_parser("easter", help="date of Easter Sunday")
    p.add_argument("year", type=int)
    p.set_defaults(handler=_cmd_easter)

    p = sub.add_parser("verify", help="run the property sweep over a year range")
    p.add_argument("--from", dest="start", metavar="FROM_YEAR", type=int, default=argparse.SUPPRESS)
    p.add_argument("--to", dest="end", metavar="TO_YEAR", type=int, default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for i, word in enumerate(argv):
        if not isinstance(word, str):
            raise TypeError(f"argv[{i}] must be str, not {type(word).__name__}")
    args = _quick(argv) or _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        try:
            code = main()
        except SystemExit as exc:  # help and usage errors: their output is checked below
            code = exc.code
        if sys.stdout is not None:
            sys.stdout.flush()
        elif code != 2:  # descriptor 1 was closed at start; exit 2 already said why on stderr
            raise OSError("standard output is closed")
    except OSError as exc:
        # A reader that closes the pipe early ends the output; it is no error.
        code = 0 if isinstance(exc, BrokenPipeError) else 2
        if code:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is not None:  # devnull takes the flush at exit, which cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
