"""Command-line front end: point queries, table emission, verification.

Exit codes: 0 on success, 1 when a verification property fails, 2 on bad
arguments, out-of-range dates or output that cannot be written (a full disk,
a closed descriptor).  When the reader of standard output closes it early,
the command stops writing and exits 0 without a message.

Tables fill each day's age into a layout built at import and join it, byte
for byte as ``json.dumps(indent=2)`` and ``csv.writer`` render the tables.

``_GRAMMAR`` declares every command once.  A command in its plain form (its
positional in ASCII digits, then only whole-word options) skips argparse, which
only ``_build_parser`` imports, for help, usage errors, ``--opt=value``,
prefixes, ``--``, options before the positional, signed or non-ASCII numbers.
Each handler takes its parsed values as keywords, under argparse's dest names.
"""

from __future__ import annotations

import functools
import os
import sys

from . import core, tables
from .core import _TABLE_DATES

_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _cell(age: int, color: bool) -> str:
    mark = "*" if age == 1 else "^" if age == 14 else ""
    text = f"{age}{mark}".rjust(4)
    code = "\x1b[31m" if age == 1 else "\x1b[34m"  # red new moon, blue full moon
    return f"{code}{text}\x1b[0m" if color and mark else text


def _layout(texts: list[str], sep: str = "") -> list[str]:
    # Each day's text, after sep unless first, then an empty slot for its age.
    layout = [""] * (2 * len(texts))
    layout[::2] = [sep + text for text in texts]
    layout[0] = texts[0]
    return layout


# Output fragments: a layout of the days and one string per age (index 0
# unused), so that a table renders as one copy, one slot fill and one join.
_HEADER = "".join(f"{d:>4}" for d in range(1, 32))
_CELLS = {color: tuple(_cell(age, color) for age in range(32)) for color in (False, True)}
_LABELS = _layout([f"\n{_MONTH_NAMES[m - 1]:<4}" if d == 1 else "" for m, d in _TABLE_DATES])
_CSV_DAYS = _layout([f"{m},{d}," for m, d in _TABLE_DATES])
_CSV_AGES = tuple(f"{age},{int(age == 1)},{int(age == 14)}\n" for age in range(32))
_JSON_DATES = _layout(
    [f'    {{\n      "month": {m},\n      "day": {d},\n' for m, d in _TABLE_DATES], ",\n"
)
_JSON_AGES = tuple(
    f'      "age": {age},\n      "new_moon": {str(age == 1).lower()},\n'
    f'      "full_moon": {str(age == 14).lower()}\n    }}'
    for age in range(32)
)
_JSON_DAYS = _layout([f'    {{\n      "day": {d},\n' for d in range(1, 32)], ",\n")  # transitions
_JSON_DAY_AGES = tuple(f'      "age": {age}\n    }}' for age in range(32))
_TWO = tuple(f"{n:02d}" for n in range(32))  # month and day numbers in dates


def _join(layout: list[str], fragments: tuple[str, ...], ages) -> str:
    parts = layout.copy()
    parts[1::2] = [fragments[age] for age in ages]
    return "".join(parts)


def _json(year: int, mode: core.MoonAgeMode, **lists: str) -> str:
    # json.dumps(indent=2) of {year, mode, name: [items], ...}, items rendered.
    fields = "".join(f',\n  "{name}": [\n{items}\n  ]' for name, items in lists.items())
    return f'{{\n  "year": {year},\n  "mode": "{mode.value}"{fields}\n}}'


def _cmd_epact(year: int, letters: str | None) -> int:
    e = core.epact(year)
    letter = tables.martyrology_letter(e, tables.load_letter_map(letters))
    print(
        f"epact {e.label} ({e.value}), golden {core.golden_number(year)}, "
        f"century {core.century_number(year)}, letter {letter.symbol}"
    )
    return 0


def _cmd_moon_age(date: tuple[int, int, int], mode: str) -> int:
    year, month, day = date
    print(core.age_in_mode(year, month, day, core.MoonAgeMode(mode)))
    return 0


def _cmd_table(year: int, mode: str, format: str, color: bool) -> int:
    year, mode = core._check_year(year), core.MoonAgeMode(mode)
    ages = core._ages(year, mode)
    if format == "json":
        print(_json(year, mode, entries=_join(_JSON_DATES, _JSON_AGES, ages)))
    elif format == "csv":
        print(",".join(tables.CSV_HEADER) + "\n" + _join(_CSV_DAYS, _CSV_AGES, ages), end="")
    else:
        body = _join(_LABELS, _CELLS[color], ages)
        print(f"year {year} ({mode.value})", "    " + _HEADER + body, sep="\n")
    return 0


def _cmd_transition(year: int, mode: str, format: str, color: bool) -> int:
    mode = core.MoonAgeMode(mode)
    year, december, january = core._boundary(year, mode)
    if format == "json":
        items = [_join(_JSON_DAYS, _JSON_DAY_AGES, ages) for ages in (december, january)]
        print(_json(year, mode, december=items[0], january=items[1]))
    elif format == "csv":
        rows = [f"{year - 1},12,{d},{age}\n" for d, age in enumerate(december, 1)]
        rows += [f"{year},1,{d},{age}\n" for d, age in enumerate(january, 1)]
        print("year,month,day,age\n" + "".join(rows), end="")
    else:
        # "Jan <year>" is never shorter than "Dec <year - 1>".
        width, cells = len(f"Jan {year}") + 2, _CELLS[color].__getitem__
        print(
            f"December/January boundary of {year} ({mode.value} January)",
            " " * width + _HEADER,
            f"Dec {year - 1}".ljust(width) + "".join(map(cells, december)),
            f"Jan {year}".ljust(width) + "".join(map(cells, january)),
            sep="\n",
        )
    return 0


def _cmd_new_moons(year: int, mode: str, format: str) -> int:
    mode = core.MoonAgeMode(mode)
    dates = [f"{year}-{_TWO[m]}-{_TWO[d]}" for m, d in tables.new_moon_dates(year, mode)]
    if format == "json":
        print(_json(year, mode, dates=",\n".join(f'    "{date}"' for date in dates)))
    else:
        print("\n".join(dates))
    return 0


def _cmd_easter(year: int) -> int:
    month, day = tables.easter_date(year)
    print(f"{year}-{_TWO[month]}-{_TWO[day]}")
    return 0


def _cmd_verify(**bounds: int) -> int:
    from . import verify  # only a sweep needs it, so other commands never load it
    # A bound the user left out is absent, so it takes verify_range's default.
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
_MODE = ("--mode", "mode", _MODES, "January treatment")
_GRID = [_MODE, ("--format", "format", ("text", "csv", "json"), "output format"),
         ("--color", "color", bool, "ANSI colour in text output")]  # fmt: skip
# Every command's handler, help, positional ("year", "date" or None) and
# options, in help order.  An option is (flag, dest, kind, help), plus a metavar
# for a str or int; its kind is its choices (the first the default), bool for a
# flag, str for a value that defaults to None, or int for one absent if left out.
_GRAMMAR = {
    "epact": (_cmd_epact, "epact, golden number, century and letter of a year", "year",
              [("--letters", "letters", str, "custom letter mapping JSON file", "PATH")]),
    "moon-age": (_cmd_moon_age, "age of the moon on a date", "date", [_MODE]),
    "table": (_cmd_table, "day-by-day lunar table for a year", "year", _GRID),
    "transition": (_cmd_transition, "December/January ages around a new year", "year", _GRID),
    "new-moons": (_cmd_new_moons, "dates of the year's new moons", "year",
                  [_MODE, ("--format", "format", ("text", "json"), "output format")]),
    "easter": (_cmd_easter, "date of Easter Sunday", "year", []),
    "verify": (_cmd_verify, "run the property sweep over a year range", None,
               [("--from", "start", int, None, "FROM_YEAR"),
                ("--to", "end", int, None, "TO_YEAR")]),
}  # fmt: skip
_PLAIN = {  # per command, for _quick: vars() with no option given, positional, flags
    name: (
        {"command": name, "handler": handler}
        | {dest: False if kind is bool else None if kind is str else kind[0]
           for _, dest, kind, *_ in options if kind is not int},
        positional,
        {flag: (dest, kind) for flag, dest, kind, *_ in options},
    )
    for name, (handler, _, positional, options) in _GRAMMAR.items()
}  # fmt: skip


def _int(word: str) -> int:
    if not (word.isascii() and word.isdigit()):  # argparse reads signs, spaces, other digits
        raise ValueError(word)
    return int(word)  # ValueError past the digits int() reads, which argparse reports


def _quick(argv: list[str]) -> dict | None:
    # vars() of argparse's result for a command in its plain form, without
    # argparse: the command, its positional in ASCII digits, then only whole-
    # word options.  None for anything else, which argparse parses or rejects.
    if not argv or argv[0] not in _PLAIN:
        return None
    args, positional, flags = _PLAIN[argv[0]]
    args, words = args.copy(), iter(argv[1:])
    try:
        if positional == "year":
            args["year"] = _int(next(words))
        elif positional == "date":
            year, month, day = map(_int, next(words).split("-"))
            args["date"] = year, month, day
        for word in words:
            dest, kind = flags[word]
            value = True if kind is bool else next(words)
            if kind is int:
                value = _int(value)
            elif kind is str and value.startswith("-") or type(kind) is tuple and value not in kind:
                return None  # a choice it lacks, or a str that argparse reads as an option
            args[dest] = value
    except (KeyError, StopIteration, ValueError):  # another word, a missing value or number
        return None
    return args


@functools.lru_cache(maxsize=None)
def _build_parser():
    # Built on first use and kept: parsing leaves the parser unchanged.
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_help(self, file=None) -> None:  # argparse's own writer drops write errors
            print(self.format_help(), end="", file=file)

    def _parse_date(text: str) -> tuple[int, int, int]:
        try:
            year, month, day = map(int, text.split("-"))
        except ValueError:  # not three parts, or a part that is not an integer
            raise argparse.ArgumentTypeError(f"expected year-month-day, got {text!r}") from None
        return year, month, day

    parser = _Parser(
        prog="computus",
        description="Age of the ecclesiastical moon in the Gregorian calendar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, positional, options) in _GRAMMAR.items():
        p = sub.add_parser(name, help=summary)
        if positional == "year":
            p.add_argument("year", type=int)
        elif positional == "date":
            p.add_argument("date", type=_parse_date, help="year-month-day, e.g. 1945-08-15")
        for flag, dest, kind, text, *meta in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=text)
            elif type(kind) is tuple:
                text = f"{text} (default {kind[0]})"
                p.add_argument(flag, dest=dest, choices=kind, default=kind[0], help=text)
            else:  # a str left out is None, an int left out is absent
                default = None if kind is str else argparse.SUPPRESS
                p.add_argument(flag, dest=dest, metavar=meta[0], type=kind, default=default,
                               help=text)  # fmt: skip
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if isinstance(argv, (str, bytes)):  # list() would take it one character at a time
        raise TypeError(f"argv must be an iterable of str, not {type(argv).__name__}")
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, word in enumerate(argv):
        if not isinstance(word, str):
            raise TypeError(f"argv[{i}] must be str, not {type(word).__name__}")
    args = _quick(argv) or vars(_build_parser().parse_args(argv))
    del args["command"]
    try:
        return args.pop("handler")(**args)
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
