"""Command-line front end: point queries, table emission, verification.

Exit codes: 0 on success, 1 when a verification property fails, 2 on bad
arguments or out-of-range dates.  When the reader of standard output closes
it early, the command stops writing and exits 0 without a message.
"""

from __future__ import annotations

import argparse
import calendar as _stdcal
import csv
import json
import os
import sys

from . import core, tables, verify

_RED = "\x1b[31m"
_BLUE = "\x1b[34m"
_RESET = "\x1b[0m"


def _parse_date(text: str) -> tuple[int, int, int]:
    parts = text.split("-")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected year-month-day, got {text!r}")
    try:
        year, month, day = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected year-month-day, got {text!r}") from None
    return year, month, day


def _iso(year: int, month: int, day: int) -> str:
    return f"{year}-{month:02d}-{day:02d}"


def _mode(args: argparse.Namespace) -> tables.MoonAgeMode:
    return tables.MoonAgeMode(args.mode)


def _cell(age: int, color: bool) -> str:
    mark = "*" if age == 1 else "^" if age == 14 else ""
    text = f"{age}{mark}".rjust(4)
    if color and mark:
        code = _RED if age == 1 else _BLUE
        return f"{code}{text}{_RESET}"
    return text


def _header_row(label_width: int) -> str:
    return " " * label_width + "".join(f"{d:>4}" for d in range(1, 32))


def _render_year_table(table: tables.YearLunarTable, color: bool) -> str:
    lines = [f"year {table.year} ({table.mode.value})", _header_row(4)]
    by_month: dict[int, list[int]] = {}
    for entry in table.entries:
        by_month.setdefault(entry.month, []).append(entry.age)
    for month in range(1, 13):
        cells = "".join(_cell(age, color) for age in by_month[month])
        lines.append(f"{_stdcal.month_abbr[month]:<4}" + cells)
    return "\n".join(lines)


def _render_transition(table: tables.TransitionTable, color: bool) -> str:
    dec_label = f"Dec {table.year - 1}"
    jan_label = f"Jan {table.year}"
    width = max(len(dec_label), len(jan_label)) + 2
    lines = [
        f"December/January boundary of {table.year} ({table.mode.value} January)",
        _header_row(width),
        dec_label.ljust(width) + "".join(_cell(a, color) for _, a in table.december),
        jan_label.ljust(width) + "".join(_cell(a, color) for _, a in table.january),
    ]
    return "\n".join(lines)


def _write_csv(rows, header) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_epact(args: argparse.Namespace) -> int:
    e = core.epact(args.year)
    letters = tables.load_letter_map(args.letters) if args.letters else None
    letter = tables.martyrology_letter(e, letters)
    print(
        f"epact {e.label} ({e.value}), golden {core.golden_number(args.year)}, "
        f"century {core.century_number(args.year)}, letter {letter.symbol}"
    )
    return 0


def _cmd_moon_age(args: argparse.Namespace) -> int:
    year, month, day = args.date
    print(tables.age_in_mode(year, month, day, _mode(args)))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = tables.year_table(args.year, _mode(args))
    if args.format == "json":
        print(json.dumps(table.as_dict(), indent=2))
    elif args.format == "csv":
        _write_csv(
            (
                (e.month, e.day, e.age, int(e.is_new_moon), int(e.is_full_moon))
                for e in table.entries
            ),
            tables.CSV_HEADER,
        )
    else:
        print(_render_year_table(table, args.color))
    return 0


def _cmd_transition(args: argparse.Namespace) -> int:
    table = tables.transition_table(args.year, _mode(args))
    if args.format == "json":
        print(json.dumps(table.as_dict(), indent=2))
    elif args.format == "csv":
        rows = [(table.year - 1, 12, d, a) for d, a in table.december]
        rows += [(table.year, 1, d, a) for d, a in table.january]
        _write_csv(rows, ("year", "month", "day", "age"))
    else:
        print(_render_transition(table, args.color))
    return 0


def _cmd_new_moons(args: argparse.Namespace) -> int:
    dates = tables.new_moon_dates(args.year, _mode(args))
    if args.format == "json":
        payload = {
            "year": args.year,
            "mode": args.mode,
            "dates": [_iso(args.year, m, d) for m, d in dates],
        }
        print(json.dumps(payload, indent=2))
    else:
        for month, day in dates:
            print(_iso(args.year, month, day))
    return 0


def _cmd_easter(args: argparse.Namespace) -> int:
    month, day = tables.easter_date(args.year)
    print(_iso(args.year, month, day))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify.verify_range(args.from_year, args.to_year)
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


def _add_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=[m.value for m in tables.MoonAgeMode],
        default="raw",
        help="January treatment (default raw)",
    )


def _add_format(parser: argparse.ArgumentParser, choices=("text", "csv", "json")) -> None:
    parser.add_argument(
        "--format", choices=choices, default="text", help="output format (default text)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_mode(p)
    p.set_defaults(handler=_cmd_moon_age)

    p = sub.add_parser("table", help="day-by-day lunar table for a year")
    p.add_argument("year", type=int)
    _add_mode(p)
    _add_format(p)
    p.add_argument("--color", action="store_true", help="ANSI colour in text output")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("transition", help="December/January ages around a new year")
    p.add_argument("year", type=int)
    _add_mode(p)
    _add_format(p)
    p.add_argument("--color", action="store_true", help="ANSI colour in text output")
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("new-moons", help="dates of the year's new moons")
    p.add_argument("year", type=int)
    _add_mode(p)
    _add_format(p, choices=("text", "json"))
    p.set_defaults(handler=_cmd_new_moons)

    p = sub.add_parser("easter", help="date of Easter Sunday")
    p.add_argument("year", type=int)
    p.set_defaults(handler=_cmd_easter)

    p = sub.add_parser("verify", help="run the property sweep over a year range")
    p.add_argument("--from", dest="from_year", type=int, default=core.YEAR_MIN)
    p.add_argument("--to", dest="to_year", type=int, default=25000)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at interpreter exit
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)


if __name__ == "__main__":
    run()
