"""The four workloads: how each request calls into the program, how its
output is checked, and how a traced run splits a request into layer calls.

Every workload is a closed loop with one caller.  A request reaches the
program only through an ``api`` mapping from span name to function; an
untraced run maps each name to the program's function itself, a traced run
to the same function wrapped in a span, so both run the same request code.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import oracle

CLI_FORMATS = ("text", "csv", "json")
PRODUCT_CALLS = {
    "table": "tables.year_table",
    "transition": "tables.transition_table",
    "new-moons": "tables.new_moon_dates",
}


def functions() -> dict:
    """Span name -> the program's public function that the span times."""
    from computus import cli, core, recurrence, tables, verify

    def walk(start, end):
        return sum(1 for _ in recurrence.epact_sequence(start, end))

    api = {
        "core.epact": core.epact,
        "core.moon_age": core.moon_age,
        "tables.pronounced_age": tables.pronounced_age,
        "tables.corrected_age": tables.corrected_age,
        "tables.easter_date": tables.easter_date,
        "tables.martyrology_letter": tables.martyrology_letter,
        "recurrence.jump": recurrence.jump,
        "tables.year_ages": tables.year_ages,
        "tables.year_table": tables.year_table,
        "tables.transition_table": tables.transition_table,
        "tables.new_moon_dates": tables.new_moon_dates,
        "tables.as_dict": lambda table: table.as_dict(),
        "verify.verify_range": verify.verify_range,
        "recurrence.walk": walk,
        "mode": tables.MoonAgeMode,
    }
    api.update({f"cli.main.{fmt}": cli.main for fmt in CLI_FORMATS})
    return api


# -- requests ---------------------------------------------------------------


def point_request(api):
    epact = api["core.epact"]
    letter = api["tables.martyrology_letter"]
    easter = api["tables.easter_date"]
    jump = api["recurrence.jump"]
    raw = api["core.moon_age"]
    pronounced = api["tables.pronounced_age"]
    corrected = api["tables.corrected_age"]

    def request(item):
        year, dates = item
        e = epact(year)
        return (
            e,
            letter(e),
            easter(year),
            jump(year),
            [(raw(year, m, d), pronounced(year, m, d), corrected(year, m, d)) for m, d in dates],
        )

    return request


def cli_request(api):
    main = {fmt: api[f"cli.main.{fmt}"] for fmt in CLI_FORMATS}

    def request(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main[argv[5]](argv)
        return code, out.getvalue(), err.getvalue()

    return request


def sweep_request(api):
    verify_range = api["verify.verify_range"]
    return lambda span: verify_range(*span)


# -- output checks ----------------------------------------------------------


def check_point(item, out) -> str | None:
    e, letter, easter, jump, ages = out
    return oracle.check_point(
        item[0], item[1], (e.value, e.special25, tuple(letter), easter, jump, ages)
    )


# -- traced decomposition ---------------------------------------------------


def decompose_cli(api, raw_api, argv) -> None:
    """The tables call behind one CLI request, then its year ages and, for a
    year table, its dict form."""
    command, year, mode = argv[0], int(argv[1]), api["mode"](argv[3])
    product = api[PRODUCT_CALLS[command]](year, mode)
    if command == "table":
        api["tables.as_dict"](product)
    api["tables.year_ages"](year, mode)


def _sweep_tables_calls(api, start, end) -> None:
    """The per-year tables calls the sweep makes for the span's dated years."""
    year_ages = api["tables.year_ages"]
    corrected_age = api["tables.corrected_age"]
    easter_date = api["tables.easter_date"]
    year_ages(start - 1)
    for year in range(start, min(end, oracle.YEAR_MAX) + 1):
        year_ages(year)
        for day in range(1, 32):
            corrected_age(year, 1, day)
        easter_date(year)


def decompose_sweep(api, raw_api, span) -> dict:
    """The sweep, the recurrence walk from 1583 to the span's end and the
    sweep's per-year tables calls as one loop, five times and side by side,
    all untraced, so that their fastest runs compare at the same speed of a
    machine whose speed drifts; then the tables calls traced once for their
    per-call times.  Returns the walk's step count and the fastest run of
    each of the three in ns."""
    start, end = span
    runs: dict[str, list[int]] = {"verify_ns": [], "walk_ns": [], "tables_ns": []}
    for _ in range(5):
        t0 = perf_counter_ns()
        raw_api["verify.verify_range"](start, end)
        t1 = perf_counter_ns()
        steps = raw_api["recurrence.walk"](oracle.YEAR_MIN, end)
        t2 = perf_counter_ns()
        _sweep_tables_calls(raw_api, start, end)
        t3 = perf_counter_ns()
        runs["verify_ns"].append(t1 - t0)
        runs["walk_ns"].append(t2 - t1)
        runs["tables_ns"].append(t3 - t2)
    _sweep_tables_calls(api, start, end)
    return {"walk_steps": steps, **{name: min(ns) for name, ns in runs.items()}}


@dataclass(frozen=True)
class Workload:
    name: str
    request: Callable  # api -> (item -> output)
    check: Callable  # (item, output) -> None, or why the output is wrong
    decompose: Callable | None  # (api, raw api, item) -> dict or None; traced runs only
    units: Callable  # item -> units of work that one request completes
    trace_requests: int  # how many of the first inputs a traced run times
    warmup: int  # requests run before timing starts
    segment: int  # requests timed together and then checked
    setup: Callable  # first item -> (child code, argv) for the set-up timing


def _sweep_setup(span):
    code = (
        "import sys\n"
        "from computus.verify import verify_range\n"
        "raise SystemExit(0 if verify_range(*map(int, sys.argv[1:])).ok else 1)\n"
    )
    return code, [str(span[0]), str(span[1])]


def _point_setup(item):
    year, dates = item
    month, day = dates[0]
    code = (
        "import sys\n"
        "from computus import core, recurrence, tables\n"
        "y, m, d = (int(a) for a in sys.argv[1:])\n"
        "e = core.epact(y)\n"
        "tables.martyrology_letter(e)\n"
        "tables.easter_date(y)\n"
        "recurrence.jump(y)\n"
        "core.moon_age(y, m, d), tables.pronounced_age(y, m, d), tables.corrected_age(y, m, d)\n"
    )
    return code, [str(year), str(month), str(day)]


def _cli_setup(argv):
    # What the installed ``computus`` console script runs.
    return "import sys\nfrom computus.cli import main\nsys.exit(main(sys.argv[1:]))\n", argv


def _span_years(span) -> int:
    return span[1] - span[0] + 1


def _sweep(name: str) -> Workload:
    return Workload(
        name, sweep_request, oracle.check_report, decompose_sweep, units=_span_years,
        trace_requests=1, warmup=0, segment=4, setup=_sweep_setup,
    )  # fmt: skip


WORKLOADS = {
    "point-queries": Workload(
        "point-queries", point_request, check_point, None, units=lambda _: 1,
        trace_requests=2000, warmup=100, segment=2000, setup=_point_setup,
    ),
    "year-tables": Workload(
        "year-tables", cli_request, oracle.check_cli, decompose_cli, units=lambda _: 1,
        trace_requests=600, warmup=48, segment=50, setup=_cli_setup,
    ),
    "sweep-low": _sweep("sweep-low"),
    "sweep-deep": _sweep("sweep-deep"),
}  # fmt: skip
