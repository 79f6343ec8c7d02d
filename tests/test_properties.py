"""Property tests over the whole dated range, 1583..4,000,000.

The month lengths and weekdays come from the standard library, not from the
package, so that the dates drawn and the weekdays expected stay independent
of the code under test.  Runs are derandomised and keep no example database.
"""

import calendar
import contextlib
import datetime
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from computus import (
    YEAR_MAX,
    YEAR_MIN,
    MoonAgeMode,
    age_in_mode,
    cli,
    day_number,
    day_of_week,
    easter_date,
    epact,
    year_ages,
)
from helpers import classical_easter

repeatable = settings(derandomize=True, database=None, deadline=None)

# Golden-number-1 years are the ones the pronounced and corrected Januaries
# shift most often; drawing them on purpose keeps those shifts in every run.
years = st.one_of(
    st.integers(YEAR_MIN, YEAR_MAX),
    st.integers(YEAR_MIN // 19 + 1, YEAR_MAX // 19).map(lambda k: 19 * k),
)
modes = st.sampled_from(MoonAgeMode)


@st.composite
def dates(draw, years=years):
    year = draw(years)
    month = draw(st.integers(1, 12))
    # 2000 and 2001 stand for every leap and common year.
    length = calendar.monthrange(2000 if calendar.isleap(year) else 2001, month)[1]
    return year, month, draw(st.integers(1, length))


@repeatable
@given(dates(), modes)
@example((2024, 2, 29), MoonAgeMode.CORRECTED)
@example((4200, 1, 30), MoonAgeMode.CORRECTED)
@example((2033, 1, 1), MoonAgeMode.PRONOUNCED)
def test_age_in_mode_is_a_year_table_lookup(date, mode):
    year, month, day = date
    assert age_in_mode(year, month, day, mode) == year_ages(year, mode)[day_number(month, day)]


@repeatable
@given(years)
@example(4200)  # jump -1
@example(15200)  # jump 2
def test_modes_equal_raw_after_the_first_january_lunation(year):
    raw = year_ages(year)
    first = 30 - epact(year).value  # the day after the first January lunation
    for mode in (MoonAgeMode.PRONOUNCED, MoonAgeMode.CORRECTED):
        assert year_ages(year, mode)[first:] == raw[first:], mode


@repeatable
@given(years)
def test_easter_matches_classical_algorithm(year):
    assert easter_date(year) == classical_easter(year)


@repeatable
@given(dates(st.integers(YEAR_MIN, 9999)))
@example((2000, 2, 29))
@example((2100, 3, 1))
def test_day_of_week_matches_datetime(date):
    assert day_of_week(*date) == datetime.date(*date).isoweekday() % 7


@repeatable
@given(dates(st.integers(10_000, YEAR_MAX)))
@example((4_000_000, 2, 29))
def test_day_of_week_repeats_every_400_years(date):
    year, month, day = date
    expected = datetime.date(2000 + year % 400, month, day).isoweekday() % 7
    assert day_of_week(year, month, day) == expected


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@repeatable
@given(st.sampled_from(["table", "transition", "new-moons"]), years, modes)
def test_cli_json_reserialises_identically(command, year, mode):
    if command == "transition":
        year = max(year, YEAR_MIN + 1)
    code, out, err = _run([command, str(year), "--mode", mode.value, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


bad_years = st.one_of(st.integers(-(10**12), YEAR_MIN - 1), st.integers(YEAR_MAX + 1, 10**12))
bad_dates = st.one_of(
    st.tuples(years, st.sampled_from([0, 13]), st.integers(1, 28)),
    st.tuples(years, st.integers(1, 12), st.sampled_from([0, 32])),
    st.tuples(years.filter(lambda y: not calendar.isleap(y)), st.just(2), st.just(29)),
    st.tuples(bad_years, st.integers(1, 12), st.integers(1, 28)),
).map(lambda d: "{}-{}-{}".format(*d))
# Each token holds a character that int() refuses.
tokens = st.text("0123456789-.xe ", min_size=1, max_size=8).filter(
    lambda t: any(c in t for c in ".xe")
)
bad_argv = st.one_of(
    st.tuples(st.sampled_from(["epact", "table", "new-moons", "easter"]), bad_years.map(str)),
    st.tuples(st.just("transition"), st.integers(-(10**12), YEAR_MIN).map(str)),
    st.tuples(st.just("moon-age"), bad_dates),
    st.tuples(st.sampled_from(["epact", "table", "transition", "easter", "moon-age"]), tokens),
)


@repeatable
@given(bad_argv)
@example(("moon-age", "2023-02-29"))
@example(("table", "12x"))
def test_cli_bad_input_exits_2_without_traceback(argv):
    code, out, err = _run(list(argv))
    assert code == 2, (argv, out, err)
    assert err and "Traceback" not in err
