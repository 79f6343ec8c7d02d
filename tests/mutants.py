"""A committed mutation run: each declared one-place fault must fail the tests.

A mutant is one exact text in one source file, replaced by another, with the
test expected to kill it.  ``python tests/mutants.py`` applies each mutant to
its own temporary copy of ``src`` and ``tests``, runs the expected test and,
if that passes, the whole suite, both under ``pytest -x -q -p no:cacheprovider``,
prints killed or survived with the time, and writes ``MUTANTS.json`` at the
root of the tree.  A mutant is killed when a test fails; any other pytest
failure (a collection error, say) stops the run.  It exits 1 if a mutant survives.

``python tests/mutants.py --check`` runs no test: it exits 1 if an old text no
longer occurs exactly once in its file, a replacement does not compile, or an
expected test is gone, so a drifted source fails instead of skipping a mutant.

Standard library only; pytest does not collect this file.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = collections.namedtuple("Mutant", "name file old new killer")

VERIFY = "src/computus/verify.py"
VERIFY_TESTS = "tests/test_verify.py::"

MUTANTS = (
    Mutant(
        "raw hit skips _fail",
        VERIFY,
        "            held = _walked[id(ages)] = ages, steps\n"
        "        if held[1]:\n",
        "            held = _walked[id(ages)] = ages, steps\n"
        "        else:\n"
        "            held = ages, False\n"
        "        if held[1]:\n",
        VERIFY_TESTS + "test_remembered_raw_fault_is_reported_again",
    ),
    Mutant(
        "window hit skips _fail",
        VERIFY,
        "                held = _walked[key] = (before, corrected), steps, gap\n"
        "            _, steps, gap = held\n",
        "                held = _walked[key] = (before, corrected), steps, gap\n"
        "            else:\n"
        "                steps = gap = False\n",
        VERIFY_TESTS + "test_remembered_window_fault_is_reported_again",
    ),
    Mutant(
        "checkpoint index off by one",
        VERIFY,
        "start // 100 - 14)",
        "start // 100 - 13)",
        VERIFY_TESTS + "test_warm_sweep_checks_its_first_year",
    ),
    Mutant(
        "checkpoint recorded at year % 100 == 98",
        VERIFY,
        "if year % 100 == 99:",
        "if year % 100 == 98:",
        VERIFY_TESTS + "test_checkpoints_change_no_report",
    ),
    Mutant(
        "walked published alone",
        VERIFY,
        "_prefix[preds] = saved + walked",
        "_prefix[preds] = walked",
        VERIFY_TESTS + "test_checkpoints_change_no_report",
    ),
    Mutant(
        "_prefix keyed on two predicates",
        VERIFY,
        "preds = recurrence.metonic_correction, recurrence.solar_correction, "
        "recurrence.lunar_correction\n",
        "preds = recurrence.metonic_correction, recurrence.solar_correction\n",
        VERIFY_TESTS + "test_new_predicate_walks_from_the_anchor",
    ),
    Mutant(
        "no checkpoint recorded",
        VERIFY,
        "walked.extend((value, solar_total, lunar_total))",
        "pass",
        VERIFY_TESTS + "test_checkpoints_change_no_report",
    ),
    Mutant(
        "reset from 30 plus the jump",
        VERIFY,
        "30 - jump",
        "30 + jump",
        VERIFY_TESTS + "test_jump_two_boundary_accepted",
    ),
    Mutant(
        "Easter's lower bound at March 21",
        VERIFY,
        "if not (3, 22) <= easter",
        "if not (3, 21) <= easter",
        VERIFY_TESTS + "test_easter_before_march_22_is_caught",
    ),
    Mutant(
        "continuity taken % 15",
        VERIFY,
        "(jan[0] - dec[-1] - 1) % 30",
        "(jan[0] - dec[-1] - 1) % 15",
        VERIFY_TESTS + "test_remembered_window_fault_is_reported_again",
    ),
    Mutant(
        "alternate-sum check off above 10**6",
        VERIFY,
        "if alt != lunar:",
        "if alt != lunar and year <= 10**6:",
        VERIFY_TESTS + "test_alternate_lunar_sum_fault_above_a_million_is_caught",
    ),
    Mutant(
        "window reads this year's raw table as December",
        VERIFY,
        "core._window(before, corrected)",
        "core._window(ages, corrected)",
        VERIFY_TESTS + "test_december_fault_mid_span_is_caught",
    ),
    Mutant(
        "March 21 weekday read one year off",
        "src/computus/tables.py",
        "_MARCH_21_WEEKDAYS[year % 400]",
        "_MARCH_21_WEEKDAYS[(year + 1) % 400]",
        "tests/test_kernel.py::test_easter_matches_classical_oracle_low_and_deep",
    ),
    Mutant(
        "February 29 check off above 10**6",
        "src/computus/core.py",
        "and not is_leap_year(year):",
        "and not is_leap_year(year) and year <= 10**6:",
        "tests/test_core.py::test_leap_day_of_a_common_year_near_the_ceiling",
    ),
    Mutant(
        "February 29 check by year % 4",
        "src/computus/core.py",
        "and not is_leap_year(year):",
        "and year % 4 != 0:",
        "tests/test_core.py::test_moon_age_leap_day",
    ),
    Mutant(
        "jump off by one",
        "src/computus/core.py",
        "% 30 - 11",
        "% 30 - 10",
        "tests/test_recurrence.py::test_jump_values",
    ),
    Mutant(
        "bad input exits 1",
        "src/computus/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 1\n',
        "tests/test_cli.py::test_moon_age_invalid_date",
    ),
    Mutant(
        "a letter file nested too deep escapes",
        "src/computus/tables.py",
        "except (OSError, RecursionError, ValueError)",
        "except (OSError, ValueError)",
        "tests/test_cli.py::test_epact_deeply_nested_letters_exit_2",
    ),
    Mutant(
        "lunar_sum_alt off by one in 9,999,999",
        "src/computus/recurrence.py",
        "    return (c - (c - 18) // 25 - 16) // 3\n",
        "    return (c - (c - 18) // 25 - 16) // 3 + (year == 9_999_999)\n",
        "tests/test_recurrence.py::test_lunar_sum_alt_agrees_everywhere",
    ),
)


def drift(mutant):
    """What keeps ``mutant`` from applying to the tree as declared, or None."""
    source = (ROOT / mutant.file).read_text("utf-8")
    if source.count(mutant.old) != 1:
        return f"old text occurs {source.count(mutant.old)} times in {mutant.file}"
    try:
        compile(source.replace(mutant.old, mutant.new), mutant.file, "exec")
    except SyntaxError as exc:
        return f"replacement does not compile: {exc}"
    test_file, test_name = mutant.killer.split("::")
    if f"\ndef {test_name}(" not in (ROOT / test_file).read_text("utf-8"):
        return f"expected test {mutant.killer} not found"
    return None


def pytest(tree, *targets):
    """pytest's exit code for ``targets`` in ``tree``: 0 passed, 1 a test failed."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    proc = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, timeout=900)
    return proc.returncode


def copy_tree(into):
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into)


def run(mutant):
    """Killed by the expected test, killed by the suite, or survived."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.file
        target.write_text(target.read_text("utf-8").replace(mutant.old, mutant.new), "utf-8")
        for killer, status in ((mutant.killer, "killed"), ("tests", "killed by the suite")):
            code = pytest(tree, killer)
            if code == 1:
                return status
            if code != 0:
                raise SystemExit(f"{mutant.name}: pytest exited {code} on {killer}")
    return "survived"


def main():
    parser = argparse.ArgumentParser(description="Run or check the declared mutants.")
    parser.add_argument("--check", action="store_true", help="only check that each applies")
    check = parser.parse_args().check
    drifted = [f"{m.name}: {why}" for m in MUTANTS if (why := drift(m))]
    if drifted:
        raise SystemExit("\n".join(drifted))
    if check:
        print(f"{len(MUTANTS)} mutants apply")
        return
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(Path(tmp))
        if pytest(Path(tmp), *sorted({m.killer for m in MUTANTS})) != 0:
            raise SystemExit("the expected tests fail on the unmutated tree")
    results = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        status = run(mutant)
        seconds = round(time.perf_counter() - began, 1)
        print(f"{status:<20} {seconds:6.1f} s  {mutant.name}", flush=True)
        results.append({**mutant._asdict(), "status": status, "seconds": seconds})
    survived = [r["name"] for r in results if r["status"] == "survived"]
    report = {"declared": len(results), "killed": len(results) - len(survived),
              "survived": survived, "mutants": results}
    (ROOT / "MUTANTS.json").write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    print(f"{report['killed']} of {report['declared']} mutants killed")
    if survived:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
