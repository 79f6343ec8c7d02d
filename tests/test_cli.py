import contextlib
import errno
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import computus
from computus import MoonAgeMode, cli, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_epact_command(capsys):
    code, out, _ = run_cli(capsys, "epact", "1945")
    assert code == 0
    assert "epact xvj (16)" in out
    assert "golden 8" in out
    assert "letter r" in out


def test_epact_star_and_arabic(capsys):
    code, out, _ = run_cli(capsys, "epact", "1968")
    assert code == 0 and "epact * (0)" in out
    code, out, _ = run_cli(capsys, "epact", "1973")
    assert code == 0 and "epact 25 (25)" in out and "letter F" in out


def test_epact_rejects_out_of_range_year(capsys):
    code, _, err = run_cli(capsys, "epact", "1582")
    assert code == 2
    assert "error:" in err


def test_epact_custom_letters(capsys, tmp_path):
    path = tmp_path / "letters.json"
    letters = {"epacts": {str(v): "Z" for v in range(30)}, "special_25": "Q"}
    path.write_text(json.dumps(letters))
    code, out, _ = run_cli(capsys, "epact", "1945", "--letters", str(path))
    assert code == 0 and "letter Z" in out


def _letters(**override):
    data = {"epacts": {str(v): "Z" for v in range(30)}, "special_25": "Q"}
    data.update(override)
    return json.dumps(data)


@pytest.mark.parametrize(
    "content",
    [
        None,  # no such file
        "directory",  # unreadable as a file
        "{not json",
        b"\xff\xfe",  # not UTF-8
        "[1, 2]",  # top level not an object
        _letters(epacts=["*"]),
        _letters(epacts={str(v): "Z" for v in range(29)}),  # glyph for 29 missing
        _letters(special_25=""),
        _letters(special_25=7),
    ],
    ids=[
        "missing-file", "directory", "bad-json", "not-utf8", "top-level-array",
        "epacts-not-object", "glyph-missing", "glyph-empty", "glyph-not-string",
    ],
)  # fmt: skip
def test_epact_bad_letters_exit_2(capsys, tmp_path, content):
    path = tmp_path / "letters.json"
    if content == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "epact", "1945", "--letters", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_epact_empty_letters_path_exits_2(capsys):
    # An empty path is a path that cannot be read, not a request for the
    # default letters.
    code, out, err = run_cli(capsys, "epact", "1945", "--letters", "")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read letter map")
    assert "'.'" not in err  # the message names the path given, not the directory


def test_moon_age_command(capsys):
    assert run_cli(capsys, "moon-age", "1945-08-15")[1].strip() == "7"
    assert (
        run_cli(capsys, "moon-age", "16400-01-01", "--mode", "corrected")[1].strip()
        == "1"
    )
    assert (
        run_cli(capsys, "moon-age", "4200-01-30", "--mode", "corrected")[1].strip()
        == "31"
    )


def test_moon_age_invalid_date(capsys):
    code, _, err = run_cli(capsys, "moon-age", "2023-02-29")
    assert code == 2 and "error:" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["moon-age", "not-a-date"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "2033")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "year 2033 (raw)"
    assert len(lines) == 14  # title, header, 12 month rows
    assert lines[2].startswith("Jan   30  1*")


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "2033", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "month,day,age,new_moon,full_moon"
    assert lines[1] == "1,1,30,0,0"
    assert lines[2] == "1,2,1,1,0"
    assert len(lines) == 366


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "2033", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["year"] == 2033 and payload["mode"] == "raw"
    assert json.dumps(payload, indent=2) + "\n" == out


def test_table_color_markers(capsys):
    _, plain, _ = run_cli(capsys, "table", "1945")
    assert "*" in plain and "^" in plain and "\x1b[" not in plain
    _, colored, _ = run_cli(capsys, "table", "1945", "--color")
    assert "\x1b[31m" in colored and "\x1b[34m" in colored


def test_transition_text(capsys):
    code, out, _ = run_cli(capsys, "transition", "2033")
    assert code == 0
    lines = out.splitlines()
    assert lines[2].startswith("Dec 2032")
    assert lines[3].startswith("Jan 2033    30  1*")


def test_transition_json(capsys):
    code, out, _ = run_cli(
        capsys, "transition", "4200", "--mode", "corrected", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["january"][29] == {"day": 30, "age": 31}
    assert json.dumps(payload, indent=2) + "\n" == out


def test_transition_csv(capsys):
    code, out, _ = run_cli(capsys, "transition", "2033", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "year,month,day,age"
    assert lines[1] == "2032,12,1,27"
    assert lines[32] == "2033,1,1,30"
    assert len(lines) == 63


def test_transition_command_rejects_first_supported_year(capsys):
    code, out, err = run_cli(capsys, "transition", "1583")
    assert code == 2 and out == ""
    assert err == "error: year 1583 not in supported range 1584..4000000\n"


def test_new_moons_text(capsys):
    code, out, _ = run_cli(capsys, "new-moons", "1945")
    assert code == 0
    assert "1945-05-13" in out.splitlines()


def test_new_moons_json(capsys):
    code, out, _ = run_cli(capsys, "new-moons", "2033", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "raw"
    assert "2033-01-02" in payload["dates"]
    assert json.dumps(payload, indent=2) + "\n" == out


def test_easter_command(capsys):
    code, out, _ = run_cli(capsys, "easter", "2000")
    assert code == 0 and out.strip() == "2000-04-23"


def test_verify_command_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "1583", "--to", "1700")
    assert code == 0
    assert out.count("PASS") == 9
    assert "all properties hold" in out


def test_verify_single_year(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "1583", "--to", "1583")
    assert code == 0


def test_verify_reports_failure(capsys, monkeypatch):
    real = verify.recurrence.lunar_sum
    monkeypatch.setattr(verify.recurrence, "lunar_sum", lambda y: real(y) + 1)
    code, out, _ = run_cli(capsys, "verify", "--from", "1583", "--to", "1600")
    assert code == 1
    assert "FAIL alternate lunar sum equivalence" in out
    assert "properties failed" in out


def test_verify_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--from", "1500", "--to", "1600")
    assert code == 2 and "error:" in err


def test_verify_bound_left_out_takes_verify_range_default(capsys):
    params = inspect.signature(verify.verify_range).parameters
    start, end = params["start"].default, params["end"].default
    _, out, _ = run_cli(capsys, "verify", "--to", "1600")
    assert out.startswith(f"verifying years {start}..1600\n")
    _, out, _ = run_cli(capsys, "verify", "--from", "24990")
    assert out.startswith(f"verifying years 24990..{end}\n")


@pytest.mark.parametrize("argv", [["table", 2033], ["verify", "--to", 1600]])
def test_main_rejects_a_word_that_is_not_a_str(argv):
    # The console script passes only str; a library caller learns which word is wrong.
    with pytest.raises(TypeError, match=rf"^argv\[{len(argv) - 1}\] must be str, not int$"):
        cli.main(argv)


def test_broken_pipe_exits_quietly():
    # The read end is closed before the child writes, so its first write
    # to stdout fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(computus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "computus.cli", "table", "2033", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def _console(*argv, **env):
    # The CLI in a fresh interpreter, importing this checkout's package.
    src = str(Path(computus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=path, **env).items() if v is not None}
    return [sys.executable, "-m", "computus.cli", *argv], env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "command"])
def test_help_to_full_device_exits_2(argv, unbuffered):
    # argparse drops write errors of its own help; unbuffered, the write
    # fails at once, buffered, at the final flush.
    command, env = _console(*argv, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 2
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert proc.stderr.decode() == f"error: cannot write output: {reason}\n"


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_help_into_closed_pipe_exits_quietly(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    command, env = _console("--help", PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_help_text_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli._build_parser().format_help()


class _FullStdout:
    """Standard output on a full disk: every write fails."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self.fd


def test_output_error_exits_2(capsys, monkeypatch, tmp_path):
    # run points the descriptor behind stdout at devnull; give it one of ours.
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "argv", ["computus", "easter", "2033"])
    monkeypatch.setattr(sys, "stdout", _FullStdout(fd))
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
    finally:
        os.close(fd)
    assert exc.value.code == 2
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"error: cannot write output: {reason}\n"


def test_closed_stdout_exits_2():
    src = str(Path(computus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "computus.cli", "verify", "--from", "1583", "--to", "1600"],
        preexec_fn=lambda: os.close(1),  # the child starts with no descriptor 1
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write output: standard output is closed\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["easter", "1"], "error: year 1 not in supported range 1583..4000000\n"),
        (["table", "abc"], "computus table: error: argument year: invalid int value: 'abc'\n"),
    ],
    ids=["value", "usage"],
)
def test_input_error_with_closed_stdout_reports_once(argv, message):
    # Nothing was to be written to the closed descriptor 1, so the input
    # error is the one message.
    command, env = _console(*argv)
    proc = subprocess.run(
        command, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, env=env, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stderr.decode().endswith(message)
    assert proc.stderr.count(b"error:") == 1


def test_help_with_closed_stdout_exits_2():
    command, env = _console("--help")
    proc = subprocess.run(
        command, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, env=env, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write output: standard output is closed\n"


def test_cli_import_leaves_json_unloaded():
    # -S keeps site's own imports out.  Only a custom --letters file needs
    # json, only a sweep needs verify and the dataclasses it uses, and a
    # plain table command needs no argparse.  The tuple records are
    # collections.namedtuple types, so no process loads typing or re.
    _, env = _console()

    def child(code):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys\n{code}"],
            capture_output=True, env=env, timeout=60, text=True,
        )  # fmt: skip
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    lazy = (
        "computus.verify", "dataclasses", "inspect", "pathlib", "json", "argparse", "typing", "re"
    )
    for statement in (
        "import computus.cli",
        "from computus import core, recurrence, tables",
        "from computus.cli import main\nmain(['table', '2033', '--format', 'json'])",
    ):
        out = child(f"{statement}\nprint([m for m in {lazy!r} if m in sys.modules])")
        assert out.splitlines()[-1] == "[]"
    code = (
        "import computus\n"
        "before = 'computus.verify' in sys.modules\n"
        "found = computus.verify_range\n"
        "print(before, 'computus.verify' in sys.modules, found is computus.verify.verify_range)"
    )
    assert child(code) == "False True True\n"


# The quick parse of plain table commands against argparse, on argv lists
# drawn from the words either parser reads, near misses of them and junk.
_COMMANDS = ("epact", "moon-age", "table", "transition", "new-moons", "easter", "verify", "tab")
_YEARS = ("2033", "02033", "0", "-5", "+5", " 12", "1_000", "\uff12\uff10\uff13\uff13", "abc")
_OPTIONS = ("--mode", "--format", "--color", "--mo", "--mode=raw", "--", "-h", "--letters")
_VALUES = (*(m.value for m in MoonAgeMode), "text", "csv", "json", "lunar")
_WORDS = st.sampled_from(_COMMANDS + _YEARS + _OPTIONS + _VALUES)
_PLAIN_WORDS = {"--mode", "--format", "--color", *_VALUES} - {"lunar"}
_PAIRS = st.tuples(st.sampled_from(("--mode", "--format")), st.sampled_from(_VALUES)).map(list)


def _argv(*head, group):
    # The head words, then up to four groups of words.
    tail = st.lists(group, max_size=4).map(lambda groups: list(itertools.chain(*groups)))
    return st.builds(lambda *words: [*words[:-1], *words[-1]], *head, tail)


_TABLE = st.sampled_from(_COMMANDS[2:5])
_NEAR = st.one_of(_WORDS.map(lambda word: [word]), _PAIRS)
_ARGV = st.one_of(
    st.lists(_WORDS, max_size=6),
    _argv(_WORDS, _WORDS, group=_NEAR),
    _argv(_TABLE, st.sampled_from(_YEARS), group=_NEAR),
    _argv(_TABLE, st.sampled_from(_YEARS[:3]), group=st.one_of(st.just(["--color"]), _PAIRS)),
)


def _argparse(argv):
    # The parsed attributes, or how argparse exited and what it printed.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_ARGV)
@example(["table", "2033"])
@example(["new-moons", "2033", "--color"])
@example(["table", "2033", "--mo", "raw"])
@example(["table", "2033", "--mode=raw"])
@example(["table", "2033", "--", "--color"])
@example(["table", "2033", "-h"])
@example(["table", "--mode", "raw", "2033"])
@example(["table", "2033", "--format", "lunar"])
@example(["table", "2033", "--mode"])
@example(["table", "-5"])
@example(["table", "+5"])
@example(["table", "\uff12\uff10\uff13\uff13"])
@example(["table", "9" * 5000])
def test_quick_parse_is_argparse_or_declines(argv):
    quick = cli._quick(argv)
    if quick is not None:
        # Only the plain form: an ASCII-digit year, then whole words.
        assert argv[1].isascii() and argv[1].isdigit()
        assert set(argv[2:]) <= _PLAIN_WORDS
        assert vars(quick) == _argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "2033", "--color", "--mode", "corrected", "--format", "csv", "--mode", "raw"],
        ["transition", "02033", "--format", "json", "--color"],
        ["new-moons", "2033", "--mode", "pronounced", "--format", "json"],
    ],
)
def test_quick_parse_takes_plain_table_commands(argv):
    quick = cli._quick(argv)
    assert quick is not None and vars(quick) == _argparse(argv)


def test_main_reads_sys_argv(capsys, monkeypatch):
    for argv in (["table", "2033", "--format", "csv"], ["table", "2033", "--format=csv"]):
        monkeypatch.setattr(sys, "argv", ["computus", *argv])
        from_sys_argv = (cli.main(), *capsys.readouterr())
        assert from_sys_argv == run_cli(capsys, *argv)
