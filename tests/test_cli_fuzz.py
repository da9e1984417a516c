"""Fuzzed command lines: every input gives exit code 0, 1 or 2, never a traceback.

Each example runs `cli.main` in this process on a drawn subcommand with
flag values from adversarial pools (non-integers, huge and negative
numbers, non-ASCII digits and text, deeply nested expressions, broken
table directories) and with MOUFANG3_SEED / MOUFANG3_TRIALS drawn too.
Budgets that would be accepted stay small (trials <= 64, caps <= 100), so
an example costs milliseconds.
"""

import contextlib
import io
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import cli
from moufang3.tables import _DATA_DIR

HUGE = str(2 ** 64)
TOO_MANY_DIGITS = "9" * 5000            # past int()'s digit limit


def _no_big_budget(t):
    # free text reaches --trials and --cap too, where a big int runs long
    try:
        return int(t) <= 64
    except ValueError:
        return True


text = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\x00"),
               max_size=12).filter(_no_big_budget)


def mostly(valid, bad):
    """A valid value three times in four, else an adversarial one."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(bad) | text if i == 0
        else st.sampled_from(valid))


# accepted trial budgets are at most 64, so no accepted value runs long
TRIALS = mostly(["1", "17", "64"],
                ["0", "-1", "-" + HUGE, "abc", "", "1.5", "0x10", "1e3",
                 "nan", TOO_MANY_DIGITS, " 5 ", "٦٤", "1_0"])
SEEDS = mostly(["1", "42", "7", str(2 ** 64 - 1)],
               ["0", "-1", HUGE, str(10 ** 30), "abc", "", "1.0",
                TOO_MANY_DIGITS, "٤٢"])
CAPS = mostly(["1", "3", "27", "81", "100"],
              ["0", "-1", "-" + HUGE, "abc", TOO_MANY_DIGITS, "٣"])
LIST_LIMITS = mostly(["0", "81", "-1", HUGE], ["x", "1.5"])
FORMATS = mostly(["text", "json"], ["xml", ""])
CLAIMS = mostly(list(cli.PROOFS), ["bogus", "", "Moufang"])
MODES = mostly(["exact", "sample"], ["x", ""])
ELEMENTS = mostly(["0", "e1", "e2", "e3", "e4", "e5", "e19", "e1 + 2*e5",
                   "2*e10 + e11", "(" + ",".join("0" * 18) + ",1)",
                   "(" + ",".join("2" * 19) + ")"],
                  ["e0", "e20", "e-1", "3*e1", "(1,2)", "e٣", "e1_0",
                   "(" + ",".join("3" * 19) + ")", "", " ", "e", "x1", "é",
                   "e1 + + e2", "((e1", TOO_MANY_DIGITS])
NESTED = ["(" * 2000 + "e1" + ")" * 2000,
          "comm(" * 2000 + "e1" + ",e2)" * 2000,
          "e1" + "^-1" * 500, "(" * 50 + "e1*e2" + ")" * 50]
TABLE_DIRS = ["good", "corrupt", "empty", "garbage", "binary", "missing",
              "is-a-file", "dir-as-table", "edited"]
# one line appended to a shipped table for "edited"; products of at most
# three factors keep the proofs on the edited tables fast
TABLE_LINES = st.tuples(
    mostly(["5", "11", "19", "1"], ["0", "20", "-1", "x", "٣", TOO_MANY_DIGITS]),
    mostly(["1", "2"], ["0", "3", "-1", "two"]),
    mostly(["x1", "x2*y1", "x3*x4*y2", "y10", "x6"],
           ["x11", "z1", "x0", "x", "x1*x1", "x1**x2", "", "x٣",
            "x" + TOO_MANY_DIGITS])).map("; ".join) | text


def _expr(children):
    pair = st.tuples(children, children)
    return (pair.map(lambda p: f"({p[0]}*{p[1]})")
            | children.map(lambda a: f"{a}^-1")
            | pair.map(lambda p: f"comm({p[0]},{p[1]})")
            | st.tuples(children, children, children).map(
                lambda t: f"assoc({t[0]},{t[1]},{t[2]})")
            | st.tuples(children, children, children).map(
                lambda t: f"{t[0]}*{t[1]}*{t[2]}"))


expressions = (st.recursive(ELEMENTS, _expr, max_leaves=6)
               | st.sampled_from(NESTED))


@pytest.fixture(scope="module")
def table_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    f_text = (_DATA_DIR / "f_table.txt").read_text()
    h_text = (_DATA_DIR / "h_table.txt").read_text()
    contents = {
        "good": (f_text, h_text),
        "corrupt": (f_text.replace("5; 2; x2*y1", "5; 2; x2*y2"), h_text),
        "empty": ("", ""),
        "garbage": ("5; two; x2*y1\n", "7; 2; q9 ^\n"),
    }
    contents["edited"] = contents["good"]
    for name, (f, h) in contents.items():
        (root / name).mkdir()
        (root / name / "f_table.txt").write_text(f)
        (root / name / "h_table.txt").write_text(h)
    (root / "binary").mkdir()
    (root / "binary" / "f_table.txt").write_bytes(b"\xff\xfe5; 2; x2\x00")
    shutil.copy(_DATA_DIR / "h_table.txt", root / "binary" / "h_table.txt")
    (root / "is-a-file").write_text("not a directory\n")
    (root / "dir-as-table" / "f_table.txt").mkdir(parents=True)
    return root


@st.composite
def command_lines(draw, table_root):
    command = draw(st.sampled_from(["verify", "prove", "eval", "closure",
                                    "density", "order"]))
    argv = [command]
    env_trials = draw(st.none() | TRIALS)
    if command == "prove":
        argv.append(draw(CLAIMS))
    elif command == "eval":
        argv.append(draw(expressions))
    elif command == "closure":
        argv += draw(st.lists(ELEMENTS, min_size=0, max_size=3))
        argv += ["--cap", draw(CAPS)]
        if draw(st.booleans()):
            argv += ["--list-limit", draw(LIST_LIMITS)]
    elif command == "density":
        argv += [draw(ELEMENTS), draw(ELEMENTS), "--mode", draw(MODES)]
    elif command == "order":
        argv += [draw(ELEMENTS), "--cap", draw(CAPS)]
    if command in ("verify", "density"):
        if env_trials is None or draw(st.booleans()):
            # without the flag or the variable the budget is 1M trials
            argv += ["--trials", draw(TRIALS)]
        if draw(st.booleans()):
            argv += ["--seed", draw(SEEDS)]
    if command == "verify" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--symbolic", "--no-symbolic"])))
    if draw(st.booleans()):
        argv += ["--format", draw(FORMATS)]
    if draw(st.integers(0, 3)) == 0:
        tables = draw(st.sampled_from(TABLE_DIRS))
        if tables == "edited":
            table = draw(st.sampled_from(["f_table.txt", "h_table.txt"]))
            (table_root / tables / table).write_text(
                (_DATA_DIR / table).read_text() + draw(TABLE_LINES) + "\n")
        argv += ["--tables", str(table_root / tables)]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(["--frob", "-x", "--", "--version"])
                         | text))
    env = {"MOUFANG3_SEED": draw(st.none() | SEEDS),
           "MOUFANG3_TRIALS": env_trials}
    return argv, env


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_command_lines_exit_cleanly(table_root, data):
    argv, env = data.draw(command_lines(table_root))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in env.items():
            if value is None:
                mp.delenv(name, raising=False)
            else:
                mp.setenv(name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:     # argparse and bad variables
                code = exc.code
    assert code in (0, 1, 2), (argv, env, code)
    assert "Traceback" not in err.getvalue(), (argv, env)
    if err.getvalue().startswith("moufang3: "):
        assert err.getvalue().count("\n") == 1, err.getvalue()
