"""CLI contract: subcommands, exit codes, report schema, determinism."""

import json
import shutil

import pytest

from moufang3 import __version__, cli
from moufang3.cli import eval_expression, main
from moufang3.errors import AmbiguousBracketing, ParseError
from moufang3.loop import basis, identity
from moufang3.tables import _DATA_DIR

E19_DENSE = "(" + ",".join(["0"] * 18 + ["1"]) + ")"
E5_DENSE = "(0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- eval ------------------------------------------------------------------------

def test_eval_associator_of_commutator(capsys):
    code, out, _ = run(capsys, "eval", "assoc(e5, e3, e4)")
    assert code == 0
    assert out.strip() == E19_DENSE


def test_eval_commutator(capsys):
    code, out, _ = run(capsys, "eval", "comm(e1, e2)")
    assert code == 0
    assert out.strip() == E5_DENSE


def test_eval_rejects_unbracketed_triple_product(capsys):
    code, _, err = run(capsys, "eval", "e1*e2*e3")
    assert code == 2
    assert "parentheses" in err


def test_eval_accepts_bracketed_products(capsys):
    code_l, out_l, _ = run(capsys, "eval", "(e1*e2)*e3")
    code_r, out_r, _ = run(capsys, "eval", "e1*(e2*e3)")
    assert code_l == code_r == 0
    # nonassociativity shows up in the outputs elsewhere, not for these
    assert out_l != "" and out_r != ""


def test_eval_whole_input_element_forms(capsys):
    code, out, _ = run(capsys, "eval", "e1 + 2*e5")
    assert code == 0
    assert out.strip() == "(1,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0)"
    code, out, _ = run(capsys, "eval", "0")
    assert code == 0
    assert out.strip() == "(" + ",".join(["0"] * 19) + ")"


def test_eval_expression_grammar(loop):
    assert eval_expression("e5^-1", loop) == loop.inverse(basis(5))
    assert eval_expression("e5^-1^-1", loop) == basis(5)
    assert eval_expression("(e1)", loop) == basis(1)
    assert eval_expression("comm(e1, e2)^-1", loop) == loop.inverse(basis(5))
    assert eval_expression("assoc(comm(e1,e2), e3, e4)", loop) == basis(19)
    assert eval_expression(E5_DENSE + "*e3", loop) == loop.mul(basis(5), basis(3))
    # whole-input element literals win: "0*e1" is the sparse term 0*e1
    assert eval_expression("0*e1", loop) == identity()
    # the identity atom inside an expression needs parentheses
    assert eval_expression("(0)*e1", loop) == basis(1)


@pytest.mark.parametrize("expr", [
    "e20", "e1*", "comm(e1)", "assoc(e1,e2)", "(e1*e2", "e1)e2",
    "frob(e1,e2)", "e1 ^- 1", "e1**e2", "(e1*e2)*e3*e4",
])
def test_eval_bad_expressions_exit_2(capsys, expr):
    code, _, err = run(capsys, "eval", expr)
    assert code == 2
    assert err.startswith("moufang3:")


def test_eval_deep_nesting_exits_2_without_traceback(capsys):
    code, out, _ = run(capsys, "eval", "(" * 100 + "e1" + ")" * 100)
    assert code == 0 and out.strip() == "(1" + ",0" * 18 + ")"
    for expr in ("(" * 2000 + "e1" + ")" * 2000,
                 "comm(" * 2000 + "e1" + ",e2)" * 2000):
        code, out, err = run(capsys, "eval", expr)
        assert code == 2 and out == ""
        assert one_line_error(err) and "nested too deeply" in err


def test_expression_errors_carry_positions(loop):
    with pytest.raises(AmbiguousBracketing):
        eval_expression("e1*e2*e3", loop)
    with pytest.raises(ParseError) as exc_info:
        eval_expression("comm(e1; e2)", loop)
    assert "position" in str(exc_info.value)


# -- order / closure / density -----------------------------------------------------

def test_order_command(capsys):
    code, out, _ = run(capsys, "order", "e1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "order", "e1", "--format", "json")
    assert code == 0 and json.loads(out)["order"] == 3


def test_order_cap_failure_exits_1(capsys):
    code, _, err = run(capsys, "order", "e1", "--cap", "2")
    assert code == 1
    assert "cap" in err


def test_closure_command_json(capsys):
    code, out, _ = run(capsys, "closure", "e3", "e4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 27
    assert doc["closed"] is True
    assert doc["truncated"] is False
    assert doc["support_coords"] == [3, 4, 10]
    assert len(doc["elements"]) == 27


def test_closure_command_text(capsys):
    code, out, _ = run(capsys, "closure", "e3", "e4")
    assert code == 0
    assert "order: 27" in out
    assert "support_coords: [3, 4, 10]" in out


def test_closure_truncation_exits_1(capsys):
    code, out, _ = run(capsys, "closure", "e3", "e4", "--cap", "5",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["truncated"] is True


def test_closure_bad_generator_exits_2(capsys):
    code, _, err = run(capsys, "closure", "e99")
    assert code == 2


def test_density_exact(capsys):
    code, out, _ = run(capsys, "density", "e3", "e4", "--mode", "exact",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["head_count"] == 19683
    assert doc["density"] == "1/3"
    assert doc["full_count"] == 19683 * 3 ** 9


def test_density_sample(capsys):
    code, out, _ = run(capsys, "density", "e3", "e4", "--mode", "sample",
                       "--trials", "300", "--seed", "42", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 300
    assert 0.2 < doc["density"] < 0.47


# -- prove ---------------------------------------------------------------------------

@pytest.mark.parametrize("claim", ["moufang", "inverse", "identity",
                                   "normal-form"])
def test_prove_each_claim(capsys, claim):
    code, out, _ = run(capsys, "prove", claim)
    assert code == 0
    assert "proved" in out


def test_prove_unknown_claim_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["prove", "frobnicate"])
    assert exc_info.value.code == 2


def test_prove_json(capsys):
    code, out, _ = run(capsys, "prove", "moufang", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "proved"
    assert doc["claim"] == "moufang"
    assert doc["tool_version"] == __version__


# -- verify -----------------------------------------------------------------------------

def test_verify_exact_checks_only(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "0", "--no-symbolic")
    assert code == 0
    assert "overall: PASS" in out
    assert "sweep_" not in out
    assert "prove_" not in out


def strip_timings(doc):
    for check in doc["checks"]:
        check.pop("millis", None)
    return doc


def test_verify_json_schema_and_determinism(capsys):
    argv = ["verify", "--trials", "500", "--seed", "42", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert strip_timings(doc1) == strip_timings(doc2)
    assert doc1["tool_version"] == __version__
    assert doc1["seed"] == 42
    assert doc1["trials"] == 500
    assert doc1["overall"] == "pass"
    names = [c["name"] for c in doc1["checks"]]
    assert names[:4] == ["table_validation", "identification_table",
                         "generator_associators", "nonsubloop_witness"]
    assert sum(n.startswith("sweep_") for n in names) == 6
    assert sum(n.startswith("prove_") for n in names) == 4
    assert all(c["verdict"] == "pass" for c in doc1["checks"])


def test_verify_corrupted_fixture_fails(capsys, tmp_path):
    corrupt = tmp_path / "tables"
    corrupt.mkdir()
    text = (_DATA_DIR / "f_table.txt").read_text()
    corrupt.joinpath("f_table.txt").write_text(
        text.replace("5; 2; x2*y1", "5; 2; x2*y2"))
    shutil.copy(_DATA_DIR / "h_table.txt", corrupt / "h_table.txt")

    code, out, _ = run(capsys, "verify", "--tables", str(corrupt),
                       "--trials", "2000", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "fail"
    failed = [c["name"] for c in doc["checks"] if c["verdict"] == "fail"]
    assert failed
    # the corruption must be caught well before the symbolic proofs
    assert any(name in ("identification_table", "generator_associators",
                        "nonsubloop_witness") or name.startswith("sweep_")
               for name in failed)


def test_prove_normal_form_reports_each_failed_power_once(capsys, tmp_path):
    # h_7 += 2*x6 makes h(t*e6) nonzero at t = 1 and t = 2
    edited = tmp_path / "tables"
    edited.mkdir()
    shutil.copy(_DATA_DIR / "f_table.txt", edited / "f_table.txt")
    edited.joinpath("h_table.txt").write_text(
        (_DATA_DIR / "h_table.txt").read_text() + "7; 2; x6\n")

    code, out, _ = run(capsys, "prove", "normal-form", "--tables", str(edited),
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted"
    assert doc["details"]["power_precheck"] == ["h(1*e6) != 0",
                                                "h(2*e6) != 0"]


@pytest.mark.parametrize("factor", ["w3", "x25", "x0"])
def test_table_variable_outside_the_ring_exits_1(capsys, tmp_path, factor):
    edited = tmp_path / "tables"
    edited.mkdir()
    edited.joinpath("f_table.txt").write_text(
        (_DATA_DIR / "f_table.txt").read_text() + f"7; 1; {factor}*y2\n")
    shutil.copy(_DATA_DIR / "h_table.txt", edited / "h_table.txt")
    code, out, err = run(capsys, "prove", "moufang", "--tables", str(edited))
    assert code == 1 and out == ""
    assert one_line_error(err) and "f_7 reads" in err


def test_verify_unreadable_tables_dir_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--tables", str(tmp_path / "nope"))
    assert code == 2


def test_verify_table_file_that_is_a_directory_exits_2(capsys, tmp_path):
    (tmp_path / "f_table.txt").mkdir()
    code, out, err = run(capsys, "verify", "--tables", str(tmp_path))
    assert code == 2 and out == ""
    assert one_line_error(err) and "f_table.txt" in err


def test_verify_bad_seed_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--trials", "10", "--seed", "0")
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("seed", ["0", "-1", str(2 ** 64)])
def test_verify_checks_the_seed_before_any_check(capsys, monkeypatch, seed,
                                                 via):
    # even when --trials 0 leaves no sweep to reject the seed
    ran = []
    monkeypatch.setattr(cli, "run_verification",
                        lambda *args: ran.append(args) or [])
    argv = ["verify", "--trials", "0", "--format", "json"]
    if via == "flag":
        argv += ["--seed", seed]
    else:
        monkeypatch.setenv("MOUFANG3_SEED", seed)
    code, out, err = run(capsys, *argv)
    assert (code, out, ran) == (2, "", [])
    assert one_line_error(err) and err.startswith("moufang3: rng state must be ")


@pytest.mark.parametrize("command", [("verify",),
                                     ("density", "e3", "e4", "--mode", "exact"),
                                     ("density", "e3", "e4", "--mode", "sample")],
                         ids=["verify", "density-exact", "density-sample"])
@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("flag,value,message", [
    ("seed", "0", "rng state must be nonzero"),
    ("seed", "-1", "rng state must be a 64-bit"),
    ("seed", str(2 ** 64), "rng state must be a 64-bit"),
    ("trials", "-5", "trials must be >= 0")],
    ids=["seed-0", "seed--1", "seed-2**64", "trials--5"])
def test_seeded_commands_check_seed_and_trials_first(capsys, monkeypatch,
                                                      command, via, flag,
                                                      value, message):
    # exact density reads neither value, and no work may start before the
    # check
    ran = []
    for module, name in ((cli, "run_verification"),
                         (cli.subloops, "count_l_set"),
                         (cli.subloops, "density_sample")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k:
                            ran.append(name))
    argv = [*command, "--format", "json"]
    if via == "flag":
        argv += [f"--{flag}", value]
    else:
        monkeypatch.setenv(f"MOUFANG3_{flag.upper()}", value)
    code, out, err = run(capsys, *argv)
    assert (code, out, ran) == (2, "", [])
    assert one_line_error(err) and err.startswith(f"moufang3: {message}")


def test_env_overrides_defaults(capsys, monkeypatch):
    monkeypatch.setenv("MOUFANG3_TRIALS", "17")
    monkeypatch.setenv("MOUFANG3_SEED", "99")
    code, out, _ = run(capsys, "verify", "--no-symbolic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 17
    assert doc["seed"] == 99


@pytest.mark.parametrize("name", ["MOUFANG3_SEED", "MOUFANG3_TRIALS"])
def test_non_integer_env_value_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--trials", "0", "--no-symbolic"])
    assert exc_info.value.code == 2
    assert f"{name}='abc' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("eval", "e1_0"),
    ("eval", "e 5"),
    ("eval", "(e1_0*e2)"),
    ("eval", "comm(e1,e1_9)"),
    ("order", "e\u0661\u0669"),
    ("density", "e3", "e\u0664"),
    ("verify", "--no-symbolic", "--trials", "\u0661\u0660"),
    ("verify", "--no-symbolic", "--trials", "1_0"),
    ("verify", "--no-symbolic", "--trials", " 5"),
    ("verify", "--no-symbolic", "--trials", "0", "--seed", "+7"),
    ("density", "e3", "e4", "--mode", "sample", "--trials", "\uff15"),
    ("closure", "e1", "--cap", "1_000"),
    ("closure", "e1", "--list-limit", "\u0668\u0661"),
    ("order", "e1", "--cap", "\u0669"),
])
def test_integer_text_takes_ascii_digits_only(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:      # argparse: usage, then one error line
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines()
                if line.startswith("moufang3")]) == 1


@pytest.mark.parametrize("name,value", [
    ("MOUFANG3_TRIALS", "\u0666\u0664"), ("MOUFANG3_SEED", "\u0664\u0662"),
    ("MOUFANG3_TRIALS", "1_0"), ("MOUFANG3_SEED", " 7 "),
])
def test_env_integer_takes_ascii_digits_only(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--trials", "0", "--no-symbolic"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err == f"moufang3: {name}={value!r} is not an integer\n"


def test_negative_integer_flags_reach_their_checks(capsys):
    code, _, err = run(capsys, "verify", "--no-symbolic", "--trials", "-5")
    assert code == 2 and err == "moufang3: trials must be >= 0\n"
    code, _, err = run(capsys, "closure", "e1", "--cap", "-1")
    assert code == 2 and err == "moufang3: cap must be >= 1\n"


@pytest.mark.parametrize("line", ["5; 1; x\u0662*y1", "\u0665; 1; x2*y1",
                                  "5; \u0661; x2*y1"])
def test_table_with_non_ascii_digits_exits_1(capsys, tmp_path, line):
    edited = tmp_path / "tables"
    edited.mkdir()
    edited.joinpath("f_table.txt").write_text(
        (_DATA_DIR / "f_table.txt").read_text() + line + "\n")
    shutil.copy(_DATA_DIR / "h_table.txt", edited / "h_table.txt")
    code, out, err = run(capsys, "prove", "moufang", "--tables", str(edited))
    assert code == 1 and out == ""
    assert one_line_error(err) and "f table line" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# -- self-check failures: exit 1, one line, no traceback -------------------------

def one_line_error(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("moufang3: ") \
        and "Traceback" not in err


def test_tail_centrality_failure_exits_1(capsys, monkeypatch):
    from moufang3 import LoopLawError, TailCentralityBroken, subloops
    from moufang3.polys import var
    from moufang3.symbolic import SymbolicLoop

    variety = SymbolicLoop.associator_variety

    def leaky(self, b1, b2):
        coords = list(variety(self, b1, b2))
        coords[6] = coords[6] + var("x", 11)
        return tuple(coords)

    monkeypatch.setattr(SymbolicLoop, "associator_variety", leaky)
    with pytest.raises(TailCentralityBroken) as info:
        subloops.count_l_set(subloops.default_loop(), basis(3), basis(4))
    assert isinstance(info.value, LoopLawError)
    code, out, err = run(capsys, "density", "e3", "e4")
    assert code == 1 and out == ""
    assert one_line_error(err) and "centrality of the tail" in err


def test_canonical_form_failure_exits_1(capsys, monkeypatch, tmp_path):
    from moufang3 import CanonicalFormBroken, LoopLawError
    from moufang3.polys import Poly, var
    from moufang3.symbolic import nonzero_point

    # every evaluation and specialization reads zero, as if the
    # representation had lost the canonical form
    monkeypatch.setattr(Poly, "evaluate", lambda self, assignment: 0)
    monkeypatch.setattr(Poly, "specialize", lambda self, v, t: Poly.zero())
    with pytest.raises(CanonicalFormBroken) as info:
        nonzero_point(var("x", 1) * var("y", 2))
    assert isinstance(info.value, LoopLawError)

    # a corrupted f makes the Moufang proof look for a refuting point
    corrupt = tmp_path / "tables"
    corrupt.mkdir()
    corrupt.joinpath("f_table.txt").write_text(
        (_DATA_DIR / "f_table.txt").read_text().replace("5; 2; x2*y1",
                                                        "5; 1; x2*y1"))
    shutil.copy(_DATA_DIR / "h_table.txt", corrupt / "h_table.txt")
    code, out, err = run(capsys, "prove", "moufang", "--tables", str(corrupt))
    assert code == 1 and out == ""
    assert one_line_error(err) and "canonical form broken" in err

    code, out, err = run(capsys, "verify", "--tables", str(corrupt),
                         "--trials", "0", "--format", "json")
    assert code == 1 and err == ""
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert rows["prove_moufang"]["verdict"] == "fail"
    assert "canonical form broken" in rows["prove_moufang"]["details"]["error"]
