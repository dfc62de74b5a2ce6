import json
import subprocess
import sys
from pathlib import Path

import pytest

from topzeta import cli
from topzeta.cli import build_parser, corpus_path_default, main

DATA = Path(__file__).parent / "data"
RESOLUTIONS = Path(corpus_path_default()).parent / "resolutions"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- zeta ---------------------------------------------------------------------

def test_zeta_both_pipelines_cusp(capsys):
    code, out, _ = run(capsys, "zeta", "--poly", "x^2 + y^3", "--pipeline", "both")
    assert code == 0
    assert "(4*s + 5) / (6*s^2 + 11*s + 5)" in out
    assert "pipelines agree on Z: yes" in out
    assert "lct    = 5/6" in out


def test_zeta_machine_report(capsys):
    code, out, _ = run(
        capsys, "zeta", "--poly", "x^2 + y^3", "--format", "machine"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    blowup = doc["results"]["blowup"]
    assert blowup["zeta"] == {"num": [5, 4], "den": [5, 11, 6]}
    assert blowup["poles"] == [[{"num": -5, "den": 6}, 1], [{"num": -1, "den": 1}, 1]]
    assert blowup["lct"] == {"num": 5, "den": 6}
    assert blowup["blowup_history"] == [[2, 2], [3, 3], [6, 5]]
    assert blowup["conjecture4"]["passed"] is True


def test_zeta_monomial_file(capsys):
    code, out, _ = run(
        capsys, "zeta", "--file", str(RESOLUTIONS / "monomial_n3_N2.json"),
        "--pipeline", "file", "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]["file"]
    assert res["zeta"] == {"num": [1], "den": [1, 6, 12, 8]}
    assert res["poles"] == [[{"num": -1, "den": 2}, 3]]
    assert res["prediction"]["N"] == 2
    assert res["prediction"]["grw_eigenvalues"] == [
        {"num": 1, "den": 2}, {"num": 1, "den": 1}
    ]
    # isolatedness not established for the triple product: divisor withheld
    assert res["prediction"]["divisor_roots"] == []


def test_zeta_file_assert_isolated(capsys):
    code, out, _ = run(
        capsys, "zeta", "--file", str(RESOLUTIONS / "monomial_n3_N2.json"),
        "--pipeline", "file", "--format", "machine", "--assert-isolated",
    )
    doc = json.loads(out)
    res = doc["results"]["file"]
    assert res["prediction"]["divisor_roots"] == [
        [{"num": -1, "den": 2}, 3], [{"num": -1, "den": 1}, 3]
    ]


def test_zeta_global_scope(capsys):
    code, out, _ = run(
        capsys, "zeta", "--file", str(RESOLUTIONS / "cusp_global.json"),
        "--pipeline", "file", "--scope", "global", "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["file"]["zeta"] == {"num": [5, 4], "den": [5, 11, 6]}
    assert doc["results"]["file"]["scope"] == "global"


def test_zeta_scope_mismatch_is_input_error(capsys):
    code, _, err = run(
        capsys, "zeta", "--file", str(RESOLUTIONS / "cusp_global.json"),
        "--pipeline", "file",
    )
    assert code == 1 and "scope" in err


def test_zeta_nonreduced_guard(capsys):
    code, _, err = run(capsys, "zeta", "--poly", "x^2*y")
    assert code == 1
    assert "not reduced" in err


def test_zeta_nonreduced_with_flag(capsys):
    code, out, _ = run(
        capsys, "zeta", "--poly", "x^2*y", "--allow-nonreduced",
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["blowup"]["zeta"] == {"num": [1], "den": [1, 3, 2]}


def test_zeta_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "zeta", "--poly", "x^2 + )")
    assert code == 1 and "error" in err


def test_zeta_unknown_variable(capsys):
    code, _, err = run(capsys, "zeta", "--poly", "x + t")
    assert code == 1


def test_zeta_nonvanishing_germ(capsys):
    code, _, err = run(capsys, "zeta", "--poly", "1 + x")
    assert code == 1
    assert err == "error: germ does not vanish at the origin\n"


@pytest.mark.parametrize("text,message", [
    ("1 + x", "error: germ does not vanish at the origin\n"),
    ("0", "error: the zero polynomial is not a germ\n"),
    ("x*y - x*y", "error: the zero polynomial is not a germ\n"),
])
@pytest.mark.parametrize("pipeline", ["both", "blowup", "toric"])
def test_zeta_non_germ(capsys, text, message, pipeline):
    code, out, err = run(capsys, "zeta", "--poly", text, "--pipeline", pipeline)
    assert (code, out, err) == (1, "", message)
    code, out, err = run(capsys, "explain", "--poly", text, "--pipeline", pipeline)
    assert (code, out, err) == (1, "", message)


# the squarefree decomposition's dense rows could not even be allocated: with
# 10^20 the length overflows an index, with 2^62 + 1 CPython refuses at once
@pytest.mark.parametrize("text", [
    "x^99999999999999999999+y^2",
    "x^4611686018427387905+y^2",
    "y^4611686018427387905+x^2",
])
@pytest.mark.parametrize("pipeline", ["both", "blowup", "toric"])
def test_huge_exponent_is_a_typed_error(capsys, text, pipeline):
    for command in ("zeta", "explain"):
        code, out, err = run(capsys, command, "--poly", text, "--pipeline", pipeline)
        assert code == 1 and out == ""
        assert err.startswith("error: degree ") and err.count("\n") == 1
        assert "too large" in err and "Traceback" not in err


def test_theorem_violation_exit_code_2(capsys):
    code, _, err = run(
        capsys, "zeta", "--file", str(DATA / "violation.json"), "--pipeline", "file"
    )
    assert code == 2
    assert "THEOREM VIOLATION" in err


def test_zeta_requires_exactly_one_input(capsys):
    code, _, _ = run(capsys, "zeta")
    assert code == 1
    code, _, _ = run(
        capsys, "zeta", "--poly", "x", "--file", str(DATA / "violation.json")
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [["zeta", "--bogus"], [], ["zeta", "--poly", "x", "--pipeline", "nope"]],
    ids=["unknown-option", "no-subcommand", "bad-choice"],
)
def test_usage_errors_exit_1(capsys, argv):
    # exit code 2 is reserved for theorem violations
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: topzeta") and "error:" in err


def test_poly_value_may_start_with_minus(capsys):
    code, out, _ = run(capsys, "zeta", "--poly", "-x^2-y^3", "--format", "machine")
    assert code == 0
    assert json.loads(out)["input"] == {"poly": "-x^2-y^3"}
    assert run(capsys, "zeta", "--poly=-x^2-y^3", "--format", "machine")[1] == out
    assert run(capsys, "zeta", "--pol", "-x^2-y^3", "--format", "machine")[1] == out
    code, out, _ = run(capsys, "explain", "--poly", "-x^2-y^3", "--pipeline", "toric")
    assert code == 0 and out.startswith("input: -x^2-y^3\n")


def test_usage_error_process_exit_code():
    src = str(Path(__import__("topzeta").__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "topzeta", "zeta", "--bogus"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src, "PATH": ""},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "path, value",
    [(("components", 0, "N"), 2.5), (("components", 0, "N"), True),
     (("components", 0, "N"), "two"), (("components", 0, "N"), None),
     (("components", 1, "nu"), 1.0), (("strata", 0, "chi_total"), "1"),
     (("ambient_dim",), False), (("empty_stratum", "chi_origin"), None)],
)
def test_resolution_document_integer_fields(capsys, tmp_path, path, value):
    doc = json.loads((DATA / "violation.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    code, _, err = run(capsys, "zeta", "--file", str(file), "--pipeline", "file")
    assert code == 1
    assert err.startswith("error:") and "must be an integer" in err


@pytest.mark.parametrize(
    "path, value, message",
    [(("components", 0, "meets_origin_fiber"), "no", "must be true or false"),
     (("strata", 0, "ids"), "E1", "must be a list of strings"),
     (("branch_ids",), "E1", "must be a list of strings")],
    ids=["meets_origin_fiber", "stratum-ids", "branch_ids"],
)
def test_resolution_document_bool_and_id_fields(capsys, tmp_path, path, value, message):
    doc = json.loads((DATA / "violation.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "zeta", "--file", str(file), "--pipeline", "file")
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_deeply_nested_parentheses_exit_1(capsys):
    text = "(" * 3000 + "x" + ")" * 3000 + "+y^2"
    code, _, err = run(capsys, "zeta", "--poly", text)
    assert code == 1
    assert err.startswith("error: parentheses nested deeper than")


def test_global_scope_needs_file(capsys):
    code, _, err = run(capsys, "zeta", "--poly", "x*y", "--scope", "global")
    assert code == 1


def test_degenerate_reduced_germ_needs_blowup_pipeline(capsys):
    # two smooth branches with a common tangent: reduced but degenerate,
    # so `both` fails while the blowup pipeline succeeds
    text = "(x + y)*(x + y + x^2)"
    code, _, err = run(capsys, "zeta", "--poly", text, "--pipeline", "both")
    assert code == 1 and "degenerate" in err
    code, out, _ = run(
        capsys, "zeta", "--poly", text, "--pipeline", "blowup", "--format", "machine"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["blowup"]["conjecture4"]["passed"] is True


def test_both_pipelines_fail_fast_on_degenerate_germ(capsys, monkeypatch):
    # the toric side runs first and raises Degenerate before any blowup
    def no_blowups(*args, **kwargs):
        raise AssertionError("blowup resolution ran")

    monkeypatch.setattr(cli, "resolve_curve_state", no_blowups)
    code, out, err = run(capsys, "zeta", "--poly", "(y^2-x^3)^2+x^7")
    assert code == 1 and out == ""
    assert "degenerate" in err


# -- determinism -----------------------------------------------------------------

def test_machine_output_bit_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "zeta", "--poly", "(x^2 + y^3)*(x^3 + y^2)",
            "--format", "machine",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# -- corpus ------------------------------------------------------------------------

def test_bundled_corpus_passes(capsys):
    code, out, _ = run(capsys, "corpus", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] >= 70 and doc["passed"] == doc["total"]


def test_corrupted_corpus_fails(tmp_path, capsys):
    with open(corpus_path_default(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["entries"] = doc["entries"][:3]
    doc["entries"][1]["expected"]["zeta"]["num"] = [999]
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "corpus", "--corpus", str(bad))
    assert code == 1
    assert "FAIL" in out and "999" in out


def test_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": 1, "entries": []}))
    code, out, _ = run(capsys, "corpus", "--corpus", str(empty))
    assert code == 0
    assert "0/0" in out


def test_bless_round_trip(tmp_path, capsys):
    with open(corpus_path_default(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["entries"] = doc["entries"][:4]
    for entry in doc["entries"]:
        entry.pop("expected", None)
    work = tmp_path / "work.json"
    work.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "corpus", "--corpus", str(work), "--bless")
    assert code == 0 and "blessed 4 entries" in out
    code, out, _ = run(capsys, "corpus", "--corpus", str(work))
    assert code == 0


# -- explain -----------------------------------------------------------------------

def test_explain_cusp(capsys):
    code, out, _ = run(capsys, "explain", "--poly", "x^2 + y^3")
    assert code == 0
    assert "blowup: 3 steps" in out
    assert "(N, nu) = (2, 2)" in out
    assert "(N, nu) = (3, 3)" in out
    assert "(N, nu) = (6, 5)" in out
    assert "(3, 2): N = 6, sigma = 5 [original]" in out
    assert "(2, 1): N = 3, sigma = 3 [inserted]" in out


def test_explain_node(capsys):
    code, out, _ = run(capsys, "explain", "--poly", "x*y", "--pipeline", "blowup")
    assert code == 0
    assert "blowup: 1 steps" in out


def test_explain_smooth(capsys):
    code, out, _ = run(capsys, "explain", "--poly", "x + y^2", "--pipeline", "blowup")
    assert code == 0
    assert "identity resolution" in out


# the whole blowup witness, byte for byte: step lines (centers, corners, the
# parents each center lies on, ids) and the identity line
@pytest.mark.parametrize("text,expected", [
    ('x^2 + y^3', """\
input: x^2 + y^3
blowup: 3 steps
  step 1: center origin, strict multiplicity 2 -> E1 with (N, nu) = (2, 2)
  step 2: center t=infinity on E1 through E1, strict multiplicity 1 -> E2 with (N, nu) = (3, 3)
  step 3: center t=0 on E2, corner with E1 through E1 and E2, strict multiplicity 1 -> E3 with (N, nu) = (6, 5)
  components (id, N, nu):
    E1: (2, 2)
    E2: (3, 3)
    E3: (6, 5)
    B1: (1, 1)
  strata (ids, chi_total, chi_origin):
    {B1}: (0, 0)
    {E1}: (1, 1)
    {E2}: (1, 1)
    {E3}: (-1, -1)
    {B1, E3}: (1, 1)
    {E1, E3}: (1, 1)
    {E2, E3}: (1, 1)
"""),
    ('(y^2-x^3)^2+x^7', """\
input: (y^2-x^3)^2+x^7
blowup: 4 steps
  step 1: center origin, strict multiplicity 4 -> E1 with (N, nu) = (4, 2)
  step 2: center t=0 on E1 through E1, strict multiplicity 2 -> E2 with (N, nu) = (6, 3)
  step 3: center t=infinity on E2, corner with E1 through E1 and E2, strict multiplicity 2 -> E3 with (N, nu) = (12, 5)
  step 4: center t=1 on E3 through E3, strict multiplicity 2 -> E4 with (N, nu) = (14, 6)
  components (id, N, nu):
    E1: (4, 2)
    E2: (6, 3)
    E3: (12, 5)
    E4: (14, 6)
    B1: (1, 1)
  strata (ids, chi_total, chi_origin):
    {B1}: (0, 0)
    {E1}: (1, 1)
    {E2}: (1, 1)
    {E3}: (-1, -1)
    {E4}: (-1, -1)
    {B1, E4}: (2, 2)
    {E1, E3}: (1, 1)
    {E2, E3}: (1, 1)
    {E3, E4}: (1, 1)
"""),
    ('x + y^2', """\
input: x + y^2
blowup: germ is smooth, identity resolution, 0 steps
  components (id, N, nu):
    B1: (1, 1)
  strata (ids, chi_total, chi_origin):
    {B1}: (1, 1)
"""),
])
def test_explain_blowup_golden(capsys, text, expected):
    code, out, _ = run(capsys, "explain", "--poly", text, "--pipeline", "blowup")
    assert code == 0
    assert out == expected


# the whole toric witness, byte for byte: the subdivided fan read off the
# Newton polygon's segments, then the components and strata
@pytest.mark.parametrize("text,expected", [
    ('x^2 + y^3', """\
input: x^2 + y^3
toric: subdivided dual fan rays (vector, N, sigma)
  (1, 0): N = 0, sigma = 1 [original]
  (2, 1): N = 3, sigma = 3 [inserted]
  (3, 2): N = 6, sigma = 5 [original]
  (1, 1): N = 2, sigma = 2 [inserted]
  (0, 1): N = 0, sigma = 1 [original]
  components (id, N, nu):
    E1: (3, 3)
    E2: (6, 5)
    E3: (2, 2)
    B1: (1, 1)
  strata (ids, chi_total, chi_origin):
    {B1}: (0, 0)
    {E1}: (1, 1)
    {E2}: (-1, -1)
    {E3}: (1, 1)
    {B1, E2}: (1, 1)
    {E1, E2}: (1, 1)
    {E2, E3}: (1, 1)
"""),
    ('x*(x+y)', """\
input: x*(x+y)
toric: subdivided dual fan rays (vector, N, sigma)
  (1, 0): N = 1, sigma = 1 [original]
  (1, 1): N = 2, sigma = 2 [original]
  (0, 1): N = 0, sigma = 1 [original]
  components (id, N, nu):
    Ax: (1, 1)
    E1: (2, 2)
    B1: (1, 1)
  strata (ids, chi_total, chi_origin):
    {Ax}: (0, 0)
    {B1}: (0, 0)
    {E1}: (0, 0)
    {Ax, E1}: (1, 1)
    {B1, E1}: (1, 1)
"""),
    ('(x^2+y^3)*(x^3+y^2)', """\
input: (x^2+y^3)*(x^3+y^2)
toric: subdivided dual fan rays (vector, N, sigma)
  (1, 0): N = 0, sigma = 1 [original]
  (2, 1): N = 5, sigma = 3 [inserted]
  (3, 2): N = 10, sigma = 5 [original]
  (1, 1): N = 4, sigma = 2 [inserted]
  (2, 3): N = 10, sigma = 5 [original]
  (1, 2): N = 5, sigma = 3 [inserted]
  (0, 1): N = 0, sigma = 1 [original]
  components (id, N, nu):
    E1: (5, 3)
    E2: (10, 5)
    E3: (4, 2)
    E4: (10, 5)
    E5: (5, 3)
    B1: (1, 1)
    B2: (1, 1)
  strata (ids, chi_total, chi_origin):
    {B1}: (0, 0)
    {B2}: (0, 0)
    {E1}: (1, 1)
    {E2}: (-1, -1)
    {E3}: (0, 0)
    {E4}: (-1, -1)
    {E5}: (1, 1)
    {B1, E4}: (1, 1)
    {B2, E2}: (1, 1)
    {E1, E2}: (1, 1)
    {E2, E3}: (1, 1)
    {E3, E4}: (1, 1)
    {E4, E5}: (1, 1)
"""),
    ('x*(y^2-x^3)', """\
input: x*(y^2-x^3)
toric: subdivided dual fan rays (vector, N, sigma)
  (1, 0): N = 1, sigma = 1 [original]
  (1, 1): N = 3, sigma = 2 [inserted]
  (2, 3): N = 8, sigma = 5 [original]
  (1, 2): N = 4, sigma = 3 [inserted]
  (0, 1): N = 0, sigma = 1 [original]
  components (id, N, nu):
    Ax: (1, 1)
    E1: (3, 2)
    E2: (8, 5)
    E3: (4, 3)
    B1: (1, 1)
  strata (ids, chi_total, chi_origin):
    {Ax}: (0, 0)
    {B1}: (0, 0)
    {E1}: (0, 0)
    {E2}: (-1, -1)
    {E3}: (1, 1)
    {Ax, E1}: (1, 1)
    {B1, E2}: (1, 1)
    {E1, E2}: (1, 1)
    {E2, E3}: (1, 1)
"""),
])
def test_explain_toric_golden(capsys, text, expected):
    code, out, _ = run(capsys, "explain", "--poly", text, "--pipeline", "toric")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("pipeline", ["both", "blowup", "toric"])
def test_explain_checks_reducedness_on_every_pipeline(capsys, pipeline):
    # x^2*y + x^5 = x^2 (y + x^3): the repeated factor x passes through the origin
    code, out, err = run(capsys, "explain", "--poly", "x^2*y+x^5", "--pipeline", pipeline)
    assert code == 1 and out == ""
    assert "not reduced" in err
    code, out, _ = run(
        capsys, "explain", "--poly", "x^2*y+x^5", "--pipeline", pipeline,
        "--allow-nonreduced",
    )
    assert code == 0
    if pipeline != "blowup":
        assert "(1, 0): N = 2, sigma = 1 [original]" in out
        assert "    Ax: (2, 1)" in out


def test_parser_rejects_unknown_pipeline():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["zeta", "--poly", "x", "--pipeline", "nope"])


def test_cli_runs_without_sympy():
    # every subcommand factors with topzeta's own integer code
    script = f"""
import contextlib, io, sys
from topzeta.cli import main
runs = (
    ["zeta", "--poly", "(x^2-y^3)*(x^3-y^2)*(x^4+y^5)"],
    ["zeta", "--file", {str(RESOLUTIONS / "cusp_global.json")!r}, "--scope", "global"],
    ["explain", "--poly", "x^4-y^6+x^5"],
    ["corpus", "--format", "machine"],
)
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
assert "sympy" not in sys.modules
"""
    src = str(Path(__import__("topzeta").__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
