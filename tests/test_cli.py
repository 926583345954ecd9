"""Command-line behavior: outputs, exit codes, determinism."""

import io
import contextlib
import os
import subprocess
import sys
import tracemalloc

import pytest

import lvf
from lvf import catalog
from lvf import obstruction
from lvf.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_bracket_example():
    code, out, _ = run(["bracket", "Dy", "y*Dx + Dz"])
    assert code == 0
    assert out.strip() == "Dx"


def test_bracket_with_params():
    code, out, _ = run(["bracket", "Dy", "y*Dx + l*Dy", "--param", "l=1/2"])
    assert code == 0
    assert out.strip() == "Dx"


def test_rank():
    code, out, _ = run(["rank", "Dx", "Dy", "y*Dx + Dz"])
    assert (code, out.strip()) == (0, "3")


def test_expression_error_exit_2():
    code, _, err = run(["bracket", "Dy +", "Dx"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_2():
    code, _, _ = run(["no-such-command"])
    assert code == 2


def test_verify_all_passes():
    code, out, _ = run(["verify", "--all"])
    assert code == 0
    assert "summary: 16/16 pass" in out


def test_verify_single_form():
    code, out, _ = run(["verify", "--form", "b2.1"])
    assert code == 0
    assert "summary: 1/1 pass" in out


def test_verify_violating_params_exit_1():
    code, out, _ = run(["verify", "--form", "sl2xsl2.3", "--param", "b=0"])
    assert code == 1


def test_verify_records_deterministic():
    code1, out1, _ = run(["verify", "--all", "--format", "records"])
    code2, out2, _ = run(["verify", "--all", "--format", "records"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[-1] == "record kind=summary passed=16 total=16 status=pass"


def test_centralizer():
    code, out, _ = run(["centralizer", "--form", "heisenberg.2", "--max-degree", "4"])
    assert code == 0
    assert "generic rank 2" in out
    code, out, _ = run(["centralizer", "--form", "heisenberg.3", "--max-degree", "4"])
    assert code == 0
    assert "generic rank 1" in out


def test_structure_b2_model():
    code, out, _ = run(["structure", "--type", "B2", "--model", "sl4"])
    assert code == 0
    assert "cartan matrix [[2, -1], [-2, 2]]" in out
    assert "N[alpha][beta] = 1" in out


def test_structure_g2():
    code, out, _ = run(["structure", "--type", "G2"])
    assert code == 0
    assert "positive roots: alpha, beta, alpha+beta, alpha+2beta, alpha+3beta, 2alpha+3beta" in out


def test_structure_model_mismatch():
    code, _, err = run(["structure", "--type", "A2", "--model", "sl4"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--type", "A2", "--model", "sl2.1"], "catalog entry sl2.1 is not an A2 or B2 realization"),
    (["--type", "B2", "--model", "a2.1"], "catalog entry a2.1 realizes A2, not B2"),
])
def test_structure_catalog_model_of_another_type(argv, message):
    code, out, err = run(["structure", *argv])
    assert (code, out, err) == (2, "", message + "\n")


def test_structure_catalog_model():
    code, out, _ = run(["structure", "--type", "A2", "--model", "a2.1"])
    assert code == 0
    assert "N[alpha][beta] = 1" in out


def test_g2_check():
    code, out, _ = run(["g2-check", "--form", "2", "--max-degree", "2"])
    assert code == 0
    assert out.strip() == "OBSTRUCTED: X_{alpha+2beta} = 0"


def test_g2_check_negative_degree_refused():
    code, out, err = run(["g2-check", "--form", "1", "--max-degree", "-3"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "degree" in err


def test_g2_check_bounds_one_exponent_block():
    # five exponent blocks (z-exponents 0, -2, -1, 1, 2) of 3 * C(22, 3)
    # = 4620 fields each are solved jointly at degree 19; the bound
    # refuses a degree whose single block passes 20000 fields
    code, out, _ = run(["g2-check", "--form", "1", "--max-degree", "19"])
    assert (code, out) == (0, "OBSTRUCTED: X_{alpha+2beta} = 0\n")
    code, out, err = run(["g2-check", "--form", "1", "--max-degree", "33"])
    assert (code, out) == (2, "")
    assert err == "error: ansatz of degree 33 in dimension 3 has more than 20000 basis fields\n"


def test_internal_error_exit_3(monkeypatch):
    solve = obstruction.solve

    def dependent(*args, **kwargs):
        result = solve(*args, **kwargs)
        result.basis += result.basis[:1]
        return result

    monkeypatch.setattr(obstruction, "solve", dependent)
    code, _, err = run(["g2-check", "--form", "2", "--max-degree", "2", "--control"])
    assert code == 3
    assert err.startswith("record kind=error class=internal ")
    assert len(err.strip().splitlines()) == 1


def test_deeply_nested_argument_exit_2():
    deep = "(" * 3000 + "x" + ")" * 3000 + "*Dx"
    code, _, err = run(["bracket", deep, "Dy"])
    assert code == 2
    assert "nesting" in err and len(err.strip().splitlines()) == 1


def test_huge_power_exit_2():
    code, _, err = run(["bracket", "x^100000000*Dx", "Dy"])
    assert code == 2
    assert "power" in err


def test_verify_unknown_param_exit_2():
    code, out, err = run(["verify", "--form", "sl2xsl2.3", "--param", "zz=1"])
    assert code == 2
    assert out == "" and "zz" in err and len(err.strip().splitlines()) == 1
    code, _, err = run(["centralizer", "--form", "heisenberg.2", "--param", "zz=1"])
    assert code == 2 and "zz" in err
    # --all refuses a name that no entry declares
    code, out, err = run(["verify", "--all", "--param", "nosuch=2"])
    assert code == 2
    assert out == "" and "nosuch" in err and len(err.strip().splitlines()) == 1


def test_verify_all_param_reaches_only_declaring_entries():
    code, out, _ = run(["verify", "--all", "--param", "lambda=2", "--format", "records"])
    assert code == 0
    entries = [line for line in out.splitlines() if "kind=entry" in line]
    assert len(entries) == 16
    given = [line.split()[2] for line in entries if "lambda=2" in line]
    assert given == ["id=heisenberg.2"]
    assert "record kind=entry id=heisenberg.1 params=[] " in out


def test_g2_check_records():
    code, out, _ = run(["g2-check", "--form", "3", "--max-degree", "2", "--format", "records"])
    assert code == 0
    assert "verdict=obstructed" in out.splitlines()[-1]


def test_catalog_list_and_show():
    code, out, _ = run(["catalog", "list"])
    assert code == 0
    assert len(out.strip().splitlines()) == 16
    code, out, _ = run(["catalog", "show", "heisenberg.1"])
    assert code == 0
    assert 'gen Y = "y*Dx + Dz";' in out
    code, _, _ = run(["catalog", "show", "nope.1"])
    assert code == 2


def test_catalog_export_and_env_override(tmp_path, monkeypatch):
    path = tmp_path / "cat.lvf"
    code, out, _ = run(["catalog", "export", str(path)])
    assert code == 0 and path.exists()
    monkeypatch.setenv("LVF_CATALOG", str(path))
    code, out, _ = run(["verify", "--all"])
    assert code == 0 and "16/16" in out
    # a reduced catalog through the override
    small = catalog.load_builtin()[:2]
    small_path = tmp_path / "small.lvf"
    catalog.write(str(small_path), small)
    monkeypatch.setenv("LVF_CATALOG", str(small_path))
    code, out, _ = run(["verify", "--all"])
    assert code == 0 and "2/2" in out


@pytest.mark.parametrize("argv", [
    ["bracket", "Dx", "Dy", "--param", "a=1/0"],
    ["verify", "--form", "heisenberg.2", "--param", "lambda=1/0"],
])
def test_zero_denominator_param_exit_2(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(),
    reason="the interpreter converts integers of any length",
)
def test_over_long_param_literal_exit_2():
    code, out, err = run(["verify", "--form", "heisenberg.2", "--param", "lambda=0." + "5" * 5000])
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: literal has 5001 digits; at most {limit} are accepted\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(),
    reason="the interpreter converts integers of any length",
)
@pytest.mark.parametrize("field", ["1" * 5000 + "*Dx", "x^" + "1" * 5000 + "*Dx"])
def test_over_long_number_in_expression_exit_2(field):
    code, out, err = run(["bracket", field, "x*Dx"])
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: literal has 5000 digits; at most {limit} are accepted\n"


@pytest.mark.parametrize("old, new", [
    ("lambda = 0;", "lambda = 1/0;"),
    ("rel [X, Y] = Z;", "rel [X, Y] = 1/0*Z;"),
])
def test_catalog_zero_denominator_exit_2(tmp_path, monkeypatch, old, new):
    path = tmp_path / "cat.lvf"
    catalog.write(str(path), catalog.load_builtin())
    path.write_text(path.read_text().replace(old, new, 1))
    monkeypatch.setenv("LVF_CATALOG", str(path))
    code, out, err = run(["verify", "--all"])
    assert (code, out) == (2, "")
    message = "zero denominator in '1/0'"
    if old.startswith("rel"):
        # a relation's refusal names the relation and its record
        message = f"bad relation '[X, Y] = 1/0*Z': {message} (realization at offset 0)"
    assert err == f"error: {message}\n"


def test_catalog_without_records_exit_2(tmp_path, monkeypatch):
    path = tmp_path / "empty.lvf"
    path.write_text("\n")
    monkeypatch.setenv("LVF_CATALOG", str(path))
    for argv in (["verify", "--all"], ["catalog", "list"]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == f"error: catalog file {path} holds no realization record\n"


@pytest.mark.parametrize("argv", [
    ["bracket", "x*Dx", "Dy", "--param", "x=1"],
    ["rank", "Dx", "--param", "exp=1"],
])
def test_param_named_like_a_builtin_exit_2(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: parameter {argv[-1][:-2]} named like a builtin\n"


@pytest.mark.parametrize("argv, message", [
    (["bracket", "Dx", "Dy", "--param", "=1"], "bad parameter name ''"),
    (["bracket", "Dx", "Dy", "--param", "1a=2"], "bad parameter name '1a'"),
    (["rank", "Dx", "--param", "a b=1"], "bad parameter name 'a b'"),
    (["bracket", "Dx", "a*Dy", "--param", "a=1", "--param", "a=2"], "parameter a defined twice"),
    (["verify", "--form", "heisenberg.2", "--param", "lambda=1", "--param", "lambda=2"],
     "parameter lambda defined twice"),
    (["centralizer", "--form", "heisenberg.2", "--param", "lambda=1", "--param", "lambda=1"],
     "parameter lambda defined twice"),
    (["bracket", "Dx", "a*Dy", "--param", "a=x"], "not a rational number: 'x'"),
    (["verify", "--form", "heisenberg.2", "--param", "lambda="], "not a rational number: ''"),
])
def test_bad_or_repeated_param_name_exit_2(argv, message):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("body", [
    'dim -3; expected_rank 0; expect_semisimple true;',
    'dim 3; expected_rank 0; expect_semisimple true;',
    'gen X = "Dx"; gen X = "Dy"; expected_rank 1; expect_semisimple false;',
    'gen X = "Dx"; expected_rank 1; expect_semisimple yes;',
    'dim 3/2; gen X = "Dx";',
    f'dim {"1" * 5000}; gen X = "Dx";',
    f'expected_rank {"1" * 5000}; gen X = "Dx";',
    'gen X = "Dx"; rel [X, X] = X',
    'dim 3; dim 2; gen X = "Dx"; expected_rank 1; expect_semisimple false;',
    'gen X = "Dx"; expected_rank 1; expect_semisimple false; notes "a"; notes "b";',
    'gen X = "Dx"; expected_rank 1; expect_semisimple false; constraints { "a +"; };',
])
def test_malformed_catalog_exit_2_with_offset(tmp_path, monkeypatch, body):
    path = tmp_path / "cat.lvf"
    path.write_text(f"realization bad.1 {{ {body} }}")
    monkeypatch.setenv("LVF_CATALOG", str(path))
    code, out, err = run(["verify", "--all"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "offset" in err


@pytest.mark.parametrize("argv", [
    ["catalog", "list"], ["verify", "--all"], ["centralizer", "--form", "a"],
])
def test_catalog_repeated_id_exit_2(tmp_path, monkeypatch, argv):
    record = 'realization a {{ gen X = "{}"; expected_rank 1; expect_semisimple false; }}\n'
    path = tmp_path / "cat.lvf"
    path.write_text(record.format("Dx") + record.format("Dy"))
    monkeypatch.setenv("LVF_CATALOG", str(path))
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: realization a defined twice at offset {len(record.format('Dx'))}\n"


def test_catalog_cut_inside_rel_exits_2_at_once(tmp_path, monkeypatch):
    path = tmp_path / "cut.lvf"
    path.write_text('realization cut.1 {\n  dim 3;\n  gen X = "Dx";\n  rel [X, X] = X')
    monkeypatch.setenv("LVF_CATALOG", str(path))
    proc = _run_cli(["catalog", "list"], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: end of input inside a statement at offset 61\n"


def test_solve_from_file(tmp_path):
    path = tmp_path / "problem.lvf"
    path.write_text(
        "# eigenfields of d/dx\n"
        "dim 3\n"
        "exponents (1,0,0)\n"
        "degree 0\n"
        "eigen 1 : Dx\n"
    )
    code, out, _ = run(["solve", str(path)])
    assert code == 0
    assert "solution dimension 3" in out
    assert "exp(x)*Dx" in out


def test_solve_inconsistent_exit_1(tmp_path):
    path = tmp_path / "bad.lvf"
    path.write_text("dim 3\ndegree 2\nequals Dx -> exp(x)*Dx\n")
    code, out, _ = run(["solve", str(path)])
    assert code == 1
    assert "inconsistent" in out


@pytest.mark.parametrize("argv", [
    ["rank", "--dim", "-1", "Dx"],
    ["bracket", "--dim", "-2", "Dx", "Dy"],
    ["solve", "dim -1\neigen 1 : Dx\n"],
])
def test_dimension_below_one_exit_2(tmp_path, argv):
    if argv[0] == "solve":
        path = tmp_path / "neg.lvf"
        path.write_text(argv[1])
        argv = ["solve", str(path)]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "dimension must be at least 1" in err


@pytest.mark.parametrize("text, lineno, message", [
    ("dim 3\ndegree 1\n\nzero : Dq\n", 4, "unknown identifier 'Dq' (at position 0)"),
    ("dim 3\neigen 1 : Dx\nequals Dy -> exp(x*y)*Dx\n", 3,
     "exponent must be linear in the coordinates (at position 0)"),
    ("# wide\ndim 100000\neigen 1 : Dx\n", 2, "dimension must be at most 64, not 100000"),
    ("dim 100000\ndegree 0\ncomponents 1\n", 1, "dimension must be at most 64, not 100000"),
    ("degree 1\ndim 0\nzero : Dx\n", 2, "dimension must be at least 1, not 0"),
    ("dim 2\nexponents (0,0) (0,0,1)\nzero : Dx\n", 2, "exponent vector (0,0,1) in dimension 2"),
    ("dim 3\nparams a=1/0\nzero : a*Dx\n", 2, "zero denominator in '1/0'"),
    ("dim 3\ndegree 1\neigen 1/0: x*Dx\n", 3, "zero denominator in '1/0'"),
    ("exponents (0,0,0) (0,0,1/0)\nzero : Dx\n", 1, "zero denominator in '1/0'"),
    ("dim 3\nparams a=1e1000000000\nzero : a*Dx\n", 2,
     "exponent notation in '1e1000000000'; write p/q or a decimal"),
    ("exponents (0,0,1e9)\nzero : Dx\n", 1, "exponent notation in '1e9'; write p/q or a decimal"),
    ("dim 3\ndegree 1\neigen 2E5 : x*Dx\n", 3, "exponent notation in '2E5'; write p/q or a decimal"),
    ("dim 3\ncomponents 0\nzero : Dx\n", 2, "component 0 is out of range for dimension 3"),
    ("dim 0\ncomponents 1\n", 1, "dimension must be at least 1, not 0"),
    ("components w\ndim 3\nzero : Dx\n", 1, "component w is out of range for dimension 3"),
    ("dim 3\ncomponents x q\nzero : Dx\n", 2, "unknown component 'q'"),
    ("dim 3\ncomponents\nzero : Dx\n", 2, "components lists no component"),
    ("dim 3\ndegree -1\nzero : Dx\n", 2, "ansatz degree must be at least 0, not -1"),
    ("degree two\ndim 3\nzero : Dx\n", 1, "ansatz degree must be an integer, not 'two'"),
    ("degree 1\ndim three\nzero : Dx\n", 2, "dimension must be an integer, not 'three'"),
    ("dim three\n", 1, "dimension must be an integer, not 'three'"),
    # a literal that is no rational, and a params chunk without a value
    ("dim 3\neigen : Dx\n", 2, "not a rational number: ''"),
    ("dim 3\neigen one : Dx\n", 2, "not a rational number: 'one'"),
    ("exponents (0,0,q)\nzero : Dx\n", 1, "not a rational number: 'q'"),
    ("dim 3\nparams a=x\nzero : a*Dx\n", 2, "not a rational number: 'x'"),
    ("dim 3\nparams a\nzero : Dx\n", 2, "bad parameter 'a', expected name=p/q"),
    ("params b=1 a\n", 1, "bad parameter 'a', expected name=p/q"),
    # a parameter named like a builtin is refused at its params line,
    # also when no constraint reads it, against the final dimension
    ("dim 3\nparams x=1\neigen 1: Dx\n", 2, "parameter x named like a builtin"),
    ("dim 3\nparams x=1\n", 2, "parameter x named like a builtin"),
    ("params a=1\nparams w=2\ndim 4\n", 2, "parameter w named like a builtin"),
    # a name that is no identifier is refused at its line, and a
    # repeated name, component or line at the line of the repeat
    ("params =1\nzero : Dx\n", 1, "bad parameter name ''"),
    ("dim 3\nparams 1a=2\n", 2, "bad parameter name '1a'"),
    ("dim 3\nparams a=1 a=2\nzero : a*Dx\n", 2, "parameter a defined twice"),
    ("params a=1\ndim 3\nparams b=1 a=1\n", 3, "parameter a defined twice"),
    ("dim 3\ndegree 1\ndim 3\nzero : Dx\n", 3, "repeated dim line"),
    ("degree 1\ndim 3\n\ndegree 2\nzero : Dx\n", 4, "repeated degree line"),
    ("dim 3\ncomponents x x\nzero : Dx\n", 2, "component x listed twice"),
    ("components x 1\ndim 3\nzero : Dx\n", 1, "component 1 listed twice"),
    ("components x\ndim 3\ncomponents y\n", 3, "repeated components line"),
])
def test_solve_file_errors_name_their_line(tmp_path, text, lineno, message):
    path = tmp_path / "bad.lvf"
    path.write_text(text)
    code, out, err = run(["solve", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{lineno}: {message}\n"


def test_solve_file_exponents_lines_add_up(tmp_path):
    path = tmp_path / "e.lvf"
    path.write_text("exponents (0,0,0)\nexponents (0,0,1)\ndegree 0\ncomponents x\nzero : Dx\n")
    code, out, _ = run(["solve", str(path)])
    assert code == 0
    assert out.splitlines()[-3:] == ["solution dimension 2", "  Dx", "  exp(z)*Dx"]


def test_solve_file_components_count_a_later_dim_line(tmp_path):
    path = tmp_path / "w.lvf"
    path.write_text("components w\ndegree 0\ndim 4\nzero : Dx\n")
    code, out, _ = run(["solve", str(path)])
    assert code == 0
    assert out.splitlines()[-2:] == ["solution dimension 1", "  Dw"]


def test_rank_dimension_error_has_no_position():
    code, out, err = run(["rank", "--dim", "200000", "Dx"])
    assert (code, out) == (2, "")
    assert err == "error: dimension must be at most 64, not 200000\n"


@pytest.mark.parametrize("text", [
    "dim 3\ndegree 100000\nzero : Dx\n",
    "dim 99999\ndegree 1\n",
    # the default components are counted, not listed, before the check
    "dim 9999999999\n",
    "dim 99999999999999999999\n",
])
def test_oversized_ansatz_exit_2(tmp_path, text):
    path = tmp_path / "big.lvf"
    path.write_text(text)
    code, out, err = run(["solve", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 20000 basis fields" in err


@pytest.mark.parametrize("argv", [
    ["rank", "--dim", "200000", "Dx"],
    ["bracket", "--dim", "100000", "Dx", "Dy"],
    ["solve", "dim 100000\neigen 1 : Dx\n"],
    ["solve", "dim 100000\ndegree 0\ncomponents 1\n"],
])
def test_dimension_above_max_exit_2(tmp_path, argv):
    if argv[0] == "solve":
        path = tmp_path / "wide.lvf"
        path.write_text(argv[1])
        argv = ["solve", str(path)]
    tracemalloc.start()
    try:
        code, out, err = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "dimension must be at most 64" in err
    # refused before any table of size dim is built
    assert peak < 2_000_000


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_141_silently(unbuffered):
    # the read end is closed before the child writes, so the first write
    # or the flush fails with EPIPE; "" leaves stdout block-buffered
    src = os.path.dirname(os.path.dirname(lvf.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    argv = ["g2-check", "--form", "3", "--max-degree", "4", "--verbose"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lvf.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _run_cli(argv, timeout=60):
    """``python -m lvf.cli argv`` in a child process, killed after
    ``timeout`` seconds."""
    src = os.path.dirname(os.path.dirname(lvf.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "lvf.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=timeout,
    )


def test_rank_one_family_in_dimension_12():
    # every 2 x 2 minor vanishes; trying every k x k minor first ran for hours
    fields = [f"x{i}*(D1 + D2)" for i in range(1, 13)]
    proc = _run_cli(["rank", "--dim", "12", *fields])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


@pytest.mark.parametrize("argv, message", [
    (["bracket", "(x+y+z+1)^64*Dx", "Dy"],
     "expression error: expression needs more than 20000 term products (at position 9)\n"),
    (["verify", "--form", "heisenberg.2", "--param", "lambda=1e1000000000"],
     "error: exponent notation in '1e1000000000'; write p/q or a decimal\n"),
], ids=["power", "exponent-notation"])
def test_costly_input_refused_at_once(argv, message):
    proc = _run_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
