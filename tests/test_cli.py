"""Command-line behavior: outputs, exit codes, determinism."""

import io
import contextlib

import pytest

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


def test_internal_error_exit_3(monkeypatch):
    solve_by_blocks = obstruction._solve_by_blocks

    def dependent(*args, **kwargs):
        basis = solve_by_blocks(*args, **kwargs)
        return basis + basis[:1]

    monkeypatch.setattr(obstruction, "_solve_by_blocks", dependent)
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
    # --all applies each name only to the entries that declare it
    code, out, _ = run(["verify", "--all", "--param", "zz=1"])
    assert code == 0 and "16/16" in out


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


@pytest.mark.parametrize("text", [
    "dim 3\ndegree 100000\nzero : Dx\n",
    "dim 99999\ndegree 1\n",
])
def test_oversized_ansatz_exit_2(tmp_path, text):
    path = tmp_path / "big.lvf"
    path.write_text(text)
    code, out, err = run(["solve", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 20000 basis fields" in err
