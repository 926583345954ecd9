"""Byte-identical command output and exit code against files in
``tests/golden/``.

The files were captured from the command line before the staged
homogeneous solver replaced the single stacked elimination (the
``solve_graded`` and degree-10 files before the graded first stage
replaced its build, the ``solve_equals`` files before the affine solve
began checking rows against the solution at full column rank, the
degree-20 file before graded constraints took the common build over the
columns they keep, the form 1 and form 2 verbose files before each
orientation shared one chain among its sign flips, the degree-32 files
before the column of a basis field was computed by arithmetic instead of
read from a table over the whole ansatz); any change to a
basis, a rank, a verdict, a witness or a record line shows up here.  The ``solve_equals`` files cover the
``equals`` path: a consistent system that reaches full column rank
early, one whose witness comes after full rank (exit 1), and one whose
witness comes while the matrix is rank deficient (exit 1).  The
``solve_equals_b2`` files, captured before ``equals`` systems were
solved one constraint at a time, cover the ten fields of ``b2.2`` at
degree 3: a consistent system (exit 0), and the same system with a
target term no ansatz field reaches in constraint 1 and a conflicting
term in the image of constraint 4, whose image row is the witness
(exit 1).  The ``solve_equals_point`` files, captured before a
constraint was decided by the residual of a solution set that is one
point, hold a system that is one point after three of its five
constraints: a consistent one (exit 0), and one whose point fails the
last two, through a term no ansatz field reaches and then a
conflicting image row, which is the witness (exit 1).  The
``solve_pinned`` files, captured before each stage's rows with one
entry and a zero right-hand side were resolved ahead of the
elimination, hold a system whose stages are mostly such rows: a
consistent one that ends in one point (exit 0), and a twin whose image
row meets a field the first constraint pinned to 0 (exit 1).  The
``solve_translation`` files, captured before a graded known field with
one constant term b_i d_i fixed m_i = 0 in the graded start, hold
``[Dx, X] = X`` and ``[Dy, X] = 0`` with a Cartan element over
exponent blocks, so the lowered coordinate carries an exponent and an
eigenvalue that is not 0.  The
``verify_all.txt`` and ``verify_tampered.txt`` files were captured before
the relation residuals and the structure tensor began reading their
brackets from the bracket closure; ``verify_tampered.lvf`` is the
builtin catalog with one relation of ``a2.1`` broken, one whose
generators come in reverse basis order, so its residual reads a negated
closure bracket.  ``verify_fractional.lvf`` holds an sl2 whose
generators are scaled by 1/3, 5/2 and -2/15, so its structure constants
have denominators, and the affine line ``2/7*Dx``, ``3/5*x*Dx``, whose
Killing determinant is 0; its two report files were captured before
structure tensors held their constants as integers over one
denominator.  The ``structure_*`` files (the Chevalley constants
of the B2 and A2 models, each built from many brackets) and
``bracket_parametric_exp.txt`` (a bracket of two fields with parameters
and exponent denominators 2 and 3) were captured before brackets ran
on integer forms of the fields.  ``g2_form3_deg8_control.records`` was
captured before term products read their keys from the key-sum table of
``_kernels.mul_into``; it, ``verify_all.records`` and
``structure_b2_b2.1.records`` are also produced with the table's bound
set to 1, so that the table is cleared before every key it stores.  To
regenerate one after an intended output change, run the command from the
table below with ``python -m lvf.cli`` and redirect stdout to the file.
"""

import contextlib
import io
from pathlib import Path

import pytest

from lvf.cli import main

from _rand import key_sum_table

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["g2-check", "--form", "1", "--max-degree", "6", "--control", "--format", "records"],
     "g2_form1_deg6_control.records", 0),
    (["g2-check", "--form", "2", "--max-degree", "6", "--control", "--format", "records"],
     "g2_form2_deg6_control.records", 0),
    (["g2-check", "--form", "3", "--max-degree", "6", "--control", "--format", "records"],
     "g2_form3_deg6_control.records", 0),
    (["g2-check", "--form", "3", "--max-degree", "8", "--control", "--format", "records"],
     "g2_form3_deg8_control.records", 0),
    (["g2-check", "--form", "3", "--max-degree", "6", "--verbose"],
     "g2_form3_deg6_verbose.txt", 0),
    (["g2-check", "--form", "1", "--max-degree", "6", "--verbose", "--control"],
     "g2_form1_deg6_verbose_control.txt", 0),
    (["g2-check", "--form", "2", "--max-degree", "6", "--verbose", "--control"],
     "g2_form2_deg6_verbose_control.txt", 0),
    (["centralizer", "--form", "heisenberg.2", "--max-degree", "4"],
     "centralizer_heisenberg2_deg4.txt", 0),
    (["verify", "--all", "--format", "records"], "verify_all.records", 0),
    (["verify", "--all"], "verify_all.txt", 0),
    (["solve", str(GOLDEN / "solve_staged.lvf")], "solve_staged.txt", 0),
    (["solve", str(GOLDEN / "solve_graded.lvf")], "solve_graded.txt", 0),
    (["g2-check", "--form", "3", "--max-degree", "10", "--verbose", "--control"],
     "g2_form3_deg10_verbose_control.txt", 0),
    (["solve", str(GOLDEN / "solve_equals.lvf")], "solve_equals.txt", 0),
    (["solve", str(GOLDEN / "solve_equals_inconsistent.lvf")],
     "solve_equals_inconsistent.txt", 1),
    (["solve", str(GOLDEN / "solve_equals_early_witness.lvf")],
     "solve_equals_early_witness.txt", 1),
    (["solve", str(GOLDEN / "solve_equals_b2.lvf")], "solve_equals_b2.txt", 0),
    (["solve", str(GOLDEN / "solve_equals_b2_witness.lvf")],
     "solve_equals_b2_witness.txt", 1),
    (["solve", str(GOLDEN / "solve_equals_point.lvf")], "solve_equals_point.txt", 0),
    (["solve", str(GOLDEN / "solve_equals_point_inconsistent.lvf")],
     "solve_equals_point_inconsistent.txt", 1),
    (["solve", str(GOLDEN / "solve_pinned.lvf")], "solve_pinned.txt", 0),
    (["solve", str(GOLDEN / "solve_pinned_inconsistent.lvf")],
     "solve_pinned_inconsistent.txt", 1),
    (["solve", str(GOLDEN / "solve_translation.lvf")], "solve_translation.txt", 0),
    (["g2-check", "--form", "3", "--max-degree", "20", "--format", "records"],
     "g2_form3_deg20.records", 0),
    (["g2-check", "--form", "1", "--max-degree", "32", "--format", "records"],
     "g2_form1_deg32.records", 0),
    (["g2-check", "--form", "2", "--max-degree", "32", "--format", "records"],
     "g2_form2_deg32.records", 0),
    (["g2-check", "--form", "3", "--max-degree", "32", "--format", "records"],
     "g2_form3_deg32.records", 0),
    (["structure", "--type", "B2", "--model", "sl4", "--format", "records"],
     "structure_b2_sl4.records", 0),
    (["structure", "--type", "B2", "--model", "b2.1", "--format", "records"],
     "structure_b2_b2.1.records", 0),
    (["structure", "--type", "B2", "--model", "b2.2", "--format", "records"],
     "structure_b2_b2.2.records", 0),
    (["structure", "--type", "A2", "--model", "a2.1", "--format", "records"],
     "structure_a2_a2.1.records", 0),
    (["structure", "--type", "A2", "--model", "a2.2", "--format", "records"],
     "structure_a2_a2.2.records", 0),
    (["structure", "--type", "A2", "--model", "a2.3", "--format", "records"],
     "structure_a2_a2.3.records", 0),
    (["bracket", "a*x^2*exp(x/2)*Dx + (b*y - 3/4)*exp(z/3)*Dy + 2/5*x*y*Dz",
      "b*exp(y/2)*Dx + exp(-x/3)*Dy + (a^2*z + 5/6*x)*Dz", "--param", "a=1", "--param", "b=2"],
     "bracket_parametric_exp.txt", 0),
]


def _assert_golden(argv, name, exit_code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == exit_code
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, name, exit_code", CASES, ids=[name for _, name, _ in CASES])
def test_output_is_byte_identical(argv, name, exit_code, monkeypatch):
    monkeypatch.delenv("LVF_CATALOG", raising=False)
    _assert_golden(argv, name, exit_code)


# one entry in the key-sum table of every term product: it is cleared
# before each new key is stored
BOUND_ONE_CASES = [
    (["verify", "--all", "--format", "records"], "verify_all.records", 0),
    (["g2-check", "--form", "3", "--max-degree", "8", "--control", "--format", "records"],
     "g2_form3_deg8_control.records", 0),
    (["structure", "--type", "B2", "--model", "b2.1", "--format", "records"],
     "structure_b2_b2.1.records", 0),
]


@pytest.mark.parametrize(
    "argv, name, exit_code", BOUND_ONE_CASES, ids=[name for _, name, _ in BOUND_ONE_CASES]
)
def test_output_at_key_sum_bound_one(argv, name, exit_code, monkeypatch):
    monkeypatch.delenv("LVF_CATALOG", raising=False)
    with key_sum_table(1):
        _assert_golden(argv, name, exit_code)


def test_tampered_catalog_verify_is_byte_identical(monkeypatch):
    monkeypatch.setenv("LVF_CATALOG", str(GOLDEN / "verify_tampered.lvf"))
    _assert_golden(["verify", "--all"], "verify_tampered.txt", 1)


FRACTIONAL_CASES = [
    (["verify", "--all"], "verify_fractional.txt", 0),
    (["verify", "--all", "--format", "records"], "verify_fractional.records", 0),
]


@pytest.mark.parametrize(
    "argv, name, exit_code", FRACTIONAL_CASES, ids=[name for _, name, _ in FRACTIONAL_CASES]
)
def test_fractional_catalog_verify_is_byte_identical(argv, name, exit_code, monkeypatch):
    monkeypatch.setenv("LVF_CATALOG", str(GOLDEN / "verify_fractional.lvf"))
    _assert_golden(argv, name, exit_code)
