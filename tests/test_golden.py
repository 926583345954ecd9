"""Byte-identical command output against files in ``tests/golden/``.

The files were captured from the command line before the staged
homogeneous solver replaced the single stacked elimination (the last
two before the graded first stage replaced its build); any change
to a basis, a rank, a verdict or a record line shows up here.  To
regenerate one after an intended output change, run the command from
the table below with ``python -m lvf.cli`` and redirect stdout to the
file.
"""

import contextlib
import io
from pathlib import Path

import pytest

from lvf.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["g2-check", "--form", "1", "--max-degree", "6", "--control", "--format", "records"],
     "g2_form1_deg6_control.records"),
    (["g2-check", "--form", "2", "--max-degree", "6", "--control", "--format", "records"],
     "g2_form2_deg6_control.records"),
    (["g2-check", "--form", "3", "--max-degree", "6", "--control", "--format", "records"],
     "g2_form3_deg6_control.records"),
    (["g2-check", "--form", "3", "--max-degree", "6", "--verbose"],
     "g2_form3_deg6_verbose.txt"),
    (["centralizer", "--form", "heisenberg.2", "--max-degree", "4"],
     "centralizer_heisenberg2_deg4.txt"),
    (["verify", "--all", "--format", "records"], "verify_all.records"),
    (["solve", str(GOLDEN / "solve_staged.lvf")], "solve_staged.txt"),
    (["solve", str(GOLDEN / "solve_graded.lvf")], "solve_graded.txt"),
    (["g2-check", "--form", "3", "--max-degree", "10", "--verbose", "--control"],
     "g2_form3_deg10_verbose_control.txt"),
]


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_output_is_byte_identical(argv, name, monkeypatch):
    monkeypatch.delenv("LVF_CATALOG", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()
