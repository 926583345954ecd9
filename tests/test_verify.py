"""Verifier reports: catalog-wide pass, tamper detection, determinism."""

from fractions import Fraction

import pytest

from lvf import catalog, verify
from lvf.errors import LvfError


def test_builtin_catalog_passes():
    summary = verify.verify_all()
    assert summary.passed
    assert summary.counts == (16, 16)


def test_expected_closures_and_killing():
    summary = verify.verify_all()
    by_id = {r.entry_id: r for r in summary.reports}
    for i in (1, 2, 3):
        r = by_id[f"heisenberg.{i}"]
        assert r.closure_dim == 3 and r.semisimple is False
    for i in (1, 2, 3, 4):
        assert by_id[f"sl2.{i}"].closure_dim == 3
        assert by_id[f"sl2.{i}"].semisimple is True
        assert by_id[f"sl2xsl2.{i}"].closure_dim == 6
        assert by_id[f"sl2xsl2.{i}"].semisimple is True
    for i in (1, 2, 3):
        assert by_id[f"a2.{i}"].closure_dim == 8
        assert by_id[f"a2.{i}"].semisimple is True
    for i in (1, 2):
        assert by_id[f"b2.{i}"].closure_dim == 10
        assert by_id[f"b2.{i}"].semisimple is True


def test_heisenberg_ranks():
    summary = verify.verify_all()
    ranks = {
        r.entry_id: r.rank_actual
        for r in summary.reports
        if r.entry_id.startswith("heisenberg")
    }
    assert ranks == {"heisenberg.1": 3, "heisenberg.2": 2, "heisenberg.3": 2}


def test_violating_parameters_fail_relations():
    report = verify.verify_realization(
        catalog.get("sl2xsl2.3"), params={"a": 2, "b": 0}
    )
    assert not report.constraint_ok
    failed = [c.label for c in report.relations if not c.ok]
    assert "[Xm, Y] = 0" in failed
    assert "[Xm, Ym] = 0" in failed
    assert not report.passed


def test_admissible_parameters_pass():
    report = verify.verify_realization(
        catalog.get("sl2xsl2.3"), params={"a": Fraction(4), "b": Fraction(-8)}
    )
    assert report.passed


def test_tampered_entry_reports_residual():
    entry = catalog.get("sl2.2")
    tampered = catalog.loads(
        catalog.dumps([entry]).replace("1/2*y^2*exp(-x)", "y^2*exp(-x)"),
        verify=False,
    )[0]
    report = verify.verify_realization(tampered)
    bad = [c for c in report.relations if not c.ok]
    assert bad and bad[0].residual != "0"
    assert "[X, Y] = H" in {c.label for c in bad}
    assert not report.passed


def test_reports_deterministic():
    a = "\n".join(verify.verify_all().to_records())
    b = "\n".join(verify.verify_all().to_records())
    assert a == b
    assert verify.verify_all().to_text() == verify.verify_all().to_text()


def test_empty_catalog_vacuous_pass():
    summary = verify.verify_all(entries=[])
    assert summary.passed
    assert summary.counts == (0, 0)


def test_zero_denominator_parameter_is_an_input_error():
    entry = catalog.get("heisenberg.2")
    with pytest.raises(LvfError, match="zero denominator"):
        verify.verify_realization(entry, {"lambda": "1/0"})
    with pytest.raises(LvfError, match="exponent notation"):
        verify.verify_realization(entry, {"lambda": "1e10000"})
    report = verify.verify_realization(entry, {"lambda": "-3/4"})
    assert report.assignment == {"lambda": Fraction(-3, 4)}
    assert report.passed
