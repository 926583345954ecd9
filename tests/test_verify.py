"""Verifier reports: catalog-wide pass, tamper detection, determinism,
one bracket per pair of closure basis fields, and the relation residuals
read from the closure (a relation that holds from its coordinates alone)
or, where it has no bracket to give, computed by
``catalog._relation_residual``."""

import dataclasses
from fractions import Fraction

import pytest

from lvf import algebra, catalog, verify
from lvf.errors import LvfError
from lvf.fields import VectorField, format_field


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


def _tampered_sl2():
    entry = catalog.get("sl2.2")
    return catalog.loads(
        catalog.dumps([entry]).replace("1/2*y^2*exp(-x)", "y^2*exp(-x)"),
        verify=False,
    )[0]


def test_tampered_entry_reports_residual():
    report = verify.verify_realization(_tampered_sl2())
    bad = [c for c in report.relations if not c.ok]
    assert bad and bad[0].residual != "0"
    assert "[X, Y] = H" in {c.label for c in bad}
    assert not report.passed


def _assert_residuals_match_direct(entry, report):
    """Each reported residual is the one of bracketing the relation's
    generators directly."""
    gens = entry.generators_at(report.assignment)
    assert [c.label for c in report.relations] == [r.label() for r in entry.relations]
    for rel, check in zip(entry.relations, report.relations):
        residual = catalog._relation_residual(rel, gens)
        assert check.ok == residual.is_zero(), rel.label()
        assert check.residual == ("0" if check.ok else format_field(residual)), rel.label()


def test_tampered_residual_equals_direct_residual():
    tampered = _tampered_sl2()
    _assert_residuals_match_direct(tampered, verify.verify_realization(tampered))


def test_unfinished_closure_residuals_fall_back(monkeypatch):
    entry = catalog.get("sl2xsl2.1")
    full = verify.verify_realization(entry)
    monkeypatch.setattr(algebra, "CLOSURE_BOUND", 2)
    cut = verify.verify_realization(entry)
    assert not full.error and cut.error
    assert cut.closure_dim is None and cut.semisimple is None
    assert cut.relations == full.relations


def test_dependent_and_repeated_generators_fall_back():
    # W = 2*Z depends on an earlier generator, [X, X] names one twice,
    # and the reverse-order relations read negated closure brackets
    text = catalog.dumps([catalog.get("heisenberg.1")]).replace(
        'gen Y = "y*Dx + Dz";',
        'gen W = "2*Dx"; gen Y = "y*Dx + Dz";',
    ).replace(
        "rel [X, Y] = Z;",
        "rel [X, Y] = Z; rel [Y, X] = Z; rel [W, Y] = 0; rel [Y, W] = X; rel [X, X] = 0;",
    )
    entry = catalog.loads(text, verify=False)[0]
    report = verify.verify_realization(entry)
    assert report.closure_dim == 3
    assert [c.ok for c in report.relations] == [True, False, True, False, True, True, True]
    _assert_residuals_match_direct(entry, report)


def test_coordinate_residuals_match_direct_residuals():
    # b2.1 with a dependent generator D = 2*X_ab and relations tampered
    # from [X_alpha, X_beta] = X_ab and [X_beta, X_ab] = X_a2b
    entry = catalog.get("b2.1")
    gens = dict(entry.generators)
    rel = catalog.Relation
    half = Fraction(1, 2)
    tampered = [
        rel("X_alpha", "X_beta", ((Fraction(1), "X_ab"),)),  # holds
        rel("X_beta", "X_alpha", ((Fraction(-1), "X_ab"),)),  # holds, reversed
        rel("X_alpha", "X_beta", ((Fraction(2), "X_ab"),)),  # wrong coefficient
        rel("X_beta", "X_alpha", ((Fraction(1), "X_ab"),)),  # wrong sign
        rel("X_alpha", "X_beta", ((Fraction(1), "X_a2b"),)),  # wrong name
        rel("X_alpha", "X_beta", ((half, "X_ab"), (half, "X_ab"))),  # repeated name, holds
        rel("X_alpha", "X_beta", ((Fraction(1), "X_ab"), (Fraction(1), "X_ab"))),  # repeated name
        rel("X_alpha", "X_beta", ((Fraction(1), "X_ab"), (Fraction(0), "X_a2b"))),  # zero term, holds
        rel("X_alpha", "X_beta", ((Fraction(1), "X_ab"), (Fraction(1), "X_a2b"), (Fraction(-1), "X_a2b"))),
        rel("X_alpha", "X_alpha", ()),  # one generator twice, holds
        rel("X_alpha", "X_alpha", ((Fraction(1), "X_ab"),)),  # one generator twice
        rel("X_alpha", "X_beta", ((half, "D"),)),  # dependent generator, holds
        rel("X_alpha", "X_beta", ((Fraction(1), "D"),)),  # dependent generator
        rel("X_alpha", "D", ()),  # dependent generator on the left
        rel("X_beta", "X_ab", ()),  # zero right-hand side, nonzero bracket
        rel("X_alpha", "X_mbeta", ()),  # zero right-hand side, zero bracket
        rel("X_alpha", "X_mbeta", ((Fraction(1), "X_ab"),)),  # zero bracket, nonzero rhs
    ]
    tampered_entry = dataclasses.replace(
        entry,
        generators=entry.generators + (("D", gens["X_ab"] * 2),),
        relations=tuple(tampered),
    )
    report = verify.verify_realization(tampered_entry)
    assert report.closure_dim == 10
    assert [c.ok for c in report.relations] == [
        True, True, False, False, False, True, False, True, True,
        True, False, True, False, True, False, True, False,
    ]
    _assert_residuals_match_direct(tampered_entry, report)
    unknown = dataclasses.replace(
        entry, relations=(rel("X_alpha", "X_beta", ((Fraction(1), "nope"),)),)
    )
    with pytest.raises(LvfError, match="unknown generator 'nope'"):
        verify.verify_realization(unknown)


def test_holding_relations_build_no_residual(monkeypatch):
    # every builtin relation names closure basis elements only, so it is
    # decided by the closure's coordinates, with no field arithmetic
    calls = []
    subtract = catalog._subtract_rhs

    def counting(*args):
        calls.append(1)
        return subtract(*args)

    monkeypatch.setattr(catalog, "_subtract_rhs", counting)
    assert verify.verify_all().passed
    assert not calls


def test_verify_brackets_each_closure_pair_once(monkeypatch):
    calls = []
    bracket = VectorField.bracket

    def counting(self, other):
        calls.append(1)
        return bracket(self, other)

    monkeypatch.setattr(VectorField, "bracket", counting)
    for entry in catalog.load_builtin():
        calls.clear()
        report = verify.verify_realization(entry)
        m = report.closure_dim
        assert len(calls) == m * (m - 1) // 2, entry.id


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
