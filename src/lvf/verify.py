"""End-to-end verification of catalog realizations.

For one realization: the bracket closure is computed and its structure
tensor classified through the Killing form, every stated bracket
relation is decided exactly from the coordinates of the closure's
brackets (failures carry the residual field, bracketed again from the
relation's generators), and the generic rank is compared with the
expected one.  Failures are report entries, never exceptions, so a
tampered catalog produces a readable diff of what broke.

Reports render to human text and to a machine format (one record per
line); both are deterministic byte-for-byte given the same catalog and
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from lvf import catalog as _catalog
from lvf.algebra import Closure, close_under_bracket, structure_tensor
from lvf.errors import LvfError
from lvf.expr import as_fraction
from lvf.fields import VectorField, format_field, generic_rank


@dataclass(frozen=True)
class RelationCheck:
    label: str
    ok: bool
    residual: str  # formatted residual field, "0" when ok


@dataclass
class Report:
    entry_id: str
    assignment: Dict[str, Fraction]
    constraint_ok: bool
    relations: List[RelationCheck]
    rank_expected: int
    rank_actual: int
    closure_dim: Optional[int]
    semisimple: Optional[bool]
    semisimple_expected: bool
    error: str = ""

    @property
    def rank_ok(self) -> bool:
        return self.rank_expected == self.rank_actual

    @property
    def semisimple_ok(self) -> bool:
        return self.semisimple is not None and self.semisimple == self.semisimple_expected

    @property
    def passed(self) -> bool:
        return (
            not self.error
            and self.constraint_ok
            and all(r.ok for r in self.relations)
            and self.rank_ok
            and self.semisimple_ok
        )

    def to_text(self) -> str:
        lines = [f"entry {self.entry_id}"]
        if self.assignment:
            assign = ", ".join(f"{k} = {v}" for k, v in sorted(self.assignment.items()))
            lines.append(f"  parameters: {assign}")
        if not self.constraint_ok:
            lines.append("  constraints: VIOLATED")
        for rel in self.relations:
            mark = "pass" if rel.ok else f"FAIL residual {rel.residual}"
            lines.append(f"  rel {rel.label}: {mark}")
        mark = "pass" if self.rank_ok else "FAIL"
        lines.append(
            f"  generic rank: expected {self.rank_expected}, got {self.rank_actual} ({mark})"
        )
        if self.error:
            lines.append(f"  closure: ERROR {self.error}")
        else:
            flag = "semisimple" if self.semisimple else "not semisimple"
            mark = "pass" if self.semisimple_ok else "FAIL"
            lines.append(f"  closure dimension {self.closure_dim}, {flag} ({mark})")
        lines.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_records(self) -> List[str]:
        recs = []
        assign = ",".join(f"{k}={v}" for k, v in sorted(self.assignment.items()))
        recs.append(
            f"record kind=entry id={self.entry_id} params=[{assign}] "
            f"constraints={'ok' if self.constraint_ok else 'violated'}"
        )
        for rel in self.relations:
            status = "pass" if rel.ok else "fail"
            recs.append(
                f"record kind=relation id={self.entry_id} rel=\"{rel.label}\" "
                f"status={status} residual=\"{rel.residual}\""
            )
        recs.append(
            f"record kind=rank id={self.entry_id} expected={self.rank_expected} "
            f"actual={self.rank_actual} status={'pass' if self.rank_ok else 'fail'}"
        )
        if self.error:
            recs.append(f"record kind=closure id={self.entry_id} error=\"{self.error}\"")
        else:
            recs.append(
                f"record kind=closure id={self.entry_id} dim={self.closure_dim} "
                f"semisimple={'true' if self.semisimple else 'false'} "
                f"status={'pass' if self.semisimple_ok else 'fail'}"
            )
        recs.append(
            f"record kind=result id={self.entry_id} "
            f"status={'pass' if self.passed else 'fail'}"
        )
        return recs


def _residual(
    rel: _catalog.Relation, gens: Dict[str, VectorField], closure: Optional[Closure]
) -> Optional[VectorField]:
    """The relation's residual, or None when the closure's coordinates
    show that it holds.

    When both generators and every right-hand-side generator are
    closure basis elements (the independent generators are its first
    elements, in order), the coordinates of ``[a, b]`` that the closure
    recorded are compared with the right-hand side's coefficients,
    summed per basis position.  The closure's tracker certified each
    bracket as exactly that combination of an independent basis, so the
    relation holds exactly when the two agree.  Otherwise, and when
    they disagree, the residual is built by
    ``catalog._relation_residual``, which brackets the generators again.
    """
    at = dict(zip(gens, closure.positions)) if closure is not None else {}
    a, b = at.get(rel.a), at.get(rel.b)
    if a is None or b is None or a == b:
        return _catalog._relation_residual(rel, gens)
    lo, hi = sorted((a, b))
    rhs: Dict[int, Fraction] = {}
    for c, name in rel.rhs:
        k = at.get(name)
        if k is None:
            break
        rhs[k] = rhs.get(k, 0) + c
    else:
        sign = 1 if a < b else -1
        coords = closure.constants.get((lo, hi), {})
        if {k: sign * v for k, v in coords.items()} == {k: v for k, v in rhs.items() if v}:
            return None
    return _catalog._relation_residual(rel, gens)


def verify_realization(
    entry: _catalog.Realization,
    params: Optional[Dict[str, object]] = None,
) -> Report:
    """Check one realization under default or caller-supplied parameters.

    The bracket closure runs first and brackets each pair of its basis
    once; the structure tensor reads its constants from it, and a
    relation that holds is read from the closure's coordinates alone.
    A relation brackets its own generators when it fails, when the
    closure failed, when a generator depends on earlier ones, or when
    both sides name the same generator.
    """
    assignment = entry.default_assignment()
    if params:
        for name, value in params.items():
            assignment[name] = as_fraction(value)
    constraint_ok = entry.constraints_satisfied(assignment)
    gens = entry.generators_at(assignment)
    closure: Optional[Closure] = None
    closure_dim: Optional[int] = None
    semisimple: Optional[bool] = None
    error = ""
    try:
        closure = close_under_bracket(list(gens.values()))
        closure_dim = len(closure)
        tensor = structure_tensor(closure)
        semisimple = tensor.is_semisimple()
    except LvfError as exc:
        error = str(exc)
    checks = []
    for rel in entry.relations:
        residual = _residual(rel, gens, closure)
        ok = residual is None or residual.is_zero()
        checks.append(
            RelationCheck(rel.label(), ok, "0" if ok else format_field(residual))
        )
    rank_actual = generic_rank(list(gens.values()))
    return Report(
        entry_id=entry.id,
        assignment=assignment,
        constraint_ok=constraint_ok,
        relations=checks,
        rank_expected=entry.expected_rank,
        rank_actual=rank_actual,
        closure_dim=closure_dim,
        semisimple=semisimple,
        semisimple_expected=entry.expect_semisimple,
        error=error,
    )


@dataclass
class Summary:
    reports: List[Report]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def counts(self):
        good = sum(1 for r in self.reports if r.passed)
        return good, len(self.reports)

    def to_text(self) -> str:
        lines = []
        for report in self.reports:
            lines.append(report.to_text())
        good, total = self.counts
        lines.append(f"summary: {good}/{total} pass")
        return "\n".join(lines)

    def to_records(self) -> List[str]:
        recs = []
        for report in self.reports:
            recs.extend(report.to_records())
        good, total = self.counts
        recs.append(
            f"record kind=summary passed={good} total={total} "
            f"status={'pass' if self.passed else 'fail'}"
        )
        return recs


def verify_all(
    entries: Optional[Sequence[_catalog.Realization]] = None,
    params: Optional[Dict[str, object]] = None,
) -> Summary:
    """Verify every entry (builtin catalog by default), in catalog order.

    Each entry takes only the ``params`` it declares.
    """
    if entries is None:
        entries = _catalog.load_builtin()
    reports = []
    for entry in entries:
        own = {n: v for n, v in (params or {}).items() if n in entry.param_names()}
        reports.append(verify_realization(entry, own))
    return Summary(reports)
