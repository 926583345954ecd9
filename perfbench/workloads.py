"""The three benchmark workloads: seeded inputs, jobs and correctness checks.

Every workload is a closed loop: one caller runs the jobs of a pass back to
back, in a fixed order.  The seed picks every free input.  lvf receives
generated vector fields only as text, through ``lvf.parsing.parse_field``.

A job's output is checked outside the timed region, by ``Job.check``: an
independent recheck of its meaning (verdicts, ranks, re-bracketing of every
returned field) plus a digest of its canonical text compared with the digest
recorded in ``reference.json`` at the seed commit.  A check returns a list
of problems; it never raises for a wrong answer.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# Called through their modules, so that a traced run's wrappers see the calls.
from lvf import catalog, obstruction, parsing, solve as lvf_solve, verify
from lvf.fields import format_field

# Admissible values of the free catalog parameters.  The pool is finite so
# that reference.json can hold the centralizer digest of every value.
PARAM_POOL = tuple(
    Fraction(v) for v in ("-3", "-2", "-3/2", "-1", "-1/2", "1/2", "1", "3/2", "2", "3")
)
FREE_PARAM = {"heisenberg.2": "lambda", "sl2.2": "l", "sl2xsl2.1": "beta", "sl2xsl2.3": "a"}

G2_DEGREE = 8
SOLVE_DEGREE = 3
# Degree of the perturbing target term.  Images of a degree-3 ansatz under
# the catalog generators stay far below it, so the perturbed system is
# inconsistent; the check proves that independently for every input.
PERTURB_DEGREE = 9
COORDS = ("x", "y", "z")


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def entry_params(entry_id: str, value: Optional[Fraction]) -> Dict[str, str]:
    """The parameter assignment of one entry at a pool value, as text."""
    if value is None:
        return {}
    if entry_id == "sl2xsl2.3":  # admissible when a^2 + 2b = 0
        return {"a": str(value), "b": str(-value * value / 2)}
    return {FREE_PARAM[entry_id]: str(value)}


def param_key(entry_id: str, params: Dict[str, str]) -> str:
    """Reference-table key of one entry at one assignment."""
    return entry_id + "".join(f" {k}={v}" for k, v in sorted(params.items()))


def seeded_params(rng: random.Random, entries) -> Dict[str, Dict[str, str]]:
    return {
        e.id: entry_params(e.id, rng.choice(PARAM_POOL) if e.id in FREE_PARAM else None)
        for e in entries
    }


def _monomial_text(mono) -> str:
    parts = [v if k == 1 else f"{v}^{k}" for v, k in zip(COORDS, mono) if k]
    return "*".join(parts) or "1"


def _term_text(rng: random.Random, comp: int, mono) -> str:
    coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return f"({coef})*{_monomial_text(mono)}*D{COORDS[comp]}"


def _random_monomial(rng: random.Random, degree: int):
    cuts = sorted(rng.randint(0, degree) for _ in range(2))
    return (cuts[0], cuts[1] - cuts[0], degree - cuts[1])


@dataclass
class Job:
    """One timed call into lvf and the check of its output."""

    name: str
    run: Callable[[object], object]  # takes the pass context
    text: Callable[[object], List[str]]  # canonical text of the output
    check: Callable[[object], List[str]]  # problems; empty when correct


class Workload:
    """Inputs and jobs of one workload; ``begin_pass`` is timed with the pass."""

    name = ""
    jobs: List[Job]
    inputs: Dict[str, object]

    def begin_pass(self):
        return None


# -- g2-obstruction ------------------------------------------------------------


class G2Obstruction(Workload):
    """The paper's headline verdict: forms 1-3 at degree 8 plus the B2 control.

    The inputs are the catalog's three A2 forms, so the seed changes nothing
    here; it is recorded with the result like every other run's.
    """

    name = "g2-obstruction"

    def __init__(self, seed: int, reference: dict):
        ref = reference[self.name]
        self.inputs = {"degree": G2_DEGREE, "forms": [1, 2, 3]}
        self.jobs = [self._form_job(form, ref[f"form{form}"]) for form in (1, 2, 3)]
        self.jobs.append(self._control_job(ref["b2-control"]))

    @staticmethod
    def _form_job(form: int, ref: dict) -> Job:
        def run(_ctx):
            return obstruction.g2_obstruction(form, lvf_solve.AnsatzSpace(3, max_degree=G2_DEGREE))

        def check(report):
            problems = []
            if report.verdict != ref["verdict"]:
                problems.append(f"verdict {report.verdict}, expected {ref['verdict']}")
            if digest(report.to_records()) != ref["digest"]:
                problems.append("records digest differs from the reference")
            return problems

        return Job(f"form{form}", run, lambda r: r.to_records(), check)

    @staticmethod
    def _control_job(ref: dict) -> Job:
        def check(report):
            problems = []
            verdict = "validated" if report.validated else "not validated"
            if verdict != ref["verdict"]:
                problems.append(f"control {verdict}, expected {ref['verdict']}")
            if digest([report.to_text()]) != ref["digest"]:
                problems.append("control digest differs from the reference")
            return problems

        return Job(
            "b2-control", lambda _ctx: obstruction.b2_sanity_control(), lambda r: [r.to_text()], check
        )


# -- catalog-verify ------------------------------------------------------------

_PARAMS_FIELD = re.compile(r" params=\[[^\]]*\]")


def verify_records(report) -> List[str]:
    """Report records without the seeded parameter values."""
    return [_PARAMS_FIELD.sub(" params=[*]", rec) for rec in report.to_records()]


class CatalogVerify(Workload):
    """Round-trip the catalog through its text form, then verify all 16 entries."""

    name = "catalog-verify"

    def __init__(self, seed: int, reference: dict):
        ref = reference[self.name]
        rng = random.Random(f"{self.name}:{seed}")
        builtin = catalog.load_builtin()
        self.text = catalog.dumps(builtin)
        self.params = seeded_params(rng, builtin)
        self.inputs = {"params": self.params}
        self.jobs = [
            self._job(i, e.id, self.params[e.id], ref[e.id]) for i, e in enumerate(builtin)
        ]

    def begin_pass(self):
        return catalog.loads(self.text, verify=False)

    @staticmethod
    def _job(index: int, entry_id: str, params: Dict[str, str], ref: dict) -> Job:
        def run(entries):
            entry = entries[index]
            if entry.id != entry_id:
                raise ValueError(f"catalog order changed: {entry.id} at {index}")
            return verify.verify_realization(entry, params)

        def check(report):
            problems = []
            if report.passed != (ref["result"] == "PASS"):
                problems.append(f"result {'PASS' if report.passed else 'FAIL'}, expected {ref['result']}")
            if report.rank_actual != ref["expected_rank"]:
                problems.append(f"rank {report.rank_actual}, expected {ref['expected_rank']}")
            if report.semisimple != ref["expect_semisimple"]:
                problems.append(f"semisimple {report.semisimple}, expected {ref['expect_semisimple']}")
            if {k: str(v) for k, v in report.assignment.items()} != params:
                problems.append(f"verified at {report.assignment}, not at {params}")
            if digest(verify_records(report)) != ref["digest"]:
                problems.append("records digest differs from the reference")
            return problems

        return Job(entry_id, run, lambda r: r.to_records(), check)


# -- constraint-solve ----------------------------------------------------------


def _coords(field) -> Dict[tuple, Fraction]:
    """Coefficients of a parameter-free field over its one-term basis."""
    return {
        (i, key): pp[()]
        for i, comp in enumerate(field.components)
        for key, pp in comp.term_map().items()
    }


def in_span(field, basis) -> bool:
    """Exact membership test by forward elimination, independent of lvf."""
    echelon: List[tuple] = []

    def reduce(vec):
        vec = dict(vec)
        for piv, row in echelon:
            c = vec.get(piv)
            if c:
                for k, a in row.items():
                    s = vec.get(k, 0) - c * a
                    if s:
                        vec[k] = s
                    else:
                        vec.pop(k, None)
        return vec

    for b in basis:
        r = reduce(_coords(b))
        if r:
            piv = min(r)
            inv = 1 / r[piv]
            echelon.append((piv, {k: a * inv for k, a in r.items()}))
    return not reduce(_coords(field))


def basis_lines(basis) -> List[str]:
    return [format_field(b) for b in basis]


class ConstraintSolve(Workload):
    """Centralizers and affine bracket systems of all 16 entries at degree 3."""

    name = "constraint-solve"

    def __init__(self, seed: int, reference: dict):
        ref = reference[self.name]
        rng = random.Random(f"{self.name}:{seed}")
        builtin = catalog.load_builtin()
        self.params = seeded_params(rng, builtin)
        self.ansatz = lvf_solve.AnsatzSpace(3, max_degree=SOLVE_DEGREE)
        keys = self.ansatz.basis_keys()
        self.inputs = {"params": self.params, "x0": {}, "perturbation": {}}
        self.jobs = []
        for index, entry in enumerate(builtin):
            params = self.params[entry.id]
            gens = list(entry.generators_at({k: Fraction(v) for k, v in params.items()}).values())
            entry_ref = ref[param_key(entry.id, params)]
            x0_text = " + ".join(
                _term_text(rng, comp, mono) for comp, _, mono in rng.sample(keys, 3)
            )
            x0 = parsing.parse_field(x0_text)
            targets = [g.bracket(x0) for g in gens]
            perturbed = None
            if index % 2:
                at = rng.randrange(len(gens))
                comp = rng.randrange(3)
                extra = _term_text(rng, comp, _random_monomial(rng, PERTURB_DEGREE))
                targets[at] = targets[at] + parsing.parse_field(extra)
                perturbed = (at, comp)
                self.inputs["perturbation"][entry.id] = f"constraint {at}: {extra}"
            self.inputs["x0"][entry.id] = x0_text
            self.jobs.append(self._centralizer_job(entry.id, gens, entry_ref))
            self.jobs.append(self._equals_job(entry.id, gens, targets, x0, perturbed, entry_ref))

    def _centralizer_job(self, entry_id, gens, ref) -> Job:
        ansatz = self.ansatz

        def run(_ctx):
            result = lvf_solve.centralizer(gens, ansatz)
            return result, lvf_solve.generic_rank(result.basis)

        def check(out):
            result, rank = out
            problems = _homogeneous_problems(result.basis, gens)
            if rank != ref["rank"]:
                problems.append(f"centralizer rank {rank}, expected {ref['rank']}")
            if digest(basis_lines(result.basis)) != ref["digest"]:
                problems.append("centralizer basis digest differs from the reference")
            return problems

        def text(out):
            return basis_lines(out[0].basis) + [f"rank {out[1]}"]

        return Job(f"{entry_id}/centralizer", run, text, check)

    def _equals_job(self, entry_id, gens, targets, x0, perturbed, ref) -> Job:
        ansatz = self.ansatz
        constraints = [lvf_solve.BracketConstraint.equals(g, t) for g, t in zip(gens, targets)]

        def run(_ctx):
            return lvf_solve.solve(constraints, ansatz)

        def check(result):
            if perturbed is not None:
                return _inconsistent_problems(result, gens, ansatz, targets, perturbed)
            problems = _homogeneous_problems(result.basis, gens)
            if result.particular is None:
                return problems + [f"reported inconsistent ({result.inconsistency})"]
            for i, (g, t) in enumerate(zip(gens, targets)):
                if g.bracket(result.particular) != t:
                    problems.append(f"particular solution fails constraint {i}")
            if not in_span(x0 - result.particular, result.basis):
                problems.append("X0 is not in particular + span(basis)")
            if digest(basis_lines(result.basis)) != ref["digest"]:
                problems.append("homogeneous basis digest differs from the reference")
            return problems

        def text(result):
            if result.particular is None:
                return [f"inconsistent: {result.inconsistency}"]
            return basis_lines(result.basis) + ["particular " + format_field(result.particular)]

        return Job(f"{entry_id}/equals", run, text, check)


def _homogeneous_problems(basis, gens) -> List[str]:
    problems = []
    for k, b in enumerate(basis):
        if b.is_zero():
            problems.append(f"basis vector {k} is zero")
        for i, g in enumerate(gens):
            if not g.bracket(b).is_zero():
                problems.append(f"basis vector {k} fails [g{i}, X] = 0")
    return problems


def _inconsistent_problems(result, gens, ansatz, targets, perturbed) -> List[str]:
    at, comp = perturbed
    problems = []
    if result.particular is not None or result.basis:
        problems.append("perturbed system reported solvable")
    expected = f"constraint {at} has no solution at component {comp + 1}"
    if result.inconsistency != expected:
        problems.append(f"witness {result.inconsistency!r}, expected {expected!r}")
    # The target has a term that no [g, b] over the ansatz basis reaches.
    reachable = set()
    for key in ansatz.basis_keys():
        reachable.update(_coords(gens[at].bracket(ansatz.basis_field(key))))
    if set(_coords(targets[at])) <= reachable:
        problems.append("perturbation is inside the image; inconsistency unproven")
    return problems


WORKLOADS = {w.name: w for w in (G2Obstruction, CatalogVerify, ConstraintSolve)}
