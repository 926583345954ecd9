"""Obstruction pipeline: no rank-2 system of the largest type extends
the planar A2 realizations on C^3.

Starting from one of the three catalog A2 forms placed on the long
roots alpha, alpha+3beta, 2alpha+3beta, the pipeline solves exactly for
a short-root vector X_{alpha+beta} inside a finite ansatz:

* eigen constraints against both Cartan elements, with the Cartan
  integers <alpha+beta, alpha> = 1 and <alpha+beta, alpha+3beta> = 0;
* vanishing brackets against the four root vectors r of the A2 copy for
  which (alpha+beta) + r is neither zero nor a root, namely
  X_alpha, X_{alpha+3beta}, X_{2alpha+3beta} and X_{-alpha-3beta}.

One ``solve`` per orientation covers the whole ansatz, every probed
exponent block at once.

The general solution is kept symbolic (fresh parameters u1..uk), so the
derived chain

    X_beta        = [X_{-alpha}, X_{alpha+beta}]
    X_{alpha+2b}  = [X_beta, X_{alpha+beta}]
    X_{alpha+3b}' = [X_beta, X_{alpha+2beta}]
    X_{2alpha+3b}'= [X_alpha, X_{alpha+3beta}']

covers every linear combination at once; the coefficient ring is an
integral domain, so "every branch hits zero" is equivalent to one of
the chain vectors vanishing identically, which is decided exactly.

Both assignments of the A2 simple roots to the long roots are checked,
as are all four sign flips (s1, s2) of the two simple pairs; the
verdict must agree.  The flips need no computation of their own: the
bracket is bilinear, so the chain from (s1 X_alpha, s1 X_{-alpha}) is
(s1 X_beta, s1 X_{alpha+2beta}, X_{alpha+3beta}, s1 X_{2alpha+3beta}),
and s2 only scales the A2 vector X_{2alpha+3beta} that a candidate is
compared with.  Which chain vector vanishes, and whether a nonzero
multiple of the A2 vector arises, are the same for every sign, so each
orientation runs one ``solve`` and one chain and reports the four flip
runs as labels on that one result.  A nonzero solution family whose
chain never vanishes would be reported as a counterexample candidate
(full data) or raise InconclusiveAtDegree; it is never silently folded
into an obstruction.

The identical pipeline run inside the first B2 form (extending the
orthogonal long-root pair by the known short roots) must validate: it
reproduces the catalog's X_{alpha+beta} and X_beta and finds no
obstruction.  That control guards against constraints that are
accidentally too strong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from lvf import catalog as _catalog
from lvf.algebra import express_in_basis
from lvf.errors import (
    DependentBasis,
    InconclusiveAtDegree,
    InternalError,
    LvfError,
    NotInSpan,
)
from lvf.expr import ExpPoly
from lvf.fields import VectorField, format_field
from lvf.roots import get_root_system, normalize_simple_pair
from lvf.solve import AnsatzSpace, BracketConstraint, solve

# scan order of the short-root extension check over the catalog A2 forms
FORM_TO_ENTRY = {1: "a2.3", 2: "a2.1", 3: "a2.2"}

PROBE_EXPONENTS = (-2, -1, 1, 2)  # z-exponents probed besides the ansatz's own


@dataclass(frozen=True)
class BranchResult:
    """Concrete chain along one basis solution."""

    index: int
    x_ab: str
    x_beta_zero: bool
    x_a2b_zero: bool
    x_2a3b_zero: bool
    vanished: str


@dataclass
class RunResult:
    """One orientation/sign-flip configuration at one ansatz."""

    orientation: str
    flips: Tuple[int, int]
    degree: int
    exponents: Tuple[Tuple[Fraction, ...], ...]
    solution_dim: int
    z_only: bool
    branches: List[BranchResult]
    vanished: Optional[str]
    verdict: str  # "obstructed" | "candidate"
    candidate_witness: str = ""


@dataclass
class ObstructionReport:
    form: int
    entry_id: str
    degree: int
    runs: List[RunResult]
    verdict: str  # "obstructed" | "counterexample-candidate"

    @property
    def vanished_vectors(self) -> Tuple[str, ...]:
        return tuple(sorted({r.vanished for r in self.runs if r.vanished}))

    def to_text(self) -> str:
        lines = [
            f"g2-check form {self.form} ({self.entry_id}), degree {self.degree}"
        ]
        for run in self.runs:
            lines.append(
                f"  run orientation={run.orientation} flips={run.flips} "
                f"exponents=[{_format_exponents(run.exponents)}]"
            )
            lines.append(
                f"    solution dimension {run.solution_dim}; components depend "
                f"on z only: {'yes' if run.z_only else 'NO'}"
            )
            for br in run.branches:
                lines.append(
                    f"    branch {br.index}: X_alpha+beta = {br.x_ab}; "
                    f"vanished {br.vanished}"
                )
            if run.vanished:
                lines.append(f"    verdict: obstructed ({run.vanished} = 0)")
            else:
                lines.append(f"    verdict: {run.verdict} {run.candidate_witness}")
        if self.verdict == "obstructed":
            lines.append(f"OBSTRUCTED: {' or '.join(self.vanished_vectors)} = 0")
        else:
            lines.append("COUNTEREXAMPLE-CANDIDATE: see run data")
        return "\n".join(lines)

    def to_records(self) -> List[str]:
        recs = []
        for run in self.runs:
            exps = _format_exponents(run.exponents)
            recs.append(
                f"record kind=obstruction-run form={self.form} "
                f"orientation={run.orientation} flips={run.flips[0]},{run.flips[1]} "
                f"degree={run.degree} exponents=[{exps}] dim={run.solution_dim} "
                f"zonly={'true' if run.z_only else 'false'} "
                f"vanished={run.vanished or 'none'} verdict={run.verdict}"
            )
        recs.append(
            f"record kind=obstruction form={self.form} entry={self.entry_id} "
            f"degree={self.degree} verdict={self.verdict} "
            f"vanished={','.join(self.vanished_vectors) or 'none'}"
        )
        return recs


def _format_exponents(exponents) -> str:
    return ",".join("(" + ",".join(str(q) for q in e) + ")" for e in exponents)


def _symbolic_combination(basis: Sequence[VectorField], dim: int):
    """sum of u_i * basis_i with fresh formal parameters u1..uk, and their names."""
    names = tuple(f"u{i + 1}" for i in range(len(basis)))
    total = VectorField.zero(dim)
    for name, b in zip(names, basis):
        total = total + b * ExpPoly.param(dim, name)
    return total, names


def _z_only(fields: Sequence[VectorField]) -> bool:
    for f in fields:
        for comp in f.components:
            for exp, mono, _ in comp.terms():
                if any(exp[:2]) or any(mono[:2]):
                    return False
    return True


def _chain(x_alpha, x_malpha, x_ab):
    """Derived root vectors along the inductive definitions."""
    x_beta = x_malpha.bracket(x_ab)
    x_a2b = x_beta.bracket(x_ab)
    x_a3b = x_beta.bracket(x_a2b)
    x_2a3b = x_alpha.bracket(x_a3b)
    return x_beta, x_a2b, x_a3b, x_2a3b


def _vanished(x_a2b, x_2a3b) -> Optional[str]:
    """The first vector of a chain that vanishes identically, if any."""
    if x_a2b.is_zero():
        return "X_{alpha+2beta}"
    if x_2a3b.is_zero():
        return "X_{2alpha+3beta}"
    return None


def _witness_assignment(general: VectorField, names):
    """Search small rationals making the whole chain nonzero."""
    candidates = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]
    # vary one parameter at a time around the all-ones point
    base = {n: Fraction(1) for n in names}
    trial_points = [base]
    for n in names:
        for v in candidates:
            pt = dict(base)
            pt[n] = v
            trial_points.append(pt)
    for pt in trial_points:
        x = general.subst_params(pt)
        if x.is_zero():
            continue
        yield pt, x


def _extension(cartans, eigenvalues, commuting, space: AnsatzSpace) -> List[VectorField]:
    """Basis of the X_{alpha+beta} in ``space`` that extend two root pairs.

    X_{alpha+beta} is an eigenvector, with the matching ``eigenvalues``,
    of the Cartan element [X_r, X_{-r}] of each normalized pair, given
    in ``cartans``, and commutes with every field of ``commuting``.  Of
    all uses of a pair, only its Cartan element depends on the scale of
    X_{-r}, so callers may use the pairs as given everywhere else.
    """
    constraints = [BracketConstraint.eigen(h, e) for h, e in zip(cartans, eigenvalues)]
    constraints += [BracketConstraint.commutes(f) for f in commuting]
    return solve(constraints, space).basis


def g2_obstruction(form: int, ansatz: AnsatzSpace) -> ObstructionReport:
    """Run the short-root extension check for one A2 form.

    The exponent vectors (0,0,q) for q in ``PROBE_EXPONENTS`` are probed
    besides those of ``ansatz``, since eigen constraints with a constant
    d/dz part admit exponential solutions in z.  Each orientation runs
    one ``solve`` over all these exponent blocks and one chain of its
    general solution and of each basis element; its four sign-flip runs
    are labels on that result (see the module docstring).
    """
    if form not in FORM_TO_ENTRY:
        raise LvfError(f"a2 form must be 1, 2 or 3, not {form!r}")
    if ansatz.dimension() == 0:
        # no candidate X_{alpha+beta} at all: "obstructed" would be vacuous
        raise LvfError(f"empty search space ({ansatz.describe()})")
    entry = _catalog.get(FORM_TO_ENTRY[form])
    gens = entry.generators_at(entry.default_assignment())
    degree = ansatz.max_degree
    exponents = list(ansatz.exponents) + [(0, 0, q) for q in PROBE_EXPONENTS]
    space = AnsatzSpace(3, exponents, degree, ansatz.components)

    g2 = get_root_system("G2")
    eigenvalues = (
        g2.cartan_integer((1, 1), (1, 0)),  # <alpha+beta, alpha> = 1
        # the second Cartan element realizes the coroot of alpha+3beta
        g2.cartan_integer((1, 1), (1, 3)),  # <alpha+beta, alpha+3beta> = 0
    )

    # both orientations use the same two pairs: each is normalized once
    cartans = {
        a: normalize_simple_pair(gens[f"X_{a}"], gens[f"X_m{a}"])[1] for a in ("alpha", "beta")
    }
    runs: List[RunResult] = []
    for a, b in (("alpha", "beta"), ("beta", "alpha")):
        xa, xma = gens[f"X_{a}"], gens[f"X_m{a}"]
        xb, xmb = gens[f"X_{b}"], gens[f"X_m{b}"]
        x_2a3b_a2 = xa.bracket(xb)
        basis = _extension(
            [cartans[a], cartans[b]], eigenvalues, [xa, xb, x_2a3b_a2, xmb], space
        )
        branches = []
        for i, x in enumerate(basis):
            x_beta, x_a2b, _, x_2a3b = _chain(xa, xma, x)
            branches.append(
                BranchResult(
                    index=i + 1,
                    x_ab=format_field(x),
                    x_beta_zero=x_beta.is_zero(),
                    x_a2b_zero=x_a2b.is_zero(),
                    x_2a3b_zero=x_2a3b.is_zero(),
                    vanished=_vanished(x_a2b, x_2a3b) or "none",
                )
            )
        general, names = _symbolic_combination(basis, 3)
        _, x_a2b, _, x_2a3b = _chain(xa, xma, general)
        vanished = _vanished(x_a2b, x_2a3b)  # X_{alpha+2beta} when basis is empty
        verdict, witness = "obstructed", "" if basis else "(solution space is zero)"
        if vanished is None:
            verdict, witness = _examine_candidate(
                general, names, xa, xma, x_2a3b_a2, degree
            )
        z_only = _z_only(basis)
        for flips in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            runs.append(
                RunResult(
                    orientation=f"alpha=X_{a}",
                    flips=flips,
                    degree=degree,
                    exponents=space.exponents,
                    solution_dim=len(basis),
                    z_only=z_only,
                    branches=branches,
                    vanished=vanished,
                    verdict=verdict,
                    candidate_witness=witness,
                )
            )
    overall = "obstructed" if all(r.verdict == "obstructed" for r in runs) else (
        "counterexample-candidate"
    )
    return ObstructionReport(form, entry.id, degree, runs, overall)


def _examine_candidate(general, names, xa, xma, x_2a3b_a2, degree):
    """A run where neither chain vector vanishes identically.

    Certify a concrete counterexample candidate (all derived vectors
    nonzero and the derived long-root vector a nonzero multiple of the
    A2 one) or refuse to conclude.
    """
    for pt, x in _witness_assignment(general, names):
        x_beta, x_a2b, x_a3b, x_2a3b = _chain(xa, xma, x)
        if x_beta.is_zero() or x_a2b.is_zero() or x_2a3b.is_zero():
            continue
        scale = x_2a3b.constant_multiple_of(x_2a3b_a2)
        if scale:
            assign = ", ".join(f"{n}={pt[n]}" for n in names)
            return "candidate", f"(witness {assign})"
    raise InconclusiveAtDegree(
        degree,
        "nonzero solution family, but no branch matches the long-root vector "
        "and no chain vector vanishes identically",
    )


# -- sanity control inside the first B2 form ---------------------------------


@dataclass
class ControlReport:
    entry_id: str
    degree: int
    solution_dim: int
    catalog_in_space: bool
    x_beta_matches: bool
    obstructed: bool
    validated: bool

    def to_text(self) -> str:
        return (
            f"control {self.entry_id} degree {self.degree}: solution dim "
            f"{self.solution_dim}, catalog vector in space: "
            f"{'yes' if self.catalog_in_space else 'NO'}, derived X_beta "
            f"matches: {'yes' if self.x_beta_matches else 'NO'}, obstruction "
            f"reported: {'yes' if self.obstructed else 'no'} -> "
            f"{'VALIDATED' if self.validated else 'FAILED'}"
        )


def b2_sanity_control(degree: int = 2) -> ControlReport:
    """Run the identical pipeline inside the first B2 form.

    The long roots alpha and alpha+2beta of that realization span an
    orthogonal pair; solving for X_{alpha+beta} with the same recipe
    must reproduce the catalog short-root data and report no
    obstruction.
    """
    entry = _catalog.get("b2.1")
    gens = entry.generators_at({})
    xa, xma = gens["X_alpha"], gens["X_malpha"]
    x_ab_cat, x_a2b = gens["X_ab"], gens["X_a2b"]
    b2 = get_root_system("B2")
    eigenvalues = (
        b2.cartan_integer((1, 1), (1, 0)),  # <alpha+beta, alpha> = 1
        b2.cartan_integer((1, 1), (1, 2)),  # <alpha+beta, alpha+2beta> = 1
    )
    # exponent blocks: none, and the block of the catalog short root
    exps = [(0, 0, 0), next(iter(x_ab_cat.components[0].exponents()))]
    basis = _extension(
        [normalize_simple_pair(xa, xma)[1], normalize_simple_pair(x_a2b, gens["X_ma2b"])[1]],
        eigenvalues,
        [xa, x_a2b],
        AnsatzSpace(3, exps, degree),
    )
    general, names = _symbolic_combination(basis, 3)
    x_beta_g, x_a2b_g, _, _ = _chain(xa, xma, general)
    obstructed = x_a2b_g.is_zero() or not basis

    catalog_in_space = False
    x_beta_matches = False
    try:
        coeffs = express_in_basis(x_ab_cat, basis)
        catalog_in_space = True
        x_beta_derived = x_beta_g.subst_params(dict(zip(names, coeffs)))
        x_beta_matches = bool(x_beta_derived.constant_multiple_of(gens["X_beta"]))
    except NotInSpan:
        pass
    except DependentBasis as exc:
        raise InternalError(f"solve returned a dependent basis: {exc}") from exc
    validated = catalog_in_space and x_beta_matches and not obstructed
    return ControlReport(
        entry_id=entry.id,
        degree=degree,
        solution_dim=len(basis),
        catalog_in_space=catalog_in_space,
        x_beta_matches=x_beta_matches,
        obstructed=obstructed,
        validated=validated,
    )
