"""Short-root extension obstruction and its B2 sanity control."""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lvf import catalog
from lvf import obstruction
from lvf.errors import InconclusiveAtDegree, InternalError, LvfError
from lvf.fields import bracket
from lvf.parsing import parse_field
from lvf.obstruction import (
    FORM_TO_ENTRY,
    b2_sanity_control,
    g2_obstruction,
)
from lvf.solve import AnsatzSpace


def test_form_mapping():
    assert FORM_TO_ENTRY == {1: "a2.3", 2: "a2.1", 3: "a2.2"}


class TestObstruction:
    def test_form2_obstructed(self):
        report = g2_obstruction(2, AnsatzSpace(3, max_degree=4))
        assert report.verdict == "obstructed"
        assert set(report.vanished_vectors) <= {
            "X_{alpha+2beta}", "X_{2alpha+3beta}",
        }

    def test_form3_nontrivial_branch(self):
        report = g2_obstruction(3, AnsatzSpace(3, max_degree=4))
        assert report.verdict == "obstructed"
        dims = {r.solution_dim for r in report.runs}
        assert dims == {1}  # the exponential family survives the solve
        for run in report.runs:
            assert run.z_only
            for branch in run.branches:
                assert not branch.x_beta_zero
                assert branch.x_a2b_zero

    def test_form1_zero_space(self):
        report = g2_obstruction(1, AnsatzSpace(3, max_degree=4))
        assert report.verdict == "obstructed"
        assert all(r.solution_dim == 0 for r in report.runs)

    def test_degree_sweep_stable(self):
        for form in (1, 2, 3):
            verdicts = set()
            for degree in (2, 4):
                report = g2_obstruction(form, AnsatzSpace(3, max_degree=degree))
                verdicts.add(report.verdict)
            assert verdicts == {"obstructed"}

    def test_flips_and_orientations_agree(self):
        report = g2_obstruction(3, AnsatzSpace(3, max_degree=2))
        assert len(report.runs) == 8  # 2 orientations x 4 sign flips
        assert {r.verdict for r in report.runs} == {"obstructed"}

    @pytest.mark.parametrize("form", [1, 2, 3])
    def test_flip_runs_differ_only_in_flips(self, form):
        # the bracket is bilinear, so a sign flip never changes which
        # chain vector vanishes: the four runs of an orientation agree
        report = g2_obstruction(form, AnsatzSpace(3, max_degree=4))
        assert [r.flips for r in report.runs] == [
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        ] * 2
        for start in (0, 4):
            first = report.runs[start]
            for run in report.runs[start:start + 4]:
                assert dataclasses.replace(run, flips=first.flips) == first

    def test_one_solve_and_one_chain_per_orientation(self, monkeypatch):
        solve_calls, chain_calls = [], []
        solve, chain = obstruction.solve, obstruction._chain
        monkeypatch.setattr(
            obstruction, "solve", lambda *a: solve_calls.append(1) or solve(*a)
        )
        monkeypatch.setattr(
            obstruction, "_chain", lambda *a: chain_calls.append(1) or chain(*a)
        )
        report = g2_obstruction(3, AnsatzSpace(3, max_degree=4))
        assert len(report.runs) == 8
        dims = [report.runs[0].solution_dim, report.runs[4].solution_dim]
        assert len(solve_calls) == 2
        # the general solution and each basis element, once per orientation
        assert len(chain_calls) == sum(1 + dim for dim in dims)

    def test_each_simple_pair_normalized_once(self, monkeypatch):
        pairs = []
        normalize = obstruction.normalize_simple_pair
        monkeypatch.setattr(
            obstruction,
            "normalize_simple_pair",
            lambda x, xm: pairs.append((x, xm)) or normalize(x, xm),
        )
        g2_obstruction(3, AnsatzSpace(3, max_degree=2))
        entry = catalog.get(FORM_TO_ENTRY[3])
        gens = entry.generators_at(entry.default_assignment())
        assert pairs == [(gens["X_alpha"], gens["X_malpha"]), (gens["X_beta"], gens["X_mbeta"])]

    def test_report_brackets_reverify(self):
        # every intermediate identity claimed in a report re-verifies from
        # the run's own signs: s1 on the alpha pair, s1*s2 on [X_a, X_b]
        report = g2_obstruction(3, AnsatzSpace(3, max_degree=2))
        entry = catalog.get(report.entry_id)
        gens = entry.generators_at({})

        for run in report.runs:
            a, b = ("alpha", "beta") if run.orientation == "alpha=X_alpha" else (
                "beta", "alpha"
            )
            s1, s2 = (Fraction(s) for s in run.flips)
            xa, xma = gens[f"X_{a}"] * s1, gens[f"X_m{a}"] * s1
            # bilinearity: the flips only scale the A2 long-root vector
            x_2a3b_a2 = bracket(xa, gens[f"X_{b}"] * s2)
            assert x_2a3b_a2 == bracket(gens[f"X_{a}"], gens[f"X_{b}"]) * (s1 * s2)
            for branch in run.branches:
                x_ab = parse_field(branch.x_ab)
                x_beta = bracket(xma, x_ab)
                assert x_beta.is_zero() == branch.x_beta_zero
                x_a2b = bracket(x_beta, x_ab)
                assert x_a2b.is_zero() == branch.x_a2b_zero
                x_2a3b = bracket(xa, bracket(x_beta, x_a2b))
                assert x_2a3b.is_zero() == branch.x_2a3b_zero
                if branch.x_a2b_zero:
                    assert branch.vanished == "X_{alpha+2beta}"
                elif branch.x_2a3b_zero:
                    assert branch.vanished == "X_{2alpha+3beta}"
                else:
                    # a branch whose chain never vanishes rules out "obstructed"
                    assert branch.vanished == "none" and run.verdict == "candidate"

    def test_scale_invariance_of_verdict(self):
        # scaling the solution by a nonzero rational never toggles
        # zero/nonzero anywhere in the chain
        report = g2_obstruction(3, AnsatzSpace(3, max_degree=2))
        entry = catalog.get(report.entry_id)
        gens = entry.generators_at({})
        run = report.runs[0]
        branch = run.branches[0]
        x_ab = parse_field(branch.x_ab)
        for scale in (Fraction(3), Fraction(-1, 2)):
            scaled = x_ab * scale
            x_beta = bracket(gens["X_malpha"], scaled)
            assert x_beta.is_zero() == branch.x_beta_zero
            assert bracket(x_beta, scaled).is_zero() == branch.x_a2b_zero

    def test_bad_form_rejected(self):
        with pytest.raises(LvfError, match="form must be 1, 2 or 3"):
            g2_obstruction(4, AnsatzSpace(3, max_degree=2))

    @pytest.mark.parametrize("form", [1, 2, 3])
    def test_unmatched_family_is_inconclusive(self, form, monkeypatch):
        # a nonzero family whose chain neither vanishes nor reproduces the
        # A2 long-root vector is refused, never reported as obstructed
        basis = [parse_field("exp(z)*Dx + y*Dz", 3)]
        monkeypatch.setattr(
            obstruction, "solve", lambda *a: SimpleNamespace(basis=basis)
        )
        with pytest.raises(InconclusiveAtDegree):
            g2_obstruction(form, AnsatzSpace(3, max_degree=2))

    def test_empty_search_space_refused(self):
        with pytest.raises(LvfError, match="empty search space"):
            g2_obstruction(2, AnsatzSpace(3, max_degree=2, components=()))

    def test_negative_degree_refused(self):
        with pytest.raises(LvfError, match="degree"):
            AnsatzSpace(3, max_degree=-3)


class TestControl:
    def test_control_validates(self):
        control = b2_sanity_control()
        assert control.validated
        assert control.solution_dim == 2
        assert control.catalog_in_space
        assert control.x_beta_matches
        assert not control.obstructed

    def test_control_at_higher_degree(self):
        control = b2_sanity_control(degree=4)
        assert control.validated

    def test_dependent_basis_is_internal_error(self, monkeypatch):
        solve = obstruction.solve

        def dependent(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.basis += result.basis[:1]
            return result

        monkeypatch.setattr(obstruction, "solve", dependent)
        with pytest.raises(InternalError, match="dependent basis"):
            b2_sanity_control()
