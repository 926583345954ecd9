"""Bracket-constraint solver: examples, soundness, completeness."""

import random
from fractions import Fraction

import pytest

from lvf import catalog
from lvf import solve as solve_module
from lvf.errors import AnsatzExplosion, LvfError, ParameterizedInput
from lvf.fields import VectorField
from lvf.parsing import parse_field
from lvf.solve import (
    AnsatzSpace,
    BracketConstraint,
    centralizer,
    centralizer_rank,
    solve,
)

from _rand import rand_field, rand_invertible


def F(text, params=()):
    return parse_field(text, 3, params)


class TestExamples:
    def test_eigenfields(self):
        ansatz = AnsatzSpace(3, exponents=[(1, 0, 0)], max_degree=0)
        res = solve([BracketConstraint.eigen(F("Dx"), 1)], ansatz)
        assert [str(b) for b in res.basis] == ["exp(x)*Dx", "exp(x)*Dy", "exp(x)*Dz"]

    def test_centralizer_form2(self):
        algebra = [F("Dx"), F("Dy"), F("y*Dx")]
        res = centralizer(algebra, AnsatzSpace(3, max_degree=2))
        assert res.dimension == 6
        # solutions are A(z) Dx + B(z) Dz
        for b in res.basis:
            assert b.components[1].is_zero()

    def test_centralizer_form3(self):
        algebra = [F("Dx"), F("Dy"), F("y*Dx + z*Dy")]
        res = centralizer(algebra, AnsatzSpace(3, max_degree=2))
        assert res.dimension == 3
        for b in res.basis:
            assert b.components[1].is_zero() and b.components[2].is_zero()

    def test_centralizer_ranks(self):
        assert centralizer_rank(
            [F("Dx"), F("Dy"), F("y*Dx")], AnsatzSpace(3, max_degree=4)
        ) == 2
        assert centralizer_rank(
            [F("Dx"), F("Dy"), F("y*Dx + z*Dy")], AnsatzSpace(3, max_degree=4)
        ) == 1
        assert centralizer_rank(
            [F("Dx"), F("Dy"), F("Dz")], AnsatzSpace(3, max_degree=0)
        ) == 3


class TestContracts:
    def test_parameterized_known_rejected(self):
        with pytest.raises(ParameterizedInput):
            solve(
                [BracketConstraint.commutes(F("lambda*Dx", params=("lambda",)))],
                AnsatzSpace(3, max_degree=1),
            )

    def test_explosion_bound(self, monkeypatch):
        # built before the bound is lowered: the constructor reads it too
        ansatz = AnsatzSpace(3, max_degree=4)
        monkeypatch.setattr(solve_module, "TARGET_BOUND", 10)
        with pytest.raises(AnsatzExplosion):
            solve([BracketConstraint.commutes(F("x*y*z*Dx"))], ansatz)

    @staticmethod
    def _count_builds(monkeypatch):
        """Nonempty rows of each ``_build_system`` call, in call order."""
        rows_built = []
        build = solve_module._build_system

        def counting(*args, **kwargs):
            out = build(*args, **kwargs)
            rows_built.append(sum(1 for row in out[1] if row))
            return out

        monkeypatch.setattr(solve_module, "_build_system", counting)
        return rows_built

    @staticmethod
    def _count_constraints(monkeypatch):
        """One entry per ``_build_system`` call: the 1 constraint it
        builds."""
        built = []
        build = solve_module._build_system

        def counting(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(solve_module, "_build_system", counting)
        return built

    def test_empty_first_kernel_stops_the_solve(self, monkeypatch):
        built = self._count_constraints(monkeypatch)
        # ad(y*Dx) is nilpotent on polynomial fields: no X with [y*Dx, X] = X
        ansatz = AnsatzSpace(3, max_degree=2)
        res = solve(
            [BracketConstraint.eigen(F("y*Dx"), 1), BracketConstraint.commutes(F("Dy"))],
            ansatz,
        )
        assert built == [1]
        assert res.basis == [] and res.matrix_rank == res.ansatz_dim == 30

    def test_empty_graded_first_kernel_builds_nothing(self, monkeypatch):
        built = self._count_constraints(monkeypatch)
        # no polynomial field satisfies [Dx, X] = X
        ansatz = AnsatzSpace(3, max_degree=2)
        res = solve(
            [BracketConstraint.eigen(F("Dx"), 1), BracketConstraint.commutes(F("Dy"))],
            ansatz,
        )
        assert built == []
        assert res.basis == [] and res.matrix_rank == res.ansatz_dim == 30

    def test_target_bound_counts_rows_built_over_all_stages(self, monkeypatch):
        rows_built = self._count_builds(monkeypatch)
        cons = [BracketConstraint.commutes(F("y*Dz")), BracketConstraint.commutes(F("Dx"))]
        ansatz = AnsatzSpace(3, max_degree=2)
        solve(cons, ansatz)
        assert len(rows_built) == 2
        total = sum(rows_built)
        monkeypatch.setattr(solve_module, "TARGET_BOUND", total)
        solve(cons, ansatz)
        monkeypatch.setattr(solve_module, "TARGET_BOUND", total - 1)
        with pytest.raises(AnsatzExplosion) as info:
            solve(cons, ansatz)
        assert (info.value.size, info.value.bound) == (total, total - 1)

    def test_target_bound_counts_graded_rows(self, monkeypatch):
        rows_built = self._count_builds(monkeypatch)
        # x*Dx keeps the 15 columns of weight 0 (x^m d_c with m_x = 1 for
        # c = x, m_x = 0 otherwise) though it comes second: y*Dz is built
        # over those 15 columns, x*Dx over the 9 its kernel uses, where
        # its diagonal terms cancel: its 2 target rows are empty, and
        # neither goes to the elimination nor counts against the bound.
        # 8 of the 10 rows of y*Dz hold one entry, at once or once the
        # others pinned their columns, so only 2 reach the elimination,
        # and the stage of x*Dx has no row left for it
        cons = [BracketConstraint.commutes(F("y*Dz")), BracketConstraint.commutes(F("x*Dx"))]
        ansatz = AnsatzSpace(3, max_degree=2)
        eliminated = []
        rref = solve_module._linalg.rref

        def counting_rref(rows, ncols):
            eliminated.append(len(rows))
            return rref(rows, ncols)

        monkeypatch.setattr(solve_module._linalg, "rref", counting_rref)
        solve(cons, ansatz)
        assert rows_built == [10, 0]
        assert eliminated == [2]
        total = sum(rows_built)
        monkeypatch.setattr(solve_module, "TARGET_BOUND", total)
        solve(cons, ansatz)
        monkeypatch.setattr(solve_module, "TARGET_BOUND", total - 1)
        with pytest.raises(AnsatzExplosion) as info:
            solve(cons, ansatz)
        assert (info.value.size, info.value.bound) == (total, total - 1)

    @staticmethod
    def _count_affine_builds(monkeypatch):
        """``(constraint, columns, rows)`` of each ``_build_system`` call,
        counting the rows that are not empty or have a nonzero
        right-hand side."""
        builds = []
        build = solve_module._build_system

        def counting(cons, ansatz, columns=None):
            out = build(cons, ansatz, columns)
            _, rows, rhs, _ = out
            kept = sum(1 for row, b in zip(rows, rhs or [0] * len(rows)) if row or b)
            builds.append((id(cons), columns, kept))
            return out

        monkeypatch.setattr(solve_module, "_build_system", counting)
        return builds

    @staticmethod
    def _b2_system(witness):
        """The golden ``solve_equals_b2`` systems: [g_i, X] = [g_i, X0] for
        the ten fields of b2.2, with an unreachable target term in
        constraint 1 and a conflicting image term in constraint 4 when
        ``witness``."""
        gens = list(catalog.get("b2.2").generators_at({}).values())
        x0 = F("x*y*Dx - 2*z*Dy + (3 + y^2)*Dz")
        targets = [g.bracket(x0) for g in gens]
        if witness:
            targets[1] = targets[1] + F("x^9*Dx")
            targets[4] = targets[4] + F("y*Dz")
        return [BracketConstraint.equals(g, t) for g, t in zip(gens, targets)]

    @pytest.mark.parametrize("witness", [False, True])
    def test_target_bound_counts_affine_rows_over_all_stages(self, monkeypatch, witness):
        builds = self._count_affine_builds(monkeypatch)
        cons = self._b2_system(witness)
        ansatz = AnsatzSpace(3, max_degree=3)
        first = solve(cons, ansatz)
        assert (first.inconsistency is not None) == witness
        index = {id(c): i for i, c in enumerate(cons)}
        # (constraint, built over every column) of each build in order:
        # constraint 0 is built over every column, and the solution set
        # is one point after constraint 2, so a later constraint is built
        # only when the point fails it.  With the witness, constraint 1
        # (an unreachable term) and constraint 4 (an image conflict, which
        # the point fails) have no solution on their restricted columns
        # and are built again over every column; constraint 3 holds at
        # the point, and after the witness in constraint 4 the kernel is
        # {0} and no later constraint is built
        sequence = [(index[key], columns is None) for key, columns, _ in builds]
        if witness:
            assert sequence == [
                (0, True), (1, False), (1, True), (2, False), (4, False), (4, True)
            ]
        else:
            assert sequence == [(0, True), (1, False), (2, False)]
        # a build made again counts in place of the first
        counted = {key: kept for key, _, kept in builds}
        total = sum(counted.values())
        monkeypatch.setattr(solve_module, "TARGET_BOUND", total)
        assert solve(cons, ansatz).inconsistency == first.inconsistency
        monkeypatch.setattr(solve_module, "TARGET_BOUND", total - 1)
        with pytest.raises(AnsatzExplosion) as info:
            solve(cons, ansatz)
        assert (info.value.size, info.value.bound) == (total, total - 1)
        # the stacked matrix has more rows: a bound it met is met
        monkeypatch.setattr(solve_module, "TARGET_BOUND", 10 ** 6)
        stacked = sum(len(solve_module._build_system(c, ansatz)[0]) for c in cons)
        assert total < stacked
        monkeypatch.setattr(solve_module, "TARGET_BOUND", stacked)
        assert solve(cons, ansatz).inconsistency == first.inconsistency

    def test_constraint_order_gives_the_same_basis(self):
        ansatz = AnsatzSpace(3, max_degree=2)
        cons = [BracketConstraint.commutes(F("y*Dz")), BracketConstraint.commutes(F("Dx"))]
        forward = solve(cons, ansatz)
        backward = solve(cons[::-1], ansatz)
        assert forward.basis and forward.basis == backward.basis
        assert forward.matrix_rank == backward.matrix_rank

    def test_staged_vectors_are_divided_by_their_content(self):
        # 2*(3 e0) + 4*(e0 + 3 e1) = 10 e0 + 12 e1: kept as 5 e0 + 6 e1,
        # so entries do not grow from stage to stage; the sign stays
        assert solve_module._combine({0: 2, 1: 4}, [{0: 3}, {0: 1, 1: 3}]) == {0: 5, 1: 6}
        assert solve_module._combine({0: -2}, [{0: 3, 2: 6}]) == {0: -1, 2: -2}

    def test_inconsistent_equals_reports_witness(self):
        res = solve(
            [BracketConstraint.equals(F("Dx"), F("exp(x)*Dx"))],
            AnsatzSpace(3, max_degree=2),
        )
        assert res.inconsistency is not None
        assert res.basis == [] and res.particular is None

    def test_equals_particular(self):
        res = solve(
            [BracketConstraint.equals(F("Dx"), F("Dz"))],
            AnsatzSpace(3, max_degree=1),
        )
        assert res.particular == F("x*Dz")
        for b in res.basis:
            assert F("Dx").bracket(b).is_zero()


class TestAnsatzSpace:
    def test_dimension_is_the_number_of_basis_fields(self):
        for ansatz in (
            AnsatzSpace(3, max_degree=4),
            AnsatzSpace(3, [(), (0, 0, 1), (0, 0, 0)], 2, [0, 2]),
            AnsatzSpace(2, [(1, 0), (0, 1)], 0),
            AnsatzSpace(3, max_degree=2, components=[]),
            # five blocks of 4620 fields: the bound counts one block
            AnsatzSpace(3, [(0, 0, q) for q in range(5)], 19),
        ):
            assert ansatz.dimension() == len(ansatz.basis_keys())

    def test_bound_counts_one_exponent_block(self):
        assert AnsatzSpace(3, [(0, 0, q) for q in range(5)], 19).dimension() == 23100
        with pytest.raises(LvfError, match="more than 20000 basis fields"):
            AnsatzSpace(3, max_degree=33)

    @pytest.mark.parametrize("dim", [10 ** 10, 10 ** 20])
    def test_huge_dimension_refused_at_once(self, dim):
        # every component by default: counted, never listed
        with pytest.raises(LvfError, match="more than 20000 basis fields"):
            AnsatzSpace(dim)

    def test_dimension_does_not_read_the_bound(self, monkeypatch):
        ansatz = AnsatzSpace(3, max_degree=4)
        monkeypatch.setattr(solve_module, "TARGET_BOUND", 10)
        assert ansatz.dimension() == len(ansatz.basis_keys()) == 105

    def test_zero_exponent_forms_are_one_block(self):
        ansatz = AnsatzSpace(3, [(), (0, 0, 0), (Fraction(0), 0, 0)], 1)
        assert ansatz.exponents == ((Fraction(0),) * 3,)

    @pytest.mark.parametrize("dim", [0, -1, 65, 100000])
    def test_dimension_out_of_range_refused(self, dim):
        with pytest.raises(LvfError, match="dimension must be"):
            AnsatzSpace(dim, max_degree=0, components=[])


class TestProperties:
    def test_soundness_and_rank_nullity_random(self):
        rng = random.Random(41)
        for _ in range(60):
            known = rand_field(rng, dim=2, max_terms=1, with_exp=False)
            kind = rng.choice(("zero", "eigen"))
            if kind == "zero":
                cons = [BracketConstraint.commutes(known)]
            else:
                cons = [BracketConstraint.eigen(known, Fraction(rng.randint(-2, 2)))]
            ansatz = AnsatzSpace(2, max_degree=rng.randint(0, 2))
            res = solve(cons, ansatz)
            assert res.matrix_rank + res.dimension == res.ansatz_dim
            for b in res.basis:
                assert cons[0].residual(b).is_zero()

    def test_monotonicity_in_degree(self):
        algebra = [F("Dx"), F("Dy"), F("y*Dx")]
        small = centralizer(algebra, AnsatzSpace(3, max_degree=2))
        large = centralizer(algebra, AnsatzSpace(3, max_degree=4))
        assert large.dimension >= small.dimension
        # old solutions still solve the larger problem (they are the same
        # constraints); check they lie in the span of the new basis
        from lvf.algebra import express_in_basis

        for b in small.basis:
            express_in_basis(b, large.basis)

    def test_monotonicity_in_exponents(self):
        cons = [BracketConstraint.eigen(F("Dx"), 1)]
        small = solve(cons, AnsatzSpace(3, exponents=[(1, 0, 0)], max_degree=0))
        large = solve(
            cons, AnsatzSpace(3, exponents=[(1, 0, 0), (2, 0, 0)], max_degree=0)
        )
        assert large.dimension >= small.dimension

    def test_rank_invariant_under_recombination(self):
        rng = random.Random(43)
        algebra = [F("Dx"), F("Dy"), F("y*Dx")]
        base = centralizer_rank(algebra, AnsatzSpace(3, max_degree=3))
        for _ in range(10):
            m = rand_invertible(rng, 3)
            mixed = []
            for j in range(3):
                acc = VectorField.zero(3)
                for k in range(3):
                    acc = acc + algebra[k] * m[j][k]
                mixed.append(acc)
            assert centralizer_rank(mixed, AnsatzSpace(3, max_degree=3)) == base
