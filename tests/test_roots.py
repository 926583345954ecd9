"""Root systems and the inductive construction of root vectors."""

from fractions import Fraction

import pytest

from lvf.errors import CartanRelationViolated, LvfError
from lvf.fields import bracket
from lvf.parsing import parse_field
from lvf.roots import (
    ROOT_SYSTEMS,
    b2_sl4_model,
    build_chevalley,
    get_root_system,
    normalize_simple_pair,
)

ALPHA, BETA = (1, 0), (0, 1)


class TestRootData:
    def test_cartan_diagonal(self):
        for system in ROOT_SYSTEMS.values():
            assert system.cartan_integer(ALPHA, ALPHA) == 2
            assert system.cartan_integer(BETA, BETA) == 2

    def test_a2_cartan(self):
        a2 = get_root_system("A2")
        assert a2.cartan_integer(ALPHA, BETA) == -1
        assert a2.cartan_integer(BETA, ALPHA) == -1

    def test_g2_cartan(self):
        g2 = get_root_system("G2")
        assert g2.cartan_integer(ALPHA, BETA) == -3
        assert g2.cartan_integer(BETA, ALPHA) == -1

    def test_offdiagonal_nonpositive(self):
        for system in ROOT_SYSTEMS.values():
            cm = system.cartan_matrix()
            assert cm[0][1] <= 0 and cm[1][0] <= 0

    def test_positive_roots(self):
        assert get_root_system("G2").positive_roots() == (
            (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3),
        )
        assert get_root_system("A1xA1").positive_roots() == ((1, 0), (0, 1))
        assert get_root_system("B2").positive_roots() == (
            (1, 0), (0, 1), (1, 1), (1, 2),
        )

    def test_root_strings_close(self):
        # positive roots are exactly the positive integer combinations
        # closed under the string property of the given type
        for system in ROOT_SYSTEMS.values():
            roots = set(system.all_roots())
            for r in roots:
                for s in roots:
                    n = system.cartan_integer(r, s)
                    # reflection of r along s stays in the system
                    refl = (r[0] - n * s[0], r[1] - n * s[1])
                    assert refl in roots

    def test_long_marking(self):
        b2 = get_root_system("B2")
        assert b2.is_long(ALPHA)
        assert not b2.is_long(BETA)
        assert b2.is_long((1, 2))

    def test_not_a_root(self):
        with pytest.raises(LvfError):
            get_root_system("A2").cartan_integer((2, 0), ALPHA)

    def test_names(self):
        g2 = get_root_system("G2")
        assert g2.root_name((1, 2)) == "alpha+2beta"
        assert g2.root_name((2, 3)) == "2alpha+3beta"
        assert g2.root_name((-1, 0)) == "-alpha"


class TestNormalization:
    def test_noop_for_standard_pair(self):
        xp = parse_field("y*Dz", dim=4)
        xm = parse_field("z*Dy", dim=4)
        xm2, h, scale = normalize_simple_pair(xp, xm)
        assert scale == 1 and xm2 == xm
        assert h == bracket(xp, xm)

    def test_rescales_quarter_pair(self):
        xp = parse_field("exp((-x+y)/2)*(Dx - Dy - (z + 1/4)*Dz)")
        xm = parse_field("exp((x-y)/2)*(z*Dx + (z + 1/2)*Dy + (z^2 + z/4)*Dz)")
        xm2, h, scale = normalize_simple_pair(xp, xm)
        assert scale == 4
        # the Cartan element is the bracket with the scaled xm, and its
        # terms are stored in the same order
        direct = bracket(xp, xm2)
        assert h == direct
        assert [list(c.term_map()) for c in h.components] == [
            list(c.term_map()) for c in direct.components
        ]
        assert bracket(h, xp) == xp * Fraction(2)

    def test_rejects_commuting_pair(self):
        with pytest.raises(CartanRelationViolated):
            normalize_simple_pair(parse_field("Dx"), parse_field("Dy"))


class TestSl4Model:
    def test_build_succeeds(self):
        chev = build_chevalley(get_root_system("B2"), b2_sl4_model())
        assert chev.cartan[ALPHA] == parse_field("y*Dy - z*Dz", dim=4)
        # eigenvalue of H_alpha on X_beta is the Cartan number -1
        xb = chev.vector(BETA)
        assert bracket(chev.cartan[ALPHA], xb) == xb * Fraction(-1)

    def test_constants_match_c3_realization(self):
        b2 = get_root_system("B2")
        model = build_chevalley(b2, b2_sl4_model())
        simple = {
            (1, 0): parse_field("exp(x)*(Dx + Dy + z*Dz)"),
            (-1, 0): parse_field("exp(-x)*(-Dx + Dy + z*Dz)"),
            (0, 1): parse_field("exp((-x+y)/2)*(Dx - Dy - (z + 1/4)*Dz)"),
            (0, -1): parse_field(
                "exp((x-y)/2)*(z*Dx + (z + 1/2)*Dy + (z^2 + z/4)*Dz)"
            ),
        }
        realized = build_chevalley(b2, simple)
        assert realized.constants == model.constants

    def test_a2_form_builds(self):
        a2 = get_root_system("A2")
        simple = {
            (1, 0): parse_field("Dy"),
            (-1, 0): parse_field("-x*y*Dx - y^2*Dy"),
            (0, 1): parse_field("y*Dx"),
            (0, -1): parse_field("x*Dy"),
        }
        chev = build_chevalley(a2, simple)
        assert len(chev.vectors) == 6
        assert chev.n_constant((1, 0), (0, 1)) == 1

    def test_violated_relation_detected(self):
        a2 = get_root_system("A2")
        simple = {
            (1, 0): parse_field("Dy"),
            (-1, 0): parse_field("-x*y*Dx - y^2*Dy + Dz"),  # tampered
            (0, 1): parse_field("y*Dx"),
            (0, -1): parse_field("x*Dy"),
        }
        with pytest.raises(CartanRelationViolated):
            build_chevalley(a2, simple)
