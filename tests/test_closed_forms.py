"""Closed forms: frozen spot values, identities, domain enforcement.

Spot values were derived independently with the contraction engine (contract
the node, take agglomerations of both graphs, form 1 - phi/phi') before being
frozen here.
"""

import re
from fractions import Fraction

import pytest

from agglorank.closed_forms import (
    imc_comet,
    imc_double_comet,
    imc_double_comet_condensed,
    imc_lollipop,
    imc_path,
    phi_comet,
    phi_double_comet,
    phi_lollipop,
    phi_path,
)
from agglorank.errors import FormulaDomainError
from agglorank.families import NodeClass

NC = NodeClass


class TestPath:
    @pytest.mark.parametrize("n,expected", [(2, "1/2"), (4, "3/20"), (10, "3/110")])
    def test_phi(self, n, expected):
        assert phi_path(n) == Fraction(expected)

    def test_phi_domain(self):
        with pytest.raises(FormulaDomainError, match="n >= 2"):
            phi_path(1)

    def test_imc(self):
        assert imc_path(10, NC.PATH_END) == Fraction(2, 11)
        assert imc_path(10, NC.PATH_INNER) == Fraction(19, 55)
        assert imc_path(4, NC.PATH_INNER) == Fraction(7, 10)
        assert imc_path(4, NC.PATH_END) == Fraction(2, 5)

    def test_imc_domain(self):
        with pytest.raises(FormulaDomainError, match="n > 3"):
            imc_path(3, NC.PATH_END)

    def test_imc_rejects_foreign_class(self):
        with pytest.raises(FormulaDomainError, match="^comet_center is not a path node class$"):
            imc_path(6, NC.COMET_CENTER)


class TestComet:
    def test_phi_spot(self):
        assert phi_comet(3, 4) == Fraction(3, 46)

    def test_phi_star(self):
        assert phi_comet(3, 1) == Fraction(1, 6)

    def test_phi_degenerates_to_path(self):
        for t in range(1, 20):
            assert phi_comet(1, t) == phi_path(t + 1)

    def test_imc_spot_3_4(self):
        assert imc_comet(3, 4, NC.COMET_CENTER) == Fraction(17, 23)
        assert imc_comet(3, 4, NC.COMET_PATH_INNER) == Fraction(11, 23)
        assert imc_comet(3, 4, NC.COMET_PATH_END) == Fraction(31, 115)
        assert imc_comet(3, 4, NC.COMET_STAR_LEAF) == Fraction(19, 115)

    def test_imc_spot_4_5(self):
        assert imc_comet(4, 5, NC.COMET_CENTER) == Fraction(49, 69)
        assert imc_comet(4, 5, NC.COMET_PATH_INNER) == Fraction(29, 69)
        assert imc_comet(4, 5, NC.COMET_PATH_END) == Fraction(37, 161)
        assert imc_comet(4, 5, NC.COMET_STAR_LEAF) == Fraction(19, 161)

    @pytest.mark.parametrize("s,t", [(2, 5), (3, 3), (1, 4)])
    def test_imc_domain(self, s, t):
        with pytest.raises(FormulaDomainError, match="s > 2 and t > 3"):
            imc_comet(s, t, NC.COMET_CENTER)


class TestDoubleComet:
    def test_phi_spot(self):
        assert phi_double_comet(8, 2, 2) == Fraction(7, 148)

    def test_phi_degenerates_to_path(self):
        for n in range(4, 24):
            assert phi_double_comet(n, 1, 1) == phi_path(n)

    def test_phi_mirror_symmetry(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for k in range(2, 7):
                    n = a + b + k
                    assert phi_double_comet(n, a, b) == phi_double_comet(n, b, a)

    def test_imc_spot(self):
        assert imc_double_comet(8, 2, 2, NC.DC_END_A) == Fraction(85, 148)
        assert imc_double_comet(8, 2, 2, NC.DC_END_B) == Fraction(85, 148)
        assert imc_double_comet(8, 2, 2, NC.DC_INNER) == Fraction(167, 370)
        assert imc_double_comet(8, 2, 2, NC.DC_LEAF_A) == Fraction(20, 111)
        assert imc_double_comet(8, 2, 2, NC.DC_LEAF_B) == Fraction(20, 111)

    def test_imc_mirror_symmetry(self):
        mirrored = {
            NC.DC_LEAF_A: NC.DC_LEAF_B,
            NC.DC_LEAF_B: NC.DC_LEAF_A,
            NC.DC_END_A: NC.DC_END_B,
            NC.DC_END_B: NC.DC_END_A,
            NC.DC_INNER: NC.DC_INNER,
        }
        for cls, twin in mirrored.items():
            assert imc_double_comet(11, 3, 2, cls) == imc_double_comet(11, 2, 3, twin)

    def test_condensed_form_agrees_with_contraction_form(self):
        for a in range(2, 6):
            for b in range(2, 6):
                for k in range(4, 9):
                    n = a + b + k
                    for cls in (NC.DC_LEAF_A, NC.DC_LEAF_B, NC.DC_END_A,
                                NC.DC_END_B, NC.DC_INNER):
                        assert imc_double_comet(n, a, b, cls) == \
                            imc_double_comet_condensed(n, a, b, cls)

    @pytest.mark.parametrize("n,a,b", [(7, 1, 2), (7, 2, 1), (7, 2, 2)])
    def test_imc_domain(self, n, a, b):
        for fn in (imc_double_comet, imc_double_comet_condensed):
            with pytest.raises(FormulaDomainError, match="a, b >= 2"):
                fn(n, a, b, NC.DC_INNER)


class TestLollipop:
    def test_phi_spot(self):
        assert phi_lollipop(6, 4) == Fraction(5, 62)
        assert phi_lollipop(10, 5) == Fraction(3, 70)
        assert phi_lollipop(11, 6) == Fraction(1, 30)

    def test_phi_degenerates_to_path(self):
        for d in range(2, 20):
            assert phi_lollipop(d + 1, d) == phi_path(d + 1)

    def test_imc_spot_6_4(self):
        assert imc_lollipop(6, 4, NC.LP_JUNCTION) == Fraction(21, 31)
        assert imc_lollipop(6, 4, NC.LP_CLIQUE) == Fraction(43, 93)
        assert imc_lollipop(6, 4, NC.LP_PATH_INNER) == Fraction(53, 93)
        assert imc_lollipop(6, 4, NC.LP_PATH_END) == Fraction(39, 124)

    def test_imc_spot_11_6(self):
        assert imc_lollipop(11, 6, NC.LP_PATH_END) == Fraction(2, 9)
        assert imc_lollipop(11, 6, NC.LP_PATH_INNER) == Fraction(5, 12)
        assert imc_lollipop(11, 6, NC.LP_JUNCTION) == Fraction(2, 3)
        assert imc_lollipop(11, 6, NC.LP_CLIQUE) == Fraction(8, 15)

    def test_known_exceptional_points(self):
        # the only grid points where clique nodes fail to outrank inner tail
        # nodes: reversed at (7,4), an exact tie at (8,5)
        assert imc_lollipop(7, 4, NC.LP_CLIQUE) == Fraction(23, 43)
        assert imc_lollipop(7, 4, NC.LP_PATH_INNER) == Fraction(47, 86)
        assert Fraction(47, 86) > Fraction(23, 43)
        assert imc_lollipop(8, 5, NC.LP_CLIQUE) == imc_lollipop(8, 5, NC.LP_PATH_INNER) \
            == Fraction(33, 68)

    @pytest.mark.parametrize("n,d", [(6, 3), (5, 4), (4, 2)])
    def test_imc_domain(self, n, d):
        with pytest.raises(FormulaDomainError, match="d > 3 and n - d > 1"):
            imc_lollipop(n, d, NC.LP_JUNCTION)


@pytest.mark.parametrize("form,args,message", [
    (phi_comet, (0, 3), "phi_comet requires s >= 1 and t >= 1, got s=0 t=3"),
    (phi_comet, (3, 0), "phi_comet requires s >= 1 and t >= 1, got s=3 t=0"),
    (phi_double_comet, (5, 0, 2),
     "phi_double_comet requires a, b >= 1 and n - a - b >= 2, got n=5 a=0 b=2"),
    (phi_double_comet, (5, 2, 2),
     "phi_double_comet requires a, b >= 1 and n - a - b >= 2, got n=5 a=2 b=2"),
    (phi_lollipop, (5, 1), "phi_lollipop requires d >= 2 and n - d >= 1, got n=5 d=1"),
    (phi_lollipop, (4, 4), "phi_lollipop requires d >= 2 and n - d >= 1, got n=4 d=4"),
])
def test_phi_domain_names_the_bounds(form, args, message):
    with pytest.raises(FormulaDomainError, match=f"^{re.escape(message)}$"):
        form(*args)


@pytest.mark.parametrize("form,args,family", [
    (imc_comet, (3, 4), "comet"),
    (imc_double_comet, (8, 2, 2), "double-comet"),
    (imc_double_comet_condensed, (8, 2, 2), "double-comet"),
    (imc_lollipop, (6, 4), "lollipop"),
])
def test_imc_refuses_a_class_of_another_family(form, args, family):
    foreign = NC.PATH_END if family == "comet" else NC.COMET_CENTER
    with pytest.raises(FormulaDomainError, match=f"^{foreign.value} is not a {family} node class$"):
        form(*args, foreign)
