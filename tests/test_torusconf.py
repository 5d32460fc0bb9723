"""Configuration spaces of tori, circles, and SU2."""

from math import factorial

import pytest

from confab.freegroup import abelianized_matrix, contragredient, h1_f2
from confab.groups import decompose, format_decomposition
from confab.torusconf import (
    ALPHA_FIBER,
    FIBER_GENERATORS,
    MONODROMY_H,
    MONODROMY_V,
    circle_conf,
    conf2_torus,
    conf2_torus_minus_point_rank2,
    conf3_torus_rank2,
    su2_conf,
)
from confab.weyl import (
    GradedCharacter,
    UnsupportedDatum,
    datum,
    flag_character,
    invariant_dims,
    kunneth,
)
from oracles import fixed_space_dim, identity, matmul


def dec_by_degree(d, gc):
    return {
        degree: format_decomposition(parts)
        for degree, parts in enumerate(decompose(gc, d.catalog))
        if parts
    }


class TestMonodromy:
    def test_abelianized_loop_actions(self):
        a_h = abelianized_matrix(FIBER_GENERATORS, MONODROMY_H)
        a_v = abelianized_matrix(FIBER_GENERATORS, MONODROMY_V)
        assert a_h == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
        assert a_v == [[1, 0, 0], [0, 1, 0], [-1, 0, 1]]

    def test_involution_intertwines_the_loops(self):
        a_h = abelianized_matrix(FIBER_GENERATORS, MONODROMY_H)
        a_v = abelianized_matrix(FIBER_GENERATORS, MONODROMY_V)
        alpha = abelianized_matrix(FIBER_GENERATORS, ALPHA_FIBER)
        assert matmul(alpha, alpha) == identity(3)
        assert matmul(alpha, a_h) == matmul(a_v, alpha)

    def test_top_cohomology_of_punctured_pairs(self):
        # H^1 of the free group on the base loops, dual coefficients
        a_h = abelianized_matrix(FIBER_GENERATORS, MONODROMY_H)
        a_v = abelianized_matrix(FIBER_GENERATORS, MONODROMY_V)
        alpha = abelianized_matrix(FIBER_GENERATORS, ALPHA_FIBER)
        a, b = contragredient(a_h), contragredient(a_v)
        dim, trace = h1_f2(a, b, contragredient(alpha))
        assert dim == 5
        assert trace == 1
        # independent count: dim M + dim of the simultaneous fixed space
        assert fixed_space_dim(a, b) == 2
        assert dim == len(a) + fixed_space_dim(a, b)


class TestPuncturedTorusPairs:
    def test_graded_decomposition(self):
        d = datum("U2")
        gc = conf2_torus_minus_point_rank2(d)
        assert dec_by_degree(d, gc) == {
            0: "1",
            1: "2 ⊕ 2σ",
            2: "3 ⊕ 2σ",
        }

    def test_euler_characteristic(self):
        gc = conf2_torus_minus_point_rank2(datum("U2"))
        dims = gc.dims()
        assert (dims[0], dims[1], dims[2]) == (1, 4, 5)
        assert dims[0] - dims[1] + dims[2] == 2

    def test_rejects_other_data(self):
        for tag in ("S1xS1", "S1xSU2", "SU3", "Sp2"):
            with pytest.raises(UnsupportedDatum):
                conf2_torus_minus_point_rank2(datum(tag))


class TestTorusPairs:
    def test_u2_decomposition(self):
        d = datum("U2")
        assert dec_by_degree(d, conf2_torus(d)) == {
            0: "1",
            1: "2 ⊕ 2σ",
            2: "2 ⊕ 3σ",
            3: "1 ⊕ σ",
        }

    def test_sp2_decomposition(self):
        d = datum("Sp2")
        assert dec_by_degree(d, conf2_torus(d)) == {
            0: "1",
            1: "2d",
            2: "1 ⊕ a ⊕ b ⊕ 2c",
            3: "d",
        }

    def test_total_dimension(self):
        # pairs in a rank-r torus always total 2^r (r+1)
        for tag in ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2"):
            assert conf2_torus(datum(tag)).total_dim() == 12


class TestTorusTriples:
    def test_u2_triples(self):
        d = datum("U2")
        assert dec_by_degree(d, conf3_torus_rank2(d)) == {
            0: "1",
            1: "3 ⊕ 3σ",
            2: "7 ⊕ 7σ",
            3: "7 ⊕ 7σ",
            4: "2 ⊕ 3σ",
        }

    def test_rejects_non_swap_data(self):
        with pytest.raises(UnsupportedDatum):
            conf3_torus_rank2(datum("Sp2"))


class TestCircle:
    def test_component_counts(self):
        for k in range(2, 9):
            summary = circle_conf(k)
            assert summary.components == factorial(k - 1)
            assert summary.betti == (summary.components, summary.components)

    def test_reflection_fixed_points(self):
        assert circle_conf(2).reflection_fixed == 1
        for k in range(3, 9):
            assert circle_conf(k).reflection_fixed == 0

    def test_orbit_counts(self):
        assert circle_conf(2).reflection_orbits == 1
        for k in range(3, 9):
            assert circle_conf(k).reflection_orbits == factorial(k - 1) // 2

    def test_closed_form_agrees_with_enumeration_at_boundary(self):
        # k = 8 is enumerated, k = 9 uses the closed form; both must obey
        # the same formulas
        eight = circle_conf(8)
        nine = circle_conf(9)
        assert eight.components == factorial(7)
        assert nine.components == factorial(8)
        assert eight.reflection_orbits == eight.components // 2
        assert nine.reflection_orbits == nine.components // 2
        assert nine.reflection_fixed == 0

    def test_needs_two_points(self):
        with pytest.raises(UnsupportedDatum):
            circle_conf(1)


class TestSU2:
    def test_single_element(self):
        # one element of SU2 commutes with itself: the whole group, a sphere
        assert su2_conf(1).betti == (1, 0, 0, 1)
        assert su2_conf(1).components == 1

    def test_pairs(self):
        assert su2_conf(2).betti == (1, 0, 0, 1)
        assert su2_conf(2).components == 1

    def test_higher_tuples(self):
        for k in range(3, 9):
            summary = su2_conf(k)
            count = factorial(k - 1) // 2
            assert summary.components == count
            assert summary.betti == (count, count, count, count)

    def test_needs_a_point(self):
        with pytest.raises(UnsupportedDatum):
            su2_conf(0)


def rank1_conf(d, k):
    """The graded character of Conf_k(S^1), k >= 2, under a rank-1 Weyl group.

    The space is (k - 1)! circles, so the identity has trace
    (k - 1)! (1 + t).  The inversion fixes the one component at k = 2,
    reversing its circle (trace 1 - t), and permutes the rest freely.
    """
    identity = (factorial(k - 1), factorial(k - 1))
    inversion = (1, -1) if k == 2 else ()
    traces = (identity, inversion)[: len(d.group.classes)]
    return GradedCharacter(d.group, traces)


@pytest.mark.parametrize("k", range(2, 9))
def test_rank1_summaries_against_the_character_route(k):
    # the flag tensor the Conf_k(S^1) character, averaged over the Weyl
    # group, against the closed forms of circle_conf and su2_conf
    for tag, expected in (
        ("SU2", su2_conf(k).betti),
        ("Sp1", su2_conf(k).betti),
        ("S1", circle_conf(k).betti),
        ("U1", circle_conf(k).betti),
    ):
        d = datum(tag)
        total = kunneth(flag_character(d), rank1_conf(d, k))
        assert tuple(invariant_dims(total).values()) == expected, tag
