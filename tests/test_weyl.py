"""Weyl group data, torus characters, and flag cohomology characters."""

import pytest

from confab.exact import RationalPolynomial
from confab.groups import decompose, format_decomposition
from confab.tables import conf_ab_table, shortcut_dims
from confab.torusconf import conf2_torus
from confab.weyl import (
    GradedCharacter,
    UnsupportedDatum,
    circle,
    datum,
    flag_character,
    invariant_dims,
    kunneth,
    parse_tag,
    special_unitary,
    symplectic,
    torus_character,
    unitary,
)

TAGS = ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2")
LADDER = (
    "S1", "U2", "U3", "U4", "U5", "SU2", "SU3", "SU4", "SU5", "Sp1", "Sp2", "Sp3",
)


def dec_by_degree(d, gc):
    return {
        degree: format_decomposition(decompose(gc.piece(degree), d.catalog))
        for degree in gc.degrees()
    }


class TestFactors:
    def test_degrees_multiply_to_group_order(self):
        for factor in (unitary(2), unitary(3), special_unitary(3),
                       symplectic(1), symplectic(2)):
            product = 1
            for degree in factor.degrees:
                product *= degree
            assert product == factor.group.order

    def test_circle_has_no_reflections(self):
        factor = circle()
        assert factor.rank == 1
        assert factor.group.order == 1
        assert factor.pi1_rank == 1

    def test_symplectic_weyl_group(self):
        assert symplectic(2).group.order == 8
        assert symplectic(1).group.order == 2

    def test_special_unitary_root_rank(self):
        factor = special_unitary(3)
        assert factor.rank == 2
        assert factor.group.order == 6

    def test_parse_tag(self):
        factors = parse_tag("S1xSU2")
        assert factors == (circle(), special_unitary(2))
        assert parse_tag("U2")[0].rank == 2
        with pytest.raises(UnsupportedDatum):
            parse_tag("E8")
        with pytest.raises(UnsupportedDatum):
            parse_tag("")

    def test_datum_is_cached(self):
        assert datum("U2") is datum("U2")

    def test_datum_rank_and_pi1(self):
        ranks = {tag: datum(tag).rank for tag in TAGS}
        assert ranks == {"S1xS1": 2, "U2": 2, "S1xSU2": 2, "SU3": 2, "Sp2": 2}
        pi1 = {tag: datum(tag).pi1_rank for tag in TAGS}
        assert pi1 == {"S1xS1": 2, "U2": 1, "S1xSU2": 1, "SU3": 0, "Sp2": 0}


class TestTorusCharacter:
    def test_u2_torus(self):
        d = datum("U2")
        gc = torus_character(d)
        assert gc.dims() == {0: 1, 1: 2, 2: 1}
        assert dec_by_degree(d, gc) == {0: "1", 1: "1 ⊕ σ", 2: "σ"}

    def test_su3_torus(self):
        d = datum("SU3")
        gc = torus_character(d)
        assert dec_by_degree(d, gc) == {0: "1", 1: "std", 2: "sgn"}

    def test_sp2_torus(self):
        d = datum("Sp2")
        gc = torus_character(d)
        assert dec_by_degree(d, gc) == {0: "1", 1: "d", 2: "c"}

    def test_total_dimension_is_two_to_rank(self):
        for tag in TAGS:
            assert torus_character(datum(tag)).total_dim() == 4


class TestFlagCharacter:
    def test_u2_flag(self):
        d = datum("U2")
        gc = flag_character(d)
        assert dec_by_degree(d, gc) == {0: "1", 2: "σ"}

    def test_su3_flag(self):
        d = datum("SU3")
        gc = flag_character(d)
        assert dec_by_degree(d, gc) == {0: "1", 2: "std", 4: "std", 6: "sgn"}

    def test_sp2_flag(self):
        d = datum("Sp2")
        gc = flag_character(d)
        assert dec_by_degree(d, gc) == {
            0: "1", 2: "d", 4: "a ⊕ b", 6: "d", 8: "c",
        }

    def test_mixed_product_conventions_differ(self):
        d = datum("S1xSU2")
        derived = flag_character(d, "derived")
        paper = flag_character(d, "paper")
        assert dec_by_degree(d, derived) == {0: "1", 2: "σ"}
        assert dec_by_degree(d, paper) == {0: "1", 1: "1", 2: "σ", 3: "σ"}

    def test_pure_torus_flag_is_a_point_in_both_conventions(self):
        d = datum("S1xS1")
        for convention in ("derived", "paper"):
            assert flag_character(d, convention).dims() == {0: 1}

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            flag_character(datum("U2"), "folklore")

    def test_flag_dims_are_palindromic(self):
        for tag in TAGS:
            for convention in ("derived", "paper"):
                gc = flag_character(datum(tag), convention)
                dims = gc.dims()
                assert all(
                    dims[degree] == dims[gc.top - degree] for degree in dims
                )

    def test_flag_total_dim_is_weyl_order(self):
        for tag in ("U2", "SU3", "Sp2"):
            d = datum(tag)
            assert flag_character(d, "derived").total_dim() == d.group.order


def unit(group):
    """The graded character of a point: trace 1 in degree 0 on every class."""
    one = RationalPolynomial.one()
    return GradedCharacter(group, (one,) * len(group.classes))


class TestKunneth:
    def test_unit(self):
        d = datum("U2")
        gc = torus_character(d)
        assert kunneth(unit(d.group), gc) == gc

    def test_commutative_and_associative(self):
        d = datum("U2")
        a = torus_character(d)
        b = flag_character(d)
        c = unit(d.group)
        assert kunneth(a, b) == kunneth(b, a)
        assert kunneth(kunneth(a, b), c) == kunneth(a, kunneth(b, c))

    def test_dims_convolve(self):
        d = datum("U2")
        a = torus_character(d)
        square = kunneth(a, a)
        dims = square.dims()
        assert dims[2] == 2 * 1 * 1 + 2 * 2
        assert square.total_dim() == 16

    @pytest.mark.parametrize("tag", LADDER + ("U2xU2", "S1xSU2xSp1"))
    def test_pieces_convolve(self, tag):
        # the degree-n piece of a tensor product is the sum over i + j = n
        # of the products of the degree-i and degree-j pieces
        d = datum(tag)
        flag, conf = flag_character(d), conf2_torus(d)
        total = kunneth(flag, conf)
        top = flag.top + conf.top
        for n in range(top + 2):
            expected = flag.piece(0) * conf.piece(n)
            for i in range(1, n + 1):
                expected = expected + flag.piece(i) * conf.piece(n - i)
            assert total.piece(n) == expected, (tag, n)
        # the flag character vanishes in odd degrees unless a circle is
        # carried along, so its degrees have gaps
        for gc in (flag, conf, total):
            assert gc.degrees() == tuple(
                n for n in range(top + 2) if not gc.piece(n).is_zero()
            )


class TestInvariants:
    def test_torus_invariants(self):
        # invariant forms on the torus: one per exterior degree for the
        # pure torus, only top and bottom for U2
        assert invariant_dims(torus_character(datum("S1xS1"))) == {
            0: 1, 1: 2, 2: 1,
        }
        assert invariant_dims(torus_character(datum("U2"))) == {
            0: 1, 1: 1, 2: 0,
        }
        assert invariant_dims(torus_character(datum("Sp2"))) == {
            0: 1, 1: 0, 2: 0,
        }

    def test_flag_invariants_are_bottom_only(self):
        gc = flag_character(datum("Sp2"))
        inv = invariant_dims(gc)
        assert inv[0] == 1
        assert all(inv[degree] == 0 for degree in inv if degree > 0)


@pytest.mark.parametrize("tag", LADDER + ("U2xU2", "S1xSU2xSp1"))
def test_character_values_are_ints(tag):
    # integer-valued characters are stored as int, never Fraction or float
    d = datum(tag)
    characters = (
        torus_character(d),
        flag_character(d, "derived"),
        flag_character(d, "paper"),
        conf2_torus(d),
    )
    for gc in characters:
        for trace in gc.traces:
            assert all(type(c) is int for c in trace.coeffs), (tag, trace)


@pytest.mark.parametrize("convention", ("derived", "paper"))
@pytest.mark.parametrize("tag", ("S1xSU2", "S1xS1", "S1xU3", "S1xSU2xSp1"))
def test_u1_in_place_of_s1_changes_no_table(tag, convention):
    # the paper convention carries a degree-1 class for every factor with a
    # trivial Weyl group, whichever tag names it
    s1, u1 = datum(tag), datum(tag.replace("S1", "U1"))
    assert conf_ab_table(u1, 2, convention).dims() == conf_ab_table(
        s1, 2, convention
    ).dims()
    assert shortcut_dims(u1, 2, convention) == shortcut_dims(
        s1, 2, convention
    )
