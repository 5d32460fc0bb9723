"""Weyl group data, torus characters, and flag cohomology characters."""

from functools import lru_cache

import pytest

from confab.groups import decompose, format_decomposition
from confab.tables import conf_ab_table, shortcut_dims
from confab.torusconf import conf2_torus
from confab import weyl
from confab.weyl import (
    MAX_CLASSES,
    MAX_RANK,
    GradedCharacter,
    UnsupportedDatum,
    WeylDatum,
    _class_count,
    _datum,
    carried_factors,
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
from oracles import class_product, class_sum, values

TAGS = ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2")
LADDER = (
    "S1", "U2", "U3", "U4", "U5", "SU2", "SU3", "SU4", "SU5", "Sp1", "Sp2", "Sp3",
)


def dec_by_degree(d, gc):
    return {
        degree: format_decomposition(parts)
        for degree, parts in enumerate(decompose(gc, d.catalog))
        if parts
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
        # one object per group, however the tag is spelt
        assert datum("u2") is datum(" U2 ") is datum("U2")
        assert datum("s1 X sp02") is datum("S1xSp2")
        assert datum("s1 X sp02").tag == "S1xSp2"

    def test_datum_splits_each_tag_once(self, monkeypatch):
        # on a cold cache, as in a fresh process
        monkeypatch.setattr(
            weyl, "_datum", lru_cache(maxsize=None)(_datum.__wrapped__)
        )
        calls = []

        def counted(tag):
            calls.append(tag)
            return split_tag(tag)

        split_tag = weyl._split_tag
        monkeypatch.setattr(weyl, "_split_tag", counted)
        for tag in LADDER:
            assert datum(tag).tag == tag
        assert calls == list(LADDER)

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


CARRIED_UNDER_PAPER = {
    "U2": (False,),
    "S1": (False,),
    "S1xS1": (False, False),
    "S1xSU2": (True, False),
    "SU2xU1": (False, True),
    "U1xU1xSp2": (True, True, False),
}


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

    @pytest.mark.parametrize("tag", CARRIED_UNDER_PAPER)
    def test_carried_factors(self, tag):
        # only a trivial-Weyl factor beside a non-trivial one carries a class
        d, paper = datum(tag), CARRIED_UNDER_PAPER[tag]
        assert carried_factors(d, "paper") == paper
        assert carried_factors(d, "derived") == (False,) * len(paper)

    def test_carried_factors_refuses_an_unknown_convention(self):
        with pytest.raises(ValueError, match="^unknown convention 'x'$"):
            carried_factors(datum("S1xSU2"), "x")

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
    return GradedCharacter(group, ((1,),) * len(group.classes))


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
            terms = [
                class_product(values(flag.piece(i)), values(conf.piece(n - i)))
                for i in range(n + 1)
            ]
            expected = terms[0]
            for term in terms[1:]:
                expected = class_sum(expected, term)
            assert values(total.piece(n)) == expected, (tag, n)
        # the flag character vanishes in odd degrees unless a circle is
        # carried along, so its degrees have gaps
        for gc in (flag, conf, total):
            assert gc.degrees() == tuple(
                n for n in range(top + 2) if any(gc.piece(n).traces)
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
            assert type(trace) is tuple, (tag, trace)
            assert all(type(c) is int for c in trace), (tag, trace)


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


class TestClassBound:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_count_equals_the_enumeration_of_s_n(self, n):
        factors = [unitary(n)] + ([special_unitary(n)] if n >= 2 else [])
        for factor in factors:
            assert _class_count(n, False) == len(factor.group.classes)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_equals_the_enumeration_of_b_n(self, n):
        assert _class_count(n, True) == len(symplectic(n).group.classes)

    def test_bound_sits_between_u45_and_u46(self):
        # U45 and Sp24 still build; U46 and Sp25 are refused
        assert _class_count(45, False) == 89134 <= MAX_CLASSES
        assert _class_count(23, True) == 68150 <= MAX_CLASSES
        assert _class_count(24, True) == 94235 <= MAX_CLASSES
        assert _class_count(46, False) == 105558 > MAX_CLASSES
        assert _class_count(25, True) == 129512 > MAX_CLASSES
        # past the cap of 64 the count stays above the bound
        assert _class_count(10**9, False) > MAX_CLASSES

    @pytest.mark.parametrize(
        "tag", ["U46", "Sp25", "U30xU30", "U200", "SU60", "S1xU3xSp1000"]
    )
    def test_tag_refused_before_any_class_is_listed(self, tag, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes enumerated")

        monkeypatch.setattr(weyl, "_partitions", refuse)
        cached = _datum.cache_info().currsize
        with pytest.raises(UnsupportedDatum) as caught:
            datum(tag)
        assert str(caught.value) == (
            f"{tag!r} has more than 100000 Weyl group classes"
        )
        assert _datum.cache_info().currsize == cached

    def test_builders_refuse_before_listing_classes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes enumerated")

        monkeypatch.setattr(weyl, "_partitions", refuse)
        for build, n, group in (
            (unitary, 46, "S_46"),
            (special_unitary, 46, "S_46"),
            (symplectic, 25, "B_25"),
            (symplectic, 10**12, f"B_{10**12}"),
        ):
            with pytest.raises(UnsupportedDatum) as caught:
                build(n)
            assert str(caught.value) == (
                f"{group} has more than 100000 Weyl group classes"
            )

    def test_product_datum_refused_from_its_factor_counts(self):
        u20 = unitary(20)
        assert len(u20.group.classes) ** 2 > MAX_CLASSES
        with pytest.raises(UnsupportedDatum) as caught:
            WeylDatum((u20, u20))
        assert str(caught.value) == (
            "U20xU20 has more than 100000 Weyl group classes"
        )
        assert len(WeylDatum((u20, unitary(3))).group.classes) == 627 * 3


class TestRankBound:
    # the circle's Weyl group has one class, so no class bound stops
    # S1x...xS1; the rank bound does, before any factor is built

    def test_sixty_four_circles_build(self):
        table = conf_ab_table(datum("x".join(["S1"] * MAX_RANK)), 2)
        assert len(table.rows) == 2 * MAX_RANK
        euler = sum((-1) ** row.degree * row.dimension for row in table.rows)
        assert euler == 0

    @pytest.mark.parametrize(
        "tag",
        ["x".join(["S1"] * 65), "x".join(["U45"] + ["S1"] * 20)],
        ids=["S1^65", "U45xS1^20"],
    )
    def test_tag_refused_before_any_class_is_listed(self, tag, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes enumerated")

        monkeypatch.setattr(weyl, "_partitions", refuse)
        cached = _datum.cache_info().currsize
        with pytest.raises(UnsupportedDatum) as caught:
            datum(tag)
        assert str(caught.value) == f"{tag!r} has torus rank more than 64"
        assert _datum.cache_info().currsize == cached

    def test_product_datum_refused_from_its_factor_ranks(self):
        with pytest.raises(UnsupportedDatum) as caught:
            WeylDatum([circle()] * 65)
        assert str(caught.value) == (
            "x".join(["S1"] * 65) + " has torus rank more than 64"
        )
