"""Square-zero graded-commutative presentations and fixed subrings."""

from fractions import Fraction
from inspect import signature

import pytest
from hypothesis import given, settings, strategies as st

from confab.rings import (
    NotInvolution,
    RingPresentation,
    apply_images,
    broken_relation,
    element_degree,
    element_from_terms,
    element_product,
    generator_images,
    hilbert_series,
    invariant_subring_dims,
    monomial_basis,
    normalize_product,
    span_dims,
)
from confab.tables import (
    _unordered_model,
    conf2_ring,
    conf2_ring_involution,
    unordered_conf2_dims,
    unordered_conf2_ring,
)
from confab.weyl import UnsupportedDatum, _datum, datum

# every function that reads a ring tag's record with a convention
RING_BUILDERS = {
    "conf2_ring": conf2_ring,
    "unordered_conf2_ring": unordered_conf2_ring,
    "_unordered_model": _unordered_model,
    "unordered_conf2_dims": lambda tag, convention: unordered_conf2_dims(
        datum(tag), convention
    ),
}


def exterior(*degrees):
    return RingPresentation(
        tuple((f"g{i}", d) for i, d in enumerate(degrees))
    )


class TestNormalization:
    def test_repeated_generator_vanishes(self):
        pres = exterior(1, 1)
        assert normalize_product(pres, (0, 0)) is None

    def test_odd_generators_anticommute(self):
        pres = exterior(1, 1)
        sign, mono = normalize_product(pres, (1, 0))
        assert (sign, mono) == (-1, (0, 1))

    def test_even_generator_commutes(self):
        pres = exterior(2, 1)
        sign, mono = normalize_product(pres, (1, 0))
        assert (sign, mono) == (1, (0, 1))

    def test_forbidden_pair_vanishes(self):
        pres = RingPresentation(
            (("z", 1), ("w", 1)), (("z", "w"),)
        )
        assert normalize_product(pres, (0, 1)) is None
        assert normalize_product(pres, (1, 0)) is None


class TestSeries:
    def test_pure_exterior(self):
        assert hilbert_series(exterior(1, 1)) == (1, 2, 1)

    def test_pair_ring_series(self):
        assert hilbert_series(conf2_ring("U2")) == (1, 2, 2, 3, 3, 1)

    def test_pair_ring_degree_four_basis(self):
        ring = conf2_ring("U2")
        basis = monomial_basis(ring)[4]
        labels = {
            "".join(ring.generators[i][0] for i in mono) for mono in basis
        }
        assert labels == {"b1e3", "b1f3", "c1e3"}

    @given(
        degrees=st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=5
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_exterior_series_is_a_product(self, degrees):
        # all generators square to zero, so the series is prod (1 + q^d)
        expected = [1]
        for d in degrees:
            longer = expected + [0] * d
            for i, c in enumerate(expected):
                longer[i + d] += c
            expected = longer
        assert hilbert_series(exterior(*degrees)) == tuple(expected)

    @given(
        degrees=st.lists(
            st.integers(min_value=1, max_value=4), min_size=2, max_size=5
        ),
        seed=st.randoms(use_true_random=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_series_invariant_under_generator_order(self, degrees, seed):
        shuffled = list(enumerate(degrees))
        seed.shuffle(shuffled)
        original = exterior(*degrees)
        renamed = RingPresentation(
            tuple((f"g{i}", d) for i, d in shuffled)
        )
        assert hilbert_series(original) == hilbert_series(renamed)


class TestElements:
    def test_product_collects_signs(self):
        pres = exterior(1, 1)
        a = element_from_terms(pres, ((1, ("g0",)), (1, ("g1",))))
        square = element_product(pres, a, a)
        # (x + y)^2 = xy + yx = 0 for odd generators
        assert square == {}

    def test_degree_of_homogeneous(self):
        pres = exterior(1, 2)
        el = element_from_terms(pres, ((2, ("g0", "g1")),))
        assert element_degree(pres, el) == 3

    def test_degree_rejects_mixed(self):
        pres = exterior(1, 2)
        el = element_from_terms(pres, ((1, ("g0",)), (1, ("g1",))))
        with pytest.raises(ValueError):
            element_degree(pres, el)


class TestAutomorphisms:
    def test_apply_is_multiplicative(self):
        ring = conf2_ring("U2")
        alpha = generator_images(ring, ring, conf2_ring_involution("U2"))
        b1 = element_from_terms(ring, ((1, ("b1",)),))
        e3 = element_from_terms(ring, ((1, ("e3",)),))
        product = element_product(ring, b1, e3)
        assert apply_images(ring, alpha, product) == element_product(
            ring, apply_images(ring, alpha, b1), apply_images(ring, alpha, e3)
        )

    def test_a_generator_without_an_entry_keeps_its_label(self):
        source = RingPresentation((("x", 1), ("y", 2)))
        target = RingPresentation((("w", 1), ("y", 2), ("x", 1)))
        images = generator_images(source, target, {})
        assert images == [{(2,): 1}, {(1,): 1}]

    def test_degree_preservation_enforced(self):
        pres = exterior(1, 2)
        with pytest.raises(
            ValueError, match="^image of g0 is not homogeneous of degree 1$"
        ):
            generator_images(pres, pres, {"g0": ((1, ("g1",)),)})

    def test_an_embedding_image_of_the_wrong_degree_is_rejected(self):
        # b1 is a degree-1 class of the pair ring; x1 z1 has degree 2
        model, _, _ = _unordered_model("U2", "derived")
        embedding = {"b1": ((1, ("x1",)), (1, ("x1", "z1")))}
        with pytest.raises(
            ValueError, match="^image of b1 is not homogeneous of degree 1$"
        ):
            generator_images(conf2_ring("U2"), model, embedding)

    def test_a_missing_target_label_is_named(self):
        # without an entry b1 maps to the model's b1, which it lacks
        model, _, _ = _unordered_model("U2", "derived")
        with pytest.raises(
            ValueError, match="^unknown generator label 'b1'$"
        ):
            generator_images(conf2_ring("U2"), model, {})

    def test_an_unknown_label_in_a_term_is_named(self):
        with pytest.raises(
            ValueError, match="^unknown generator label 'g9'$"
        ):
            element_from_terms(exterior(1, 2), ((1, ("g0", "g9")),))

    def test_image_of_a_non_generator_rejected(self):
        pres = RingPresentation((("x1", 1),))
        typo = {"x1": ((-1, ("x1",)),), "zz": ((1, ("x1",)),)}
        with pytest.raises(
            ValueError, match="^image given for non-generator 'zz'$"
        ):
            invariant_subring_dims(pres, (typo,))

    def test_fixed_subring_of_pair_ring(self):
        dims = invariant_subring_dims(
            conf2_ring("U2"), (conf2_ring_involution("U2"),)
        )
        assert dims == (1, 1, 0, 1, 1, 0)

    def test_fixed_vectors_are_where_expected(self):
        # degree 1: 2 b1 + c1 spans the fixed line
        ring = conf2_ring("U2")
        alpha = generator_images(ring, ring, conf2_ring_involution("U2"))
        candidate = element_from_terms(
            ring, ((2, ("b1",)), (1, ("c1",)))
        )
        assert apply_images(ring, alpha, candidate) == candidate

    def test_non_involution_rejected(self):
        pres = exterior(1)
        doubling = {"g0": ((2, ("g0",)),)}
        with pytest.raises(NotInvolution, match="twice moves g0"):
            invariant_subring_dims(pres, (doubling,))

    def test_images_that_break_a_relation_are_rejected(self):
        # a -> a + c, c -> -c is an involution on generators, but
        # (a + c) b = -bc is not zero although ab = 0
        pres = RingPresentation(
            (("a", 1), ("b", 1), ("c", 1)), (("a", "b"),)
        )
        shear = {"a": ((1, ("a",)), (1, ("c",))), "c": ((-1, ("c",)),)}
        with pytest.raises(NotInvolution, match=r"a\*b to 0"):
            invariant_subring_dims(pres, (shear,))

    def test_an_even_generator_must_square_to_zero(self):
        pres = RingPresentation((("x", 2), ("y", 2)))
        shear = {"x": ((1, ("x",)), (1, ("y",)))}
        images = generator_images(pres, pres, shear)
        # (x + y)^2 = 2xy
        assert broken_relation(pres, pres, images) == "x*x"
        assert broken_relation(pres, pres, [{(0,): 1}, {(1,): 1}]) is None

    def test_non_commuting_involutions_rejected(self):
        # together they generate an infinite group, whose joint fixed line
        # g0 the count by spans would miss
        pres = exterior(1, 1)
        shear = {"g1": ((1, ("g0",)), (-1, ("g1",)))}
        flip = {"g1": ((-1, ("g1",)),)}
        assert invariant_subring_dims(pres, (shear,)) == (1, 1, 0)
        assert invariant_subring_dims(pres, (flip,)) == (1, 1, 0)
        with pytest.raises(NotInvolution, match="do not commute on g1"):
            invariant_subring_dims(pres, (shear, flip))

    def test_spans_count_each_degree(self):
        pres = exterior(1, 1)
        g0, g1 = {(0,): 1}, {(1,): 1}
        double = {(0,): 2}
        top = element_product(pres, g0, g1)
        assert span_dims(pres, (g0, double, top, {})) == (0, 1, 1)
        assert span_dims(pres, (g0, g1, double)) == (0, 2)
        assert span_dims(pres, ()) == ()


class TestPayload:
    def test_payload_shape(self):
        pres = RingPresentation(
            (("z", 1), ("w", 1)), (("z", "w"),)
        )
        payload = pres.to_payload()
        assert payload == {
            "generators": [
                {"label": "z", "degree": 1},
                {"label": "w", "degree": 1},
            ],
            "forbidden": [["z", "w"]],
        }


class TestRingTags:
    @pytest.mark.parametrize("tag", ["U60", "Sp20"])
    def test_refused_before_any_weyl_class_is_built(self, tag):
        # U60 alone has about a million classes; the spelling decides
        cached = _datum.cache_info().currsize
        with pytest.raises(UnsupportedDatum) as caught:
            conf2_ring(tag)
        assert str(caught.value) == (
            f"ring presentations cover U2 and S1xSU2, not {tag}"
        )
        assert _datum.cache_info().currsize == cached

    @pytest.mark.parametrize("name", RING_BUILDERS)
    def test_every_ring_function_refuses_an_unknown_tag(self, name):
        with pytest.raises(UnsupportedDatum) as caught:
            RING_BUILDERS[name]("Sp2", "derived")
        assert str(caught.value) == (
            "ring presentations cover U2 and S1xSU2, not Sp2"
        )

    @pytest.mark.parametrize("name", RING_BUILDERS)
    @pytest.mark.parametrize("tag", ["U2", "S1xSU2"])
    def test_every_ring_function_refuses_an_unknown_convention(
        self, name, tag
    ):
        with pytest.raises(ValueError, match="^unknown convention 'x'$"):
            RING_BUILDERS[name](tag, "x")

    def test_the_point_swap_takes_only_the_tag(self):
        # one map serves both conventions: it fixes the carried a1
        assert list(signature(conf2_ring_involution).parameters) == ["tag"]
        ring = conf2_ring("S1xSU2", "paper")
        swap = generator_images(ring, ring, conf2_ring_involution("S1xSU2"))
        assert ring.labels[0] == "a1"
        assert swap[0] == {(0,): 1}
        with pytest.raises(UnsupportedDatum, match="not Sp2$"):
            conf2_ring_involution("Sp2")

    @pytest.mark.parametrize(
        "tag, canonical", [(" u2 ", "U2"), ("s1 X su2", "S1xSU2")]
    )
    def test_any_spelling_of_a_ring_tag_is_accepted(self, tag, canonical):
        for convention in ("derived", "paper"):
            assert conf2_ring(tag, convention) == conf2_ring(
                canonical, convention
            )
            assert unordered_conf2_ring(tag, convention) == (
                unordered_conf2_ring(canonical, convention)
            )
