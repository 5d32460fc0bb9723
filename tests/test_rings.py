"""Square-zero graded-commutative presentations and fixed subrings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confab.rings import (
    GeneratorAutomorphism,
    NotInvolution,
    RingPresentation,
    element_degree,
    element_from_terms,
    element_product,
    hilbert_series,
    invariant_subring_dims,
    monomial_basis,
    normalize_product,
)
from confab.tables import conf2_ring, conf2_ring_involution


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
        alpha = conf2_ring_involution("U2")
        b1 = element_from_terms(ring, ((1, ("b1",)),))
        e3 = element_from_terms(ring, ((1, ("e3",)),))
        product = element_product(ring, b1, e3)
        assert alpha.apply(ring, product) == element_product(
            ring, alpha.apply(ring, b1), alpha.apply(ring, e3)
        )

    def test_degree_preservation_enforced(self):
        pres = exterior(1, 2)
        bad = GeneratorAutomorphism.build({"g0": ((1, "g1"),)})
        with pytest.raises(ValueError):
            bad.generator_images(pres)

    def test_image_of_a_non_generator_rejected(self):
        pres = RingPresentation((("x1", 1),))
        typo = GeneratorAutomorphism.build(
            {"x1": ((-1, "x1"),), "zz": ((1, "x1"),)}
        )
        with pytest.raises(ValueError, match="'zz'"):
            invariant_subring_dims(pres, (typo,))

    def test_fixed_subring_of_pair_ring(self):
        dims = invariant_subring_dims(
            conf2_ring("U2"), (conf2_ring_involution("U2"),)
        )
        assert dims == (1, 1, 0, 1, 1, 0)

    def test_fixed_vectors_are_where_expected(self):
        # degree 1: 2 b1 + c1 spans the fixed line
        ring = conf2_ring("U2")
        alpha = conf2_ring_involution("U2")
        candidate = element_from_terms(
            ring, ((2, ("b1",)), (1, ("c1",)))
        )
        assert alpha.apply(ring, candidate) == candidate

    def test_non_involution_rejected(self):
        pres = exterior(1)
        doubling = GeneratorAutomorphism.build({"g0": ((2, "g0"),)})
        with pytest.raises(NotInvolution):
            invariant_subring_dims(pres, (doubling,))


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
