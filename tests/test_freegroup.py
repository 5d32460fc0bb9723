"""Cohomology of the free group on two generators with module coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confab.exact import QMatrix, det
from confab.freegroup import (
    FreeGroupModule,
    InvariantViolation,
    MalformedWord,
    abelianized_matrix,
    abelianized_relation_rows,
    contragredient,
    coordinate_quotient,
    fixed_space_dim,
    h1_f2,
    parse_word,
)


class TestWords:
    def test_parse(self):
        assert parse_word("a b^-1 a^2", ("a", "b")) == (
            (0, 1), (1, -1), (0, 2),
        )

    def test_unknown_generator(self):
        with pytest.raises(MalformedWord):
            parse_word("a c", ("a", "b"))

    def test_bad_token(self):
        with pytest.raises(MalformedWord):
            parse_word("a^x", ("a",))

    def test_abelianized_matrix_columns_are_images(self):
        m = abelianized_matrix(
            ("a", "b"), {"a": "a b^2", "b": "b^-1"}
        )
        assert m == QMatrix.from_rows([[1, 0], [2, -1]])

    def test_missing_image_rejected(self):
        with pytest.raises(MalformedWord):
            abelianized_matrix(("a", "b"), {"a": "a"})

    def test_commutator_abelianizes_to_zero(self):
        rows = abelianized_relation_rows(("a", "b"), ("a b a^-1 b^-1",))
        assert rows == [(Fraction(0), Fraction(0))]


class TestCoordinateQuotient:
    def test_relations_eliminate_highest_coordinate(self):
        # e2 = e0 kills coordinate 2, keeping the earliest coordinates
        quotient = coordinate_quotient(3, [(1, 0, -1)])
        assert quotient.dim == 2
        assert quotient.survivors == (0, 1)
        assert quotient.projection.apply((0, 0, 1)) == (
            Fraction(1), Fraction(0),
        )

    def test_induced_operator(self):
        quotient = coordinate_quotient(2, [(0, 1)])
        doubling = QMatrix.from_rows([[2, 0], [0, 3]])
        induced = quotient.induced(doubling)
        assert induced == QMatrix.from_rows([[2]])

    def test_induced_requires_invariance(self):
        quotient = coordinate_quotient(2, [(0, 1)])
        rotate = QMatrix.from_rows([[0, -1], [1, 0]])
        with pytest.raises(InvariantViolation):
            quotient.induced(rotate)


class TestModules:
    def test_involution_must_square_to_identity(self):
        eye = QMatrix.identity(2)
        shear = QMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(InvariantViolation):
            FreeGroupModule(eye, eye, shear)

    def test_involution_must_intertwine(self):
        a = QMatrix.from_rows([[1, 1], [0, 1]])
        b = QMatrix.identity(2)
        swap = QMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(InvariantViolation):
            FreeGroupModule(a, b, swap)

    def test_trivial_module(self):
        # trivial action: every map is a cocycle, none is a coboundary
        eye = QMatrix.identity(3)
        module = FreeGroupModule(eye, eye)
        result = h1_f2(module)
        assert result.dim == 6
        assert fixed_space_dim(module) == 3

    def test_euler_identity_on_trivial_module(self):
        eye = QMatrix.identity(4)
        module = FreeGroupModule(eye, eye)
        assert h1_f2(module).dim == module.dim + fixed_space_dim(module)


entries = st.integers(min_value=-2, max_value=2).map(Fraction)


def invertible_matrices(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(QMatrix.from_rows).filter(lambda m: det(m) != 0)


@given(
    data=st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(invertible_matrices(n), invertible_matrices(n))
    )
)
@settings(deadline=None, max_examples=40)
def test_euler_identity(data):
    # dim H^1 = dim M + dim M^{F_2} for any module over the free group
    a, b = data
    module = FreeGroupModule(a, b)
    assert h1_f2(module).dim == module.dim + fixed_space_dim(module)


def test_contragredient_is_inverse_transpose():
    m = QMatrix.from_rows([[1, 1], [0, 1]])
    assert contragredient(m) == QMatrix.from_rows([[1, 0], [-1, 1]])
    assert contragredient(contragredient(m)) == m
