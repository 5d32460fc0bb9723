"""Exact linear algebra and polynomial kernel."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from confab.exact import (
    NonZeroRemainder,
    QMatrix,
    RationalPolynomial,
    Singular,
    char_matrix_poly,
    det,
    inverse,
    kernel_basis,
    poly_div_exact,
    rank,
    rref,
)


def poly(*coeffs):
    return RationalPolynomial(tuple(Fraction(c) for c in coeffs))


def cofactor_det(matrix):
    """Independent determinant: sum over permutations with sign."""
    n = matrix.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if seen[i] > seen[j]
        )
        sign = -1 if inversions % 2 else 1
        product = Fraction(1)
        for i in range(n):
            product *= matrix.entry(i, perm[i])
        total += sign * product
    return total


entries = st.integers(min_value=-4, max_value=4).map(Fraction)


def square_matrices(max_size=4):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(QMatrix.from_rows)
    )


def rect_matrices(max_size=5):
    return st.tuples(
        st.integers(min_value=1, max_value=max_size),
        st.integers(min_value=1, max_value=max_size),
    ).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(QMatrix.from_rows)
    )


small_polys = st.lists(entries, min_size=1, max_size=5).map(
    lambda c: RationalPolynomial(tuple(c))
)


class TestPolynomials:
    def test_division_oracle_two_factors(self):
        # (1-q)(1-q^2) / (1-q)^2 = 1 + q
        num = poly(1, -1) * poly(1, 0, -1)
        den = poly(1, -1) * poly(1, -1)
        assert poly_div_exact(num, den) == poly(1, 1)

    def test_division_oracle_rank_two(self):
        # (1-q^2)(1-q^4) / (1-q)^2 = 1 + 2q + 2q^2 + 2q^3 + q^4
        num = poly(1, 0, -1) * poly(1, 0, 0, 0, -1)
        den = poly(1, -1) * poly(1, -1)
        assert poly_div_exact(num, den) == poly(1, 2, 2, 2, 1)

    def test_division_remainder_rejected(self):
        with pytest.raises(NonZeroRemainder):
            poly_div_exact(poly(1, 1, 1), poly(1, 1))

    def test_str_form(self):
        assert str(poly(1, 2, 1)) == "1 + 2*q + q^2"
        assert str(poly(0)) == "0"

    @given(a=small_polys, b=small_polys)
    @settings(deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        if b.is_zero():
            return
        assert poly_div_exact(a * b, b) == a

    @given(a=small_polys, b=small_polys)
    @settings(deadline=None)
    def test_evaluate_is_multiplicative(self, a, b):
        q = Fraction(3, 2)
        assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)


class TestElimination:
    def test_rank_and_kernel_fixed(self):
        m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert rank(m) == 2
        basis = kernel_basis(m)
        assert len(basis) == 1
        for vec in basis:
            image = m.apply(vec)
            assert all(x == 0 for x in image)

    @given(m=rect_matrices())
    @settings(deadline=None)
    def test_rank_plus_nullity(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @given(m=rect_matrices())
    @settings(deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for vec in kernel_basis(m):
            assert all(x == 0 for x in m.apply(vec))

    @given(m=rect_matrices())
    @settings(deadline=None)
    def test_rref_idempotent(self, m):
        once = rref(m)
        assert rref(once) == once

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_det_matches_cofactor_expansion(self, m):
        assert det(m) == cofactor_det(m)

    @given(a=square_matrices(3), b=square_matrices(3))
    @settings(deadline=None)
    def test_det_multiplicative(self, a, b):
        if a.rows != b.rows:
            return
        assert det(a @ b) == det(a) * det(b)

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_inverse_roundtrip(self, m):
        if det(m) == 0:
            with pytest.raises(Singular):
                inverse(m)
            return
        assert m @ inverse(m) == QMatrix.identity(m.rows)


class TestCharMatrixPoly:
    def test_identity(self):
        # det(I + tI) over 2x2 is (1+t)^2
        p = char_matrix_poly(QMatrix.identity(2))
        assert p == poly(1, 2, 1)

    def test_swap_matrix(self):
        swap = QMatrix.from_rows([[0, 1], [1, 0]])
        assert char_matrix_poly(swap) == poly(1, 0, -1)

    def test_minus_sign_gives_molien_denominator(self):
        # det(I - t g) for the 2x2 rotation by 90 degrees
        rot = QMatrix.from_rows([[0, -1], [1, 0]])
        assert char_matrix_poly(rot, sign=-1) == poly(1, 0, 1)

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_constant_term_one_and_value_at_one(self, m):
        p = char_matrix_poly(m)
        assert p.coefficient(0) == 1
        assert p.evaluate(Fraction(1)) == det(
            QMatrix.identity(m.rows).add(m)
        )

    def test_top_coefficient_is_det(self):
        m = QMatrix.from_rows([[1, 2], [3, 4]])
        assert char_matrix_poly(m).coefficient(2) == det(m)

