"""Exact linear algebra and polynomial kernel."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from confab.exact import (
    NonZeroRemainder,
    QMatrix,
    Singular,
    as_exact,
    as_trimmed_tuple,
    char_matrix_poly,
    eliminate,
    exact_div,
    inverse,
    poly_div,
    poly_mul,
    rank,
)
from oracles import det, det_char_poly, kernel_basis, poly_product


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


def square_matrices(max_size=4, values=entries, min_size=1):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(values, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(QMatrix.from_rows)
    )


def rect_rows(max_size=5):
    return st.tuples(
        st.integers(min_value=1, max_value=max_size),
        st.integers(min_value=1, max_value=max_size),
    ).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def rect_matrices(max_size=5):
    return rect_rows(max_size).map(QMatrix.from_rows)


# ints and non-integral fractions up to 6 x 6, the empty matrix included,
# for the determinant-free characteristic polynomial against the
# determinant route
char_poly_matrices = square_matrices(
    6,
    st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6),
    min_size=0,
)


small_polys = st.lists(entries, min_size=1, max_size=5).map(as_trimmed_tuple)


def stored_exactly(value) -> bool:
    """An int when integral, a Fraction when not, and never anything else."""
    return type(value) is (int if value.denominator == 1 else Fraction)


class TestExactDiv:
    @given(a=st.integers(-60, 60), b=st.integers(-12, 12))
    def test_integers(self, a, b):
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                exact_div(a, b)
            return
        quotient = exact_div(a, b)
        assert quotient == Fraction(a, b)
        assert (type(quotient) is int) == (a % b == 0)
        assert stored_exactly(quotient)

    @given(
        a=st.fractions(min_value=-20, max_value=20, max_denominator=8),
        b=st.fractions(min_value=-6, max_value=6, max_denominator=8),
    )
    def test_fractions(self, a, b):
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                exact_div(a, b)
            return
        quotient = exact_div(a, b)
        assert quotient == Fraction(a, b)
        assert (type(quotient) is int) == ((a / b).denominator == 1)
        assert stored_exactly(quotient)

    def test_floats_rejected(self):
        for bad in ((1.5, 1), (3, 2.0)):
            with pytest.raises(TypeError):
                exact_div(*bad)
        with pytest.raises(TypeError):
            as_exact(0.5)
        with pytest.raises(TypeError):
            QMatrix.from_rows([[1.0]])
        with pytest.raises(TypeError):
            as_trimmed_tuple((0.25,))


class TestPolynomials:
    def test_division_oracle_two_factors(self):
        # (1-q)(1-q^2) / (1-q)^2 = 1 + q
        num = poly_product((1, -1), (1, 0, -1))
        den = poly_product((1, -1), (1, -1))
        assert poly_div(num, den) == [1, 1]

    def test_division_oracle_rank_two(self):
        # (1-q^2)(1-q^4) / (1-q)^2 = 1 + 2q + 2q^2 + 2q^3 + q^4
        num = poly_product((1, 0, -1), (1, 0, 0, 0, -1))
        den = poly_product((1, -1), (1, -1))
        assert poly_div(num, den) == [1, 2, 2, 2, 1]

    def test_division_remainder_rejected(self):
        with pytest.raises(NonZeroRemainder):
            poly_div((1, 1, 1), (1, 1))

    def test_str_form(self):
        # the remainder message writes both polynomials out in q
        with pytest.raises(NonZeroRemainder) as caught:
            poly_div((1, 1, 1), (1, 1))
        assert str(caught.value) == (
            "division of 1 + q + q^2 by 1 + q leaves a remainder"
        )
        with pytest.raises(NonZeroRemainder) as caught:
            poly_div((0, Fraction(1, 2), 0, -2), (3, 0, 2))
        assert str(caught.value) == (
            "division of 1/2*q + -2*q^3 by 3 + 2*q^2 leaves a remainder"
        )

    @given(a=small_polys, b=small_polys)
    @settings(deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        if not b:
            return
        assert tuple(poly_div(poly_mul(a, b), b)) == a


class TestElimination:
    def test_rank_and_kernel_fixed(self):
        m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert rank(m.to_rows()) == 2
        basis = kernel_basis(m)
        assert len(basis) == 1
        for vec in basis:
            image = m.apply(vec)
            assert all(x == 0 for x in image)

    @given(m=rect_matrices())
    @settings(deadline=None)
    def test_rank_plus_nullity(self, m):
        assert rank(m.to_rows()) + len(kernel_basis(m)) == m.cols

    @given(m=rect_matrices())
    @settings(deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for vec in kernel_basis(m):
            assert all(x == 0 for x in m.apply(vec))

    @given(original_rows=rect_rows())
    @settings(deadline=None)
    def test_eliminate_reduces_rows(self, original_rows):
        width = len(original_rows[0])
        held = [list(row) for row in original_rows]
        rows, pivots = eliminate(original_rows)
        # the caller's rows are left as they were
        assert original_rows == held
        count = len(pivots)
        assert [len(row) for row in rows] == [width] * len(original_rows)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for i, pivot in enumerate(pivots):
            column = [row[pivot] for row in rows[:count]]
            assert column == [int(j == i) for j in range(count)]
            # the pivot leads its row
            assert not any(rows[i][:pivot])
        assert not any(any(row) for row in rows[count:])
        assert rank(original_rows) == count
        assert eliminate(rows) == (rows, pivots)
        # the reduced rows span the original rows: a vector of the span is
        # fixed by its entries at the pivots
        for original in original_rows:
            rebuilt = [0] * width
            for row, pivot in zip(rows, pivots):
                coef = original[pivot]
                rebuilt = [x + coef * y for x, y in zip(rebuilt, row)]
            assert rebuilt == original

    def test_eliminate_edge_rows(self):
        assert eliminate([[1, 2], [2, 4]]) == ([[1, 2], [0, 0]], [0])
        assert eliminate([]) == ([], [])
        assert rank([]) == 0
        # zero-width rows have no pivot and come back as they were
        assert eliminate([[], []]) == ([[], []], [])

    def test_eliminate_refuses_ragged_and_inexact_rows(self):
        for ragged in ([[1], [1, 2]], [[1, 2], []]):
            with pytest.raises(ValueError, match="^ragged rows$"):
                eliminate(ragged)
            with pytest.raises(ValueError, match="^ragged rows$"):
                rank(ragged)
        for bad in (0.5, "1/2"):
            with pytest.raises(TypeError):
                eliminate([[1, bad], [0, 1]])
            with pytest.raises(TypeError):
                rank([[bad]])

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_det_matches_cofactor_expansion(self, m):
        assert det(m) == cofactor_det(m)
        assert stored_exactly(det(m))

    @given(a=square_matrices(3), b=square_matrices(3))
    @settings(deadline=None)
    def test_det_multiplicative(self, a, b):
        if a.rows != b.rows:
            return
        assert det(a.mul(b)) == det(a) * det(b)

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_integral_entries_stay_int(self, m):
        results = [m.entries, *eliminate(m.to_rows())[0]]
        if det(m) != 0:
            results.append(inverse(m).entries)
        for values in results:
            assert all(stored_exactly(v) for v in values)

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_inverse_roundtrip(self, m):
        if det(m) == 0:
            with pytest.raises(Singular):
                inverse(m)
            return
        assert m.mul(inverse(m)) == QMatrix.identity(m.rows)


class TestCharMatrixPoly:
    def test_identity(self):
        # det(I + tI) over 2x2 is (1+t)^2
        p = char_matrix_poly(QMatrix.identity(2))
        assert p == (1, 2, 1)

    def test_swap_matrix(self):
        swap = QMatrix.from_rows([[0, 1], [1, 0]])
        assert char_matrix_poly(swap) == (1, 0, -1)

    def test_minus_sign_gives_molien_denominator(self):
        # det(I - t g) for the 2x2 rotation by 90 degrees
        rot = QMatrix.from_rows([[0, -1], [1, 0]])
        assert char_matrix_poly(rot, sign=-1) == (1, 0, 1)

    @given(m=square_matrices())
    @settings(deadline=None)
    def test_constant_term_one_and_value_at_one(self, m):
        p = char_matrix_poly(m)
        assert p == as_trimmed_tuple(p)
        assert p[0] == 1
        shifted = [
            [e + (i == j) for j, e in enumerate(row)]
            for i, row in enumerate(m.to_rows())
        ]
        assert sum(p) == det(QMatrix.from_rows(shifted))

    @given(m=char_poly_matrices, sign=st.sampled_from((1, -1)))
    @settings(deadline=None)
    def test_top_coefficient_is_det(self, m, sign):
        # the t^n coefficient of det(I + sign*t*g) is sign^n det(g)
        n = m.rows
        padded = char_matrix_poly(m, sign) + (0,) * (n + 1)
        assert padded[n] == sign**n * det(m)

    @given(m=char_poly_matrices, sign=st.sampled_from((1, -1)))
    @settings(deadline=None)
    def test_matches_newton_over_det(self, m, sign):
        p = char_matrix_poly(m, sign)
        assert p == det_char_poly(m, sign)
        assert all(stored_exactly(c) for c in p)

    def test_empty_matrix(self):
        assert char_matrix_poly(QMatrix(0, 0, ())) == (1,)

    def test_checks(self):
        with pytest.raises(ValueError, match="non-square"):
            char_matrix_poly(QMatrix(1, 2, (1, 2)))
        with pytest.raises(ValueError, match="sign"):
            char_matrix_poly(QMatrix.identity(2), sign=2)

