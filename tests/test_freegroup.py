"""Cohomology of the free group on two generators with module coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confab.exact import inverse
from confab.freegroup import (
    InvariantViolation,
    MalformedWord,
    abelianized_matrix,
    abelianized_relation_rows,
    contragredient,
    h1_f2,
    parse_word,
    quotient_trace,
)
from oracles import det, fixed_space_dim, identity, matmul, transpose


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
        assert m == [[1, 0], [2, -1]]

    def test_missing_image_rejected(self):
        with pytest.raises(MalformedWord):
            abelianized_matrix(("a", "b"), {"a": "a"})

    def test_commutator_abelianizes_to_zero(self):
        rows = abelianized_relation_rows(("a", "b"), ("a b a^-1 b^-1",))
        assert rows == [(Fraction(0), Fraction(0))]


class TestQuotientTrace:
    def test_one_relation_drops_one_dimension(self):
        assert quotient_trace([(1, 0, -1)], identity(3)) == (2, 2)

    def test_induced_trace(self):
        doubling = [[2, 0], [0, 3]]
        assert quotient_trace([(0, 1)], doubling) == (1, 2)

    def test_operator_must_preserve_the_span(self):
        rotate = [[0, -1], [1, 0]]
        with pytest.raises(InvariantViolation):
            quotient_trace([(0, 1)], rotate)

    def test_no_relations_keeps_the_whole_trace(self):
        m = [[2, 1], [0, 3]]
        assert quotient_trace([], m) == (2, 5)

    def test_dependent_relations_count_once(self):
        doubling = [[2, 0], [0, 3]]
        assert quotient_trace([(0, 1), (0, -2)], doubling) == (1, 2)

    def test_relation_length_must_match_the_operator(self):
        with pytest.raises(ValueError, match="^relation length"):
            quotient_trace([(1, 0, 0)], identity(2))

    def test_operator_must_be_square(self):
        for operator in ([[1, 0]], [[1, 0], [0]]):
            with pytest.raises(ValueError, match="^operator is not square$"):
                quotient_trace([], operator)

    def test_fraction_entries_are_stored_exactly(self):
        half = [[Fraction(1, 2), 0], [0, Fraction(3, 2)]]
        dim, trace = quotient_trace([(1, 0)], half)
        assert (dim, trace, type(trace)) == (1, Fraction(3, 2), Fraction)
        dim, trace = quotient_trace([], half)
        assert (dim, trace, type(trace)) == (2, 2, int)


class TestModules:
    def test_involution_must_square_to_identity(self):
        eye = identity(2)
        shear = [[1, 1], [0, 1]]
        with pytest.raises(InvariantViolation, match="does not square to 1$"):
            h1_f2(eye, eye, shear)

    def test_involution_must_intertwine(self):
        a = [[1, 1], [0, 1]]
        b = identity(2)
        swap = [[0, 1], [1, 0]]
        with pytest.raises(InvariantViolation, match="does not intertwine"):
            h1_f2(a, b, swap)

    @pytest.mark.parametrize(
        "a, b, involution, message",
        [
            ([[1, 0]], [[1]], [[1]], "^actions must be square, same size$"),
            (
                [[1, 0], [0, 1]],
                [[1]],
                [[1, 0], [0, 1]],
                "^actions must be square, same size$",
            ),
            (
                [[1, 0], [0, 1]],
                [[1, 0], [0]],
                [[1, 0], [0, 1]],
                "^actions must be square, same size$",
            ),
            (
                [[1, 0], [2, 0]],
                [[1, 0], [0, 1]],
                [[1, 0], [0, 1]],
                "^generator action A is singular$",
            ),
            (
                [[1, 0], [0, 1]],
                [[0, 0], [0, 0]],
                [[1, 0], [0, 1]],
                "^generator action B is singular$",
            ),
            ([[1]], [[1]], [[1, 0], [0, 1]], "^involution size mismatch$"),
            ([[1]], [[1]], [[1, 0]], "^involution size mismatch$"),
        ],
    )
    def test_refusals_name_the_fault(self, a, b, involution, message):
        with pytest.raises(InvariantViolation, match=message):
            h1_f2(a, b, involution)

    def test_trivial_module(self):
        # trivial action: every map is a cocycle, none is a coboundary; with
        # alpha = 1 the involution only swaps the two slots, trace 0
        eye = identity(3)
        assert h1_f2(eye, eye, eye) == (6, 0)
        assert fixed_space_dim(eye, eye) == 3

    def test_euler_identity_on_trivial_module(self):
        eye = identity(4)
        dim, _ = h1_f2(eye, eye, eye)
        assert dim == len(eye) + fixed_space_dim(eye, eye)

    def test_trace_on_a_non_trivial_module(self):
        # alpha = diag(1, -1) turns the shear A into B = alpha A alpha; the
        # fixed space is the first axis, so H^1 has dimension 2 + 1, and the
        # trace is tr(alpha | fixed space) - tr(alpha) = 1 - 0
        a = [[1, 1], [0, 1]]
        alpha = [[1, 0], [0, -1]]
        b = [[1, -1], [0, 1]]
        assert h1_f2(a, b, alpha) == (3, 1)

    def test_swap_trace_on_a_swap_module(self):
        # A = B = 1 and alpha the coordinate swap: H^1 = Q^2 + Q^2 and the
        # slot swap twisted by alpha has trace tr(alpha) = 0
        eye = identity(2)
        swap = [[0, 1], [1, 0]]
        assert h1_f2(eye, eye, swap) == (4, 0)


entries = st.integers(min_value=-2, max_value=2).map(Fraction)


def invertible_matrices(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).filter(lambda m: det(m) != 0)


def involutions(n):
    """C D C^-1 for an invertible C and a diagonal D of signs: every
    involution of Q^n."""

    def conjugate(drawn):
        c, signs = drawn
        d = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return matmul(matmul(c, d), inverse(c))

    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    return st.tuples(invertible_matrices(n), signs).map(conjugate)


@given(
    data=st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(invertible_matrices(n), involutions(n))
    )
)
@settings(deadline=None, max_examples=40)
def test_euler_identity(data):
    # dim H^1 = dim M + dim M^{F_2} for any module over the free group.  The
    # slot swap has trace 0 on M + M and acts on the coboundaries as alpha
    # on M / M^{F_2}, so its trace on H^1 is tr(alpha | M^{F_2}) - tr(alpha);
    # alpha is diagonalizable with eigenvalues 1 and -1, so each trace is
    # twice a fixed dimension minus the whole
    a, alpha = data
    b = matmul(matmul(alpha, a), alpha)
    n = len(a)
    fixed = fixed_space_dim(a, b)
    dim, trace = h1_f2(a, b, alpha)
    assert dim == n + fixed
    on_fixed = 2 * fixed_space_dim(a, b, alpha) - fixed
    assert trace == on_fixed - (2 * fixed_space_dim(alpha) - n)


def grids(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def block_triangular_data(n, m):
    """An invertible P and the blocks X, Y, Z of T' = [[X, Y], [0, Z]]."""
    return st.tuples(
        invertible_matrices(n),
        grids(m, m),
        grids(m, n - m),
        grids(n - m, n - m),
    ).map(lambda drawn: (m,) + drawn)


@given(
    data=st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=0, max_value=n).flatmap(
            lambda m: block_triangular_data(n, m)
        )
    )
)
@settings(deadline=None, max_examples=60)
def test_quotient_trace_matches_block_triangular_form(data):
    # T = P T' P^-1 keeps the span of P's first m columns and acts on the
    # quotient as Z does
    m, p, x, y, z = data
    n = len(p)
    t_prime = [x_row + y_row for x_row, y_row in zip(x, y)] + [
        [0] * m + z_row for z_row in z
    ]
    t = matmul(matmul(p, t_prime), inverse(p))
    relations = transpose(p)[:m]
    z_trace = sum(z[k][k] for k in range(n - m))
    assert quotient_trace(relations, t) == (n - m, z_trace)


def test_contragredient_is_inverse_transpose():
    m = [[1, 1], [0, 1]]
    assert contragredient(m) == [[1, 0], [-1, 1]]
    assert contragredient(contragredient(m)) == m
