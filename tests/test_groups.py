"""Class functions and catalogs, with the cycle-type Weyl data checked
against a brute-force matrix-group oracle."""

from collections import Counter
from fractions import Fraction

import pytest

from confab.exact import QMatrix, char_matrix_poly, det
from confab.groups import (
    ClassFunction,
    FiniteGroup,
    IrreducibleCatalog,
    NotACharacter,
    decompose,
    format_decomposition,
    inner_product,
)
from confab.weyl import datum, parse_tag

SWAP = QMatrix.from_rows([[0, 1], [1, 0]])
FLIP = QMatrix.from_rows([[1, 0], [0, -1]])


# ---------------------------------------------------------------------------
# the oracle: Weyl groups as explicit matrices, closed by breadth-first
# multiplication, with conjugacy classes found by brute force


def close_group(generators, dimension):
    """Every product of the generators, identity first, in discovery order."""
    elements = [QMatrix.identity(dimension)]
    seen = set(elements)
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g in generators:
            product = current @ g
            if product not in seen:
                seen.add(product)
                elements.append(product)
    return elements


def inverses(elements):
    identity = elements[0]
    return [
        next(j for j, y in enumerate(elements) if x @ y == identity)
        for x in elements
    ]


def conjugacy_classes(elements):
    """Classes as lists of element indices, the identity's class first."""
    index = {e: i for i, e in enumerate(elements)}
    inv = inverses(elements)
    classes, seen = [], set()
    for i, x in enumerate(elements):
        if i in seen:
            continue
        orbit = sorted(
            {index[g @ x @ elements[inv[k]]] for k, g in enumerate(elements)}
        )
        seen.update(orbit)
        classes.append(orbit)
    return classes


def _unit_rows(n):
    return [[1 if r == c else 0 for c in range(n)] for r in range(n)]


def perm_transposition(n, i):
    # swap coordinates i and i+1 of Q^n
    rows = _unit_rows(n)
    rows[i][i] = rows[i + 1][i + 1] = 0
    rows[i][i + 1] = rows[i + 1][i] = 1
    return QMatrix.from_rows(rows)


def root_reflection(n, i):
    # simple reflection s_i on the root basis of rank n; columns are images
    rows = _unit_rows(n)
    rows[i][i] = -1
    if i > 0:
        rows[i][i - 1] = 1
    if i + 1 < n:
        rows[i][i + 1] = 1
    return QMatrix.from_rows(rows)


def last_sign_flip(n):
    rows = _unit_rows(n)
    rows[n - 1][n - 1] = -1
    return QMatrix.from_rows(rows)


def oracle_group(factor):
    """The factor's Weyl group in its reflection representation."""
    n = factor.rank
    if factor.kind == "circle":
        generators = []
    elif factor.kind == "special_unitary":
        generators = [root_reflection(n, i) for i in range(n)]
    else:
        generators = [perm_transposition(n, i) for i in range(n - 1)]
        if factor.kind == "symplectic":
            generators.append(last_sign_flip(n))
    return close_group(generators, n)


ORACLE_TAGS = (
    "S1", "U1", "U2", "U3", "U4", "SU2", "SU3", "SU4", "Sp1", "Sp2", "Sp3",
)


@pytest.mark.parametrize("tag", ORACLE_TAGS)
def test_cycle_types_match_the_matrix_oracle(tag):
    (factor,) = parse_tag(tag)
    elements = oracle_group(factor)
    oracle = Counter(
        (
            len(members),
            char_matrix_poly(elements[members[0]], 1),
            char_matrix_poly(elements[members[0]], -1),
        )
        for members in conjugacy_classes(elements)
    )
    cycle_types = Counter(
        zip(factor.group.sizes, factor.torus_polys, factor.molien_denominators)
    )
    assert cycle_types == oracle
    assert factor.group.order == len(elements)


def signed_cycle_type(g):
    """(positive, negative) cycle lengths of a signed permutation matrix."""
    n = g.rows
    image = [next(i for i in range(n) if g.entry(i, j)) for j in range(n)]
    seen, alpha, beta = set(), [], []
    for start in range(n):
        length, sign, j = 0, 1, start
        while j not in seen:
            seen.add(j)
            sign *= g.entry(image[j], j)
            j = image[j]
            length += 1
        if length:
            (alpha if sign > 0 else beta).append(length)
    return tuple(sorted(alpha)[::-1]), tuple(sorted(beta)[::-1])


def test_d8_characters_match_elementwise_definitions():
    # a: sign of the underlying permutation, b: product of the nonzero
    # entries, c: determinant, d: trace, all evaluated on each matrix and
    # compared with the catalog at the matrix's signed cycle type
    factor = parse_tag("Sp2")[0]
    catalog = factor.catalog
    assert catalog.labels == ("1", "a", "b", "c", "d")
    for g in oracle_group(factor):
        unsigned = QMatrix(g.rows, g.cols, tuple(abs(e) for e in g.entries))
        entries = Fraction(1)
        for e in g.entries:
            if e != 0:
                entries *= e
        ci = factor.group.classes.index(signed_cycle_type(g))
        assert tuple(
            catalog.by_label[label].values[ci] for label in "abcd"
        ) == (det(unsigned), entries, det(g), g.trace())


class TestClosure:
    def test_signed_permutation_group_order_eight(self):
        elements = close_group([SWAP, FLIP], 2)
        assert len(elements) == 8
        assert elements[0] == QMatrix.identity(2)

    def test_class_partition(self):
        classes = conjugacy_classes(close_group([SWAP, FLIP], 2))
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
        # the identity class always comes first
        assert classes[0] == [0]

    def test_symmetric_group_classes(self):
        s1 = QMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        s2 = QMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        classes = conjugacy_classes(close_group([s1, s2], 3))
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_generator_order_does_not_change_partition(self):
        forward = close_group([SWAP, FLIP], 2)
        backward = close_group([FLIP, SWAP], 2)
        assert set(forward) == set(backward)
        as_sets = lambda elements: {
            frozenset(elements[i] for i in cls)
            for cls in conjugacy_classes(elements)
        }
        assert as_sets(forward) == as_sets(backward)

    def test_inverses(self):
        elements = close_group([SWAP, FLIP], 2)
        for i, inv in enumerate(inverses(elements)):
            assert elements[i] @ elements[inv] == QMatrix.identity(2)


class TestCatalogs:
    def test_orthonormality_is_enforced(self):
        catalog = datum("Sp2").catalog
        for i, f in enumerate(catalog.chars):
            for j, g in enumerate(catalog.chars):
                expected = Fraction(1 if i == j else 0)
                assert inner_product(f, g) == expected
        group = catalog.group
        trivial = ClassFunction.trivial(group)
        with pytest.raises(ValueError):
            IrreducibleCatalog(group, ("1", "again"), (trivial, trivial))

    def test_dimension_sum(self):
        catalog = datum("Sp2").catalog
        assert sum(c.dim**2 for c in catalog.chars) == 8

    def test_two_dimensional_square_decomposes(self):
        catalog = datum("Sp2").catalog
        d = catalog.by_label["d"]
        square = d * d
        assert decompose(square, catalog) == (
            ("1", 1),
            ("a", 1),
            ("b", 1),
            ("c", 1),
        )

    def test_symmetric_catalog(self):
        catalog = datum("SU3").catalog
        std = catalog.by_label["std"]
        assert std.dim == 2
        assert decompose(std * std, catalog) == (
            ("1", 1),
            ("std", 1),
            ("sgn", 1),
        )

    def test_decompose_rejects_non_characters(self):
        catalog = datum("Sp1").catalog
        group = catalog.group
        half = ClassFunction(group, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(NotACharacter):
            decompose(half, catalog)
        negative = ClassFunction(group, (Fraction(-1), Fraction(-1)))
        with pytest.raises(NotACharacter):
            decompose(negative, catalog)

    def test_format(self):
        assert format_decomposition(()) == "0"
        assert format_decomposition((("1", 2),)) == "2"
        assert format_decomposition((("σ", 1),)) == "σ"
        assert format_decomposition((("1", 1), ("σ", 3))) == "1 ⊕ 3σ"

    def test_group_rejects_misplaced_identity(self):
        with pytest.raises(ValueError):
            FiniteGroup(("s", "e"), (2, 1))


class TestProducts:
    def test_product_orders_multiply(self):
        d = datum("Sp1xSp1")
        assert d.group.order == 4
        assert d.rank == 2
        assert len(d.group.classes) == 4

    def test_class_pairs_recover_factors(self):
        d = datum("Sp1xSp1")
        pairs = sorted(d.class_factor_classes)
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_tensor_labels_join_when_both_nontrivial(self):
        catalog = datum("Sp1xSp1").catalog
        assert catalog.labels == ("1⊗1", "1⊗σ", "σ⊗1", "σ⊗σ")

    def test_trivial_factor_keeps_bare_labels(self):
        assert datum("S1xSp1").catalog.labels == ("1", "σ")
