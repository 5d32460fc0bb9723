"""Catalogs and decomposition, with the cycle-type Weyl data checked
against a brute-force matrix-group oracle.  A class function is a graded
character in degree 0; the oracles pair its values as plain tuples."""

import json
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from math import prod
from pathlib import Path

import pytest

from confab.exact import char_matrix_poly
from confab.groups import (
    FiniteGroup,
    IrreducibleCatalog,
    NotACharacter,
    decompose,
    format_decomposition,
)
from confab.torusconf import conf2_torus
from confab.weyl import (
    WeylDatum,
    circle,
    datum,
    flag_character,
    kunneth,
    special_unitary,
    symplectic,
    torus_character,
    unitary,
)
from oracles import (
    characters,
    class_function,
    det,
    class_product,
    factor_class_indices,
    flat_decompose,
    identity,
    inner_product,
    matmul,
    qmatrix,
    tensor_table,
    trace,
    values,
)

SWAP = [[0, 1], [1, 0]]
FLIP = [[1, 0], [0, -1]]


# ---------------------------------------------------------------------------
# the oracle: Weyl groups as explicit matrices, closed by breadth-first
# multiplication, with conjugacy classes found by brute force; an element is
# a tuple of row tuples, so it hashes


def close_group(generators, dimension):
    """Every product of the generators, identity first, in discovery order."""
    elements = [identity(dimension)]
    seen = set(elements)
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g in generators:
            product = matmul(current, g)
            if product not in seen:
                seen.add(product)
                elements.append(product)
    return elements


def inverses(elements):
    one = elements[0]
    return [
        next(j for j, y in enumerate(elements) if matmul(x, y) == one)
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
            {
                index[matmul(matmul(g, x), elements[inv[k]])]
                for k, g in enumerate(elements)
            }
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
    return rows


def root_reflection(n, i):
    # simple reflection s_i on the root basis of rank n; columns are images
    rows = _unit_rows(n)
    rows[i][i] = -1
    if i > 0:
        rows[i][i - 1] = 1
    if i + 1 < n:
        rows[i][i + 1] = 1
    return rows


def last_sign_flip(n):
    rows = _unit_rows(n)
    rows[n - 1][n - 1] = -1
    return rows


def permutations(n):
    return [perm_transposition(n, i) for i in range(n - 1)]


# each builder with its Weyl group's generators as matrices on Q^rank
ORACLES = {
    "S1": (circle, permutations(1)),
    **{f"U{n}": (partial(unitary, n), permutations(n)) for n in (1, 2, 3, 4)},
    **{
        f"SU{n}": (
            partial(special_unitary, n),
            [root_reflection(n - 1, i) for i in range(n - 1)],
        )
        for n in (2, 3, 4)
    },
    **{
        f"Sp{n}": (
            partial(symplectic, n),
            permutations(n) + [last_sign_flip(n)],
        )
        for n in (1, 2, 3)
    },
}


def oracle_group(tag):
    """The built factor and its Weyl group in its reflection representation."""
    builder, generators = ORACLES[tag]
    factor = builder()
    return factor, close_group(generators, factor.rank)


@pytest.mark.parametrize("tag", ORACLES)
def test_cycle_types_match_the_matrix_oracle(tag):
    factor, elements = oracle_group(tag)
    representatives = [
        (len(members), elements[members[0]])
        for members in conjugacy_classes(elements)
    ]
    # (size, det(1 - x w)) per class, then det(1 + t w) through the torus
    assert Counter(zip(factor.group.sizes, factor.charpolys)) == Counter(
        (size, char_matrix_poly(qmatrix(g), -1)) for size, g in representatives
    )
    torus = torus_character(WeylDatum((factor,)))
    assert Counter(zip(factor.group.sizes, torus.traces)) == Counter(
        (size, char_matrix_poly(qmatrix(g), 1)) for size, g in representatives
    )
    assert factor.group.order == len(elements)


def signed_cycle_type(g):
    """(positive, negative) cycle lengths of a signed permutation matrix."""
    n = len(g)
    image = [next(i for i in range(n) if g[i][j]) for j in range(n)]
    seen, alpha, beta = set(), [], []
    for start in range(n):
        length, sign, j = 0, 1, start
        while j not in seen:
            seen.add(j)
            sign *= g[image[j]][j]
            j = image[j]
            length += 1
        if length:
            (alpha if sign > 0 else beta).append(length)
    return tuple(sorted(alpha)[::-1]), tuple(sorted(beta)[::-1])


def test_d8_characters_match_elementwise_definitions():
    # a: sign of the underlying permutation, b: product of the nonzero
    # entries, c: determinant, d: trace, all evaluated on each matrix and
    # compared with the catalog at the matrix's signed cycle type
    factor, elements = oracle_group("Sp2")
    catalog = factor.catalog
    assert catalog.labels == ("1", "a", "b", "c", "d")
    by_label = dict(zip(catalog.labels, characters(catalog)))
    for g in elements:
        unsigned = [[abs(e) for e in row] for row in g]
        entries = Fraction(1)
        for e in (e for row in g for e in row):
            if e != 0:
                entries *= e
        ci = factor.group.classes.index(signed_cycle_type(g))
        assert tuple(
            by_label[label][ci] for label in "abcd"
        ) == (det(unsigned), entries, det(g), trace(g))


class TestClosure:
    def test_signed_permutation_group_order_eight(self):
        elements = close_group([SWAP, FLIP], 2)
        assert len(elements) == 8
        assert elements[0] == identity(2)

    def test_class_partition(self):
        classes = conjugacy_classes(close_group([SWAP, FLIP], 2))
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
        # the identity class always comes first
        assert classes[0] == [0]

    def test_symmetric_group_classes(self):
        s1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        s2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
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
            assert matmul(elements[i], elements[inv]) == identity(2)


# one bad table per refusal, each with the message it raises; a product
# takes Z2's true table as its first factor's and the bad one as its second's
Z2_TABLE = ((1, 1), (1, -1))
CATALOG_REFUSALS = [
    (
        "non-square table",
        ("1", "σ"),
        ((1, 1), (1,)),
        ValueError,
        "one value per conjugacy class required",
    ),
    (
        "label count",
        ("1",),
        Z2_TABLE,
        ValueError,
        "one label per character required",
    ),
    (
        "class count",
        ("1",),
        ((1,),),
        ValueError,
        "one character per conjugacy class required",
    ),
    (
        "squared dimensions",
        ("1", "σ"),
        ((1, 1), (2, 0)),
        ValueError,
        "squared dimensions do not sum to group order",
    ),
    (
        "float entry",
        ("1", "σ"),
        ((1, 1), (1, -1.0)),
        TypeError,
        "not an exact rational: -1.0",
    ),
]


@pytest.mark.parametrize("factors", [1, 2], ids=["one group", "product"])
@pytest.mark.parametrize(
    "labels, table, error, message",
    [case[1:] for case in CATALOG_REFUSALS],
    ids=[case[0] for case in CATALOG_REFUSALS],
)
def test_catalog_constructor_refuses(factors, labels, table, error, message):
    # one constructor checks one group and a product alike
    z2 = FiniteGroup(("e", "s"), (1, 1))
    group, tables = z2, (table,)
    if factors == 2:
        group = FiniteGroup(tuple(product(z2.classes, repeat=2)), (1,) * 4)
        labels = tuple(f"{a}⊗{b}" for a in ("1", "σ") for b in labels)
        tables = (Z2_TABLE, table)
    with pytest.raises(error) as caught:
        IrreducibleCatalog(group, labels, tables)
    assert str(caught.value) == message


def test_catalog_constructor_takes_rows_and_products():
    z2 = FiniteGroup(("e", "s"), (1, 1))
    with pytest.raises(ValueError, match="^duplicate labels"):
        IrreducibleCatalog(z2, ("1", "1"), (Z2_TABLE,))
    catalog = IrreducibleCatalog(z2, ("1", "σ"), [[[1, 1], [1, -1]]])
    assert catalog.tables == (Z2_TABLE,)
    group = FiniteGroup(tuple(product(z2.classes, repeat=2)), (1,) * 4)
    square = IrreducibleCatalog.product(group, (catalog, catalog))
    assert square.labels == ("1⊗1", "1⊗σ", "σ⊗1", "σ⊗σ")
    assert square.tables == (Z2_TABLE, Z2_TABLE)


class TestCatalogs:
    def test_character_count_is_enforced(self):
        # the constructor checks shape only; that the shipped tables are
        # orthonormal is proved by test_shipped_table_is_a_character_table
        group = datum("Sp2").group
        with pytest.raises(ValueError, match="one character per conjugacy"):
            IrreducibleCatalog(group, ("1", "σ"), [((1, 1), (1, -1))])
        with pytest.raises(ValueError, match="squared dimensions"):
            IrreducibleCatalog(group, "12345", [((1,) * 5,) * 5])

    def test_dimension_sum(self):
        catalog = datum("Sp2").catalog
        assert sum(c[0] ** 2 for c in characters(catalog)) == 8

    def test_two_dimensional_square_decomposes(self):
        catalog = datum("Sp2").catalog
        d = dict(zip(catalog.labels, characters(catalog)))["d"]
        square = class_function(catalog.group, class_product(d, d))
        assert decompose(square, catalog) == [
            (("1", 1), ("a", 1), ("b", 1), ("c", 1))
        ]

    def test_symmetric_catalog(self):
        catalog = datum("SU3").catalog
        std = dict(zip(catalog.labels, characters(catalog)))["std"]
        assert std[0] == 2
        square = class_function(catalog.group, class_product(std, std))
        assert decompose(square, catalog) == [(("1", 1), ("std", 1), ("sgn", 1))]

    def test_decompose_rejects_non_characters(self):
        catalog = datum("Sp1").catalog
        group = catalog.group
        half = class_function(group, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(NotACharacter):
            decompose(half, catalog)
        negative = class_function(group, (-1, -1))
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
        # each product class names one class per factor, last factor fastest
        d = datum("Sp1xSp1")
        e, s = symplectic(1).group.classes
        assert d.group.classes == ((e, e), (e, s), (s, e), (s, s))
        assert d.group.sizes == (1, 1, 1, 1)
        assert factor_class_indices(d) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_tensor_labels_join_when_both_nontrivial(self):
        catalog = datum("Sp1xSp1").catalog
        assert catalog.labels == ("1⊗1", "1⊗σ", "σ⊗1", "σ⊗σ")

    def test_trivial_factor_keeps_bare_labels(self):
        assert datum("S1xSp1").catalog.labels == ("1", "σ")


# ---------------------------------------------------------------------------
# every character table confab ships is a complete table of irreducibles:
# the named tables of S1, S2, S3, B1 and B2 through their one-factor data,
# and the tensor table of every product in use.  confab keeps only the
# factor tables, so each datum's flat table is rebuilt by
# ``oracles.tensor_table``.  The benchmark's products are its golden tables
# with more than one factor, read here unchanged.

GOLDEN_TABLES = tuple(
    sorted(
        json.loads(
            (Path(__file__).parent.parent / "perfbench" / "golden.json")
            .read_text(encoding="utf-8")
        )["tables"]
    )
)
BENCHMARK_PRODUCTS = tuple(tag for tag in GOLDEN_TABLES if "x" in tag)
NAMED_TABLES = ("S1", "U2", "U3", "Sp1", "Sp2")
PRODUCT_TABLES = ("S1xS1", "S1xSU2") + BENCHMARK_PRODUCTS


@pytest.mark.parametrize("tag", NAMED_TABLES + PRODUCT_TABLES)
def test_shipped_table_is_a_character_table(tag):
    d = datum(tag)
    labels, chars = tensor_table(d)
    group = d.group
    assert labels == d.catalog.labels
    assert len(chars) == len(group.classes)
    # rows: <chi, psi> = 1 if chi = psi, else 0
    for i, f in enumerate(chars):
        for j, g in enumerate(chars):
            expected = 1 if i == j else 0
            pairing = inner_product(group, f, g)
            assert pairing == expected, (labels[i], labels[j])
    # columns: sum over chi of chi(c) chi(c') = |W| / |c| if c = c', else 0
    for c, size in enumerate(group.sizes):
        for c2 in range(len(group.sizes)):
            expected = group.order // size if c == c2 else 0
            column = sum(chi[c] * chi[c2] for chi in chars)
            assert column == expected, (c, c2)
    assert sum(chi[0] ** 2 for chi in chars) == group.order


@pytest.mark.parametrize("tag", PRODUCT_TABLES)
def test_tensor_characters_are_factor_products(tag):
    # the oracle looks each factor class up by name; here the values of one
    # character per factor are multiplied out in itertools.product order,
    # which must be the order of the product's classes
    d = datum(tag)
    chars = tensor_table(d)[1]
    combos = list(product(*(characters(f.catalog) for f in d.factors)))
    assert len(combos) == len(chars) == len(d.catalog.labels)
    for combo, char in zip(combos, chars):
        assert char == tuple(map(prod, product(*combo)))


# the golden tables' one-factor groups that have a catalog
ONE_FACTOR_CATALOGS = tuple(
    tag
    for tag in GOLDEN_TABLES
    if "x" not in tag and datum(tag).catalog is not None
)


@pytest.mark.parametrize("convention", ["derived", "paper"])
@pytest.mark.parametrize("tag", PRODUCT_TABLES + ONE_FACTOR_CATALOGS)
def test_decompose_equals_flat_pairing(tag, convention):
    # every piece of the flag, conf2 and Kunneth characters decomposes
    # factor by factor exactly as pairing with the flat table says, piece
    # by piece in degree 0 and in the graded character's one pass; the
    # pieces outside 0..top are zero and decompose to nothing
    d = datum(tag)
    table = tensor_table(d)
    flag, conf = flag_character(d, convention), conf2_torus(d)
    for gc in (flag, conf, kunneth(flag, conf)):
        graded = decompose(gc, d.catalog)
        assert len(graded) == gc.top + 1
        for degree in range(gc.top + 1):
            piece = gc.piece(degree)
            expected = flat_decompose(d.group, values(piece), table)
            assert decompose(piece, d.catalog) == ([expected] if expected else [])
            assert graded[degree] == expected
        for degree in (-2, -1, gc.top + 1):
            assert gc.piece(degree).traces == ((),) * len(d.group.classes)
            assert decompose(gc.piece(degree), d.catalog) == []


class TestLargeProducts:
    # a product's catalog holds only its factor tables, so products whose
    # flat table would hold 2^24 or 2^32 values build and decompose

    def test_sixteen_factor_datum_builds(self):
        d = datum("x".join(["U2"] * 16))
        assert d.rank == 32  # half of MAX_RANK
        assert len(d.group.classes) == len(d.catalog.labels) == 2**16
        assert d.catalog.labels[0] == "⊗".join(["1"] * 16)
        assert d.catalog.labels[-1] == "⊗".join(["σ"] * 16)

    def test_twelve_factor_flag_pieces(self):
        # the flag of a product is the tensor product of the factors' flags
        # (Kunneth), so its degree-n piece is the sum over factor degrees
        # adding to n of the joined factor decompositions; each factor's
        # own pieces are decomposed by flat pairing
        n = 12
        d = datum("x".join(["U2"] * n))
        u2 = datum("U2")
        u2_flag, u2_table = flag_character(u2), tensor_table(u2)
        factor_parts = {
            degree: flat_decompose(
                u2.group, values(u2_flag.piece(degree)), u2_table
            )
            for degree in u2_flag.degrees()
        }
        expected = {}
        for degrees in product(factor_parts, repeat=n):
            for parts in product(*(factor_parts[deg] for deg in degrees)):
                label = "⊗".join(label for label, _ in parts)
                mult = prod(m for _, m in parts)
                pieces = expected.setdefault(sum(degrees), {})
                pieces[label] = pieces.get(label, 0) + mult
        flag = flag_character(d)
        assert flag.degrees() == tuple(sorted(expected))
        for degree, parts in expected.items():
            assert decompose(flag.piece(degree), d.catalog) == [
                tuple(
                    (label, parts[label])
                    for label in d.catalog.labels
                    if label in parts
                )
            ]
