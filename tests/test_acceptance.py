"""Acceptance gate: the ten pinned reproduction criteria.

One test per criterion, numbered; run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line each.  Every comparison is exact integer or exact
rational equality; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from confab.exact import eliminate, rank
from confab.freegroup import abelianized_matrix, contragredient, h1_f2
from confab.groups import decompose
from confab.rings import hilbert_series, invariant_subring_dims
from confab.tables import (
    RankTooSmall,
    conf2_ring,
    conf2_ring_involution,
    conf_ab_table,
    first_cohomology_dim,
    shortcut_dims,
    stable_bound,
    unordered_conf2_dims,
    unordered_conf2_ring,
    verify_all,
)
from confab.torusconf import (
    ALPHA_FIBER,
    FIBER_GENERATORS,
    MONODROMY_H,
    MONODROMY_V,
    circle_conf,
    conf2_torus,
    conf2_torus_minus_point_rank2,
    conf3_torus_rank2,
    su2_conf,
)
from confab.weyl import (
    WeylDatum,
    circle,
    datum,
    flag_character,
    special_unitary,
    symplectic,
    unitary,
)
from oracles import (
    apply,
    fixed_space_dim,
    inner_product,
    kernel_basis,
    tensor_table,
    transpose,
)


def multisets(d, gc):
    """degree -> {label: multiplicity} for a graded character."""
    return {
        degree: dict(parts)
        for degree, parts in enumerate(decompose(gc, d.catalog))
        if parts
    }


def test_c01_table_one_cells():
    # pairs in the maximal torus, as labeled multisets per degree
    expected_conf2 = {
        "U2": {
            0: {"1": 1},
            1: {"1": 2, "σ": 2},
            2: {"1": 2, "σ": 3},
            3: {"1": 1, "σ": 1},
        },
        "SU3": {
            0: {"1": 1},
            1: {"std": 2},
            2: {"1": 1, "std": 1, "sgn": 2},
            3: {"std": 1},
        },
        "Sp2": {
            0: {"1": 1},
            1: {"d": 2},
            2: {"1": 1, "a": 1, "b": 1, "c": 2},
            3: {"d": 1},
        },
    }
    expected_conf2["S1xSU2"] = expected_conf2["U2"]
    for tag, cells in expected_conf2.items():
        d = datum(tag)
        assert multisets(d, conf2_torus(d)) == cells

    expected_flag = {
        "U2": {0: {"1": 1}, 2: {"σ": 1}},
        "SU3": {0: {"1": 1}, 2: {"std": 1}, 4: {"std": 1}, 6: {"sgn": 1}},
        "Sp2": {
            0: {"1": 1},
            2: {"d": 1},
            4: {"a": 1, "b": 1},
            6: {"d": 1},
            8: {"c": 1},
        },
    }
    for tag, cells in expected_flag.items():
        d = datum(tag)
        assert multisets(d, flag_character(d, "derived")) == cells
        assert multisets(d, flag_character(d, "paper")) == cells

    # the mixed product: paper column under the paper convention, the coset
    # computation under derived, and the conflict surfaces as a WARN
    d = datum("S1xSU2")
    assert multisets(d, flag_character(d, "paper")) == {
        0: {"1": 1}, 1: {"1": 1}, 2: {"σ": 1}, 3: {"σ": 1},
    }
    assert multisets(d, flag_character(d, "derived")) == {
        0: {"1": 1}, 2: {"σ": 1},
    }
    warns = [c for c in verify_all().checks if c.status == "WARN"]
    assert [w.name for w in warns] == ["s1xsu2-convention"]


def test_c02_table_two_columns():
    expected = {
        "S1xS1": (1, 4, 5, 2),
        "U2": (1, 2, 2, 3, 3, 1),
        "SU3": (1, 0, 1, 2, 1, 3, 1, 1, 2),
        "Sp2": (1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2),
    }
    for tag, column in expected.items():
        for convention in ("derived", "paper"):
            assert conf_ab_table(datum(tag), 2, convention).dims() == column
    d = datum("S1xSU2")
    assert conf_ab_table(d, 2, "paper").dims() == (1, 3, 4, 5, 6, 4, 1)
    assert conf_ab_table(d, 2, "derived").dims() == (1, 2, 2, 3, 3, 1)
    # the verification report prints both columns
    warn = next(c for c in verify_all().checks if c.status == "WARN")
    assert "(1, 2, 2, 3, 3, 1)" in warn.got
    assert "(1, 3, 4, 5, 6, 4, 1)" in warn.got


def test_c03_triples_in_u2():
    table = conf_ab_table(datum("U2"), 3)
    assert table.dims() == (1, 3, 7, 10, 9, 7, 3)
    assert len(table.rows) == 7  # nothing beyond degree six


def test_c04_free_group_cohomology():
    a_h = abelianized_matrix(FIBER_GENERATORS, MONODROMY_H)
    a_v = abelianized_matrix(FIBER_GENERATORS, MONODROMY_V)
    alpha = abelianized_matrix(FIBER_GENERATORS, ALPHA_FIBER)
    a, b = contragredient(a_h), contragredient(a_v)
    dim, trace = h1_f2(a, b, contragredient(alpha))
    assert dim == 5
    # involution type 3 + 2 sign: trace 1 on a 5-dimensional space
    assert trace == 1
    # independent oracle: dim H^1 = dim M + dim M^{F_2}
    assert len(a) + fixed_space_dim(a, b) == 5

    d = datum("U2")
    assert multisets(d, conf2_torus_minus_point_rank2(d)) == {
        0: {"1": 1},
        1: {"1": 2, "σ": 2},
        2: {"1": 3, "σ": 2},
    }
    assert multisets(d, conf3_torus_rank2(d)) == {
        0: {"1": 1},
        1: {"1": 3, "σ": 3},
        2: {"1": 7, "σ": 7},
        3: {"1": 7, "σ": 7},
        4: {"1": 2, "σ": 3},
    }


def test_c05_ring_hilbert_series():
    series = hilbert_series(conf2_ring("U2"))
    assert series == (1, 2, 2, 3, 3, 1)
    assert series == conf_ab_table(datum("U2"), 2).dims()

    closed = hilbert_series(unordered_conf2_ring("U2"))
    assert closed == (1, 1, 0, 1, 1)
    fixed = invariant_subring_dims(
        conf2_ring("U2"), (conf2_ring_involution("U2"),)
    )
    model = unordered_conf2_dims(datum("U2"))
    # three pipelines, degreewise (implicit zeros beyond each top degree)
    length = max(len(closed), len(fixed), len(model))
    pad = lambda dims: tuple(
        dims[i] if i < len(dims) else 0 for i in range(length)
    )
    assert pad(closed) == pad(fixed) == pad(model)


def test_c06_shortcut_equals_table():
    for tag in ("U2", "SU3", "Sp2"):
        d = datum(tag)
        assert shortcut_dims(d, 2) == conf_ab_table(d, 2).dims()
    d = datum("S1xSU2")
    for convention in ("derived", "paper"):
        assert shortcut_dims(d, 2, convention) == conf_ab_table(
            d, 2, convention
        ).dims()
    assert shortcut_dims(datum("U2"), 3) == conf_ab_table(datum("U2"), 3).dims()


def test_c07_first_cohomology_closed_form():
    assert first_cohomology_dim(datum("U2"), 2) == 2
    assert first_cohomology_dim(datum("U2"), 3) == 3
    assert first_cohomology_dim(datum("SU3"), 2) == 0
    assert first_cohomology_dim(datum("Sp2"), 2) == 0
    assert conf_ab_table(datum("U2"), 2).rows[1].dimension == 2
    assert conf_ab_table(datum("U2"), 3).rows[1].dimension == 3
    assert conf_ab_table(datum("SU3"), 2).rows[1].dimension == 0
    assert conf_ab_table(datum("Sp2"), 2).rows[1].dimension == 0
    # rank one breaks the count: b1 = (k-1)! differs from k when k >= 3
    for k in range(3, 7):
        assert circle_conf(k).betti[1] == factorial(k - 1)
        assert factorial(k - 1) != k
    with pytest.raises(RankTooSmall):
        first_cohomology_dim(datum("S1"), 3)


def test_c08_stability_bounds():
    def ceil_half(a):
        return (a + 1) // 2

    for n in range(11):
        for k in range(1, 11):
            assert stable_bound("sp", n, k) == n + 2
            assert stable_bound("u", n, k) == max(ceil_half(n + k - 1), n + 2)
            assert stable_bound("su", n, k) == max(ceil_half(n + k - 3), n + 2)
    assert stable_bound("sp", 3, 2) == 5
    assert stable_bound("u", 2, 9) == 5
    assert stable_bound("su", 0, 3) == 2
    for family in ("u", "su", "sp"):
        for k in range(1, 11):
            column = [stable_bound(family, n, k) for n in range(11)]
            assert column == sorted(column)
        for n in range(11):
            row = [stable_bound(family, n, k) for k in range(1, 11)]
            assert row == sorted(row)


def test_c09_component_combinatorics():
    for k in range(3, 9):
        # independent enumeration: a component is the counterclockwise
        # reading order of points 2..k after point 1; reflection reverses it
        orders = list(permutations(range(2, k + 1)))
        fixed = sum(1 for w in orders if tuple(reversed(w)) == w)
        assert fixed == 0  # distinct entries admit no palindrome here
        summary = circle_conf(k)
        assert summary.components == len(orders) == factorial(k - 1)
        assert summary.reflection_fixed == 0
        assert summary.reflection_orbits == len(orders) // 2
        assert summary.betti == (len(orders), len(orders))

        on_su2 = su2_conf(k)
        assert on_su2.components == factorial(k - 1) // 2
        assert on_su2.betti == tuple([on_su2.components] * 4)
    assert circle_conf(2).components == 1
    assert circle_conf(2).reflection_fixed == 1
    assert circle_conf(2).reflection_orbits == 1
    assert su2_conf(2).betti == (1, 0, 0, 1)


def test_c10_structural_properties():
    # Molien quotients divide exactly for every supported factor; the flag
    # character then totals the Weyl group order
    factors = (
        circle(),
        unitary(2),
        unitary(3),
        special_unitary(2),
        special_unitary(3),
        symplectic(1),
        symplectic(2),
    )
    for factor in factors:
        d = WeylDatum((factor,))
        gc = flag_character(d, "derived")  # raises on inexact division
        assert gc.total_dim() == factor.group.order

    # catalog orthonormality and the dimension-squares identity, on the
    # flat tensor table that each catalog's factor tables stand for
    for tag in ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2"):
        d = datum(tag)
        labels, chars = tensor_table(d)
        assert labels == d.catalog.labels
        for i, f in enumerate(chars):
            for j, g in enumerate(chars):
                pairing = inner_product(d.group, f, g)
                assert pairing == Fraction(1 if i == j else 0)
        assert sum(c[0] ** 2 for c in chars) == d.group.order

    # Euler characteristic vanishes for every configuration table
    for tag in ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2"):
        for convention in ("derived", "paper"):
            assert conf_ab_table(datum(tag), 2, convention).euler == 0
    assert conf_ab_table(datum("U2"), 3).euler == 0

    # flag characters are palindromic in every convention
    for tag in ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2"):
        for convention in ("derived", "paper"):
            gc = flag_character(datum(tag), convention)
            dims = gc.dims()
            assert all(dims[i] == dims[gc.top - i] for i in dims)

    # elimination identities on seeded random matrices
    rng = random.Random(0)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [
            [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert rank(entries) + len(kernel_basis(entries)) == cols
        for vec in kernel_basis(entries):
            assert all(x == 0 for x in apply(entries, vec))
        reduced = eliminate(entries)
        assert eliminate(reduced[0]) == reduced
        assert rank(entries) == rank(transpose(entries))
