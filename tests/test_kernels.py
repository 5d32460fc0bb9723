"""The plain-int k = 2 kernels against the routes they replaced.

Tag parsing is pinned spelling by spelling, with its exact messages; the
one-pass invariants, the binomial products and the class-function
decomposition are checked against the pairings and polynomial products in
``oracles``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from confab.exact import RationalPolynomial, as_exact_tuple
from confab.groups import (
    ClassFunction,
    FiniteGroup,
    IrreducibleCatalog,
    NotACharacter,
    decompose,
)
from confab.tables import conf_ab_table
from confab.torusconf import conf2_torus, conf2_torus_minus_point_rank2
from confab.weyl import (
    UnsupportedDatum,
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
from oracles import binomial_charpoly, pairing_invariant_dims

GOLDEN_TAGS = sorted(
    json.loads(
        (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text(
            encoding="utf-8"
        )
    )["tables"]
)


@pytest.mark.parametrize(
    "tag, factor_tags",
    [
        (" s1 x su2 ", ("S1", "SU2")),
        ("u2Xu2", ("U2", "U2")),
        ("U02", ("U2",)),
        # \d matched any Unicode decimal digit, and so does str.isdecimal
        ("U٢", ("U2",)),
        ("sp3", ("Sp3",)),
        ("S1xU1", ("S1", "U1")),
    ],
)
def test_parse_tag_accepts(tag, factor_tags):
    assert tuple(f.tag for f in parse_tag(tag)) == factor_tags


@pytest.mark.parametrize(
    "tag, message",
    [
        ("", "unrecognized factor '' in ''"),
        ("U", "unrecognized factor 'U' in 'U'"),
        ("E8", "unrecognized factor 'E8' in 'E8'"),
        ("SU", "unrecognized factor 'SU' in 'SU'"),
        ("S2", "unrecognized factor 'S2' in 'S2'"),
        ("S01", "unrecognized factor 'S01' in 'S01'"),
        ("U2x", "unrecognized factor '' in 'U2x'"),
        ("xU2", "unrecognized factor '' in 'xU2'"),
        ("U 2", "unrecognized factor 'U 2' in 'U 2'"),
        ("U-1", "unrecognized factor 'U-1' in 'U-1'"),
        (" U2 x E8 ", "unrecognized factor ' E8' in ' U2 x E8 '"),
        # well-formed tags keep the builders' own messages
        ("U0", "U(n) needs n >= 1"),
        ("SP0", "Sp(n) needs n >= 1"),
        ("SU1", "SU(n) needs n >= 2"),
    ],
)
def test_parse_tag_rejects(tag, message):
    with pytest.raises(UnsupportedDatum) as caught:
        parse_tag(tag)
    assert str(caught.value) == message
    with pytest.raises(UnsupportedDatum) as caught:
        datum(tag)
    assert str(caught.value) == message


def test_conf3_cache_misses_once_across_spellings():
    conf2_torus_minus_point_rank2.cache_clear()
    tables = [conf_ab_table(datum(tag), 3) for tag in ("u2", "U2")]
    assert tables[0] == tables[1]
    info = conf2_torus_minus_point_rank2.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("tag", GOLDEN_TAGS)
def test_invariant_dims_equal_trivial_pairings(tag):
    d = datum(tag)
    conf = conf2_torus(d)
    flags = [flag_character(d, c) for c in ("derived", "paper")]
    characters = [torus_character(d), conf, *flags]
    characters += [kunneth(flag, conf) for flag in flags]
    for gc in characters:
        assert invariant_dims(gc) == pairing_invariant_dims(gc)


@pytest.mark.parametrize(
    "factor",
    [unitary(n) for n in range(1, 7)]
    + [special_unitary(n) for n in range(2, 7)]
    + [symplectic(n) for n in range(1, 5)],
    ids=lambda f: f.tag,
)
def test_charpolys_equal_binomial_products(factor):
    # SU(n) has divided out the trivial summand's factor 1 - x
    su = factor.tag.startswith("SU")
    trivial = RationalPolynomial((1, -1) if su else (1,))
    for cycle_type, charpoly in zip(factor.group.classes, factor.charpolys):
        assert charpoly * trivial == binomial_charpoly(cycle_type)


def test_as_exact_tuple_keeps_ints_and_normalises_the_rest():
    ints = (3, -1, 0, 10**30)
    assert as_exact_tuple(ints) is ints
    assert as_exact_tuple(iter(ints)) == ints
    assert as_exact_tuple(()) == ()
    got = as_exact_tuple((Fraction(4, 2), "1/2", 7))
    assert got == (2, Fraction(1, 2), 7)
    assert [type(v) for v in got] == [int, Fraction, int]
    # bool is not int: it is normalised to the int it stands for
    assert [type(v) for v in as_exact_tuple((True, 2))] == [int, int]


@pytest.mark.parametrize("values", [(0.5,), (1, 2.0, 3)])
def test_as_exact_tuple_rejects_floats(values):
    with pytest.raises(TypeError):
        as_exact_tuple(values)


def test_decompose_rejects_functions_outside_the_span():
    # a catalog short of the sign character, built past its own checks, so
    # that only the reassembly check can see the missing part
    group = FiniteGroup(("e", "s"), (1, 1))
    partial = object.__new__(IrreducibleCatalog)
    partial.group = group
    partial.labels = ("1",)
    partial.chars = (ClassFunction.trivial(group),)
    assert decompose(ClassFunction(group, (1, 1)), partial) == (("1", 1),)
    with pytest.raises(NotACharacter, match="not in the catalog's span"):
        decompose(ClassFunction(group, (2, 0)), partial)
