"""The plain-int k = 2 kernels against the routes they replaced.

Tag parsing is pinned spelling by spelling, with its exact messages; the
one-pass invariants, the binomial products, the coefficient-tuple traces,
the convolution and division kernels, the class sizes and the
class-function decomposition are checked against the pairings, polynomial
products and ``Counter`` multiplicities in ``oracles``.
"""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confab.exact import (
    NonZeroRemainder,
    as_exact_tuple,
    poly_div,
    poly_mul,
)
from confab.groups import (
    ClassFunction,
    FiniteGroup,
    IrreducibleCatalog,
    NotACharacter,
    decompose,
)
from confab.tables import conf_ab_table
from confab.torusconf import (
    conf2_torus,
    conf2_torus_minus_point_rank2,
    conf3_torus_rank2,
)
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
from oracles import (
    binomial_charpoly,
    conf2_traces,
    counter_class_sizes,
    flag_traces,
    kunneth_traces,
    pairing_invariant_dims,
    poly_product,
    poly_quotient,
    poly_text,
    torus_traces,
    trimmed,
)

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
    trivial = (1, -1) if su else (1,)
    for cycle_type, charpoly in zip(factor.group.classes, factor.charpolys):
        assert type(charpoly) is tuple
        assert set(map(type, charpoly)) == {int}
        assert poly_product(charpoly, trivial) == binomial_charpoly(cycle_type)


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
    # a wrong table that passes every shape check: the trivial character
    # twice on Z2.  Each multiplicity is a nonnegative integer, so only the
    # reassembly check can see that the parts do not give f back
    group = FiniteGroup(("e", "s"), (1, 1))
    trivial = ClassFunction.trivial(group)
    doubled = IrreducibleCatalog(group, ("1", "again"), (trivial, trivial))
    for values in ((2, 0), (1, 1)):
        with pytest.raises(NotACharacter, match="not in the catalog's span"):
            decompose(ClassFunction(group, values), doubled)


@pytest.mark.parametrize("tag", GOLDEN_TAGS)
def test_traces_equal_the_polynomial_route(tag):
    d = datum(tag)
    assert torus_character(d).traces == torus_traces(d)
    conf = conf2_torus(d)
    assert conf.traces == conf2_traces(d)
    for convention in ("derived", "paper"):
        flag = flag_character(d, convention)
        expected = flag_traces(d, convention)
        assert flag.traces == expected, convention
        assert kunneth(flag, conf).traces == kunneth_traces(
            expected, conf2_traces(d)
        ), convention


def test_conf3_traces_equal_the_polynomial_route():
    d = datum("U2")
    punctured = conf2_torus_minus_point_rank2(d).traces
    assert conf3_torus_rank2(d).traces == kunneth_traces(
        torus_traces(d), punctured
    )


exact_values = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(max_denominator=4).map(
        lambda v: v.numerator if v.denominator == 1 else v
    ),
)
coefficient_lists = st.lists(exact_values, max_size=7)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_convolution_matches_the_polynomial_product(a, b):
    expected = poly_product(a, b)
    assert trimmed(poly_mul(a, b)) == expected
    assert tuple(poly_mul(trimmed(a), trimmed(b))) == expected


LEADS = (1, -1, 2, -3, Fraction(1, 2))


@settings(max_examples=200, deadline=None)
@given(
    coefficient_lists,
    coefficient_lists,
    st.sampled_from(LEADS),
    st.lists(exact_values, min_size=1, max_size=4),
)
def test_division_matches_long_division(quotient, body, lead, remainder):
    divisor = (*body, lead)
    exact = poly_product(quotient, divisor)
    got = poly_div(exact, divisor)
    assert tuple(got) == trimmed(quotient)
    assert tuple(got) == poly_quotient(exact, divisor)
    if all(type(c) is int for c in (*quotient, *body)) and lead in (1, -1):
        assert all(type(c) is int for c in got)
    # a nonzero remainder below the divisor's degree is refused, by both
    # routes and with the same message
    remainder = trimmed(remainder[: len(body)])
    if not remainder:
        return
    coeffs = list(exact) + [0] * len(remainder)
    for i, c in enumerate(remainder):
        coeffs[i] += c
    inexact = trimmed(coeffs)
    with pytest.raises(NonZeroRemainder) as caught:
        poly_div(inexact, divisor)
    with pytest.raises(NonZeroRemainder) as oracle:
        poly_quotient(inexact, divisor)
    assert str(caught.value) == str(oracle.value)
    assert str(caught.value) == (
        f"division of {poly_text(inexact)} by {poly_text(divisor)} "
        "leaves a remainder"
    )


def test_division_by_zero_is_refused():
    with pytest.raises(ZeroDivisionError):
        poly_div((1, 2), ())


@pytest.mark.parametrize("n", range(1, 11))
def test_class_sizes_sum_to_the_group_order(n):
    factors = [unitary(n), symplectic(n)]
    if n >= 2:
        factors.append(special_unitary(n))
    for factor in factors:
        signed = factor.tag.startswith("Sp")
        order = factorial(n) * (2**n if signed else 1)
        assert sum(factor.group.sizes) == order, factor.tag
        assert factor.group.sizes == counter_class_sizes(factor), factor.tag
