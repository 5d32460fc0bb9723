"""The plain-int k = 2 kernels against the routes they replaced.

Tag parsing is pinned spelling by spelling, with its exact messages; the
one-pass invariants, the binomial products, the coefficient-tuple traces,
the convolution and division kernels, the class sizes and the
class-function decomposition are checked against the pairings, polynomial
products and ``Counter`` multiplicities in ``oracles``.
"""

import json
from fractions import Fraction
from itertools import product
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
    FiniteGroup,
    IrreducibleCatalog,
    NotACharacter,
    decompose,
)
from confab.tables import conf2_ring, conf_ab_table
from confab.torusconf import (
    conf2_torus,
    conf2_torus_minus_point_rank2,
    conf3_torus_rank2,
)
from confab.weyl import (
    GradedCharacter,
    UnsupportedDatum,
    canonical_tag,
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
    class_function,
    conf2_traces,
    counter_class_sizes,
    flag_traces,
    kunneth_traces,
    pairing_invariant_dims,
    poly_product,
    poly_quotient,
    poly_text,
    tensor_table,
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
        # leading zeros are not significant, however many
        ("U01", ("U1",)),
        pytest.param("U" + "0" * 5000 + "2", ("U2",), id="U0...02"),
    ],
)
def test_parse_tag_accepts(tag, factor_tags):
    assert tuple(f.tag for f in parse_tag(tag)) == factor_tags
    assert canonical_tag(tag) == "x".join(factor_tags)


# every route that reads a tag, with the refusals it shares
TAG_ROUTES = [parse_tag, datum, canonical_tag, conf2_ring]
HUGE = "U" + "9" * 5000


@pytest.mark.parametrize("route", TAG_ROUTES)
@pytest.mark.parametrize(
    "tag, factor",
    [
        pytest.param(HUGE, HUGE, id="U9...9"),
        ("S1xsp1234567", "sp1234567"),
        ("U0001234567", "U0001234567"),
    ],
)
def test_overlong_rank_is_refused_before_int(route, tag, factor):
    # a rank with more digits than MAX_CLASSES has more classes than that;
    # int() would raise a bare ValueError past 4300 digits
    with pytest.raises(UnsupportedDatum) as caught:
        route(tag)
    assert str(caught.value) == (
        f"factor {factor!r} has more than 100000 Weyl group classes"
    )


@pytest.mark.parametrize("route", TAG_ROUTES)
@pytest.mark.parametrize("tag", [None, 2, b"U2"])
def test_non_string_tag_is_a_type_error(route, tag):
    with pytest.raises(TypeError) as caught:
        route(tag)
    assert str(caught.value) == f"tag must be a string, not {tag!r}"


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


def test_conf3_spellings_agree():
    tables = [conf_ab_table(datum(tag), 3) for tag in ("u2", "U2")]
    assert tables[0] == tables[1]


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
    got = as_exact_tuple((Fraction(4, 2), Fraction(1, 2), 7))
    assert got == (2, Fraction(1, 2), 7)
    assert [type(v) for v in got] == [int, Fraction, int]
    # bool is not int: it is normalised to the int it stands for
    assert [type(v) for v in as_exact_tuple((True, 2))] == [int, int]


@pytest.mark.parametrize("values", [(0.5,), (1, 2.0, 3)])
def test_as_exact_tuple_rejects_floats(values):
    with pytest.raises(TypeError):
        as_exact_tuple(values)


@pytest.mark.parametrize("values", [("1/2",), (1, "2", 3)])
def test_as_exact_tuple_rejects_strings(values):
    with pytest.raises(TypeError):
        as_exact_tuple(values)


def decompose_degree_one(f, catalog):
    # f as the degree-1 piece of a graded character that is zero in degree 0
    graded = GradedCharacter(f.group, [(0, *trace) for trace in f.traces])
    return decompose(graded, catalog)


# each placement of f with the message it raises for a function outside the
# span
ENTRY_POINTS = [
    pytest.param(
        decompose,
        "class function in degree 0 is not in the catalog's span",
        id="decompose",
    ),
    pytest.param(
        decompose_degree_one,
        "class function in degree 1 is not in the catalog's span",
        id="decompose-degree1",
    ),
]


@pytest.mark.parametrize("entry, message", ENTRY_POINTS)
def test_decompose_rejects_functions_outside_the_span(entry, message):
    # a wrong table that passes every shape check: the trivial character
    # twice on Z2.  Each multiplicity is a nonnegative integer, so only the
    # reassembly check can see that the parts do not give f back
    group = FiniteGroup(("e", "s"), (1, 1))
    doubled = IrreducibleCatalog(group, ("1", "again"), [((1, 1), (1, 1))])
    for values in ((2, 0), (1, 1)):
        with pytest.raises(NotACharacter) as caught:
            entry(class_function(group, values), doubled)
        assert str(caught.value) == message


@pytest.mark.parametrize("entry, message", ENTRY_POINTS)
def test_product_decompose_rejects_functions_outside_the_span(entry, message):
    # the same wrong Z2 table times Z2's true one.  Every multiplicity is a
    # nonnegative integer and the parts give 2f back, not f: the
    # reassembly runs over both factor axes
    z2 = FiniteGroup(("e", "s"), (1, 1))
    doubled = IrreducibleCatalog(z2, ("1", "again"), [((1, 1), (1, 1))])
    true = IrreducibleCatalog(z2, ("1", "sign"), [((1, 1), (1, -1))])
    group = FiniteGroup(tuple(product(z2.classes, repeat=2)), (1,) * 4)
    catalog = IrreducibleCatalog.product(group, (doubled, true))
    for values in ((4, 0, 0, 0), (2, 2, 0, 0), (2, 0, 2, 0)):
        with pytest.raises(NotACharacter) as caught:
            entry(class_function(group, values), catalog)
        assert str(caught.value) == message


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from(("S1", "U2", "U3", "Sp1", "Sp2")), min_size=1, max_size=3
    ),
    st.data(),
)
def test_graded_decompose_returns_the_drawn_multiplicities(tags, data):
    # a graded character built from drawn multiplicities with the flat
    # tensor table decomposes to exactly those multiplicities; halving a
    # degree that holds an odd one is refused, naming that degree
    d = datum("x".join(tags))
    labels, chars = tensor_table(d)
    assert labels == d.catalog.labels
    width = len(labels)
    degree_mults = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    mults = data.draw(st.lists(degree_mults, min_size=1, max_size=4))
    n = data.draw(st.integers(0, len(mults) - 1))
    odd = data.draw(st.integers(0, width - 1))
    mults[n][odd] = 2 * mults[n][odd] + 1
    traces = [
        [sum(m * char[c] for m, char in zip(row, chars)) for row in mults]
        for c in range(width)
    ]
    expected = [tuple(pair for pair in zip(labels, row) if pair[1]) for row in mults]
    while not expected[-1]:
        expected.pop()
    assert decompose(GradedCharacter(d.group, traces), d.catalog) == (
        expected
    )
    halved = [
        [Fraction(v, 2) if degree == n else v for degree, v in enumerate(trace)]
        for trace in traces
    ]
    first = next(j for j, m in enumerate(mults[n]) if m % 2)
    with pytest.raises(NotACharacter) as caught:
        decompose(GradedCharacter(d.group, halved), d.catalog)
    assert str(caught.value) == (
        f"multiplicity of {labels[first]} in degree {n} is "
        f"{Fraction(mults[n][first], 2)}, not a nonnegative integer"
    )


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
