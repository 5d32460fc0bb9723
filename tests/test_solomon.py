"""Solomon's theorem as a check of the flag side of every datum.

At k = 1 the space of commuting tuples is the group G itself, so the
invariant part of (flag character) tensor (torus character) must be
H*(G) = prod (1 + t^(2d - 1)) over the invariant degrees d of every factor
(L. Solomon, "Invariants of finite reflection groups", 1963).  This holds
in the derived convention; the paper convention's carried class multiplies
it by (1 + t) for each factor that ``carried_factors`` marks.  The expected
side reads only ``LieFactor.degrees``, so a degree list that does not match
the Weyl group's characteristic polynomials fails here, in every degree.
The data are the tags of the benchmark's ``tables`` and five more.

For the rank-1 groups SU2 and Sp1 the same product with the k-th tensor
power of the torus character gives Hom(Z^k, G)_1 at every k, against its
closed form.
"""

import json
from math import comb
from pathlib import Path

import pytest

from confab.exact import as_trimmed_tuple, poly_mul
from confab.weyl import (
    CONVENTIONS,
    carried_factors,
    datum,
    flag_character,
    invariant_dims,
    kunneth,
    torus_character,
)

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
TAGS = sorted(
    set(json.loads(GOLDEN.read_text(encoding="utf-8"))["tables"])
    | {"Sp4", "U6", "S1xS1", "S1xSU2", "U1xSU2"}
)


def group_cohomology(d, convention):
    """prod (1 + t^(2d - 1)) over every invariant degree, times (1 + t)^m."""
    series = (1,)
    for factor in d.factors:
        for degree in factor.degrees:
            series = poly_mul(series, (1,) + (0,) * (2 * degree - 2) + (1,))
    for _ in range(sum(carried_factors(d, convention))):
        series = poly_mul(series, (1, 1))
    return tuple(series)


def k1_dims(d, convention):
    total = kunneth(flag_character(d, convention), torus_character(d))
    return as_trimmed_tuple(invariant_dims(total).values())


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("tag", TAGS)
def test_k1_table_is_the_cohomology_of_the_group(tag, convention):
    d = datum(tag)
    assert k1_dims(d, convention) == group_cohomology(d, convention)


@pytest.mark.parametrize("tag", ["SU2", "Sp1"])
@pytest.mark.parametrize("k", range(1, 9))
def test_commuting_tuples_of_a_rank1_group(tag, k):
    # Hom(Z^k, G)_1 through the flag tensor the k-th tensor power of the
    # torus character: sum C(k, j) t^j over even j plus sum C(k, j) t^(j+2)
    # over odd j, 1 + t^3 at k = 1 and Adem-Cohen's 1 + t^2 + 2 t^3 at k = 2
    d = datum(tag)
    total = flag_character(d)
    for _ in range(k):
        total = kunneth(total, torus_character(d))
    expected = [0] * (k + 3)
    for j in range(k + 1):
        expected[j + 2 * (j % 2)] += comb(k, j)
    dims = as_trimmed_tuple(invariant_dims(total).values())
    assert dims == as_trimmed_tuple(expected)
