"""Lefschetz fixed-point checks of the equivariant characters, class by class.

For a finite-order map w of a finite complex, the graded trace at t = -1
is the Euler characteristic of the fixed set.  The fixed set of a Weyl
element w on the torus T is a torus of dimension m1 with N1 components:
m1 is the multiplicity of the factor 1 - x in det(1 - x w), and N1 is the
value at x = 1 of det(1 - x w) / (1 - x)^m1.  So, on every class,
- Conf_2(T), whose fixed set is Conf_2(T^w), has trace N1 (N1 - 1) at
  t = -1 when T^w is finite and 0 otherwise;
- the flag manifold G/T, on which W acts freely, has trace |W| on the
  identity and 0 elsewhere (derived convention; the paper convention's
  carried class is not a fixed-point count);
- Conf_3 of the rank-2 torus has trace 0 on both U2 classes, whose fixed
  tori all have positive dimension.
These hold whatever route built the character, so a wrong trace on a
non-identity class fails here even where it cancels in the Molien average.
The data are the tags of the benchmark's ``tables``.
"""

import json
from pathlib import Path

import pytest

from confab.exact import poly_div
from confab.torusconf import conf2_torus, conf3_torus_rank2
from confab.weyl import datum, flag_character, torus_character

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
TAGS = sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))["tables"])


def at_minus_one(trace):
    return sum(-c if n % 2 else c for n, c in enumerate(trace))


def fixed_torus(torus_trace):
    """(m1, N1) of one class, from its trace det(1 + t w) on H*(T)."""
    # det(1 - x w) is det(1 + t w) at t = -x: the odd coefficients negate
    poly = [-c if n % 2 else c for n, c in enumerate(torus_trace)]
    m = 0
    while sum(poly) == 0:  # 1 - x divides exactly when x = 1 is a root
        poly = poly_div(poly, (1, -1))
        m += 1
    return m, sum(poly)


@pytest.mark.parametrize("tag", TAGS)
def test_conf2_trace_counts_fixed_pairs(tag):
    d = datum(tag)
    fixed = map(fixed_torus, torus_character(d).traces)
    for (m, n), trace in zip(fixed, conf2_torus(d).traces, strict=True):
        assert at_minus_one(trace) == (n * (n - 1) if m == 0 else 0)


@pytest.mark.parametrize("tag", TAGS)
def test_weyl_group_acts_freely_on_the_flag_manifold(tag):
    d = datum(tag)
    traces = flag_character(d, "derived").traces
    expected = [d.group.order] + [0] * (len(traces) - 1)
    assert [at_minus_one(t) for t in traces] == expected


def test_conf3_traces_vanish_at_minus_one():
    traces = conf3_torus_rank2(datum("U2")).traces
    assert [at_minus_one(t) for t in traces] == [0, 0]
