"""Graded characters of torus configuration spaces.

``conf2_torus`` handles ordered pairs of distinct torus points: translating
the first point to the identity gives T x (T - {1}), and T - {1} carries the
exterior classes of T below the top degree (the fundamental class dies when a
point is removed), all respected by the Weyl action.  So the graded character
is a Kunneth product of the full exterior character with its truncation.

``conf2_torus_minus_point_rank2`` is the rank-2 input to ordered triples:
Conf_3(T) is T x Conf_2(T - {1}), and Conf_2(T - {1}) fibers over T - {1}
with fiber a twice-punctured torus.  Degree 0 is trivial; degree 1 comes from
abelianizing the surface-braid presentation of the fundamental group; degree
2 is H^1 of the free group on the base loops h, v with coefficients in the
dual of fiber homology, the monodromy being conjugation words.  The
coordinate-swap symmetry of the torus acts through all three degrees and its
traces are what the Kunneth consumer needs.

``circle_conf`` and ``su2_conf`` summarize the degenerate rank-1 picture,
where configuration spaces fall apart into many components and first
cohomology stops matching the fundamental-group rank.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .exact import RationalPolynomial
from .weyl import (
    GradedCharacter,
    UnsupportedDatum,
    WeylDatum,
    kunneth,
    torus_character,
    unitary,
)

# loops on the twice-punctured torus: the two coordinate circles and a loop
# around the moving puncture
FIBER_GENERATORS = ("h~", "v~", "r~")

# action of the base loops on fiber homology, read off from conjugation
MONODROMY_H = {"h~": "h~", "v~": "r~ h~ v~ h~^-1", "r~": "r~"}
MONODROMY_V = {"h~": "r~^-1 v~ h~ v~^-1", "v~": "v~", "r~": "r~"}

# the coordinate swap of the torus exchanges the two circles and reverses
# the local orientation at the puncture
ALPHA_FIBER = {"h~": "v~", "v~": "h~", "r~": "r~^-1"}

# surface-braid presentation of pi_1(Conf_2(T - {1})) for the rank-2 torus:
# a_j, b_j are the coordinate loops of the j-th point, B23 the braiding
BIRMAN_GENERATORS = ("B23", "a2", "a3", "b2", "b3")
BIRMAN_RELATORS = (
    "a2 a3 a2^-1 a3^-1",
    "b2 b3 b2^-1 b3^-1",
    "B23 a2 B23^-1 a2^-1",
    "B23 a3 B23^-1 a3^-1",
    "B23 b2 B23^-1 b2^-1",
    "B23 b3 B23^-1 b3^-1",
    "b3 a3 a2^-1 b3^-1 a2 a3^-1 B23^-1",
    "b3 b2^-1 a3 b2 b3^-1 a3^-1 B23^-1",
)
ALPHA_BIRMAN = {
    "B23": "B23^-1",
    "a2": "b2",
    "a3": "b3",
    "b2": "a2",
    "b3": "a3",
}

def conf2_torus(d: WeylDatum) -> GradedCharacter:
    """Character of ordered pairs of distinct points in the torus of ``d``."""
    full = torus_character(d)
    truncated = GradedCharacter(
        d.group,
        tuple(RationalPolynomial(p.coeffs[: d.rank]) for p in full.traces),
    )
    return kunneth(full, truncated)


def _require_rank2_swap(d: WeylDatum) -> None:
    # the monodromy words are written in the basis that U2's Weyl group swaps
    if d.factors != (unitary(2),):
        raise UnsupportedDatum(
            "punctured-torus configuration data exists only for the rank-2 "
            "torus with coordinate-swap symmetry"
        )


@lru_cache(maxsize=None)
def conf2_torus_minus_point_rank2(d: WeylDatum) -> GradedCharacter:
    """Character of pairs of distinct points in the punctured rank-2 torus.

    The graded traces are 1 + dim H^1 t + dim H^2 t^2 on the identity class
    and 1 + tr(alpha | H^1) t + tr(alpha | H^2) t^2 on the coordinate swap
    alpha.  Requires the datum whose Weyl element is that swap; the
    derivation of the monodromy words is written in that basis.
    """
    _require_rank2_swap(d)
    # imported on first use: only k = 3 needs the free-group layer, and the
    # cache above runs this import once per process
    from .freegroup import (
        FreeGroupModule,
        abelianized_matrix,
        abelianized_relation_rows,
        contragredient,
        coordinate_quotient,
        h1_f2,
    )

    # degree 1: abelianized presentation; only the braiding generator dies
    rows = abelianized_relation_rows(BIRMAN_GENERATORS, BIRMAN_RELATORS)
    quotient = coordinate_quotient(len(BIRMAN_GENERATORS), rows)
    alpha_h1 = quotient.induced(
        abelianized_matrix(BIRMAN_GENERATORS, ALPHA_BIRMAN)
    )

    # degree 2: H^1 of the free group on the base loops with coefficients in
    # the dual of fiber homology
    a_h = abelianized_matrix(FIBER_GENERATORS, MONODROMY_H)
    a_v = abelianized_matrix(FIBER_GENERATORS, MONODROMY_V)
    alpha = abelianized_matrix(FIBER_GENERATORS, ALPHA_FIBER)
    module = FreeGroupModule(
        contragredient(a_h), contragredient(a_v), contragredient(alpha)
    )
    top = h1_f2(module)
    return GradedCharacter(
        d.group,
        (
            RationalPolynomial((1, quotient.dim, top.dim)),
            RationalPolynomial(
                (1, contragredient(alpha_h1).trace(), top.involution.trace())
            ),
        ),
    )


def conf3_torus_rank2(d: WeylDatum) -> GradedCharacter:
    """Character of ordered triples of distinct points in the rank-2 torus."""
    _require_rank2_swap(d)
    return kunneth(torus_character(d), conf2_torus_minus_point_rank2(d))


class CircleConfSummary(NamedTuple):
    """Configurations of k distinct points on the circle.

    The space deformation retracts to (k-1)! disjoint circles, one per
    cyclic order of the points.  Inversion of the circle reverses cyclic
    orders; it is recorded because the rank-1 Weyl action identifies
    components in pairs.
    """

    k: int
    components: int
    betti: tuple[int, int]
    reflection_fixed: int
    reflection_orbits: int


# the largest k whose (k - 1)! component count still converts to a decimal
# string under CPython's default limit of 4300 digits
MAX_K = 1559


def circle_conf(k: int) -> CircleConfSummary:
    if k < 2:
        raise UnsupportedDatum("need at least two points on the circle")
    if k > MAX_K:
        raise UnsupportedDatum(f"k must be at most {MAX_K}")
    components = math.factorial(k - 1)
    # a component puts point i + 1 at counterclockwise slot s_i after point
    # 1, and inversion sends slot s to slot k - s; a fixed component needs
    # s_i = k / 2 for every i, which only k = 2 allows, so the single k = 2
    # component is fixed and every other one pairs up with its mirror
    fixed = 1 if k == 2 else 0
    orbits = (components + fixed) // 2
    return CircleConfSummary(
        k, components, (components, components), fixed, orbits
    )


class SU2ConfSummary(NamedTuple):
    """Commuting k-tuples of pairwise-distinct elements in the rank-1 group.

    Commuting tuples land in a common maximal circle, so components follow
    the circle picture modulo the Weyl inversion.  Each freely identified
    pair of circle components contributes a twisted product of the 2-sphere
    with a circle; an inversion-fixed component keeps only the invariant
    classes, which is a 3-sphere pattern.
    """

    k: int
    components: int
    betti: tuple[int, int, int, int]


def su2_conf(k: int) -> SU2ConfSummary:
    if k < 1:
        raise UnsupportedDatum("need at least one point")
    if k == 1:
        # the group itself
        return SU2ConfSummary(1, 1, (1, 0, 0, 1))
    circle = circle_conf(k)
    fixed = circle.reflection_fixed
    pairs = (circle.components - fixed) // 2
    return SU2ConfSummary(
        k,
        fixed + pairs,
        (fixed + pairs, pairs, pairs, fixed + pairs),
    )
