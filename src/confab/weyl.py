"""Weyl group data for the supported compact-group families.

Supported factors: the circle, U(n), SU(n), Sp(n); a datum is a finite
product of factors named by a tag like "S1xSU2".  Each factor's Weyl group is
given by its conjugacy classes in closed form (Macdonald, *Symmetric
Functions*, ch. I), never by enumerating elements:

- circle: the trivial group acting on Q^1, no invariant degrees,
  fundamental-group rank 1
- U(n): the symmetric group S_n permuting Q^n; classes are partitions
  lambda of n, of size n!/z_lambda; degrees 1..n
- SU(n): the same S_n on its (n-1)-dimensional reflection representation,
  the permutation representation minus the trivial summand; degrees 2..n
- Sp(n): the hyperoctahedral group B_n of signed permutations of Q^n;
  classes are bipartitions (alpha, beta), the cycle lengths of positive and
  of negative cycles, of size 2^n n!/(z_alpha z_beta 2^(l(alpha)+l(beta)));
  degrees 2, 4, .., 2n

A product datum takes tuples of factor classes; sizes and characteristic
polynomials multiply across factors.  A cycle of length l and sign e
contributes the factor 1 - e x^l to det(1 - x w) (Solomon, "Invariants of
finite reflection groups", 1963), so both polynomials below come straight
from the cycle type.

Cohomology enters as graded characters, stored as one graded trace
sum_n tr(w | H^n) t^n per conjugacy class.  The exterior algebra of the torus
has trace det(1 + t w); the coinvariant algebra of the flag manifold has the
Molien quotient prod(1 - q^d_i) / det(1 - q w) with q = t^2, so its
cohomology sits in even degrees.  A product class's trace is the product of its factor
classes' traces, and the Kunneth product multiplies traces class by class.
The Molien division must be exact; a nonzero remainder means the degree list
is corrupt and surfaces as NonZeroRemainder rather than silently wrong
dimensions.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator, Sequence

from .exact import (
    RationalPolynomial,
    # unused: kept bound because perfbench's traced run counts calls to it
    char_matrix_poly,  # noqa: F401
    poly_div_exact,
)
from .groups import (
    TRIVIAL_LABEL,
    ClassFunction,
    FiniteGroup,
    GroupMismatch,
    IrreducibleCatalog,
    NotACharacter,
    inner_product,
    product_catalog,
)

CONVENTIONS = ("derived", "paper")


def check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


# a signed cycle type: lengths of the positive cycles, of the negative cycles
CycleType = tuple[tuple[int, ...], tuple[int, ...]]


class UnsupportedDatum(ValueError):
    """A tag or datum outside the supported product family."""


def _partitions(n: int, largest: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, all ones first."""
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, largest or n) + 1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _centralizer(lengths: tuple[int, ...], weight: int) -> int:
    # prod over cycle lengths l of multiplicity m of (weight * l)^m m!
    return prod(
        (weight * length) ** m * factorial(m)
        for length, m in Counter(lengths).items()
    )


def _det_one_minus(cycle_type: CycleType, s: int) -> RationalPolynomial:
    """det(1 - s x w) as a polynomial in x, from the signed cycle type."""
    alpha, beta = cycle_type
    poly = RationalPolynomial.one()
    for lengths, sign in ((alpha, 1), (beta, -1)):
        for length in lengths:
            poly = poly * (
                RationalPolynomial.one()
                - RationalPolynomial.monomial(length, sign * s**length)
            )
    return poly


def _perm_sign(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    # sign of the underlying permutation: (-1)^(n - number of cycles)
    return (-1) ** (sum(alpha) + sum(beta) - len(alpha) - len(beta))


def _cycle_sign(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    # product of the cycle signs, i.e. of the nonzero matrix entries
    return (-1) ** len(beta)


# the non-trivial irreducible characters of the small Weyl groups, keyed by
# (signed, n): Z2 for S2 and B1, S3, and D8 for B2.  Labels and their order
# are those of the published tables.  In D8, a is the permutation sign, b the
# cycle sign, c = ab the determinant and d the trace.
_NAMED_CHARACTERS = {
    (False, 1): {},
    (False, 2): {"σ": _perm_sign},
    (False, 3): {"std": lambda a, b: a.count(1) - 1, "sgn": _perm_sign},
    (True, 1): {"σ": _cycle_sign},
    (True, 2): {
        "a": _perm_sign,
        "b": _cycle_sign,
        "c": lambda a, b: _perm_sign(a, b) * _cycle_sign(a, b),
        "d": lambda a, b: a.count(1) - b.count(1),
    },
}


class LieFactor:
    """One factor of a supported product, with its Weyl group's classes.

    Five values name a factor: ``kind``, ``tag``, ``rank``, ``degrees`` and
    ``pi1_rank``; equality and hashing use those alone.  The constructor
    derives the rest from them: ``group`` (classes labelled by signed cycle
    type), ``torus_polys`` (det(1 + t w) per class), ``molien_denominators``
    (det(1 - q w) per class) and ``catalog`` (the named irreducibles of S1,
    S2, S3, B1 and B2; None for larger Weyl groups).
    """

    __slots__ = (
        "kind",
        "tag",
        "rank",
        "degrees",
        "pi1_rank",
        "group",
        "torus_polys",
        "molien_denominators",
        "catalog",
    )

    def __init__(
        self,
        kind: str,
        tag: str,
        rank: int,
        degrees: tuple[int, ...],
        pi1_rank: int,
    ):
        if kind == "circle" and degrees:
            raise UnsupportedDatum("a circle factor has no invariant degrees")
        if kind != "circle" and len(degrees) != rank:
            raise UnsupportedDatum("one invariant degree per rank required")
        self.kind = kind
        self.tag = tag
        self.rank = rank
        self.degrees = degrees
        self.pi1_rank = pi1_rank
        signed = kind == "symplectic"
        # the Weyl group is S_n or B_n; SU(n) acts on a rank n - 1 torus
        n = rank + 1 if kind == "special_unitary" else rank
        if signed:
            types = tuple(
                (alpha, beta)
                for m in range(n, -1, -1)
                for alpha in _partitions(m)
                for beta in _partitions(n - m)
            )
        else:
            types = tuple((alpha, ()) for alpha in _partitions(n))
        weight = 2 if signed else 1
        order = factorial(n) * weight**n
        group = FiniteGroup(
            types,
            tuple(
                order // (_centralizer(a, weight) * _centralizer(b, weight))
                for a, b in types
            ),
        )
        if kind != "circle" and prod(degrees) != group.order:
            raise UnsupportedDatum(
                f"invariant degrees {degrees} do not multiply to the "
                f"Weyl group order {group.order}"
            )
        torus = [_det_one_minus(t, -1) for t in types]
        molien = [_det_one_minus(t, 1) for t in types]
        if kind == "special_unitary":
            # drop the trivial summand of the permutation representation
            one_plus_t = RationalPolynomial((1, 1))
            one_minus_q = RationalPolynomial((1, -1))
            torus = [poly_div_exact(p, one_plus_t) for p in torus]
            molien = [poly_div_exact(p, one_minus_q) for p in molien]
        named = _NAMED_CHARACTERS.get((signed, n))
        catalog = None
        if named is not None:
            catalog = IrreducibleCatalog(
                group,
                (TRIVIAL_LABEL, *named),
                (ClassFunction.trivial(group),)
                + tuple(
                    ClassFunction(group, tuple(f(a, b) for a, b in types))
                    for f in named.values()
                ),
            )
        self.group = group
        self.torus_polys = tuple(torus)
        self.molien_denominators = tuple(molien)
        self.catalog = catalog

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.tag == other.tag
            and self.rank == other.rank
            and self.degrees == other.degrees
            and self.pi1_rank == other.pi1_rank
        )

    def __hash__(self):
        return hash(
            (self.kind, self.tag, self.rank, self.degrees, self.pi1_rank)
        )


def circle() -> LieFactor:
    return LieFactor("circle", "S1", 1, (), 1)


def unitary(n: int) -> LieFactor:
    if n < 1:
        raise UnsupportedDatum("U(n) needs n >= 1")
    return LieFactor("unitary", f"U{n}", n, tuple(range(1, n + 1)), 1)


def special_unitary(n: int) -> LieFactor:
    if n < 2:
        raise UnsupportedDatum("SU(n) needs n >= 2")
    return LieFactor(
        "special_unitary", f"SU{n}", n - 1, tuple(range(2, n + 1)), 0
    )


def symplectic(n: int) -> LieFactor:
    if n < 1:
        raise UnsupportedDatum("Sp(n) needs n >= 1")
    return LieFactor(
        "symplectic",
        f"Sp{n}",
        n,
        tuple(2 * i for i in range(1, n + 1)),
        0,
    )


_PART_PATTERN = re.compile(r"^(S1|SU(\d+)|SP(\d+)|U(\d+))$")


def parse_tag(tag: str) -> tuple[LieFactor, ...]:
    """Split a tag like "S1xSU2" into factors; case-insensitive."""
    parts = re.split(r"[xX]", tag.strip())
    factors = []
    for part in parts:
        m = _PART_PATTERN.match(part.strip().upper())
        if not m:
            raise UnsupportedDatum(f"unrecognized factor {part!r} in {tag!r}")
        if m.group(2):
            factors.append(special_unitary(int(m.group(2))))
        elif m.group(3):
            factors.append(symplectic(int(m.group(3))))
        elif m.group(4):
            factors.append(unitary(int(m.group(4))))
        else:
            factors.append(circle())
    if not factors:
        raise UnsupportedDatum(f"empty tag {tag!r}")
    return tuple(factors)


class WeylDatum:
    """A product of supported factors with its assembled Weyl group.

    Each class of the product group is the tuple of factor class indices it
    covers (``class_factor_classes``), identity first; class sizes multiply
    across factors.  The catalog is the tensor catalog when every factor has
    one; larger factors still support invariant dimensions, just not named
    decompositions.
    """

    def __init__(self, factors: Sequence[LieFactor], tag: str | None = None):
        factors = tuple(factors)
        if not factors:
            raise UnsupportedDatum("a datum needs at least one factor")
        self.factors = factors
        self.tag = tag or "x".join(f.tag for f in factors)
        self.rank = sum(f.rank for f in factors)
        self.pi1_rank = sum(f.pi1_rank for f in factors)
        self.class_factor_classes = tuple(
            product(*(range(len(f.group.classes)) for f in factors))
        )
        self.group = FiniteGroup(
            self.class_factor_classes,
            tuple(
                prod(f.group.sizes[i] for f, i in zip(factors, cls))
                for cls in self.class_factor_classes
            ),
        )
        catalogs = [f.catalog for f in factors]
        self.catalog = (
            None
            if any(c is None for c in catalogs)
            else product_catalog(self.group, catalogs)
        )

    def __repr__(self) -> str:
        return f"WeylDatum({self.tag!r}, rank={self.rank})"


@lru_cache(maxsize=None)
def datum(tag: str) -> WeylDatum:
    return WeylDatum(parse_tag(tag))


class GradedCharacter:
    """Graded traces of a group on a finite graded space, one per class.

    ``traces`` holds, in the group's class order, the polynomial
    sum_n tr(g | H^n) t^n for an element g of each class; the identity's
    trace counts dimensions.  The degree-n piece is the class function of
    the t^n coefficients.
    """

    __slots__ = ("group", "traces")

    def __init__(
        self, group: FiniteGroup, traces: Sequence[RationalPolynomial]
    ):
        traces = tuple(traces)
        if len(traces) != len(group.classes):
            raise ValueError("one graded trace per conjugacy class required")
        self.group = group
        self.traces = traces

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group and self.traces == other.traces

    def __hash__(self):
        return hash((self.group, self.traces))

    @property
    def top(self) -> int:
        return max(trace.degree for trace in self.traces)

    def degrees(self) -> tuple[int, ...]:
        return tuple(
            n
            for n in range(self.top + 1)
            if any(trace.coefficient(n) for trace in self.traces)
        )

    def piece(self, degree: int) -> ClassFunction:
        return ClassFunction(
            self.group, tuple(trace.coefficient(degree) for trace in self.traces)
        )

    def dims(self) -> dict[int, int]:
        """Total dimension per degree, 0..top inclusive."""
        identity = self.traces[0]
        out = {}
        for degree in range(self.top + 1):
            value = identity.coefficient(degree)
            if value.denominator != 1:
                raise NotACharacter(f"non-integral dimension in degree {degree}")
            out[degree] = int(value)
        return out

    def total_dim(self) -> int:
        return sum(self.dims().values())


def kunneth(a: GradedCharacter, b: GradedCharacter) -> GradedCharacter:
    """Graded tensor product: graded traces multiply class by class."""
    if a.group != b.group:
        raise GroupMismatch("tensor of graded characters over different groups")
    return GradedCharacter(
        a.group, tuple(p * q for p, q in zip(a.traces, b.traces))
    )


def _product_traces(
    d: WeylDatum, factor_traces: Sequence[Sequence[RationalPolynomial]]
) -> tuple[RationalPolynomial, ...]:
    # the trace of a product class is the product of its factor classes'
    return tuple(
        prod(
            (traces[i] for traces, i in zip(factor_traces, cls)),
            start=RationalPolynomial.one(),
        )
        for cls in d.class_factor_classes
    )


def torus_character(d: WeylDatum) -> GradedCharacter:
    """Exterior algebra on degree-1 classes: det(1 + t g) per class."""
    return GradedCharacter(
        d.group, _product_traces(d, [f.torus_polys for f in d.factors])
    )


def _factor_flag_traces(
    factor: LieFactor, convention: str, has_noncircle: bool
) -> tuple[RationalPolynomial, ...]:
    """Graded traces on one factor's flag cohomology, per factor class."""
    if factor.kind == "circle":
        # the quotient of a circle by its maximal torus is a point; the
        # alternative convention treats the circle factor as carried along,
        # contributing a degree-1 class, but only in genuinely mixed products
        if convention == "paper" and has_noncircle:
            return (RationalPolynomial((1, 1)),)
        return (RationalPolynomial.one(),)
    numerator = RationalPolynomial.one()
    for deg in factor.degrees:
        numerator = numerator * (
            RationalPolynomial.one()
            + RationalPolynomial.monomial(deg, -1)
        )
    # q^m sits in cohomological degree 2m: substitute q = t^2
    return tuple(
        RationalPolynomial(
            tuple(
                c
                for coefficient in poly_div_exact(numerator, denominator).coeffs
                for c in (coefficient, 0)
            )
        )
        for denominator in factor.molien_denominators
    )


def flag_character(d: WeylDatum, convention: str = "derived") -> GradedCharacter:
    """Coinvariant-algebra character of the product flag manifold.

    Molien quotient per factor class, multiplied across factors.
    ``convention`` only affects circle factors inside mixed products; see
    ``_factor_flag_traces``.
    """
    check_convention(convention)
    has_noncircle = any(f.kind != "circle" for f in d.factors)
    return GradedCharacter(
        d.group,
        _product_traces(
            d,
            [
                _factor_flag_traces(f, convention, has_noncircle)
                for f in d.factors
            ],
        ),
    )


def invariant_dims(gc: GradedCharacter) -> dict[int, int]:
    """Dimension of the invariant part per degree, 0..top inclusive.

    Multiplicities of the trivial character; a non-integer or negative
    pairing means the input was not a genuine character.
    """
    trivial = ClassFunction.trivial(gc.group)
    out = {}
    for degree in range(gc.top + 1):
        mult = inner_product(gc.piece(degree), trivial)
        if mult.denominator != 1 or mult < 0:
            raise NotACharacter(
                f"invariant multiplicity {mult} in degree {degree}"
            )
        out[degree] = int(mult)
    return out
