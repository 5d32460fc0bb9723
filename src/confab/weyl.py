"""Weyl group data for the supported compact-group families.

A factor is its reflection datum: the classes of its Weyl group with their
sizes, det(1 - x w) for each class, its invariant degrees and the rank of
its fundamental group.  Supported factors are U(n), SU(n), Sp(n) and the
circle, which is U(1) under the tag S1; a datum is a finite product of
factors named by a tag like "S1xSU2".  Each Weyl group is given by its
conjugacy classes in closed form (Macdonald, *Symmetric Functions*, ch. I),
never by enumerating elements:

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
finite reflection groups", 1963), so the polynomial comes straight from the
cycle type; the binomials are multiplied into one tuple of int
coefficients, low degree first.  The classes are counted before they are
listed, p(n) for S_n and sum p(m) p(n - m) for B_n, and a factor or
product with more than ``MAX_CLASSES`` of them, or a product of torus rank
above ``MAX_RANK``, is refused.
``datum`` splits a tag once into its (prefix, n) factors and keeps one
datum per split, so every spelling of a tag shares it.

Cohomology enters as graded characters, stored as one graded trace
sum_n tr(w | H^n) t^n per conjugacy class: a tuple of exact coefficients,
trailing zeros trimmed.  The exterior algebra of the torus has trace
det(1 + t w), det(1 - x w) with its odd coefficients negated; the
coinvariant algebra of the flag manifold has the Molien quotient
prod(1 - q^d_i) / det(1 - q w) with q = t^2, so its cohomology sits in even
degrees.  A product class's trace is the product of its factor classes'
traces, and the Kunneth product convolves traces class by class.  The
Molien division is made factor by factor and must be exact; a nonzero
remainder means the degree list is corrupt and surfaces as NonZeroRemainder
rather than silently wrong dimensions.  Invariant dimensions are the Molien
average (1/|W|) sum_C |C| tr_C(t), taken in one pass over the classes; a
non-integral or negative coefficient raises NotACharacter.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import groupby, product
from math import factorial, prod

from .exact import (
    as_trimmed_tuple,
    # unused: kept bound because perfbench's traced run counts calls to it
    char_matrix_poly,  # noqa: F401
    exact_div,
    poly_div,
    poly_mul,
)
from .groups import (
    TRIVIAL_LABEL,
    FiniteGroup,
    GroupMismatch,
    IrreducibleCatalog,
    NotACharacter,
)

CONVENTIONS = ("derived", "paper")


def check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


# a signed cycle type: lengths of the positive cycles, of the negative cycles
CycleType = tuple[tuple[int, ...], tuple[int, ...]]


class UnsupportedDatum(ValueError):
    """A tag or datum outside the supported product family."""


# the most classes a factor or product may have: U45 has 89 134 and builds,
# U46 has 105 558; enumerating and scanning them grows with the count
MAX_CLASSES = 100_000
# the largest total torus rank; S1x...xS1 has one class at every rank
MAX_RANK = 64


def _partitions(n: int, largest: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, all ones first."""
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, largest or n) + 1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _class_count(n: int, signed: bool) -> int:
    """Classes of S_n, p(n), or of B_n, sum p(m) p(n - m); exact to n = 64."""
    n = min(n, MAX_RANK)  # p(64) alone is past MAX_CLASSES
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return sum(p[m] * p[n - m] for m in range(n + 1)) if signed else p[n]


def _check_size(count: int, name: str, rank: int = 0) -> None:
    if count > MAX_CLASSES:
        raise UnsupportedDatum(
            f"{name} has more than {MAX_CLASSES} Weyl group classes"
        )
    if rank > MAX_RANK:
        raise UnsupportedDatum(f"{name} has torus rank more than {MAX_RANK}")


def _centralizer(lengths: tuple[int, ...], weight: int) -> int:
    # prod over cycle lengths l of multiplicity m of (weight * l)^m m!; a
    # partition is non-increasing, so the m equal lengths form one run
    out = 1
    for length, run in groupby(lengths):
        m = len(tuple(run))
        out *= (weight * length) ** m * factorial(m)
    return out


def _det_one_minus(cycle_type: CycleType) -> list[int]:
    """Coefficients of det(1 - x w) in x, from the signed cycle type."""
    alpha, beta = cycle_type
    coeffs = [1]
    for lengths, sign in ((alpha, 1), (beta, -1)):
        for length in lengths:
            # multiply by 1 - sign x^length, top coefficient first
            coeffs += [0] * length
            for i in range(len(coeffs) - 1, length - 1, -1):
                coeffs[i] -= sign * coeffs[i - length]
    return coeffs


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


def _weyl_classes(
    n: int, signed: bool
) -> tuple[FiniteGroup, tuple[tuple[int, ...], ...]]:
    """S_n or B_n on Q^n by signed cycle type, with det(1 - x w) per class."""
    _check_size(_class_count(n, signed), f"{'B' if signed else 'S'}_{n}")
    types = tuple(
        (alpha, beta)
        for m in (range(n, -1, -1) if signed else (n,))
        for alpha in _partitions(m)
        for beta in _partitions(n - m)
    )
    weight = 2 if signed else 1
    order = factorial(n) * weight**n
    group = FiniteGroup(
        types,
        tuple(
            order // (_centralizer(a, weight) * _centralizer(b, weight))
            for a, b in types
        ),
    )
    return group, tuple(tuple(_det_one_minus(t)) for t in types)


class LieFactor:
    """One factor of a supported product, as its reflection datum.

    Five values make a factor: ``tag``; ``degrees``, the invariant degrees,
    whose number is the ``rank``; ``pi1_rank``, the rank of the fundamental
    group; ``group``, the Weyl group's classes labelled by signed cycle type
    with their sizes; and ``charpolys``, det(1 - x w) per class as a tuple
    of int coefficients, low degree first.  Equality
    and hashing use those five.  ``catalog`` is derived from the group: the
    named irreducibles of S1, S2, S3, B1 and B2, None for larger Weyl groups.
    The builders below are the way to make one.
    """

    __slots__ = ("tag", "degrees", "pi1_rank", "group", "charpolys", "catalog")

    def __init__(
        self,
        tag: str,
        degrees: tuple[int, ...],
        pi1_rank: int,
        group: FiniteGroup,
        charpolys: tuple[tuple[int, ...], ...],
    ):
        if len(charpolys[0]) - 1 != len(degrees):
            raise UnsupportedDatum("one invariant degree per rank required")
        if prod(degrees) != group.order:
            raise UnsupportedDatum(
                f"invariant degrees {degrees} do not multiply to the "
                f"Weyl group order {group.order}"
            )
        self.tag = tag
        self.degrees = degrees
        self.pi1_rank = pi1_rank
        self.group = group
        self.charpolys = charpolys
        types = group.classes
        # keyed by (signed, n): the identity has n positive 1-cycles
        named = _NAMED_CHARACTERS.get(
            (any(beta for _, beta in types), len(types[0][0]))
        )
        self.catalog = None
        if named is not None:
            table = [[1] * len(types)]
            table += ([f(a, b) for a, b in types] for f in named.values())
            self.catalog = IrreducibleCatalog(
                group, (TRIVIAL_LABEL, *named), [table]
            )

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def _key(self) -> tuple:
        return (
            self.tag, self.degrees, self.pi1_rank, self.group, self.charpolys
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def unitary(n: int) -> LieFactor:
    if n < 1:
        raise UnsupportedDatum("U(n) needs n >= 1")
    group, charpolys = _weyl_classes(n, False)  # refuses a huge n first
    return LieFactor(f"U{n}", tuple(range(1, n + 1)), 1, group, charpolys)


def circle() -> LieFactor:
    """U(1) under the tag S1."""
    return LieFactor("S1", (1,), 1, *_weyl_classes(1, False))


def special_unitary(n: int) -> LieFactor:
    if n < 2:
        raise UnsupportedDatum("SU(n) needs n >= 2")
    group, charpolys = _weyl_classes(n, False)
    # drop the trivial summand of the permutation representation: 1 - x
    return LieFactor(
        f"SU{n}",
        tuple(range(2, n + 1)),
        0,
        group,
        tuple(tuple(poly_div(p, (1, -1))) for p in charpolys),
    )


def symplectic(n: int) -> LieFactor:
    if n < 1:
        raise UnsupportedDatum("Sp(n) needs n >= 1")
    group, charpolys = _weyl_classes(n, True)
    return LieFactor(
        f"Sp{n}", tuple(range(2, 2 * n + 1, 2)), 0, group, charpolys
    )


# the prefix of each factor tag with its builder; "S1" is the circle alone
_BUILDERS = {"SU": special_unitary, "Sp": symplectic, "U": unitary}


def _split_tag(tag: str) -> tuple[tuple[str, int], ...]:
    """(prefix, n) per factor of a tag like "S1xSU2", the circle ("S", 1).

    A factor is S1 or a prefix and Unicode decimal digits, in any case.  A
    rank with more significant digits than ``MAX_CLASSES`` has more classes
    than that, and is refused before ``int`` reads it.
    """
    if not isinstance(tag, str):
        raise TypeError(f"tag must be a string, not {tag!r}")
    out = []
    for part in tag.strip().replace("X", "x").split("x"):
        name = part.strip().upper()
        prefix = next((p for p in _BUILDERS if name.startswith(p.upper())), "")
        digits = name[len(prefix) :]
        if name == "S1":
            prefix, digits = "S", "1"
        elif not (prefix and digits.isdecimal()):
            raise UnsupportedDatum(f"unrecognized factor {part!r} in {tag!r}")
        # leading zeros, in any script, are not significant: U01 is U1
        lead = next((i for i, c in enumerate(digits) if int(c)), -1)
        if len(digits[lead:]) > len(str(MAX_CLASSES)):
            raise UnsupportedDatum(
                f"factor {part!r} has more than {MAX_CLASSES} Weyl group "
                "classes"
            )
        out.append((prefix, int(digits[lead:])))
    return tuple(out)


def parse_tag(tag: str) -> tuple[LieFactor, ...]:
    """Split a tag like "S1xSU2" into factors; case-insensitive."""
    return _build_factors(_split_tag(tag), tag)


def _build_factors(
    split: tuple[tuple[str, int], ...], tag: str
) -> tuple[LieFactor, ...]:
    # the product's class count and rank are checked before a factor is built
    _check_size(
        prod(_class_count(n, prefix == "Sp") for prefix, n in split),
        repr(tag),
        sum(n - (prefix == "SU") for prefix, n in split),
    )
    return tuple(
        circle() if prefix == "S" else _BUILDERS[prefix](n)
        for prefix, n in split
    )


class WeylDatum:
    """A product of supported factors with its assembled Weyl group.

    Each class of a product group is the tuple of its factor classes, one
    per factor, in ``itertools.product`` order, so the identity comes first;
    class sizes multiply across factors.  A one-factor datum takes the
    factor's group and catalog as they are.  A product's catalog keeps the
    factors' tables when every factor has one (``IrreducibleCatalog.product``)
    and decompositions run through them factor by factor; larger factors
    still support invariant dimensions, just not named decompositions.
    """

    def __init__(self, factors: Sequence[LieFactor]):
        factors = tuple(factors)
        if not factors:
            raise UnsupportedDatum("a datum needs at least one factor")
        self.factors = factors
        self.tag = "x".join(f.tag for f in factors)
        self.rank = sum(f.rank for f in factors)
        self.pi1_rank = sum(f.pi1_rank for f in factors)
        _check_size(
            prod(len(f.group.classes) for f in factors), self.tag, self.rank
        )
        if len(factors) == 1:
            self.group = factors[0].group
            self.catalog = factors[0].catalog
            return
        self.group = FiniteGroup(
            tuple(product(*(f.group.classes for f in factors))),
            tuple(map(prod, product(*(f.group.sizes for f in factors)))),
        )
        catalogs = [f.catalog for f in factors]
        self.catalog = (
            None
            if any(c is None for c in catalogs)
            else IrreducibleCatalog.product(self.group, catalogs)
        )

    def __repr__(self) -> str:
        return f"WeylDatum({self.tag!r}, rank={self.rank})"


def _join_tag(split: tuple[tuple[str, int], ...]) -> str:
    return "x".join(f"{p}{n}" for p, n in split)


def canonical_tag(tag: str) -> str:
    """``tag`` as "S1xSp2" for "s1 X sp02", checked without building a class."""
    return _join_tag(_split_tag(tag))


def datum(tag: str) -> WeylDatum:
    """The datum of a tag, one object per group however the tag is spelt."""
    return _datum(_split_tag(tag))


@lru_cache(maxsize=None)
def _datum(split: tuple[tuple[str, int], ...]) -> WeylDatum:
    # keyed by the split tag, which every spelling of a group shares
    return WeylDatum(_build_factors(split, _join_tag(split)))


class GradedCharacter:
    """Graded traces of a group on a finite graded space, one per class.

    ``traces`` holds, in the group's class order, the coefficients of
    sum_n tr(g | H^n) t^n for an element g of each class: a tuple of exact
    values, low degree first, trailing zeros trimmed.  The identity's trace
    counts dimensions.  A class function is a graded character in degree
    0, each trace at most one value long; ``piece(n)`` is the one of the t^n
    coefficients.
    """

    __slots__ = ("group", "traces")

    def __init__(self, group: FiniteGroup, traces: Sequence[Sequence]):
        traces = tuple(map(as_trimmed_tuple, traces))
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
        return max(map(len, self.traces)) - 1

    def degrees(self) -> tuple[int, ...]:
        return tuple(
            n
            for n in range(self.top + 1)
            if any(n < len(trace) and trace[n] for trace in self.traces)
        )

    def piece(self, degree: int) -> GradedCharacter:
        """The t^degree coefficients in degree 0; zero outside 0..top."""
        end = degree + 1 if degree >= 0 else 0  # t[degree:0] is empty
        return GradedCharacter(self.group, [t[degree:end] for t in self.traces])

    def dims(self) -> dict[int, int]:
        """Total dimension per degree, 0..top inclusive."""
        identity = self.traces[0]
        out = {}
        for degree in range(self.top + 1):
            value = identity[degree] if degree < len(identity) else 0
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
    return GradedCharacter(a.group, tuple(map(poly_mul, a.traces, b.traces)))


def _product_traces(factor_traces: Sequence[Sequence[Sequence]]) -> tuple:
    # the trace of a product class is the product of its factor classes',
    # built one factor at a time in itertools.product order
    traces, *rest = factor_traces
    for factor in rest:
        traces = [poly_mul(a, b) for a in traces for b in factor]
    return tuple(traces)


def torus_character(d: WeylDatum) -> GradedCharacter:
    """Exterior algebra on degree-1 classes: det(1 + t g) per class."""
    # det(1 - x g) at x = -t: the odd coefficients change sign
    return GradedCharacter(
        d.group,
        _product_traces(
            [
                tuple(
                    [-c if i % 2 else c for i, c in enumerate(p)]
                    for p in f.charpolys
                )
                for f in d.factors
            ],
        ),
    )


def _factor_flag_traces(factor: LieFactor, carried: bool) -> tuple[list, ...]:
    """Graded traces on one factor's flag cohomology, per factor class."""
    if carried:
        return ([1, 1],)
    # prod(1 - q^d) is det(1 - q w) of a cycle type with cycle lengths d
    numerator = _det_one_minus((factor.degrees, ()))
    traces = []
    for p in factor.charpolys:
        quotient = poly_div(numerator, p)
        # q^m sits in cohomological degree 2m
        trace = [0] * (2 * len(quotient) - 1)
        trace[::2] = quotient
        traces.append(trace)
    return tuple(traces)


def carried_factors(d: WeylDatum, convention: str) -> tuple[bool, ...]:
    """Per factor, whether ``convention`` carries a degree-1 class for it.

    A factor with a trivial Weyl group has a point as its flag manifold.
    The paper convention instead carries a degree-1 class for each such
    factor, but only in a product that also has a factor with a
    non-trivial Weyl group; the derived convention carries none.  Every
    route that depends on the convention reads the rule here, and an
    unknown convention is refused here.
    """
    check_convention(convention)
    trivial = [f.group.order == 1 for f in d.factors]
    carry = convention == "paper" and not all(trivial)
    return tuple(carry and t for t in trivial)


def flag_character(d: WeylDatum, convention: str = "derived") -> GradedCharacter:
    """Coinvariant-algebra character of the product flag manifold.

    Molien quotient per factor class, multiplied across factors; a factor
    that ``carried_factors`` marks contributes its degree-1 class instead.
    """
    carried = carried_factors(d, convention)
    return GradedCharacter(
        d.group,
        _product_traces(list(map(_factor_flag_traces, d.factors, carried))),
    )


def invariant_dims(gc: GradedCharacter) -> dict[int, int]:
    """Dimension of the invariant part per degree, 0..top inclusive.

    Multiplicities of the trivial character; a non-integer or negative
    pairing means the input was not a genuine character.
    """
    # the Molien average: sum of |C| tr_C(t) over the classes, over |W|
    totals = [0] * (gc.top + 1)
    for size, trace in zip(gc.group.sizes, gc.traces):
        for degree, value in enumerate(trace):
            totals[degree] += size * value
    order = gc.group.order
    out = {}
    for degree, total in enumerate(totals):
        mult = exact_div(total, order)
        if mult.denominator != 1 or mult < 0:
            raise NotACharacter(
                f"invariant multiplicity {mult} in degree {degree}"
            )
        out[degree] = mult
    return out
