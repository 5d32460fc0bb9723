"""Assembled cohomology tables, shortcut routes and ring presentations.

The main entry point builds H^*(Conf_k^ab(G)) for a supported datum as the
Weyl-invariant part of (flag cohomology) tensor (torus configuration
cohomology).  Three independent routes cover the same answers and are cross
checked by ``verify_all``:

- the table route: full Kunneth character, then invariant multiplicities
- the shortcut route: pair flag irreducibles with configuration
  multiplicities degree by degree, never forming the big character
- the ring route: explicit square-zero presentations whose Hilbert series
  and fixed subrings must reproduce the same dimension tables

The checks themselves, with the pinned answers, live in ``confab.verify``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .groups import decompose

# eager although a k = 2 table never reads it: the benchmark's traced run
# (perfbench/child.py) looks up confab.rings in sys.modules and wraps
# unordered_conf2_dims here by name before any command runs
from .rings import (
    GeneratorAutomorphism,
    RingPresentation,
    invariant_subring_dims,
)
from .torusconf import conf2_torus, conf3_torus_rank2
from .weyl import (
    GradedCharacter,
    UnsupportedDatum,
    WeylDatum,
    check_convention,
    datum,
    flag_character,
    invariant_dims,
    kunneth,
)

if TYPE_CHECKING:
    from .verify import VerifyReport

TABLE1_TAGS = ("U2", "S1xSU2", "SU3", "Sp2")
TABLE2_TAGS = ("S1xS1", "U2", "S1xSU2", "SU3", "Sp2")


class RankTooSmall(ValueError):
    """A formula valid from torus rank 2 was asked about a rank-1 datum."""


class TableRow(NamedTuple):
    degree: int
    dimension: int
    decomposition: tuple[tuple[str, int], ...] | None


class CohomologyTable(NamedTuple):
    group: str
    k: int
    convention: str
    rows: tuple[TableRow, ...]

    def dims(self) -> tuple[int, ...]:
        return tuple(row.dimension for row in self.rows)

    @property
    def euler(self) -> int:
        return sum(
            (-1) ** row.degree * row.dimension for row in self.rows
        )

    def total_dim(self) -> int:
        return sum(row.dimension for row in self.rows)


def _conf_character(d: WeylDatum, k: int) -> GradedCharacter:
    if k == 2:
        return conf2_torus(d)
    if k == 3:
        return conf3_torus_rank2(d)
    raise UnsupportedDatum(
        "equivariant configuration data is available for k = 2 (any "
        "supported datum) and k = 3 (the rank-2 torus with swap symmetry)"
    )


def conf_ab_table(
    d: WeylDatum, k: int = 2, convention: str = "derived"
) -> CohomologyTable:
    """Cohomology of commuting k-tuples of distinct elements, as a table.

    Row dimension is the Weyl-invariant dimension in that degree; the
    decomposition records the full pre-invariant character (flag tensor
    configuration), whose trivial multiplicity equals the dimension.  Rows
    stop at the last nonzero dimension.
    """
    total = kunneth(flag_character(d, convention), _conf_character(d, k))
    inv = invariant_dims(total)
    top = max(deg for deg, dim in inv.items() if dim > 0)
    rows = []
    for degree in range(top + 1):
        dec = (
            decompose(total.piece(degree), d.catalog)
            if d.catalog is not None
            else None
        )
        rows.append(TableRow(degree, inv[degree], dec))
    return CohomologyTable(d.tag, k, convention, tuple(rows))


def shortcut_dims(
    d: WeylDatum, k: int = 2, convention: str = "derived"
) -> tuple[int, ...]:
    """Invariant dimensions without forming the Kunneth character.

    Pairs each flag irreducible in degree f with its multiplicity in the
    configuration character in degree n - f; summing those products is the
    trivial multiplicity of the tensor piece in degree n.
    """
    if d.catalog is None:
        raise UnsupportedDatum(
            "the shortcut route needs an irreducible catalog for the datum"
        )
    flag = flag_character(d, convention)
    conf = _conf_character(d, k)
    flag_parts = {
        deg: decompose(flag.piece(deg), d.catalog) for deg in flag.degrees()
    }
    conf_mults = {
        deg: dict(decompose(conf.piece(deg), d.catalog))
        for deg in conf.degrees()
    }
    dims = []
    for n in range(flag.top + conf.top + 1):
        total = 0
        for f, parts in flag_parts.items():
            source = conf_mults.get(n - f)
            if source is None:
                continue
            for label, mult in parts:
                total += mult * source.get(label, 0)
        dims.append(total)
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def first_cohomology_dim(d: WeylDatum, k: int) -> int:
    """k times the fundamental-group rank; valid from torus rank 2 up.

    Rank-1 data genuinely break the count: their configuration spaces fall
    into (k-1)! components and first cohomology grows accordingly.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if d.rank < 2:
        raise RankTooSmall(
            f"first-cohomology count needs torus rank >= 2, got {d.rank}"
        )
    return k * d.pi1_rank


class StabilityQuery:
    """Which rank parameter makes a given degree independent of the rank."""

    __slots__ = ("family", "degree", "k")

    def __init__(self, family: str, degree: int, k: int):
        family = family.lower()
        if family not in ("u", "su", "sp"):
            raise ValueError("family must be one of u, su, sp")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.family = family
        self.degree = degree
        self.k = k

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.family == other.family
            and self.degree == other.degree
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.family, self.degree, self.k))


def _ceil_half(value: int) -> int:
    return -((-value) // 2)


def stable_bound(query: StabilityQuery) -> int:
    """A rank from which H^N is guaranteed stable, N the query degree."""
    n = query.degree
    if query.family == "u":
        return max(_ceil_half(n + query.k - 1), n + 2)
    if query.family == "su":
        return max(_ceil_half(n + query.k - 3), n + 2)
    return n + 2


# ---------------------------------------------------------------------------
# explicit ring presentations for the two fully computed pair cases


def _ring_tag(tag: str) -> str:
    canonical = datum(tag).tag
    if canonical not in ("U2", "S1xSU2"):
        raise UnsupportedDatum(
            f"ring presentations cover U2 and S1xSU2, not {canonical}"
        )
    return canonical


def conf2_ring(tag: str, convention: str = "derived") -> RingPresentation:
    """Presentation of the pair-configuration cohomology ring."""
    canonical = _ring_tag(tag)
    check_convention(convention)
    if canonical == "U2":
        return RingPresentation.build(
            (("b1", 1), ("c1", 1), ("d2", 2), ("e3", 3), ("f3", 3)),
            (
                ("c1", "d2"),
                ("c1", "f3"),
                ("d2", "e3"),
                ("d2", "f3"),
                ("e3", "f3"),
            ),
        )
    generators = [("x1", 1), ("z1", 1), ("c2", 2), ("d3", 3), ("e3", 3)]
    if convention == "paper":
        generators.insert(0, ("a1", 1))
    return RingPresentation.build(
        tuple(generators),
        (
            ("z1", "c2"),
            ("z1", "e3"),
            ("c2", "d3"),
            ("c2", "e3"),
            ("d3", "e3"),
        ),
    )


def conf2_ring_involution(
    tag: str, convention: str = "derived"
) -> GeneratorAutomorphism:
    """The unordering involution (swap of the two points) on the pair ring."""
    canonical = _ring_tag(tag)
    check_convention(convention)
    if canonical == "U2":
        return GeneratorAutomorphism.build(
            {
                "b1": ((1, "b1"), (1, "c1")),
                "c1": ((-1, "c1"),),
                "d2": ((-1, "d2"),),
                "e3": ((1, "e3"), (1, "f3")),
                "f3": ((-1, "f3"),),
            }
        )
    return GeneratorAutomorphism.build(
        {
            "x1": ((1, "x1"), (1, "z1")),
            "z1": ((-1, "z1"),),
            "c2": ((-1, "c2"),),
            "d3": ((1, "d3"), (1, "e3")),
            "e3": ((-1, "e3"),),
        }
    )


def unordered_conf2_ring(
    tag: str, convention: str = "derived"
) -> RingPresentation:
    """Closed-form presentation of the unordered-pair cohomology."""
    canonical = _ring_tag(tag)
    check_convention(convention)
    if canonical == "U2":
        return RingPresentation.build((("r1", 1), ("s3", 3)))
    if convention == "paper":
        return RingPresentation.build(
            (("a1", 1), ("u1", 1), ("v3", 3))
        )
    return RingPresentation.build((("u1", 1), ("v3", 3)))


def _unordered_model(
    tag: str, convention: str
) -> tuple[RingPresentation, GeneratorAutomorphism, GeneratorAutomorphism]:
    """Pre-invariant model: flag classes joined with Conf_2(T) classes.

    Conf_2(T) for a rank-2 torus is the exterior algebra on x1, y1 (the
    translated torus) times the truncated exterior algebra on z1, w1 (the
    punctured torus, top class removed, hence the forbidden pair).  Returns
    the presentation with the Weyl and point-swap involutions; their joint
    fixed subspace is the unordered cohomology.
    """
    canonical = _ring_tag(tag)
    check_convention(convention)
    torus_gens = (("x1", 1), ("y1", 1), ("z1", 1), ("w1", 1))
    swap_images = {
        "x1": ((1, "x1"), (1, "z1")),
        "y1": ((1, "y1"), (1, "w1")),
        "z1": ((-1, "z1"),),
        "w1": ((-1, "w1"),),
    }
    if canonical == "U2":
        generators = (("a2", 2),) + torus_gens
        weyl_images = {
            "a2": ((-1, "a2"),),
            "x1": ((1, "y1"),),
            "y1": ((1, "x1"),),
            "z1": ((1, "w1"),),
            "w1": ((1, "z1"),),
        }
    else:
        flag_gens = (("b2", 2),)
        if convention == "paper":
            flag_gens = (("a1", 1), ("b2", 2))
        generators = flag_gens + torus_gens
        weyl_images = {
            "b2": ((-1, "b2"),),
            "y1": ((-1, "y1"),),
            "w1": ((-1, "w1"),),
        }
    presentation = RingPresentation.build(generators, (("z1", "w1"),))
    return (
        presentation,
        GeneratorAutomorphism.build(weyl_images),
        GeneratorAutomorphism.build(swap_images),
    )


def unordered_conf2_dims(
    d: WeylDatum, convention: str = "derived"
) -> tuple[int, ...]:
    """Betti numbers of unordered distinct commuting pairs.

    Computed from first principles as the simultaneous fixed subspace of the
    Weyl and point-swap involutions on the pre-invariant model ring.
    """
    presentation, weyl, swap = _unordered_model(d.tag, convention)
    return invariant_subring_dims(presentation, (weyl, swap))




def verify_all(convention: str = "derived", data=None) -> VerifyReport:
    """Recompute every pinned result and report PASS/FAIL/WARN lines.

    Each check is a (name, expected, compute) row; one loop runs them and
    turns a raised exception into a FAIL line naming the error.  ``data``
    optionally overrides the datum used for a tag (mapping tag ->
    WeylDatum) in every check that reads that tag.  Within one report each
    datum, table, flag character and pair character is computed once; the
    cache belongs to this call, so an override never reaches another report.
    """
    # imported on first use: only a verification runs the suite, and without
    # a bytecode cache every other command would pay to compile it
    from .verify import report

    return report(convention, data)
