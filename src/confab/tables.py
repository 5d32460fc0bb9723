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

from .exact import whole_number
from .groups import decompose_graded

# eager although a k = 2 table never reads it: the benchmark's traced run
# (perfbench/child.py) looks up confab.rings in sys.modules and wraps
# unordered_conf2_dims here by name before any command runs
from .rings import RingMap, RingPresentation, invariant_subring_dims
from .torusconf import conf2_torus, conf3_torus_rank2
from .weyl import (
    GradedCharacter,
    UnsupportedDatum,
    WeylDatum,
    canonical_tag,
    carried_factors,
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


def _conf_character(d: WeylDatum, k: int) -> GradedCharacter:
    if whole_number("k", k) == 2:
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
    parts = decompose_graded(total, d.catalog) if d.catalog else [None] * (top + 1)
    rows = tuple(TableRow(n, inv[n], parts[n]) for n in range(top + 1))
    return CohomologyTable(d.tag, k, convention, rows)


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
    flag_parts = decompose_graded(flag, d.catalog)
    conf_mults = [dict(parts) for parts in decompose_graded(conf, d.catalog)]
    dims = [0] * (len(flag_parts) + len(conf_mults) - 1)
    for f, parts in enumerate(flag_parts):
        for c, source in enumerate(conf_mults):
            for label, mult in parts:
                dims[f + c] += mult * source.get(label, 0)
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def first_cohomology_dim(d: WeylDatum, k: int) -> int:
    """k times the fundamental-group rank; valid from torus rank 2 up.

    Rank-1 data genuinely break the count: their configuration spaces fall
    into (k-1)! components and first cohomology grows accordingly.
    """
    if whole_number("k", k) < 1:
        raise ValueError("k must be at least 1")
    if d.rank < 2:
        raise RankTooSmall(
            f"first-cohomology count needs torus rank >= 2, got {d.rank}"
        )
    return k * d.pi1_rank


def _ceil_half(value: int) -> int:
    return -((-value) // 2)


def stable_bound(family: str, degree: int, k: int) -> int:
    """A rank from which H^degree is guaranteed stable, for U, SU or Sp."""
    whole_number("degree", degree)
    whole_number("k", k)
    if not isinstance(family, str):
        raise TypeError(f"family must be a string, not {family!r}")
    family = family.lower()
    if family not in ("u", "su", "sp"):
        raise ValueError("family must be one of u, su, sp")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    if family == "u":
        return max(_ceil_half(degree + k - 1), degree + 2)
    if family == "su":
        return max(_ceil_half(degree + k - 3), degree + 2)
    return degree + 2


# ---------------------------------------------------------------------------
# explicit ring presentations for the two fully computed pair cases


# each ring tag's hand data, written once; ``_ring_record`` adds the paper
# convention's carried a1, which every map fixes by keeping its label
class _RingRecord(NamedTuple):
    generators: tuple[tuple[str, int], ...]  # the pair ring
    vanishing: tuple[tuple[str, str], ...]
    swap: RingMap  # the point swap on the pair ring
    unordered: tuple[tuple[str, int], ...]  # the closed-form unordered ring
    flag: tuple[tuple[str, int], ...]  # the pre-invariant model's flag part
    weyl: RingMap  # the Weyl involution on the model


_RINGS = {
    "U2": _RingRecord(
        generators=(("b1", 1), ("c1", 1), ("d2", 2), ("e3", 3), ("f3", 3)),
        vanishing=(
            ("c1", "d2"), ("c1", "f3"), ("d2", "e3"), ("d2", "f3"), ("e3", "f3")
        ),
        swap={
            "b1": ((1, ("b1",)), (1, ("c1",))),
            "c1": ((-1, ("c1",)),),
            "d2": ((-1, ("d2",)),),
            "e3": ((1, ("e3",)), (1, ("f3",))),
            "f3": ((-1, ("f3",)),),
        },
        unordered=(("r1", 1), ("s3", 3)),
        flag=(("a2", 2),),
        weyl={
            "a2": ((-1, ("a2",)),),
            "x1": ((1, ("y1",)),),
            "y1": ((1, ("x1",)),),
            "z1": ((1, ("w1",)),),
            "w1": ((1, ("z1",)),),
        },
    ),
    "S1xSU2": _RingRecord(
        generators=(("x1", 1), ("z1", 1), ("c2", 2), ("d3", 3), ("e3", 3)),
        vanishing=(
            ("z1", "c2"), ("z1", "e3"), ("c2", "d3"), ("c2", "e3"), ("d3", "e3")
        ),
        swap={
            "x1": ((1, ("x1",)), (1, ("z1",))),
            "z1": ((-1, ("z1",)),),
            "c2": ((-1, ("c2",)),),
            "d3": ((1, ("d3",)), (1, ("e3",))),
            "e3": ((-1, ("e3",)),),
        },
        unordered=(("u1", 1), ("v3", 3)),
        flag=(("b2", 2),),
        weyl={
            "b2": ((-1, ("b2",)),),
            "y1": ((-1, ("y1",)),),
            "w1": ((-1, ("w1",)),),
        },
    ),
}
RING_TAGS = tuple(_RINGS)


def _ring_record(tag: str, convention: str) -> _RingRecord:
    # the spelling is checked before any Weyl class is built
    canonical = canonical_tag(tag)
    if canonical not in _RINGS:
        raise UnsupportedDatum(
            f"ring presentations cover {' and '.join(RING_TAGS)}, "
            f"not {canonical}"
        )
    record = _RINGS[canonical]
    if not any(carried_factors(datum(canonical), convention)):
        return record
    carried = (("a1", 1),)
    return record._replace(
        generators=carried + record.generators,
        unordered=carried + record.unordered,
        flag=carried + record.flag,
    )


def conf2_ring(tag: str, convention: str = "derived") -> RingPresentation:
    """Presentation of the pair-configuration cohomology ring."""
    record = _ring_record(tag, convention)
    return RingPresentation(record.generators, record.vanishing)


def conf2_ring_involution(tag: str) -> RingMap:
    """The point swap on the pair ring, under either convention."""
    return dict(_ring_record(tag, "derived").swap)


def unordered_conf2_ring(
    tag: str, convention: str = "derived"
) -> RingPresentation:
    """Closed-form presentation of the unordered-pair cohomology."""
    return RingPresentation(_ring_record(tag, convention).unordered)


# Conf_2(T) for a rank-2 torus: the exterior algebra on x1, y1 (the
# translated torus) times the truncated exterior algebra on z1, w1 (the
# punctured torus, top class removed, hence the forbidden pair)
_TORUS = (("x1", 1), ("y1", 1), ("z1", 1), ("w1", 1))
_TORUS_SWAP = {
    "x1": ((1, ("x1",)), (1, ("z1",))),
    "y1": ((1, ("y1",)), (1, ("w1",))),
    "z1": ((-1, ("z1",)),),
    "w1": ((-1, ("w1",)),),
}


def _unordered_model(
    tag: str, convention: str
) -> tuple[RingPresentation, RingMap, RingMap]:
    """Pre-invariant model: flag classes joined with Conf_2(T) classes.

    Returns the presentation with the Weyl and point-swap involutions;
    their joint fixed subspace is the unordered cohomology.
    """
    record = _ring_record(tag, convention)
    model = RingPresentation(record.flag + _TORUS, (("z1", "w1"),))
    return model, record.weyl, _TORUS_SWAP


def unordered_conf2_dims(
    d: WeylDatum, convention: str = "derived"
) -> tuple[int, ...]:
    """Betti numbers of unordered distinct commuting pairs.

    Computed from first principles as the simultaneous fixed subspace of the
    Weyl and point-swap involutions on the pre-invariant model ring.
    """
    presentation, weyl, swap = _unordered_model(d.tag, convention)
    return invariant_subring_dims(presentation, (weyl, swap))


def verify_all(convention: str = "derived") -> VerifyReport:
    """Recompute every pinned result and report PASS/FAIL/WARN lines.

    Each check is a (name, expected, compute) row; one loop runs them and
    turns a raised exception into a FAIL line naming the error.  Within one
    report the checks share each table (by tag, k and convention) and the
    characters behind the ``conf2-torus`` and ``conf2-total-dims`` lines;
    every datum comes from the cache that ``datum`` keeps.
    """
    # imported on first use: only a verification runs the suite, and without
    # a bytecode cache every other command would pay to compile it
    from .verify import report

    return report(convention)
