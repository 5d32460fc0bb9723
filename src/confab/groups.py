"""Finite groups by conjugacy class, class functions, and character catalogs.

A group is known only through its conjugacy classes: one label per class,
the identity's class first, and the number of elements in each.  Nothing
here enumerates elements; the Weyl module supplies the classes in closed
form.  Every character in use is rational, so each class is its own inverse
class and the class-function pairing needs no inverse map.  Published tables
depend on class order only through class *values*, never through indices.

Characters are stored per conjugacy class, each value an exact rational kept
as an ``int`` when integral and as a ``Fraction`` only when it is not (the
storage rule of ``confab.exact``).  Rational characters are integer valued,
so in practice every value is an ``int`` and ``fractions``, named here in
annotations only, is never loaded.  ``decompose`` pairs f with each
irreducible and subtracts the parts from a plain list of values, which must
reach zero.

A catalog checks its shape when it is built, not its orthogonality: pairing
every two characters costs O(k^2 C) for k characters on C classes, which is
cubic for a product's tensor catalog.  The tables confab ships are proved
orthonormal and complete by the tests instead.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Hashable, Sequence

from .exact import as_exact_tuple, exact_div

if TYPE_CHECKING:  # annotations only: fractions loads lazily, see exact
    from fractions import Fraction

TRIVIAL_LABEL = "1"


class GroupMismatch(ValueError):
    """Two class functions over different groups were combined."""


class NotACharacter(ValueError):
    """A class function failed to decompose into nonnegative integer parts."""


class FiniteGroup:
    """Conjugacy classes of a finite group, identity class first.

    ``classes`` holds one hashable label per class and ``sizes`` the number
    of elements in each; the order is their sum.
    """

    __slots__ = ("classes", "sizes")

    def __init__(self, classes: tuple[Hashable, ...], sizes: tuple[int, ...]):
        if not classes or len(classes) != len(sizes):
            raise ValueError("one size per conjugacy class required")
        if sizes[0] != 1 or any(size < 1 for size in sizes):
            raise ValueError("identity class first, every size positive")
        self.classes = classes
        self.sizes = sizes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.classes == other.classes and self.sizes == other.sizes

    def __hash__(self):
        return hash((self.classes, self.sizes))

    @property
    def order(self) -> int:
        return sum(self.sizes)


class ClassFunction:
    """A rational-valued function on the conjugacy classes of a group.

    Each value is an ``int`` when integral and a ``Fraction`` otherwise;
    floats are rejected.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Sequence):
        if len(values) != len(group.classes):
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values: tuple[int | Fraction, ...] = as_exact_tuple(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, self.values))

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "ClassFunction":
        return cls(group, (1,) * len(group.classes))

    @property
    def dim(self) -> int | Fraction:
        # value at the identity class
        return self.values[0]


class IrreducibleCatalog:
    """A complete list of irreducible characters with stable labels.

    Construction checks the shape of a character table: one unique label
    per character, every character over ``group``, one character per
    conjugacy class, and squared dimensions summing to the group order.  It
    does not pair characters: every catalog is one of the hand-written
    tables of ``confab.weyl`` or a tensor product of them, and the tests
    prove each of those orthonormal and complete.  ``decompose`` still
    checks that its parts reassemble the class function on every call.
    """

    def __init__(
        self,
        group: FiniteGroup,
        labels: Sequence[str],
        chars: Sequence[ClassFunction],
    ):
        labels = tuple(labels)
        chars = tuple(chars)
        if len(labels) != len(chars):
            raise ValueError("one label per character required")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels: {labels}")
        for c in chars:
            if c.group != group:
                raise GroupMismatch("catalog characters over a foreign group")
        if len(chars) != len(group.classes):
            raise ValueError("one character per conjugacy class required")
        if sum(c.dim * c.dim for c in chars) != group.order:
            raise ValueError("squared dimensions do not sum to group order")
        self.group = group
        self.labels = labels
        self.chars = chars


def decompose(
    f: ClassFunction, catalog: IrreducibleCatalog
) -> tuple[tuple[str, int], ...]:
    """Multiplicities of f in catalog order, nonzero entries only.

    Raises ``NotACharacter`` when any multiplicity is not a nonnegative
    integer or when the parts do not reassemble to f.
    """
    if f.group != catalog.group:
        raise GroupMismatch("decomposing against a foreign catalog")
    sizes, order = f.group.sizes, f.group.order
    weighted = [size * a for size, a in zip(sizes, f.values)]
    out = []
    remainder = list(f.values)
    for label, char in zip(catalog.labels, catalog.chars):
        mult = exact_div(sum(map(mul, weighted, char.values)), order)
        if mult.denominator != 1 or mult < 0:
            raise NotACharacter(
                f"multiplicity of {label} is {mult}, not a nonnegative integer"
            )
        if mult:
            out.append((label, mult))
            for i, value in enumerate(char.values):
                remainder[i] -= mult * value
    if any(remainder):
        raise NotACharacter("class function is not in the catalog's span")
    return tuple(out)


def format_decomposition(parts: Sequence[tuple[str, int]]) -> str:
    """Render multiplicities like "2 ⊕ 3σ"; the trivial label prints bare."""
    if not parts:
        return "0"
    chunks = []
    for label, mult in parts:
        if label == TRIVIAL_LABEL:
            chunks.append(str(mult))
            continue
        shown = f"({label})" if mult != 1 and "⊗" in label else label
        chunks.append(shown if mult == 1 else f"{mult}{shown}")
    return " ⊕ ".join(chunks)


def product_catalog(
    group: FiniteGroup, catalogs: Sequence[IrreducibleCatalog]
) -> IrreducibleCatalog:
    """Tensor catalog of a direct product of the catalogs' groups.

    Each class of ``group`` must be the tuple of factor class indices it
    covers, one per catalog.  Labels: the labels of the factors with a
    nontrivial group, joined by "⊗" (bare labels would collide for products
    of isomorphic factors); the trivial label when every factor is trivial.
    """
    labels: list[str] = []
    chars: list[ClassFunction] = []
    for combo in product(*(zip(c.labels, c.chars) for c in catalogs)):
        shown = [
            label
            for (label, _), catalog in zip(combo, catalogs)
            if catalog.group.order != 1
        ]
        labels.append("⊗".join(shown) or TRIVIAL_LABEL)
        chars.append(
            ClassFunction(
                group,
                tuple(
                    prod(char.values[i] for (_, char), i in zip(combo, cls))
                    for cls in group.classes
                ),
            )
        )
    return IrreducibleCatalog(group, labels, chars)
