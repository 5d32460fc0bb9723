"""Finite groups by conjugacy class, character catalogs and decomposition.

A group is known only through its conjugacy classes: one label per class,
the identity's class first, and the number of elements in each.  Nothing
here enumerates elements; the Weyl module supplies the classes in closed
form.  Every character in use is rational, so each class is its own inverse
class and the class-function pairing needs no inverse map.  Published tables
depend on class order only through class *values*, never through indices.

Characters are stored per conjugacy class, each value an exact rational kept
as an ``int`` when integral and as a ``Fraction`` only when it is not (the
storage rule of ``confab.exact``).  Rational characters are integer valued,
so in practice every value is an ``int`` and ``fractions`` is never loaded.
What is decomposed is a graded character, ``confab.weyl.GradedCharacter``;
a class function is one concentrated in degree 0, such as its ``piece(n)``.

A catalog is built from value rows, one square table per factor, by one
constructor that checks one group and a direct product alike.  A product's
catalog keeps one table per factor and the joined labels, never the
Kronecker product they form on the product's classes.  One kernel applies
such tables: each acts on the leading axis by adding whole blocks of
values, C k_j additions for a factor of k_j characters on C classes instead
of C^2.  ``decompose`` lays a graded character out as (classes...,
degree) and pairs every degree in one pass; the multiplicities must be
nonnegative integers and, sent back through the transposed tables, give
the traces again.  A catalog checks its shape, not its orthogonality,
which would cost O(k^2 C); the tests prove the tables confab ships
orthonormal and complete.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import product
from math import prod
from operator import add, sub

from .exact import as_exact_tuple, exact_div

TRIVIAL_LABEL = "1"
Parts = tuple[tuple[str, int], ...]  # (label, multiplicity), nonzero only


class GroupMismatch(ValueError):
    """Graded characters, or a character and a catalog, over different
    groups were combined."""


class NotACharacter(ValueError):
    """A graded character failed to decompose into nonnegative integer
    parts in some degree."""


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


class IrreducibleCatalog:
    """A complete list of irreducible characters with stable labels.

    ``tables`` holds one square table of values by character per factor: a
    single group's catalog has one, and ``product`` makes a direct
    product's from its factors' catalogs through this same constructor.
    Construction checks the shape of the table the factors' tables stand
    for: unique labels, every table square, one label and one conjugacy
    class of ``group`` per character, squared dimensions summing to the
    group order, and exact values, never floats.  A decomposition checks
    that its parts reassemble the traces on every call.
    """

    __slots__ = ("group", "labels", "tables")

    def __init__(
        self,
        group: FiniteGroup,
        labels: Sequence[str],
        tables: Sequence[Sequence[Sequence]],
    ):
        labels = tuple(labels)
        tables = tuple(tuple(map(as_exact_tuple, table)) for table in tables)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels: {labels}")
        if any(len(row) != len(table) for table in tables for row in table):
            raise ValueError("one value per conjugacy class required")
        count = prod(map(len, tables))
        if count != len(labels):
            raise ValueError("one label per character required")
        if count != len(group.classes):
            raise ValueError("one character per conjugacy class required")
        squares = (sum(row[0] * row[0] for row in table) for table in tables)
        if prod(squares) != group.order:
            raise ValueError("squared dimensions do not sum to group order")
        self.group = group
        self.labels = labels
        self.tables = tables

    @classmethod
    def product(
        cls, group: FiniteGroup, factors: Sequence[IrreducibleCatalog]
    ) -> IrreducibleCatalog:
        """The catalog of a direct product whose classes, in ``group``, are
        the ``itertools.product`` of the factors' classes.  A label joins the
        labels of the factors with a nontrivial group by "⊗" (bare labels
        would collide for isomorphic factors); with none, it is trivial.
        """
        shown = [c.labels for c in factors if c.group.order != 1]
        return cls(
            group,
            ("⊗".join(parts) or TRIVIAL_LABEL for parts in product(*shown)),
            (t for c in factors for t in c.tables),
        )


def _apply(values: list, tables: Sequence[Sequence[Sequence]]) -> list:
    # values in row-major order: each table in turn acts on the leading
    # axis, whose result goes last.  Row i adds the leading axis's blocks,
    # each times its entry (0 skips it, 1 and -1 use it as is), and its sum
    # fills every k-th place
    for table in tables:
        k = len(table)
        stride = len(values) // k
        blocks = [values[j * stride : (j + 1) * stride] for j in range(k)]
        out = [0] * len(values)
        zeros = [0] * stride
        for i, row in enumerate(table):
            acc = zeros
            for entry, block in zip(row, blocks):
                if entry == 1:
                    acc = block if acc is zeros else list(map(add, acc, block))
                elif entry == -1:
                    acc = list(map(sub, acc, block))
                elif entry:
                    acc = list(map(add, acc, [entry * v for v in block]))
            out[i::k] = acc
        values = out
    return values


def decompose(gc, catalog: IrreducibleCatalog) -> list[Parts]:
    """Multiplicities of a graded character in catalog order, one tuple of
    nonzero (label, multiplicity) pairs per degree 0..``gc.top``, in one
    pass; a zero character gives [].

    ``NotACharacter`` names the degree.  Only ``gc.group`` and ``gc.traces``
    are read, so ``confab.weyl``'s graded characters need no import here.
    """
    # traces holds each class's values by degree, low first, missing values
    # zero.  Laid out as (classes..., degree), one _apply pairs every degree
    # and leaves (degree, characters...); the multiplicities, laid out as
    # (characters..., degree), go back through the transposed tables
    group = gc.group
    if group != catalog.group:
        raise GroupMismatch("decomposing against a foreign catalog")
    depth = max(map(len, gc.traces))
    columns = [(*trace, *(0,) * (depth - len(trace))) for trace in gc.traces]
    weighted = [size * v for size, c in zip(group.sizes, columns) for v in c]
    order = group.order
    mults = [exact_div(t, order) for t in _apply(weighted, catalog.tables)]
    del weighted
    width = len(catalog.labels)
    rows = [mults[n * width : (n + 1) * width] for n in range(depth)]
    out = []
    for n, row in enumerate(rows):
        parts = []
        for label, mult in zip(catalog.labels, row):
            if mult.denominator != 1 or mult < 0:
                raise NotACharacter(
                    f"multiplicity of {label} in degree {n} is {mult}, "
                    "not a nonnegative integer"
                )
            if mult:
                parts.append((label, mult))
        out.append(tuple(parts))
    transposes = [tuple(zip(*table)) for table in catalog.tables]
    back = _apply([m for column in zip(*rows) for m in column], transposes)
    for n, piece in enumerate(zip(*columns)):
        if tuple(back[n * width : (n + 1) * width]) != piece:
            raise NotACharacter(
                f"class function in degree {n} is not in the catalog's span"
            )
    return out


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

