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
annotations only, is never loaded.

A direct product's catalog keeps one table per factor and the joined
labels, never the Kronecker product they form on the product's classes.
``decompose`` pairs f with them one factor axis at a time, C k_j products
for an axis of k_j characters on C classes instead of C^2.  It then checks
that the multiplicities give f back: one axis at a time, each nonzero entry
adds its multiple of a row of the factor's table, and zeros add nothing.
A catalog checks its shape, not its orthogonality, which would cost
O(k^2 C); the tests prove the tables confab ships orthonormal and complete.
"""

from __future__ import annotations

from itertools import product
from operator import add, mul
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

    Construction checks the shape of one group's character table: one
    unique label per character, every character over ``group``, one
    character per conjugacy class, and squared dimensions summing to the
    group order.  ``tables`` holds one table of values by character per
    factor: a single group's catalog has one, and ``product`` makes a
    direct product's from its factors' catalogs.  ``decompose`` checks that
    its parts reassemble the class function on every call.
    """

    __slots__ = ("group", "labels", "tables")

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
        self.tables = (tuple(c.values for c in chars),)

    @classmethod
    def product(
        cls, group: FiniteGroup, factors: Sequence[IrreducibleCatalog]
    ) -> IrreducibleCatalog:
        """The catalog of a direct product whose classes, in ``group``, are
        the ``itertools.product`` of the factors' classes.  A label joins the
        labels of the factors with a nontrivial group by "⊗" (bare labels
        would collide for isomorphic factors); with none, it is trivial.
        """
        catalog = object.__new__(cls)
        catalog.group = group
        shown = [c.labels for c in factors if c.group.order != 1]
        catalog.labels = tuple(
            "⊗".join(parts) or TRIVIAL_LABEL for parts in product(*shown)
        )
        catalog.tables = tuple(t for c in factors for t in c.tables)
        return catalog


def _contract(values: list, tables: Sequence[Sequence[Sequence]]) -> list:
    # values in row-major order, one square table per axis: each table in
    # turn is applied to the leading axis, whose result goes last, so after
    # the last table the axes are back in order
    for table in tables:
        stride = len(values) // len(table)
        columns = [values[r::stride] for r in range(stride)]
        values = [sum(map(mul, row, col)) for col in columns for row in table]
    return values


def _expand(values: list, tables: Sequence[Sequence[Sequence]]) -> list:
    # the inverse of _contract: each entry of the leading axis adds its
    # multiple of a table row, and the new axis goes last.  The entries
    # with leading index i form one contiguous block, all times row i, so
    # a block of zeros is skipped whole
    for table in tables:
        stride = len(values) // len(table)
        expanded = [0] * len(values)
        for i, row in enumerate(table):
            block = values[i * stride : (i + 1) * stride]
            if any(block):
                part = [m * v for m in block for v in row]
                expanded = list(map(add, expanded, part))
        values = expanded
    return values


def decompose(
    f: ClassFunction, catalog: IrreducibleCatalog
) -> tuple[tuple[str, int], ...]:
    """Multiplicities of f in catalog order, nonzero entries only.

    The class-size-weighted values of f are paired with one factor's table
    at a time.  Raises ``NotACharacter`` when any multiplicity is not a
    nonnegative integer or when the multiplicities, expanded back through
    the tables, do not give f.
    """
    if f.group != catalog.group:
        raise GroupMismatch("decomposing against a foreign catalog")
    order = f.group.order
    totals = _contract(list(map(mul, f.group.sizes, f.values)), catalog.tables)
    out = []
    mults = []
    for label, total in zip(catalog.labels, totals):
        mult = exact_div(total, order)
        if mult.denominator != 1 or mult < 0:
            raise NotACharacter(
                f"multiplicity of {label} is {mult}, not a nonnegative integer"
            )
        if mult:
            out.append((label, mult))
        mults.append(mult)
    if _expand(mults, catalog.tables) != list(f.values):
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

