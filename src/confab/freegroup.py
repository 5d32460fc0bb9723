"""First cohomology of rank-2 free groups with matrix coefficients.

A 1-cocycle on the free group on A, B with coefficients in a module M is
freely determined by its values on the generators, so

    H^1(F_2; M)  =  (M + M) / { ((A - 1)m, (B - 1)m) : m in M },

a plain coordinate quotient.  The quotient keeps a deterministic basis by
eliminating, for each relation, its highest-index coordinate; the earliest
listed generators therefore survive, which is what downstream fixtures and
rendered bases rely on.

Monodromy actions arrive as words in named generators ("r~ h~ v~ h~^-1");
``abelianized_matrix`` turns word images into an integer matrix column by
column, and ``contragredient`` converts a homology action into the
corresponding cohomology action (inverse transpose).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .exact import QMatrix, as_exact_tuple, inverse, rank, rref

_TOKEN = re.compile(r"^([^\s^]+)(?:\^(-?\d+))?$")


class MalformedWord(ValueError):
    """A word uses unknown generators or bad exponent syntax."""


class InvariantViolation(ValueError):
    """Module data breaks a structural requirement (invertibility, etc.)."""


def parse_word(
    word: str, generators: Sequence[str]
) -> tuple[tuple[int, int], ...]:
    """Tokenize a space-separated word into (generator index, exponent)."""
    positions = {name: i for i, name in enumerate(generators)}
    out = []
    for token in word.split():
        m = _TOKEN.match(token)
        if not m:
            raise MalformedWord(f"bad token {token!r}")
        name, exp = m.group(1), m.group(2)
        if name not in positions:
            raise MalformedWord(f"unknown generator {name!r} in {word!r}")
        out.append((positions[name], int(exp) if exp is not None else 1))
    return tuple(out)


def abelianized_matrix(
    generators: Sequence[str], images: Mapping[str, str]
) -> QMatrix:
    """Exponent-sum matrix of an endomorphism given by word images.

    Column j holds the exponent vector of the image of generator j, so the
    matrix acts on column vectors the same way the endomorphism acts on
    first homology.
    """
    generators = list(generators)
    unknown = set(images) - set(generators)
    if unknown:
        raise MalformedWord(f"images given for unknown generators {unknown}")
    n = len(generators)
    columns = []
    for name in generators:
        if name not in images:
            raise MalformedWord(f"no image given for generator {name!r}")
        vec = [0] * n
        for idx, exp in parse_word(images[name], generators):
            vec[idx] += exp
        columns.append(vec)
    return QMatrix.from_rows(
        [[columns[j][i] for j in range(n)] for i in range(n)]
    )


def abelianized_relation_rows(
    generators: Sequence[str], relators: Sequence[str]
) -> list[tuple[int, ...]]:
    """Exponent vectors of relator words; the rows killed in first homology."""
    rows = []
    n = len(generators)
    for relator in relators:
        vec = [0] * n
        for idx, exp in parse_word(relator, generators):
            vec[idx] += exp
        rows.append(tuple(vec))
    return rows


def contragredient(m: QMatrix) -> QMatrix:
    """Inverse transpose: the action induced on the dual module."""
    return inverse(m).transpose()


class CoordinateQuotient(NamedTuple):
    """Q^ambient modulo the span of relation vectors, with a chosen basis.

    ``survivors`` are the coordinates kept as the quotient basis; every
    eliminated coordinate is rewritten in surviving ones by ``projection``
    (shape survivors x ambient).  Relations pivot on their highest-index
    coordinate, so the earliest coordinates survive.
    """

    ambient_dim: int
    relations: tuple[tuple[int | Fraction, ...], ...]
    survivors: tuple[int, ...]
    projection: QMatrix

    @property
    def dim(self) -> int:
        return len(self.survivors)

    def inclusion(self) -> QMatrix:
        rows = []
        for i in range(self.ambient_dim):
            row = [0] * self.dim
            if i in self.survivors:
                row[self.survivors.index(i)] = 1
            rows.append(row)
        return QMatrix.from_rows(rows)

    def induced(self, operator: QMatrix) -> QMatrix:
        """Matrix of an ambient operator on the quotient basis.

        The operator must preserve the relation span; otherwise the quotient
        action is not well defined and InvariantViolation is raised.
        """
        if operator.rows != self.ambient_dim or operator.cols != self.ambient_dim:
            raise InvariantViolation("operator size does not match the ambient")
        for r in self.relations:
            image = operator.apply(r)
            if any(v != 0 for v in self.projection.apply(image)):
                raise InvariantViolation(
                    "operator does not preserve the relation span"
                )
        return self.projection.mul(operator).mul(self.inclusion())


def coordinate_quotient(
    ambient_dim: int, relations: Sequence[Sequence]
) -> CoordinateQuotient:
    rel_rows = []
    for r in relations:
        row = as_exact_tuple(r)
        if len(row) != ambient_dim:
            raise ValueError("relation length does not match the ambient")
        rel_rows.append(row)
    if rel_rows:
        reduced = rref(QMatrix.from_rows([row[::-1] for row in rel_rows]))
    else:
        reduced = QMatrix.zero(0, ambient_dim)
    expressions: dict[int, dict[int, int | Fraction]] = {}
    for i in range(reduced.rows):
        row = reduced.row(i)
        pivot_rev = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot_rev is None:
            continue
        pivot = ambient_dim - 1 - pivot_rev
        expressions[pivot] = {
            ambient_dim - 1 - j: -row[j]
            for j in range(pivot_rev + 1, ambient_dim)
            if row[j] != 0
        }
    survivors = tuple(
        i for i in range(ambient_dim) if i not in expressions
    )
    position = {coord: k for k, coord in enumerate(survivors)}
    proj_rows = [[0] * ambient_dim for _ in survivors]
    for j in range(ambient_dim):
        if j in position:
            proj_rows[position[j]][j] = 1
        else:
            for coord, coef in expressions[j].items():
                proj_rows[position[coord]][j] = coef
    projection = (
        QMatrix.from_rows(proj_rows)
        if survivors
        else QMatrix.zero(0, ambient_dim)
    )
    return CoordinateQuotient(
        ambient_dim, tuple(rel_rows), survivors, projection
    )


class FreeGroupModule:
    """An F_2-module: invertible actions of the two generators on Q^n.

    ``involution``, when given, intertwines the generators (alpha A = B
    alpha) and squares to the identity; it induces the coordinate-swap
    involution on H^1.
    """

    __slots__ = ("a_action", "b_action", "involution")

    def __init__(
        self,
        a_action: QMatrix,
        b_action: QMatrix,
        involution: QMatrix | None = None,
    ):
        n = a_action.rows
        for name, m in (("A", a_action), ("B", b_action)):
            if m.rows != n or m.cols != n:
                raise InvariantViolation("actions must be square, same size")
            if rank(m) != n:
                raise InvariantViolation(f"generator action {name} is singular")
        if involution is not None:
            if involution.rows != n or involution.cols != n:
                raise InvariantViolation("involution size mismatch")
            if involution.mul(involution) != QMatrix.identity(n):
                raise InvariantViolation("involution does not square to 1")
            if involution.mul(a_action) != b_action.mul(involution):
                raise InvariantViolation(
                    "involution does not intertwine the generator actions"
                )
        self.a_action = a_action
        self.b_action = b_action
        self.involution = involution

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.a_action == other.a_action
            and self.b_action == other.b_action
            and self.involution == other.involution
        )

    def __hash__(self):
        return hash((self.a_action, self.b_action, self.involution))

    @property
    def dim(self) -> int:
        return self.a_action.rows


class H1FreeGroup(NamedTuple):
    """H^1(F_2; M) with its chosen coordinate basis.

    Coordinates 0..n-1 are the cocycle values on the first generator,
    n..2n-1 those on the second; ``survivors`` indexes into that ambient.
    """

    dim: int
    survivors: tuple[int, ...]
    quotient: CoordinateQuotient
    involution: QMatrix | None


def h1_f2(module: FreeGroupModule) -> H1FreeGroup:
    """Cohomology of the rank-2 free group with coefficients in ``module``."""
    n = module.dim
    a, b = module.a_action, module.b_action
    eye = QMatrix.identity(n)
    a_shift = a.sub(eye)
    b_shift = b.sub(eye)
    relations = []
    for i in range(n):
        basis_vec = tuple(1 if j == i else 0 for j in range(n))
        relations.append(a_shift.apply(basis_vec) + b_shift.apply(basis_vec))
    quotient = coordinate_quotient(2 * n, relations)
    induced = None
    if module.involution is not None:
        alpha = module.involution
        # swap the two cocycle slots and apply alpha to each
        rows = []
        for i in range(2 * n):
            row = [0] * (2 * n)
            rows.append(row)
        for i in range(n):
            for j in range(n):
                rows[i][n + j] = alpha.entry(i, j)
                rows[n + i][j] = alpha.entry(i, j)
        induced = quotient.induced(QMatrix.from_rows(rows))
    return H1FreeGroup(quotient.dim, quotient.survivors, quotient, induced)


def fixed_space_dim(module: FreeGroupModule) -> int:
    """Dimension of the simultaneous fixed space of both generator actions."""
    n = module.dim
    eye = QMatrix.identity(n)
    stacked = QMatrix.from_rows(
        module.a_action.sub(eye).to_rows() + module.b_action.sub(eye).to_rows()
    )
    return n - rank(stacked)
