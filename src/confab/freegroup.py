"""First cohomology of rank-2 free groups with matrix coefficients.

A 1-cocycle on the free group on A, B with coefficients in a module M is
freely determined by its values on the generators, so

    H^1(F_2; M)  =  (M + M) / { ((A - 1)m, (B - 1)m) : m in M },

a quotient of Q^2n by the span of relation vectors.  Only its dimension
and the traces of operators on it are needed, and ``quotient_trace`` reads
both off one ``exact.eliminate`` of the relation rows: the pivots give the
dimension, and the reduced rows, each alone at its pivot, the trace.  No
basis of a quotient is ever chosen.

Monodromy actions arrive as words in named generators ("r~ h~ v~ h~^-1");
``abelianized_matrix`` turns word images into an integer matrix column by
column, and ``contragredient`` converts a homology action into the
corresponding cohomology action (inverse transpose).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence

from .exact import QMatrix, as_exact, eliminate, inverse, rank

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
    unknown = set(images) - set(generators)
    if unknown:
        raise MalformedWord(f"images given for unknown generators {unknown}")
    for name in generators:
        if name not in images:
            raise MalformedWord(f"no image given for generator {name!r}")
    rows = abelianized_relation_rows(
        generators, [images[name] for name in generators]
    )
    return QMatrix.from_rows(rows).transpose()


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


def quotient_trace(
    relations: Sequence[Sequence], operator: QMatrix
) -> tuple[int, int | Fraction]:
    """Dimension of Q^n / span(relations) and the trace ``operator`` induces.

    After reduction each relation row r_i has a pivot p_i where it alone is
    nonzero, so a vector v of the span is sum_j v[p_j] r_j.  The operator
    must map every r_i back into the span, or InvariantViolation is raised;
    the trace on the span is then sum_i (operator r_i)[p_i], and the trace on
    the quotient is what is left of the whole trace.
    """
    n = operator.rows
    if any(len(r) != n for r in relations):
        raise ValueError("relation length does not match the operator")
    # zipped with the pivots, the reduced rows stop before the zero rows
    reduced, pivots = eliminate(relations)
    span_trace = 0
    for r, p in zip(reduced, pivots):
        image = operator.apply(r)
        residue = image
        for r_j, p_j in zip(reduced, pivots):
            residue = [x - image[p_j] * y for x, y in zip(residue, r_j)]
        if any(residue):
            raise InvariantViolation(
                "operator does not preserve the relation span"
            )
        span_trace += image[p]
    return n - len(pivots), as_exact(operator.trace() - span_trace)


def h1_f2(
    a_action: QMatrix, b_action: QMatrix, involution: QMatrix
) -> tuple[int, int | Fraction]:
    """Dimension of H^1(F_2; M) and the trace ``involution`` induces on it.

    M is Q^n with invertible generator actions A, B.  A cocycle is a vector
    of Q^2n, its values on the two generators; the relations are the
    coboundaries ((A - 1)m, (B - 1)m): relation j is column j of A - 1,
    then column j of B - 1.  An involution squares to 1, intertwines
    (alpha A = B alpha) and swaps the two slots, applying alpha to each.
    """
    n = a_action.rows
    actions = (a_action, b_action)
    for name, m in zip("AB", actions):
        if m.rows != n or m.cols != n:
            raise InvariantViolation("actions must be square, same size")
        if rank(m.to_rows()) != n:
            raise InvariantViolation(f"generator action {name} is singular")
    relations = [
        [m.entry(i, j) - (i == j) for m in actions for i in range(n)]
        for j in range(n)
    ]
    eye = QMatrix.identity(n)
    if involution.rows != n or involution.cols != n:
        raise InvariantViolation("involution size mismatch")
    if involution.mul(involution) != eye:
        raise InvariantViolation("involution does not square to 1")
    if involution.mul(a_action) != b_action.mul(involution):
        raise InvariantViolation(
            "involution does not intertwine the generator actions"
        )
    zeros = [0] * n
    operator = QMatrix.from_rows(
        [zeros + list(involution.row(i)) for i in range(n)]
        + [list(involution.row(i)) + zeros for i in range(n)]
    )
    return quotient_trace(relations, operator)
