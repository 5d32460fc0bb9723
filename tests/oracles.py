"""Independent oracles that only the tests use.

Each recomputes a quantity from confab's public routines along a second
route (elimination, class-function pairings, polynomial products), so a
test can check a result without the library carrying code it never calls.
"""

from confab.exact import QMatrix, RationalPolynomial, rank, rref
from confab.groups import ClassFunction, inner_product


def kernel_basis(matrix: QMatrix) -> list[tuple]:
    """Basis of the null space, one vector per free column, ascending."""
    rows = [row for row in rref(matrix).to_rows() if any(row)]
    pivots = [next(j for j, e in enumerate(row) if e) for row in rows]
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        vec = [0] * matrix.cols
        vec[free] = 1
        for row, pivot in zip(rows, pivots):
            vec[pivot] = -row[free]
        basis.append(tuple(vec))
    return basis


def fixed_space_dim(a: QMatrix, b: QMatrix) -> int:
    """Dimension of the simultaneous fixed space of two actions on Q^n."""
    n = a.rows
    eye = QMatrix.identity(n)
    stacked = QMatrix.from_rows(a.sub(eye).to_rows() + b.sub(eye).to_rows())
    return n - rank(stacked)


def pairing_invariant_dims(gc) -> dict[int, int]:
    """Invariant dimension per degree as <piece, trivial>, degree by degree."""
    trivial = ClassFunction.trivial(gc.group)
    return {
        degree: inner_product(gc.piece(degree), trivial)
        for degree in range(gc.top + 1)
    }


def binomial_charpoly(cycle_type) -> RationalPolynomial:
    """det(1 - x w) as the product of the binomials 1 - e x^l per cycle."""
    alpha, beta = cycle_type
    out = RationalPolynomial.one()
    for lengths, sign in ((alpha, 1), (beta, -1)):
        for length in lengths:
            out = out * RationalPolynomial((1,) + (0,) * (length - 1) + (-sign,))
    return out
