"""Independent oracles that only the tests use.

Each recomputes a quantity from confab's public elimination routines, so a
test can check a result against a second route without the library carrying
code it never calls.
"""

from confab.exact import QMatrix, rank, rref


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
