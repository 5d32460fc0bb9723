"""Exact rational linear algebra and univariate polynomials.

Everything downstream (character theory, Molien series, monodromy kernels)
runs on these two types, so they stay deliberately small: dense matrices and
dense coefficient-tuple polynomials over the rationals.  An exact rational is
stored as an ``int`` when it is integral and as a ``fractions.Fraction`` only
when it is not; every division goes through ``exact_div``, which keeps that
rule.  Characters, Molien coefficients and integer matrices therefore stay in
plain ``int`` arithmetic, and mixed ``int``/``Fraction`` arithmetic
is exact either way (``int`` has ``numerator`` and ``denominator`` too).  No
floats anywhere; a division that should be exact but is not raises
``NonZeroRemainder`` instead of rounding, because a nonzero remainder always
means an upstream datum is corrupt rather than a numerical artifact.

Matrices act on column vectors: ``m.apply(v)`` is ``m @ v``, and composition
``a.mul(b)`` means "apply ``b`` first".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class NonZeroRemainder(ArithmeticError):
    """An exact division left a remainder."""


class Singular(ArithmeticError):
    """A matrix expected to be invertible is not."""


def as_exact(value) -> int | Fraction:
    """``value`` as an ``int`` when integral, else a ``Fraction``.

    Accepts ints, Fractions and rational strings; a float is rejected, since
    it may already have been rounded.
    """
    if type(value) is int:
        return value
    if not isinstance(value, (int, Fraction, str)):
        raise TypeError(f"not an exact rational: {value!r}")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_div(a, b) -> int | Fraction:
    """The exact quotient a / b: an ``int`` when b divides a, else a Fraction.

    The one division of exact values in confab; it never returns a float and
    raises ZeroDivisionError for b = 0.
    """
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
        return Fraction(a, b)
    return as_exact(Fraction(as_exact(a)) / as_exact(b))


def as_exact_tuple(values) -> tuple[int | Fraction, ...]:
    """``as_exact`` on each value, skipping the ints that need no work."""
    return tuple(v if type(v) is int else as_exact(v) for v in values)


class RationalPolynomial:
    """Polynomial in one variable, coefficients low degree first.

    The zero polynomial is the empty tuple and reports degree -1.  Trailing
    zero coefficients are trimmed at construction so equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cleaned = list(as_exact_tuple(coeffs))
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs: tuple[int | Fraction, ...] = tuple(cleaned)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "RationalPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * degree + (coefficient,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, degree: int) -> int | Fraction:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, point) -> int | Fraction:
        point = as_exact(point)
        total = 0
        for c in reversed(self.coeffs):
            total = total * point + c
        return as_exact(total)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero() or other.is_zero():
            return RationalPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))

    def scale(self, value) -> "RationalPolynomial":
        value = as_exact(value)
        return RationalPolynomial(tuple(c * value for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return " + ".join(parts)


def poly_div_exact(
    numerator: RationalPolynomial, denominator: RationalPolynomial
) -> RationalPolynomial:
    """Divide, insisting the remainder vanish.

    A nonzero remainder is a data error (corrupt Weyl degrees, a character
    that is not actually a character), so it raises instead of returning a
    (quotient, remainder) pair nobody would check.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(numerator.coeffs)
    den = denominator.coeffs
    lead = den[-1]
    dd = len(den) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = exact_div(c, lead)
        quot[i - dd] = factor
        for j in range(dd + 1):
            rem[i - dd + j] -= factor * den[j]
    if any(c != 0 for c in rem):
        raise NonZeroRemainder(
            f"division of {numerator} by {denominator} leaves a remainder"
        )
    return RationalPolynomial(tuple(quot))


class QMatrix:
    """Dense matrix over the rationals, row-major entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.entries: tuple[int | Fraction, ...] = as_exact_tuple(entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        return cls(len(rows), width, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(
            n,
            n,
            tuple(1 if i == j else 0 for i in range(n) for j in range(n)),
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int | Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                out.append(
                    sum(left[k] * other.entry(k, j) for k in range(self.cols))
                )
        return QMatrix(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return self.mul(other)

    def add(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def sub(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, value) -> "QMatrix":
        value = as_exact(value)
        return QMatrix(
            self.rows, self.cols, tuple(e * value for e in self.entries)
        )

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols,
            self.rows,
            tuple(
                self.entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

    def trace(self) -> int | Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return as_exact(
            sum(self.entries[i * self.cols + i] for i in range(self.rows))
        )

    def apply(self, vector: Sequence) -> tuple[int | Fraction, ...]:
        vec = as_exact_tuple(vector)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match columns")
        return as_exact_tuple(
            sum(self.entry(i, j) * vec[j] for j in range(self.cols))
            for i in range(self.rows)
        )


def _eliminate(
    matrix: QMatrix,
) -> tuple[list[list[int | Fraction]], list[int]]:
    # Forward phase of Gauss-Jordan; returns reduced rows and pivot columns.
    rows = matrix.to_rows()
    pivots: list[int] = []
    r = 0
    for col in range(matrix.cols):
        pivot_row = None
        for i in range(r, matrix.rows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][col]
        rows[r] = [exact_div(e, lead) for e in rows[r]]
        for i in range(matrix.rows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == matrix.rows:
            break
    return rows, pivots


def rref(matrix: QMatrix) -> QMatrix:
    rows, _ = _eliminate(matrix)
    return QMatrix.from_rows(rows)


def rank(matrix: QMatrix) -> int:
    _, pivots = _eliminate(matrix)
    return len(pivots)


def kernel_basis(matrix: QMatrix) -> list[tuple[int | Fraction, ...]]:
    """Basis of the null space, one vector per free column, ascending."""
    rows, pivots = _eliminate(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [0] * matrix.cols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][free]
        basis.append(as_exact_tuple(vec))
    return basis


def det(matrix: QMatrix) -> int | Fraction:
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    rows = matrix.to_rows()
    result = 1
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            result = -result
        lead = rows[col][col]
        result *= lead
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                factor = exact_div(rows[i][col], lead)
                rows[i] = [
                    a - factor * b for a, b in zip(rows[i], rows[col])
                ]
    return as_exact(result)


def inverse(matrix: QMatrix) -> QMatrix:
    if matrix.rows != matrix.cols:
        raise Singular("inverse of a non-square matrix")
    n = matrix.rows
    augmented = QMatrix.from_rows(
        [
            list(matrix.row(i)) + [1 if j == i else 0 for j in range(n)]
            for i in range(n)
        ]
    )
    rows, pivots = _eliminate(augmented)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return QMatrix.from_rows([row[n:] for row in rows[:n]])


def char_matrix_poly(matrix: QMatrix, sign: int = 1) -> RationalPolynomial:
    """Coefficients of det(I + sign*t*g) as a polynomial in t.

    Evaluated exactly at t = 0..n and recovered by Newton interpolation,
    reusing the determinant kernel; degree is at most n so n+1 nodes pin the
    polynomial.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic data of a non-square matrix")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = matrix.rows
    if n == 0:
        return RationalPolynomial.one()
    nodes = range(n + 1)
    values = []
    for t in nodes:
        shifted = QMatrix.identity(n).add(matrix.scale(sign * t))
        values.append(det(shifted))
    # Newton divided differences, then expansion into monomial coefficients.
    coeffs = list(values)
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coeffs[i] = exact_div(
                coeffs[i] - coeffs[i - 1], nodes[i] - nodes[i - level]
            )
    poly = RationalPolynomial.zero()
    basis = RationalPolynomial.one()
    for i in range(n + 1):
        poly = poly + basis.scale(coeffs[i])
        basis = basis * RationalPolynomial((-nodes[i], 1))
    return poly

