"""Exact rational linear algebra and univariate polynomials.

Everything downstream (character theory, Molien series, monodromy kernels)
runs on two forms, kept deliberately small: dense matrices over the
rationals, and polynomials as plain coefficient tuples, low degree first
with trailing zeros trimmed (the empty tuple is zero).  An exact rational is
stored as an ``int`` when it is integral and as a ``fractions.Fraction``
only when it is not; every division goes through ``exact_div``, which keeps
that rule.  Characters, Molien coefficients and integer matrices therefore
stay in plain ``int`` arithmetic, and ``fractions`` (with ``decimal`` and
``numbers``) is imported only on the first value that is not an ``int``;
``as_exact_tuple`` hands a tuple of ints back unchanged after one scan of
the value types.  Mixed ``int``/``Fraction`` arithmetic is exact either way
(``int`` has ``numerator`` and ``denominator`` too).  No floats anywhere; a
division that should be exact but is not raises ``NonZeroRemainder``
instead of rounding, because a nonzero remainder always means an upstream
datum is corrupt rather than a numerical artifact.

``poly_mul`` and ``poly_div`` are the one convolution and the one exact
division of coefficient sequences.  Dividing by a leading coefficient of 1
or -1, as every Molien divisor has, skips ``exact_div``.

A ``QMatrix`` is an operator on column vectors: ``m.apply(v)`` is ``m``
times the column ``v``, and ``a.mul(b)`` means "apply ``b`` first".  The
reductions, ``eliminate`` and ``rank``, take rows, not a ``QMatrix``.
"""

from __future__ import annotations

from collections.abc import Sequence


class NonZeroRemainder(ArithmeticError):
    """An exact division left a remainder."""


class Singular(ArithmeticError):
    """A matrix expected to be invertible is not."""


def as_exact(value) -> int | Fraction:
    """``value`` as an ``int`` when integral, else a ``Fraction``.

    Accepts ints and Fractions only.  A float is refused, since it may
    already have been rounded, and so is a string: every exact value in
    confab is computed, never parsed.
    """
    if type(value) is int:
        return value
    from fractions import Fraction

    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact rational: {value!r}")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def whole_number(name: str, value) -> int:
    """``value`` when it is an ``int``; a ``bool`` or anything else raises
    TypeError naming the argument ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def exact_div(a, b) -> int | Fraction:
    """The exact quotient a / b: an ``int`` when b divides a, else a Fraction.

    The one division of exact values in confab; it never returns a float and
    raises ZeroDivisionError for b = 0.
    """
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    from fractions import Fraction

    return as_exact(Fraction(as_exact(a)) / as_exact(b))


def as_exact_tuple(values) -> tuple[int | Fraction, ...]:
    """``as_exact`` on each value; a tuple of plain ints comes back as is."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    return tuple(v if type(v) is int else as_exact(v) for v in values)


def as_trimmed_tuple(values) -> tuple[int | Fraction, ...]:
    """``as_exact_tuple`` without trailing zeros: polynomial coefficients."""
    values = as_exact_tuple(values)
    end = len(values)
    while end and values[end - 1] == 0:
        end -= 1
    return values[:end]


def poly_mul(a: Sequence, b: Sequence) -> list:
    """Coefficients of a product, low degree first; trimmed if a and b are."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def poly_div(numerator: Sequence, denominator: Sequence) -> list:
    """Exact quotient of coefficient sequences; the denominator is trimmed.

    A nonzero remainder is a data error (corrupt Weyl degrees, a character
    that is not actually a character), so it raises instead of returning a
    (quotient, remainder) pair nobody would check.  A leading coefficient of
    the ``int`` 1 or -1 is its own inverse and needs no ``exact_div``.
    """
    if not denominator:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(numerator)
    lead = denominator[-1]
    unit = type(lead) is int and (lead == 1 or lead == -1)
    dd = len(denominator) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = c * lead if unit else exact_div(c, lead)
        quot[i - dd] = factor
        for j, d in enumerate(denominator, i - dd):
            rem[j] -= factor * d
    if any(rem):
        raise NonZeroRemainder(
            f"division of {_poly_text(numerator)} by "
            f"{_poly_text(denominator)} leaves a remainder"
        )
    return quot


def _poly_text(coeffs: Sequence) -> str:
    # "1 + 2*q + q^2"; the zero polynomial is "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*q" if c != 1 else "q")
        else:
            parts.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
    return " + ".join(parts) or "0"


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


def eliminate(
    rows: Sequence[Sequence],
) -> tuple[list[list[int | Fraction]], list[int]]:
    """Gauss-Jordan elimination of ``rows``: the reduced rows and pivots.

    Row i of the first ``len(pivots)`` rows has a 1 in column ``pivots[i]``,
    the only nonzero entry of that column, and the pivots increase; every
    later row is zero.  Eliminating the reduced rows gives them back.
    Ragged rows raise ValueError, and a float or string entry TypeError.
    """
    rows = [list(as_exact_tuple(row)) for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged rows")
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][col]
        rows[r] = [exact_div(e, lead) for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        if r + 1 == len(rows):
            break
    # int and Fraction arithmetic can leave an integral Fraction behind
    return [list(as_exact_tuple(row)) for row in rows], pivots


def rank(rows: Sequence[Sequence]) -> int:
    """The number of pivots ``eliminate`` finds in ``rows``."""
    return len(eliminate(rows)[1])


def inverse(matrix: QMatrix) -> QMatrix:
    if matrix.rows != matrix.cols:
        raise Singular("inverse of a non-square matrix")
    n = matrix.rows
    eye = QMatrix.identity(n)
    augmented = [matrix.row(i) + eye.row(i) for i in range(n)]
    rows, pivots = eliminate(augmented)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return QMatrix.from_rows([row[n:] for row in rows[:n]])


def char_matrix_poly(
    matrix: QMatrix, sign: int = 1
) -> tuple[int | Fraction, ...]:
    """Coefficients of det(I + sign*t*g) in t, low degree first, trimmed.

    Faddeev-LeVerrier, with no determinant: from M_1 = I, each step takes
    c_k = -tr(g M_k) / k and M_(k+1) = g M_k + c_k I, so that
    det(x I - g) = sum_k c_k x^(n-k) and the t^k coefficient is
    (-sign)^k c_k.  Integer matrices stay in ints throughout.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic data of a non-square matrix")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = matrix.rows
    eye = QMatrix.identity(n)
    coeffs, power = [1], eye
    for k in range(1, n + 1):
        product = matrix.mul(power)
        c = exact_div(-product.trace(), k)
        coeffs.append((-sign) ** k * c)
        power = QMatrix(
            n, n, [p + c * e for p, e in zip(product.entries, eye.entries)]
        )
    return as_trimmed_tuple(coeffs)
