"""Independent oracles that only the tests use.

Each recomputes a quantity from confab's public routines along a second
route (elimination, class-function pairings, polynomial products), so a
test can check a result without the library carrying code it never calls.
The class-function pairing ``inner_product`` and the pointwise
``class_sum`` and ``class_product`` live here, not in ``confab.groups``:
confab builds its character tables without pairing them, and the tests use
these three to prove every shipped table orthonormal and complete.  A
product's catalog keeps only its factors' tables; ``tensor_table`` builds
the flat table of every product of factor characters, C characters on C
classes, and ``flat_decompose`` pairs a class function with each of them,
the route confab's factor-by-factor ``decompose`` replaced.
Polynomials are coefficient tuples, low degree first and trimmed, as in
confab; the graded traces are rebuilt here by schoolbook multiplication and
by long division with ``exact_div`` on every coefficient, without confab's
``poly_mul`` and ``poly_div``, and ``poly_text`` writes a polynomial out as
confab's ``NonZeroRemainder`` message does.
"""

from collections import Counter
from functools import reduce
from itertools import product
from math import factorial, prod
from operator import add, mul

from confab.exact import (
    NonZeroRemainder,
    QMatrix,
    exact_div,
    rank,
    rref,
)
from confab.groups import ClassFunction, GroupMismatch


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


def inner_product(f: ClassFunction, g: ClassFunction):
    """Class-function pairing (1/|G|) sum over classes |C| f(C) g(C).

    Pairing f(C) with g(C) rather than g(C^-1) is exact for the rational
    characters confab uses; the sum is divided by |G| once.
    """
    if f.group != g.group:
        raise GroupMismatch("inner product across different groups")
    group = f.group
    total = sum(
        size * a * b for size, a, b in zip(group.sizes, f.values, g.values)
    )
    return exact_div(total, group.order)


def class_sum(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """f + g, class by class."""
    if f.group != g.group:
        raise GroupMismatch("class functions over different groups")
    return ClassFunction(f.group, tuple(map(add, f.values, g.values)))


def class_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """f * g, class by class: the character of the tensor product."""
    if f.group != g.group:
        raise GroupMismatch("class functions over different groups")
    return ClassFunction(f.group, tuple(map(mul, f.values, g.values)))


def characters(catalog) -> tuple[ClassFunction, ...]:
    """The characters of a one-group catalog, in catalog order."""
    (table,) = catalog.tables
    return tuple(ClassFunction(catalog.group, row) for row in table)


def factor_class_indices(d) -> list[tuple[int, ...]]:
    """Per class of a datum, the index of each factor class it names.

    A product's class is a tuple of factor classes; a one-factor datum's
    classes are its factor's own.
    """
    index = [{c: i for i, c in enumerate(f.group.classes)} for f in d.factors]
    classes = d.group.classes
    if len(d.factors) == 1:
        classes = [(c,) for c in classes]
    return [tuple(where[c] for where, c in zip(index, cls)) for cls in classes]


def tensor_table(d) -> tuple[tuple[str, ...], tuple[ClassFunction, ...]]:
    """Labels and characters of a datum's flat tensor table.

    One character per choice of a character in each factor's catalog, in
    ``itertools.product`` order, valued at each product class as the product
    of its factor characters at the factor classes that class names.  A
    label joins the labels of the factors with a nontrivial group by "⊗",
    and is "1" when every factor is trivial.
    """
    catalogs = [f.catalog for f in d.factors]
    classes = factor_class_indices(d)
    labels, chars = [], []
    for combo in product(*(zip(c.labels, characters(c)) for c in catalogs)):
        shown = [
            label
            for (label, _), c in zip(combo, catalogs)
            if c.group.order != 1
        ]
        labels.append("⊗".join(shown) or "1")
        values = tuple(
            prod(char.values[i] for (_, char), i in zip(combo, cls))
            for cls in classes
        )
        chars.append(ClassFunction(d.group, values))
    return tuple(labels), tuple(chars)


def flat_decompose(f: ClassFunction, table) -> tuple[tuple[str, int], ...]:
    """Nonzero pairings of f with every character of a flat table, in order."""
    pairs = (
        (label, inner_product(f, char)) for label, char in zip(*table)
    )
    return tuple((label, mult) for label, mult in pairs if mult)


def pairing_invariant_dims(gc) -> dict[int, int]:
    """Invariant dimension per degree as <piece, trivial>, degree by degree."""
    trivial = ClassFunction.trivial(gc.group)
    return {
        degree: inner_product(gc.piece(degree), trivial)
        for degree in range(gc.top + 1)
    }


def trimmed(coeffs) -> tuple:
    """Coefficients without trailing zeros, as a tuple."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_text(coeffs) -> str:
    """The polynomial written out in q, as "1 + 2*q + q^2"; zero is "0"."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        power = "" if i == 0 else "q" if i == 1 else f"q^{i}"
        if not power:
            terms.append(str(c))
        else:
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms) or "0"


def poly_product(a, b) -> tuple:
    """a * b, one coefficient product at a time."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def binomial_charpoly(cycle_type) -> tuple:
    """det(1 - x w) as the product of the binomials 1 - e x^l per cycle."""
    alpha, beta = cycle_type
    out = (1,)
    for lengths, sign in ((alpha, 1), (beta, -1)):
        for length in lengths:
            out = poly_product(out, (1,) + (0,) * (length - 1) + (-sign,))
    return out


def poly_quotient(numerator, denominator) -> tuple:
    """Long division with ``exact_div`` per coefficient; no remainder allowed."""
    rem = list(trimmed(numerator))
    den = trimmed(denominator)
    dd = len(den) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        factor = exact_div(rem[i], den[-1])
        quot[i - dd] = factor
        for j in range(dd + 1):
            rem[i - dd + j] -= factor * den[j]
    if any(rem):
        raise NonZeroRemainder(
            f"division of {poly_text(numerator)} by {poly_text(denominator)} "
            "leaves a remainder"
        )
    return trimmed(quot)


def _substitute(poly, sign: int, power: int) -> tuple:
    """poly(sign * t^power) as a polynomial in t."""
    coeffs = [0] * (power * max(len(poly) - 1, 0) + 1)
    for i, c in enumerate(poly):
        coeffs[power * i] = sign**i * c
    return trimmed(coeffs)


def _charpolys(factor) -> list:
    # det(1 - x w) per class; SU(n) divides out the trivial summand's 1 - x
    polys = [binomial_charpoly(t) for t in factor.group.classes]
    if factor.tag.startswith("SU"):
        polys = [poly_quotient(p, (1, -1)) for p in polys]
    return polys


def _product_traces(d, factor_traces) -> tuple:
    return tuple(
        reduce(
            poly_product,
            (traces[i] for traces, i in zip(factor_traces, cls)),
            (1,),
        )
        for cls in factor_class_indices(d)
    )


def torus_traces(d) -> tuple:
    """det(1 + t w) per class of the datum."""
    return _product_traces(
        d,
        [[_substitute(p, -1, 1) for p in _charpolys(f)] for f in d.factors],
    )


def flag_traces(d, convention: str) -> tuple:
    """The Molien quotients prod(1 - q^d) / det(1 - q w) at q = t^2."""
    carry = convention == "paper" and any(f.group.order > 1 for f in d.factors)
    per_factor = []
    for f in d.factors:
        if carry and f.group.order == 1:
            per_factor.append([(1, 1)])
            continue
        numerator = binomial_charpoly((f.degrees, ()))
        per_factor.append(
            [
                _substitute(poly_quotient(numerator, p), 1, 2)
                for p in _charpolys(f)
            ]
        )
    return _product_traces(d, per_factor)


def kunneth_traces(a, b) -> tuple:
    return tuple(map(poly_product, a, b))


def conf2_traces(d) -> tuple:
    """The torus traces times their truncation below degree ``d.rank``."""
    full = torus_traces(d)
    truncated = [trimmed(p[: d.rank]) for p in full]
    return kunneth_traces(full, truncated)


def counter_class_sizes(factor) -> tuple:
    """|W| / |centralizer| per signed cycle type, multiplicities by Counter."""
    alpha, beta = factor.group.classes[0]
    n = len(alpha) + len(beta)
    weight = 2 if any(b for _, b in factor.group.classes) else 1

    def centralizer(lengths):
        return prod(
            (weight * length) ** m * factorial(m)
            for length, m in Counter(lengths).items()
        )

    order = factorial(n) * weight**n
    return tuple(
        order // (centralizer(a) * centralizer(b))
        for a, b in factor.group.classes
    )
