"""Independent oracles that only the tests use.

Each recomputes a quantity from confab's public routines along a second
route (elimination, class-function pairings, polynomial products), so a
test can check a result without the library carrying code it never calls.
The class-function pairing ``inner_product`` and the pointwise
``class_sum`` and ``class_product`` live here, not in ``confab.groups``:
confab builds its character tables without pairing them, and the tests use
these three to prove every shipped table orthonormal and complete.  They
work on value tuples, one value per class; ``values`` reads them off a
class function, which confab keeps as a graded character in degree 0, and
``class_function`` builds one.  A product's catalog keeps only its
factors' tables; ``tensor_table`` builds the flat table of every product
of factor characters, C value rows on C classes, and ``flat_decompose``
pairs a class function's values with each of them, the route that
confab's one block kernel replaced: ``decompose`` on one piece in degree 0
and on every degree at once must both agree with it.
Polynomials are coefficient tuples, low degree first and trimmed, as in
confab; the graded traces are rebuilt here by schoolbook multiplication and
by long division with ``exact_div`` on every coefficient, without confab's
``poly_mul`` and ``poly_div``, and ``poly_text`` writes a polynomial out as
confab's ``NonZeroRemainder`` message does.  confab takes no determinant:
``det`` is a forward-only elimination, and ``det_char_poly`` recovers
det(I + sign*t*g) from its values at t = 0..n by Newton interpolation, the
reference for confab's determinant-free ``char_matrix_poly``.
A matrix is a sequence of rows, as in confab.  ``matmul`` and ``identity``
return tuples of tuples, which hash, so a test can collect a matrix group
in a set; ``qmatrix`` builds the ``QMatrix`` that ``char_matrix_poly``
takes.
"""

from collections import Counter
from functools import reduce
from itertools import product, zip_longest
from math import factorial, gcd, prod

from confab.exact import (
    NonZeroRemainder,
    QMatrix,
    as_exact,
    eliminate,
    exact_div,
    rank,
)
from confab.torusconf import conf2_torus
from confab.weyl import (
    GradedCharacter,
    flag_character,
    invariant_dims,
    kunneth,
    torus_character,
)


def identity(n: int) -> tuple[tuple, ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(matrix) -> tuple[tuple, ...]:
    return tuple(zip(*matrix))


def apply(matrix, vector) -> tuple:
    """The matrix times a column vector."""
    return tuple(sum(x * y for x, y in zip(row, vector)) for row in matrix)


def matmul(a, b) -> tuple[tuple, ...]:
    """The product a b, entry by entry: row of a against column of b."""
    columns = transpose(b)
    return tuple(apply(columns, row) for row in a)


def trace(matrix):
    return sum(row[i] for i, row in enumerate(matrix))


def qmatrix(matrix) -> QMatrix:
    """The rows as a ``QMatrix``, ``char_matrix_poly``'s input."""
    width = len(matrix[0]) if matrix else 0
    return QMatrix(len(matrix), width, [e for row in matrix for e in row])


def kernel_basis(matrix) -> list[tuple]:
    """Basis of the null space, one vector per free column, ascending."""
    rows, pivots = eliminate(matrix)
    width = len(matrix[0])
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [0] * width
        vec[free] = 1
        for row, pivot in zip(rows, pivots):
            vec[pivot] = -row[free]
        basis.append(tuple(vec))
    return basis


def fixed_space_dim(*actions) -> int:
    """Dimension of the simultaneous fixed space of actions on Q^n."""
    stacked = [
        [x - (i == j) for j, x in enumerate(row)]
        for m in actions
        for i, row in enumerate(m)
    ]
    return len(actions[0]) - rank(stacked)


def det(matrix):
    """The product of the pivots of a forward elimination, negated once per
    row swap; 0 if singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rows = [list(row) for row in matrix]
    result = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        lead = rows[col][col]
        result *= lead
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                factor = exact_div(rows[i][col], lead)
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return as_exact(result)


def det_char_poly(matrix, sign: int = 1) -> tuple:
    """det(I + sign*t*g) in t, trimmed, from ``det`` at t = 0..n.

    The degree is at most n, so n + 1 values pin the polynomial; Newton's
    divided differences give it in the basis t(t - 1)...(t - i + 1), which
    is then expanded into monomials.
    """
    n = len(matrix)
    shifted = (
        [
            [(i == j) + sign * t * g for j, g in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
        for t in range(n + 1)
    )
    coeffs = [det(m) for m in shifted]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coeffs[i] = exact_div(coeffs[i] - coeffs[i - 1], level)
    poly, basis = [0] * (n + 1), (1,)
    for i, c in enumerate(coeffs):
        for j, b in enumerate(basis):
            poly[j] += c * b
        basis = poly_product(basis, (-i, 1))
    return trimmed(poly)


def values(f) -> tuple:
    """The values of a class function, a graded character in degree 0."""
    assert all(len(trace) <= 1 for trace in f.traces), "not in degree 0"
    return tuple(trace[0] if trace else 0 for trace in f.traces)


def class_function(group, values) -> GradedCharacter:
    """The class function of one value per class, in degree 0."""
    return GradedCharacter(group, [(v,) for v in values])


def inner_product(group, f, g):
    """Class-function pairing (1/|G|) sum over classes |C| f(C) g(C).

    f and g are value tuples in ``group``'s class order.  Pairing f(C) with
    g(C) rather than g(C^-1) is exact for the rational characters confab
    uses; the sum is divided by |G| once.
    """
    total = sum(
        size * a * b for size, a, b in zip(group.sizes, f, g, strict=True)
    )
    return exact_div(total, group.order)


def class_sum(f, g) -> tuple:
    """f + g, class by class."""
    return tuple(a + b for a, b in zip(f, g, strict=True))


def class_product(f, g) -> tuple:
    """f * g, class by class: the character of the tensor product."""
    return tuple(a * b for a, b in zip(f, g, strict=True))


def characters(catalog) -> tuple[tuple, ...]:
    """The value rows of a one-group catalog, in catalog order."""
    (table,) = catalog.tables
    return table


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


def tensor_table(d) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """Labels and value rows of a datum's flat tensor table.

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
        chars.append(
            tuple(
                prod(row[i] for (_, row), i in zip(combo, cls))
                for cls in classes
            )
        )
    return tuple(labels), tuple(chars)


def flat_decompose(group, f, table) -> tuple[tuple[str, int], ...]:
    """Nonzero pairings of the values f with every row of a flat table."""
    pairs = (
        (label, inner_product(group, f, char)) for label, char in zip(*table)
    )
    return tuple((label, mult) for label, mult in pairs if mult)


def pairing_invariant_dims(gc) -> dict[int, int]:
    """Invariant dimension per degree as <piece, trivial>, degree by degree."""
    trivial = (1,) * len(gc.group.classes)
    return {
        degree: inner_product(gc.group, values(gc.piece(degree)), trivial)
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


def squared_cycle_type(cycle_type):
    """The signed cycle type of w^2: a cycle of length l and sign e becomes
    gcd(l, 2) cycles of length l / gcd(l, 2) and sign e^(2 / gcd(l, 2))."""
    signed = {1: [], -1: []}
    for lengths, sign in zip(cycle_type, (1, -1)):
        for length in lengths:
            g = gcd(length, 2)
            signed[sign ** (2 // g)] += [length // g] * g
    return tuple(tuple(sorted(signed[e], reverse=True)) for e in (1, -1))


def _charpolys(factor, squared: bool = False) -> list:
    # det(1 - x w), or det(1 - x w^2), per class; SU(n) divides out the
    # trivial summand's 1 - x
    types = factor.group.classes
    if squared:
        types = map(squared_cycle_type, types)
    polys = [binomial_charpoly(t) for t in types]
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


def square_charpolys(d) -> tuple:
    """det(1 - x w^2) per class of the datum, from the squared cycle types."""
    return _product_traces(d, [_charpolys(f, squared=True) for f in d.factors])


def swap_traces(d) -> tuple:
    """tr(sigma w) on H*(Conf_2(T)) per class, sigma the swap of the points.

    From confab's torus trace det(1 + t w): det(1 - t w) det(1 + t w) on
    H*(T x T), less the diagonal's (-t)^r det(w) det(1 + t w), where
    det(1 - t w) negates the odd coefficients and det(w) is the t^r one.
    """
    r = d.rank
    out = []
    for plus in torus_character(d).traces:
        square = poly_product(_substitute(plus, -1, 1), plus)
        diagonal = (0,) * r + tuple((-1) ** r * plus[r] * c for c in plus)
        pairs = zip_longest(square, diagonal, fillvalue=0)
        out.append(trimmed(a - b for a, b in pairs))
    return tuple(out)


def unordered_dims(d, convention: str) -> tuple:
    """Betti numbers of unordered pairs in the torus, tensored with the flag
    and averaged over W: half the sum of the Molien averages of flag x conf2
    and of flag x swap.  The second average is not a character's, so it is
    taken by pairing, without ``invariant_dims``'s check."""
    flag = flag_character(d, convention)
    ordered = invariant_dims(kunneth(flag, conf2_torus(d)))
    swapped = pairing_invariant_dims(
        kunneth(flag, GradedCharacter(d.group, swap_traces(d)))
    )
    top = max(len(ordered), len(swapped))
    return trimmed(
        exact_div(ordered.get(n, 0) + swapped.get(n, 0), 2) for n in range(top)
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
