"""Finite graded-commutative rings presented by square-zero generators.

Every ring here is F[g_1, .., g_n] modulo graded commutativity, the squares
of all generators, and a list of forbidden generator pairs whose product is
declared zero.  A linear basis is therefore the squarefree monomials that
avoid forbidden pairs, so the whole ring is finite dimensional and elements
are plain dictionaries monomial -> coefficient.

Monomials are ascending tuples of generator indices.  Reordering a product
into ascending form picks up the usual Koszul sign: each adjacent swap of
generators of degrees p and q contributes (-1)^(p*q).

A ring map, an involution or an embedding alike, is one mapping from a
generator label to (coefficient, [labels in product order]) terms, the form
``element_from_terms`` reads.  ``generator_images`` turns it into one
homogeneous image per generator, of that generator's degree, and
``apply_images`` extends those multiplicatively.  A ring map is checked once
on its generators: the images must kill every relation of the source.
Spans, and with them fixed-subring dimensions, are ranks of coefficient rows
over the monomials, one degree at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations

from .exact import QMatrix, as_exact, rank

Monomial = tuple[int, ...]
Element = dict[Monomial, "int | Fraction"]
# a ring map: generator label -> (coefficient, [labels in product order]) terms
RingMap = Mapping[str, Sequence[tuple[object, Sequence[str]]]]


class NotInvolution(ValueError):
    """Generator images that do not define commuting ring involutions."""


class RingPresentation:
    """Generators with degrees, plus labelled pairs whose product vanishes.

    ``forbidden`` names each vanishing pair by its two generator labels.
    The pairs are kept as ascending index pairs in sorted order, so the
    payload lists them the same way whatever order they were given in.
    """

    __slots__ = ("generators", "forbidden", "_index", "_vanishing")

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        forbidden: Iterable[tuple[str, str]] = (),
    ):
        generators = tuple(generators)
        index = {label: i for i, (label, _) in enumerate(generators)}
        if len(index) != len(generators):
            labels = [label for label, _ in generators]
            raise ValueError(f"duplicate generator labels: {labels}")
        for label, degree in generators:
            if degree < 1:
                raise ValueError(f"generator {label} needs positive degree")
        pairs = set()
        for l1, l2 in forbidden:
            if l1 not in index or l2 not in index:
                raise ValueError(f"forbidden pair uses unknown label ({l1}, {l2})")
            if l1 == l2:
                raise ValueError(f"bad forbidden pair ({l1}, {l2})")
            i, j = index[l1], index[l2]
            pairs.add((min(i, j), max(i, j)))
        self.generators = generators
        self.forbidden = tuple(sorted(pairs))
        self._index = index
        self._vanishing = frozenset(pairs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.generators == other.generators
            and self.forbidden == other.forbidden
        )

    def __hash__(self):
        return hash((self.generators, self.forbidden))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.generators)

    def index_of(self, label: str) -> int:
        if label not in self._index:
            raise ValueError(f"unknown generator label {label!r}")
        return self._index[label]

    def degree_of(self, monomial: Monomial) -> int:
        return sum(self.generators[i][1] for i in monomial)

    def to_payload(self) -> dict:
        return {
            "generators": [
                {"label": label, "degree": degree}
                for label, degree in self.generators
            ],
            "forbidden": [
                [self.generators[i][0], self.generators[j][0]]
                for i, j in self.forbidden
            ],
        }


def normalize_product(
    pres: RingPresentation, factors: Sequence[int]
) -> tuple[int, Monomial] | None:
    """Sort a product of generators into a basis monomial with its sign.

    Returns None when the product is zero: a repeated generator or a
    forbidden pair.
    """
    seq = list(factors)
    sign = 1
    # insertion sort, tracking Koszul signs of adjacent swaps
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            d1 = pres.generators[seq[j - 1]][1]
            d2 = pres.generators[seq[j]][1]
            if (d1 * d2) % 2 == 1:
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None
    for pair in combinations(seq, 2):
        if pair in pres._vanishing:
            return None
    return sign, tuple(seq)


def monomial_basis(pres: RingPresentation) -> dict[int, tuple[Monomial, ...]]:
    """All basis monomials bucketed by degree; degree 0 holds the empty one."""
    n = len(pres.generators)
    buckets: dict[int, list[Monomial]] = {0: [()]}
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if any(pair in pres._vanishing for pair in combinations(combo, 2)):
                continue
            buckets.setdefault(pres.degree_of(combo), []).append(combo)
    return {deg: tuple(sorted(monos)) for deg, monos in sorted(buckets.items())}


def hilbert_series(pres: RingPresentation) -> tuple[int, ...]:
    """Dimensions per degree from 0 through the top nonzero degree."""
    buckets = monomial_basis(pres)
    top = max(buckets)
    return tuple(len(buckets.get(d, ())) for d in range(top + 1))


def _accumulate(out: Element, mono: Monomial, coef) -> None:
    """Add ``coef`` to the coefficient of ``mono``, dropping a zero sum."""
    total = out.get(mono, 0) + coef
    if total:
        out[mono] = total
    else:
        out.pop(mono, None)


def add_elements(a: Element, b: Element) -> Element:
    out = dict(a)
    for mono, coef in b.items():
        _accumulate(out, mono, coef)
    return out


def element_product(pres: RingPresentation, a: Element, b: Element) -> Element:
    out: Element = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            normalized = normalize_product(pres, m1 + m2)
            if normalized is not None:
                sign, mono = normalized
                _accumulate(out, mono, c1 * c2 * sign)
    return out


def element_from_terms(
    pres: RingPresentation, terms: Sequence[tuple[object, Sequence[str]]]
) -> Element:
    """Build an element from (coefficient, [labels in product order]) terms."""
    out: Element = {}
    for coef, labels in terms:
        coef = as_exact(coef)
        normalized = normalize_product(
            pres, [pres.index_of(label) for label in labels]
        )
        if normalized is not None:
            sign, mono = normalized
            _accumulate(out, mono, coef * sign)
    return out


def element_degree(pres: RingPresentation, element: Element) -> int | None:
    """The common degree of a homogeneous element, None for the zero element."""
    degrees = {pres.degree_of(mono) for mono in element}
    if not degrees:
        return None
    if len(degrees) > 1:
        raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def generator_images(
    source: RingPresentation, target: RingPresentation, images: RingMap
) -> list[Element]:
    """Each generator's image in ``target``, in ``source`` generator order.

    ``images`` maps a generator label of ``source`` to (coefficient,
    [labels in product order]) terms in ``target``; a generator without an
    entry maps to the ``target`` generator with the same label.  A key that
    is not a generator of ``source``, or an image that is not homogeneous of
    its generator's degree, is an error.
    """
    unknown = [label for label in images if label not in source._index]
    if unknown:
        raise ValueError(f"image given for non-generator {unknown[0]!r}")
    out = []
    for label, degree in source.generators:
        image = element_from_terms(target, images.get(label, ((1, (label,)),)))
        if any(target.degree_of(mono) != degree for mono in image):
            raise ValueError(
                f"image of {label} is not homogeneous of degree {degree}"
            )
        out.append(image)
    return out


def apply_images(
    target: RingPresentation, images: Sequence[Element], element: Element
) -> Element:
    """Extend generator images multiplicatively over ``element``.

    ``images`` come from ``generator_images``; the products are taken in
    ``target``.
    """
    out: Element = {}
    for mono, coef in element.items():
        image: Element = {(): coef}
        for idx in mono:
            image = element_product(target, image, images[idx])
        out = add_elements(out, image)
    return out


def broken_relation(
    source: RingPresentation,
    target: RingPresentation,
    images: Sequence[Element],
) -> str | None:
    """The first relation of ``source`` that the images do not send to zero.

    ``images`` holds each generator's image in ``target``, in generator
    order.  They define a ring map exactly when every vanishing pair and
    every generator's square goes to zero, and then the answer is None;
    otherwise it is the relation's product, such as ``"a*b"``.
    """
    squares = tuple((i, i) for i in range(len(images)))
    for i, j in source.forbidden + squares:
        if element_product(target, images[i], images[j]):
            return f"{source.labels[i]}*{source.labels[j]}"
    return None


def span_dims(
    pres: RingPresentation, elements: Iterable[Element]
) -> tuple[int, ...]:
    """Dimension of the span of homogeneous elements in each degree.

    Degrees run from 0 to the highest degree of a nonzero element; each
    count is the rank of the elements' coefficient rows over the monomials.
    """
    by_degree: dict[int, list[Element]] = {}
    for element in elements:
        degree = element_degree(pres, element)
        if degree is not None:
            by_degree.setdefault(degree, []).append(element)
    dims = []
    for degree in range(max(by_degree, default=-1) + 1):
        rows = by_degree.get(degree, [])
        monos = sorted({mono for element in rows for mono in element})
        matrix = [[element.get(mono, 0) for mono in monos] for element in rows]
        dims.append(rank(QMatrix.from_rows(matrix)))
    return tuple(dims)


def invariant_subring_dims(
    pres: RingPresentation, involutions: Sequence[RingMap]
) -> tuple[int, ...]:
    """Dimension per degree of the simultaneous fixed subspace.

    Each involution is a map of ``pres`` to itself, given as for
    ``generator_images``.  It must be a ring map that returns every
    generator when applied twice, so it is an involution in every degree,
    and any two must agree on every generator whichever is applied first.
    Commuting involutions generate a finite group, whose fixed subspace in
    a degree has the basis size less the span of g(m) - m over the basis
    monomials m and the involutions g.  Raises ``NotInvolution`` naming the
    relation or generator that fails.
    """
    actions = [generator_images(pres, pres, m) for m in involutions]
    for images in actions:
        relation = broken_relation(pres, pres, images)
        if relation is not None:
            raise NotInvolution(f"automorphism does not send {relation} to 0")
        for i, label in enumerate(pres.labels):
            if apply_images(pres, images, images[i]) != {(i,): 1}:
                raise NotInvolution(f"automorphism twice moves {label}")
    for first, second in combinations(actions, 2):
        for label, a, b in zip(pres.labels, first, second):
            if apply_images(pres, first, b) != apply_images(pres, second, a):
                raise NotInvolution(f"automorphisms do not commute on {label}")
    buckets = monomial_basis(pres)
    top = max(buckets)
    moved = span_dims(
        pres,
        (
            add_elements(apply_images(pres, images, {mono: 1}), {mono: -1})
            for images in actions
            for monos in buckets.values()
            for mono in monos
        ),
    ) + (0,) * (top + 1)
    return tuple(
        len(buckets.get(degree, ())) - moved[degree]
        for degree in range(top + 1)
    )
