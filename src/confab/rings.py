"""Finite graded-commutative rings presented by square-zero generators.

Every ring here is F[g_1, .., g_n] modulo graded commutativity, the squares
of all generators, and a list of forbidden generator pairs whose product is
declared zero.  A linear basis is therefore the squarefree monomials that
avoid forbidden pairs, so the whole ring is finite dimensional and elements
are plain dictionaries monomial -> coefficient.

Monomials are ascending tuples of generator indices.  Reordering a product
into ascending form picks up the usual Koszul sign: each adjacent swap of
generators of degrees p and q contributes (-1)^(p*q).

Automorphisms are given on generators (images must be degree-preserving
linear combinations of generators) and extended multiplicatively; their
matrices per degree drive fixed-subring dimension counts.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .exact import QMatrix, as_exact, rank

if TYPE_CHECKING:  # annotations only: fractions loads lazily, see exact
    from fractions import Fraction

Monomial = tuple[int, ...]
Element = dict[Monomial, "int | Fraction"]


class NotInvolution(ValueError):
    """An automorphism expected to square to the identity does not."""


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


class GeneratorAutomorphism(NamedTuple):
    """A ring map given by degree-preserving images of the generators.

    ``images`` maps a generator label to a tuple of (coefficient, label)
    terms; generators without an entry map to themselves.  An image keyed
    by a label that is not a generator of the presentation is an error.
    """

    images: tuple[tuple[str, tuple[tuple[int | Fraction, str], ...]], ...]

    @classmethod
    def build(
        cls, images: Mapping[str, Sequence[tuple[object, str]]]
    ) -> "GeneratorAutomorphism":
        packed = tuple(
            (source, tuple((as_exact(c), target) for c, target in terms))
            for source, terms in images.items()
        )
        return cls(packed)

    def generator_images(self, pres: RingPresentation) -> list[Element]:
        """Each generator's image in generator order, checked once."""
        images = dict(self.images)
        unknown = [s for s in images if s not in pres._index]
        if unknown:
            raise ValueError(f"image given for non-generator {unknown[0]!r}")
        out = []
        for label, degree in pres.generators:
            image: Element = {}
            for coef, target in images.get(label, ((1, label),)):
                idx = pres.index_of(target)
                if pres.generators[idx][1] != degree:
                    raise ValueError(
                        f"image of {label} is not degree-preserving"
                    )
                _accumulate(image, (idx,), coef)
            out.append(image)
        return out

    def apply(self, pres: RingPresentation, element: Element) -> Element:
        return _apply_images(pres, self.generator_images(pres), element)


def _apply_images(
    pres: RingPresentation, images: Sequence[Element], element: Element
) -> Element:
    """Extend generator images multiplicatively over ``element``."""
    out: Element = {}
    for mono, coef in element.items():
        image: Element = {(): coef}
        for idx in mono:
            image = element_product(pres, image, images[idx])
        out = add_elements(out, image)
    return out


def action_matrices(
    pres: RingPresentation, auto: GeneratorAutomorphism
) -> dict[int, QMatrix]:
    """Matrix of the automorphism on each degree's monomial basis."""
    images = auto.generator_images(pres)
    out = {}
    for degree, monos in monomial_basis(pres).items():
        position = {mono: i for i, mono in enumerate(monos)}
        columns = []
        for mono in monos:
            col = [0] * len(monos)
            for target, coef in _apply_images(pres, images, {mono: 1}).items():
                if target not in position:
                    raise ValueError(
                        "automorphism image left the degree's basis"
                    )
                col[position[target]] = coef
            columns.append(col)
        out[degree] = QMatrix.from_rows(columns).transpose()
    return out


def invariant_subring_dims(
    pres: RingPresentation,
    autos: Sequence[GeneratorAutomorphism],
) -> tuple[int, ...]:
    """Dimension per degree of the simultaneous fixed subspace.

    Each automorphism must be an involution (their matrices square to the
    identity in every degree); the fixed space is the joint kernel of the
    shifted actions, which covers the group they generate.
    """
    per_auto = [action_matrices(pres, auto) for auto in autos]
    buckets = monomial_basis(pres)
    top = max(buckets)
    dims = []
    for degree in range(top + 1):
        monos = buckets.get(degree, ())
        if not monos:
            dims.append(0)
            continue
        size = len(monos)
        eye = QMatrix.identity(size)
        stacked_rows: list[list[int | Fraction]] = []
        for matrices in per_auto:
            m = matrices[degree]
            if m.mul(m) != eye:
                raise NotInvolution(
                    f"automorphism does not square to 1 in degree {degree}"
                )
            stacked_rows.extend(m.sub(eye).to_rows())
        dims.append(size - rank(QMatrix.from_rows(stacked_rows)))
    return tuple(dims)
