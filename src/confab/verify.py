"""The verification suite behind ``confab.verify_all`` and ``confab verify``.

``REFERENCE_*`` constants pin the expected answers, Table 1's as the text the
report prints; ``report`` recomputes everything from scratch and reports one
PASS/FAIL/WARN line per comparison.  It is a table of checks, each a name, an
expected value (a pin, or a second computation) and a computation, run by
one loop.  Within one report the checks share each table, keyed by tag, k and
convention, and the characters behind the ``conf2-torus`` and
``conf2-total-dims`` lines; every other route builds its own characters.
The single expected WARN records the one genuinely ambiguous convention: for
the mixed product S1 x SU2 the carried-circle reading of the flag column
disagrees with the direct coset computation, and the first-cohomology count
(k times the fundamental-group rank) sides with the direct one.  Both
conventions stay available everywhere via ``convention=``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .groups import decompose, format_decomposition
from .rings import (
    apply_images,
    broken_relation,
    element_product,
    generator_images,
    hilbert_series,
    invariant_subring_dims,
    span_dims,
)
from .tables import (
    RING_TAGS,
    TABLE1_TAGS,
    TABLE2_TAGS,
    CohomologyTable,
    RankTooSmall,
    _unordered_model,
    conf2_ring,
    conf2_ring_involution,
    conf_ab_table,
    first_cohomology_dim,
    shortcut_dims,
    stable_bound,
    unordered_conf2_dims,
    unordered_conf2_ring,
)
from .torusconf import circle_conf, conf2_torus, su2_conf
from .weyl import (
    GradedCharacter,
    check_convention,
    datum,
    flag_character,
)


def _both(value):
    return {"derived": value, "paper": value}


# pairwise-distinct commuting pairs in the torus, decomposed by degree, and
# the flag manifold's isotypic pieces by degree, each written as printed
REFERENCE_CONF2_TORUS = {
    "U2": "1; 2 ⊕ 2σ; 2 ⊕ 3σ; 1 ⊕ σ",
    "S1xSU2": "1; 2 ⊕ 2σ; 2 ⊕ 3σ; 1 ⊕ σ",
    "SU3": "1; 2std; 1 ⊕ std ⊕ 2sgn; std",
    "Sp2": "1; 2d; 1 ⊕ a ⊕ b ⊕ 2c; d",
}

REFERENCE_FLAG = {
    "U2": _both("0: 1; 2: σ"),
    "S1xSU2": {"derived": "0: 1; 2: σ", "paper": "0: 1; 1: 1; 2: σ; 3: σ"},
    "SU3": _both("0: 1; 2: std; 4: std; 6: sgn"),
    "Sp2": _both("0: 1; 2: d; 4: a ⊕ b; 6: d; 8: c"),
}

REFERENCE_TABLE2 = {
    "S1xS1": _both((1, 4, 5, 2)),
    "U2": _both((1, 2, 2, 3, 3, 1)),
    "S1xSU2": {"derived": (1, 2, 2, 3, 3, 1), "paper": (1, 3, 4, 5, 6, 4, 1)},
    "SU3": _both((1, 0, 1, 2, 1, 3, 1, 1, 2)),
    "Sp2": _both((1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2)),
}

REFERENCE_CONF3_U2 = (1, 3, 7, 10, 9, 7, 3)

REFERENCE_UNORDERED = {
    "U2": _both((1, 1, 0, 1, 1, 0)),
    "S1xSU2": {"derived": (1, 1, 0, 1, 1, 0), "paper": (1, 2, 1, 1, 2, 1, 0)},
}


class VerifyCheck(namedtuple("VerifyCheck", "name status expected got")):
    """One report line: its name, PASS, FAIL or WARN, and the expected and
    computed values as printed."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "convention checks")):
    """A convention's report: a tuple of ``VerifyCheck``s in printed order."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(check.status != "FAIL" for check in self.checks)

    def counts(self) -> tuple[int, int, int]:
        statuses = [check.status for check in self.checks]
        return tuple(statuses.count(s) for s in ("PASS", "FAIL", "WARN"))


# each pair-ring generator written inside the pre-invariant model ring as
# (coefficient, labels in product order) terms; the paper convention's a1
# has no entry and maps to the model's a1
_EMBEDDINGS = {
    "U2": {
        "b1": ((1, ("x1",)), (1, ("y1",))),
        "c1": ((1, ("z1",)), (1, ("w1",))),
        "d2": (
            (1, ("x1", "z1")),
            (-1, ("x1", "w1")),
            (-1, ("y1", "z1")),
            (1, ("y1", "w1")),
        ),
        "e3": ((1, ("a2", "x1")), (-1, ("a2", "y1"))),
        "f3": ((1, ("a2", "z1")), (-1, ("a2", "w1"))),
    },
    "S1xSU2": {
        "x1": ((1, ("x1",)),),
        "z1": ((1, ("z1",)),),
        "c2": ((1, ("y1", "w1")),),
        "d3": ((1, ("b2", "y1")),),
        "e3": ((1, ("b2", "w1")),),
    },
}


def _embedding_summary(tag: str, convention: str) -> str:
    """Check the pair-ring presentation against the model from scratch.

    The presentation's generators are written out inside the model ring;
    they must be Weyl invariant, transform under the point swap exactly as
    the catalog involution says, satisfy every relation of the presentation
    (each vanishing pair and each generator's square), and span a subring
    with the presentation's Hilbert series.
    """
    model, weyl, swap = _unordered_model(tag, convention)
    ring = conf2_ring(tag, convention)
    weyl = generator_images(model, model, weyl)
    swap = generator_images(model, model, swap)
    embedding = generator_images(ring, model, _EMBEDDINGS[tag])
    stated = generator_images(ring, ring, conf2_ring_involution(tag))
    invariant = all(apply_images(model, weyl, e) == e for e in embedding)
    # swapping the points of an embedded generator is embedding its image
    # under the stated involution
    swap_matches = all(
        apply_images(model, swap, e) == apply_images(model, embedding, image)
        for e, image in zip(embedding, stated)
    )
    relations_vanish = broken_relation(ring, model, embedding) is None
    # the product of every subset of the embedded generators, in order
    products = [{(): 1}]
    for e in embedding:
        products += [element_product(model, p, e) for p in products]
    span = span_dims(model, products)
    return (
        f"invariant={invariant}; swap-action={swap_matches}; "
        f"relations-zero={relations_vanish}; span={span}"
    )


def _run_check(name: str, expected, compute) -> VerifyCheck:
    # a callable expected value is computed under the same guard
    try:
        expected = str(expected() if callable(expected) else expected)
        got = str(compute())
    except Exception as error:  # surfaced, never silently swallowed
        if callable(expected):
            expected = "not computed"
        got = f"{type(error).__name__}: {error}"
        return VerifyCheck(name, "FAIL", expected, got)
    status = "PASS" if got == expected else "FAIL"
    return VerifyCheck(name, status, expected, got)


# the one honest ambiguity, always surfaced
_DERIVED_COLUMN = REFERENCE_TABLE2["S1xSU2"]["derived"]
_PAPER_COLUMN = REFERENCE_TABLE2["S1xSU2"]["paper"]
_CONVENTION_WARNING = VerifyCheck(
    "s1xsu2-convention",
    "WARN",
    "flag conventions for S1xSU2 disagree; the first-cohomology "
    "count k * pi1-rank = 2 matches the derived column",
    f"derived {_DERIVED_COLUMN} (degree 1: {_DERIVED_COLUMN[1]}) vs "
    f"paper {_PAPER_COLUMN} (degree 1: {_PAPER_COLUMN[1]})",
)


def report(convention: str) -> VerifyReport:
    """The report ``confab.tables.verify_all`` documents and returns.

    Every check reads its datum through ``datum``, which caches each group
    for the process.  The tables, keyed by tag, k and convention, and the
    characters behind the ``conf2-torus`` and ``conf2-total-dims`` lines are
    cached here for one report; each ``flag`` line, ``conf_ab_table`` and
    ``shortcut_dims`` build their own characters.
    """
    check_convention(convention)

    @cache
    def table(tag: str, k: int, table_convention: str) -> CohomologyTable:
        return conf_ab_table(datum(tag), k, table_convention)

    @cache
    def conf2(tag: str) -> GradedCharacter:
        return conf2_torus(datum(tag))

    def conf2_text(tag: str) -> str:
        parts = decompose(conf2(tag), datum(tag).catalog)
        return "; ".join(map(format_decomposition, parts))

    def flag_text(tag: str) -> str:
        d = datum(tag)
        parts = decompose(flag_character(d, convention), d.catalog)
        return "; ".join(
            f"{n}: {format_decomposition(p)}" for n, p in enumerate(parts) if p
        )

    def unordered(tag: str, dims) -> tuple[int, ...]:
        # a shorter answer is padded with zeros; a longer one is kept whole,
        # so an extra degree shows up as a mismatch
        length = len(REFERENCE_UNORDERED[tag][convention])
        return tuple(dims) + (0,) * (length - len(dims))

    def rank1_exception() -> str:
        try:
            first_cohomology_dim(datum("S1"), 4)
            raised = "no error"
        except RankTooSmall:
            raised = "RankTooSmall"
        return f"H1 = {circle_conf(4).betti[1]}; naive count = 4; {raised}"

    checks = [
        *(
            (
                f"conf2-torus-{tag}",
                REFERENCE_CONF2_TORUS[tag],
                lambda tag=tag: conf2_text(tag),
            )
            for tag in TABLE1_TAGS
        ),
        *(
            (
                f"flag-{tag}",
                REFERENCE_FLAG[tag][convention],
                lambda tag=tag: flag_text(tag),
            )
            for tag in TABLE1_TAGS
        ),
        (
            "conf2-total-dims",
            (12, 12, 12, 12),
            lambda: tuple(conf2(tag).total_dim() for tag in TABLE1_TAGS),
        ),
        *(
            check
            for tag in TABLE2_TAGS
            for check in (
                (
                    f"table2-{tag}",
                    REFERENCE_TABLE2[tag][convention],
                    lambda tag=tag: table(tag, 2, convention).dims(),
                ),
                (
                    f"shortcut-{tag}",
                    REFERENCE_TABLE2[tag][convention],
                    lambda tag=tag: shortcut_dims(datum(tag), 2, convention),
                ),
                (
                    f"euler-{tag}",
                    0,
                    lambda tag=tag: table(tag, 2, convention).euler,
                ),
            )
        ),
        (
            "conf3-U2",
            REFERENCE_CONF3_U2,
            lambda: table("U2", 3, convention).dims(),
        ),
        ("conf3-U2-euler", 0, lambda: table("U2", 3, convention).euler),
        (
            "conf3-U2-shortcut",
            REFERENCE_CONF3_U2,
            lambda: shortcut_dims(datum("U2"), 3, convention),
        ),
        # k * pi1-rank against H^1 of the derived table (see the WARN line)
        *(
            (
                f"first-cohomology-{tag}",
                lambda tag=tag: table(tag, 2, "derived").dims()[1],
                lambda tag=tag: first_cohomology_dim(datum(tag), 2),
            )
            for tag in TABLE2_TAGS
        ),
        _CONVENTION_WARNING,
        *(
            check
            for tag in RING_TAGS
            for check in (
                (
                    f"ring-series-{tag}",
                    REFERENCE_TABLE2[tag][convention],
                    lambda tag=tag: hilbert_series(
                        conf2_ring(tag, convention)
                    ),
                ),
                (
                    f"unordered-fixed-subring-{tag}",
                    REFERENCE_UNORDERED[tag][convention],
                    lambda tag=tag: unordered(
                        tag,
                        invariant_subring_dims(
                            conf2_ring(tag, convention),
                            (conf2_ring_involution(tag),),
                        ),
                    ),
                ),
                (
                    f"unordered-model-{tag}",
                    REFERENCE_UNORDERED[tag][convention],
                    lambda tag=tag: unordered(
                        tag, unordered_conf2_dims(datum(tag), convention)
                    ),
                ),
                (
                    f"unordered-closed-form-{tag}",
                    REFERENCE_UNORDERED[tag][convention],
                    lambda tag=tag: unordered(
                        tag,
                        hilbert_series(unordered_conf2_ring(tag, convention)),
                    ),
                ),
            )
        ),
        *(
            (
                f"ring-embedding-{tag}",
                "invariant=True; swap-action=True; relations-zero=True; "
                f"span={REFERENCE_TABLE2[tag][convention]}",
                lambda tag=tag: _embedding_summary(tag, convention),
            )
            for tag in RING_TAGS
        ),
        # bundle route (invariants over the maximal torus) against the
        # direct component counts for the two rank-1 groups
        (
            "circle-pairs",
            "bundle (1, 1); direct (1, 1)",
            lambda: (
                f"bundle {table('S1', 2, convention).dims()}; "
                f"direct {circle_conf(2).betti}"
            ),
        ),
        (
            "su2-pairs-bundle",
            "bundle (1, 0, 0, 1); direct (1, 0, 0, 1)",
            lambda: (
                f"bundle {table('SU2', 2, convention).dims()}; "
                f"direct {su2_conf(2).betti}"
            ),
        ),
        (
            "su2-components",
            "k=3: (1, (1, 1, 1, 1)); k=4: (3, (3, 3, 3, 3)); "
            "k=5: (12, (12, 12, 12, 12))",
            lambda: "; ".join(
                f"k={k}: ({su2_conf(k).components}, {su2_conf(k).betti})"
                for k in (3, 4, 5)
            ),
        ),
        (
            "rank1-first-cohomology-exception",
            "H1 = 6; naive count = 4; RankTooSmall",
            rank1_exception,
        ),
        (
            "stable-bounds",
            (5, 5, 2, 2),
            lambda: (
                stable_bound("sp", 3, 2),
                stable_bound("u", 2, 9),
                stable_bound("su", 0, 3),
                stable_bound("u", 0, 2),
            ),
        ),
    ]
    return VerifyReport(
        convention,
        tuple(
            check if isinstance(check, VerifyCheck) else _run_check(*check)
            for check in checks
        ),
    )
