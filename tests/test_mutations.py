"""Verify mutations: which report lines fail when one computation is wrong.

Each mutation wraps one function at the module that owns it and rebinds the
wrapper in every loaded ``confab`` module that holds the original, the way
the benchmark's tracer installs its spans; a mutation applied only where
``confab.verify`` binds a name would miss ``conf_ab_table``'s own names.
Each declares the exact set of ``verify_all("derived")`` lines it fails, so
a line that stops failing (or starts to) under a mutation fails the test.

Seven lines are implied by others and can fail only together with them:
- each ``euler-X`` reads the table of ``table2-X``, and every pin has
  Euler characteristic 0; ``conf3-U2-euler`` reads the table of
  ``conf3-U2`` the same way;
- ``conf2-total-dims`` sums the traces whose decompositions the
  ``conf2-torus-*`` lines pin, and a decomposition fixes the dimension.
"""

import sys
from collections import namedtuple

import pytest

# loaded so that their names are rebound; freegroup is otherwise imported
# on first use, and would keep a mutated name past the mutation
import confab.freegroup  # noqa: F401
import confab.verify  # noqa: F401
from confab import exact, rings, tables, torusconf, verify_all, weyl
from confab.tables import RING_TAGS, TABLE1_TAGS, TABLE2_TAGS
from confab.weyl import GradedCharacter


def lines(*prefixes, tags=TABLE2_TAGS):
    """The names ``prefix-tag`` for every prefix and tag."""
    return {f"{prefix}-{tag}" for prefix in prefixes for tag in tags}


def graded(rewrite):
    """Wrap a character builder so that ``rewrite(d, traces)`` changes it."""

    def wrap(original):
        def mutated(d, *args, **kwargs):
            gc = original(d, *args, **kwargs)
            return GradedCharacter(gc.group, rewrite(d, gc.traces))

        return mutated

    return wrap


def shift_t2(d, traces):
    return [(0, 0, *trace) for trace in traces]


def flip_su3_last_class(d, traces):
    if d.tag != "SU3":
        return traces
    *kept, last = traces
    return [*kept, [-x for x in last]]


def double(d, traces):
    return [[2 * x for x in trace] for trace in traces]


def bump_rows(*degrees):
    """Wrap ``conf_ab_table`` so that the rows of ``degrees`` gain 1."""

    def wrap(original):
        def mutated(*args, **kwargs):
            table = original(*args, **kwargs)
            rows = tuple(
                row._replace(dimension=row.dimension + (row.degree in degrees))
                for row in table.rows
            )
            return table._replace(rows=rows)

        return mutated

    return wrap


def bump_h0(original):
    def mutated(*args, **kwargs):
        dims = original(*args, **kwargs)
        return (dims[0] + 1, *dims[1:])

    return mutated


def bump_swap_h2(d, traces):
    identity, swap = traces
    return [identity, (*swap[:2], swap[2] + 2)]


def drop_last_pivot(original):
    def mutated(*args, **kwargs):
        rows, pivots = original(*args, **kwargs)
        return rows, pivots[:-1]

    return mutated


def bump_sp(original):
    def mutated(family, *args, **kwargs):
        return original(family, *args, **kwargs) + (family == "sp")

    return mutated


def bump_b1(original):
    def mutated(*args, **kwargs):
        summary = original(*args, **kwargs)
        b0, b1, *rest = summary.betti
        return summary._replace(betti=(b0, b1 + 1, *rest))

    return mutated


def rank1_no_raise(original):
    def mutated(d, k):
        return k * d.pi1_rank if d.rank < 2 else original(d, k)

    return mutated


Mutation = namedtuple("Mutation", "home name wrap fails")

# lines that fail whenever the derived table of S1xS1, U2 or S1xSU2 is off
# in degree 1, and whenever the rank-1 tables are off
H1_LINES = lines("first-cohomology", tags=("S1xS1", "U2", "S1xSU2"))
RANK1_LINES = {"circle-pairs", "su2-pairs-bundle"}
# lines that read a ring's fixed subring through ``rings.span_dims``
RING_LINES = lines(
    "ring-embedding", "unordered-fixed-subring", "unordered-model",
    tags=RING_TAGS,
)

MUTATIONS = {
    "flag-shift-t2": Mutation(
        weyl,
        "flag_character",
        graded(shift_t2),
        lines("flag", tags=TABLE1_TAGS)
        | lines("table2", "shortcut")
        | {"conf3-U2", "conf3-U2-shortcut"}
        | H1_LINES
        | RANK1_LINES,
    ),
    "conf2-sign-flip-SU3": Mutation(
        torusconf,
        "conf2_torus",
        graded(flip_su3_last_class),
        lines(
            "conf2-torus", "table2", "shortcut", "euler", "first-cohomology",
            tags=("SU3",),
        ),
    ),
    "conf2-doubled": Mutation(
        torusconf,
        "conf2_torus",
        graded(double),
        lines("conf2-torus", tags=TABLE1_TAGS)
        | {"conf2-total-dims"}
        | lines("table2", "shortcut")
        | H1_LINES
        | RANK1_LINES,
    ),
    "table-h1": Mutation(
        tables,
        "conf_ab_table",
        bump_rows(1),
        lines("table2", "euler", "first-cohomology")
        | {"conf3-U2", "conf3-U2-euler"}
        | RANK1_LINES,
    ),
    "table-h1-h2-euler-kept": Mutation(
        tables,
        "conf_ab_table",
        bump_rows(1, 2),
        lines("table2", "first-cohomology") | {"conf3-U2"} | RANK1_LINES,
    ),
    "shortcut-h0": Mutation(
        tables,
        "shortcut_dims",
        bump_h0,
        lines("shortcut") | {"conf3-U2-shortcut"},
    ),
    "eliminate-drops-last-pivot": Mutation(
        exact,
        "eliminate",
        drop_last_pivot,
        {"conf3-U2", "conf3-U2-euler", "conf3-U2-shortcut"} | RING_LINES,
    ),
    "punctured-swap-h2": Mutation(
        torusconf,
        "conf2_torus_minus_point_rank2",
        graded(bump_swap_h2),
        {"conf3-U2", "conf3-U2-shortcut"},
    ),
    "span-h0": Mutation(rings, "span_dims", bump_h0, RING_LINES),
    "hilbert-h0": Mutation(
        rings,
        "hilbert_series",
        bump_h0,
        lines("ring-series", "unordered-closed-form", tags=RING_TAGS),
    ),
    "rank1-no-raise": Mutation(
        tables,
        "first_cohomology_dim",
        rank1_no_raise,
        {"rank1-first-cohomology-exception"},
    ),
    "stable-bound-sp": Mutation(
        tables, "stable_bound", bump_sp, {"stable-bounds"}
    ),
    "su2-b1": Mutation(
        torusconf, "su2_conf", bump_b1, {"su2-components", "su2-pairs-bundle"}
    ),
}

# each implied line, and the lines of which at least one fails with it
IMPLIED = {
    **{f"euler-{tag}": {f"table2-{tag}"} for tag in TABLE2_TAGS},
    "conf3-U2-euler": {"conf3-U2"},
    "conf2-total-dims": lines("conf2-torus", tags=TABLE1_TAGS),
}


def failed_lines(monkeypatch, mutation):
    """The derived report's FAIL lines with ``mutation`` installed."""
    original = getattr(mutation.home, mutation.name)
    wrapped = mutation.wrap(original)
    for key, module in list(sys.modules.items()):
        if key == "confab" or key.startswith("confab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapped)
    report = verify_all("derived")
    return {check.name for check in report.checks if check.status == "FAIL"}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS)
def test_mutation_fails_exactly_its_lines(monkeypatch, mutation):
    failed = failed_lines(monkeypatch, mutation)
    assert failed == mutation.fails
    for implied, implying in IMPLIED.items():
        assert implied not in failed or failed & implying


def test_declared_lines_are_report_lines():
    names = {check.name for check in verify_all("derived").checks}
    declared = set(IMPLIED).union(*IMPLIED.values())
    for mutation in MUTATIONS.values():
        declared |= mutation.fails
    assert declared <= names


def test_every_line_but_the_warning_fails_under_some_mutation():
    names = {check.name for check in verify_all("derived").checks}
    caught = set().union(*(mutation.fails for mutation in MUTATIONS.values()))
    assert names - caught == {"s1xsu2-convention"}
