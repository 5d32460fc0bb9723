"""Command-line front end.

Every subcommand returns one ``Document``: a JSON payload, a header with rows
of plain cells, an optional markdown text and the exit code.  ``render``
formats a document in one place:

- ``json`` writes the payload with sorted keys, two-space indentation and a
  trailing newline;
- ``csv`` writes the header and the rows;
- ``md`` writes the document's own text where it has one (``circle``,
  ``su2``, ``bound``, ``ring``, ``verify``) and otherwise a table of the
  header and the rows.

Identical invocations are byte-identical.  Exit codes: 0 success, 1 failed
verification, 2 usage or unsupported input.
"""

from __future__ import annotations

# argparse stays a top-level import: every command parses its arguments
import argparse
import io
import sys
from typing import NamedTuple

from .groups import decompose, format_decomposition
from .rings import hilbert_series
from .tables import (
    TABLE1_TAGS,
    TABLE2_TAGS,
    CohomologyTable,
    StabilityQuery,
    conf2_ring,
    conf_ab_table,
    stable_bound,
    unordered_conf2_ring,
    verify_all,
)
from .torusconf import circle_conf, conf2_torus, su2_conf
from .weyl import datum, flag_character


class Document(NamedTuple):
    """What one command prints, before it is put into a format."""

    payload: object
    header: list
    rows: list
    text: str | None = None
    code: int = 0


def _md_table(header, rows) -> str:
    lines = [
        "| " + " | ".join(str(cell) for cell in header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines) + "\n"


def render(doc: Document, fmt: str) -> str:
    # json and csv are imported in their own branches, so that a command
    # pays for neither unless it writes that format
    if fmt == "json":
        import json

        text = json.dumps(
            doc.payload, sort_keys=True, ensure_ascii=False, indent=2
        )
        return text + "\n"
    if fmt == "csv":
        import csv

        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerows([doc.header] + doc.rows)
        return sink.getvalue()
    if doc.text is not None:
        return doc.text
    return _md_table(doc.header, doc.rows)


# ---------------------------------------------------------------------------
# table 1: decomposition columns for pairs in the torus and for the flag


def _cmd_table1(args) -> Document:
    """decomposition columns for torus pairs and the flag"""
    columns = []
    for tag in TABLE1_TAGS:
        d = datum(tag)
        columns.append((tag, "conf2-torus", d, conf2_torus(d)))
        columns.append((tag, "flag", d, flag_character(d, args.convention)))
    top = max(character.top for _, _, _, character in columns)
    payload = []
    cells = []
    for tag, space, d, character in columns:
        parts = [
            decompose(character.piece(degree), d.catalog)
            for degree in range(top + 1)
        ]
        cells.append([format_decomposition(part) for part in parts])
        dims = character.dims()
        rows = [
            {
                "degree": degree,
                "dimension": dims[degree],
                "decomposition": [
                    {"irrep": label, "mult": mult}
                    for label, mult in parts[degree]
                ],
            }
            for degree in range(character.top + 1)
        ]
        payload.append(
            {
                "group": tag,
                "space": space,
                "k": 2,
                "convention": args.convention,
                "rows": rows,
            }
        )
    header = ["n"] + [f"{tag}: {space}" for tag, space, _, _ in columns]
    rows = [
        [degree] + [column[degree] for column in cells]
        for degree in range(top + 1)
    ]
    return Document(payload, header, rows)


# ---------------------------------------------------------------------------
# table 2 and the triple table: invariant dimension columns


def _dimension_payload(table: CohomologyTable) -> dict:
    return {
        "group": table.group,
        "k": table.k,
        "convention": table.convention,
        "rows": [
            {"degree": row.degree, "dimension": row.dimension}
            for row in table.rows
        ],
    }


def _cmd_table2(args) -> Document:
    """invariant dimension columns for commuting pairs"""
    tables = [
        conf_ab_table(datum(tag), 2, args.convention) for tag in TABLE2_TAGS
    ]
    length = max(len(table.rows) for table in tables)
    columns = [
        table.dims() + (0,) * (length - len(table.rows)) for table in tables
    ]
    rows = [
        [degree] + [dims[degree] for dims in columns]
        for degree in range(length)
    ]
    payload = [_dimension_payload(table) for table in tables]
    return Document(payload, ["n"] + list(TABLE2_TAGS), rows)


def _cmd_conf3_u2(args) -> Document:
    """dimension column for commuting triples in U2"""
    table = conf_ab_table(datum("U2"), 3, args.convention)
    rows = [[row.degree, row.dimension] for row in table.rows]
    return Document(_dimension_payload(table), ["n", "dimension"], rows)


# ---------------------------------------------------------------------------
# component counts


def _cmd_circle(args) -> Document:
    """components of distinct k-tuples in the circle"""
    summary = circle_conf(args.k)
    row = [summary.k, summary.components, summary.reflection_orbits]
    return Document(
        summary._asdict(),
        ["k", "components", "orbits", "b0", "b1"],
        [row + list(summary.betti)],
        f"components {summary.components}, "
        f"orbits {summary.reflection_orbits}, b1 {summary.betti[1]}\n",
    )


def _cmd_su2(args) -> Document:
    """components and Betti numbers for commuting tuples in SU2"""
    summary = su2_conf(args.k)
    return Document(
        summary._asdict(),
        ["k", "components", "b0", "b1", "b2", "b3"],
        [[summary.k, summary.components, *summary.betti]],
        f"components {summary.components}, betti {summary.betti}\n",
    )


# ---------------------------------------------------------------------------
# rings, bounds, verification


_RING_GROUPS = {"u2": "U2", "s1xsu2": "S1xSU2"}


def _cmd_ring(args) -> Document:
    """pair-configuration cohomology ring presentation"""
    tag = _RING_GROUPS[args.group]
    build = unordered_conf2_ring if args.unordered else conf2_ring
    presentation = build(tag, args.convention)
    rows = list(enumerate(hilbert_series(presentation)))
    payload = {
        "group": tag,
        "k": 2,
        "convention": args.convention,
        "unordered": bool(args.unordered),
        "presentation": presentation.to_payload(),
        "rows": [
            {"degree": degree, "dimension": dim} for degree, dim in rows
        ],
    }
    generators = ", ".join(
        f"{label} (degree {degree})"
        for label, degree in presentation.generators
    )
    labels = presentation.labels
    vanishing = ", ".join(
        f"{labels[i]}*{labels[j]}" for i, j in presentation.forbidden
    )
    text = (
        f"generators: {generators}\n"
        f"vanishing products: {vanishing or 'none'}\n"
        + _md_table(["n", "dimension"], rows)
    )
    return Document(payload, ["degree", "dimension"], rows, text)


def _cmd_bound(args) -> Document:
    """stable range bound for a family, degree and k"""
    query = StabilityQuery(args.family, args.degree, args.k)
    bound = stable_bound(query)
    header = ["family", "degree", "k", "bound"]
    row = [query.family, query.degree, query.k, bound]
    return Document(dict(zip(header, row)), header, [row], f"{bound}\n")


def _cmd_verify(args) -> Document:
    """recompute every pinned result and report"""
    report = verify_all(args.convention)
    passed, failed, warned = report.counts()
    payload = {
        "convention": report.convention,
        "ok": report.ok,
        "pass": passed,
        "fail": failed,
        "warn": warned,
        "checks": [check._asdict() for check in report.checks],
    }
    rows = [
        [check.status, check.name, check.expected, check.got]
        for check in report.checks
    ]
    lines = [
        f"{check.status} {check.name}: expected {check.expected}; "
        f"got {check.got}"
        for check in report.checks
    ]
    lines.append(f"{passed} PASS, {failed} FAIL, {warned} WARN")
    return Document(
        payload,
        ["status", "name", "expected", "got"],
        rows,
        "\n".join(lines) + "\n",
        0 if report.ok else 1,
    )


# ---------------------------------------------------------------------------
# argument plumbing


_K_ARGUMENT = (
    "--k",
    {"type": int, "required": True, "help": "tuple length"},
)
_RING_ARGUMENTS = (
    ("--group", {"choices": tuple(_RING_GROUPS), "required": True}),
    (
        "--unordered",
        {
            "action": "store_true",
            "help": "presentation of the unordered-pair cohomology",
        },
    ),
)
_BOUND_ARGUMENTS = (
    ("--family", {"choices": ("u", "su", "sp"), "required": True}),
    ("--degree", {"type": int, "required": True}),
    ("--k", {"type": int, "required": True}),
)

# name, handler (its docstring is the help line), arguments beyond --format
# and --convention
_COMMANDS = (
    ("table1", _cmd_table1, ()),
    ("table2", _cmd_table2, ()),
    ("conf3-u2", _cmd_conf3_u2, ()),
    ("circle", _cmd_circle, (_K_ARGUMENT,)),
    ("su2", _cmd_su2, (_K_ARGUMENT,)),
    ("ring", _cmd_ring, _RING_ARGUMENTS),
    ("bound", _cmd_bound, _BOUND_ARGUMENTS),
    ("verify", _cmd_verify, ()),
)


def _add_common(parser, suppress: bool) -> None:
    # on subcommands the defaults are suppressed so that a value given
    # before the subcommand is not overwritten by the subparser default
    parser.add_argument(
        "--format",
        choices=("md", "json", "csv"),
        default=argparse.SUPPRESS if suppress else "md",
        help="output format (default md)",
    )
    parser.add_argument(
        "--convention",
        choices=("derived", "paper"),
        default=argparse.SUPPRESS if suppress else "derived",
        help="flag-column convention for circle factors (default derived)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confab",
        description=(
            "tables of cohomology of spaces of distinct commuting tuples "
            "in compact Lie groups"
        ),
    )
    _add_common(parser, suppress=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, arguments in _COMMANDS:
        sub = commands.add_parser(name, help=handler.__doc__)
        _add_common(sub, suppress=True)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = args.handler(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    text = render(doc, args.format)
    try:
        # a text stream encodes the whole string before writing any of it,
        # so a failure here leaves stdout empty
        sys.stdout.write(text)
    except UnicodeEncodeError as error:
        print(
            f"error: stdout encoding {sys.stdout.encoding!a} cannot write "
            f"{error.object[error.start]!a}; set PYTHONIOENCODING=utf-8",
            file=sys.stderr,
        )
        return 2
    return doc.code


if __name__ == "__main__":
    sys.exit(main())
