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

One table, ``_COMMANDS``, drives both the argument parser and ``--help``.
A usage error is reported as unsupported input is: one ``error:`` line on
stderr, nothing on stdout, exit 2.

Identical invocations are byte-identical.  Exit codes: 0 success, 1 failed
verification, 2 usage, unsupported input or output that cannot be written.
"""

from __future__ import annotations

import io
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .groups import decompose, format_decomposition
from .rings import hilbert_series
from .tables import (
    RING_TAGS,
    TABLE1_TAGS,
    TABLE2_TAGS,
    CohomologyTable,
    conf2_ring,
    conf_ab_table,
    stable_bound,
    unordered_conf2_ring,
    verify_all,
)
from .torusconf import circle_conf, conf2_torus, su2_conf
from .weyl import CONVENTIONS, datum, flag_character


class Document(
    namedtuple("Document", "payload header rows text code", defaults=(None, 0))
):
    """What one command prints, before it is put into a format: the json
    payload, a header list and a list of rows, the markdown text or None,
    and the exit code."""

    __slots__ = ()


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
        parts = decompose(character, d.catalog)
        padding = [()] * (top - character.top)
        cells.append([format_decomposition(part) for part in parts + padding])
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


_RING_GROUPS = {t.lower(): t for t in RING_TAGS}


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
    bound = stable_bound(args.family, args.degree, args.k)
    header = ["family", "degree", "k", "bound"]
    row = [args.family, args.degree, args.k, bound]
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
# arguments: one table drives both parsing and help


# an option is (flag, kind, required, help line); the kind is int, a tuple of
# the accepted values, or bool for a switch
_COMMON = (
    ("--format", ("md", "json", "csv"), False, "output format (default md)"),
    (
        "--convention",
        CONVENTIONS,
        False,
        "flag-column convention for circle factors (default derived)",
    ),
)
_HELP = ("--help", None, False, "show this help and exit")
_K_OPTION = ("--k", int, True, "tuple length")
_RING_OPTIONS = (
    ("--group", tuple(_RING_GROUPS), True, "group tag"),
    ("--unordered", bool, False, "present the unordered-pair cohomology"),
)
_BOUND_OPTIONS = (
    ("--family", ("u", "su", "sp"), True, "group family"),
    ("--degree", int, True, "cohomological degree"),
    _K_OPTION,
)

# name -> handler (its docstring is the help line), options beyond --format
# and --convention
_COMMANDS = {
    "table1": (_cmd_table1, ()),
    "table2": (_cmd_table2, ()),
    "conf3-u2": (_cmd_conf3_u2, ()),
    "circle": (_cmd_circle, (_K_OPTION,)),
    "su2": (_cmd_su2, (_K_OPTION,)),
    "ring": (_cmd_ring, _RING_OPTIONS),
    "bound": (_cmd_bound, _BOUND_OPTIONS),
    "verify": (_cmd_verify, ()),
}


def _spelled(option) -> str:
    flag, kind = option[:2]
    if kind is int:
        return f"{flag} {flag[2:].upper()}"
    return flag if kind is bool else f"{flag} {{{','.join(kind)}}}"


def _help(command) -> str:
    """The help text of one command, or of confab when command is None."""
    handler, own = _COMMANDS.get(command, (None, ()))
    lines = [f"usage: confab {command or '[options] COMMAND'} [options]", ""]
    if handler is None:
        lines += [
            "tables of cohomology of spaces of distinct commuting tuples in "
            "compact Lie groups",
            "",
            "commands:",
        ]
        lines += [f"  {n:<10}{h.__doc__}" for n, (h, _) in _COMMANDS.items()]
    else:
        lines.append(handler.__doc__)
    rows = [(_spelled(o), o[3] + " (required)" * o[2]) for o in own + _COMMON]
    rows.append(("-h, --help", _HELP[3]))
    width = max(len(left) for left, _ in rows) + 2
    lines += ["", "options:"]
    lines += [f"  {left:<{width}}{text}" for left, text in rows]
    return "\n".join(lines) + "\n"


def _parse(argv):
    """The handler that ``argv`` asks for and its option values, or None and
    the help text.  A usage error raises ValueError."""
    values = {"format": "md", "convention": "derived"}
    command, options = None, _COMMON + (_HELP,)
    choices = "; choose from " + ", ".join(_COMMANDS)
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if command is not None:
                raise ValueError(f"unexpected argument {token!r}")
            if token not in _COMMANDS:
                raise ValueError(f"unknown command {token!r}{choices}")
            command = token
            options = _COMMANDS[token][1] + options
            continue
        flag, equals, value = token.partition("=")
        flag = "--help" if flag == "-h" else flag
        # as in argparse, a unique prefix of a long option names it; no flag
        # in the table is a prefix of another
        found = [o for o in options if o[0].startswith(flag)]
        if not found:
            raise ValueError(f"unknown option {flag!r}")
        if len(found) > 1:
            flags = ", ".join(o[0] for o in found)
            raise ValueError(f"ambiguous option {flag!r}: {flags}")
        flag, kind = found[0][:2]
        if kind is None:
            return None, _help(command)
        if kind is bool:
            if equals:
                raise ValueError(f"{flag} takes no value")
            values[flag[2:]] = True
            continue
        if not equals:
            value = next(tokens, None)
        if value is None:
            raise ValueError(f"{flag} needs a value")
        try:
            if kind is int:
                value = int(value)
            else:
                kind.index(value)  # ValueError for a value not in kind
        except ValueError:
            want = "an integer" if kind is int else "one of " + ", ".join(kind)
            raise ValueError(f"{flag} needs {want}, not {value!r}") from None
        values[flag[2:]] = value
    if command is None:
        raise ValueError(f"no command given{choices}")
    handler, own = _COMMANDS[command]
    for flag, kind, required, _ in own:
        if required and flag[2:] not in values:
            raise ValueError(f"{command} needs {flag}")
        values.setdefault(flag[2:], False if kind is bool else None)
    return handler, SimpleNamespace(**values)


def _stdout_closed() -> int:
    # the interpreter flushes stdout again at exit; send that nowhere
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)
    message = "error: stdout was closed before the output was written"
    print(message, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        if handler is None:
            text, code = args, 0
        else:
            doc = handler(args)
            text, code = render(doc, args.format), doc.code
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        # a text stream encodes the whole string before writing any of it,
        # so a failure here leaves stdout empty
        sys.stdout.write(text)
        sys.stdout.flush()
    except UnicodeEncodeError as error:
        print(
            f"error: stdout encoding {sys.stdout.encoding!a} cannot write "
            f"{error.object[error.start]!a}; set PYTHONIOENCODING=utf-8",
            file=sys.stderr,
        )
        return 2
    except BrokenPipeError:
        return _stdout_closed()
    return code


if __name__ == "__main__":
    sys.exit(main())
