"""The README's examples, run: each shown output must be what confab prints.

The Library snippet is run line by line; a line with a trailing comment
must evaluate to exactly the text of that comment (continued on the
comment-only lines below it).  Each ``$ confab ...`` example is run through
``confab.cli.main``; its shown lines must be the first lines of the
output, and all of them unless the example ends in "...".  A change to
either the README or the program fails here.
"""

import shlex
from pathlib import Path

import pytest

from confab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def fenced(language):
    """The body of the one README code block opened with ```language."""
    blocks = README.split(f"```{language}\n")
    assert len(blocks) == 2, f"expected one {language} block"
    return blocks[1].split("```", 1)[0]


def library_lines():
    """(code, comment or None) per line of the Library snippet."""
    lines = []
    for line in fenced("python").splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), " ".join(comment.split())
        if not code and comment:
            # a comment-only line continues the comment above it
            shown = lines[-1][1]
            lines[-1] = (lines[-1][0], f"{shown} {comment}")
        elif code:
            lines.append((code, comment or None))
    return lines


def cli_examples():
    """{argv string: shown lines} for each ``$ confab`` example."""
    examples = {}
    for chunk in fenced("text").split("$ confab ")[1:]:
        command, *shown = chunk.strip("\n").split("\n")
        examples[command] = shown
    return examples


def test_library_snippet_prints_what_it_shows():
    namespace = {}
    checked = []
    for code, comment in library_lines():
        if comment is None:
            exec(code, namespace)
        else:
            assert repr(eval(code, namespace)) == comment, code
            checked.append(code)
    assert checked == [
        "table.dims()",
        "table.rows[2]",
        'stable_bound("u", degree=2, k=9)',
    ]


@pytest.mark.parametrize(
    "command, lines",
    (
        ("table2", 5),
        ("bound --family sp --degree 3 --k 5", 1),
        ("circle --k 4", 1),
        ("--help", 3),
    ),
)
def test_command_line_example_prints_what_it_shows(capsys, command, lines):
    shown = cli_examples()[command]
    truncated = shown[-1] == "..."
    if truncated:
        shown = shown[:-1]
    assert len(shown) == lines
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[: len(shown)] if truncated else out) == shown
