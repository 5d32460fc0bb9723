"""Value semantics of confab's records and validated types, and import cost.

Records are ``collections.namedtuple`` subclasses with no ``__dict__``;
validated types are plain classes whose ``__init__`` checks their input and
whose equality and hash are taken over the values that name an instance.
The import guard keeps modules that confab does not need out of every cold
``confab`` process, ``typing`` and ``argparse`` included, and allows
``import confab.cli`` only a short list of modules beyond those a bare
``python -S`` process has loaded.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import confab
from confab import conf_ab_table, datum, stable_bound
from confab.cli import Document
from confab.exact import QMatrix, as_trimmed_tuple
from confab.freegroup import InvariantViolation, h1_f2
from confab.groups import FiniteGroup, IrreducibleCatalog
from confab.rings import RingPresentation
from confab.tables import (
    CohomologyTable,
    TableRow,
    first_cohomology_dim,
    shortcut_dims,
)
from confab.torusconf import circle_conf, su2_conf
from confab.verify import VerifyCheck, VerifyReport
from confab.weyl import (
    GradedCharacter,
    LieFactor,
    UnsupportedDatum,
    circle,
    symplectic,
    unitary,
)

# the directory the tested confab was imported from: src/, or the install
ROOT = Path(confab.__file__).resolve().parents[1]


def z2():
    return FiniteGroup(("e", "s"), (1, 1))


def table_row():
    return TableRow(2, 1, (("1", 1), ("σ", 1)))


def verify_check():
    return VerifyCheck("table2-U2", "PASS", "(1, 2)", "(1, 2)")


# each factory returns a new instance with the same field values
FACTORIES = {
    "FiniteGroup": z2,
    "LieFactor": lambda: symplectic(2),
    "GradedCharacter": lambda: GradedCharacter(z2(), ((1, 1), (1, -1))),
    "RingPresentation": lambda: RingPresentation(
        (("a", 1), ("b", 2)), (("b", "a"), ("a", "b"))
    ),
    "TableRow": table_row,
    "CohomologyTable": lambda: CohomologyTable(
        "U2", 2, "derived", (table_row(),)
    ),
    "VerifyCheck": verify_check,
    "VerifyReport": lambda: VerifyReport("derived", (verify_check(),)),
    "CircleConfSummary": lambda: circle_conf(4),
    "SU2ConfSummary": lambda: su2_conf(3),
    "Document": lambda: Document({"k": 3}, ["k"], [[3]], "3\n", 0),
}


# a document carries a dict payload and lists, so it is compared, never hashed
UNHASHABLE = {"Document"}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equal_fields_are_equal_and_hash_alike(name):
    first, second = FACTORIES[name](), FACTORIES[name]()
    assert first is not second
    assert type(first).__name__ == name
    assert first == second
    assert not first != second
    if name not in UNHASHABLE:
        assert hash(first) == hash(second)
    # records and value types are slotted: no instance carries a __dict__
    assert not hasattr(first, "__dict__")


def test_different_fields_are_unequal():
    assert symplectic(2) != symplectic(3)


def with_datum(factor, tag, degrees, pi1_rank):
    """A factor with ``factor``'s Weyl group and characteristic polynomials."""
    return LieFactor(tag, degrees, pi1_rank, factor.group, factor.charpolys)


def test_lie_factor_equality_ignores_derived_attributes():
    stripped = symplectic(2)
    stripped.catalog = None
    assert stripped == symplectic(2)
    assert hash(stripped) == hash(symplectic(2))
    assert with_datum(symplectic(2), "Sp2", (2, 4), 0) == symplectic(2)
    assert with_datum(symplectic(2), "Sp2'", (2, 4), 0) != symplectic(2)
    # the circle is U(1) under its own tag
    assert with_datum(unitary(1), "S1", (1,), 1) == circle()
    assert circle() != unitary(1)


def test_construction_normalises_fields():
    assert as_trimmed_tuple([1, 0, 0]) == (1,)
    traces = GradedCharacter(
        z2(), ([1, 0, 0], (Fraction(4, 2), Fraction(1, 2)))
    ).traces
    assert traces == ((1,), (2, Fraction(1, 2)))
    assert [type(v) for v in traces[1]] == [int, Fraction]
    with pytest.raises(TypeError):
        GradedCharacter(z2(), ((1,), ("1/2",)))
    assert QMatrix(1, 1, (Fraction(4, 2),)).entries == (2,)
    assert type(QMatrix(1, 1, (Fraction(4, 2),)).entries[0]) is int
    assert stable_bound("SP", 1, 1) == stable_bound("sp", 1, 1) == 3
    pres = RingPresentation(
        (("a", 1), ("b", 1), ("c", 1)), (("c", "a"), ("b", "a"), ("a", "b"))
    )
    assert pres.forbidden == ((0, 1), (0, 2))


EYE2 = [[1, 0], [0, 1]]
EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# every argument that must be a whole number, by route; a bool is an int to
# Python but not a count to confab
WHOLE_NUMBER_ROUTES = {
    "stable_bound degree": lambda value: stable_bound("u", value, 2),
    "stable_bound k": lambda value: stable_bound("u", 2, value),
    "conf_ab_table k": lambda value: conf_ab_table(datum("U2"), value),
    "shortcut_dims k": lambda value: shortcut_dims(datum("U2"), value),
    "first_cohomology_dim k": lambda value: first_cohomology_dim(
        datum("U2"), value
    ),
    "circle_conf k": circle_conf,
    "su2_conf k": su2_conf,
}
NOT_WHOLE_NUMBERS = (True, False, 2.0)

REJECTED = [
    ("negative dimensions", lambda: QMatrix(-1, 0, ()), ValueError),
    ("entry count", lambda: QMatrix(2, 2, (1, 2, 3)), ValueError),
    ("float entry", lambda: QMatrix(1, 1, (0.5,)), TypeError),
    ("float coefficient", lambda: as_trimmed_tuple((1, 0.5)), TypeError),
    ("no classes", lambda: FiniteGroup((), ()), ValueError),
    ("identity first", lambda: FiniteGroup(("s", "e"), (2, 1)), ValueError),
    # a class function's values are a catalog's value row
    (
        "value count",
        lambda: IrreducibleCatalog(z2(), ("1", "σ"), [((1, 1), (1,))]),
        ValueError,
    ),
    (
        "float value",
        lambda: IrreducibleCatalog(z2(), ("1", "σ"), [((1, 1), (1, 0.5))]),
        TypeError,
    ),
    (
        "degree count",
        lambda: with_datum(unitary(2), "U2", (2,), 1),
        UnsupportedDatum,
    ),
    (
        "degree product",
        lambda: with_datum(unitary(2), "U2", (1, 3), 1),
        UnsupportedDatum,
    ),
    (
        "trace count",
        lambda: GradedCharacter(z2(), ((1,),)),
        ValueError,
    ),
    (
        "float trace",
        lambda: GradedCharacter(z2(), ((1,), (1, 0.5))),
        TypeError,
    ),
    (
        "duplicate label",
        lambda: RingPresentation((("a", 1), ("a", 2))),
        ValueError,
    ),
    ("degree zero", lambda: RingPresentation((("a", 0),)), ValueError),
    (
        "bad pair",
        lambda: RingPresentation((("a", 1), ("b", 1)), (("a", "a"),)),
        ValueError,
    ),
    (
        "unknown label",
        lambda: RingPresentation((("a", 1),), (("a", "b"),)),
        ValueError,
    ),
    ("family", lambda: stable_bound("g2", 1, 2), ValueError),
    *(
        (f"{name} {value!r}", partial(route, value), TypeError)
        for name, route in WHOLE_NUMBER_ROUTES.items()
        for value in NOT_WHOLE_NUMBERS
    ),
    ("degree", lambda: stable_bound("u", -1, 2), ValueError),
    ("k", lambda: stable_bound("u", 1, 0), ValueError),
    (
        "action sizes",
        lambda: h1_f2(EYE2, EYE3, EYE2),
        InvariantViolation,
    ),
    (
        "singular action",
        lambda: h1_f2(EYE2, [[0, 0], [0, 0]], EYE2),
        InvariantViolation,
    ),
    (
        "involution size",
        lambda: h1_f2(EYE2, EYE2, EYE3),
        InvariantViolation,
    ),
    (
        "involution square",
        lambda: h1_f2(EYE2, EYE2, [[1, 1], [0, 1]]),
        InvariantViolation,
    ),
]


@pytest.mark.parametrize(
    "build, error",
    [case[1:] for case in REJECTED],
    ids=[case[0] for case in REJECTED],
)
def test_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_readme_library_example():
    table = conf_ab_table(datum("Sp2"), k=2)
    assert table.dims() == (1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2)
    assert repr(table.rows[2]) == (
        "TableRow(degree=2, dimension=1, "
        "decomposition=(('1', 1), ('a', 1), ('b', 1), ('c', 2), ('d', 1)))"
    )
    assert stable_bound("u", degree=2, k=9) == 5


# fractions imports decimal and numbers; confab loads all three only on the
# first value that is not an int, which no shipped command meets
FRACTIONS = ("fractions", "decimal", "numbers")

# code run in a fresh ``python -S``, the modules it must leave out and the
# modules it must have loaded
IMPORT_CASES = {
    "cli-import": (
        "import confab.cli\n",
        (
            "typing",
            "dataclasses",
            "inspect",
            "json",
            "csv",
            "confab.freegroup",
            "confab.verify",
            *FRACTIONS,
        ),
        (),
    ),
    "cli-table2": (
        "import io\n"
        "import confab.cli\n"
        "sys.stdout = io.StringIO()\n"
        "assert confab.cli.main(['table2']) == 0\n"
        "sys.stdout = sys.__stdout__\n",
        ("argparse", "gettext", "locale", "typing", "json", "csv", *FRACTIONS),
        (),
    ),
    "pair-tables": (
        "from confab import conf_ab_table, datum\n"
        "from confab.tables import shortcut_dims\n"
        "for tag in ('U2', 'Sp2'):\n"
        "    conf_ab_table(datum(tag), 2)\n"
        "    shortcut_dims(datum(tag), 2)\n",
        ("typing", "confab.freegroup", "confab.verify", *FRACTIONS),
        (),
    ),
    "product-tables": (
        "from confab import conf_ab_table, datum\n"
        "from confab.tables import shortcut_dims\n"
        "conf_ab_table(datum('U2xSp2'), 2)\n"
        "shortcut_dims(datum('U2xSp2'), 2)\n",
        ("typing", *FRACTIONS),
        (),
    ),
    "conf3": (
        "from confab import conf_ab_table, datum\n"
        "conf_ab_table(datum('U2'), 3)\n",
        ("typing", *FRACTIONS),
        ("confab.freegroup",),
    ),
    "verify": (
        "import confab\nassert confab.verify_all().ok\n",
        ("typing", *FRACTIONS),
        ("confab.verify",),
    ),
    "first-fraction": (
        "from confab.exact import as_exact, exact_div\n"
        "assert exact_div(6, 3) == 2 and 'fractions' not in sys.modules\n"
        "half = exact_div(1, 2)\n"
        "assert 'fractions' in sys.modules\n"
        "from fractions import Fraction\n"
        "assert half == Fraction(1, 2) and type(half) is Fraction\n"
        "assert type(as_exact(Fraction(4, 2))) is int\n"
        "try:\n"
        "    as_exact(0.5)\n"
        "except TypeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('as_exact accepted a float')\n",
        ("typing",),
        FRACTIONS,
    ),
    "first-float": (
        "from confab.exact import as_exact\n"
        "for value in (0.5, '1/2'):\n"
        "    try:\n"
        "        as_exact(value)\n"
        "    except TypeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(f'as_exact accepted {value!r}')\n",
        ("typing",),
        ("fractions",),
    ),
}


def cold_modules(code):
    """The names in ``sys.modules`` after ``code`` runs in a fresh process."""
    # -S keeps site and .pth files from importing a checked module first;
    # the names are printed with repr because json is one of those modules
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        + code
        + "print(repr(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(ast.literal_eval(result.stdout))


@pytest.mark.parametrize(
    "code, absent, present", IMPORT_CASES.values(), ids=IMPORT_CASES
)
def test_cold_process_loads_only_what_it_runs(code, absent, present):
    loaded = cold_modules(code)
    assert [m for m in absent + present if m in loaded] == list(present)


# what ``import confab.cli`` may load beyond a bare ``python -S`` process:
# collections, functools and os with what they import (heapq only where
# collections imports it at its top)
CLI_ALLOWED = {
    "__future__",
    "_collections",
    "_collections_abc",
    "_functools",
    "_heapq",
    "_operator",
    "_stat",
    "collections",
    "collections.abc",
    "functools",
    "genericpath",
    "heapq",
    "itertools",
    "keyword",
    "math",
    "operator",
    "os",
    "os.path",
    "posixpath",
    "reprlib",
    "stat",
    "types",
}


def test_cli_import_loads_only_the_allowlist():
    extra = cold_modules("import confab.cli\n") - cold_modules("")
    assert {m for m in extra if m.partition(".")[0] != "confab"} <= CLI_ALLOWED
