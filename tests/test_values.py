"""Value semantics of confab's records and validated types, and import cost.

Records are ``NamedTuple``s; validated types are plain classes whose
``__init__`` checks their input and whose equality and hash are taken over
the values that name an instance.  The import guard keeps modules that
confab does not need out of every cold ``confab`` process.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from confab import StabilityQuery, conf_ab_table, datum, stable_bound
from confab.cli import Document
from confab.exact import QMatrix, RationalPolynomial
from confab.freegroup import InvariantViolation, h1_f2
from confab.groups import ClassFunction, FiniteGroup
from confab.rings import GeneratorAutomorphism, RingPresentation
from confab.tables import CohomologyTable, TableRow
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

SRC = Path(__file__).resolve().parent.parent / "src"


def z2():
    return FiniteGroup(("e", "s"), (1, 1))


def table_row():
    return TableRow(2, 1, (("1", 1), ("σ", 1)))


def verify_check():
    return VerifyCheck("table2-U2", "PASS", "(1, 2)", "(1, 2)")


# each factory returns a new instance with the same field values
FACTORIES = {
    "RationalPolynomial": lambda: RationalPolynomial((1, Fraction(1, 2), 0)),
    "QMatrix": lambda: QMatrix(2, 2, (1, 0, Fraction(4, 2), 1)),
    "FiniteGroup": z2,
    "ClassFunction": lambda: ClassFunction(z2(), (1, -1)),
    "LieFactor": lambda: symplectic(2),
    "GradedCharacter": lambda: GradedCharacter(
        z2(), (RationalPolynomial((1, 1)), RationalPolynomial((1, -1)))
    ),
    "RingPresentation": lambda: RingPresentation(
        (("a", 1), ("b", 2)), (("b", "a"), ("a", "b"))
    ),
    "StabilityQuery": lambda: StabilityQuery("U", 2, 9),
    "TableRow": table_row,
    "CohomologyTable": lambda: CohomologyTable(
        "U2", 2, "derived", (table_row(),)
    ),
    "VerifyCheck": verify_check,
    "VerifyReport": lambda: VerifyReport("derived", (verify_check(),)),
    "CircleConfSummary": lambda: circle_conf(4),
    "SU2ConfSummary": lambda: su2_conf(3),
    "Document": lambda: Document({"k": 3}, ["k"], [[3]], "3\n", 0),
    "GeneratorAutomorphism": lambda: GeneratorAutomorphism.build(
        {"a": [(1, "b")], "b": [(1, "a")]}
    ),
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


def test_different_fields_are_unequal():
    assert RationalPolynomial((1, 2)) != RationalPolynomial((1, 3))
    assert QMatrix(1, 2, (1, 2)) != QMatrix(2, 1, (1, 2))
    assert StabilityQuery("u", 2, 9) != StabilityQuery("u", 2, 8)
    assert symplectic(2) != symplectic(3)
    assert RationalPolynomial((1,)) != (1,)


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
    assert RationalPolynomial((1, 0, 0)).coeffs == (1,)
    assert QMatrix(1, 1, (Fraction(4, 2),)).entries == (2,)
    assert type(QMatrix(1, 1, (Fraction(4, 2),)).entries[0]) is int
    assert StabilityQuery("SP", 1, 1).family == "sp"
    pres = RingPresentation(
        (("a", 1), ("b", 1), ("c", 1)), (("c", "a"), ("b", "a"), ("a", "b"))
    )
    assert pres.forbidden == ((0, 1), (0, 2))


EYE2 = QMatrix.identity(2)

REJECTED = [
    ("negative dimensions", lambda: QMatrix(-1, 0, ()), ValueError),
    ("entry count", lambda: QMatrix(2, 2, (1, 2, 3)), ValueError),
    ("float entry", lambda: QMatrix(1, 1, (0.5,)), TypeError),
    ("float coefficient", lambda: RationalPolynomial((1, 0.5)), TypeError),
    ("no classes", lambda: FiniteGroup((), ()), ValueError),
    ("identity first", lambda: FiniteGroup(("s", "e"), (2, 1)), ValueError),
    ("value count", lambda: ClassFunction(z2(), (1,)), ValueError),
    ("float value", lambda: ClassFunction(z2(), (1, 0.5)), TypeError),
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
        lambda: GradedCharacter(z2(), (RationalPolynomial.one(),)),
        ValueError,
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
    ("family", lambda: StabilityQuery("g2", 1, 2), ValueError),
    ("degree", lambda: StabilityQuery("u", -1, 2), ValueError),
    ("k", lambda: StabilityQuery("u", 1, 0), ValueError),
    (
        "action sizes",
        lambda: h1_f2(EYE2, QMatrix.identity(3)),
        InvariantViolation,
    ),
    (
        "singular action",
        lambda: h1_f2(EYE2, QMatrix(2, 2, (0,) * 4)),
        InvariantViolation,
    ),
    (
        "involution size",
        lambda: h1_f2(EYE2, EYE2, QMatrix.identity(3)),
        InvariantViolation,
    ),
    (
        "involution square",
        lambda: h1_f2(EYE2, EYE2, QMatrix.from_rows([[1, 1], [0, 1]])),
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
    assert stable_bound(StabilityQuery("u", degree=2, k=9)) == 5


# code run in a fresh ``python -S``, the modules it must leave out and the
# modules it must have loaded
IMPORT_CASES = {
    "cli-import": (
        "import confab.cli\n",
        (
            "dataclasses",
            "inspect",
            "json",
            "csv",
            "confab.freegroup",
            "confab.verify",
        ),
        (),
    ),
    "pair-tables": (
        "from confab import conf_ab_table, datum\n"
        "from confab.tables import shortcut_dims\n"
        "for tag in ('U2', 'Sp2'):\n"
        "    conf_ab_table(datum(tag), 2)\n"
        "    shortcut_dims(datum(tag), 2)\n",
        ("confab.freegroup", "confab.verify"),
        (),
    ),
    "verify": (
        "import confab\nassert confab.verify_all().ok\n",
        (),
        ("confab.verify",),
    ),
}


@pytest.mark.parametrize(
    "code, absent, present", IMPORT_CASES.values(), ids=IMPORT_CASES
)
def test_cold_process_loads_only_what_it_runs(code, absent, present):
    # -S keeps site and .pth files from importing a checked module first;
    # the list is printed with repr because json is one of those modules
    checked = absent + present
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        + code
        + f"print(repr([m for m in {checked!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    assert ast.literal_eval(result.stdout) == list(present)
