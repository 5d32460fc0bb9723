"""Exact cohomology tables for spaces of distinct commuting tuples.

For a compact Lie group built from unitary, special unitary, symplectic and
circle factors, the cohomology of the space of ordered k-tuples of pairwise
distinct, pairwise commuting elements is the Weyl-invariant part of the flag
cohomology tensored with the cohomology of torus configurations.  Everything
here is computed in exact rational arithmetic; ``verify_all`` (or the
``confab verify`` command) recomputes every pinned table from scratch.

The package exports the API the README documents; every other name is
imported from its submodule (``confab.exact``, ``confab.groups``,
``confab.weyl``, ``confab.freegroup``, ``confab.torusconf``, ``confab.rings``,
``confab.tables``, ``confab.verify``).  ``confab.freegroup`` loads only for
k = 3 tables and ``confab.verify`` only when ``verify_all`` first runs.
"""

from .tables import (
    CohomologyTable,
    StabilityQuery,
    TableRow,
    conf_ab_table,
    stable_bound,
    verify_all,
)
from .weyl import UnsupportedDatum, datum

__all__ = [
    "CohomologyTable",
    "StabilityQuery",
    "TableRow",
    "UnsupportedDatum",
    "conf_ab_table",
    "datum",
    "stable_bound",
    "verify_all",
]

__version__ = "0.1.0"
