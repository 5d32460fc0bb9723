"""Assembled tables, stability bounds, unordered pairs, verification.

Unordered pairs have a route for every datum in ``oracles.unordered_dims``:
the Molien average of the flag tensor the swap character, built from the
torus traces alone.  It meets the ring pins of U2 and S1xSU2 and gives
Betti numbers, with H^0 = 1 and Euler characteristic 0, for every benchmark
datum.
"""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from confab import tables, verify
from confab.tables import (
    RING_TAGS,
    TABLE1_TAGS,
    TABLE2_TAGS,
    RankTooSmall,
    conf2_ring,
    conf2_ring_involution,
    conf_ab_table,
    first_cohomology_dim,
    shortcut_dims,
    stable_bound,
    unordered_conf2_dims,
    unordered_conf2_ring,
    verify_all,
)
from confab.rings import hilbert_series, invariant_subring_dims
from confab.verify import (
    REFERENCE_CONF3_U2,
    REFERENCE_TABLE2,
    REFERENCE_UNORDERED,
)
from confab.weyl import (
    LieFactor,
    UnsupportedDatum,
    WeylDatum,
    carried_factors,
    datum,
    special_unitary,
    symplectic,
)
from oracles import unordered_dims

# the benchmark's oracle tables, read here without being changed
BENCHMARK_TABLES = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)["tables"]

# every benchmark and Table 2 datum with named irreducibles at k = 2, and U2
# at k = 3
CATALOG_TABLES = [
    (tag, 2)
    for tag in sorted(set(BENCHMARK_TABLES) | set(TABLE2_TAGS))
    if datum(tag).catalog is not None
] + [("U2", 3)]


class TestTables:
    def test_pair_columns(self):
        for tag in TABLE2_TAGS:
            for convention in ("derived", "paper"):
                table = conf_ab_table(datum(tag), 2, convention)
                assert table.dims() == REFERENCE_TABLE2[tag][convention]

    def test_triples_for_u2(self):
        table = conf_ab_table(datum("U2"), 3)
        assert table.dims() == REFERENCE_CONF3_U2

    @pytest.mark.parametrize("convention", ("derived", "paper"))
    @pytest.mark.parametrize("tag, k", CATALOG_TABLES)
    def test_rows_carry_the_full_decomposition(self, tag, k, convention):
        # the Molien average and the block-kernel decomposition agree: the
        # invariant dimension is the multiplicity of the first character,
        # which is trivial ("1⊗1" on a product of two non-trivial factors)
        catalog = datum(tag).catalog
        assert all(set(table[0]) == {1} for table in catalog.tables)
        for row in conf_ab_table(datum(tag), k, convention).rows:
            parts = dict(row.decomposition)
            assert parts.get(catalog.labels[0], 0) == row.dimension

    def test_rows_end_at_the_last_nonzero_dimension(self):
        for tag in TABLE2_TAGS:
            table = conf_ab_table(datum(tag), 2)
            assert table.rows[-1].dimension > 0

    def test_euler_characteristic_vanishes(self):
        for tag in TABLE2_TAGS:
            assert conf_ab_table(datum(tag), 2).euler == 0
        assert conf_ab_table(datum("U2"), 3).euler == 0

    def test_unsupported_tuple_lengths(self):
        with pytest.raises(UnsupportedDatum):
            conf_ab_table(datum("U2"), 4)
        with pytest.raises(UnsupportedDatum):
            conf_ab_table(datum("Sp2"), 3)
        # 2.0 would otherwise give a table whose k is the float 2.0, and True
        # would read as k = 1
        for k in (2.0, "2", True):
            message = f"^k must be an integer, not {re.escape(repr(k))}$"
            for route in (conf_ab_table, shortcut_dims):
                with pytest.raises(TypeError, match=message):
                    route(datum("U2"), k)


class TestShortcut:
    def test_agrees_with_tables_everywhere(self):
        for tag in TABLE2_TAGS:
            for convention in ("derived", "paper"):
                d = datum(tag)
                assert shortcut_dims(d, 2, convention) == conf_ab_table(
                    d, 2, convention
                ).dims()

    def test_agrees_for_triples(self):
        assert shortcut_dims(datum("U2"), 3) == REFERENCE_CONF3_U2


class TestFirstCohomology:
    def test_closed_form(self):
        assert first_cohomology_dim(datum("U2"), 2) == 2
        assert first_cohomology_dim(datum("U2"), 3) == 3
        assert first_cohomology_dim(datum("S1xS1"), 2) == 4
        assert first_cohomology_dim(datum("SU3"), 2) == 0
        assert first_cohomology_dim(datum("Sp2"), 2) == 0

    def test_matches_table_entries(self):
        for tag in TABLE2_TAGS:
            expected = conf_ab_table(datum(tag), 2, "derived").rows[1]
            assert first_cohomology_dim(datum(tag), 2) == expected.dimension

    def test_rank_one_is_rejected(self):
        for tag in ("S1", "SU2", "Sp1"):
            with pytest.raises(RankTooSmall):
                first_cohomology_dim(datum(tag), 3)

    def test_non_integer_k_is_a_type_error(self):
        # k = 2.5 would otherwise give the float 2.5, and True the count 1
        for k in (2.5, True):
            with pytest.raises(
                TypeError, match=f"^k must be an integer, not {k!r}$"
            ):
                first_cohomology_dim(datum("U3"), k)


class TestStability:
    def test_spot_values(self):
        assert stable_bound("sp", 3, 2) == 5
        assert stable_bound("sp", 3, 9) == 5
        assert stable_bound("u", 2, 9) == 5
        assert stable_bound("su", 0, 3) == 2
        assert stable_bound("u", 0, 2) == 2

    def test_monotone_on_a_grid(self):
        for family in ("u", "su", "sp"):
            for k in range(1, 11):
                bounds = [stable_bound(family, n, k) for n in range(11)]
                assert bounds == sorted(bounds)
            for n in range(11):
                by_k = [stable_bound(family, n, k) for k in range(1, 11)]
                assert by_k == sorted(by_k)

    def test_validation(self):
        with pytest.raises(
            ValueError, match="^family must be one of u, su, sp$"
        ):
            stable_bound("so", 1, 2)
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            stable_bound("u", -1, 2)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            stable_bound("u", 1, 0)

    def test_non_integer_degree_or_k_is_a_type_error(self):
        # degree = 2.5 would otherwise give the float 4.5, and True would
        # read as 1
        for degree, k, message in (
            (2.5, 2, "degree must be an integer, not 2.5"),
            (True, 2, "degree must be an integer, not True"),
            (2, 2.0, "k must be an integer, not 2.0"),
            (2, False, "k must be an integer, not False"),
        ):
            with pytest.raises(TypeError, match=f"^{message}$"):
                stable_bound("u", degree, k)

    def test_non_string_family_is_a_type_error(self):
        for family in (1, None, b"u"):
            with pytest.raises(TypeError) as caught:
                stable_bound(family, 2, 3)
            assert str(caught.value) == (
                f"family must be a string, not {family!r}"
            )

    def test_family_case_insensitive(self):
        assert stable_bound("SP", 3, 2) == 5

    def test_computed_columns_are_constant_from_the_bound(self):
        # the bound is valid but not always the smallest such rank: H^2 of
        # the U(n) column is constant from n = 2, the bound says 4
        ranks = {"u": range(1, 9), "su": range(2, 9), "sp": range(1, 6)}
        prefix = {"u": "U", "su": "SU", "sp": "Sp"}
        for family, ns in ranks.items():
            columns = {
                n: conf_ab_table(datum(f"{prefix[family]}{n}"), 2).dims()
                for n in ns
            }
            for degree in range(6):
                bound = stable_bound(family, degree, 2)
                stable = {
                    columns[n][degree] if degree < len(columns[n]) else 0
                    for n in ns
                    if n >= bound
                }
                assert len(stable) <= 1, (family, degree, bound)


class TestUnordered:
    def test_three_routes_agree(self):
        for tag in ("U2", "S1xSU2"):
            for convention in ("derived", "paper"):
                reference = REFERENCE_UNORDERED[tag][convention]
                fixed = invariant_subring_dims(
                    conf2_ring(tag, convention),
                    (conf2_ring_involution(tag),),
                )
                model = unordered_conf2_dims(datum(tag), convention)
                closed = hilbert_series(
                    unordered_conf2_ring(tag, convention)
                )
                length = len(reference)
                pad = lambda dims: tuple(
                    dims[i] if i < len(dims) else 0 for i in range(length)
                )
                assert pad(fixed) == reference
                assert pad(model) == reference
                assert pad(closed) == reference

    def test_ring_series_match_ordered_tables(self):
        for tag in ("U2", "S1xSU2"):
            for convention in ("derived", "paper"):
                assert (
                    hilbert_series(conf2_ring(tag, convention))
                    == REFERENCE_TABLE2[tag][convention]
                )

    def test_other_groups_are_not_presented(self):
        with pytest.raises(UnsupportedDatum):
            conf2_ring("Sp2")
        with pytest.raises(UnsupportedDatum):
            unordered_conf2_dims(datum("SU3"))

    @pytest.mark.parametrize("convention", ["derived", "paper"])
    @pytest.mark.parametrize("tag", ["U2", "S1xSU2"])
    def test_swap_trace_is_a_fourth_route(self, tag, convention):
        # the Molien average of the swap character, built from the torus
        # traces alone, against the pins the three ring routes meet; each
        # pin ends in one zero, which trimmed dims drop
        reference = REFERENCE_UNORDERED[tag][convention]
        assert reference[-1] == 0
        assert unordered_dims(datum(tag), convention) == reference[:-1]

    @pytest.mark.parametrize("convention", ["derived", "paper"])
    def test_swap_trace_beyond_the_presented_groups(self, convention):
        assert unordered_dims(datum("SU3"), convention) == (
            1, 0, 0, 1, 0, 1, 0, 0, 1,
        )
        assert unordered_dims(datum("Sp2"), convention) == (
            1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1,
        )


@pytest.mark.parametrize("convention", ["derived", "paper"])
@pytest.mark.parametrize(
    "tag", sorted(set(BENCHMARK_TABLES) | {"S1xS1", "S1xSU2", "U1xSU2"})
)
def test_swap_route_gives_betti_numbers(tag, convention):
    # nonnegative integers with H^0 = 1 and Euler characteristic 0: at
    # t = -1 the flag traces vanish off the identity, and the torus acts
    # freely on unordered pairs by translation.  From rank 2 up the derived
    # H^1 is the rank of pi_1, half the ordered table's
    d = datum(tag)
    dims = unordered_dims(d, convention)
    assert all(type(dim) is int and dim >= 0 for dim in dims)
    assert dims[0] == 1
    assert sum((-1) ** n * dim for n, dim in enumerate(dims)) == 0
    if d.rank >= 2 and convention == "derived":
        assert dims[1] == d.pi1_rank


@pytest.mark.parametrize("tag", sorted(BENCHMARK_TABLES))
def test_benchmark_golden_tables(tag):
    assert list(conf_ab_table(datum(tag), 2).dims()) == BENCHMARK_TABLES[tag]


def times_one_plus_t(dims, m):
    """The coefficients of dims(t) * (1 + t)^m."""
    dims = list(dims)
    for _ in range(m):
        dims = [a + b for a, b in zip(dims + [0], [0] + dims)]
    return tuple(dims)


# m is 0 for most, 1 for S1xSU2, U1xSU2, S1xU3 and S1xSU2xSp1, and 2 for
# S1xS1xSU3 and U1xU1xSp2
CARRIED_TAGS = sorted(
    set(BENCHMARK_TABLES)
    | set(TABLE2_TAGS)
    | {"U1xSU2", "S1xS1xSU3", "U1xU1xSp2"}
)


class TestCarriedClass:
    """Identity tests for the paper convention's carried degree-1 classes.

    Each class that ``carried_factors`` marks is an exterior factor of the
    paper convention's answer, so that answer is the derived one times
    (1 + t)^m, m the number of marked factors.
    """

    @pytest.mark.parametrize("tag", CARRIED_TAGS)
    def test_paper_table_is_derived_times_carried_classes(self, tag):
        d = datum(tag)
        m = sum(carried_factors(d, "paper"))
        assert conf_ab_table(d, 2, "paper").dims() == times_one_plus_t(
            conf_ab_table(d, 2).dims(), m
        )

    @pytest.mark.parametrize("build", [conf2_ring, unordered_conf2_ring])
    @pytest.mark.parametrize("tag", RING_TAGS)
    def test_ring_series_are_derived_times_carried_classes(self, tag, build):
        m = sum(carried_factors(datum(tag), "paper"))
        assert hilbert_series(build(tag, "paper")) == times_one_plus_t(
            hilbert_series(build(tag)), m
        )


def corrupt_symplectic_datum():
    """Degrees (1, 8) multiply to the group order but are not fundamental."""
    sp2 = symplectic(2)
    factor = LieFactor("Sp2", (1, 8), 0, sp2.group, sp2.charpolys)
    return WeylDatum((factor,))


def override_data(monkeypatch, data):
    """Make every check of the next report read ``data[tag]`` for a tag."""
    original = verify.datum
    monkeypatch.setattr(
        verify, "datum", lambda tag: data.get(tag) or original(tag)
    )


class TestVerify:
    def test_clean_run(self):
        report = verify_all()
        passed, failed, warned = report.counts()
        assert report.ok
        assert failed == 0
        assert warned == 1
        assert passed >= 40
        warn = [c for c in report.checks if c.status == "WARN"]
        assert warn[0].name == "s1xsu2-convention"

    def test_clean_run_paper_convention(self):
        report = verify_all("paper")
        _, failed, warned = report.counts()
        assert report.ok
        assert (failed, warned) == (0, 1)

    def test_corrupt_degrees_surface_as_failures(self, monkeypatch):
        override_data(monkeypatch, {"Sp2": corrupt_symplectic_datum()})
        report = verify_all()
        assert not report.ok
        flag_check = next(
            c for c in report.checks if c.name == "flag-Sp2"
        )
        assert flag_check.status == "FAIL"
        assert "NonZeroRemainder" in flag_check.got
        # a computed expected value that raises is a FAIL line too
        h1_check = next(
            c for c in report.checks if c.name == "first-cohomology-Sp2"
        )
        assert (h1_check.status, h1_check.expected) == ("FAIL", "not computed")
        assert "NonZeroRemainder" in h1_check.got
        # untouched columns still pass
        u2_check = next(c for c in report.checks if c.name == "table2-U2")
        assert u2_check.status == "PASS"

    def test_overrides_reach_the_rank_one_checks(self, monkeypatch):
        override_data(monkeypatch, {"SU2": datum("Sp2"), "S1": datum("U2")})
        report = verify_all()
        statuses = {check.name: check.status for check in report.checks}
        for name in (
            "circle-pairs",
            "su2-pairs-bundle",
            "rank1-first-cohomology-exception",
        ):
            assert statuses[name] == "FAIL", name

    def test_an_extra_unordered_degree_fails(self, monkeypatch):
        # an answer longer than the reference is a mismatch, not a prefix
        original = verify.unordered_conf2_dims
        monkeypatch.setattr(
            verify,
            "unordered_conf2_dims",
            lambda *args: tuple(original(*args)) + (7,),
        )
        report = verify_all()
        statuses = {check.name: check.status for check in report.checks}
        assert statuses["unordered-model-U2"] == "FAIL"
        assert statuses["unordered-model-S1xSU2"] == "FAIL"
        assert statuses["unordered-fixed-subring-U2"] == "PASS"

    def test_embedding_lines_check_the_written_generators(self, monkeypatch):
        # c2 = x1 w1 is not Weyl invariant (w1 changes sign) and its
        # product with d3 = b2 y1 does not vanish
        table = dict(verify._EMBEDDINGS["S1xSU2"])
        table["c2"] = ((1, ("x1", "w1")),)
        monkeypatch.setitem(verify._EMBEDDINGS, "S1xSU2", table)
        for convention in ("derived", "paper"):
            statuses = {
                check.name: (check.status, check.got)
                for check in verify_all(convention).checks
            }
            status, got = statuses["ring-embedding-S1xSU2"]
            assert status == "FAIL"
            assert got.startswith("invariant=False;")
            assert "relations-zero=False" in got
            assert statuses["ring-embedding-U2"][0] == "PASS"

    def test_a_wrong_swap_sign_fails_the_embedding_line(self, monkeypatch):
        # the point swap sends the embedded d2 to minus itself, not to d2
        original = verify.conf2_ring_involution

        def wrong(tag):
            involution = dict(original(tag))
            if tag == "U2":
                involution["d2"] = ((1, ("d2",)),)
            return involution

        monkeypatch.setattr(verify, "conf2_ring_involution", wrong)
        for convention in ("derived", "paper"):
            check = next(
                c
                for c in verify_all(convention).checks
                if c.name == "ring-embedding-U2"
            )
            assert check.status == "FAIL"
            assert check.got.startswith(
                "invariant=True; swap-action=False; relations-zero=True;"
            )

    def test_an_embedding_that_is_not_invariant_fails(self, monkeypatch):
        # the Weyl group swaps z1 and w1, so z1 - w1 changes sign
        table = dict(verify._EMBEDDINGS["U2"])
        table["c1"] = ((1, ("z1",)), (-1, ("w1",)))
        monkeypatch.setitem(verify._EMBEDDINGS, "U2", table)
        for convention in ("derived", "paper"):
            check = next(
                c
                for c in verify_all(convention).checks
                if c.name == "ring-embedding-U2"
            )
            assert check.status == "FAIL"
            assert check.got.startswith("invariant=False;")

    def test_first_cohomology_is_checked_against_the_table(self, monkeypatch):
        # SU3's Weyl group with a circle's pi1 rank: the count says 2, the
        # computed table has no first cohomology
        su3 = special_unitary(3)
        fake = WeylDatum(
            (LieFactor("U2", (2, 3), 1, su3.group, su3.charpolys),)
        )
        override_data(monkeypatch, {"U2": fake})
        for convention in ("derived", "paper"):
            report = verify_all(convention)
            check = next(
                c for c in report.checks if c.name == "first-cohomology-U2"
            )
            assert (check.status, check.expected, check.got) == (
                "FAIL",
                "0",
                "2",
            )

    def test_each_table_and_character_is_built_once(self, monkeypatch):
        calls = Counter()
        # the suite's own calls go through confab.verify; the characters
        # behind each table and shortcut are built through confab.tables
        for module, name in (
            (verify, "conf_ab_table"),
            (verify, "shortcut_dims"),
            (verify, "flag_character"),
            (verify, "conf2_torus"),
            (tables, "flag_character"),
            (tables, "conf2_torus"),
        ):

            def counted(d, *args, name=name, original=getattr(module, name)):
                calls[name, d.tag, args] += 1
                return original(d, *args)

            monkeypatch.setattr(module, name, counted)
        assert verify_all("derived").ok
        totals = Counter()
        for (name, _, args), n in calls.items():
            totals[name] += n
            if name in ("conf_ab_table", "shortcut_dims") and args[0] == 2:
                totals["pair routes"] += n
        # one table per (tag, k): five k = 2 columns, the U2 triples, and
        # the S1 and SU2 bundle checks
        assert totals["conf_ab_table"] == 8
        assert {
            n for key, n in calls.items() if key[0] == "conf_ab_table"
        } == {1}
        # each table and shortcut builds its own characters; the flag-* and
        # conf2-torus-* checks add one per table 1 tag, not one per degree
        routes = totals["conf_ab_table"] + totals["shortcut_dims"]
        assert totals["flag_character"] == routes + len(TABLE1_TAGS)
        pair_routes = totals["pair routes"]
        assert totals["conf2_torus"] == pair_routes + len(TABLE1_TAGS)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            verify_all("folklore")
