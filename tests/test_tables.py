"""Assembled tables, stability bounds, unordered pairs, verification."""

import json
from collections import Counter
from pathlib import Path

import pytest

from confab import tables, verify
from confab.tables import (
    TABLE1_TAGS,
    TABLE2_TAGS,
    RankTooSmall,
    StabilityQuery,
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
    datum,
    special_unitary,
    symplectic,
)


class TestTables:
    def test_pair_columns(self):
        for tag in TABLE2_TAGS:
            for convention in ("derived", "paper"):
                table = conf_ab_table(datum(tag), 2, convention)
                assert table.dims() == REFERENCE_TABLE2[tag][convention]

    def test_triples_for_u2(self):
        table = conf_ab_table(datum("U2"), 3)
        assert table.dims() == REFERENCE_CONF3_U2

    def test_rows_carry_the_full_decomposition(self):
        table = conf_ab_table(datum("Sp2"), 2)
        for row in table.rows:
            assert row.decomposition is not None
            parts = dict(row.decomposition)
            # invariant dimension is the trivial multiplicity
            assert parts.get("1", 0) == row.dimension

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


class TestStability:
    def test_spot_values(self):
        assert stable_bound(StabilityQuery("sp", 3, 2)) == 5
        assert stable_bound(StabilityQuery("sp", 3, 9)) == 5
        assert stable_bound(StabilityQuery("u", 2, 9)) == 5
        assert stable_bound(StabilityQuery("su", 0, 3)) == 2
        assert stable_bound(StabilityQuery("u", 0, 2)) == 2

    def test_monotone_on_a_grid(self):
        for family in ("u", "su", "sp"):
            for k in range(1, 11):
                bounds = [
                    stable_bound(StabilityQuery(family, n, k))
                    for n in range(11)
                ]
                assert bounds == sorted(bounds)
            for n in range(11):
                by_k = [
                    stable_bound(StabilityQuery(family, n, k))
                    for k in range(1, 11)
                ]
                assert by_k == sorted(by_k)

    def test_validation(self):
        with pytest.raises(ValueError):
            StabilityQuery("so", 1, 2)
        with pytest.raises(ValueError):
            StabilityQuery("u", -1, 2)
        with pytest.raises(ValueError):
            StabilityQuery("u", 1, 0)

    def test_family_case_insensitive(self):
        assert stable_bound(StabilityQuery("SP", 3, 2)) == 5

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
                bound = stable_bound(StabilityQuery(family, degree, 2))
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
                    (conf2_ring_involution(tag, convention),),
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


# the benchmark's oracle tables, read here without being changed
BENCHMARK_TABLES = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)["tables"]


@pytest.mark.parametrize("tag", sorted(BENCHMARK_TABLES))
def test_benchmark_golden_tables(tag):
    assert list(conf_ab_table(datum(tag), 2).dims()) == BENCHMARK_TABLES[tag]


def corrupt_symplectic_datum():
    """Degrees (1, 8) multiply to the group order but are not fundamental."""
    sp2 = symplectic(2)
    factor = LieFactor("Sp2", (1, 8), 0, sp2.group, sp2.charpolys)
    return WeylDatum((factor,), tag="Sp2")


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

    def test_corrupt_degrees_surface_as_failures(self):
        report = verify_all(data={"Sp2": corrupt_symplectic_datum()})
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

    def test_overrides_reach_the_rank_one_checks(self):
        report = verify_all(data={"SU2": datum("Sp2"), "S1": datum("U2")})
        statuses = {check.name: check.status for check in report.checks}
        for name in (
            "circle-pairs",
            "su2-pairs-bundle",
            "rank1-first-cohomology-exception",
        ):
            assert statuses[name] == "FAIL", name

    def test_an_override_does_not_reach_the_next_report(self):
        assert not verify_all(data={"Sp2": corrupt_symplectic_datum()}).ok
        assert verify_all().ok

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

    def test_first_cohomology_is_checked_against_the_table(self):
        # SU3's Weyl group with a circle's pi1 rank: the count says 2, the
        # computed table has no first cohomology
        su3 = special_unitary(3)
        fake = WeylDatum(
            (LieFactor("U2", (2, 3), 1, su3.group, su3.charpolys),), tag="U2"
        )
        for convention in ("derived", "paper"):
            report = verify_all(convention, data={"U2": fake})
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
