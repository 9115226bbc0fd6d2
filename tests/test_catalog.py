import importlib.resources
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from cwm.catalog import (
    Catalog,
    CatalogIntegrityError,
    CatalogRecord,
    OPEN_CASES,
    RECORD_FILE,
    seed_known_results,
)
from cwm.constructions import multiple
from cwm.exhaust import search
from cwm.groupring import (
    GroupRingElement, element, proper_decomposition, verify, witness_format, witness_parse
)

# records.tsv as seed_known_results wrote it before the catalog kept its
# verified witness elements
GOLDEN = Path(__file__).parent / "golden"


class TestUpsert:
    def test_exists_requires_witness(self, tmp_path):
        cat = Catalog(tmp_path)
        with pytest.raises(ValueError):
            cat.upsert(CatalogRecord(7, 4, "exists", None, "no witness offered"))

    def test_exists_with_element(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        rec = cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        assert rec.witness is not None
        assert (tmp_path / rec.witness).exists()
        assert cat.status(7, 4) == "exists"

    @pytest.mark.parametrize("root_exists", [True, False])
    def test_first_witness_makes_the_witness_directory(self, tmp_path, cw7, cw13, root_exists):
        root = tmp_path / "cat"
        if root_exists:
            root.mkdir()
        cat = Catalog(root)
        for elem, k in ((cw7, 4), (cw13, 9)):
            assert not (root / "witnesses" / f"cw{elem.order}_{k}.cw").exists()
            rec = cat.upsert(CatalogRecord(elem.order, k, "exists", None, "test", elem))
            assert rec.witness == f"witnesses/cw{elem.order}_{k}.cw"
            assert (root / rec.witness).read_text() == witness_format(elem, k)

    def test_file_name_without_element_refused(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        with pytest.raises(ValueError, match="needs a witness"):
            cat.upsert(CatalogRecord(7, 4, "exists", "witnesses/cw7_4.cw", "a name only"))

    def test_external_record_drops_the_witness(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        cat.upsert(CatalogRecord(7, 4, "exists", None, "an external construction"))
        assert cat.record(7, 4).witness is None
        assert cat.witness_element(7, 4) is None

    def test_bad_witness_blocked(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        with pytest.raises(ValueError):
            cat.upsert(CatalogRecord(7, 5, "exists", None, "wrong k", cw7))

    def test_integer_weighing_matrix_blocked(self, tmp_path, cw7):
        # 2 * cw7 is an ICW_2(7,16), which is no CW(7,16): k > n
        cat = Catalog(tmp_path)
        doubled = element(7, [2 * c for c in cw7.coeffs])
        with pytest.raises(ValueError, match="fails verification"):
            cat.upsert(CatalogRecord(7, 16, "exists", None, "doubled", doubled))
        assert cat.status(7, 16) == "open"
        assert not (tmp_path / "witnesses" / "cw7_16.cw").exists()

    def test_downgrade_ignored(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        assert cat.upsert(CatalogRecord(7, 4, "open", None, "oops")) is None
        assert cat.status(7, 4) == "exists"

    def test_conflict_raises_with_both_provenances(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "witnessed", cw7))
        with pytest.raises(CatalogIntegrityError, match="witnessed.*claimed impossible"):
            cat.upsert(CatalogRecord(7, 4, "nonexistent", None, "claimed impossible"))

    def test_open_then_settled(self, tmp_path):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(110, 81, "open", None, "pending"))
        cat.upsert(CatalogRecord(110, 81, "nonexistent", None, "margin analysis"))
        assert cat.status(110, 81) == "nonexistent"


class TestPersistence:
    def test_round_trip(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        cat.upsert(CatalogRecord(110, 81, "nonexistent", None, "analysis"))
        cat.save()
        again = Catalog(tmp_path)
        assert again.status(7, 4) == "exists"
        assert again.status(110, 81) == "nonexistent"
        assert again.witness_element(7, 4) == cw7

    def test_corrupt_witness_quarantined(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        cat.save()
        wfile = tmp_path / "witnesses" / "cw7_4.cw"
        wfile.write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")  # fails verification
        again = Catalog(tmp_path)
        assert again.warnings
        assert not wfile.exists()
        assert (tmp_path / "witnesses" / "quarantine" / "cw7_4.cw").exists()
        assert "quarantined" in again.record(7, 4).provenance
        assert again.witness_element(7, 4) is None

    def test_witness_with_bound_above_one_quarantined(self, tmp_path):
        (tmp_path / RECORD_FILE).write_text(
            "7\t16\texists\twitnesses/cw7_16.cw\thand edit\n"
        )
        (tmp_path / "witnesses").mkdir()
        (tmp_path / "witnesses" / "cw7_16.cw").write_text("CW 7 16 2\n-2 2 2 0 2 0 0\n")
        cat = Catalog(tmp_path)
        assert cat.warnings == [
            "witness for (7,16) quarantined: witness declares coefficient bound 2, not 1"
        ]
        assert (tmp_path / "witnesses" / "quarantine" / "cw7_16.cw").exists()
        assert cat.record(7, 16).witness is None
        assert cat.witness_element(7, 16) is None

    @pytest.mark.parametrize(
        "body,kept",
        [("-1 1 1 0 2 0 0", False), ("-1 +1 01 0 1 0 -0", True)],
        ids=["coefficient-2", "int-path-tokens"],
    )
    def test_load_holds_witness_to_bound_in_parser(self, tmp_path, cw7, body, kept):
        (tmp_path / RECORD_FILE).write_text("7\t4\texists\twitnesses/cw7_4.cw\thand edit\n")
        (tmp_path / "witnesses").mkdir()
        (tmp_path / "witnesses" / "cw7_4.cw").write_text(f"CW 7 4 1\n{body}\n")
        cat = Catalog(tmp_path)
        if kept:
            assert cat.warnings == [] and cat.witness_element(7, 4) == cw7
        else:
            assert cat.warnings == [
                "witness for (7,4) quarantined: coefficient exceeds bound 1"
            ]
            assert cat.witness_element(7, 4) is None

    def test_second_quarantine_keeps_the_first(self, tmp_path, cw7):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        cat.save()
        bad = ["CW 7 4 1\n1 1 1 0 0 0 0\n", "CW 7 4 1\n0 0 0 1 1 1 1\n"]
        for text in bad:  # unsaved, so records.tsv names the witness both times
            (tmp_path / "witnesses" / "cw7_4.cw").write_text(text)
            assert Catalog(tmp_path).witness_element(7, 4) is None
        qdir = tmp_path / "witnesses" / "quarantine"
        assert {p.name: p.read_text() for p in qdir.iterdir()} == {
            "cw7_4.cw": bad[0], "cw7_4.1.cw": bad[1]
        }

    @pytest.mark.parametrize("absolute", [False, True], ids=["dotdot", "absolute"])
    def test_witness_outside_the_catalog_untouched(self, tmp_path, absolute):
        root, victim = tmp_path / "cat", tmp_path / "victim" / "notes.txt"
        root.mkdir()
        victim.parent.mkdir()
        victim.write_text("not a witness\n")
        witness = str(victim) if absolute else "../victim/notes.txt"
        (root / RECORD_FILE).write_text(f"7\t4\texists\t{witness}\thand edit\n")
        cat = Catalog(root)
        assert victim.read_text() == "not a witness\n"
        assert not (root / "witnesses").exists()
        assert cat.records == {}
        assert len(cat.warnings) == 1
        assert cat.warnings[0].startswith("malformed record skipped (witness must be witnesses/")

    @pytest.mark.parametrize(
        "witness",
        ["cw7_4.cw", "witnesses", "witnesses/", "witnesses/.", "witnesses/..",
         "witnesses/a/b.cw", "witnesses/../cw7_4.cw", "/witnesses/cw7_4.cw",
         "witnesses/a\0b.cw"],
    )
    def test_record_refuses_a_witness_outside_the_witness_directory(self, witness):
        with pytest.raises(ValueError, match="witness must be witnesses/<file name>"):
            CatalogRecord(7, 4, "exists", witness, "hand edit")

    @pytest.mark.parametrize("status", ["nonexistent", "open"])
    def test_record_refuses_an_element_unless_it_exists(self, cw7, status):
        # the closure builds on every element a record carries
        with pytest.raises(ValueError, match=f"a {status} record carries no witness element"):
            CatalogRecord(7, 4, status, None, "hand edit", cw7)

    def test_quarantined_witness_leaves_no_element(self, tmp_path, cw7):
        cat = Catalog(tmp_path, n_max=28)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        cat.save()
        (tmp_path / "witnesses" / "cw7_4.cw").write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        again = Catalog(tmp_path, n_max=28)
        rec = again.record(7, 4)
        assert (rec.status, rec.witness, rec.element) == ("exists", None, None)
        assert again.close_under_constructions() == []

    def test_directory_named_as_witness_stays(self, tmp_path):
        (tmp_path / RECORD_FILE).write_text("7\t4\texists\twitnesses/quarantine\thand edit\n")
        (tmp_path / "witnesses" / "quarantine").mkdir(parents=True)
        cat = Catalog(tmp_path)
        assert (tmp_path / "witnesses" / "quarantine").is_dir()
        assert list((tmp_path / "witnesses").iterdir()) == [tmp_path / "witnesses" / "quarantine"]
        assert cat.record(7, 4).witness is None
        assert len(cat.warnings) == 1 and "(7,4) quarantined" in cat.warnings[0]

    @pytest.mark.parametrize(
        "repeat",
        ["7\t4\topen\t-\thand edit", "7\t4\texists\twitnesses/bad.cw\thand edit"],
        ids=["reopen", "restate"],
    )
    def test_repeated_line_that_does_not_strengthen_skipped(self, tmp_path, cw7, repeat):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "test", cw7))
        cat.save()
        (tmp_path / "witnesses" / "bad.cw").write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        with (tmp_path / RECORD_FILE).open("a") as fh:
            fh.write(repeat + "\n")
        again = Catalog(tmp_path)
        assert again.record(7, 4) == cat.record(7, 4)
        assert again.witness_element(7, 4) == cw7
        assert again.warnings == [f"record that does not strengthen its cell skipped: {repeat!r}"]
        assert (tmp_path / "witnesses" / "bad.cw").exists()  # never read

    def test_repeated_line_flipping_a_verdict_raises(self, tmp_path):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(110, 81, "nonexistent", None, "margin analysis"))
        cat.save()
        with (tmp_path / RECORD_FILE).open("a") as fh:
            fh.write("110\t81\texists\t-\texternal claim\n")
        with pytest.raises(CatalogIntegrityError, match="margin analysis.*external claim"):
            Catalog(tmp_path)

    def test_unknown_cell_reads_open(self, tmp_path):
        assert Catalog(tmp_path).status(57, 49) == "open"

    @pytest.mark.parametrize(
        "bad_line",
        [
            "1x0\t81\tnonexistent\t-\tanalysis",
            "110\teighty-one\tnonexistent\t-\tanalysis",
            "110\t81\tmaybe\t-\tanalysis",
        ],
        ids=["n", "k", "status"],
    )
    def test_bad_field_skipped_with_warning(self, tmp_path, bad_line):
        (tmp_path / RECORD_FILE).write_text(
            f"{bad_line}\n130\t81\tnonexistent\t-\tanalysis\n"
        )
        cat = Catalog(tmp_path)
        assert list(cat.records) == [(130, 81)]
        assert len(cat.warnings) == 1 and "malformed record skipped" in cat.warnings[0]

    def test_order_or_weight_below_one_skipped_with_warning(self, tmp_path):
        (tmp_path / RECORD_FILE).write_text(
            "0\t4\tnonexistent\t-\thand edit\n"
            "-5\t-9\texists\t-\texternal hand edit\n"
            "130\t81\tnonexistent\t-\tanalysis\n"
        )
        cat = Catalog(tmp_path)
        assert list(cat.records) == [(130, 81)]
        assert cat.warnings == [
            "malformed record skipped (n and k must be >= 1, got (0,4)): "
            "'0\\t4\\tnonexistent\\t-\\thand edit'",
            "malformed record skipped (n and k must be >= 1, got (-5,-9)): "
            "'-5\\t-9\\texists\\t-\\texternal hand edit'",
        ]
        cat.save()
        assert (tmp_path / RECORD_FILE).read_text() == "130\t81\tnonexistent\t-\tanalysis\n"

    @pytest.mark.parametrize("n,k", [(0, 4), (-5, -9), (7, 0)])
    def test_upsert_refuses_order_or_weight_below_one(self, tmp_path, n, k):
        cat = Catalog(tmp_path)
        with pytest.raises(ValueError, match="n and k must be >= 1"):
            cat.upsert(CatalogRecord(n, k, "nonexistent", None, "hand edit"))
        assert cat.records == {}

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_record_refuses_a_field_separator(self, char):
        # a tab or line break would split the record's line in the file
        with pytest.raises(ValueError, match="tab or line break"):
            CatalogRecord(7, 4, "exists", f"witnesses/a{char}b.cw", "hand edit")
        with pytest.raises(ValueError, match="tab or line break"):
            CatalogRecord(7, 4, "nonexistent", None, f"hand{char}edit")

    def test_failed_save_keeps_old_records(self, tmp_path):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(110, 81, "nonexistent", None, "analysis"))
        cat.save()
        before = (tmp_path / RECORD_FILE).read_bytes()
        # a lone surrogate cannot be encoded, so the write fails part way
        cat.upsert(CatalogRecord(130, 81, "nonexistent", None, "analysis \udc80"))
        with pytest.raises(UnicodeEncodeError):
            cat.save()
        assert (tmp_path / RECORD_FILE).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [RECORD_FILE]
        assert Catalog(tmp_path).status(110, 81) == "nonexistent"


class TestImport:
    def test_import_directory(self, tmp_path, cw7, cw13):
        src = tmp_path / "incoming"
        src.mkdir()
        (src / "a.cw").write_text(witness_format(cw7, 4))
        (src / "b.cw").write_text(witness_format(cw13, 9))
        (src / "bad.cw").write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        cat = Catalog(tmp_path / "cat")
        added = cat.import_dir(src)
        assert {(r.n, r.k) for r in added} == {(7, 4), (13, 9)}
        # the bad file is reported, not silently dropped
        assert cat.warnings == [
            "bad.cw: witness for (7,4) fails verification; upsert blocked"
        ]

    @pytest.mark.parametrize("name", ["a\tb.cw", "a\nb.cw"], ids=["tab", "newline"])
    def test_name_no_record_can_hold_skipped_before_any_write(self, tmp_path, cw7, name):
        src = tmp_path / "incoming"
        src.mkdir()
        (src / name).write_text(witness_format(cw7, 4))
        cat = Catalog(tmp_path / "cat")
        assert cat.import_dir(src) == []
        assert cat.warnings == [
            f"{name}: witness and provenance must not hold a tab or line break"
        ]
        assert cat.records == {} and not (tmp_path / "cat").exists()

    def test_integer_weighing_matrix_refused(self, tmp_path):
        src = tmp_path / "incoming"
        src.mkdir()
        (src / "icw7.cw").write_text("CW 7 16 2\n-2 2 2 0 2 0 0\n")
        cat = Catalog(tmp_path / "cat")
        assert cat.import_dir(src) == []
        assert cat.warnings == [
            "icw7.cw: witness for (7,16) fails verification; upsert blocked"
        ]
        assert cat.status(7, 16) == "open"

    def test_later_file_keeps_the_first_witness(self, tmp_path):
        # cw26_9.cw is proper, cw26_9_multiple.cw the multiple of the
        # (13,9) witness; the first file in name order holds the cell
        bundled = importlib.resources.files("cwm").joinpath("data", "witnesses")
        cat = Catalog(tmp_path)
        added = cat.import_dir(str(bundled))
        assert sorted((r.n, r.k) for r in added) == [(7, 4), (13, 9), (26, 9), (63, 16)]
        assert cat.warnings == [
            "cw26_9_multiple.cw: (26,9) already has a verified witness; skipped"
        ]
        assert proper_decomposition(cat.witness_element(26, 9)) is None


class TestClosure:
    def test_product_and_multiples(self, tmp_path, cw7, cw13):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "seed", cw7))
        cat.upsert(CatalogRecord(13, 9, "exists", None, "seed", cw13))
        added = cat.close_under_constructions()
        assert cat.status(91, 36) == "exists"
        assert cat.status(14, 4) == "exists"
        assert cat.status(26, 9) == "exists"
        assert cat.status(196, 4) == "exists"
        assert all(r.status == "exists" for r in added)

    def test_idempotent(self, tmp_path, cw7, cw13):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "seed", cw7))
        cat.upsert(CatalogRecord(13, 9, "exists", None, "seed", cw13))
        first = cat.close_under_constructions()
        second = cat.close_under_constructions()
        assert first and not second

    def test_every_added_witness_verifies(self, tmp_path, cw7, cw13):
        cat = Catalog(tmp_path)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "seed", cw7))
        cat.upsert(CatalogRecord(13, 9, "exists", None, "seed", cw13))
        added = cat.close_under_constructions()
        cat.save()
        # the reopened catalog re-verifies every witness file on disk
        again = Catalog(tmp_path)
        assert again.warnings == []
        for rec in added:
            assert again.record(rec.n, rec.k) == rec
            assert verify(again.witness_element(rec.n, rec.k), rec.k, 1)

    def test_works_from_the_verified_elements(self, tmp_path, cw7):
        cat = Catalog(tmp_path, n_max=28)
        cat.upsert(CatalogRecord(7, 4, "exists", None, "seed", cw7))
        cat.save()
        again = Catalog(tmp_path, n_max=28)
        # a file changed after it was verified on load is not read again
        (tmp_path / "witnesses" / "cw7_4.cw").write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        added = again.close_under_constructions()
        assert [(r.n, r.k) for r in added] == [(14, 4), (21, 4), (28, 4)]
        assert again.witness_element(7, 4) == cw7


def candidates_oracle(cat, witnessed):
    """The earlier _candidates without its early break: every pair of
    witnesses is tested against the window."""
    for (n, k), _ in witnessed:
        for d in range(2, cat.n_max // n + 1):
            yield d * n, k, f"multiple of the ({n},{k}) witness"
    for idx, ((n1, k1), _) in enumerate(witnessed):
        for (n2, k2), _ in witnessed[idx + 1 :]:
            if math.gcd(n1, n2) == 1 and n1 * n2 <= cat.n_max and k1 * k2 <= cat.k_max:
                yield n1 * n2, k1 * k2, f"product of the ({n1},{k1}) and ({n2},{k2}) witnesses"


def multiple_oracle(b, d):
    """The earlier multiple: one index at a time."""
    coeffs = [0] * (b.order * d)
    for i, c in enumerate(b.coeffs):
        coeffs[d * i] = c
    return GroupRingElement(b.order * d, tuple(coeffs))


class TestCandidatesOracle:
    # at (91, 36) the product of the (7,4) and (13,9) witnesses sits on both edges
    @pytest.mark.parametrize(
        "window", [(200, 100), (2000, 1600), (91, 36)], ids=["default", "bench", "edge"]
    )
    def test_same_candidates_in_the_same_order(self, tmp_path, window):
        n_max, k_max = window
        cat = seed_known_results(tmp_path, n_max=n_max, k_max=k_max)
        records = sorted(cat.records.items())
        witnessed = [(key, rec.element) for key, rec in records if rec.element is not None]
        got = [(n, k, prov) for n, k, prov, _ in cat._candidates(witnessed)]
        assert got == list(candidates_oracle(cat, witnessed))
        assert any(prov.startswith("product") for _, _, prov in got)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_multiple_matches_index_loop(self, cw7, cw63, d):
        rng = random.Random(d)
        icw = element(11, [rng.randint(-3, 3) for _ in range(11)])
        for b in (cw7, cw63, icw, element(1, [-2])):
            assert multiple(b, d) == multiple_oracle(b, d)


def render_oracle(cat, n_max, k_max):
    """render_table as one status() call per cell."""
    symbol = {"exists": "E", "nonexistent": "-", "open": "?"}
    cols = range(1, n_max + 1)
    lines = [
        "existence by weight row (E exists, - nonexistent, ? open)",
        " " * 7 + "".join(str((n // 10) % 10) if n % 10 == 0 else " " for n in cols),
    ]
    for s in range(1, math.isqrt(k_max) + 1):
        row = "".join(symbol[cat.status(n, s * s)] for n in cols)
        lines.append(f"k={s * s:>4} {row}")
    return "\n".join(lines) + "\n"


class TestRenderOracle:
    @pytest.fixture
    def cat(self, tmp_path):
        cat = seed_known_results(tmp_path)
        for n, k in ((250, 81), (201, 4), (50, 20), (60, 2), (30, 121), (10, 400)):
            cat.upsert(CatalogRecord(n, k, "nonexistent", None, "outside the window"))
        return cat

    @pytest.mark.parametrize(
        "n_max,k_max",
        [(None, None), (200, 100), (120, 49), (300, 120), (9, 1), (1, 1), (57, 50)],
    )
    def test_matches_status_per_cell(self, cat, n_max, k_max):
        expected = render_oracle(
            cat, cat.n_max if n_max is None else n_max, cat.k_max if k_max is None else k_max
        )
        assert cat.render_table(n_max, k_max) == expected

    @pytest.mark.parametrize("n_max,k_max", [(0, 100), (-3, 4), (5, 0)])
    def test_bounds_below_one_raise(self, cat, n_max, k_max):
        with pytest.raises(ValueError, match="table bounds must be >= 1"):
            cat.render_table(n_max, k_max)


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    return seed_known_results(tmp_path_factory.mktemp("seedcat"))


class TestSeed:
    def test_nonexistent_cells(self, seeded):
        for n, k in ((110, 81), (154, 81), (130, 81), (143, 81), (143, 36),
                     (132, 81), (182, 64), (144, 49), (104, 81)):
            assert seeded.status(n, k) == "nonexistent"

    # the five long-run verdicts, re-derived by the search they rest on
    @pytest.mark.parametrize("n,k", [(104, 81), (152, 49), (160, 49), (144, 49), (160, 81)])
    def test_long_run_verdict_rederived(self, seeded, n, k):
        out = search(n, k)
        assert out.classes == 0 and out.exhaustive
        assert seeded.status(n, k) == "nonexistent"

    def test_open_cells(self, seeded):
        for n, k in OPEN_CASES:
            assert seeded.status(n, k) == "open"
        assert seeded.status(105, 36) == "open"

    def test_exists_cells(self, seeded):
        assert seeded.status(7, 4) == "exists"
        assert seeded.status(91, 36) == "exists"  # product closure
        assert seeded.status(63, 16) == "exists"
        assert seeded.status(57, 49) == "exists"  # difference-set family
        assert seeded.status(126, 16) == "exists"  # multiple of 63

    def test_render_marks_cells(self, seeded):
        text = seeded.render_table(200, 100)
        rows = {
            int(ln[2:6]): ln for ln in text.splitlines() if ln.startswith("k=")
        }
        assert rows[81][7 + 110 - 1] == "-"  # (110, 81) nonexistent
        assert rows[36][7 + 105 - 1] == "?"  # (105, 36) open
        assert rows[4][7 + 7 - 1] == "E"  # (7, 4) exists

    def test_empty_catalog_renders_all_open(self, tmp_path):
        text = Catalog(tmp_path).render_table(20, 9)
        for line in text.splitlines():
            if line.startswith("k="):
                assert set(line.split()[-1]) == {"?"}

    def test_records_match_golden(self, seeded):
        assert (seeded.root / RECORD_FILE).read_text() == (
            GOLDEN / "catalog_records.tsv"
        ).read_text()

    def test_reload_carries_the_parsed_witnesses(self, seeded):
        again = Catalog(seeded.root)
        assert again.warnings == []
        for key, rec in again.records.items():
            if rec.witness is None:
                assert rec.element is None
                continue
            elem, _, _ = witness_parse((seeded.root / rec.witness).read_text())
            assert rec.status == "exists" and rec.element == elem == seeded.records[key].element
            # the element is evidence, not part of the record's identity
            assert rec == replace(rec, element=None) == seeded.records[key]
        assert sum(rec.element is not None for rec in again.records.values()) == 48

    def test_open_count_matches_arithmetic(self, seeded):
        opens = [rec for rec in seeded.records.values() if rec.status == "open"]
        assert len(opens) == 22
