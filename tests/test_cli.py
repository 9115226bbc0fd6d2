import importlib.resources
from pathlib import Path

import pytest

from cwm import constructions
from cwm.cli import main
from cwm.groupring import witness_format, witness_parse

# stdout of `cwm margins` as the enumerate-then-filter margin path printed
# it, of `cwm search` and `cwm --seed-demo` before the search plan, and of
# `cwm catalog import` then `close` before the catalog kept its verified
# witness elements
GOLDEN = Path(__file__).parent / "golden"

def witness_path(name: str) -> str:
    return str(importlib.resources.files("cwm").joinpath("data", "witnesses", name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_ok_line(self, capsys):
        code, out, _ = run(capsys, "verify", witness_path("cw7_4.cw"))
        assert code == 0
        assert out == "CW(7,4): OK, |P|=3 |N|=1\n"

    def test_failing_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.cw"
        bad.write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "FAILED" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "no/such/file.cw")
        assert code == 2


class TestSearch:
    def test_nonexistent_exits_1(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "110", "--k", "81")
        assert code == 1
        assert "0 equivalence classes" in out
        assert "margin systems" in out

    def test_63_reports_two_classes(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "63", "--k", "16", "--mode", "all")
        assert code == 0
        assert "2 equivalence classes" in out

    def test_method_inapplicable_exits_3(self, capsys):
        code, _, err = run(capsys, "search", "--n", "112", "--k", "36")
        assert code == 3
        assert "method inapplicable" in err

    def test_budget_exit_4(self, capsys):
        code, _, err = run(capsys, "search", "--n", "63", "--k", "16",
                           "--node-budget", "5")
        assert code == 4
        assert "NOT exhaustive" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exits_2(self, capsys, budget):
        code, out, err = run(capsys, "search", "--n", "63", "--k", "16",
                             "--node-budget", budget)
        assert code == 2
        assert out == "" and err == "error: node_budget must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        [("search", "--n", "63", "--k", "16", "--jobs", "0"), ("census", "--jobs", "-3")],
        ids=["search", "census"],
    )
    def test_jobs_below_one_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err == "error: jobs must be >= 1\n"

    def test_witness_out(self, capsys, tmp_path):
        target = tmp_path / "found.cw"
        code, out, _ = run(capsys, "search", "--n", "7", "--k", "4",
                           "--out", str(target))
        assert code == 0
        elem, k, bound = witness_parse(target.read_text())
        assert k == 4 and elem.order == 7

    def test_byte_identical_stdout(self, capsys):
        _, out1, _ = run(capsys, "search", "--n", "63", "--k", "16")
        _, out2, _ = run(capsys, "search", "--n", "63", "--k", "16")
        assert out1 == out2

    def test_bad_coeff_bound_without_split_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "--n", "7", "--k", "4", "--coeff-bound", "0")
        assert code == 2
        assert out == "" and "coeff_bound" in err

    def test_order_one(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "1", "--k", "1", "-t", "1")
        assert code == 0
        assert out == (
            "CW(1,1): 1 equivalence classes "
            "(1 solutions found, 1 candidates tested, 2 nodes)\n  -1\n"
        )

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("--n", "63", "--k", "16"), "search_63_16.txt"),
            (("--n", "110", "--k", "81"), "search_110_81.txt"),
            (("--n", "26", "--k", "9", "--mode", "first"), "search_26_9_first.txt"),
        ],
        ids=["63-16", "110-81", "26-9-first"],
    )
    def test_stdout_golden(self, capsys, argv, name):
        code, out, _ = run(capsys, "search", *argv)
        assert code == (1 if name == "search_110_81.txt" else 0)
        assert out == (GOLDEN / name).read_text()

    # count mode prints the summary line of an all-mode search and no
    # classes, and writes no witness; stdout as the library's count mode
    # printed it
    @pytest.mark.parametrize(
        "argv,code,expect",
        [
            (("--n", "63", "--k", "16"), 0,
             "CW(63,16): 2 equivalence classes "
             "(8 solutions found, 20 candidates tested, 482 nodes)\n"),
            (("--n", "110", "--k", "81"), 1,
             "CW(110,81): 0 equivalence classes "
             "(0 solutions found, 0 candidates tested, 97 nodes)\n"
             "exhaustively none: margin systems and orbit search rule every candidate out\n"),
            (("--n", "52", "--k", "81", "-t", "3", "--coeff-bound", "3"), 0,
             "ICW_3(52,81): 33 equivalence classes "
             "(132 solutions found, 5568 candidates tested, 520388 nodes)\n"),
            (("--n", "63", "--k", "16", "--out", "x.cw"), 0,
             "CW(63,16): 2 equivalence classes "
             "(8 solutions found, 20 candidates tested, 482 nodes)\n"),
        ],
        ids=["63-16", "110-81", "icw3-52-81", "63-16-out"],
    )
    def test_count_mode_golden(self, capsys, tmp_path, monkeypatch, argv, code, expect):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "search", *argv, "--mode", "count") == (code, expect, "")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv,expect",
        [
            (("orbits", "--n", "63", "-t", "21"), "multiplier 21 is not coprime to 63"),
            (("orbits", "--n", "13", "-t", "26"), "multiplier 26 is not coprime to 13"),
            (("search", "--n", "63", "--k", "16", "-t", "21"), "multiplier 21 is not coprime to 63"),
        ],
        ids=["orbits-split", "orbits-prime", "search"],
    )
    def test_noncoprime_multiplier_named_as_given(self, capsys, argv, expect):
        assert run(capsys, *argv) == (2, "", f"error: {expect}\n")

    def test_stats_line_gated(self, capsys):
        _, plain, _ = run(capsys, "search", "--n", "7", "--k", "4")
        _, stats, _ = run(capsys, "--stats", "search", "--n", "7", "--k", "4")
        assert "[stats]" not in plain
        assert "[stats]" in stats


class TestOrbitsAndMargins:
    def test_orbit_table_rendering(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "63", "--k", "16")
        assert code == 0
        assert "<1>_6" in out and "<11>_6" in out

    def test_orbits_without_split(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "13", "--multiplier", "3")
        assert code == 0
        assert "<1>_3" in out

    def test_margins_output(self, capsys):
        code, out, _ = run(capsys, "margins", "--n", "110", "--k", "81")
        assert code == 0
        assert "fold onto Z_10" in out and "fold onto Z_11" in out

    @pytest.mark.parametrize("n,k", [(110, 81), (144, 49), (160, 81), (63, 16), (143, 81)])
    def test_margins_stdout_golden(self, capsys, n, k):
        code, out, _ = run(capsys, "margins", "--n", str(n), "--k", str(k))
        assert code == 0
        assert out == (GOLDEN / f"margins_{n}_{k}.txt").read_text()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("--n", "31", "--k", "25"), "margins_31_25.txt"),
            (("--n", "49", "--k", "64", "-t", "2", "--coeff-bound", "4"), "margins_49_64_t2_b4.txt"),
        ],
        ids=["31-25", "49-64-t2-b4"],
    )
    def test_margins_stdout_golden_without_split(self, capsys, argv, name):
        code, out, _ = run(capsys, "margins", *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "margins", "--n", "110")
        assert exc.value.code == 2

    def test_margins_bad_coeff_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "margins", "--n", "63", "--k", "16", "--coeff-bound", "0")
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["orbits", "margins"])
    @pytest.mark.parametrize("option", [("--d", "9"), ("--m", "7")], ids=["d-only", "m-only"])
    def test_half_factorization_exits_2(self, capsys, command, option):
        code, out, err = run(capsys, command, "--n", "63", "--k", "16", *option)
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1

    def test_supplied_factorization(self, capsys):
        code, out, _ = run(capsys, "margins", "--n", "63", "--k", "16", "--d", "7", "--m", "9")
        assert code == 0
        assert out.startswith("fold onto Z_7: orbit sizes (1, 3, 3), |b_i| <= 9\n")


class TestFold:
    def test_intersection_numbers(self, capsys):
        code, out, _ = run(capsys, "fold", witness_path("cw63_16.cw"), "--m", "7")
        assert code == 0
        assert "[1, 2, 2, -1, 2, -1, -1]" in out

    def test_bad_modulus(self, capsys):
        code, _, err = run(capsys, "fold", witness_path("cw63_16.cw"), "--m", "8")
        assert code == 2

    def test_zero_modulus_exits_2(self, capsys):
        code, out, err = run(capsys, "fold", witness_path("cw63_16.cw"), "--m", "0")
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1


class TestConstruct:
    def test_kronecker(self, capsys, tmp_path):
        target = tmp_path / "out.cw"
        code, out, _ = run(
            capsys, "construct", "kronecker",
            witness_path("cw7_4.cw"), witness_path("cw13_9.cw"),
            "--out", str(target),
        )
        assert code == 0
        assert "CW(91,36)" in out
        elem, k, _ = witness_parse(target.read_text())
        assert (elem.order, k) == (91, 36)

    def test_integer_product_written_with_its_bound(self, capsys, tmp_path):
        icw = tmp_path / "icw7.cw"
        icw.write_text("CW 7 16 2\n-2 2 2 0 2 0 0\n")
        target = tmp_path / "out.cw"
        code, out, _ = run(
            capsys, "construct", "kronecker", str(icw), witness_path("cw13_9.cw"),
            "--out", str(target),
        )
        assert code == 0
        assert out.startswith("constructed ICW_2(91,144): ")
        assert target.read_text().startswith("CW 91 144 2\n")
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 0
        assert out.startswith("ICW_2(91,144): OK")

    def test_cw14m(self, capsys):
        code, out, _ = run(capsys, "construct", "cw14m", "--m", "3")
        assert code == 0
        assert "CW(42,16)" in out

    def test_type2_overlap_reported(self, capsys, tmp_path):
        from cwm.constructions import CW7_4, multiple

        b = tmp_path / "b.cw"
        b.write_text(witness_format(multiple(CW7_4, 2), 4, 1))
        code, _, err = run(capsys, "construct", "type2", str(b), witness_path("cw7_4.cw"))
        assert code == 2
        assert "overlap" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("cw14m",),
            ("kronecker",),
            ("kronecker", "cw7_4.cw"),
            ("type2", "cw7_4.cw"),
            ("kronecker", "cw7_4.cw", "no/such/file.cw"),
            ("type2", "no/such/file.cw", "cw7_4.cw"),
            ("kronecker", "cw7_4.cw", "cw13_9.cw", "cw7_4.cw"),
        ],
        ids=["cw14m-no-m", "kronecker-none", "kronecker-one", "type2-one",
             "kronecker-missing", "type2-missing", "kronecker-three"],
    )
    def test_bad_inputs_exit_2(self, capsys, argv):
        argv = [witness_path(a) if a in ("cw7_4.cw", "cw13_9.cw") else a for a in argv]
        code, out, err = run(capsys, "construct", *argv)
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1


class TestCatalog:
    def test_seed_status_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        code, out, _ = run(capsys, "catalog", "seed")
        assert code == 0 and "seeded" in out
        code, out, _ = run(capsys, "catalog", "status", "--n", "110", "--k", "81")
        assert code == 0 and "nonexistent" in out
        code, out, _ = run(capsys, "catalog", "table", "--nmax", "120", "--kmax", "81")
        assert code == 0 and out.count("k=") == 9

    @pytest.mark.parametrize(
        "bounds", [("--nmax", "0"), ("--kmax", "0"), ("--nmax", "-5", "--kmax", "16")]
    )
    def test_table_bounds_below_one_exit_2(self, capsys, tmp_path, monkeypatch, bounds):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        code, out, err = run(capsys, "catalog", "table", *bounds)
        assert code == 2
        assert out == "" and err.startswith("error: table bounds must be >= 1")

    def test_import_and_close(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        incoming = tmp_path / "incoming"
        incoming.mkdir()
        for name in ("cw7_4.cw", "cw13_9.cw"):
            (incoming / name).write_text(
                importlib.resources.files("cwm")
                .joinpath("data", "witnesses", name)
                .read_text()
            )
        code, out, _ = run(capsys, "catalog", "import", str(incoming))
        assert code == 0 and "imported 2 witnesses" in out
        code, out, _ = run(capsys, "catalog", "close")
        assert code == 0
        assert "(91,36)" in out


    def test_import_close_stdout_golden(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        bundled = str(importlib.resources.files("cwm").joinpath("data", "witnesses"))
        _, imported, _ = run(capsys, "catalog", "import", bundled)
        _, closed, _ = run(capsys, "catalog", "close")
        assert imported + closed == (GOLDEN / "catalog_import_close.txt").read_text()

    def test_import_names_skipped_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        incoming = tmp_path / "incoming"
        incoming.mkdir()
        (incoming / "bad.cw").write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        code, out, err = run(capsys, "catalog", "import", str(incoming))
        assert code == 0 and out == "imported 0 witnesses\n"
        assert err == (
            "warning: bad.cw: witness for (7,4) fails verification; upsert blocked\n"
        )

    def test_warnings_printed_when_action_raises(self, capsys, tmp_path, monkeypatch):
        cat = tmp_path / "cat"
        cat.mkdir()
        (cat / "records.tsv").write_text("junk\n7\t4\tnonexistent\t-\thand edit\n")
        monkeypatch.setenv("CW_CATALOG_DIR", str(cat))
        incoming = tmp_path / "incoming"
        incoming.mkdir()
        (incoming / "bad.cw").write_text("not a witness\n")
        (incoming / "cw7_4.cw").write_text(
            witness_format(constructions.CW7_4, 4, 1)
        )
        code, out, err = run(capsys, "catalog", "import", str(incoming))
        assert code == 2 and out == ""
        err = err.splitlines()
        assert len(err) == 3
        assert err[0].startswith("warning: malformed record skipped")
        assert err[1].startswith("warning: bad.cw: ")
        assert err[2] == (
            "error: (7,4): stored nonexistent [hand edit] vs new exists [imported cw7_4.cw]"
        )

    def test_seed_prints_load_warnings(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        run(capsys, "catalog", "seed")
        (tmp_path / "cat" / "witnesses" / "cw7_4.cw").write_text("CW 7 4 1\n1 1 1 1 0 0 0\n")
        code, out, err = run(capsys, "catalog", "seed")
        assert code == 0 and out.startswith("seeded ")
        assert err == (
            "warning: witness for (7,4) quarantined: "
            "witness does not verify against its record\n"
        )

    def test_import_without_path_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        code, out, err = run(capsys, "catalog", "import")
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1


class TestSeedDemo:
    def test_walkthrough_runs(self, capsys):
        code, out, _ = run(capsys, "--seed-demo")
        assert code == 0
        assert "n = 63 = 9 x 7" in out
        assert "2 equivalence classes" in out

    def test_stdout_golden(self, capsys):
        code, out, _ = run(capsys, "--seed-demo")
        assert code == 0
        assert out == (GOLDEN / "seed_demo.txt").read_text()

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "--seed-demo")
        _, out2, _ = run(capsys, "--seed-demo")
        assert out1 == out2
