import contextlib
import functools
import importlib.resources
import itertools
import re
import signal
import time
from pathlib import Path

import pytest

from cwm import constructions
from cwm.cli import main
from cwm.exhaust import plan
from cwm.groupring import witness_format, witness_parse

# stdout of `cwm margins` as the enumerate-then-filter margin path printed
# it, of `cwm search` and `cwm --seed-demo` before the search plan, and of
# `cwm catalog import` then `close` before the catalog kept its verified
# witness elements, of `cwm census` before a search's weight check had
# one owner, of `cwm orbits` before it read the search plan, and of `cwm
# construct` before it read a construction's weight from its result.  `cwm
# margins -t` prints no caveat for a supplied multiplier, which plan checks
# against the multiplier theorems.
GOLDEN = Path(__file__).parent / "golden"

def witness_path(name: str) -> str:
    return str(importlib.resources.files("cwm").joinpath("data", "witnesses", name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def alarm(seconds):
    """Raise TimeoutError in the block once it has run for the given seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_label_reads_the_coefficients_not_the_header(self, capsys, tmp_path):
        # a header bound above the largest coefficient still holds a CW
        loose = tmp_path / "loose.cw"
        loose.write_text("CW 7 4 3\n-1 1 1 0 1 0 0\n")
        assert run(capsys, "verify", str(loose)) == (0, "CW(7,4): OK, |P|=3 |N|=1\n", "")
        zero = tmp_path / "zero.cw"
        zero.write_text("CW 7 4 2\n0 0 0 0 0 0 0\n")
        assert run(capsys, "verify", str(zero)) == (1, "CW(7,4): FAILED verification\n", "")


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

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # CW(7,4) exists, so a file error must not read as exit 1
        target = tmp_path / "no" / "such" / "dir" / "x.cw"
        code, out, err = run(capsys, "search", "--n", "7", "--k", "4", "--out", str(target))
        assert code == 2
        assert out.startswith("CW(7,4): 1 equivalence classes")
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_walk_past_the_recursion_limit_exits_2(self, capsys):
        # 997 singleton orbits: the walk recurses deeper than Python allows,
        # which decides nothing, and CW(997,1) exists, so this is no exit 1
        with alarm(60):
            code, out, err = run(capsys, "search", "--n", "997", "--k", "1", "-t", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")

    def test_witness_out_carries_its_own_bound(self, capsys, tmp_path):
        # the first class of ICW_3(7,4) is -2, so its witness has bound 2
        target = tmp_path / "found.cw"
        code, out, _ = run(capsys, "search", "--n", "7", "--k", "4", "--coeff-bound", "3",
                           "--out", str(target))
        assert code == 0 and out.startswith("ICW_3(7,4): 2 equivalence classes")
        assert target.read_text() == "CW 7 4 2\n-2 0 0 0 0 0 0\n"
        assert run(capsys, "verify", str(target)) == (0, "ICW_2(7,4): OK, |P|=0 |N|=1\n", "")

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
             "(4 solutions found, 10 candidates tested, 81 nodes)\n"),
            (("--n", "110", "--k", "81"), 1,
             "CW(110,81): 0 equivalence classes "
             "(0 solutions found, 0 candidates tested, 0 nodes)\n"
             "exhaustively none: margin systems and orbit search rule every candidate out\n"),
            (("--n", "52", "--k", "81", "-t", "3", "--coeff-bound", "3"), 0,
             "ICW_3(52,81): 33 equivalence classes "
             "(33 solutions found, 154 candidates tested, 5385 nodes)\n"),
            (("--n", "63", "--k", "16", "--out", "x.cw"), 0,
             "CW(63,16): 2 equivalence classes "
             "(4 solutions found, 10 candidates tested, 81 nodes)\n"),
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

    @pytest.mark.parametrize(
        "argv,expect",
        [
            (("search", "--n", "7", "--k", "0", "-t", "2"), "k = 0 must be >= 1"),
            (("margins", "--n", "7", "--k", "0", "-t", "2"), "k = 0 must be >= 1"),
            (("search", "--n", "7", "--k", "-4"), "k = -4 must be >= 1"),
            (("margins", "--n", "7", "--k", "-4"), "k = -4 must be >= 1"),
            (("search", "--n", "112", "--k", "35"), "k = 35 is not a perfect square"),
            (("orbits", "--n", "7", "--k", "0"), "k = 0 must be >= 1"),
            (("orbits", "--n", "12", "--k", "-4"), "k = -4 must be >= 1"),
            (("orbits", "--n", "13", "--k", "3"), "k = 3 is not a perfect square"),
            (("orbits", "--n", "7", "--k", "0", "-t", "2"), "k = 0 must be >= 1"),
        ],
        ids=["search-0", "margins-0", "search-neg", "margins-neg", "search-non-square",
             "orbits-0", "orbits-neg", "orbits-non-square", "orbits-0-t"],
    )
    def test_weight_not_a_positive_square_exits_2(self, capsys, argv, expect):
        assert run(capsys, *argv) == (2, "", f"error: {expect}\n")

    @pytest.mark.parametrize("command", ["search", "margins", "orbits"])
    def test_order_below_one_exits_2(self, capsys, command):
        assert run(capsys, command, "--n", "0", "--k", "4") == (
            2, "", "error: modulus must be positive, got 0\n"
        )

    def test_supplied_multiplier_must_be_a_multiplier(self, capsys):
        # gcd(8, 4) = 2, so only t = 1 may be used, and CW(8,4) exists
        assert run(capsys, "search", "--n", "8", "--k", "4", "-t", "3") == (
            2, "", "error: 3 is not a multiplier of CW(8,4)\n"
        )
        assert run(capsys, "margins", "--n", "8", "--k", "4", "-t", "3") == (
            2, "", "error: 3 is not a multiplier of CW(8,4)\n"
        )
        assert run(capsys, "orbits", "--n", "8", "--k", "4", "-t", "3") == (
            2, "", "error: 3 is not a multiplier of CW(8,4)\n"
        )
        code, out, _ = run(capsys, "search", "--n", "8", "--k", "4", "-t", "1")
        assert code == 0
        assert out.startswith("CW(8,4): 2 equivalence classes ")

    def test_stats_line_gated(self, capsys):
        _, plain, _ = run(capsys, "search", "--n", "7", "--k", "4")
        _, stats, _ = run(capsys, "--stats", "search", "--n", "7", "--k", "4")
        assert "[stats]" not in plain
        assert "[stats]" in stats

    def test_stats_elapsed_ignores_a_wall_clock_step(self, capsys, monkeypatch):
        # the wall clock steps back an hour at every read
        monkeypatch.setattr(time, "time", functools.partial(next, itertools.count(1e9, -3600)))
        _, out, _ = run(capsys, "--stats", "search", "--n", "7", "--k", "4")
        assert re.fullmatch(r"\[stats\] elapsed \d+\.\d{3}s", out.splitlines()[-1])


class TestOrbitsAndMargins:
    def test_orbit_table_rendering(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "63", "--k", "16")
        assert code == 0
        assert "<1>_6" in out and "<11>_6" in out

    def test_orbits_without_split(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "13", "--multiplier", "3")
        assert code == 0
        assert "<1>_3" in out

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("--n", "63", "--k", "16"), "orbits_63_16.txt"),
            (("--n", "13", "--k", "9"), "orbits_13_9.txt"),
            # an explicit 1 x 12 split renders a table, not the orbit list
            (("--n", "12", "-t", "5", "--d", "1", "--m", "12"), "orbits_12_t5_d1_m12.txt"),
        ],
        ids=["63-16", "13-9-no-split", "12-t5-d1-m12"],
    )
    def test_orbits_stdout_golden(self, capsys, argv, name):
        assert run(capsys, "orbits", *argv) == (0, (GOLDEN / name).read_text(), "")

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

    # (73,36) and (109,100) took minutes and seconds to list before their
    # fold's self-conjugacy divisor pruned the lift
    @pytest.mark.parametrize("n,k", [(73, 36), (109, 100), (63, 16), (144, 49)])
    def test_margins_lists_the_plans_solutions(self, capsys, n, k):
        config = plan(n, k)
        with alarm(30):
            code, out, _ = run(capsys, "margins", "--n", str(n), "--k", str(k))
        sides = [
            sols
            for (part, _), sols in zip(config.folds, config.margin_solutions())
            if part.modulus > 1
        ]
        assert code == 0
        assert [ln for ln in out.splitlines() if ln.startswith("    b = ")] == [
            f"    b = {sol.values}  scaled = {sol.scaled}" for sols in sides for sol in sols
        ]
        assert [int(ln.split()[0]) for ln in out.splitlines() if "remain after" in ln] == [
            len(sols) for sols in sides
        ]

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "margins", "--n", "110")
        assert exc.value.code == 2
        capsys.readouterr()  # argparse's own usage message
        assert run(capsys, "orbits", "--n", "12") == (
            2, "", "orbits needs --multiplier or --k\n"
        )
        code, out, err = run(capsys)
        assert code == 2 and out.startswith("usage: cwm") and err == ""

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

    def test_stdout_golden(self, capsys, tmp_path):
        from cwm.constructions import CW7_4, multiple
        from cwm.groupring import shift

        (tmp_path / "icw7.cw").write_text("CW 7 16 2\n-2 2 2 0 2 0 0\n")
        (tmp_path / "b.cw").write_text(witness_format(shift(multiple(CW7_4, 6), 1), 4))
        (tmp_path / "c.cw").write_text(witness_format(multiple(CW7_4, 3), 4))
        out = ""
        for argv in (
            ("kronecker", witness_path("cw7_4.cw"), witness_path("cw13_9.cw")),
            ("kronecker", str(tmp_path / "icw7.cw"), witness_path("cw13_9.cw")),
            ("type2", str(tmp_path / "b.cw"), str(tmp_path / "c.cw")),
            ("cw14m", "--m", "3"),
            ("cw14m", "--m", "14"),
        ):
            code, stdout, _ = run(capsys, "construct", *argv)
            assert code == 0
            out += stdout
        assert out == (GOLDEN / "construct.txt").read_text()

    def test_weight_read_from_the_result_not_the_header(self, capsys, tmp_path):
        # a weight-4 element whose header claims weight 9
        lying = tmp_path / "lying.cw"
        lying.write_text("CW 7 9 1\n-1 1 1 0 1 0 0\n")
        target = tmp_path / "out.cw"
        code, out, _ = run(
            capsys, "construct", "kronecker", str(lying), witness_path("cw13_9.cw"),
            "--out", str(target),
        )
        assert code == 0 and out.startswith("constructed CW(91,36): ")
        assert target.read_text().startswith("CW 91 36 1\n")

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.cw"
        code, out, err = run(capsys, "construct", "cw14m", "--m", "2", "--out", str(target))
        assert code == 2
        assert out.startswith("constructed CW(28,16): ")
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_type2_overlap_reported(self, capsys, tmp_path):
        from cwm.constructions import CW7_4, multiple

        b = tmp_path / "b.cw"
        b.write_text(witness_format(multiple(CW7_4, 2), 4))
        code, _, err = run(capsys, "construct", "type2", str(b), witness_path("cw7_4.cw"))
        assert code == 2
        assert "overlap" in err

    def test_type2_accepts_integer_matrices(self, capsys, tmp_path):
        (tmp_path / "b.cw").write_text("CW 4 4 2\n0 2 0 0\n")
        (tmp_path / "c.cw").write_text("CW 2 4 2\n2 0\n")
        target = tmp_path / "out.cw"
        code, out, err = run(
            capsys, "construct", "type2", str(tmp_path / "b.cw"), str(tmp_path / "c.cw"),
            "--out", str(target),
        )
        assert (code, err) == (0, "")
        assert out.startswith("constructed ICW_2(4,16): 2 +2X^1 +2X^2 -2X^3\n")
        assert target.read_text() == "CW 4 16 2\n2 2 2 -2\n"

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
        # n = 300 lies outside the seeded window
        assert run(capsys, "catalog", "status", "--n", "300", "--k", "4") == (
            0, "(300,4): open (no record)\n", ""
        )
        assert run(capsys, "catalog", "status", "--n", "110") == (
            2, "", "catalog status needs --n and --k\n"
        )
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
            witness_format(constructions.CW7_4, 4)
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

    def test_import_skips_unreadable_entry(self, capsys, tmp_path):
        incoming = tmp_path / "incoming"
        (incoming / "src.cw").mkdir(parents=True)
        (incoming / "cw7_4.cw").write_text(witness_format(constructions.CW7_4, 4))
        cat = tmp_path / "cat"
        code, out, err = run(capsys, "catalog", "import", str(incoming), "--dir", str(cat))
        assert code == 0 and out == "imported 1 witnesses\n"
        assert err.startswith("warning: src.cw: [Errno 21] Is a directory")
        assert len(err.splitlines()) == 1
        assert (cat / "records.tsv").read_text().startswith("7\t4\texists\twitnesses/cw7_4.cw\t")

    # a tab or line break in the file name would split the record line
    # that names it, and the next load would drop that record
    @pytest.mark.parametrize("name", ["a\tb.cw", "a\nb.cw"], ids=["tab", "newline"])
    def test_import_skips_a_name_no_record_can_hold(self, capsys, tmp_path, name):
        incoming = tmp_path / "incoming"
        incoming.mkdir()
        (incoming / name).write_text(witness_format(constructions.CW7_4, 4))
        cat = tmp_path / "cat"
        code, out, err = run(capsys, "catalog", "import", str(incoming), "--dir", str(cat))
        assert code == 0 and out == "imported 0 witnesses\n"
        assert err.startswith("warning: a") and "tab or line break" in err
        assert not (cat / "witnesses").exists()
        code, out, err = run(capsys, "catalog", "status", "--n", "7", "--k", "4", "--dir", str(cat))
        assert (code, out, err) == (0, "(7,4): open (no record)\n", "")

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_import_from_no_directory_exits_2(self, capsys, tmp_path, kind):
        source = tmp_path / "no" / "such" / "dir"
        if kind == "file":
            source = tmp_path / "cw7_4.cw"
            source.write_text(witness_format(constructions.CW7_4, 4))
        cat = tmp_path / "cat"
        code, out, err = run(capsys, "catalog", "import", str(source), "--dir", str(cat))
        assert (code, out, err) == (2, "", f"error: not a directory: {source}\n")
        assert not cat.exists()

    def test_import_without_path_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CW_CATALOG_DIR", str(tmp_path / "cat"))
        code, out, err = run(capsys, "catalog", "import")
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1


class TestCensus:
    def test_stdout_golden(self, capsys):
        assert run(capsys, "census") == (0, (GOLDEN / "census.txt").read_text(), "")


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
