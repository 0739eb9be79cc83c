import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from disclosure_games import acceptance, cli, simplex
from disclosure_games.acceptance import CRITERIA, Criterion
from disclosure_games.cli import main
from disclosure_games.lpmech import VerificationReport

AUCTION = json.dumps(
    {
        "goods": 1,
        "buyers": [
            [
                {"prob": "1/4", "values": ["1"]},
                {"prob": "1/4", "values": ["2"]},
                {"prob": "1/2", "values": ["3"]},
            ]
        ]
        * 2,
    }
)
MENU = json.dumps(
    {
        "goods": 2,
        "buyers": [
            [
                {"prob": "1/2", "values": ["3", "4"]},
                {"prob": "1/2", "values": ["4", "9"]},
            ]
        ],
    }
)

# one buyer, one good, values out of order with a value 0; prices 3 and 5
# tie for revenue 3/2, and surplus picks the lower one
ONE_BUYER = json.dumps(
    {
        "goods": 1,
        "buyers": [
            [
                {"prob": "1/5", "values": ["3"]},
                {"prob": "1/10", "values": ["0"]},
                {"prob": "3/10", "values": ["5"]},
                {"prob": "1/4", "values": ["1"]},
                {"prob": "3/20", "values": ["2"]},
            ]
        ],
    }
)


@pytest.fixture
def auction_file(tmp_path):
    path = tmp_path / "auction.json"
    path.write_text(AUCTION)
    return str(path)


@pytest.fixture
def menu_file(tmp_path):
    path = tmp_path / "menu.json"
    path.write_text(MENU)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def suite_run():
    """One ``suite`` run, the slowest command, shared by the tests that read
    it: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["suite"])
    return code, out.getvalue(), err.getvalue()


class TestEvalUniform:
    def test_asymmetric_profile(self, capsys):
        code, out, _ = run(capsys, "eval-uniform", "--a", "0,1/2,1", "--b", "0,1")
        assert code == 0
        assert out.startswith("# disclosure-games eval-uniform --a 0,1/2,1 --b 0,1\n")
        assert "buyer A utility: 13/128 (~0.101562)" in out
        assert "total surplus: 11/64 (~0.171875)" in out

    def test_silent_pair(self, capsys):
        code, out, _ = run(capsys, "eval-uniform", "--a", "0,1", "--b", "0,1")
        assert code == 0
        assert "total surplus: 1/6" in out

    def test_per_case_rows(self, capsys):
        code, out, _ = run(
            capsys, "eval-uniform", "--a", "0,1/2,1", "--b", "0,1/2,1", "--per-case"
        )
        assert code == 0
        assert "[0, 1/2] | [0, 1/2] | 1/4 | 1/96 | 1/96 | 1/48" in out
        assert out.count("| 5/96") == 2

    def test_csv_artifact(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "eval-uniform", "--a", "0,1", "--b", "0,1", "--out", str(target)
        )
        assert code == 0
        assert f"wrote {target}" in out
        assert target.read_text().splitlines()[0] == "a,b,c,d,prob,uA,uB"

    def test_malformed_breakpoints_exit_1(self, capsys):
        for a in ("1/2,0", "0,,1/2,1", "0,1/2,1,"):
            code, _, err = run(capsys, "eval-uniform", "--a", a, "--b", "0,1")
            assert code == 1
            assert "validation error" in err
        code, _, err = run(capsys, "zeno", "--b", ",0,1")
        assert code == 1
        assert "validation error" in err

    def test_reports_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "eval-uniform", "--a", "0,1/4,1", "--b", "0,1")
        _, second, _ = run(capsys, "eval-uniform", "--a", "0,1/4,1", "--b", "0,1")
        assert first == second


class TestZenoAndThreshold:
    def test_depth_twelve_is_near_limit(self, capsys):
        code, out, _ = run(capsys, "zeno", "--depth", "12")
        assert code == 0
        assert "13 blocks" in out
        assert "distance to the symmetric limit 23/147" in out

    def test_threshold_quarter(self, capsys):
        code, out, _ = run(capsys, "threshold", "--t", "1/4")
        assert code == 0
        assert "low/low quadrant: 1/768" in out
        assert "total surplus: 1/6" in out

    def test_threshold_out_of_range_exit_1(self, capsys):
        code, _, err = run(capsys, "threshold", "--t", "3/4")
        assert code == 1
        assert "validation error" in err


class TestLpSolve:
    def test_menu_and_verification(self, capsys, menu_file):
        code, out, _ = run(capsys, "lp-solve", "--instance", menu_file, "--menu", "--verify")
        assert code == 0
        assert "revenue: 15/2 (~7.5)" in out
        assert "  good 1: price 3" in out
        assert "  good 1 + good 2: price 12" in out
        assert "verification: feasible" in out

    def test_csv_artifact(self, capsys, menu_file, tmp_path):
        target = tmp_path / "mech.csv"
        code, out, _ = run(capsys, "lp-solve", "--instance", menu_file, "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("joint_type,buyer,good,q,r")

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "lp-solve", "--instance", "/nonexistent.json")
        assert code == 1
        assert "cannot read" in err

    def test_boolean_goods_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bool_goods.json"
        doc = json.loads(MENU)
        doc["goods"] = True
        doc["buyers"] = [[{"prob": "1", "values": ["3"]}]]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "lp-solve", "--instance", str(path))
        assert code == 1
        assert "goods" in err

    def test_boolean_rationals_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bool_rationals.json"
        doc = {"goods": 1, "buyers": [[{"prob": True, "values": [True]}]]}
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "lp-solve", "--instance", str(path))
        assert code == 1
        assert "boolean" in err

    @pytest.mark.parametrize(
        "buyers, message",
        [
            (
                [[{"prob": "1/2", "values": ["1"]}, {"prob": "1/2", "values": ["-2"]}]],
                "buyer 1 type 2: values must be nonnegative",
            ),
            (
                [[{"prob": "1/2", "values": ["1"]}, {"prob": "1/3", "values": ["2"]}]],
                "buyer 1: type probabilities sum to 5/6, expected 1",
            ),
            (
                [[{"prob": "1", "values": ["1"]}],
                 [{"prob": "1/2", "values": ["1"]}, {"prob": "1/2"}]],
                'buyer 2 type 2 must be an object with keys "prob" and "values"',
            ),
        ],
        ids=["negative-value", "probabilities-sum-to-5/6", "second-buyer-missing-values"],
    )
    def test_instance_errors_name_buyers_and_types_one_based(
        self, capsys, tmp_path, buyers, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"goods": 1, "buyers": buyers}))
        code, _, err = run(capsys, "lp-solve", "--instance", str(path))
        assert code == 1
        assert err == f"validation error: {message}\n"


class TestGameEval:
    def test_no_disclosure(self, capsys, auction_file):
        code, out, _ = run(
            capsys,
            "game-eval",
            "--instance",
            auction_file,
            "--profile",
            "[[[1,2,3]],[[1,2,3]]]",
        )
        assert code == 0
        assert "total surplus: 3/8" in out
        assert "always all sold: false" in out

    def test_per_message_lines(self, capsys, auction_file):
        code, out, _ = run(
            capsys,
            "game-eval",
            "--instance",
            auction_file,
            "--profile",
            "[[[1],[2,3]],[[1],[2,3]]]",
            "--per-message",
        )
        assert code == 0
        assert "messages ({2, 3}, {2, 3}): prob 9/16, revenue 8/3, surplus 2/9" in out
        assert "total surplus: 1/8" in out

    def test_profile_from_file(self, capsys, auction_file, tmp_path):
        prof = tmp_path / "profile.json"
        prof.write_text("[[[1,2,3]],[[1,2,3]]]")
        code, out, _ = run(
            capsys, "game-eval", "--instance", auction_file, "--profile", f"@{prof}"
        )
        assert code == 0
        assert "total surplus: 3/8" in out

    def test_bad_profile_exit_1(self, capsys, auction_file):
        code, _, err = run(
            capsys, "game-eval", "--instance", auction_file, "--profile", "[[[1,2]]]"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("[[[0,1]]]", "type index 0 out of range 1..2"),
            ("[[[1],[1,2]]]", "type index 1 appears in two messages"),
            ("[[[1]]]", "partition misses type indices [2]"),
        ],
    )
    def test_bad_index_is_named_one_based(self, capsys, tmp_path, profile, message):
        path = tmp_path / "two.json"
        path.write_text(json.dumps(
            {"goods": 1, "buyers": [[{"prob": "1/2", "values": ["1"]},
                                     {"prob": "1/2", "values": ["2"]}]]}
        ))
        code, _, err = run(
            capsys, "game-eval", "--instance", str(path), "--profile", profile
        )
        assert code == 1
        assert err == f"validation error: buyer 1: {message}\n"

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("[[[1,2,3]],[[1,true],[2,3]]]", "buyer 2: partition indices must be integers"),
            ("[[[1,2,3]],[[1],[2]]]", "buyer 2: partition misses type indices [3]"),
            ("[[[1,2,3]],[[1,4],[2,3]]]", "buyer 2: type index 4 out of range 1..3"),
        ],
    )
    def test_second_buyer_is_named_one_based(self, capsys, auction_file, profile, message):
        code, _, err = run(
            capsys, "game-eval", "--instance", auction_file, "--profile", profile
        )
        assert code == 1
        assert err == f"validation error: {message}\n"

    def test_boolean_type_index_exit_1(self, capsys, auction_file):
        code, _, err = run(
            capsys,
            "game-eval",
            "--instance",
            auction_file,
            "--profile",
            "[[[true],[2,3]],[[1,2,3]]]",
        )
        assert code == 1
        assert "integers" in err


class TestSearch:
    def test_ranking_and_csv(self, capsys, auction_file, tmp_path):
        target = tmp_path / "rank.csv"
        code, out, _ = run(
            capsys, "search", "--instance", auction_file, "--top", "2", "--out", str(target)
        )
        assert code == 0
        assert "searched 25 profiles (all)" in out
        assert "rank 1: total 3/8" in out
        assert "profile [[[1, 2, 3]], [[1, 2, 3]]]" in out
        lines = target.read_text().splitlines()
        assert lines[0] == "profile,revenue,u1,u2,total_surplus,always_all_sold,efficient"
        assert len(lines) == 26

    def test_negative_top_exit_1(self, capsys, auction_file):
        code, _, err = run(capsys, "search", "--instance", auction_file, "--top", "-1")
        assert code == 1
        assert "--top" in err
        code, out, _ = run(capsys, "search", "--instance", auction_file, "--top", "0")
        assert code == 0
        assert "searched 25 profiles (all)" in out
        assert "rank " not in out

    def test_connected_only(self, capsys, auction_file):
        code, out, _ = run(capsys, "search", "--instance", auction_file, "--connected-only")
        assert code == 0
        assert "searched 16 profiles (connected)" in out


class TestDpAndReduction:
    def test_dp_on_gap_instance(self, capsys, tmp_path):
        doc = {
            "goods": 1,
            "buyers": [
                [
                    {"prob": "1/3", "values": ["1"]},
                    {"prob": "5/9", "values": ["2"]},
                    {"prob": "1/9", "values": ["5/2"]},
                ]
            ],
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dp", "--instance", str(path), "--table")
        assert code == 0
        assert "optimal connected utility: 1/18" in out
        assert "best over first 0 type(s): 0" in out

    def test_dp_rejects_two_buyers(self, capsys, auction_file):
        code, _, err = run(capsys, "dp", "--instance", auction_file)
        assert code == 1

    def test_reduce_prints_target_and_types(self, capsys, tmp_path):
        target = tmp_path / "reduced.json"
        code, out, _ = run(capsys, "reduce", "--sizes", "2,2,4", "--out", str(target))
        assert code == 0
        assert "surplus target: 5/4" in out
        assert "type 1 (pool): value 4, prob 1/3" in out
        assert '"values": [\n          "55/7"\n        ]' in target.read_text()

    def test_verify_reduction_solvable(self, capsys):
        code, out, _ = run(capsys, "verify-reduction", "--sizes", "1,1")
        assert code == 0
        assert "even split: [1] against the rest" in out
        assert "equivalence: surplus target reached exactly when an even split exists" in out

    def test_verify_reduction_unsolvable(self, capsys):
        code, out, _ = run(capsys, "verify-reduction", "--sizes", "3,5")
        assert code == 0
        assert out == (
            "# disclosure-games verify-reduction --sizes 3,5\n"
            "sizes [3, 5], target 5/4 (~1.25)\n"
            "even split: none\n"
            "best disclosure surplus: 19/20 (~0.95)\n"
            "equivalence: surplus target reached exactly when an even split exists\n"
        )

    def test_odd_total_exit_1(self, capsys):
        code, _, err = run(capsys, "reduce", "--sizes", "1,2")
        assert code == 1

    def test_non_decimal_sizes_exit_1(self, capsys):
        for sizes in ("1_0,1_0", "+1,1", "1,,1", "\u0661,1"):
            code, _, err = run(capsys, "verify-reduction", "--sizes", sizes)
            assert code == 1
            assert "sizes must be a comma list of integers" in err
        code, out, _ = run(capsys, "verify-reduction", "--sizes", " 1, 1 ")
        assert code == 0


class TestGoldenStdout:
    """Exact stdout bytes, so a solver change that keeps the answers keeps
    every report line."""

    def test_lp_solve_one_buyer_menu(self, capsys, tmp_path):
        path = tmp_path / "one_buyer.json"
        path.write_text(ONE_BUYER)
        code, out, _ = run(capsys, "lp-solve", "--instance", str(path), "--menu", "--verify")
        assert code == 0
        assert out == (
            f"# disclosure-games lp-solve --instance {path} --menu --verify\n"
            "instance: 1 good(s), 5 type(s) per buyer\n"
            "revenue: 3/2 (~1.5)\n"
            "buyer surplus: 3/5 (~0.6)\n"
            "buyer 1 type 1 utility: 0 (~0)\n"
            "buyer 1 type 2 utility: 0 (~0)\n"
            "buyer 1 type 3 utility: 2 (~2)\n"
            "buyer 1 type 4 utility: 0 (~0)\n"
            "buyer 1 type 5 utility: 0 (~0)\n"
            "menu:\n"
            "  good 1: price 3\n"
            "verification: feasible, individually rational, incentive compatible\n"
        )

    def test_verify_reduction_two_two_four(self, capsys):
        code, out, _ = run(capsys, "verify-reduction", "--sizes", "2,2,4")
        assert code == 0
        assert out == (
            "# disclosure-games verify-reduction --sizes 2,2,4\n"
            "sizes [2, 2, 4], target 5/4 (~1.25)\n"
            "even split: [2, 2] against the rest\n"
            "best disclosure surplus: 1627/1260 (~1.29127)\n"
            "pooled witness surplus: 229/180 (~1.27222) at price 4\n"
            "equivalence: surplus target reached exactly when an even split exists\n"
        )

    def test_game_eval_one_buyer_pooling(self, capsys, tmp_path):
        # the lone value-0 message is not sold, so good 1 stays unsold there
        path = tmp_path / "one_buyer.json"
        path.write_text(ONE_BUYER)
        profile = "[[[2],[1,3,5],[4]]]"
        code, out, _ = run(
            capsys, "game-eval", "--instance", str(path), "--profile", profile, "--per-message"
        )
        assert code == 0
        assert out == (
            f"# disclosure-games game-eval --instance {path} --profile {profile} --per-message\n"
            "profile: [[[1, 3, 5], [2], [4]]]\n"
            "messages ({1, 3, 5}): prob 13/20, revenue 30/13, surplus 12/13\n"
            "messages ({2}): prob 1/10, revenue 0, surplus 0\n"
            "messages ({4}): prob 1/4, revenue 1, surplus 0\n"
            "expected revenue: 7/4 (~1.75)\n"
            "buyer 1 utility: 3/5 (~0.6)\n"
            "total surplus: 3/5 (~0.6)\n"
            "good 1 unsold probability: 1/4 (~0.25)\n"
            "always all sold: false\n"
            "efficient: false\n"
        )

    def test_eval_uniform_per_case(self, capsys):
        code, out, _ = run(
            capsys, "eval-uniform", "--a", "0,1/4,1", "--b", "0,1/3,1", "--per-case"
        )
        assert code == 0
        assert out == (
            "# disclosure-games eval-uniform --a 0,1/4,1 --b 0,1/3,1 --per-case\n"
            "partition A: [0, 1/4] [1/4, 1]\n"
            "partition B: [0, 1/3] [1/3, 1]\n"
            "block A | block B | prob | uA | uB | total\n"
            "[0, 1/4] | [0, 1/3] | 1/12 | 5/3072 | 23/9216 | 19/4608\n"
            "[0, 1/4] | [1/3, 1] | 1/6 | 5/3072 | 85/3072 | 15/512\n"
            "[1/4, 1] | [0, 1/3] | 1/4 | 23/648 | 11/2592 | 103/2592\n"
            "[1/4, 1] | [1/3, 1] | 1/2 | 1/24 | 5/96 | 3/32\n"
            "buyer A utility: 3335/41472 (~0.0804157)\n"
            "buyer B utility: 3587/41472 (~0.0864921)\n"
            "total surplus: 3461/20736 (~0.166908)\n"
        )

    def test_search_one_buyer_top_five(self, capsys, tmp_path):
        path = tmp_path / "one_buyer.json"
        path.write_text(ONE_BUYER)
        target = tmp_path / "rank.csv"
        code, out, _ = run(
            capsys, "search", "--instance", str(path), "--top", "5", "--out", str(target)
        )
        assert code == 0
        assert out == (
            f"# disclosure-games search --instance {path} --top 5 --out {target}\n"
            "searched 52 profiles (all)\n"
            "rank 1: total 3/4 (~0.75), revenue 19/10, profile [[[1, 2, 3], [4, 5]]]\n"
            "rank 2: total 3/4 (~0.75), revenue 19/10, profile [[[1, 3], [2], [4, 5]]]\n"
            "rank 3: total 3/4 (~0.75), revenue 19/10, profile [[[1, 3], [2, 4, 5]]]\n"
            "rank 4: total 3/5 (~0.6), revenue 41/20, profile [[[1, 2, 3], [4], [5]]]\n"
            "rank 5: total 3/5 (~0.6), revenue 9/5, profile [[[1, 2, 3, 4], [5]]]\n"
            f"wrote {target}\n"
        )
        csv = target.read_bytes()
        assert csv.startswith(
            b"profile,revenue,u1,total_surplus,always_all_sold,efficient\n"
            b'"[[[1,2,3],[4,5]]]",19/10,3/4,3/4,false,false\n'
        )
        assert csv.count(b"\n") == 53
        assert hashlib.sha256(csv).hexdigest() == (
            "b54ef3123c6e0f395ba3b9e3c5a827323f4c4ab1e8bda18d249377ec2a938726"
        )

    def test_dp_table_one_buyer(self, capsys, tmp_path):
        doc = {
            "goods": 1,
            "buyers": [
                [
                    {"prob": "1/6", "values": ["4"]},
                    {"prob": "1/3", "values": ["1"]},
                    {"prob": "1/4", "values": ["5/2"]},
                    {"prob": "1/4", "values": ["6"]},
                ]
            ],
        }
        path = tmp_path / "dp.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dp", "--instance", str(path), "--table")
        assert code == 0
        assert out == (
            f"# disclosure-games dp --instance {path} --table\n"
            "best over first 0 type(s): 0\n"
            "best over first 1 type(s): 0\n"
            "best over first 2 type(s): 0\n"
            "best over first 3 type(s): 1/4\n"
            "best over first 4 type(s): 9/8\n"
            "message {1, 5/2, 4, 6}: price 5/2, utility 9/8\n"
            "optimal connected utility: 9/8 (~1.125)\n"
        )


class TestWitnessAndPlot:
    def test_witness_lower_value_wins(self, capsys):
        code, out, _ = run(capsys, "efficiency-witness", "--a", "0,1/2,1", "--b", "exact")
        assert code == 0
        assert "inefficiency: lower value wins" in out

    def test_both_exact_has_no_witness(self, capsys):
        code, out, _ = run(capsys, "efficiency-witness", "--a", "exact", "--b", "exact")
        assert code == 0
        assert "no witness" in out

    def test_plot_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, _ = run(capsys, "plot", "--a", "0,1/2,1", "--b", "0,1", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000"')
        assert "regions drawn: 5" in out

    def test_unwritable_path_exit_1(self, capsys):
        code, _, err = run(
            capsys, "plot", "--a", "0,1", "--b", "0,1", "--out", "/nonexistent/dir/fig.svg"
        )
        assert code == 1
        assert "cannot write" in err


class TestDispatch:
    def test_no_subcommand_exit_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand is required" in err

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_suite_runs_every_item(self, suite_run):
        code, out, _ = suite_run
        assert code == 0
        assert "15 passed" in out
        lines = out.splitlines()
        ran = {int(line.split()[1]) for line in lines if line.startswith("ok")}
        assert ran == set(range(1, 16))

    def test_suite_reports_time_against_budget_on_stderr(self, suite_run):
        code, out, err = suite_run
        assert code == 0
        assert out.splitlines() == (
            ["# disclosure-games suite"]
            + [f"ok   {c.number:2d} {c.title}" for c in CRITERIA]
            + [f"{len(CRITERIA)} passed"]
        )
        timings = err.splitlines()
        assert len(timings) == len(CRITERIA)
        for c, line in zip(CRITERIA, timings):
            head, budget = line.split(" of ")
            number, elapsed = head.split(": ")
            assert number == f"item {c.number}"
            assert elapsed.endswith("s") and float(elapsed[:-1]) <= c.budget_seconds
            assert budget == f"{c.budget_seconds:g}s"


class TestFailureExits:
    """Exit 2 (a checked claim failed) and exit 3 (a resource guard
    tripped), each with its one-line stderr report."""

    def test_pivot_cap_exit_3(self, capsys, auction_file, monkeypatch):
        monkeypatch.setattr(simplex, "PIVOT_CAP", 1)
        code, _, err = run(capsys, "lp-solve", "--instance", auction_file)
        assert code == 3
        assert err == "resource guard exceeded: simplex exceeded 1 pivots\n"

    def test_suite_failure_exit_2(self, capsys, monkeypatch):
        def refuted():
            raise AssertionError("refuted on purpose")

        monkeypatch.setattr(acceptance, "CRITERIA", (Criterion(7, "always refuted", 1, refuted),))
        code, out, err = run(capsys, "suite")
        assert code == 2
        assert out.splitlines() == [
            "# disclosure-games suite",
            "FAIL  7 always refuted",
            "       refuted on purpose",
            "0 passed, 1 failed",
        ]
        timing, first = err.splitlines()
        assert timing.startswith("item 7: ") and timing.endswith(" of 1s")
        assert first == "first failure: item 7 (always refuted)"

    def test_rejected_mechanism_exit_2(self, capsys, menu_file, monkeypatch):
        rejected = VerificationReport(False, "IC row 1 broken", None, None)
        monkeypatch.setattr(cli, "verify_mechanism", lambda inst, mech: rejected)
        code, out, err = run(capsys, "lp-solve", "--instance", menu_file, "--verify")
        assert code == 2
        assert "verification:" not in out
        assert err == "assertion failure: mechanism failed verification: IC row 1 broken\n"
