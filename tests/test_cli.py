"""Command-line surface: outputs, JSON schemas, exit codes."""

from __future__ import annotations

import json
import random
import time

import pytest

import cf2
from cf2.cli import main
from cf2.riccati import QuotientSeq, fn_witness
from cf2.seqcore import MAX_WORD_LETTERS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSeq:
    def test_prefix(self, capsys):
        code, out = run(capsys, "seq", "prefix", "--eps", "(ab)", "--len", "10")
        assert code == 0
        assert out.strip() == "abaaababab"

    def test_word(self, capsys):
        code, out = run(capsys, "seq", "word", "--eps", "(ab)", "--n", "3")
        assert (code, out.strip()) == (0, "abaaaba")

    def test_positions(self, capsys):
        code, out = run(
            capsys, "seq", "positions", "--eps", "(ab)", "--letter", "a",
            "--len", "8",
        )
        assert out.split() == ["0", "2", "3", "4", "6"]

    def test_positions_predicted_matches(self, capsys):
        _, enumerated = run(
            capsys, "seq", "positions", "--eps", "a(bc)", "--letter", "c",
            "--len", "40",
        )
        _, predicted = run(
            capsys, "seq", "positions", "--eps", "a(bc)", "--letter", "c",
            "--len", "40", "--predicted",
        )
        assert enumerated == predicted

    def test_kernel_json(self, capsys):
        code, out = run(capsys, "seq", "kernel", "--eps", "(ab)", "--json")
        data = json.loads(out)
        assert data["size"] == 4
        assert {e["kind"] for e in data["elements"]} == {"shift", "constant"}

    def test_bad_spec_is_usage_error(self, capsys):
        code = main(["seq", "prefix", "--eps", "zz", "--len", "4"])
        assert code == 2

    def test_oversized_word_is_usage_error(self, capsys):
        too_long = str(MAX_WORD_LETTERS + 1)
        for argv in (
            ["seq", "word", "--eps", "(ab)", "--n", "40"],
            ["seq", "prefix", "--eps", "(ab)", "--len", too_long],
            ["seq", "positions", "--eps", "(ab)", "--letter", "a",
             "--len", too_long],
            ["seq", "positions", "--eps", "(ab)", "--letter", "a",
             "--len", too_long, "--predicted"],
            ["ps", "series", "--eps", "(ab)", "--prec", too_long],
            ["ps", "cartier", "--eps", "(ab)", "--r", "0", "--prec", too_long],
            # the search target is 2 * prec + 64 deep
            ["ps", "find-relation", "--eps", "(ab)", "--ydeg", "2",
             "--coeff-deg", "1", "--prec", str(MAX_WORD_LETTERS // 2 + 1)],
        ):
            code = main(argv)
            assert code == 2
            assert "exceeds the size cap" in capsys.readouterr().err

    @pytest.mark.parametrize("eps,letter", [("(ab)", "c"), ("a(bc)", "a")])
    def test_predicted_letter_outside_period(self, eps, letter, capsys):
        code = main(["seq", "positions", "--eps", eps, "--letter", letter,
                     "--len", "8", "--predicted"])
        assert code == 2
        period = eps[eps.index("(") + 1 : -1]
        assert f"letter {letter!r} is not in the period {period!r}" in (
            capsys.readouterr().err
        )

    def test_predicted_needs_distinct_letters(self, capsys):
        code = main(
            ["seq", "positions", "--eps", "(aa)", "--letter", "a",
             "--len", "8", "--predicted"]
        )
        assert code == 2


class TestCf:
    def test_convergents(self, capsys):
        code, out = run(capsys, "cf", "convergents", "--eps", "(ab)", "--n", "2")
        assert code == 0
        assert "u_2 = a^2*b" in out
        assert "v_2 = a*b + 1" in out

    def test_oversized_convergent_index_is_usage_error(self, capsys):
        code = main(["cf", "convergents", "--eps", "(ab)", "--n", "100000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "size cap" in captured.err and "Traceback" not in captured.err

    def test_series_json_roundtrip(self, capsys):
        code, out = run(
            capsys, "cf", "series", "--eps", "(ab)", "--target", "invcf",
            "--prec", "32", "--json",
        )
        data = json.loads(out)
        from cf2 import InvSeries

        s = InvSeries.from_json(data)
        assert str(s) == "a^-1 + a^-2*b^-1 + a^-5*b^-2 + a^-10*b^-5 + a^-21*b^-10"

    def test_find_relation_golden(self, capsys):
        code, out = run(
            capsys, "cf", "find-relation", "--eps", "(ab)", "--target", "G",
            "--ydeg", "4", "--coeff-deg", "3", "--prec", "256",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "(a*b + b^2 + 1) + (a^2*b + a*b^2)*y + (a*b)*y^2 + y^4"
        )

    def test_min_degree_without_relation_exits_1(self, capsys):
        code, out = run(
            capsys, "cf", "min-degree", "--eps", "(ab)", "--target", "G",
            "--ydeg", "3", "--coeff-deg", "3", "--prec", "64",
        )
        assert (code, out.strip()) == (1, "no relation within bounds")

    def test_expand_needs_a_series(self, capsys):
        assert main(["cf", "expand"]) == 2
        err = capsys.readouterr().err
        assert "need --demo unbounded or --exponents" in err

    def test_exponent_law_fails_on_a_non_monomial_quotient(self, capsys):
        # 1/(t^2 + t): the quotient t^2 + t has lowest exponent 1, which
        # alone would fit the law
        code, out = run(
            capsys, "cf", "expand", "--exponents", "2,3,4,5,6,7", "--prec", "8",
            "--count", "2", "--check-exponent-law",
        )
        assert code == 1
        assert out.splitlines() == ["[0, t^2 + t]  (exhausted)",
                                    "exponent law: fails"]

    def test_find_relation_empty_exits_1(self, capsys):
        code, out = run(
            capsys, "cf", "find-relation", "--eps", "(ab)", "--target", "G",
            "--ydeg", "3", "--coeff-deg", "3", "--prec", "64",
        )
        assert code == 1

    def test_verify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "rel.txt"
        code, _ = run(
            capsys, "cf", "find-relation", "--eps", "(ab)", "--target", "G",
            "--ydeg", "4", "--coeff-deg", "3", "--prec", "128",
            "--relation-file", str(path),
        )
        assert code == 0
        code, out = run(
            capsys, "cf", "verify", "--eps", "(ab)", "--target", "G",
            "--relation-file", str(path), "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["vanished"] is True
        assert data["residual_depth"] is None

    def test_verify_failure_exits_1(self, capsys, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("deg 1: 1\n")
        code, out = run(
            capsys, "cf", "verify", "--eps", "(ab)", "--target", "G",
            "--relation-file", str(path), "--json",
        )
        assert code == 1
        assert json.loads(out)["vanished"] is False

    def test_verify_reports_the_precision_it_proves(self, capsys, tmp_path):
        # G at precision 1 holds no terms; G^3 is zero below 3, not exact
        path = tmp_path / "rel.txt"
        path.write_text("deg 3: 1\n")
        argv = ["cf", "verify", "--eps", "(ab)", "--target", "G", "--prec", "1",
                "--relation-file", str(path)]
        assert run(capsys, *argv) == (0, "vanished below precision 3\n")
        code, out = run(capsys, *argv, "--json")
        assert (code, json.loads(out)["precision"]) == (0, 3)

    def test_min_degree(self, capsys):
        code, out = run(
            capsys, "cf", "min-degree", "--eps", "(ab)", "--target", "G",
            "--ydeg", "4", "--coeff-deg", "6", "--prec", "128", "--json",
        )
        assert code == 0
        assert json.loads(out)["degree"] == 4

    def test_series_piece_needs_index(self, capsys):
        code = main(["cf", "series", "--eps", "(ab)", "--target", "Gn"])
        assert code == 2
        code, out = run(
            capsys, "cf", "series", "--eps", "(ab)", "--target", "Gn",
            "--index", "0", "--prec", "16",
        )
        assert code == 0
        assert out.startswith("1 + a^-2*b^-1")

    def test_expand_law(self, capsys):
        code, out = run(
            capsys, "cf", "expand", "--demo", "unbounded", "--count", "9",
            "--check-exponent-law", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["exponent_law"] is True
        assert data["quotients"][:3] == ["1", "x", "x^3"]

    def test_expand_drops_exponents_past_precision(self, capsys):
        code, out = run(capsys, "cf", "expand", "--exponents", "0,268435456",
                        "--prec", "64")
        assert (code, out.strip()) == (0, "[1]  (exhausted)")

    @pytest.mark.parametrize("argv", [
        # the series spans --prec bits, or max - min of its exponents
        ["--demo", "unbounded", "--prec", str(MAX_WORD_LETTERS + 1)],
        [f"--exponents=-{MAX_WORD_LETTERS + 1},0"],
    ])
    def test_expand_oversized_span_is_usage_error(self, argv, capsys):
        assert main(["cf", "expand", *argv]) == 2
        assert "exceeds the size cap" in capsys.readouterr().err


class TestPs:
    def test_series(self, capsys):
        code, out = run(capsys, "ps", "series", "--eps", "a(bc)", "--prec", "4")
        assert out.strip() == "a + b*z + a*z^2 + c*z^3 + O(z^4)"

    def test_f0(self, capsys):
        code, out = run(capsys, "ps", "f0", "--eps", "(ab)", "--prec", "8")
        assert out.strip() == "1 + z^2 + z^3 + z^4 + z^6 + O(z^8)"

    def test_find_relation(self, capsys):
        code, out = run(
            capsys, "ps", "find-relation", "--eps", "(ab)", "--target", "F",
            "--ydeg", "2", "--coeff-deg", "3", "--z-deg", "3", "--prec", "128",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "(a^2*z + a*b*z + b^2*z + a^2 + a*b)"
            " + (a*z^2 + b*z^2 + a + b)*y + (z^3 + z)*y^2"
        )

    def test_verify(self, capsys, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text(
            "deg 0: a^2*z + a*b*z + b^2*z + a^2 + a*b\n"
            "deg 1: a*z^2 + b*z^2 + a + b\n"
            "deg 2: z^3 + z\n"
        )
        code, out = run(
            capsys, "ps", "verify", "--eps", "(ab)", "--target", "F",
            "--relation-file", str(path),
        )
        assert code == 0

    def test_cartier(self, capsys):
        code, out = run(
            capsys, "ps", "cartier", "--eps", "(ab)", "--r", "1", "--prec", "8",
        )
        # odd-indexed letters of the period-doubling word: the shifted word
        assert out.strip().startswith("b + a*z")


class TestRiccati:
    def test_check_table(self, capsys):
        code, out = run(
            capsys, "riccati", "check", "--pattern", "abab", "--a", "t",
            "--b", "t + 1", "--n", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # n = -1 .. 3
        assert "residual valuation" in lines[0]

    def test_check_json(self, capsys):
        code, out = run(
            capsys, "riccati", "check", "--pattern", "abc", "--a", "t",
            "--b", "t^2 + t + 1", "--n", "2", "--json",
        )
        data = json.loads(out)
        assert [w["n"] for w in data["witnesses"]] == [-1, 0, 1, 2]

    def test_check_table_is_the_per_index_witnesses(self, capsys):
        rng = random.Random(11)
        pattern = "".join(rng.choice("abc") for _ in range(60))
        q = QuotientSeq.parse(pattern, "t^3 + t", "t^2 + 1")
        code, out = run(
            capsys, "riccati", "check", "--pattern", pattern,
            "--a", "t^3 + t", "--b", "t^2 + 1", "--n", "80", "--json",
        )
        assert code == 0
        expected = [fn_witness(q, n) for n in range(-1, 60)]
        got = json.loads(out)["witnesses"]
        assert [(w["n"], w["f_n"], w["g_n"]) for w in got] == [
            (w.n, str(w.f_n), str(w.g_n)) for w in expected
        ]

    def test_baum_sweet_member(self, capsys):
        code, out = run(
            capsys, "riccati", "baum-sweet", "--quotients", "0, t",
            "--periodic-tail", "1",
        )
        assert code == 0
        assert "True" in out

    def test_baum_sweet_non_member(self, capsys):
        code, out = run(
            capsys, "riccati", "baum-sweet", "--quotients", "0, t, t^2, t",
            "--periodic-tail", "1",
        )
        assert code == 1

    def test_baum_sweet_without_value_is_an_error(self, capsys):
        # [0; 0] has Q_1 = 0: no value, so neither member nor non-member
        code = main(["riccati", "baum-sweet", "--quotients", "0, 0",
                     "--periodic-tail", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: continued fraction has no value" in captured.err
        assert "Traceback" not in captured.err

    def test_baum_sweet_on_a_degenerate_finite_list(self, capsys):
        # [0; t, 0] has the value 0, which the fold could not reach
        code, out = run(capsys, "riccati", "baum-sweet", "--quotients",
                        "0, t, 0", "--periodic-tail", "0")
        assert (code, out.strip()) == (
            1, "degree-one partial quotient class member: False")


RELATION_FILES = {
    "G": "deg 0: a*b + b^2 + 1\ndeg 1: a^2*b + a*b^2\ndeg 2: a*b\ndeg 4: 1\n",
    "F": "deg 0: a^2*z + a*b*z + b^2*z + a^2 + a*b\n"
         "deg 1: a*z^2 + b*z^2 + a + b\ndeg 2: z^3 + z\n",
    "y": "deg 1: 1\n",
    # x is absent from the seed
    "x": "deg 0: x*z + a\ndeg 2: z\n",
}


def _report_json(vanished, depth, precision):
    return (f'{{\n  "precision": {precision},\n  "residual_depth": {depth},'
            f'\n  "vanished": {vanished}\n}}\n')


# (argv, relation file or None, exit code, exact stdout)
V = ["--eps", "(ab)", "--prec", "40"]
PINNED_CALLS = [
    (["cf", "verify", *V], "G", 0, "vanished below precision 37\n"),
    (["cf", "verify", *V, "--json"], "G", 0, _report_json("true", "null", 37)),
    (["cf", "verify", *V], "y", 1, "residual at depth 1 (precision 40)\n"),
    (["cf", "verify", *V, "--json"], "y", 1, _report_json("false", 1, 40)),
    (["cf", "verify", *V], "x", 1, "residual at depth -2 (precision 79)\n"),
    (["cf", "verify", *V, "--json"], "x", 1, _report_json("false", -2, 79)),
    (["ps", "verify", *V], "F", 0, "vanished below precision 40\n"),
    (["ps", "verify", *V, "--json"], "F", 0, _report_json("true", "null", 40)),
    (["ps", "verify", *V], "y", 1, "residual at depth 0 (precision 40)\n"),
    (["ps", "verify", *V, "--json"], "y", 1, _report_json("false", 0, 40)),
    (["ps", "verify", *V], "x", 1, "residual at depth 0 (precision 40)\n"),
    (["ps", "verify", *V, "--json"], "x", 1, _report_json("false", 0, 40)),
    (["cf", "find-relation", "--eps", "(ab)", "--ydeg", "4", "--coeff-deg", "3",
      "--prec", "32"], None, 0,
     "(a*b + b^2 + 1) + (a^2*b + a*b^2)*y + (a*b)*y^2 + y^4\n"),
    (["ps", "find-relation", "--eps", "(ab)", "--ydeg", "2", "--coeff-deg", "2",
      "--z-deg", "2", "--target", "F0", "--prec", "32"], None, 0,
     "(1) + (z + 1)*y + (z^2 + z)*y^2\n"),
    (["ps", "series", "--eps", "a(bc)", "--prec", "8"], None, 0,
     "a + b*z + a*z^2 + c*z^3 + a*z^4 + b*z^5 + a*z^6 + b*z^7 + O(z^8)\n"),
    (["ps", "f0", "--eps", "a(bc)", "--prec", "8"], None, 0,
     "z + z^5 + z^7 + O(z^8)\n"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize(
        "argv, relation, code, stdout", PINNED_CALLS,
        ids=[" ".join(filter(None, [*c[0][:2], "json" * ("--json" in c[0]), c[1]]))
             for c in PINNED_CALLS],
    )
    def test_stdout_and_exit_code(self, argv, relation, code, stdout, capsys,
                                  tmp_path):
        if relation is not None:
            path = tmp_path / "rel.txt"
            path.write_text(RELATION_FILES[relation])
            argv = argv + ["--relation-file", str(path)]
        assert run(capsys, *argv) == (code, stdout)


def test_public_names_resolve_once():
    assert len(set(cf2.__all__)) == len(cf2.__all__)
    for name in cf2.__all__:
        assert getattr(cf2, name) is not None


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["seq"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "prefix", "--eps", "(ab)", "--wrong", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cf", "series", "--eps", "(ab)", "--target", "G", "--prec", "-3"],
            ["cf", "expand", "--exponents", "0,1,5", "--prec", "-5"],
            ["cf", "series", "--eps", "(ab)", "--prec", "0"],
            ["ps", "series", "--eps", "(ab)", "--prec", "0"],
            ["riccati", "baum-sweet", "--quotients", "0, t", "--prec", "0"],
            ["seq", "positions", "--eps", "(ab)", "--letter", "a", "--len", "-5"],
            ["seq", "prefix", "--eps", "(ab)", "--len", "0"],
            ["cf", "expand", "--demo", "unbounded", "--count", "-2"],
        ],
    )
    def test_nonpositive_precision_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err

    def test_convergent_index_below_minus_one_is_usage_error(self, capsys):
        argv = ["riccati", "check", "--pattern", "abab", "--a", "t",
                "--b", "t + 1", "--n"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-5"])
        assert exc.value.code == 2
        assert "is below -1" in capsys.readouterr().err
        assert main(argv + ["-1"]) == 0
        assert capsys.readouterr().out.strip().startswith("n= -1")

    @pytest.mark.parametrize(
        "argv",
        [
            ["seq", "prefix", "--eps", "(ab)", "--len", "4"],
            ["seq", "word", "--eps", "(ab)", "--n", "3"],
            ["seq", "positions", "--eps", "(ab)", "--letter", "a", "--len", "8"],
            ["seq", "kernel", "--eps", "(ab)"],
            ["cf", "convergents", "--eps", "(ab)", "--n", "2"],
        ],
    )
    def test_prec_only_where_used(self, argv, capsys):
        assert main(argv) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--prec", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cf", "find-relation", "--eps", "(ab)", "--ydeg", "4",
             "--coeff-deg", "-1", "--prec", "32"],
            ["ps", "find-relation", "--eps", "(ab)", "--ydeg", "2",
             "--coeff-deg", "3", "--z-deg", "-2", "--prec", "32"],
            ["cf", "min-degree", "--eps", "(ab)", "--ydeg", "0",
             "--coeff-deg", "3", "--prec", "32"],
        ],
    )
    def test_nonsense_search_bounds_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, bounds",
        [
            ("find-relation", ["--ydeg", "100000", "--coeff-deg", "3"]),
            ("find-relation", ["--ydeg", "4", "--coeff-deg", "100000"]),
            ("min-degree", ["--ydeg", "100000", "--coeff-deg", "3"]),
        ],
    )
    def test_oversize_search_is_refused_at_once(self, verb, bounds, capsys):
        # the unknowns are counted before any monomial or power is built
        start = time.perf_counter()
        code = main(["cf", verb, "--eps", "(ab)", "--target", "G", *bounds,
                     "--prec", "8"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceeds the size cap" in captured.err
        assert "Traceback" not in captured.err
        assert elapsed < 2.0

    def test_index_only_with_gn(self, capsys):
        argv = ["cf", "series", "--eps", "(ab)", "--target", "G", "--prec", "8"]
        assert main(argv + ["--index", "7"]) == 2
        assert "--index applies only to --target Gn" in capsys.readouterr().err
        assert main(argv) == 0

    def test_default_precision_applies(self, capsys):
        code, out = run(capsys, "cf", "series", "--eps", "(ab)", "--target", "G")
        assert code == 0
        assert out.strip().endswith("(depth < 64)")

    def test_deterministic_output(self, capsys):
        outs = set()
        for _ in range(2):
            _, out = run(
                capsys, "cf", "find-relation", "--eps", "a(bc)", "--target",
                "cf", "--ydeg", "4", "--coeff-deg", "6", "--prec", "128",
            )
            outs.add(out)
        assert len(outs) == 1
