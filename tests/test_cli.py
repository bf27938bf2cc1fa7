import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partinv
from partinv import (
    FieldSpec,
    Partition,
    count_partitions,
    g_vector,
    verify_all,
    wedderburn,
)
from partinv.classify import MAX_CLASSIFY_SIZE, MAX_TABLE_CELLS, _size_lower_bound
from partinv.cli import main
from util import (
    INDEFINITE,
    digit_limit,
    fraction_free_det,
    prime_quotients,
    reference_table_output,
    upper_triangle,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "8,2,1")
        assert code == 0
        assert "g-vector: 11,4,1" in out
        assert "h-vector: 6,1,1" in out
        assert "polynomial: x^2 - 4x + 11" in out
        assert "dimension: 19" in out
        assert "blocks: R^6 x M_2(R) x M_3(R)" in out

    def test_square_polynomial(self, capsys):
        code, out, _ = run(capsys, "analyze", "4,4,1")
        assert code == 0
        assert "polynomial: x^2 - 6x + 9" in out

    def test_not_semisimple_message(self, capsys):
        code, out, _ = run(capsys, "analyze", "4,2", "--char", "2")
        assert code == 0
        assert "not semisimple (2 divides 4 and 2)" in out
        assert "blocks:" not in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "analyze", "8,2,1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["partition"] == [8, 2, 1]
        assert data["g_vector"] == [11, 4, 1]
        assert data["h_vector"] == [6, 1, 1]
        assert data["polynomial"]["coefficients"] == [11, -4, 1]
        assert data["dimension"] == 19
        assert data["semisimple"] is True
        assert data["wedderburn"] == {"1": 6, "2": 1, "3": 1}
        # reconstruct the emitting values from the document
        lam = Partition(tuple(data["partition"]))
        assert list(g_vector(lam)) == data["g_vector"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "4,0,1")
        assert code == 2
        assert "positive" in err

    def test_bad_characteristic(self, capsys):
        code, _, err = run(capsys, "analyze", "4,2", "--char", "6")
        assert code == 2
        assert "prime" in err

    def test_characteristic_above_the_primality_bound_is_refused(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "analyze", "4,2", "--char", str(2**127 - 1))
        assert time.perf_counter() - start < 1
        assert code == 4
        assert "primality" in err

    def test_large_prime_characteristic(self, capsys):
        code, out, _ = run(capsys, "analyze", "4,2", "--char", "1000000007")
        assert code == 0
        assert "characteristic: 1000000007" in out

    def test_many_distinct_parts_answer_in_bounded_time(self, capsys):
        parts = range(1, 201)
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", ",".join(map(str, parts)))
        assert time.perf_counter() - start < 3
        assert code == 0
        # In increasing order the reference takes well under a second; in the
        # partition's decreasing order it takes several.
        want = fraction_free_det([[math.gcd(a, b) for b in parts] for a in parts])
        assert f"\ngcd-matrix determinant: {want}\n" in out

    @pytest.mark.parametrize("rows,index,minor", INDEFINITE.values(), ids=INDEFINITE.keys())
    def test_non_positive_pivot_is_a_consistency_error(self, capsys, monkeypatch, rows, index, minor):
        real = partinv.gcd_symm._positive_definite_det
        monkeypatch.setattr(
            partinv.gcd_symm, "_positive_definite_det", lambda upper: real(upper_triangle(rows))
        )
        code, out, err = run(capsys, "analyze", "3,2,1")
        assert code == 3
        assert out == ""
        assert f"pivot {index} is {minor}, expected positive" in err


class TestCompare:
    def test_equivalent_and_isomorphic(self, capsys):
        code, out, _ = run(capsys, "compare", "8,2,1", "7,2,2")
        assert code == 0
        assert "equivalent: yes" in out
        assert "isomorphic: yes" in out
        assert "morita: yes" in out

    def test_equal_polynomial_different_totals(self, capsys):
        code, out, _ = run(capsys, "compare", "4,2,2", "2,1,1")
        assert code == 0
        assert "equivalent: yes" in out
        assert "isomorphic: no" in out

    def test_morita_across_totals(self, capsys):
        code, out, _ = run(capsys, "compare", "4,1", "4")
        assert code == 0
        assert "isomorphic: no" in out
        assert "morita: yes" in out
        assert "simple blocks: 4 vs 4" in out
        assert "signed values: -4 vs 4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "compare", "4,1", "4", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["isomorphic"] is False
        assert data["morita"] is True
        assert data["left"]["signed_value"] == -4
        assert data["right"]["signed_value"] == 4

    @pytest.mark.parametrize("left,right", [("3,2,1", "5,1"), ("4,1", "4"), ("6,3,2", "4,4,1,1")])
    def test_json_sides_follow_their_own_partition(self, capsys, left, right):
        # Each side carries its own partition's values; swapping the
        # arguments swaps the two objects.
        _, out, _ = run(capsys, "compare", left, right, "--format", "json")
        _, swapped, _ = run(capsys, "compare", right, left, "--format", "json")
        data, swapped = json.loads(out), json.loads(swapped)
        assert (data["left"], data["right"]) == (swapped["right"], swapped["left"])
        for text, side in [(left, data["left"]), (right, data["right"])]:
            assert list(side) == ["partition", "n", "polynomial", "blocks", "signed_value"]
            _, analyzed, _ = run(capsys, "analyze", text, "--format", "json")
            analyzed = json.loads(analyzed)
            assert side["partition"] == analyzed["partition"]
            assert side["n"] == analyzed["n"]
            assert side["polynomial"] == analyzed["polynomial"]
            assert side["blocks"] == sum(analyzed["wedderburn"].values())
            sign = 1 if analyzed["s"] % 2 else -1
            assert side["signed_value"] == sign * side["blocks"]

    def test_not_semisimple_is_a_precondition_error(self, capsys):
        code, _, err = run(capsys, "compare", "4,2", "3,3", "--char", "2")
        assert code == 2
        assert "not semisimple" in err


class TestLargeParts:
    # 44 digits; its smallest prime factor is above 10**17, so any path that
    # factorizes or sieves up to the part would not finish.
    BIG = (2**89 - 1) * (10**17 + 3)

    @pytest.mark.parametrize("command", ["compare", "iso", "morita"])
    def test_decisions_answer_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out, _ = run(capsys, command, f"{self.BIG},1", str(self.BIG + 1))
        assert time.perf_counter() - start < 1
        assert code == 0
        if command != "iso":
            assert f"simple blocks: {self.BIG} vs {self.BIG + 1}" in out

    def test_analyze_factors_a_prime_part(self, capsys):
        prime = 1000000000000000003  # 19 digits, so past the trial-division bound
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", f"{prime},1")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert f"determinant bounds: {prime - 1} <= det <= {prime - 1}" in out

    def test_analyze_refuses_a_part_it_cannot_factor(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", f"{self.BIG},1")
        assert time.perf_counter() - start < 1
        assert code == 4
        assert out == ""
        assert "cannot factor" in err

    def test_invariants_answer_at_once(self):
        start = time.perf_counter()
        assert g_vector(Partition((self.BIG, self.BIG, 6))) == (
            2 * self.BIG + 6,
            self.BIG + 2,
            1,
        )
        shape = wedderburn(Partition((self.BIG, 1)), FieldSpec())
        assert shape.multiplicities == (self.BIG - 1, 1)
        assert time.perf_counter() - start < 1


class TestClosureBudget:
    # P/p_i over the first s primes: a gcd-closure of 2^s - 1 elements.

    def test_twelve_prime_quotients_answer(self, capsys):
        parts = str(prime_quotients(12))
        code, out, _ = run(capsys, "iso", parts, parts)
        assert code == 0
        assert out.endswith("isomorphic: yes\n")

    @pytest.mark.parametrize("s", [13, 30])
    def test_more_prime_quotients_are_refused_at_once(self, capsys, s):
        parts = str(prime_quotients(s))
        start = time.perf_counter()
        code, out, err = run(capsys, "iso", parts, parts)
        assert time.perf_counter() - start < 1
        assert code == 4
        assert out == ""
        assert "gcd-closure" in err

    def test_analyze_on_ten_thousand_distinct_parts_is_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", ",".join(map(str, range(1, 10001))))
        assert time.perf_counter() - start < 3
        assert code == 4
        assert out == ""
        assert "gcd-closure" in err


_ONES = ",".join(["1"] * 60000)  # 60 000 parts, 119 999 bytes as one argument


class TestDigitLimit:
    # Python writes no int past sys.get_int_max_str_digits() (4300 by
    # default) in decimal; such a report is refused, not half printed.
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", ",".join(["1"] * 2000), "--format", "json"],  # the upper bound
            ["analyze", f"{2**7300},{2**7301}"],  # the determinant
            ["iso", ",".join(["1"] * 15000), ",".join(["1"] * 15000)],  # the polynomial
            # n has 4301 digits; the document is refused before any of it is written.
            ["compare", ",".join(["9" * 4300] * 11), "1", "--format", "json"],
        ],
        ids=["analyze-json", "analyze-text", "iso", "compare-json"],
    )
    def test_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("refused: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "BIG"],
            ["analyze", "8,BIG,1", "--format", "json"],
            ["compare", "4,1", "BIG"],
            ["iso", "BIG", "5"],
            ["morita", "5", "BIG"],
            ["count", "2", "BIG"],
            ["count", "-BIG", "3"],
            ["classify", "BIG", "3"],
            ["self-equivalent", "3", "BIG"],
            ["analyze", "4,1", "--char", "BIG"],
            ["compare", "4,1", "5", "--char", "BIG"],
            ["verify", "--nmax", "BIG"],
        ],
        ids=lambda argv: "-".join(arg.replace("BIG", "big") for arg in argv),
    )
    def test_integer_arguments_past_the_limit_are_refused(self, capsys, argv):
        # A part, s, n, --char or --nmax of 641 digits is a refused bound,
        # not bad input, and the one stderr line does not echo it.
        big = "1" + "0" * 640
        with digit_limit(640):
            code, out, err = run(capsys, *[arg.replace("BIG", big) for arg in argv])
        assert (code, out, err) == (4, "", "refused: an input integer has over 640 digits\n")

    def test_a_non_integer_argument_is_still_a_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "x", "3")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument s: invalid int value: 'x'\n")

    def test_unprintable_g_vector_is_refused_before_it_is_derived(self):
        # C(60000, 30000) has over 18000 digits, so g does too.  Deriving g
        # and the polynomial before the print would fill the 512 MiB.
        result, peak_mib = run_capped(["analyze", _ONES], timeout=30)
        limit = sys.get_int_max_str_digits()
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == f"refused: a result has over {limit} digits\n"
        assert peak_mib < 100

    @pytest.mark.parametrize(
        "command,fmt,right,code,line",
        [
            ("compare", "text", "1", 4, None),
            ("compare", "json", "1", 4, None),
            ("iso", "text", "1", 4, None),
            ("iso", "json", "1", 0, '  "isomorphic": false'),
            ("morita", "text", "1", 0, "morita: yes"),
            ("compare", "text", _ONES, 4, None),
            ("compare", "json", _ONES, 4, None),
            ("iso", "json", _ONES, 0, '  "isomorphic": true'),
        ],
        ids=[
            "compare-text",
            "compare-json",
            "iso-text",
            "iso-json",
            "morita",
            "compare-text-equal-sides",
            "compare-json-equal-sides",
            "iso-json-equal-sides",
        ],
    )
    def test_unprintable_polynomials_are_refused_before_they_are_derived(
        self, command, fmt, right, code, line
    ):
        # The polynomial of 60 000 ones has C(60000, i) coefficients, past
        # the digit limit; only the printed polynomials are refused, and
        # iso's JSON verdict and morita print none, even when both sides
        # are those ones.  Each argument is 119 999 bytes, under Linux's
        # 128 KiB limit for one argument.
        result, peak_mib = run_capped([command, _ONES, right, "--format", fmt], timeout=30)
        assert result.returncode == code, result.stderr
        if line is None:
            refusal = f"refused: a result has over {sys.get_int_max_str_digits()} digits\n"
            assert (result.stdout, result.stderr) == ("", refusal)
        else:
            assert line in result.stdout.splitlines() and result.stderr == ""
        assert peak_mib < 100

    def test_json_document_is_not_held_whole(self):
        # 6 000 ones a side make a JSON document of 32 MB, nearly all of it
        # the two polynomials, whose C(5999, i) coefficients appear in their
        # text and their lists.  Written in pieces, it is never also held as
        # one string and as encoded bytes (the peak was 119 MiB when it was).
        ones = ",".join(["1"] * 6000)
        result, peak_mib = run_capped(["compare", ones, ones, "--format", "json"], timeout=30)
        assert result.returncode == 0, result.stderr
        assert '  "isomorphic": true,' in result.stdout.splitlines()
        assert peak_mib < 100

    # Both formats print the determinant's upper bound, prod(parts) - floor(s!/2):
    # for the parts 1..k it is ceil(k!/2), of 640 digits at k = 310 and 642 at
    # k = 311.  Under no limit, one part 10^640 is its own bound.
    @pytest.mark.parametrize(
        "limit,parts", [(640, range(1, 311)), (0, [10**640])], ids=["at-the-limit", "no-limit"]
    )
    def test_printable_determinant_bound_answers(self, capsys, limit, parts):
        upper = math.prod(parts) - math.factorial(len(parts)) // 2
        text, line = ",".join(map(str, parts)), f"<= det <= {upper}\n"
        with digit_limit(limit):
            code, out, err = run(capsys, "analyze", text)
        assert (code, err) == (0, "")
        assert line in out
        assert limit == 0 or len(str(upper)) == limit

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_determinant_bound_is_refused_before_the_elimination(
        self, capsys, monkeypatch, fmt
    ):
        def unreached(upper):
            raise AssertionError("the elimination ran")

        monkeypatch.setattr(partinv.gcd_symm, "_positive_definite_det", unreached)
        text = ",".join(map(str, range(1, 312)))
        with digit_limit(640):
            code, out, err = run(capsys, "analyze", text, "--format", fmt)
        assert (code, out, err) == (4, "", "refused: a result has over 640 digits\n")

    def test_unfactorable_part_is_refused_before_the_determinant_bound(self, capsys):
        big = (2**89 - 1) * (10**17 + 3)  # no prime factor up to the trial bound
        with digit_limit(640):
            code, out, err = run(capsys, "analyze", ",".join(map(str, [big, *range(1, 312)])))
        assert (code, out) == (4, "")
        assert err.startswith(f"refused: cannot factor {big}")

    def test_unprintable_determinant_bound_is_refused_at_once(self):
        # ceil(1559!/2) has 4303 digits; eliminating the 1559 parts would take
        # minutes, and their h takes under a second.
        limit = sys.get_int_max_str_digits()
        start = time.perf_counter()
        result, _ = run_capped(["analyze", ",".join(map(str, range(1, 1560)))], timeout=30)
        assert time.perf_counter() - start < 5
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == f"refused: a result has over {limit} digits\n"

    def test_other_value_errors_propagate(self, capsys, monkeypatch):
        from partinv import cli

        def broken(*args):
            raise ValueError("not a conversion limit")

        monkeypatch.setattr(cli, "isomorphic", broken)
        with pytest.raises(ValueError, match="not a conversion limit"):
            main(["iso", "2,1", "3"])


def _joined(parts) -> str:
    return ",".join(map(str, parts))


_part = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**40 - 1),
)
_side = st.one_of(
    st.lists(_part, min_size=1, max_size=60).map(_joined),
    st.integers(min_value=1, max_value=30).map(lambda s: str(prime_quotients(s))),
)
_characteristic = st.one_of(
    st.just(0),
    st.sampled_from([2, 3, 1000000007, 2**61 - 1]),
    st.integers(min_value=-10, max_value=10**30),
)


@st.composite
def _adversarial_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["analyze", "compare", "iso", "morita"]))
    if command == "analyze":
        # The gcd-matrix determinant has no cost cap yet, so fewer parts.
        argv = [command, _joined(draw(st.lists(_part, min_size=1, max_size=30)))]
    else:
        argv = [command, draw(_side), draw(_side)]
    argv += ["--char", str(draw(_characteristic))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


class TestAdversarialInputs:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_adversarial_argv())
    def test_every_query_answers_or_is_refused_in_time(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 5
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()


class TestIsoMoritaSubcommands:
    def test_iso(self, capsys):
        code, out, _ = run(capsys, "iso", "17,11,8,2", "17,11,6,4")
        assert code == 0
        assert "isomorphic: yes" in out

    def test_morita(self, capsys):
        code, out, _ = run(capsys, "morita", "2,1", "1,1")
        assert code == 0
        assert "morita: no" in out
        assert "simple blocks: 2 vs 1" in out


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "11")
        assert code == 0
        assert "p(3,11) = 10" in out
        assert "i(3,11) = 5" in out
        assert "e(3,11): 1:2 2:2 4:1" in out
        assert "8,2,1 | 7,2,2 | 6,4,1 | 5,4,2" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "11", "--format", "json")
        assert code == 0
        assert json.loads(out) == json.loads(reference_table_output("classify", 3, 11, "json"))

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "11", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["parts", "g_vector", "class_id"]
        assert len(rows) == 11
        assert all(len(row) == 3 for row in rows)

    def test_precondition(self, capsys):
        code, _, err = run(capsys, "classify", "4", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "3", "7"],
            ["classify", "3", "7"],
            ["classify", "3", "7", "--format", "json"],
            ["classify", "3", "7", "--format", "csv"],
        ],
    )
    def test_miscount_is_a_consistency_error(self, capsys, monkeypatch, argv):
        # The package re-exports the function under the module's name.
        classify_module = importlib.import_module("partinv.classify")
        real = classify_module.count_partitions
        monkeypatch.setattr(classify_module, "count_partitions", lambda s, n: real(s, n) + 1)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "expected 5" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_an_inconsistent_class_key_is_refused(self, capsys, monkeypatch, fmt):
        # h = (2, 3) gives the key g = (8, 3), which g_s = 3 does not divide.
        classify_module = importlib.import_module("partinv.classify")
        monkeypatch.setattr(classify_module, "_closure_h", lambda parts, shares_of: (2, 3))
        code, out, err = run(capsys, "classify", "2", "8", "--format", fmt)
        assert code == 3
        assert out == ""
        assert "g_s = 3 does not divide g_1 = 8" in err

    def test_count_builds_no_partition_and_no_key(self, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("count built a value it does not print")

        monkeypatch.setattr(Partition, "__init__", unbuilt)
        monkeypatch.setattr(importlib.import_module("partinv.classify"), "_g_from_h", unbuilt)
        code, out, _ = run(capsys, "count", "7", "30")
        assert code == 0
        assert out.startswith(f"p(7,30) = {count_partitions(7, 30)}\n")

    def test_resource_bound(self, capsys):
        code, _, err = run(capsys, "classify", "40", "400")
        assert code == 4
        assert "limit" in err


class TestTableOutput:
    def test_every_format_matches_the_whole_table_renderers(self, capsys):
        formats = {"classify": ("text", "json", "csv"), "count": ("text", "json"),
                   "self-equivalent": ("text", "json")}
        for n in range(1, 21):
            for s in range(1, n + 1):
                for command, fmts in formats.items():
                    for fmt in fmts:
                        expected = (0, reference_table_output(command, s, n, fmt), "")
                        got = run(capsys, command, str(s), str(n), "--format", fmt)
                        assert got == expected, (command, s, n, fmt)


def run_capped(argv, timeout):
    """Run the command in a process whose address space is capped at
    512 MiB, so that a runaway table fails there instead of filling memory.

    Returns the completed process and the command's peak RSS in MiB, which
    ``os.wait4`` reports as it reaps the command.  A process exec'd from the
    test run starts with the test run's own peak as its ``ru_maxrss``, so a
    small child forks the command, reaps it and writes the peak to a pipe.
    Both run in a session of their own, and a timeout kills that whole
    process group before ``subprocess.TimeoutExpired`` is raised, so the
    command does not outlive its timeout.
    """
    child = (
        "import os, resource, sys\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "    from partinv.cli import main\n"
        "    sys.exit(main(sys.argv[2:]))\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "os.write(int(sys.argv[1]), b'%d' % usage.ru_maxrss)\n"  # KiB on Linux
        "sys.exit(os.waitstatus_to_exitcode(status))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(partinv.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as peak:
        try:
            helper = subprocess.Popen(
                [sys.executable, "-c", child, str(write_end), *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                pass_fds=(write_end,), start_new_session=True,
            )
        finally:
            os.close(write_end)
        try:
            out, err = helper.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(helper.pid, signal.SIGKILL)
            helper.communicate()
            raise
        result = subprocess.CompletedProcess(helper.args, helper.returncode, out, err)
        return result, int(peak.read()) / 1024


def _running(argv) -> list[int]:
    """The pids of the processes whose command line carries ``argv``."""
    needle = b"\0".join(arg.encode() for arg in argv) + b"\0"
    pids = []
    for entry in os.listdir("/proc"):
        with contextlib.suppress(OSError):  # the process has gone, or is not a process
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                if needle in cmdline.read():
                    pids.append(int(entry))
    return pids


def test_run_capped_timeout_leaves_no_process_behind():
    # The elimination of 1..1000 takes many seconds; the forked command must
    # die with the helper when the timeout fires.
    argv = ["analyze", ",".join(map(str, range(1, 1001)))]
    try:
        with pytest.raises(subprocess.TimeoutExpired):
            run_capped(argv, timeout=1)
        deadline = time.monotonic() + 2  # for the kill to land
        while _running(argv) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _running(argv) == []
    finally:
        for pid in _running(argv):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


class TestTableBounds:
    @pytest.mark.parametrize(
        "argv,first_line",
        [
            (["count", "1", "5000"], "p(1,5000) = 1"),
            (["count", "1000", "1000"], "p(1000,1000) = 1"),
            (["count", "990", "1000"], "p(990,1000) = 42"),
            (["self-equivalent", "1", "100000"], "self-equivalent in P(1,100000): 1"),
        ],
    )
    def test_deep_tables_answer(self, argv, first_line):
        result, _ = run_capped(argv, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == first_line

    def test_json_table_streams_in_bounded_memory(self):
        # Written one class at a time, the peak stays near the part tuples
        # (about 24 MiB); the whole document as one string takes 86 MiB.
        result, peak_mib = run_capped(["classify", "12", "56", "--format", "json"], timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["summary"]["p"] == count_partitions(12, 56)
        assert peak_mib < 48

    @pytest.mark.parametrize(
        "s,n", [("1", "1000000000"), ("2", "1000000000"), ("10000", "20000")]
    )
    def test_huge_tables_end_at_once(self, s, n):
        start = time.perf_counter()
        result, _ = run_capped(["count", s, n], timeout=10)
        assert time.perf_counter() - start < 2
        assert result.returncode in (0, 4)
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("s,n", [("2", "400002"), ("3", "1550"), ("1000", "1049")])
    def test_refusals(self, capsys, s, n):
        code, out, err = run(capsys, "count", s, n)
        assert code == 4
        assert out == ""
        assert "limit" in err

    def test_s_times_n_refusal(self, capsys):
        code, out, err = run(capsys, "count", "1", str(MAX_TABLE_CELLS + 1))
        assert (code, out) == (4, "")
        assert err == "refused: P(1,6000001) has s*n above the limit 6000000\n"

    @pytest.mark.parametrize("command", ["count", "self-equivalent", "classify"])
    @pytest.mark.parametrize(
        "s,n,code,err",
        [
            ("0", "5", 2, "error: need s >= 1 and n >= s, got s=0, n=5\n"),
            ("2", "400002", 4, "refused: P(2,400002) has more than 200000 partitions, the limit\n"),
            ("1", "6000001", 4, "refused: P(1,6000001) has s*n above the limit 6000000\n"),
            ("28", "80", 4, "refused: P(28,80) has 275826 partitions, above the limit 200000\n"),
            ("40", "89", 4, "refused: P(40,89) holds 6938320 parts, above the limit 6000000\n"),
        ],
    )
    def test_each_refusal_keeps_its_message(self, capsys, command, s, n, code, err):
        assert run(capsys, command, s, n) == (code, "", err)

    def test_size_lower_bound(self):
        for n in range(1, 41):
            for s in range(1, n + 1):
                bound = _size_lower_bound(s, n - s)
                assert bound <= count_partitions(s, n)
                if s <= 3:
                    assert bound == count_partitions(s, n)
        assert _size_lower_bound(3, 1544) <= MAX_CLASSIFY_SIZE < _size_lower_bound(3, 1547)


class TestSelfEquivalent:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "self-equivalent", "3", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "self-equivalent in P(3,9): 2"
        assert lines[1:] == ["4,4,1", "3,3,3"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "self-equivalent", "3", "9", "--format", "json")
        data = json.loads(out)
        assert data["self_equivalent"] == [[4, 4, 1], [3, 3, 3]]


class TestCount:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "count", "3", "7")
        assert code == 0
        assert "p(3,7) = 4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "3", "7", "--format", "json")
        data = json.loads(out)
        assert data["p"] == 4
        assert data["i"] == 3
        assert data["e"] == {"1": 2, "2": 1}

    def test_counts_the_table_once(self, capsys):
        # Calls are matched by code object, whichever module binds the name.
        target = count_partitions.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is target:
                calls.append((frame.f_locals["s"], frame.f_locals["n"]))

        sys.setprofile(profile)
        try:
            code = main(["count", "3", "7"])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert code == 0
        assert calls == [(3, 7)]


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "5")
        assert code == 0
        assert "all checks passed" in out

    def test_empty_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "0")
        assert code == 0

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == verify_all(4).to_json_dict()
        assert data["passed"] is True

    def test_nmax_bound(self, capsys):
        code, _, err = run(capsys, "verify", "--nmax", "26")
        assert code == 4

    def test_failures_exit_one(self, capsys, monkeypatch):
        from partinv import cli
        from partinv.oracles import Failure, FamilyResult, VerificationReport

        broken = VerificationReport(
            families=(
                FamilyResult(
                    family="g-vector vs subset enumeration",
                    instances=3,
                    failures=(Failure("4,2", "(6, 2)", "(6, 3)"),),
                ),
            )
        )
        monkeypatch.setattr(cli, "verify_all", lambda *a, **kw: broken)
        code, out, _ = run(capsys, "verify", "--nmax", "5")
        assert code == 1
        assert "FAIL" in out
        assert "4,2" in out

    def test_matrix_cap_bound(self, capsys):
        # --nmax is verify's only option; the permutation families stop at n = 12.
        code, out, _ = run(capsys, "verify", "--nmax", "5", "--matrix-cap", "12")
        assert code == 2
        assert out == ""


class TestHarness:
    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_arguments(self, capsys):
        assert main(["analyze"]) == 2

    def test_determinism(self, capsys):
        first = run(capsys, "classify", "3", "11", "--format", "json")
        second = run(capsys, "classify", "3", "11", "--format", "json")
        assert first == second

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# Each command's usage line, in the order the help lists the commands.
USAGE = {
    "analyze": "[-h] [--char P] [--format {text,json}] partition",
    "compare": "[-h] [--char P] [--format {text,json}] left right",
    "iso": "[-h] [--char P] [--format {text,json}] left right",
    "morita": "[-h] [--char P] [--format {text,json}] left right",
    "classify": "[-h] [--format {text,json,csv}] s n",
    "self-equivalent": "[-h] [--format {text,json}] s n",
    "count": "[-h] [--format {text,json}] s n",
    "verify": "[-h] [--nmax NMAX] [--format {text,json}]",
}
COMMANDS = list(USAGE)
# One command of each argument shape.
SHAPES = [
    ["analyze", "8,2,1"],
    ["iso", "4,2", "3,3", "--format", "json"],
    ["classify", "3", "9", "--format", "csv"],
    ["verify", "--nmax", "4"],
]


def run_module(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(partinv.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "partinv.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestDeclaration:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps usage at the terminal width
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert out.splitlines()[0] == f"usage: partinv {command} {USAGE[command]}"

    def test_readme_flags_name_exactly_the_declared_options(self, capsys):
        declared = set()
        for command in COMMANDS:
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            declared |= set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        flags = re.search(r"^Flags:.*?(?=\n\n)", readme, re.M | re.S).group()
        assert set(re.findall(r"--[a-z][a-z-]*", flags)) == declared - {"--help"}

    @pytest.mark.parametrize(
        "argv", [["compare", "8,2,1"], ["morita"], ["count", "3"], ["classify"]]
    )
    def test_missing_positional(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "required" in err

    def test_no_parser_is_built_per_call(self, capsys, monkeypatch):
        import argparse

        def refuse(self, *args, **kwargs):
            raise AssertionError("an ArgumentParser was built after import")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        for argv in SHAPES:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert out

    def test_nothing_leaks_between_calls(self, capsys):
        fresh = run_module("analyze", "4,1")
        assert fresh.returncode == 0
        assert run(capsys, "analyze", "4,1", "--char", "3", "--format", "json")[0] == 0
        assert run(capsys, "analyze", "4,1") == (0, fresh.stdout, fresh.stderr)

    def test_fresh_interpreter(self):
        result = run_module("--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: partinv ")
        result = run_module("analyze", "8,2,1")
        assert result.returncode == 0
        assert result.stdout.splitlines()[:3] == ["partition: 8,2,1", "n: 11", "s: 3"]


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            *SHAPES,
            ["classify", "7", "40", "--format", "csv"],
            ["classify", "7", "40", "--format", "json"],
            ["classify", "7", "40"],
        ],
    )
    def test_closed_pipe_exits_141_quietly(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(partinv.__file__).resolve().parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-m", "partinv.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        child.stdout.close()  # before the child can have written anything
        try:
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert child.returncode == 141
        assert err == b""
