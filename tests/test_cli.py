import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import partinv
from partinv import (
    EquivalenceClasses,
    FieldSpec,
    Partition,
    VerificationReport,
    classify,
    count_partitions,
    g_vector,
    wedderburn,
)
from partinv.classify import MAX_CLASSIFY_SIZE, _size_lower_bound
from partinv.cli import main


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
        assert list(g_vector(lam).values) == data["g_vector"]

    def test_not_closed_field_drops_blocks(self, capsys):
        code, out, _ = run(capsys, "analyze", "8,2,1", "--not-closed")
        assert code == 0
        assert "blocks: unavailable" in out

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

    def test_not_semisimple_is_a_precondition_error(self, capsys):
        code, _, err = run(capsys, "compare", "4,2", "3,3", "--char", "2")
        assert code == 2
        assert "not semisimple" in err

    def test_not_closed_is_a_precondition_error(self, capsys):
        code, _, err = run(capsys, "compare", "4,1", "3,2", "--not-closed")
        assert code == 2
        assert "closed" in err


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
        assert g_vector(Partition((self.BIG, self.BIG, 6))).values == (
            2 * self.BIG + 6,
            self.BIG + 2,
            1,
        )
        shape = wedderburn(Partition((self.BIG, 1)), FieldSpec())
        assert shape.multiplicities == (self.BIG - 1, 1)
        assert time.perf_counter() - start < 1


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
        grouped = EquivalenceClasses.from_json_dict(json.loads(out))
        assert grouped == classify(3, 11)

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

    def test_miscount_is_a_consistency_error(self, capsys, monkeypatch):
        import importlib

        # The package re-exports the function under the module's name.
        classify_module = importlib.import_module("partinv.classify")
        real = classify_module.count_partitions
        monkeypatch.setattr(classify_module, "count_partitions", lambda s, n: real(s, n) + 1)
        code, out, err = run(capsys, "count", "3", "7")
        assert code == 3
        assert out == ""
        assert "expected 5" in err

    def test_resource_bound(self, capsys):
        code, _, err = run(capsys, "classify", "40", "400")
        assert code == 4
        assert "limit" in err


def run_capped(argv, timeout):
    """Run the command in a child process whose address space is capped at
    512 MiB, so that a runaway table fails there instead of filling memory."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from partinv.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(partinv.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


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
        result = run_capped(argv, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == first_line

    @pytest.mark.parametrize(
        "s,n", [("1", "1000000000"), ("2", "1000000000"), ("10000", "20000")]
    )
    def test_huge_tables_end_at_once(self, s, n):
        start = time.perf_counter()
        result = run_capped(["count", s, n], timeout=10)
        assert time.perf_counter() - start < 2
        assert result.returncode in (0, 4)
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("s,n", [("2", "400002"), ("3", "1550"), ("1000", "1049")])
    def test_refusals(self, capsys, s, n):
        code, out, err = run(capsys, "count", s, n)
        assert code == 4
        assert out == ""
        assert "limit" in err

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
        report = VerificationReport.from_json_dict(json.loads(out))
        assert report.passed

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
        code, _, err = run(capsys, "verify", "--nmax", "5", "--matrix-cap", "99")
        assert code == 4


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
