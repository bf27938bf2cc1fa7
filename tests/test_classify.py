import csv
import importlib
import io
import json
import math
import weakref
from collections import Counter

import pytest

from partinv import (
    BoundExceededError,
    ConsistencyError,
    InputError,
    Partition,
    classify,
    count_classes,
    count_partitions,
    enumerate_partitions,
    equivalent,
    euler_phi,
    g_vector,
    scale,
    self_equivalent,
)
from partinv.classify import MAX_TABLE_CELLS
from partinv.cli import main
from util import divisor_count_h, reference_table_output

# The package re-exports the function under the module's name.
classify_module = importlib.import_module("partinv.classify")


def csv_text(grouped) -> str:
    out = io.StringIO()
    grouped.to_csv(out)
    return out.getvalue()


class TestClassify:
    def test_three_part_eleven(self):
        grouped = classify(3, 11)
        assert grouped.p == 10
        assert grouped.i == 5
        classes = grouped.member_parts()
        assert sorted(map(len, classes), reverse=True) == [4, 2, 2, 1, 1]
        assert grouped.e == {1: 2, 2: 2, 4: 1}
        big = next(idx for idx, members in enumerate(classes) if len(members) == 4)
        assert grouped.keys[big] == (11, 4, 1)
        assert classes[big] == [
            (8, 2, 1),
            (7, 2, 2),
            (6, 4, 1),
            (5, 4, 2),
        ]

    def test_two_part_prime(self):
        grouped = classify(2, 7)
        assert grouped.i == 1
        assert len(grouped.member_parts()[0]) == 3

    def test_single_part(self):
        grouped = classify(1, 9)
        assert grouped.i == 1
        assert grouped.member_parts() == [[(9,)]]

    def test_preconditions(self):
        with pytest.raises(InputError):
            classify(0, 5)
        with pytest.raises(InputError):
            classify(4, 3)

    def test_library_calls_are_bounded(self):
        # P(2,400002) has 200001 partitions, one above the limit.
        with pytest.raises(BoundExceededError):
            classify(2, 400002)
        with pytest.raises(BoundExceededError):
            self_equivalent(2, 400002)
        with pytest.raises(BoundExceededError):
            count_classes(2, 400002)

    def test_s_times_n_refusal(self):
        with pytest.raises(BoundExceededError, match=r"s\*n above the limit"):
            count_classes(1, MAX_TABLE_CELLS + 1)

    def test_count_and_singletons_agree_with_classify(self):
        for n in range(1, 19):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                assert count_classes(s, n) == (grouped.p, grouped.i, grouped.e)
                singletons = [members[0] for members in grouped.member_parts() if len(members) == 1]
                assert self_equivalent(s, n) == sorted(singletons, reverse=True)

    def test_classes_partition_the_set(self):
        for n in range(1, 15):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                classes = grouped.member_parts()
                members = [m for c in classes for m in c]
                assert len(members) == len(set(members)) == count_partitions(s, n)
                assert sum(size * cnt for size, cnt in grouped.e.items()) == grouped.p
                assert sum(grouped.e.values()) == grouped.i
                for key, c in zip(grouped.keys, classes):
                    assert all(g_vector(Partition(m)) == key for m in c)

    def test_csv_rows_match_class_ids(self):
        import csv
        import io

        for n in range(1, 15):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                rows = list(csv.reader(io.StringIO(csv_text(grouped))))[1:]
                assert [r[0] for r in rows] == [str(m) for m in enumerate_partitions(s, n)]
                classes = grouped.member_parts()
                for parts_text, g_text, class_id in rows:
                    members = classes[int(class_id)]
                    assert parts_text in {",".join(map(str, m)) for m in members}
                    assert g_text == ",".join(str(v) for v in grouped.keys[int(class_id)])

    def test_keys_sorted_members_in_enumeration_order(self):
        grouped = classify(4, 16)
        keys = list(grouped.keys)
        assert keys == sorted(keys)
        order = {lam.parts: i for i, lam in enumerate(enumerate_partitions(4, 16))}
        for members in grouped.member_parts():
            positions = [order[m] for m in members]
            assert positions == sorted(positions)

    def test_grouping_matches_pairwise_equivalence(self):
        for n in range(2, 19):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                class_of = dict(zip(grouped.parts, grouped.class_ids))
                pool = list(enumerate_partitions(s, n))
                for i, lam in enumerate(pool):
                    for mu in pool[i + 1 :]:
                        assert equivalent(lam, mu) == (
                            class_of[lam.parts] == class_of[mu.parts]
                        )

    def test_scaling_embeds_classes(self):
        # Doubling is an equivalence-preserving bijection from P(s,n) onto
        # the even-part partitions of P(s,2n), so classes map to classes.
        for n in range(2, 13):
            for s in range(1, n + 1):
                original = classify(s, n)
                doubled = classify(s, 2 * n)
                doubled_class_of = dict(zip(doubled.parts, doubled.class_ids))
                image_ids = []
                for members in original.member_parts():
                    ids = {doubled_class_of[scale(2, Partition(m)).parts] for m in members}
                    assert len(ids) == 1  # scaled members stay together
                    image_ids.append(ids.pop())
                # distinct classes stay distinct
                assert len(set(image_ids)) == original.i
                # the even-part partitions of P(s,2n) are exactly the images
                evens = sorted(m for m in doubled_class_of if all(p % 2 == 0 for p in m))
                images = sorted(scale(2, Partition(m)).parts for m in original.parts)
                assert evens == images


class TestWalk:
    @pytest.mark.parametrize("table", [classify, count_classes, self_equivalent])
    def test_a_dropped_partition_is_a_consistency_error(self, monkeypatch, table):
        real = classify_module._descending

        def dropping(n, s):
            walk = real(n, s)
            next(walk)
            return walk

        monkeypatch.setattr(classify_module, "_descending", dropping)
        message = r"^classified 9 partitions of P\(3,11\), expected 10$"
        with pytest.raises(ConsistencyError, match=message):
            table(3, 11)

    def test_csv_builds_no_partition(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("to_csv built a Partition")

        monkeypatch.setattr(Partition, "__init__", unbuilt)
        tables = [(s, n) for n in range(1, 21) for s in range(1, n + 1)]
        texts = [csv_text(classify(s, n)) for s, n in tables]
        monkeypatch.undo()  # the expected rows are read from Partitions
        for (s, n), text in zip(tables, texts):
            pool = list(enumerate_partitions(s, n))
            keys = sorted({lam.g for lam in pool})
            expected = [
                [str(lam), ",".join(map(str, lam.g)), str(keys.index(lam.g))]
                for lam in pool
            ]
            assert list(csv.reader(io.StringIO(text))) == [
                ["parts", "g_vector", "class_id"], *expected
            ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_text_and_json_build_no_partition(self, monkeypatch, capsys, fmt):
        # Every table command in the format; test_csv_builds_no_partition
        # covers the one CSV writer.
        def unbuilt(*args):
            raise AssertionError("a table command built a Partition")

        commands = ["classify", "count", "self-equivalent"]
        monkeypatch.setattr(Partition, "__init__", unbuilt)
        got = []
        for command in commands:
            code = main([command, "7", "30", "--format", fmt])
            got.append((code, capsys.readouterr().out))
        monkeypatch.undo()
        assert got == [(0, reference_table_output(command, 7, 30, fmt)) for command in commands]


class TestSharedShares:
    # The walk keeps the gcd-closure shares of each distinct-part set for the
    # current first part, and reuses them for the partitions that repeat it.
    def test_every_h_is_the_partitions_own(self):
        tables = [(s, n) for n in range(1, 25) for s in range(1, n + 1)] + [(12, 36)]
        for s, n in tables:
            for parts, h in classify_module._walk(s, n):
                assert h == Partition(parts).h, parts

    @pytest.mark.parametrize("s,n", [(12, 36), (7, 30), (3, 60), (2, 40)])
    def test_shares_are_kept_for_the_current_first_part_only(self, monkeypatch, s, n):
        real = classify_module._closure_shares
        derived = []  # (distinct parts, a weak reference to their shares)

        class Shares(list):  # a list that a weak reference can point to
            pass

        def spy(distinct):
            alive = [kept for kept, ref in derived if ref() is not None]
            assert all(kept[0] == distinct[0] for kept in alive), distinct
            # No two partitions of P(2, n) or P(3, n) share their distinct
            # parts.  Only (k, k, k) in P(3, 3k) is looked up, and it is the
            # last partition with its first part.
            assert s > 3 or not alive, distinct
            shares = Shares(real(distinct))
            derived.append((distinct, weakref.ref(shares)))
            return shares

        monkeypatch.setattr(classify_module, "_closure_shares", spy)
        walked = [tuple(dict.fromkeys(parts)) for parts, _ in classify_module._walk(s, n)]
        # Each distinct-part set is derived once, when the walk first meets it.
        assert [distinct for distinct, _ in derived] == list(dict.fromkeys(walked))
        assert len(derived) < len(walked) or s <= 3
        assert all(ref() is None for _, ref in derived)


def _two_part_classes(n: int) -> tuple[int, int, dict[int, int]]:
    """p, i and e of P(2, n) by their closed form.  The class of a,b is fixed
    by gcd(a, b) = gcd(a, n), a proper divisor d of n, and holds the b = dk
    with k <= n/(2d) prime to n/d: phi(n/d)/2 of them, or 1 when n/d = 2."""
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    proper = {d for k in small for d in (k, n // k)} - {n}
    sizes = Counter(1 if n // d == 2 else euler_phi(n // d) // 2 for d in proper)
    return n // 2, len(proper), dict(sorted(sizes.items()))


class TestIndependentOracles:
    # Two checks that share no code with the walk or its kept shares.

    # P(20,60) and P(16,48) reuse most of the shares the walk keeps, P(7,56)
    # few, and P(3,300) and P(2,2000) none.
    @pytest.mark.parametrize("s,n", [(20, 60), (16, 48), (7, 56), (3, 300), (2, 2000)])
    def test_every_h_is_the_divisor_count(self, s, n):
        h = divisor_count_h(n)
        for parts, walked in classify_module._walk(s, n):
            assert walked == h(parts), parts

    def test_two_part_tables_follow_the_closed_form(self):
        for n in range(2, 400):
            assert count_classes(2, n) == _two_part_classes(n), n

    # 400001 is the widest table admitted; 399998 = 2 * 199999 also has a
    # class with n/d = 2.
    @pytest.mark.parametrize("n", [399_998, 400_001])
    def test_the_widest_tables_follow_the_closed_form(self, capsys, n):
        p, i, e = _two_part_classes(n)
        assert main(["count", "2", str(n)]) == 0
        histogram = " ".join(f"{size}:{count}" for size, count in e.items())
        assert capsys.readouterr().out == f"p(2,{n}) = {p}\ni(2,{n}) = {i}\ne(2,{n}): {histogram}\n"


class TestSelfEquivalent:
    def test_three_part_nine(self):
        got = self_equivalent(3, 9)
        assert got == [(4, 4, 1), (3, 3, 3)]
        assert (5, 2, 2) not in got

    def test_single_part(self):
        assert self_equivalent(1, 7) == [(7,)]


class TestExports:
    def test_json_round_trip(self):
        grouped = classify(3, 11)
        out = io.StringIO()
        grouped.to_json(out)
        data = json.loads(out.getvalue())
        assert out.getvalue() == json.dumps(data, indent=2) + "\n"
        assert (data["s"], data["n"]) == (3, 11)
        assert [(tuple(c["key"]), list(map(tuple, c["members"]))) for c in data["classes"]] == list(
            zip(grouped.keys, grouped.member_parts())
        )
        assert data["summary"] == {"p": 10, "i": 5, "e": {"1": 2, "2": 2, "4": 1}}

    def test_csv_shape_and_content(self):
        import csv
        import io

        grouped = classify(3, 11)
        rows = list(csv.reader(io.StringIO(csv_text(grouped))))
        assert rows[0] == ["parts", "g_vector", "class_id"]
        assert len(rows) == 1 + grouped.p
        assert all(len(row) == 3 for row in rows)
        # reconstruct the grouping from the rows
        by_class = {}
        for parts_text, g_text, class_id in rows[1:]:
            lam = Partition(tuple(int(x) for x in parts_text.split(",")))
            assert g_vector(lam) == tuple(int(x) for x in g_text.split(","))
            by_class.setdefault(int(class_id), []).append(lam)
        assert sorted(map(tuple, grouped.member_parts())) == sorted(
            tuple(m.parts for m in members) for members in by_class.values()
        )
