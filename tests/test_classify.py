import json

import pytest

from partinv import (
    BoundExceededError,
    EquivalenceClasses,
    InputError,
    Partition,
    classify,
    count_partitions,
    enumerate_partitions,
    equivalent,
    g_vector,
    scale,
    self_equivalent,
)


class TestClassify:
    def test_three_part_eleven(self):
        grouped = classify(3, 11)
        assert grouped.p == 10
        assert grouped.i == 5
        assert sorted((c.size for c in grouped.classes), reverse=True) == [4, 2, 2, 1, 1]
        assert grouped.e == {1: 2, 2: 2, 4: 1}
        big = next(c for c in grouped.classes if c.size == 4)
        assert big.key == (11, 4, 1)
        assert [m.parts for m in big.members] == [
            (8, 2, 1),
            (7, 2, 2),
            (6, 4, 1),
            (5, 4, 2),
        ]

    def test_two_part_prime(self):
        grouped = classify(2, 7)
        assert grouped.i == 1
        assert grouped.classes[0].size == 3

    def test_single_part(self):
        grouped = classify(1, 9)
        assert grouped.i == 1
        assert grouped.classes[0].members == (Partition((9,)),)

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

    def test_classes_partition_the_set(self):
        for n in range(1, 15):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                members = [m for c in grouped.classes for m in c.members]
                assert len(members) == len(set(members)) == count_partitions(s, n)
                assert sum(size * cnt for size, cnt in grouped.e.items()) == grouped.p
                assert sum(grouped.e.values()) == grouped.i
                for c in grouped.classes:
                    assert all(g_vector(m).values == c.key for m in c.members)

    def test_csv_rows_match_class_ids(self):
        import csv
        import io

        for n in range(1, 15):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                rows = list(csv.reader(io.StringIO(grouped.to_csv())))[1:]
                assert [r[0] for r in rows] == [str(m) for m in enumerate_partitions(s, n)]
                for parts_text, g_text, class_id in rows:
                    cls = grouped.classes[int(class_id)]
                    assert parts_text in {str(m) for m in cls.members}
                    assert g_text == ",".join(str(v) for v in cls.key)

    def test_keys_sorted_members_in_enumeration_order(self):
        grouped = classify(4, 16)
        keys = [c.key for c in grouped.classes]
        assert keys == sorted(keys)
        order = {lam: i for i, lam in enumerate(enumerate_partitions(4, 16))}
        for c in grouped.classes:
            positions = [order[m] for m in c.members]
            assert positions == sorted(positions)

    def test_grouping_matches_pairwise_equivalence(self):
        for n in range(2, 19):
            for s in range(1, n + 1):
                grouped = classify(s, n)
                class_of = {}
                for idx, c in enumerate(grouped.classes):
                    for m in c.members:
                        class_of[m] = idx
                pool = list(enumerate_partitions(s, n))
                for i, lam in enumerate(pool):
                    for mu in pool[i + 1 :]:
                        assert equivalent(lam, mu) == (class_of[lam] == class_of[mu])

    def test_scaling_embeds_classes(self):
        # Doubling is an equivalence-preserving bijection from P(s,n) onto
        # the even-part partitions of P(s,2n), so classes map to classes.
        for n in range(2, 13):
            for s in range(1, n + 1):
                original = classify(s, n)
                doubled = classify(s, 2 * n)
                doubled_class_of = {
                    m: idx for idx, c in enumerate(doubled.classes) for m in c.members
                }
                image_ids = []
                for c in original.classes:
                    ids = {doubled_class_of[scale(2, m)] for m in c.members}
                    assert len(ids) == 1  # scaled members stay together
                    image_ids.append(ids.pop())
                # distinct classes stay distinct
                assert len(set(image_ids)) == original.i
                # the even-part partitions of P(s,2n) are exactly the images
                evens = sorted(m for m in doubled_class_of if all(p % 2 == 0 for p in m.parts))
                images = sorted(
                    scale(2, m) for c in original.classes for m in c.members
                )
                assert evens == images


class TestSelfEquivalent:
    def test_three_part_nine(self):
        got = [lam.parts for lam in self_equivalent(3, 9)]
        assert got == [(4, 4, 1), (3, 3, 3)]
        assert (5, 2, 2) not in got

    def test_single_part(self):
        assert [lam.parts for lam in self_equivalent(1, 7)] == [(7,)]


class TestExports:
    def test_json_round_trip(self):
        grouped = classify(3, 11)
        data = json.loads(json.dumps(grouped.to_json_dict()))
        assert EquivalenceClasses.from_json_dict(data) == grouped
        assert data["summary"] == {"p": 10, "i": 5, "e": {"1": 2, "2": 2, "4": 1}}

    def test_csv_shape_and_content(self):
        import csv
        import io

        grouped = classify(3, 11)
        rows = list(csv.reader(io.StringIO(grouped.to_csv())))
        assert rows[0] == ["parts", "g_vector", "class_id"]
        assert len(rows) == 1 + grouped.p
        assert all(len(row) == 3 for row in rows)
        # reconstruct the grouping from the rows
        by_class = {}
        for parts_text, g_text, class_id in rows[1:]:
            lam = Partition(tuple(int(x) for x in parts_text.split(",")))
            assert g_vector(lam).values == tuple(int(x) for x in g_text.split(","))
            by_class.setdefault(int(class_id), []).append(lam)
        assert sorted(
            tuple(m.parts for m in c.members) for c in grouped.classes
        ) == sorted(tuple(m.parts for m in members) for members in by_class.values())
