import pytest
from hypothesis import given
from hypothesis import strategies as st

from partinv import (
    BoundExceededError,
    InputError,
    Partition,
    concat,
    count_partitions,
    enumerate_partitions,
    parse_partition,
    scale,
)
from util import all_partitions, conjugate, digit_limit, exact_partitions

partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=10
).map(lambda xs: Partition(tuple(sorted(xs, reverse=True))))


class TestPartitionType:
    def test_basic_fields(self):
        lam = Partition((8, 2, 1))
        assert lam.n == 11
        assert lam.s == 3
        assert list(lam) == [8, 2, 1]

    def test_of_sorts_descending(self):
        assert Partition.of(1, 8, 2) == Partition((8, 2, 1))

    def test_rejects_increasing(self):
        with pytest.raises(InputError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            Partition((3, 0))
        with pytest.raises(InputError):
            Partition(())

    def test_rejects_bool_parts(self):
        # bool is an int subclass: (2, True) would print as "2,True" and
        # compare equal to (2, 1).
        for parts in ((2, True), (True,), (False,)):
            with pytest.raises(InputError, match="positive integer"):
                Partition(parts)

    def test_rejects_a_list(self):
        # A list would pass every part check but leave the value unhashable.
        with pytest.raises(InputError, match="parts must be a tuple, got list"):
            Partition([3, 1])


class TestParse:
    def test_sorted_input(self):
        lam = parse_partition("8,2,1")
        assert lam.parts == (8, 2, 1)
        assert (lam.n, lam.s) == (11, 3)

    def test_unsorted_input_is_normalized(self):
        assert parse_partition("1,2,8").parts == (8, 2, 1)

    def test_whitespace(self):
        assert parse_partition(" 8, 2 , 1 ").parts == (8, 2, 1)

    def test_zero_part(self):
        with pytest.raises(InputError, match="positive"):
            parse_partition("4,0,1")

    def test_bad_token_is_named(self):
        with pytest.raises(InputError, match="'x'"):
            parse_partition("4,x,1")

    def test_empty(self):
        with pytest.raises(InputError):
            parse_partition("  ")

    def test_a_part_past_the_digit_limit_is_refused(self):
        # A resource bound, not bad input, and the message does not echo it.
        with digit_limit(640):
            assert parse_partition("9" * 640 + ",1").parts == (10**640 - 1, 1)
            with pytest.raises(BoundExceededError, match="^an input integer has over 640 digits$"):
                parse_partition("1," + "9" * 641)

    @given(partitions_strategy)
    def test_round_trip(self, lam):
        assert parse_partition(str(lam)) == lam


class TestEnumerate:
    def test_three_parts_of_seven(self):
        got = [lam.parts for lam in enumerate_partitions(3, 7)]
        assert got == [(5, 1, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)]

    def test_single_part(self):
        assert [lam.parts for lam in enumerate_partitions(1, 9)] == [(9,)]

    def test_more_parts_than_total(self):
        assert list(enumerate_partitions(5, 4)) == []

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            enumerate_partitions(0, 5)

    def test_descending_lexicographic_order(self):
        for s in range(1, 7):
            emitted = [lam.parts for lam in enumerate_partitions(s, 12)]
            assert emitted == sorted(emitted, reverse=True)
            assert len(set(emitted)) == len(emitted)

    def test_soundness(self):
        for lam in enumerate_partitions(4, 14):
            assert lam.s == 4
            assert lam.n == 14

    def test_many_parts(self):
        # More parts than the interpreter's default recursion limit.
        assert list(enumerate_partitions(1000, 1000)) == [Partition((1,) * 1000)]
        emitted = list(enumerate_partitions(2000, 2003))
        assert [lam.parts[:3] for lam in emitted] == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
        assert all(lam.parts[3:] == (1,) * 1997 for lam in emitted)

    def test_equals_the_recursive_reference(self):
        # Every shape of the walk's refill: a lowered part refilled with
        # copies of itself only, a zero or non-zero remainder, trailing ones,
        # the last part alone, s = 1, s = n and s > n.
        shapes = [(s, n) for n in range(1, 41) for s in range(1, n + 2)] + [(16, 48)]
        for s, n in shapes:
            emitted = [lam.parts for lam in enumerate_partitions(s, n)]
            assert emitted == sorted(exact_partitions(n, s), reverse=True), (s, n)

    def test_completeness_against_count(self):
        for n in range(1, 21):
            for s in range(1, n + 1):
                assert len(list(enumerate_partitions(s, n))) == count_partitions(s, n)


class TestCount:
    @pytest.mark.parametrize(
        "s,n,expected", [(3, 7, 4), (1, 13, 1), (3, 11, 10), (5, 4, 0), (0, 0, 1), (0, 3, 0)]
    )
    def test_values(self, s, n, expected):
        assert count_partitions(s, n) == expected

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            count_partitions(-1, 4)

    def test_deep_arguments(self):
        # Far beyond the interpreter's default recursion limit.
        assert count_partitions(1, 5000) == 1
        assert count_partitions(990, 1000) == 42
        # P(1000, 2000) is in bijection with all partitions of 1000.
        assert count_partitions(1000, 2000) == 24061467864032622473692149727991


class TestConjugate:
    def test_example(self):
        assert conjugate(Partition((4, 2, 1))).parts == (3, 2, 1, 1)

    def test_row_becomes_column(self):
        assert conjugate(Partition((6,))).parts == (1,) * 6

    def test_square_is_self_conjugate(self):
        assert conjugate(Partition((3, 3, 3))).parts == (3, 3, 3)

    def test_involution_exhaustive(self):
        for lam in all_partitions(14):
            assert conjugate(conjugate(lam)) == lam

    def test_bijection_onto_largest_part_s(self):
        # Transposing swaps "s parts" with "largest part s".
        for n in range(1, 31):
            by_largest = {}
            for s in range(1, n + 1):
                for lam in enumerate_partitions(s, n):
                    by_largest.setdefault(lam.parts[0], 0)
                    by_largest[lam.parts[0]] += 1
            for s in range(1, n + 1):
                assert count_partitions(s, n) == by_largest.get(s, 0)


class TestSurgery:
    def test_concat_merges_multisets(self):
        lam = Partition((4, 3, 2, 1))
        mu = Partition((5, 4, 4, 2, 2, 1, 1))
        assert concat(lam, mu).parts == (5, 4, 4, 4, 3, 2, 2, 2, 1, 1, 1)

    def test_scale(self):
        assert scale(2, Partition((2, 1))).parts == (4, 2)
        with pytest.raises(InputError):
            scale(0, Partition((2, 1)))

    @given(partitions_strategy, partitions_strategy)
    def test_concat_commutative(self, lam, mu):
        assert concat(lam, mu) == concat(mu, lam)

    @given(partitions_strategy, partitions_strategy, partitions_strategy)
    def test_concat_associative(self, lam, mu, nu):
        assert concat(concat(lam, mu), nu) == concat(lam, concat(mu, nu))

    @given(partitions_strategy)
    def test_scale_by_one_is_identity(self, lam):
        assert scale(1, lam) == lam

    @given(partitions_strategy, st.integers(min_value=1, max_value=5))
    def test_scale_lands_in_scaled_total(self, lam, d):
        scaled = scale(d, lam)
        assert scaled.n == d * lam.n
        assert scaled.s == lam.s
