import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partinv.gcd_symm
from partinv import (
    BoundExceededError,
    ConsistencyError,
    GVector,
    InputError,
    Partition,
    euler_phi,
    g_vector,
    gcd_matrix,
    gcd_matrix_det_and_bounds,
    h_vector,
    is_prime,
    power_norm,
    scale,
)
from util import (
    INDEFINITE,
    all_partitions,
    digit_limit,
    fraction_free_det,
    prime_quotients,
    subset_gcd_sum,
    upper_triangle,
)

naturals = st.integers(min_value=0, max_value=10**9)
positives = st.integers(min_value=1, max_value=10**6)


class TestGcdProduct:
    @given(st.lists(naturals, min_size=1, max_size=6), naturals)
    def test_chain_distributes(self, chain, b):
        left = math.gcd(*chain, b)
        right = 0
        for a in chain:
            right = math.gcd(right, math.gcd(a, b))
        assert left == right


class TestGVector:
    def test_example(self):
        assert g_vector(Partition((8, 2, 1))).values == (11, 4, 1)

    def test_single_part(self):
        assert g_vector(Partition((9,))).values == (9,)

    def test_four_parts(self):
        assert g_vector(Partition((12, 4, 3, 1))).values == (20, 11, 4, 1)

    def test_one_based_indexing(self):
        g = g_vector(Partition((8, 2, 1)))
        assert (g[1], g[2], g[3]) == (11, 4, 1)
        with pytest.raises(IndexError):
            g[0]
        with pytest.raises(IndexError):
            g[4]

    def test_iteration_walks_the_values(self):
        # __iter__ must stay: without it Python iterates through the 1-based
        # __getitem__ from index 0, which raises IndexError at once, so
        # list(g) would silently be [].
        g = g_vector(Partition((8, 2, 1)))
        h = h_vector(g)
        assert tuple(g) == g.values == (11, 4, 1)
        assert tuple(h) == h.values == (6, 1, 1)

    def test_agrees_with_subset_enumeration(self):
        for lam in all_partitions(15):
            got = g_vector(lam).values
            want = tuple(subset_gcd_sum(lam.parts, i) for i in range(1, lam.s + 1))
            assert got == want, lam

    def test_divisibility_invariant_enforced(self):
        with pytest.raises(ConsistencyError):
            GVector((5, 3))  # 3 does not divide 5

    def test_first_entry_is_total_and_bounds(self):
        for lam in all_partitions(16):
            g = g_vector(lam)
            assert g[1] == lam.n
            g_last = g[g.s]
            for i in range(1, g.s + 1):
                assert math.comb(g.s, i) * g_last <= g[i] <= math.comb(g.s, i) * lam.parts[0]

    def test_scaling_multiplies_elementwise(self):
        import random

        rng = random.Random(20110)
        pool = list(all_partitions(20))
        for lam in rng.sample(pool, 200):
            d = rng.randint(1, 5)
            want = tuple(d * v for v in g_vector(lam).values)
            assert g_vector(scale(d, lam)).values == want

    def test_appending_a_unit_part(self):
        # g_i grows by C(s-1, i-1) when the smallest part is 1.
        for lam in all_partitions(18):
            if lam.s < 2 or lam.parts[-1] != 1:
                continue
            head = Partition(lam.parts[:-1])
            g_full = g_vector(lam)
            g_head = g_vector(head)
            for i in range(1, lam.s + 1):
                base = g_head[i] if i <= head.s else 0
                assert g_full[i] == base + math.comb(lam.s - 1, i - 1)

    def test_sandwich_after_dropping_smallest(self):
        # For i >= 2: g_i(head) + C(s-1,i-1) <= g_i <= g_i(head) + min(...).
        for lam in all_partitions(20):
            if lam.s < 2:
                continue
            head = Partition(lam.parts[:-1])
            tail = lam.parts[-1]
            g_full = g_vector(lam)
            g_head = g_vector(head)
            assert g_full[1] >= g_head[1] + 1
            for i in range(2, lam.s + 1):
                base = g_head[i] if i <= head.s else 0
                lower = base + math.comb(lam.s - 1, i - 1)
                upper = base + min(g_head[i - 1], tail * math.comb(lam.s - 1, i - 1))
                assert lower <= g_full[i] <= upper, (lam, i)


class TestHVector:
    def test_example(self):
        assert h_vector(GVector((11, 4, 1))).values == (6, 1, 1)

    def test_two_even_parts(self):
        assert h_vector(GVector((6, 2))).values == (2, 2)

    def test_single_part(self):
        assert h_vector(GVector((9,))).values == (9,)

    def test_invariants_exhaustive(self):
        for lam in all_partitions(20):
            g = g_vector(lam)
            h = h_vector(g)
            assert sum(i * v for i, v in enumerate(h.values, start=1)) == lam.n
            alternating = sum(v if i % 2 else -v for i, v in enumerate(g.values, start=1))
            assert sum(h.values) == alternating
            assert h[h.s] == g[g.s]
            assert all(v >= 0 for v in h.values)


class TestClosureBudget:
    # The parts P/p_i over the first s primes have a gcd-closure of 2^s - 1
    # elements: 4095 at s = 12, just under the budget, and 8191 at s = 13.

    def test_answers_just_under_the_budget(self):
        lam = prime_quotients(12)
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        # A divisor d of P lies in exactly the parts P/p with p not dividing
        # d, so h_i sums phi(d) over the d with 12 - i prime factors.
        want = tuple(
            sum(math.prod(p - 1 for p in d) for d in itertools.combinations(primes, 12 - i))
            for i in range(1, 13)
        )
        assert lam.h.values == want
        assert h_vector(g_vector(lam)).values == want

    def test_refuses_the_first_element_past_the_budget(self):
        # 43 and 47 are prime to every quotient and add one element each: the
        # closure has 4096 elements with 47 and 4097 once 43 is merged.
        quotients = prime_quotients(12).parts
        assert len(Partition((*quotients, 47)).h) == 13
        with pytest.raises(BoundExceededError) as refused:
            Partition((*quotients, 47, 43)).h
        assert str(refused.value) == "the gcd-closure has more than 4096 elements"

    @pytest.mark.parametrize(
        "derive", [lambda lam: lam.h, g_vector], ids=["invariants", "g_vector"]
    )
    def test_refuses_just_above_the_budget(self, derive):
        lam = prime_quotients(13)
        start = time.perf_counter()
        with pytest.raises(BoundExceededError, match="gcd-closure"):
            derive(lam)
        assert time.perf_counter() - start < 1


class TestMatrices:
    # The divisor matrix is the strict upper triangle of the gcd matrix.
    def test_divisor_matrix_example(self):
        rows = gcd_matrix(Partition((8, 2, 1)))
        assert [row[i + 1 :] for i, row in enumerate(rows)] == [(2, 1), (1,), ()]

    def test_divisor_matrix_single_part(self):
        rows = gcd_matrix(Partition((9,)))
        assert [row[i + 1 :] for i, row in enumerate(rows)] == [()]

    def test_gcd_matrix_example(self):
        assert gcd_matrix(Partition((3, 2, 1))) == ((3, 1, 1), (1, 2, 1), (1, 1, 1))

    def test_gcd_matrix_symmetric_with_trace_n(self):
        for lam in all_partitions(12):
            m = gcd_matrix(lam)
            assert all(m[i][j] == m[j][i] for i in range(lam.s) for j in range(lam.s))
            assert sum(m[i][i] for i in range(lam.s)) == lam.n


class TestPowerNorm:
    def test_first_power(self):
        assert power_norm(Partition((8, 2, 1)))[0] == 4

    def test_full_chain(self):
        assert power_norm(Partition((8, 2, 1))) == (4, 1)
        assert power_norm(Partition((12, 8, 4))) == (12, 4)

    def test_single_part(self):
        assert power_norm(Partition((9,))) == ()

    def test_matches_shifted_g_vector(self):
        for lam in all_partitions(16):
            assert power_norm(lam) == g_vector(lam).values[1:], lam

    def test_reads_the_divisor_matrix(self, monkeypatch):
        lam = Partition((12, 8, 4))
        plain = power_norm(lam)

        real = partinv.gcd_symm.gcd_matrix

        def perturbed(mu):
            entries = [list(row) for row in real(mu)]
            entries[0][1] += 1
            return tuple(tuple(row) for row in entries)

        monkeypatch.setattr(partinv.gcd_symm, "gcd_matrix", perturbed)
        assert power_norm(lam) != plain


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


class TestDeterminant:
    @pytest.mark.parametrize(
        "parts,det,lower,upper,distinct",
        [
            ((3, 2, 1), 2, 2, 3, True),
            ((2, 1), 1, 1, 1, True),
            ((1, 1), 0, 1, 0, False),
        ],
    )
    def test_fixtures(self, parts, det, lower, upper, distinct):
        result = gcd_matrix_det_and_bounds(Partition(parts))
        assert result.determinant == det
        assert result.lower == lower
        assert result.upper == upper
        assert result.distinct is distinct

    def test_single_part_degenerate_upper(self):
        result = gcd_matrix_det_and_bounds(Partition((7,)))
        assert result.determinant == 7
        assert result.lower == euler_phi(7) == 6
        assert result.upper == 7
        assert result.distinct

    def test_against_cofactor_expansion(self):
        # cofactor expansion is s!-sized, so keep the oracle hand-sized
        for lam in all_partitions(13):
            if lam.s > 7:
                continue
            want = _cofactor_det([list(r) for r in gcd_matrix(lam)])
            assert gcd_matrix_det_and_bounds(lam).determinant == want, lam

    def test_against_general_elimination(self):
        leading = (Partition.of(*range(1, k + 1)) for k in range(1, 61))
        for lam in itertools.chain(all_partitions(25), leading):
            want = fraction_free_det([list(r) for r in gcd_matrix(lam)])
            assert gcd_matrix_det_and_bounds(lam).determinant == want, lam

    @settings(deadline=None)
    @given(st.lists(positives, min_size=1, max_size=40))
    def test_against_general_elimination_on_random_parts(self, parts):
        lam = Partition.of(*parts)
        want = fraction_free_det([list(r) for r in gcd_matrix(lam)])
        assert gcd_matrix_det_and_bounds(lam).determinant == want

    @pytest.mark.parametrize(
        "parts,lower,upper",
        [
            ((1,) * 200, 1, 1 - math.factorial(200) // 2),
            ((12, 12, 12, 9, 9, 1), 4**3 * 6**2, 12**3 * 9**2 - 360),
            ((2,) * 150, 1, 2**150 - math.factorial(150) // 2),
        ],
    )
    def test_repeated_parts_are_not_eliminated(self, monkeypatch, parts, lower, upper):
        def refuse(upper_triangle):
            raise AssertionError("repeated parts reached the elimination")

        monkeypatch.setattr(partinv.gcd_symm, "_positive_definite_det", refuse)
        result = gcd_matrix_det_and_bounds(Partition(parts))
        assert (result.determinant, result.lower, result.upper) == (0, lower, upper)
        assert not result.distinct

    def test_unfactorable_part_is_refused_before_the_elimination(self, monkeypatch):
        def refuse(upper_triangle):
            raise AssertionError("the elimination ran before the factoring")

        monkeypatch.setattr(partinv.gcd_symm, "_positive_definite_det", refuse)
        big = (2**89 - 1) * (10**17 + 3)  # no prime factor up to the trial bound
        with pytest.raises(BoundExceededError, match="cannot factor"):
            gcd_matrix_det_and_bounds(Partition((big, 1)))

    def test_unprintable_bound_of_distinct_parts_is_refused(self, monkeypatch):
        # One part is its own upper bound: 2^2126 has 640 digits, 10^640 has 641.
        def refuse(upper_triangle):
            raise AssertionError("the elimination ran on an unprintable bound")

        with digit_limit(640):
            assert gcd_matrix_det_and_bounds(Partition((2**2126,))).upper == 2**2126
            monkeypatch.setattr(partinv.gcd_symm, "_positive_definite_det", refuse)
            with pytest.raises(BoundExceededError, match="a result has over 640 digits"):
                gcd_matrix_det_and_bounds(Partition((10**640,)))

    def test_unprintable_bound_of_repeated_parts_is_not_refused(self):
        # there is no elimination to spare, and text output prints no bound
        with digit_limit(640):
            result = gcd_matrix_det_and_bounds(Partition((10**640, 10**640)))
        assert (result.determinant, result.upper, result.distinct) == (0, 10**1280 - 1, False)

    @pytest.mark.parametrize("rows,index,minor", INDEFINITE.values(), ids=INDEFINITE.keys())
    def test_non_positive_pivot_is_a_consistency_error(self, rows, index, minor):
        # the case names the first leading minor that is not positive
        leading = [fraction_free_det([row[:k] for row in rows[:k]]) for k in range(1, index + 1)]
        assert leading[-1] == minor and all(m > 0 for m in leading[:-1])
        with pytest.raises(ConsistencyError, match=f"pivot {index} is {minor}, expected positive"):
            partinv.gcd_symm._positive_definite_det(upper_triangle(rows))

    def test_elimination_against_general_elimination(self):
        # The sizes 1 to 40 cover every remainder mod 3, so every pass ends
        # with zero, one or two rows left; sets of 40 to 70 parts below 10^6
        # run three-pivot passes on minors past 512 bits.  1..k and divisor
        # sets are gcd-closed.
        rng = random.Random(5)
        crossing = [sorted(rng.sample(range(1, 10**6), s)) for s in (40, 55, 70)]
        sets = [
            *(rng.sample(range(1, 1001), s) for s in range(1, 41) for _ in range(2)),
            *crossing,
            *(range(1, k + 1) for k in (1, 2, 3, 50, 51, 120)),
            *([d for d in range(1, m + 1) if m % d == 0] for m in (720, 5040, 27648, 30030)),
        ]
        for parts in sets:
            parts = sorted(parts)
            rows = [[math.gcd(a, b) for b in parts] for a in parts]
            want = fraction_free_det([row[:] for row in rows])
            assert partinv.gcd_symm._positive_definite_det(upper_triangle(rows)) == want, parts
            if parts in crossing:
                assert want.bit_length() > 512

    def test_lower_bound_factors_each_distinct_part_once(self, monkeypatch):
        calls = []
        real = partinv.gcd_symm.euler_phi

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(partinv.gcd_symm, "euler_phi", counted)
        result = gcd_matrix_det_and_bounds(Partition((12, 12, 12, 9, 9, 1)))
        assert sorted(calls) == [1, 9, 12]
        assert result.lower == 4**3 * 6**2 * 1
        assert not result.distinct

    @pytest.mark.parametrize(
        "parts",
        [
            *(pytest.param(range(1, k + 1), id=f"1..{k}") for k in (*range(1, 61), 100, 200, 300)),
            *(
                pytest.param([d for d in range(1, m + 1) if m % d == 0], id=f"divisors-of-{m}")
                for m in (720, 5040, 27648, 30030)
            ),
        ],
    )
    def test_factor_closed_parts_against_the_totient_product(self, parts):
        # Smith 1875: when every divisor of a part is a part (1..k, or the
        # divisors of m) the determinant is the product of the totients of
        # the parts.  The totient is counted here, neither eliminated nor
        # factored.
        want = math.prod(sum(math.gcd(j, i) == 1 for j in range(1, i + 1)) for i in parts)
        assert gcd_matrix_det_and_bounds(Partition.of(*parts)).determinant == want

    def test_bounds_for_distinct_parts(self):
        for lam in all_partitions(16):
            result = gcd_matrix_det_and_bounds(lam)
            if result.distinct:
                assert 0 < result.determinant
                assert result.lower <= result.determinant <= result.upper


class TestEulerPhi:
    @pytest.mark.parametrize("m,value", [(1, 1), (2, 1), (8, 4), (9, 6), (12, 4), (97, 96)])
    def test_values(self, m, value):
        assert euler_phi(m) == value

    @given(st.integers(min_value=1, max_value=3000))
    def test_counts_coprime_residues(self, m):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    def test_factors_past_the_trial_bound(self):
        prime = 1000000000000000003
        assert euler_phi(2 * prime) == prime - 1
        with pytest.raises(BoundExceededError):
            euler_phi(1000003 * 1000033)  # both primes are above the bound

    @pytest.mark.parametrize("m", [6.0, True, "6", 6.5])
    def test_refuses_what_is_not_an_int(self, m):
        with pytest.raises(InputError, match="positive integer"):
            euler_phi(m)

    def test_prime_factors_agree_with_a_sieve_up_to_10_to_the_5(self):
        limit = 10**5
        least = list(range(limit + 1))  # least[m] is the least prime factor of m
        for p in range(2, math.isqrt(limit) + 1):
            if least[p] == p:
                for q in range(p * p, limit + 1, p):
                    if least[q] == q:
                        least[q] = p
        for m in range(1, limit + 1):
            want, rest = set(), m
            while rest > 1:
                want.add(least[rest])
                rest //= least[rest]
            assert partinv.gcd_symm._prime_factors(m) == want, m

    def test_large_primes_are_not_trial_divided(self):
        rng = random.Random(1)
        primes = set()
        while len(primes) < 30:
            candidate = rng.randrange(10**18, 10**19)
            if is_prime(candidate):
                primes.add(candidate)
        start = time.perf_counter()
        assert all(euler_phi(p) == p - 1 for p in primes)
        assert time.perf_counter() - start < 0.5


class TestIsPrime:
    def test_agrees_with_a_sieve_below_10_to_the_5(self):
        limit = 10**5
        sieve = [False, False] + [True] * (limit - 2)
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
        assert [m for m in range(-3, limit) if is_prime(m)] == [
            m for m in range(limit) if sieve[m]
        ]

    def test_strong_pseudoprime_to_bases_up_to_23(self):
        assert not is_prime(3825123056546413051)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**64 - 59)
        assert not is_prime((2**61 - 1) * (2**19 - 1))

    def test_refuses_psi_13_and_above(self):
        psi_13 = 3317044064679887385961981
        assert not is_prime(psi_13 - 1)
        with pytest.raises(BoundExceededError):
            is_prime(psi_13)
        with pytest.raises(BoundExceededError):
            is_prime(2**127 - 1)

    @pytest.mark.parametrize("m", [7.0, True, "7", 7.5])
    def test_refuses_what_is_not_an_int(self, m):
        with pytest.raises(InputError, match="needs an integer"):
            is_prime(m)
