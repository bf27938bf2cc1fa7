import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partinv import (
    FieldSpec,
    InputError,
    Partition,
    Permutation,
    canonical_permutation,
    dimension,
    distinct_eigenvalue_count,
    enumerate_partitions,
    epsilon,
    g_vector,
    gcd_matrix,
    h_vector,
    is_semisimple,
    isomorphic,
    morita_equivalent,
    pair_orbits,
    wedderburn,
)
from partinv.oracles import _exact_rank
from util import (
    all_partitions,
    compose,
    cycle_type,
    inverse,
    mat_eq,
    mat_mul,
    permutation,
)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


class TestPermutation:
    def test_identity(self):
        e = permutation(4)
        assert e.images == (1, 2, 3, 4)
        assert cycle_type(e).parts == (1, 1, 1, 1)

    def test_not_a_bijection(self):
        # Images must be exactly ints: 2.0 and True compare equal to 2 and 1.
        for images in [(1, 1, 3), (2.0, 1.0), (2, True), (True,), (1, "2")]:
            with pytest.raises(InputError, match="not a bijection"):
                Permutation(images)

    def test_rejects_a_list(self):
        # A list would pass the bijection check but leave the value unhashable.
        with pytest.raises(InputError, match="images must be a tuple, got list"):
            Permutation([2, 1])

    def test_parse_cycles(self):
        sigma = permutation(5, (1, 2, 3), (4, 5))
        assert sigma.images == (2, 3, 1, 5, 4)
        assert cycle_type(sigma).parts == (3, 2)

    def test_parse_with_explicit_degree(self):
        sigma = permutation(4, (1, 2))
        assert sigma.images == (2, 1, 3, 4)
        assert cycle_type(sigma).parts == (2, 1, 1)

    def test_parse_identity_with_degree(self):
        assert permutation(3).images == (1, 2, 3)

    def test_composition_convention(self):
        sigma = permutation(3, (1, 2))
        tau = permutation(3, (2, 3))
        # left-to-right: 1 -> 2 under sigma, then 2 -> 3 under tau
        assert compose(sigma, tau)(1) == 3

    def test_inverse(self):
        rng = random.Random(7)
        for n in range(1, 9):
            sigma = random_permutation(rng, n)
            assert compose(sigma, inverse(sigma)) == permutation(n)

    def test_canonical_permutation_round_trip(self):
        for lam in all_partitions(10):
            assert cycle_type(canonical_permutation(lam)) == lam

    def test_full_cycle(self):
        sigma = canonical_permutation(Partition((6,)))
        assert cycle_type(sigma).parts == (6,)


class TestPairOrbits:
    def test_four_one(self):
        sigma = canonical_permutation(Partition((4, 1)))
        assert pair_orbits(sigma).count == 7

    def test_full_cycle(self):
        for n in range(1, 9):
            sigma = canonical_permutation(Partition((n,)))
            assert pair_orbits(sigma).count == n

    def test_two_two(self):
        sigma = canonical_permutation(Partition((2, 2)))
        assert pair_orbits(sigma).count == 8

    def test_ids_invariant_under_action(self):
        rng = random.Random(17)
        for n in range(2, 9):
            sigma = random_permutation(rng, n)
            orbits = pair_orbits(sigma)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert (
                        orbits.ids[i - 1][j - 1]
                        == orbits.ids[sigma(i) - 1][sigma(j) - 1]
                    )

    def test_count_equals_gcd_total_over_cycle_types(self):
        for lam in all_partitions(9):
            sigma = canonical_permutation(lam)
            assert pair_orbits(sigma).count == sum(map(sum, gcd_matrix(lam)))

    def test_invariant_under_conjugation_and_inverse(self):
        rng = random.Random(19)
        for n in range(2, 9):
            sigma = random_permutation(rng, n)
            tau = random_permutation(rng, n)
            conjugated = compose(compose(tau, sigma), inverse(tau))
            assert pair_orbits(conjugated).count == pair_orbits(sigma).count
            assert pair_orbits(inverse(sigma)).count == pair_orbits(sigma).count


def orbit_indicators(sigma):
    """The 0/1 indicator matrix of each pair orbit, read off the orbit ids."""
    orbits = pair_orbits(sigma)
    return [
        tuple(tuple(int(k == cell) for cell in row) for row in orbits.ids)
        for k in range(orbits.count)
    ]


class TestOrbitBasis:
    """The orbit indicators span the fixed algebra."""

    def test_identity_on_two_points(self):
        basis = orbit_indicators(permutation(2))
        assert len(basis) == 4
        units = {
            ((1, 0), (0, 0)),
            ((0, 1), (0, 0)),
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1)),
        }
        assert set(basis) == units

    def test_transposition(self):
        basis = orbit_indicators(permutation(2, (1, 2)))
        assert set(basis) == {((1, 0), (0, 1)), ((0, 1), (1, 0))}

    def test_counts_and_commutation(self):
        for lam in all_partitions(8):
            sigma = canonical_permutation(lam)
            basis = orbit_indicators(sigma)
            assert len(set(basis)) == pair_orbits(sigma).count
            c = [[int(sigma(i + 1) == j + 1) for j in range(sigma.n)] for i in range(sigma.n)]
            for m in basis:
                rows = [list(r) for r in m]
                assert mat_eq(mat_mul(rows, c), mat_mul(c, rows))
            # closed under transpose
            matrices = set(basis)
            for m in basis:
                assert tuple(zip(*m)) in matrices
            # disjoint supports make the basis independent; together they
            # cover every cell exactly once
            cover = [[0] * sigma.n for _ in range(sigma.n)]
            for m in basis:
                for i in range(sigma.n):
                    for j in range(sigma.n):
                        cover[i][j] += m[i][j]
            assert all(v == 1 for row in cover for v in row)


class TestDimension:
    @pytest.mark.parametrize("parts,dim", [((4, 2, 2), 20), ((9,), 9), ((2, 2), 8)])
    def test_fixtures(self, parts, dim):
        assert dimension(Partition(parts)) == dim

    def test_equals_gcd_matrix_total(self):
        for lam in all_partitions(16):
            assert dimension(lam) == sum(map(sum, gcd_matrix(lam)))

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40))
    def test_equals_gcd_matrix_total_on_random_parts(self, parts):
        lam = Partition.of(*parts)
        total = sum(map(sum, gcd_matrix(lam)))
        assert dimension(lam) == total

    def test_equal_parts_give_square_times_part(self):
        for a in range(1, 6):
            for s in range(1, 5):
                assert dimension(Partition((a,) * s)) == s * s * a


class TestFieldAndSemisimplicity:
    def test_field_validation(self):
        FieldSpec(0)
        FieldSpec(2)
        FieldSpec(97)
        # The characteristic must be exactly an int: 2.0 and False compare
        # equal to 2 and 0.
        for p in [4, -3, 1, 2.0, 5.5, 0.0, False, True, "3"]:
            with pytest.raises(InputError, match="characteristic must be 0 or prime"):
                FieldSpec(p)

    def test_semisimple(self):
        assert not is_semisimple(Partition((4, 2)), FieldSpec(2))
        assert is_semisimple(Partition((4, 2)), FieldSpec(3))
        assert is_semisimple(Partition((4, 2)), FieldSpec(0))


class TestWedderburn:
    def test_four_one(self):
        shape = wedderburn(Partition((4, 1)), FieldSpec())
        assert shape.multiplicities == (3, 1)
        assert shape.as_dict() == {1: 3, 2: 1}
        assert shape.describe() == "R^3 x M_2(R)"

    def test_eight_two_one(self):
        shape = wedderburn(Partition((8, 2, 1)), FieldSpec())
        assert shape.as_dict() == {1: 6, 2: 1, 3: 1}

    def test_full_cycle(self):
        shape = wedderburn(Partition((9,)), FieldSpec())
        assert shape.multiplicities == (9,)

    def test_requires_semisimple(self):
        with pytest.raises(InputError, match="not semisimple"):
            wedderburn(Partition((4, 2)), FieldSpec(2))

    def test_shape_invariants(self):
        for lam in all_partitions(14):
            shape = wedderburn(lam, FieldSpec())
            assert shape.n == lam.n
            squares = sum(i * i * h for i, h in shape.as_dict().items())
            assert squares == sum(map(sum, gcd_matrix(lam)))
            assert shape.multiplicities[-1] >= 1

    def test_shape_in_odd_characteristic(self):
        shape = wedderburn(Partition((4, 2)), FieldSpec(3))
        assert shape.multiplicities == (2, 2)


class TestIsomorphism:
    def test_five_with_two_parts(self):
        assert isomorphic(Partition((4, 1)), Partition((3, 2)), FieldSpec())

    def test_equal_polynomial_but_different_degree(self):
        assert not isomorphic(Partition((4, 2, 2)), Partition((2, 1, 1)), FieldSpec())

    def test_38_example(self):
        assert isomorphic(
            Partition((17, 11, 8, 2)), Partition((17, 11, 6, 4)), FieldSpec()
        )

    def test_matches_shape_equality(self):
        for n in range(2, 13):
            for s in range(1, n + 1):
                pool = list(enumerate_partitions(s, n))
                for i, lam in enumerate(pool):
                    for mu in pool[i + 1 :]:
                        same_shape = (
                            wedderburn(lam, FieldSpec()).multiplicities
                            == wedderburn(mu, FieldSpec()).multiplicities
                        )
                        assert isomorphic(lam, mu, FieldSpec()) == same_shape
        # The paper's criterion, across tables: equal n and equal polynomial.
        pool = list(all_partitions(10))
        assert len(pool) == 138
        for lam in pool:
            for mu in pool:
                paper = lam.n == mu.n and epsilon(lam) == epsilon(mu)
                assert isomorphic(lam, mu, FieldSpec()) == paper, (lam, mu)

    def test_precondition_errors(self):
        with pytest.raises(InputError):
            isomorphic(Partition((4, 2)), Partition((3, 3)), FieldSpec(2))


class TestMorita:
    def test_isomorphic_pairs_are_equivalent(self):
        result = morita_equivalent(Partition((4, 1)), Partition((3, 2)), FieldSpec())
        assert result.equivalent
        assert result.blocks == (4, 4)

    def test_across_degrees_with_signs(self):
        result = morita_equivalent(Partition((4, 1)), Partition((4,)), FieldSpec())
        assert result.equivalent
        assert result.blocks == (4, 4)
        assert result.signed_values == (-4, 4)

    def test_negative_case(self):
        result = morita_equivalent(Partition((2, 1)), Partition((1, 1)), FieldSpec())
        assert not result.equivalent
        assert result.blocks == (2, 1)

    def test_result_is_truthy(self):
        assert morita_equivalent(Partition((4, 1)), Partition((4,)), FieldSpec())
        assert not morita_equivalent(Partition((2, 1)), Partition((1, 1)), FieldSpec())

    def test_signed_value_is_gcd_times_epsilon_at_one(self):
        # The paper's d·ε(1), with d from the parts and not from g.
        for lam in all_partitions(12):
            signed = morita_equivalent(lam, lam, FieldSpec()).signed_values[0]
            assert signed == math.gcd(*lam.parts) * epsilon(lam)(1)

    def test_isomorphic_implies_morita(self):
        field = FieldSpec()
        for n in range(2, 15):
            for s in range(1, n + 1):
                pool = list(enumerate_partitions(s, n))
                for i, lam in enumerate(pool):
                    for mu in pool[i + 1 :]:
                        if isomorphic(lam, mu, field):
                            assert morita_equivalent(lam, mu, field).equivalent


def _phi(e):
    return sum(1 for k in range(1, e + 1) if math.gcd(k, e) == 1)


@functools.cache
def _mobius(k):
    return 1 if k == 1 else -sum(_mobius(d) for d in range(1, k) if k % d == 0)


def _block_counts_from_eigenspaces(lam):
    """h read off the permutation matrix C: N(d) = nullity(C^d - I) is the sum
    over e | d of phi(e) * m(e), m(e) the multiplicity of each primitive e-th
    root; Mobius inversion gives m, and h_i sums phi(e) over the e with m(e) = i."""
    sigma = canonical_permutation(lam)
    power = list(range(1, lam.n + 1))  # power[i-1] = sigma^d(i)
    nullity = {}
    for d in range(1, max(lam.parts) + 1):
        power = [sigma(i) for i in power]
        rows = [{i: -1, j: 1} for i, j in enumerate(power, start=1) if i != j]
        nullity[d] = lam.n - _exact_rank(rows)
    h = [0] * lam.s
    for e in nullity:
        inverted = sum(_mobius(e // d) * nullity[d] for d in nullity if e % d == 0)
        multiplicity, rest = divmod(inverted, _phi(e))
        assert rest == 0
        if multiplicity:
            h[multiplicity - 1] += _phi(e)
    return tuple(h)


def _centre_dimension(lam):
    """r - rank of the system X·B_j = B_j·X in X = sum of x_k B_k over the r
    pair-orbit indicators B_k: one sparse row per orbit j and cell (a, b)."""
    orbits = pair_orbits(canonical_permutation(lam))
    ids, n = orbits.ids, lam.n
    rows = []
    for j in range(orbits.count):
        for a in range(n):
            for b in range(n):
                row = {}
                for c in range(n):
                    if ids[c][b] == j:
                        row[ids[a][c]] = row.get(ids[a][c], 0) + 1
                    if ids[a][c] == j:
                        row[ids[c][b]] = row.get(ids[c][b], 0) - 1
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return orbits.count - _exact_rank(rows)


class TestAlgebraOracles:
    """The block data read off the algebra itself, with no gcd reasoning."""

    def test_eigenspace_multiplicities_give_h(self):
        for lam in all_partitions(16):
            assert _block_counts_from_eigenspaces(lam) == lam.h

    def test_centre_dimension_is_the_block_count(self):
        # Over a closed field the centre of a semisimple algebra has one
        # dimension per simple block, so this decides Morita equivalence.
        for lam in all_partitions(10):
            assert _centre_dimension(lam) == distinct_eigenvalue_count(lam)


def _pairwise_coprime(lam):
    import math

    return all(
        math.gcd(a, b) == 1
        for i, a in enumerate(lam.parts)
        for b in lam.parts[i + 1 :]
    )


class TestCoprimeParts:
    def test_decisions_reduce_to_degree_and_part_count(self):
        field = FieldSpec()
        pool = [lam for lam in all_partitions(10) if _pairwise_coprime(lam)]
        for lam in pool:
            for mu in pool:
                iso = isomorphic(lam, mu, field)
                assert iso == (lam.n == mu.n and lam.s == mu.s)
                morita = morita_equivalent(lam, mu, field).equivalent
                assert morita == (lam.n - lam.s == mu.n - mu.s)
