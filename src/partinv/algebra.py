"""Permutations, pair orbits, and the matrix algebra fixed by a permutation.

The matrices commuting with a permutation matrix are exactly those constant
on the orbits of index pairs under the cyclic group the permutation
generates.  Their count, the algebra dimension, and, over an algebraically
closed field in good characteristic, the full block decomposition are all
determined by the cycle type, through the gcd-symmetric invariants.
"""

from __future__ import annotations

from ._record import Record
from .errors import ConsistencyError, InputError
from .gcd_symm import is_prime
from .partition_poly import distinct_eigenvalue_count
from .partitions import Partition


class Permutation(Record):
    """A bijection of {1, ..., n}; ``images[i-1]`` is the image of i."""

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        if type(images) is not tuple:
            raise InputError(f"images must be a tuple, got {type(images).__name__}")
        n = len(images)
        if n == 0:
            raise InputError("a permutation needs degree at least 1")
        exact = all(type(image) is int for image in images)
        if not exact or sorted(images) != list(range(1, n + 1)):
            raise InputError(f"images are not a bijection of 1..{n}: {images}")
        self.__dict__["images"] = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]


def canonical_permutation(lam: Partition) -> Permutation:
    """The permutation with consecutive cycles (1..l1)(l1+1..l1+l2)..."""
    images = []
    offset = 0
    for length in lam.parts:
        images.extend(range(offset + 2, offset + length + 1))
        images.append(offset + 1)
        offset += length
    return Permutation(tuple(images))


class OrbitDecomposition(Record):
    """Orbit ids of index pairs under (i, j) -> (sigma(i), sigma(j)).

    ``ids[i][j]`` (0-based cell) is the orbit id of the pair (i+1, j+1); ids
    are assigned in row-major first-encounter order, so the labelling is
    deterministic.
    """

    ids: tuple[tuple[int, ...], ...]
    count: int


def pair_orbits(sigma: Permutation) -> OrbitDecomposition:
    """Walk every index pair along the diagonal action and label orbits."""
    n = sigma.n
    ids = [[-1] * n for _ in range(n)]
    count = 0
    for i in range(n):
        for j in range(n):
            if ids[i][j] >= 0:
                continue
            a, b = i, j
            while ids[a][b] < 0:
                ids[a][b] = count
                a, b = sigma(a + 1) - 1, sigma(b + 1) - 1
            count += 1
    return OrbitDecomposition(ids=tuple(tuple(row) for row in ids), count=count)


def dimension(lam: Partition) -> int:
    """Rank of the fixed algebra, sum of i^2 h_i over the h-vector.

    Over a closed field the algebra is the product of h_i copies of the
    i-by-i matrix ring, and its rank, the number of pair orbits (the
    gcd-matrix total), does not depend on the field.
    """
    return sum(i * i * h for i, h in enumerate(lam.h, start=1))


class FieldSpec(Record):
    """The ground field: algebraically closed, of characteristic 0 or a prime."""

    characteristic: int

    def __init__(self, characteristic: int = 0) -> None:
        p = characteristic
        if type(p) is not int or (p != 0 and not is_prime(p)):
            raise InputError(f"characteristic must be 0 or prime, got {p!r}")
        self.__dict__["characteristic"] = p


def is_semisimple(lam: Partition, field: FieldSpec) -> bool:
    """True unless the characteristic divides some part."""
    p = field.characteristic
    return p == 0 or all(part % p for part in lam.parts)


class WedderburnShape(Record):
    """Block structure of the semisimple algebra: ``multiplicities[i-1]``
    copies of the i-by-i matrix ring, i = 1..s."""

    multiplicities: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(i * h for i, h in enumerate(self.multiplicities, start=1))

    def as_dict(self) -> dict[int, int]:
        return {i: h for i, h in enumerate(self.multiplicities, start=1)}

    def describe(self) -> str:
        pieces = []
        for i, h in enumerate(self.multiplicities, start=1):
            if h == 0:
                continue
            base = "R" if i == 1 else f"M_{i}(R)"
            pieces.append(base if h == 1 else f"{base}^{h}")
        return " x ".join(pieces)


def not_semisimple_message(lam: Partition, field: FieldSpec) -> str:
    """Human-readable reason, e.g. ``not semisimple (2 divides 4 and 2)``."""
    p = field.characteristic
    bad = [str(part) for part in lam.parts if p and part % p == 0]
    if len(bad) <= 2:
        listing = " and ".join(bad)
    else:
        listing = ", ".join(bad[:-1]) + " and " + bad[-1]
    return f"not semisimple ({p} divides {listing})"


def _require_semisimple(lam: Partition, field: FieldSpec) -> None:
    if not is_semisimple(lam, field):
        raise InputError(
            f"{not_semisimple_message(lam, field)} at characteristic {field.characteristic}"
        )


def wedderburn(lam: Partition, field: FieldSpec) -> WedderburnShape:
    """Block multiplicities of the fixed algebra; they are the h-vector."""
    shape = WedderburnShape(multiplicities=lam.h)
    _require_semisimple(lam, field)
    if shape.n != lam.n:
        raise ConsistencyError(f"block sizes sum to {shape.n}, expected {lam.n}")
    if shape.multiplicities[-1] < 1:
        raise ConsistencyError(f"largest block multiplicity vanished for {lam}")
    return shape


def isomorphic(lam: Partition, mu: Partition, field: FieldSpec) -> bool:
    """Whether the two fixed algebras are isomorphic: equal h-vectors.

    Each algebra is the product of h_i copies of the i-by-i matrix ring, so
    it is fixed by h, and equal h is the paper's criterion, equal n and
    equal polynomial.  Both sides derive h before the field is checked, so
    a refused gcd-closure is reported ahead of a characteristic that
    divides a part.
    """
    lam.h, mu.h
    _require_semisimple(lam, field)
    _require_semisimple(mu, field)
    return lam.h == mu.h


class MoritaResult(Record):
    """Verdict plus the witnessing numbers for both sides.

    ``blocks`` are the simple-factor counts (their equality is the
    criterion); ``signed_values`` are the paper's gcd(parts)·ε(1), which
    is the block count signed by (-1)^(s-1); reported for inspection, not
    used for the decision.
    """

    equivalent: bool
    blocks: tuple[int, int]
    signed_values: tuple[int, int]

    def __bool__(self) -> bool:
        return self.equivalent


def morita_equivalent(lam: Partition, mu: Partition, field: FieldSpec) -> MoritaResult:
    """Morita equivalence: equal numbers of simple blocks.

    Two semisimple algebras over an algebraically closed field are Morita
    equivalent exactly when their multiplicity-free companions coincide,
    i.e. when they have the same number of simple factors.  As in
    :func:`isomorphic`, both sides are derived before the field is checked.
    """
    blocks = (distinct_eigenvalue_count(lam), distinct_eigenvalue_count(mu))
    _require_semisimple(lam, field)
    _require_semisimple(mu, field)
    # d·ε(1) = (-1)^(s-1)·(block count), the identity the README states.
    signed = tuple(b if side.s % 2 else -b for b, side in zip(blocks, (lam, mu)))
    return MoritaResult(
        equivalent=blocks[0] == blocks[1], blocks=blocks, signed_values=signed
    )
