"""The characteristic polynomial of a partition and its equivalence relation.

Every partition gets a monic integer polynomial of degree s-1 whose
coefficients are the normalized gcd-symmetric values g_{i+1}/g_s with
alternating signs.  Two partitions are equivalent when the polynomials
coincide; within a fixed (s, n) this is the same as having equal g-vectors.

:class:`Invariants` holds a partition's h-vector, derived from its
gcd-closure; the g-vector and the polynomial are derived from h on first
read and kept.  Every function here and in :mod:`partinv.algebra` that needs
them takes either a partition or that record, so a caller that asks several
questions about one partition builds the record once and passes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyError
from .gcd_symm import GVector, HVector, _closure_h, _g_from_h
from .partitions import Partition


@dataclass(frozen=True)
class PartitionPolynomial:
    """Integer polynomial, coefficients stored low degree first."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        # Horner, exact integers.
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0 and self.degree > 0:
                continue
            magnitude = abs(c)
            if k == 0:
                body = str(magnitude)
            else:
                head = "" if magnitude == 1 else str(magnitude)
                body = f"{head}x" if k == 1 else f"{head}x^{k}"
            if not terms:
                terms.append(body if c >= 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c >= 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def _polynomial(g: GVector) -> PartitionPolynomial:
    values = g.values
    s, g_last = len(values), values[-1]
    coefficients = []
    for i, g_i in enumerate(values):
        quotient = g_i // g_last  # exact: GVector checks that g_s divides every g_i
        coefficients.append(-quotient if (s - 1 - i) % 2 else quotient)
    return PartitionPolynomial(tuple(coefficients))


@dataclass(frozen=True)
class Invariants:
    """One partition's h-vector; g and the polynomial are derived from it on first read."""

    partition: Partition
    h: HVector

    @cached_property
    def g(self) -> GVector:
        return GVector(_g_from_h(self.h.values))

    @cached_property
    def polynomial(self) -> PartitionPolynomial:
        return _polynomial(self.g)


def invariants(lam: Partition | Invariants) -> Invariants:
    """The record of ``lam``, derived from its gcd-closure; a record is returned as is."""
    if isinstance(lam, Invariants):
        return lam
    return Invariants(partition=lam, h=HVector(_closure_h(lam.parts)))


def epsilon(lam: Partition | Invariants) -> PartitionPolynomial:
    """The partition's polynomial: coefficient of x^i is (-1)^(s-1-i) g_{i+1}/g_s.

    g_s divides every g_i, so the coefficients are exact integers; a
    g-vector for which that fails is refused when it is built.
    """
    return invariants(lam).polynomial


def equivalent(lam: Partition | Invariants, mu: Partition | Invariants) -> bool:
    """Whether the two partitions have identical polynomials.

    Defined for any pair; distinct part counts give distinct degrees and thus
    inequivalence.  Partitions of different totals may well be equivalent;
    the algebra-isomorphism decision separately requires equal totals.
    """
    return epsilon(lam) == epsilon(mu)


def distinct_eigenvalue_count(lam: Partition | Invariants) -> int:
    """Number of distinct roots of unity among all parts' root groups.

    Computed as sum(h_i), which is also the number of simple blocks of the
    fixed algebra; must be positive, and equals both the alternating g-sum
    (-1)^(s-1) * g_s * value-at-1 of the polynomial and the literal size of
    the union of the root-of-unity sets (checked by the oracle suite).
    """
    record = invariants(lam)
    value = sum(record.h.values)
    if value <= 0:
        raise ConsistencyError(
            f"eigenvalue count must be positive, got {value} for {record.partition}"
        )
    return value
