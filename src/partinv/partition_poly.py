"""The characteristic polynomial of a partition and its equivalence relation.

Every partition gets a monic integer polynomial of degree s-1 whose
coefficients are the normalized gcd-symmetric values g_{i+1}/g_s with
alternating signs.  Two partitions are equivalent when the polynomials
coincide; within a fixed (s, n) this is the same as having equal g-vectors.

A partition derives its polynomial once, on first read of
:attr:`Partition.polynomial`, from its g-vector; the functions here read it
there.
"""

from __future__ import annotations

from ._record import Record
from .errors import ConsistencyError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .partitions import Partition


class PartitionPolynomial(Record):
    """Integer polynomial, coefficients stored low degree first."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        self.__dict__["coefficients"] = coefficients

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


def _polynomial(g: tuple[int, ...]) -> PartitionPolynomial:
    s, g_last = len(g), g[-1]
    coefficients = []
    for i, g_i in enumerate(g):
        quotient = g_i // g_last  # exact: _g_from_h checks that g_s divides every g_i
        coefficients.append(-quotient if (s - 1 - i) % 2 else quotient)
    return PartitionPolynomial(tuple(coefficients))


def epsilon(lam: Partition) -> PartitionPolynomial:
    """The partition's polynomial: coefficient of x^i is (-1)^(s-1-i) g_{i+1}/g_s.

    g_s divides every g_i, so the coefficients are exact integers; a
    g-vector for which that fails is refused where it is derived.
    """
    return lam.polynomial


def equivalent(lam: Partition, mu: Partition) -> bool:
    """Whether the two partitions have identical polynomials.

    Defined for any pair; distinct part counts give distinct degrees and thus
    inequivalence.  Partitions of different totals may well be equivalent;
    the algebra-isomorphism decision separately requires equal totals.
    """
    return epsilon(lam) == epsilon(mu)


def distinct_eigenvalue_count(lam: Partition) -> int:
    """Number of distinct roots of unity among all parts' root groups.

    Computed as sum(h_i), which is also the number of simple blocks of the
    fixed algebra; must be positive, and equals both the alternating g-sum
    (-1)^(s-1) * g_s * value-at-1 of the polynomial and the literal size of
    the union of the root-of-unity sets (checked by the oracle suite).
    """
    value = sum(lam.h)
    if value <= 0:
        raise ConsistencyError(f"eigenvalue count must be positive, got {value} for {lam}")
    return value
