"""Exact complex counts of symmetric-group factorizations.

The number of normalized complex polynomials of degree d with prescribed
ramification profiles over k fixed branch values equals the number N of
tuples (s_1, ..., s_k) of permutations with prescribed cycle types whose
product is a fixed d-cycle; the isomorphism-class weighted count is
H = N / d.  Full ramification over infinity makes every such tuple
transitive automatically, so no connectivity filter is needed.

N is given in closed form by the Goulden-Jackson cactus formula
(Goulden & Jackson, *The combinatorial relationship between trees, cacti
and certain connection coefficients for the symmetric group*, European J.
Combin. 1992): when the profile lengths sum to (k-1)d + 1,

    N = d^(k-1) * prod_i (len(lam_i) - 1)! / |Aut lam_i|,

where |Aut lam| is the product of the factorials of the part
multiplicities.  Counting is exact integer arithmetic; H is kept as a
Fraction whose denominator divides d.

The permutation helpers fix the labelling conventions: ``compose(a, b)`` is
a after b, and ``full_cycle(d)`` is the fixed cycle 0 -> 1 -> ... -> d-1 -> 0.
The closed form needs none of them; the brute-force factorization oracle in
the tests is built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .partitions import Partition

Perm = tuple[int, ...]


def full_cycle(d: int) -> Perm:
    """The cycle mapping 0 -> 1 -> ... -> d-1 -> 0."""
    return tuple((i + 1) % d for i in range(d))


def compose(a: Perm, b: Perm) -> Perm:
    """Function composition a after b."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(g: Perm, p: Perm) -> Perm:
    """g p g^-1, which relabels the symbols of p by g."""
    return compose(compose(g, p), inverse(g))


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def cycle_type(p: Perm) -> Partition:
    """Multiset of cycle lengths of p, as a partition of len(p)."""
    if not is_permutation(p):
        raise ValidationError(f"not a permutation: {p}")
    n = len(p)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return Partition(lengths)


@dataclass(frozen=True)
class HurwitzCount:
    """Exact factorization count N of the fixed full cycle, and H = N / d.

    ``visited`` is always 0: nothing is enumerated.
    """

    d: int
    profiles: tuple[Partition, ...]
    N: int
    H: Fraction
    visited: int

    def as_json_dict(self) -> dict:
        return {
            "d": self.d,
            "profiles": [list(p.parts) for p in self.profiles],
            "N": self.N,
            "H": str(self.H),
        }


def count_factorizations(profiles: Sequence[Partition]) -> HurwitzCount:
    """Count tuples of prescribed cycle types whose product is a fixed full cycle.

    Uses the Goulden-Jackson closed form (see the module docstring).  The
    count does not depend on the order of the profiles or on which full
    cycle is fixed.  At least one profile is required; every profile must
    partition the degree d of the first, and the profile lengths must sum
    to (k-1)d + 1.
    """
    profiles = tuple(profiles)
    if not profiles:
        raise ValidationError("at least one profile is required")
    d = profiles[0].d
    for lam in profiles:
        if lam.d != d:
            raise ValidationError(f"profile {lam} does not partition d={d}")
    k = len(profiles)
    total_len = sum(lam.length for lam in profiles)
    if total_len != (k - 1) * d + 1:
        raise ValidationError(
            f"profile lengths sum to {total_len}, expected (k-1)d+1 = {(k - 1) * d + 1}"
        )
    numerator = d ** (k - 1) * math.prod(math.factorial(lam.length - 1) for lam in profiles)
    aut = math.prod(
        math.factorial(m) for lam in profiles for m in lam.multiplicities().values()
    )
    n = numerator // aut  # exact: N is an integer by the theorem
    return HurwitzCount(d, profiles, n, Fraction(n, d), 0)
