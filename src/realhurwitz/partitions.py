"""Integer partitions and validated branch data for polynomial coverings.

A branched covering of the sphere by the sphere that is fully ramified over
infinity is described, away from infinity, by a list of ramification
profiles (one partition of the degree per finite branch value).  The data is
admissible exactly when the profile lengths satisfy

    sum(len(profile_i)) == (k - 1) * d + 1

for k branch values and degree d, which is the genus-zero count of critical
points.  This module owns the partition arithmetic, the parity statistics
used by the signed counts, and the canonicalization of branch data.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True, slots=True, repr=False)
class Partition:
    """An integer partition, stored with parts in non-increasing order.

    Parts are positive integers; a float, a bool or any other non-integer
    part raises ValidationError instead of being truncated, and so does an
    empty list of parts: every degree is positive.  ``d`` is the integer
    being partitioned (the sum of the parts) and ``length`` the number of
    parts.
    """

    parts: tuple[int, ...]
    d: int = field(init=False, compare=False)
    length: int = field(init=False, compare=False)

    def __post_init__(self):
        checked = []
        for p in self.parts:
            if isinstance(p, bool) or not isinstance(p, numbers.Integral):
                raise ValidationError(f"partition parts must be integers, got {p!r}")
            if p <= 0:
                raise ValidationError(f"partition parts must be positive, got {p}")
            checked.append(int(p))
        if not checked:
            raise ValidationError("a partition needs at least one part")
        object.__setattr__(self, "parts", tuple(sorted(checked, reverse=True)))
        object.__setattr__(self, "d", sum(checked))
        object.__setattr__(self, "length", len(checked))

    @property
    def is_trivial(self) -> bool:
        """True when every part equals 1 (imposes no ramification condition)."""
        return self.d == self.length

    def multiplicities(self) -> dict[int, int]:
        """Map each part value to the number of times it occurs."""
        return dict(Counter(self.parts))

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self.parts))})"

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of positive integers into a Partition.

    >>> parse_partition("1,3").parts
    (3, 1)
    """
    tokens = [t.strip() for t in text.split(",")]
    if not text.strip() or any(not t for t in tokens):
        raise ValidationError(f"malformed partition text {text!r}")
    parts = []
    for t in tokens:
        try:
            parts.append(int(t))
        except ValueError:
            raise ValidationError(f"malformed partition token {t!r}") from None
    return Partition(parts)


def parse_profiles(text: str) -> tuple[Partition, ...]:
    """Parse a pipe-separated list of partitions, e.g. ``"2,1|2,1"``."""
    chunks = text.split("|")
    if not text.strip():
        raise ValidationError("empty profile list")
    return tuple(parse_partition(chunk) for chunk in chunks)


def parse_values(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of real branch values."""
    tokens = [t.strip() for t in text.split(",")]
    if not text.strip() or any(not t for t in tokens):
        raise ValidationError(f"malformed value list {text!r}")
    values = []
    for t in tokens:
        try:
            v = float(t)
        except ValueError:
            raise ValidationError(f"malformed value token {t!r}") from None
        if not math.isfinite(v):
            raise ValidationError(f"branch values must be finite, got {t!r}")
        values.append(v)
    return tuple(values)


def o_count(lam: Partition) -> int:
    """Number of distinct part values occurring an odd number of times."""
    return sum(1 for m in Counter(lam.parts).values() if m % 2 == 1)


def floor_sum_parity(profiles: Sequence[Partition]) -> int:
    """Parity (0 even, 1 odd) of the sum over profiles of floor(o/2).

    This is the parity that decides whether the two normalized
    representatives of an even-degree covering class carry equal or opposite
    signs, and hence whether the signed class count can be nonzero.
    """
    return sum(o_count(lam) // 2 for lam in profiles) % 2


@dataclass(frozen=True, slots=True, repr=False)
class BranchSpec:
    """Canonical branch data: profiles attached to strictly increasing real values.

    Instances are expected to be canonical already (no trivial profiles,
    values sorted); use :func:`validate_branch_spec` to build one from raw
    input.  The degenerate identity covering (d = 1, no branch values) is
    representable with an empty profile tuple.
    """

    profiles: tuple[Partition, ...]
    values: tuple[float, ...]
    d: int

    def __post_init__(self):
        profiles = tuple(self.profiles)
        values = tuple(float(v) for v in self.values)
        d = self.d
        if len(profiles) != len(values):
            raise ValidationError("profiles and values must have equal length")
        if d < 1:
            raise ValidationError("degree must be at least 1")
        for lam in profiles:
            if lam.d != d:
                raise ValidationError(f"profile {lam} does not partition d={d}")
            if lam.is_trivial:
                raise ValidationError("canonical BranchSpec may not contain trivial profiles")
        if not all(math.isfinite(v) for v in values):
            raise ValidationError("branch values must be finite")
        for a, b in zip(values, values[1:]):
            if not a < b:
                raise ValidationError("branch values must be strictly increasing")
        if not profiles and d != 1:
            raise ValidationError(f"no ramification conditions left for degree {d} > 1")
        k = len(profiles)
        if profiles and sum(lam.length for lam in profiles) != (k - 1) * d + 1:
            raise ValidationError(
                f"profile lengths sum to {sum(lam.length for lam in profiles)}, "
                f"expected (k-1)d+1 = {(k - 1) * d + 1}"
            )
        # the length constraint with nontrivial profiles already forces k < d
        assert k < d or not profiles
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return len(self.profiles)

    @property
    def is_identity(self) -> bool:
        """True for the degree-1 covering with no branch conditions."""
        return not self.profiles

    def reversed_spec(self) -> "BranchSpec":
        """The spec with profiles reversed and values negated and reversed.

        For even degree this indexes the covering classes whose polynomial
        models have negative leading coefficient.
        """
        return BranchSpec(
            tuple(reversed(self.profiles)),
            tuple(-v for v in reversed(self.values)),
            self.d,
        )

    def permuted(self, order: Sequence[int]) -> "BranchSpec":
        """Reattach profiles to the same increasing values in a new order."""
        if sorted(order) != list(range(self.k)):
            raise ValidationError(f"not a permutation of range({self.k}): {order}")
        return BranchSpec(tuple(self.profiles[i] for i in order), self.values, self.d)

    def canonical_key(self) -> str:
        profs = "|".join(str(p) for p in self.profiles)
        vals = ",".join(repr(v) for v in self.values)
        return f"d{self.d}:{profs}@{vals}"

    def as_json_dict(self) -> dict:
        return {
            "d": self.d,
            "profiles": [list(p.parts) for p in self.profiles],
            "values": list(self.values),
        }

    def __repr__(self) -> str:
        return f"BranchSpec({self.canonical_key()})"


def validate_branch_spec(
    profiles: Sequence[Partition],
    values: Sequence[float] | None = None,
) -> BranchSpec:
    """Canonicalize raw branch data into a BranchSpec.

    The i-th profile is attached to the i-th value; pairs may arrive in any
    value order and are sorted by value.  Trivial profiles (all parts 1) are
    dropped together with their values since they impose no condition.  When
    values are omitted the defaults 1, 2, ..., k are used, which are generic
    for every system at desk scale.
    """
    profiles = tuple(profiles)
    if not profiles:
        raise ValidationError("at least one profile is required")
    d = profiles[0].d
    for lam in profiles:
        if lam.d != d:
            raise ValidationError(f"mixed degrees: {lam} does not partition d={d}")
    if values is None:
        values = tuple(float(i) for i in range(1, len(profiles) + 1))
    values = tuple(float(v) for v in values)
    if len(values) != len(profiles):
        raise ValidationError(
            f"{len(profiles)} profiles but {len(values)} branch values"
        )
    if len(set(values)) != len(values):
        raise ValidationError("branch values must be pairwise distinct")
    pairs = sorted(zip(values, profiles), key=lambda wv: wv[0])
    kept = [(w, lam) for (w, lam) in pairs if not lam.is_trivial]
    if not kept:
        if d == 1:
            return BranchSpec((), (), 1)
        raise ValidationError(
            f"all profiles are trivial; degree {d} > 1 needs at least one condition"
        )
    return BranchSpec(tuple(lam for _, lam in kept), tuple(w for w, _ in kept), d)


def partitions_of(d: int, *, include_trivial: bool = True) -> list[Partition]:
    """All partitions of d in deterministic (reverse lexicographic) order."""
    out: list[Partition] = []

    def rec(remaining: int, maximum: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(maximum, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(d, d, [])
    if not include_trivial:
        out = [lam for lam in out if not lam.is_trivial]
    return out
