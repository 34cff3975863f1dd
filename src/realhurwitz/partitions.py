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
from typing import Iterable, Sequence

from .errors import ValidationError


class Partition:
    """An integer partition, stored with parts in non-increasing order.

    Parts are positive integers; a float, a bool or any other non-integer
    part raises ValidationError instead of being truncated.  The empty
    partition (of 0) is permitted; parsers never produce it.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        checked = []
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, numbers.Integral):
                raise ValidationError(f"partition parts must be integers, got {p!r}")
            if p <= 0:
                raise ValidationError(f"partition parts must be positive, got {p}")
            checked.append(int(p))
        self._parts = tuple(sorted(checked, reverse=True))

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def d(self) -> int:
        """The integer being partitioned (sum of parts)."""
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    @property
    def is_trivial(self) -> bool:
        """True when every part equals 1 (imposes no ramification condition)."""
        return all(p == 1 for p in self._parts)

    def multiplicities(self) -> dict[int, int]:
        """Map each part value to the number of times it occurs."""
        return dict(Counter(self._parts))

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(("Partition", self._parts))

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self._parts))})"

    def __str__(self) -> str:
        return ",".join(map(str, self._parts))


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
            v = int(t)
        except ValueError:
            raise ValidationError(f"malformed partition token {t!r}") from None
        if v <= 0:
            raise ValidationError(f"partition parts must be positive, got {v}")
        parts.append(v)
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


class BranchSpec:
    """Canonical branch data: profiles attached to strictly increasing real values.

    Instances are expected to be canonical already (no trivial profiles,
    values sorted); use :func:`validate_branch_spec` to build one from raw
    input.  The degenerate identity covering (d = 1, no branch values) is
    representable with an empty profile tuple.
    """

    __slots__ = ("_profiles", "_values", "_d")

    def __init__(self, profiles: Sequence[Partition], values: Sequence[float], d: int):
        profiles = tuple(profiles)
        values = tuple(float(v) for v in values)
        if len(profiles) != len(values):
            raise ValidationError("profiles and values must have equal length")
        if d < 1:
            raise ValidationError("degree must be at least 1")
        for lam in profiles:
            if lam.d != d:
                raise ValidationError(f"profile {lam} does not partition d={d}")
            if lam.is_trivial:
                raise ValidationError("canonical BranchSpec may not contain trivial profiles")
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
        self._profiles = profiles
        self._values = values
        self._d = d

    @property
    def profiles(self) -> tuple[Partition, ...]:
        return self._profiles

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    @property
    def d(self) -> int:
        return self._d

    @property
    def k(self) -> int:
        return len(self._profiles)

    @property
    def is_identity(self) -> bool:
        """True for the degree-1 covering with no branch conditions."""
        return not self._profiles

    def reversed_spec(self) -> "BranchSpec":
        """The spec with profiles reversed and values negated and reversed.

        For even degree this indexes the covering classes whose polynomial
        models have negative leading coefficient.
        """
        return BranchSpec(
            tuple(reversed(self._profiles)),
            tuple(-v for v in reversed(self._values)),
            self._d,
        )

    def permuted(self, order: Sequence[int]) -> "BranchSpec":
        """Reattach profiles to the same increasing values in a new order."""
        if sorted(order) != list(range(self.k)):
            raise ValidationError(f"not a permutation of range({self.k}): {order}")
        return BranchSpec(tuple(self._profiles[i] for i in order), self._values, self._d)

    def canonical_key(self) -> str:
        profs = "|".join(str(p) for p in self._profiles)
        vals = ",".join(repr(v) for v in self._values)
        return f"d{self._d}:{profs}@{vals}"

    def as_json_dict(self) -> dict:
        return {
            "d": self._d,
            "profiles": [list(p.parts) for p in self._profiles],
            "values": list(self._values),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, BranchSpec):
            return NotImplemented
        return (
            self._profiles == other._profiles
            and self._values == other._values
            and self._d == other._d
        )

    def __hash__(self) -> int:
        return hash((self._profiles, self._values, self._d))

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
    for v in values:
        if not math.isfinite(v):
            raise ValidationError("branch values must be finite")
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
