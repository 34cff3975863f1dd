"""Disorders, ordered pairs and signs of real normalized polynomials.

A real normalized polynomial carries, over each branch value, an ordered
sequence of real preimages with their ramification orders.  A pair of real
preimages x1 < x2 of the same value is a disorder when the order at x1 is
strictly larger, and an ordered pair when the order at x2 is strictly
larger; ties count for neither.  The sign of the polynomial is (-1)^t with
t the total disorder count, and the signed count over all real normalized
polynomials with the prescribed branch data is an invariant of the profiles
alone.

Counts here always come from the solver's root assignments as projected by
``polysolve._real_projection``, never from re-factoring the polynomial's
coefficients; that keeps the multiplicities exact by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .config import RunConfig
from .errors import ValidationError
from .partitions import Partition

# ordered (preimage, ramification order) pairs for one branch value
PreimageSeq = tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class RealPolynomial:
    """A real normalized polynomial together with its real preimage data.

    ``coefficients`` holds (a_2, ..., a_d) of  z^d + a_2 z^{d-2} + ... + a_d.
    ``real_preimages[i]`` lists the real roots of P - values[i] as (x, order)
    with x strictly increasing; ``nonreal_orders[i]`` lists the orders of the
    non-real roots, which come in conjugate pairs.
    """

    d: int
    coefficients: tuple[float, ...]
    profiles: tuple[Partition, ...]
    values: tuple[float, ...]
    real_preimages: tuple[PreimageSeq, ...]
    nonreal_orders: tuple[tuple[int, ...], ...]
    residual: float = 0.0

    def __post_init__(self):
        if len(self.coefficients) != max(self.d - 1, 0):
            raise ValidationError(
                f"degree {self.d} needs {max(self.d - 1, 0)} coefficients, "
                f"got {len(self.coefficients)}"
            )
        if not (len(self.profiles) == len(self.values) == len(self.real_preimages)
                == len(self.nonreal_orders)):
            raise ValidationError("per-branch data lengths disagree")
        for i, (seq, extra) in enumerate(zip(self.real_preimages, self.nonreal_orders)):
            total = sum(r for _, r in seq) + sum(extra)
            if total != self.d:
                raise ValidationError(
                    f"branch {i}: preimage orders sum to {total}, expected {self.d}"
                )
            if len(extra) % 2 != 0:
                raise ValidationError(f"branch {i}: non-real parts must pair up")
            for (x1, _), (x2, _) in zip(seq, seq[1:]):
                if not x1 < x2:
                    raise ValidationError(f"branch {i}: real preimages not increasing")

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def t(self) -> int:
        """Total disorder count over the branch values."""
        return sum(disorders_by_branch(self))

    @property
    def ord_count(self) -> int:
        """Total ordered-pair count over the branch values."""
        return sum(ordered_pairs_by_branch(self))

    @property
    def sign(self) -> int:
        """(-1) to the total disorder count."""
        return -1 if self.t % 2 else 1

    def reflected(self) -> "RealPolynomial":
        """The polynomial P(-z), which is normalized again when d is even.

        Coefficients of odd-degree monomials flip sign; each real preimage
        sequence is negated and reversed.
        """
        if self.d % 2 != 0:
            raise ValidationError("reflection preserves normalization only for even degree")
        coeffs = tuple(
            c if (self.d - j) % 2 == 0 else -c
            for j, c in zip(range(2, self.d + 1), self.coefficients)
        )
        pre = tuple(
            tuple((-x, r) for x, r in reversed(seq)) for seq in self.real_preimages
        )
        return RealPolynomial(
            d=self.d,
            coefficients=coeffs,
            profiles=self.profiles,
            values=self.values,
            real_preimages=pre,
            nonreal_orders=self.nonreal_orders,
            residual=self.residual,
        )

    def as_json_dict(self) -> dict:
        return {
            "coefficients": list(self.coefficients),
            "preimages": [[[x, r] for x, r in seq] for seq in self.real_preimages],
            "nonreal_orders": [list(e) for e in self.nonreal_orders],
            "t": self.t,
            "ord": self.ord_count,
            "sign": self.sign,
            "residual": self.residual,
        }


def _disorders(orders: list[int]) -> int:
    return sum(1 for a, b in itertools.combinations(orders, 2) if a > b)


def disorders_by_branch(poly: RealPolynomial) -> tuple[int, ...]:
    """Per-branch counts of pairs x1 < x2 with strictly larger order at x1."""
    return tuple(_disorders([r for _, r in seq]) for seq in poly.real_preimages)


def ordered_pairs_by_branch(poly: RealPolynomial) -> tuple[int, ...]:
    """Per-branch counts of pairs x1 < x2 with strictly larger order at x2."""
    return tuple(_disorders([r for _, r in reversed(seq)]) for seq in poly.real_preimages)


def signed_sum(reals: Sequence[RealPolynomial], config: RunConfig) -> int:
    """Sum of signs over the real normalized polynomials of a spec.

    The only reader of ``debug_corrupt_signs``, the negative control that
    flips one sign so the verification sweep must fail.
    """
    total = sum(p.sign for p in reals)
    if config.debug_corrupt_signs and reals:
        total -= 2 * reals[0].sign
    return total
