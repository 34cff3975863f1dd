"""One-part tables of signed counts and their generating-series structure.

For a partition lam and m extra sheets, the one-part value at m is the
signed class count of the spec whose first profile is lam with m ones
appended and whose remaining profiles are simple (one transposition each);
the number of simple profiles, len(lam) + m - 1, is forced by the critical
point count, which ``BranchSpec`` checks.  The exponential
generating series of a table splits by degree parity, and each parity part
is expected to lie in the span of monomials q^a * tanh(q)^b (even degrees)
or sech(q) times such monomials (odd degrees).

The basis fit is a structure report, not a gate: desk-scale tables are
short, so underdetermined fits are flagged as structural only.  All series
arithmetic is exact rational so a residual of zero means zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .config import RunConfig
from .coverings import real_hurwitz
from .errors import PropertyFailure, ScaleExceeded, ValidationError
from .partitions import BranchSpec, Partition, validate_branch_spec

EVEN = "even"
ODD = "odd"


def one_part_spec(lam: Partition, m: int) -> BranchSpec:
    """Branch data for the one-part value: lam with m ones, plus simple profiles."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    d = lam.d + m
    first = Partition(tuple(lam.parts) + (1,) * m)
    # degree 1 forces lam = (1) and m = 0, so no simple profile is built there
    simple = Partition((2,) + (1,) * (d - 2)) if d >= 2 else None
    return validate_branch_spec((first,) + (simple,) * (lam.length + m - 1))


def h_value(lam: Partition, m: int, config: RunConfig | None = None) -> int:
    """One-part signed count for lam with m extra sheets; always an integer.

    A non-integral class count violates that invariant and raises
    PropertyFailure.  The degree-1 case (lam = (1), m = 0) is the identity
    covering and contributes 1 by convention.
    """
    config = config or RunConfig()
    d = lam.d + m
    if d > config.max_degree:
        raise ScaleExceeded(
            f"degree {d} exceeds the configured table bound {config.max_degree}"
        )
    spec = one_part_spec(lam, m)
    result = real_hurwitz(spec, config)
    if result.value.denominator != 1:
        raise PropertyFailure(f"non-integral one-part value {result.value} for {lam}, m={m}")
    return int(result.value)


@dataclass(frozen=True)
class SeriesTable:
    """Values m -> h for one partition, with per-entry degree parity flags."""

    lam: Partition
    entries: dict[int, int]
    parities: dict[int, str]  # parity of the degree |lam| + m
    conventions: dict[int, str]
    truncated_at: int | None

    def parity_entries(self, parity: str) -> dict[int, int]:
        return {m: h for m, h in self.entries.items() if self.parities[m] == parity}

    def as_json_dict(self) -> dict:
        rows = [
            {
                "m": m,
                "h": self.entries[m],
                "degree": self.lam.d + m,
                "degree_parity": self.parities[m],
                **({"convention": self.conventions[m]} if m in self.conventions else {}),
            }
            for m in sorted(self.entries)
        ]
        out = {"lambda": list(self.lam.parts), "entries": rows}
        if self.truncated_at is not None:
            out["truncated_at"] = self.truncated_at
        return out


def series_table(lam: Partition, m_max: int, config: RunConfig | None = None) -> SeriesTable:
    """Tabulate one-part values for m = 0..m_max.

    Stops at the first entry whose degree exceeds the configured bound and
    records the truncation point explicitly instead of guessing.
    """
    if m_max < 0:
        raise ValidationError("m_max must be nonnegative")
    config = config or RunConfig()
    entries: dict[int, int] = {}
    parities: dict[int, str] = {}
    conventions: dict[int, str] = {}
    truncated_at = None
    for m in range(m_max + 1):
        d = lam.d + m
        if d > config.max_degree:
            truncated_at = m
            break
        if d == 1:
            conventions[m] = "degree-1 identity covering counted as 1"
        entries[m] = h_value(lam, m, config)
        parities[m] = EVEN if d % 2 == 0 else ODD
    return SeriesTable(lam, entries, parities, conventions, truncated_at)


# --- exact rational power series ---------------------------------------------


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inverse(a: list[Fraction], order: int) -> list[Fraction]:
    assert a[0] == 1
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if j < len(a):
                acc += a[j] * out[n - j]
        out[n] = -acc
    return out


def cosh_series(order: int) -> list[Fraction]:
    return [
        Fraction(1, math.factorial(n)) if n % 2 == 0 else Fraction(0)
        for n in range(order + 1)
    ]


def sinh_series(order: int) -> list[Fraction]:
    return [
        Fraction(1, math.factorial(n)) if n % 2 == 1 else Fraction(0)
        for n in range(order + 1)
    ]


def tanh_series(order: int) -> list[Fraction]:
    return _series_mul(sinh_series(order), _series_inverse(cosh_series(order), order), order)


def sech_series(order: int) -> list[Fraction]:
    return _series_inverse(cosh_series(order), order)


def _basis_element(a: int, b: int, odd_part: bool, order: int) -> list[Fraction]:
    series = [Fraction(0)] * (order + 1)
    if a <= order:
        series[a] = Fraction(1)
    f = tanh_series(order)
    for _ in range(b):
        series = _series_mul(series, f, order)
    if odd_part:
        series = _series_mul(series, sech_series(order), order)
    return series


def _solve_exact_least_squares(columns: list[list[Fraction]], targets: list[Fraction]):
    """Minimize ||A c - t|| over the rationals via the normal equations.

    Rank-deficient directions get coefficient zero.  Returns the coefficient
    vector; exactness means a representable fit yields residual exactly 0.
    """
    n = len(columns)
    gram = [[sum(ca * cb for ca, cb in zip(columns[i], columns[j])) for j in range(n)] for i in range(n)]
    rhs = [sum(c * t for c, t in zip(columns[i], targets)) for i in range(n)]
    # Gaussian elimination with partial pivoting over Fraction
    aug = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = None
        for r in range(row, n):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pivots.append(col)
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[row])]
        row += 1
        if row == n:
            break
    coeffs = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][n]
    return coeffs


@dataclass(frozen=True)
class BasisFit:
    """Least-squares expansion of a parity part in the hyperbolic basis."""

    parity: str
    degree_bound: int
    labels: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    residual: Fraction
    orders: tuple[int, ...]
    structural_only: bool

    def as_json_dict(self) -> dict:
        return {
            "parity": self.parity,
            "degree_bound": self.degree_bound,
            "terms": {
                label: str(c)
                for label, c in zip(self.labels, self.coefficients)
                if c != 0
            },
            "residual": str(self.residual),
            "orders": list(self.orders),
            "structural_only": self.structural_only,
        }


def basis_fit(table: SeriesTable, parity: str, degree_bound: int) -> BasisFit:
    """Fit the parity part of the exponential generating series.

    Candidate basis: monomials q^a tanh(q)^b with a + b <= degree_bound for
    the even-degree part, the same monomials times sech(q) for the
    odd-degree part.  Only monomials whose q-parity matches the data can
    contribute and the rest are dropped.  A monomial is O(q^(a + b)), so
    one with a + b above the highest tabulated order vanishes on the data
    and would get coefficient 0: only a + b <= min(degree_bound, top order)
    is built, and ``BasisFit.labels`` does not list the vanishing ones.
    When the basis is at least as large as the data the fit is flagged
    structural only.
    """
    if parity not in (EVEN, ODD):
        raise ValidationError(f"parity must be {EVEN!r} or {ODD!r}")
    if degree_bound < 0:
        raise ValidationError(f"degree_bound must be nonnegative, got {degree_bound}")
    data = table.parity_entries(parity)
    if len(data) < 2:
        raise ValidationError(f"need at least 2 entries of parity {parity!r}, have {len(data)}")
    orders = sorted(data)
    top = orders[-1]
    targets = [Fraction(data[m], math.factorial(m)) for m in orders]
    odd_part = parity == ODD
    # q-parity of the data: all tabulated m share it because d = |lam| + m
    m_parity = orders[0] % 2
    assert all(m % 2 == m_parity for m in orders)
    labels = []
    columns = []
    bound = min(degree_bound, top)
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            series_parity = (a + b) % 2  # both q and tanh are odd; sech is even
            if series_parity != m_parity:
                continue
            series = _basis_element(a, b, odd_part, top)
            labels.append(("sech*" if odd_part else "") + f"q^{a}*tanh^{b}")
            columns.append([series[m] for m in orders])
    if not columns:
        raise ValidationError("no basis element matches the parity of the data")
    structural = len(columns) >= len(orders)
    coeffs = _solve_exact_least_squares(columns, targets)
    residual = Fraction(0)
    for row_idx in range(len(orders)):
        fitted = sum(c * col[row_idx] for c, col in zip(coeffs, columns))
        residual = max(residual, abs(fitted - targets[row_idx]))
    return BasisFit(
        parity=parity,
        degree_bound=degree_bound,
        labels=tuple(labels),
        coefficients=tuple(coeffs),
        residual=residual,
        orders=tuple(orders),
        structural_only=structural,
    )
