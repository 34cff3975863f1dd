import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

from realhurwitz import (
    Partition,
    PropertyFailure,
    ScaleExceeded,
    ValidationError,
    basis_fit,
    h_value,
    one_part_spec,
    parse_partition,
    series_table,
)
from realhurwitz import series
from realhurwitz.cli import EXIT_PROPERTY, main
from realhurwitz.series import SeriesTable, sech_series, tanh_series


def test_one_part_spec_construction():
    spec = one_part_spec(parse_partition("1"), 2)
    assert spec.d == 3
    assert spec.profiles == (Partition([2, 1]), Partition([2, 1]))

    spec = one_part_spec(parse_partition("2"), 0)
    assert spec.profiles == (Partition([2]),)

    spec = one_part_spec(parse_partition("1"), 0)
    assert spec.is_identity

    spec = one_part_spec(parse_partition("3,1"), 1)
    assert spec.d == 5
    assert spec.profiles[0] == Partition([3, 1, 1])
    # simple profile count is len(lam) + m - 1 = 2, forced by the critical point budget
    assert sum(1 for p in spec.profiles if p == Partition([2, 1, 1, 1])) == 2
    assert sum(p.length for p in spec.profiles) == (spec.k - 1) * spec.d + 1


def test_h_values(cfg):
    lam = parse_partition("1")
    assert h_value(lam, 0, cfg) == 1
    assert h_value(lam, 1, cfg) == 1
    assert h_value(lam, 2, cfg) == -1
    assert h_value(parse_partition("2"), 0, cfg) == 1
    assert h_value(parse_partition("3"), 0, cfg) == 1


def test_h_parity_short_circuit_agrees_with_full_computation(cfg):
    # (3,1) with one simple profile sits in the parity-odd branch
    lam = parse_partition("3,1")
    assert h_value(lam, 0, cfg) == 0
    diag = cfg.replace(force_class_diagnostics=True)
    assert h_value(lam, 0, diag) == 0


def test_h_scale_bound(cfg):
    with pytest.raises(ScaleExceeded):
        h_value(parse_partition("1"), 9, cfg)


def test_non_integral_h_is_a_property_failure(cfg, monkeypatch, capsys):
    # a half-integral one-part value violates an invariant; the input is fine
    monkeypatch.setattr(
        series, "real_hurwitz", lambda spec, config: SimpleNamespace(value=Fraction(1, 2))
    )
    with pytest.raises(PropertyFailure, match="non-integral one-part value 1/2"):
        h_value(parse_partition("2"), 0, cfg)
    assert main(["series", "--lambda", "2", "--mmax", "1"]) == EXIT_PROPERTY
    assert "non-integral one-part value" in capsys.readouterr().err


def test_series_table(cfg):
    table = series_table(parse_partition("1"), 2, cfg)
    assert table.entries == {0: 1, 1: 1, 2: -1}
    assert table.parities == {0: "odd", 1: "even", 2: "odd"}
    assert 0 in table.conventions
    assert table.truncated_at is None

    table = series_table(parse_partition("2"), 0, cfg)
    assert table.entries == {0: 1}
    table = series_table(parse_partition("3"), 0, cfg)
    assert table.entries == {0: 1}


def test_series_table_truncation(cfg):
    small = cfg.replace(max_degree=3)
    table = series_table(parse_partition("1"), 5, small)
    assert table.truncated_at == 3
    assert set(table.entries) == {0, 1, 2}


def test_table_entries_are_integers(cfg):
    table = series_table(parse_partition("1"), 3, cfg)
    assert all(isinstance(h, int) for h in table.entries.values())


def test_table_values_independent_of_seed(cfg):
    baseline = series_table(parse_partition("1"), 2, cfg)
    reseeded = series_table(parse_partition("1"), 2, cfg.replace(seed=1234))
    assert baseline.entries == reseeded.entries


def test_tanh_and_sech_series_against_mpmath():
    order = 9
    mp_tanh = mpmath.taylor(mpmath.tanh, 0, order)
    mp_sech = mpmath.taylor(mpmath.sech, 0, order)
    for mine, reference in ((tanh_series(order), mp_tanh), (sech_series(order), mp_sech)):
        for c, r in zip(mine, reference):
            assert abs(float(c) - float(r)) < 1e-12


def test_tanh_series_known_values():
    coeffs = tanh_series(7)
    assert coeffs[1] == 1
    assert coeffs[3] == Fraction(-1, 3)
    assert coeffs[5] == Fraction(2, 15)
    assert coeffs[7] == Fraction(-17, 315)


def test_basis_fit_odd_part_of_unit_partition(cfg):
    table = series_table(parse_partition("1"), 2, cfg)
    fit = basis_fit(table, "odd", 0)
    assert fit.residual == 0
    assert not fit.structural_only
    # the only matching basis element is sech itself, with coefficient 1
    assert dict(zip(fit.labels, fit.coefficients)) == {"sech*q^0*tanh^0": Fraction(1)}


def test_basis_fit_without_a_matching_element_is_empty(cfg):
    # at bound 0 the even part (m = 1, 3) has no element of its odd
    # q-parity: its fit is empty, with residual max |h_m / m!|, and the odd
    # fit beside it is kept
    table = series_table(parse_partition("1"), 4, cfg)
    even = basis_fit(table, "even", 0)
    assert even.labels == () and even.coefficients == () and not even.structural_only
    assert even.residual == max(abs(Fraction(table.entries[m], math.factorial(m))) for m in (1, 3))
    assert even.residual == 1
    odd = basis_fit(table, "odd", 0)
    assert dict(zip(odd.labels, odd.coefficients)) == {"sech*q^0*tanh^0": Fraction(1)}
    assert odd.residual == 0


def test_basis_fit_constant_table():
    table = SeriesTable(
        lam=Partition([2]),
        entries={0: 5, 2: 0, 4: 0},
        parities={0: "even", 2: "even", 4: "even"},
        conventions={},
        truncated_at=None,
    )
    fit = basis_fit(table, "even", 0)
    assert fit.residual == 0
    assert fit.coefficients == (Fraction(5),)


def test_basis_fit_flags_corrupted_entry(cfg):
    table = series_table(parse_partition("1"), 2, cfg)
    corrupted = SeriesTable(
        lam=table.lam,
        entries={**table.entries, 2: table.entries[2] + 1},
        parities=table.parities,
        conventions=table.conventions,
        truncated_at=None,
    )
    fit = basis_fit(corrupted, "odd", 0)
    assert fit.residual > 0


def test_basis_fit_structural_flag():
    table = SeriesTable(
        lam=Partition([1]),
        entries={1: 1, 3: -2},
        parities={1: "even", 3: "even"},
        conventions={},
        truncated_at=None,
    )
    fit = basis_fit(table, "even", 1)  # basis {q, tanh} vs two data points
    assert fit.structural_only


def test_basis_fit_builds_no_element_that_vanishes_on_the_data(monkeypatch):
    # q^a tanh^b is O(q^(a + b)), so past the top tabulated order it is zero
    # on the data; a huge degree bound builds only a + b <= top and fits as
    # the bound top does.  The entries are the unit partition's through m = 4
    table = SeriesTable(
        lam=Partition([1]),
        entries={0: 1, 1: 1, 2: -1, 3: -2, 4: 5},
        parities={0: "odd", 1: "even", 2: "odd", 3: "even", 4: "odd"},
        conventions={},
        truncated_at=None,
    )
    original = series._basis_element
    built = []

    def counting(a, b, odd_part, order):
        built.append(a + b)
        return original(a, b, odd_part, order)

    monkeypatch.setattr(series, "_basis_element", counting)
    for parity in ("even", "odd"):
        orders = sorted(table.parity_entries(parity))
        top = orders[-1]
        # the first dropped elements of the data's parity, a + b = top + 2
        for a in range(top + 3):
            assert not any(original(a, top + 2 - a, parity == "odd", top)[m] for m in orders)
        built.clear()
        fit = basis_fit(table, parity, 100_000)
        # one element per (a, b) of the data's parity with a + b <= top
        assert built == [s for a in range(top + 1) for s in range(a, top + 1) if s % 2 == top % 2]
        assert len(fit.labels) == len(built) and fit.structural_only and fit.residual == 0
        at_top = basis_fit(table, parity, top).as_json_dict()
        assert fit.as_json_dict() == {**at_top, "degree_bound": 100_000}


def test_basis_fit_validations(cfg):
    table = series_table(parse_partition("1"), 2, cfg)
    with pytest.raises(ValidationError):
        basis_fit(table, "sideways", 1)
    with pytest.raises(ValidationError):
        basis_fit(table, "even", 1)  # only one even-degree entry in this table
    with pytest.raises(ValidationError, match="degree_bound"):
        basis_fit(table, "odd", -1)


def test_exponential_series_consistency(cfg):
    # the odd-degree part of the unit-partition series agrees with sech(q)
    # termwise through the computed order
    table = series_table(parse_partition("1"), 2, cfg)
    sech = sech_series(2)
    for m, h in table.parity_entries("odd").items():
        assert Fraction(h, math.factorial(m)) == sech[m]
