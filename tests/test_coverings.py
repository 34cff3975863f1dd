from fractions import Fraction

import numpy as np
import pytest

from realhurwitz import (
    CoveringAssemblyError,
    Partition,
    SignMismatch,
    parse_profiles,
    real_hurwitz,
    theorem_check,
    validate_branch_spec,
)
from realhurwitz.coverings import SolvedReals, class_sign

from helpers import real_polynomial_from_factored


def test_covering_classes_full_branch_point(cfg):
    spec = validate_branch_spec([Partition([2])], (5.0,))
    classes = real_hurwitz(spec, cfg).classes
    assert len(classes) == 2
    by_side = {c.side: c for c in classes}
    assert by_side["positive"].representatives[0].coefficients == pytest.approx((5.0,))
    assert by_side["negative"].representatives[0].coefficients == pytest.approx((-5.0,))
    for c in classes:
        assert c.aut_order == 2
        assert c.class_sign == 1
        assert c.weight == Fraction(1, 2)


def test_covering_classes_cubic(cfg):
    spec = validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2))
    classes = real_hurwitz(spec, cfg).classes
    assert len(classes) == 1
    (cls,) = classes
    assert cls.side == "positive" and cls.aut_order == 1
    assert cls.class_sign == -1 and cls.weight == Fraction(-1)
    assert np.allclose(cls.representatives[0].coefficients, (-3.0, 0.0), atol=1e-8)


def test_covering_classes_cusp_quartic_positive_side(cfg):
    # parity-odd, so the classes are built only as diagnostics
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
    classes = real_hurwitz(spec, cfg.replace(force_class_diagnostics=True)).classes
    positive = [c for c in classes if c.side == "positive"]
    assert len(positive) == 1
    (cls,) = positive
    assert len(cls.representatives) == 2 and cls.aut_order == 1
    signs = sorted(p.sign for p in cls.representatives)
    assert signs == [-1, 1]
    assert cls.class_sign == 0  # averaged in the parity-odd branch


def test_missing_partner_is_an_assembly_error(cfg):
    # the two real solutions of the positive side are each other's z -> -z
    # partner; a provider that drops one leaves the other unpaired
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
    diag = cfg.replace(force_class_diagnostics=True)
    full = SolvedReals(diag)
    (cls,) = real_hurwitz(spec, diag, full).classes
    assert len(cls.representatives) == 2

    def partial(side):
        return full(side)[:1] if side == spec else full(side)

    with pytest.raises(CoveringAssemblyError, match="no z -> -z partner"):
        real_hurwitz(spec, diag, partial)


def test_repeated_real_is_an_assembly_error(cfg):
    # a provider that lists one real twice gives two rows the same z -> -z
    # partner, so the partner map is not an involution
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
    diag = cfg.replace(force_class_diagnostics=True)
    full = SolvedReals(diag)

    def doubled(side):
        return full(side)[:1] + full(side) if side == spec else full(side)

    with pytest.raises(CoveringAssemblyError, match="not an involution"):
        real_hurwitz(spec, diag, doubled)


def test_class_sign_dispatch():
    def fake(sign_value):
        seq = (((0.0, 3),), ()) if sign_value > 0 else (((0.0, 2), (1.0, 1)), ())
        return real_polynomial_from_factored(
            d=3,
            coefficients=(0.0, 0.0),
            branch_data=[seq],
            values=(1.0,),
            profiles=(Partition([3]),),
        )

    plus, minus = fake(1), fake(-1)
    assert class_sign([plus], d=3, parity=0) == 1
    assert class_sign([plus, plus], d=4, parity=0) == 1
    with pytest.raises(SignMismatch):
        class_sign([plus, minus], d=4, parity=0)
    assert class_sign([plus, minus], d=4, parity=1) == 0
    assert class_sign([minus], d=4, parity=1) == -1


def test_real_hurwitz_examples(cfg):
    assert real_hurwitz(validate_branch_spec([Partition([2])], (5.0,)), cfg).value == 1
    assert (
        real_hurwitz(validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2)), cfg).value
        == -1
    )
    result = real_hurwitz(validate_branch_spec(parse_profiles("3,1|2,1,1")), cfg)
    assert result.value == 0
    assert result.parity_odd_branch
    assert result.classes is None  # short-circuited, nothing solved


def test_real_hurwitz_parity_diagnostics(cfg):
    diag = cfg.replace(force_class_diagnostics=True)
    result = real_hurwitz(validate_branch_spec(parse_profiles("3,1|2,1,1")), diag)
    assert result.value == 0 and result.parity_odd_branch
    assert result.classes is not None
    assert sum((c.weight for c in result.classes), Fraction(0)) == 0


def test_theorem_check_examples(cfg):
    report = theorem_check(validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2)), cfg)
    assert report.passed and report.hr == -1 and report.s == -1

    report = theorem_check(validate_branch_spec(parse_profiles("2,1,1|2,2"), (2, 1)), cfg)
    assert report.passed
    assert report.hr == 0 and report.s == 0
    assert report.s_reversed == 0 and report.half_sum_ok

    for d in (2, 3, 4, 5):
        report = theorem_check(validate_branch_spec([Partition([d])], (1.0,)), cfg)
        assert report.passed and report.hr == 1 and report.s == 1


def test_negative_side_matches_reversed_spec(cfg):
    spec = validate_branch_spec(parse_profiles("2,1,1|2,2"), (2, 1))
    classes = real_hurwitz(spec, cfg).classes
    negative = [c for c in classes if c.side == "negative"]
    from realhurwitz import classify_real, solve_all

    reversed_reals = classify_real(solve_all(spec.reversed_spec(), cfg), cfg)
    assert sum(len(c.representatives) for c in negative) == len(reversed_reals)


def test_hurwitz_value_integral_over_sweep_specs(cfg):
    for text in ("2,1|2,1", "2,1,1|2,2", "2,1,1|2,1,1|2,1,1"):
        result = real_hurwitz(validate_branch_spec(parse_profiles(text)), cfg)
        assert result.is_integral


def test_theorem_check_solves_each_side_once(cfg, solves):
    spec = validate_branch_spec(parse_profiles("2,1,1|2,2"))
    assert theorem_check(spec, cfg).passed
    assert len(solves) == 2 and set(solves) == {spec, spec.reversed_spec()}

    solves.clear()
    assert theorem_check(validate_branch_spec(parse_profiles("2,1|2,1")), cfg).passed
    assert len(solves) == 1


def test_theorem_check_maps_the_reversed_spec(cfg, monkeypatch):
    from realhurwitz import coverings

    drawn = {}
    original = coverings.solve_all

    def recording(spec, *args, **kwargs):
        solset = original(spec, *args, **kwargs)
        drawn[spec] = solset.starts_used
        return solset

    monkeypatch.setattr(coverings, "solve_all", recording)
    spec = validate_branch_spec(parse_profiles("2,1,1|2,2"))
    assert theorem_check(spec, cfg).passed
    assert drawn[spec] > 0 and drawn[spec.reversed_spec()] == 0


def test_parity_odd_branch_solves_nothing(cfg, solves):
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"))
    assert real_hurwitz(spec, cfg).parity_odd_branch
    assert solves == []
    real_hurwitz(spec, cfg.replace(force_class_diagnostics=True))
    assert len(solves) == 2
