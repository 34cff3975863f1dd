import numpy as np
import pytest

from realhurwitz import (
    Partition,
    RealPolynomial,
    ValidationError,
    classify_real,
    parse_profiles,
    s_number,
    solve_all,
    validate_branch_spec,
)
from realhurwitz.realsigns import disorders_by_branch, ordered_pairs_by_branch

from helpers import preimages_from_coefficients, real_polynomial_from_factored


def cubic_poly():
    """z^3 - 3z with branch values -2 and 2, built from the known factorizations."""
    return real_polynomial_from_factored(
        d=3,
        coefficients=(-3.0, 0.0),
        branch_data=[
            ((( -2.0, 1), (1.0, 2)), ()),   # z^3 - 3z + 2 = (z-1)^2 (z+2)
            ((( -1.0, 2), (2.0, 1)), ()),   # z^3 - 3z - 2 = (z+1)^2 (z-2)
        ],
        values=(-2.0, 2.0),
        profiles=(Partition([2, 1]), Partition([2, 1])),
    )


def test_real_preimage_sequences_of_cubic():
    poly = cubic_poly()
    assert poly.real_preimages[0] == ((-2.0, 1), (1.0, 2))
    assert poly.real_preimages[1] == ((-1.0, 2), (2.0, 1))


def test_preimage_sequences_cross_checked_by_root_finding():
    poly = cubic_poly()
    for i, w in enumerate(poly.values):
        oracle = preimages_from_coefficients((1.0, 0.0) + poly.coefficients, w)
        stored = poly.real_preimages[i]
        assert len(oracle) == len(stored)
        for (x_o, m_o), (x_s, m_s) in zip(oracle, stored):
            assert m_o == m_s and abs(x_o - x_s) < 1e-8


def test_empty_preimage_sequence():
    # (z^2 + 1)^2 + 1 has no real preimage of 1
    poly = real_polynomial_from_factored(
        d=4,
        coefficients=(2.0, 0.0, 2.0),
        branch_data=[((), (2, 2)), (((0.0, 2),), (1, 1))],
        values=(1.0, 2.0),
        profiles=(Partition([2, 2]), Partition([2, 1, 1])),
    )
    assert poly.real_preimages[0] == ()
    oracle = preimages_from_coefficients((1.0, 0.0) + poly.coefficients, 1.0)
    assert oracle == []


def test_disorder_and_ordered_pair_counts_cubic():
    poly = cubic_poly()
    assert poly.t == 1  # the pair (-1, 2-fold) before (2, simple)
    assert poly.ord_count == 1  # the pair (-2, simple) before (1, 2-fold)
    assert disorders_by_branch(poly) == (0, 1)
    assert ordered_pairs_by_branch(poly) == (1, 0)
    assert poly.sign == -1


def _biquadratic(v, w2):
    """(z^2 + v)^2 + w2 as a RealPolynomial; branch (2,1,1) value is v^2 + w2."""
    w1 = v * v + w2
    if v > 0:
        over_w1 = (((0.0, 2),), (1, 1))
        over_w2 = ((), (2, 2))
    else:
        r = np.sqrt(-2.0 * v)
        over_w1 = (((-r, 1), (0.0, 2), (r, 1)), ())
        rr = np.sqrt(-v)
        over_w2 = (((-rr, 2), (rr, 2)), ())
    if w1 < w2:
        branch_data = [over_w1, over_w2]
        values = (w1, w2)
        profiles = (Partition([2, 1, 1]), Partition([2, 2]))
    else:
        branch_data = [over_w2, over_w1]
        values = (w2, w1)
        profiles = (Partition([2, 2]), Partition([2, 1, 1]))
    return real_polynomial_from_factored(
        d=4,
        coefficients=(2.0 * v, 0.0, v * v + w2),
        branch_data=branch_data,
        values=values,
        profiles=profiles,
    )


def test_biquadratic_family_disorders():
    assert _biquadratic(1.0, 1.0).t == 0
    poly = _biquadratic(-1.0, 1.0)
    assert poly.t == 1  # orders (1, 2, 1) over the upper value
    assert poly.sign == -1


def test_single_full_branch_point_is_positive(cfg):
    for d in (2, 3, 4, 5):
        spec = validate_branch_spec([Partition([d])], (5.0,))
        reals = classify_real(solve_all(spec, cfg), cfg)
        assert len(reals) == 1
        assert reals[0].sign == 1
        assert s_number(spec, cfg) == 1


def test_cusp_quartic_ordered_pairs(cfg):
    # (z - a)^3 (z + 3a) + w1 with a > 0 has exactly one ordered pair, over w1
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
    reals = classify_real(solve_all(spec, cfg), cfg)
    plus = next(p for p in reals if p.coefficients[1] > 0)  # a = 1 representative
    assert plus.ord_count == 1
    assert plus.t == 0


def test_s_number_examples(cfg):
    assert s_number(validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2)), cfg) == -1
    assert s_number(validate_branch_spec(parse_profiles("2,1,1|2,2"), (2, 1)), cfg) == 0
    assert s_number(validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1)), cfg) == 0


def test_s_number_identity_convention(cfg):
    assert s_number(validate_branch_spec([Partition([1])]), cfg) == 1


def test_reflection_identity_on_even_degree(cfg):
    spec = validate_branch_spec(parse_profiles("2,1,1|2,2"), (2, 1))
    for poly in classify_real(solve_all(spec, cfg), cfg):
        mirrored = poly.reflected()
        assert mirrored.t == poly.ord_count
        assert mirrored.ord_count == poly.t


def test_reflection_rejected_for_odd_degree():
    with pytest.raises(ValidationError):
        cubic_poly().reflected()


def test_real_polynomial_validates_order_sums():
    with pytest.raises(ValidationError):
        RealPolynomial(
            d=3,
            coefficients=(-3.0, 0.0),
            profiles=(Partition([2, 1]),),
            values=(1.0,),
            real_preimages=(((0.0, 1),),),
            nonreal_orders=((),),
        )

