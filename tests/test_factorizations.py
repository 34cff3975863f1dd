import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realhurwitz import (
    Partition,
    ValidationError,
    count_factorizations,
    cycle_type,
    parse_profiles,
)
from realhurwitz.factorizations import compose, conjugate, full_cycle, inverse

from helpers import brute_count, class_size, enumerate_class


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2, 3)).parts == (1, 1, 1, 1)
    assert cycle_type(full_cycle(4)).parts == (4,)
    # the transposition swapping the first and third symbols
    assert cycle_type((2, 1, 0, 3)).parts == (2, 1, 1)


def test_cycle_type_rejects_non_permutation():
    with pytest.raises(ValidationError):
        cycle_type((0, 0, 1))


def test_perm_algebra():
    p = full_cycle(5)
    assert compose(p, inverse(p)) == tuple(range(5))
    assert cycle_type(conjugate((1, 0, 2, 3, 4), p)) == cycle_type(p)


def test_enumerate_class_counts():
    assert len(list(enumerate_class(3, Partition([2, 1])))) == 3
    assert len(list(enumerate_class(4, Partition([2, 2])))) == 3
    assert len(list(enumerate_class(4, Partition([4])))) == 6


@given(st.integers(2, 5), st.data())
@settings(max_examples=25, deadline=None)
def test_enumerate_class_complete_and_typed(d, data):
    from realhurwitz import partitions_of

    lam = data.draw(st.sampled_from(partitions_of(d)))
    members = list(enumerate_class(d, lam))
    assert len(members) == class_size(d, lam)
    assert len(set(members)) == len(members)
    assert all(cycle_type(p) == lam for p in members)


def test_class_size_matches_enumeration_s5():
    from realhurwitz import partitions_of

    total = 0
    for lam in partitions_of(5):
        n = len(list(enumerate_class(5, lam)))
        assert n == class_size(5, lam)
        total += n
    assert total == 120


def test_count_examples_against_brute_force():
    cases = [
        ("2,1|2,1", 3),
        ("3,1|2,1,1", 4),
        ("2,1,1|2,2", 2),
    ]
    for text, expected in cases:
        profiles = parse_profiles(text)
        d = profiles[0].d
        assert brute_count(profiles, d) == expected
        result = count_factorizations(profiles)
        assert result.N == expected
        assert result.H == Fraction(expected, d)


def test_count_half_integer():
    result = count_factorizations(parse_profiles("2,1,1|2,2"))
    assert result.H == Fraction(1, 2)


def test_transposition_tower_counts():
    # d-2 power law for d - 1 simple profiles, brute checked where feasible
    for d, expected in ((3, 3), (4, 16), (5, 125)):
        simple = Partition([2] + [1] * (d - 2))
        profiles = (simple,) * (d - 1)
        result = count_factorizations(profiles)
        assert result.N == d ** (d - 2) == expected
        if d <= 4:
            assert brute_count(profiles, d) == expected


def test_single_full_cycle_profile():
    for d in (2, 3, 4, 5):
        result = count_factorizations((Partition([d]),))
        assert result.N == 1
        assert result.H == Fraction(1, d)


def test_identity_covering_count():
    # the single trivial profile of degree 1 is the identity covering
    result = count_factorizations((Partition([1]),))
    assert result.N == 1 and result.H == 1


def test_nonpositive_degree_rejected():
    # no profile names a degree below 1 (the empty partition raises), so
    # only an empty profile list is left to refuse
    with pytest.raises(ValidationError, match="at least one profile"):
        count_factorizations(())


def test_base_cycle_invariance():
    # the closed form fixes no cycle; the oracle shows any full cycle gives the same N
    profiles = parse_profiles("2,1,1|2,2")
    g = (1, 0, 3, 2)
    alt = conjugate(g, full_cycle(4))
    assert alt != full_cycle(4)
    assert brute_count(profiles, 4, base_cycle=alt) == count_factorizations(profiles).N == 2


def test_profile_order_invariance_d_le_5():
    from realhurwitz.verify import enumerate_sweep_specs

    for profiles in enumerate_sweep_specs(5, 4):
        counts = {
            count_factorizations(list(perm)).N
            for perm in set(itertools.permutations(profiles))
        }
        assert len(counts) == 1


def test_closed_form_matches_brute_force_d_le_5():
    from realhurwitz.verify import enumerate_sweep_specs

    specs = enumerate_sweep_specs(5, 4)
    assert len(specs) == 16
    for profiles in specs:
        d = profiles[0].d
        expected = brute_count(profiles, d)
        assert count_factorizations(profiles).N == expected, profiles
        # an identity factor changes neither the product nor the count
        with_identity = profiles + (Partition([1] * d),)
        assert brute_count(with_identity, d) == expected, profiles
        assert count_factorizations(with_identity).N == expected, profiles


def test_pinned_counts_beyond_the_oracle():
    # d=7 values from bench/reference.json, recorded by a search independent of the formula
    for text, expected in (
        ("3,2,1,1|3,2,1,1", 63),
        ("4,2,1|2,2,1,1,1", 28),
        ("3,1,1,1,1|2,2,1,1,1|2,2,1,1,1", 196),
        ("2,2,2,1|2,2,1,1,1|2,1,1,1,1,1", 98),
    ):
        assert count_factorizations(parse_profiles(text)).N == expected, text
    result = count_factorizations((Partition([2, 1, 1, 1, 1, 1, 1]),) * 7)
    assert result.N == 8**6 == 262144
    assert result.H == 8**5


def test_constraint_enforced():
    with pytest.raises(ValidationError):
        count_factorizations(parse_profiles("2,2|2,2"))
