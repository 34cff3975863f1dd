import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from realhurwitz import (
    BranchSpec,
    Partition,
    ValidationError,
    count_factorizations,
    floor_sum_parity,
    o_count,
    parse_partition,
    parse_profiles,
    parse_values,
    partitions_of,
    validate_branch_spec,
)

partitions = st.lists(st.integers(1, 7), min_size=1, max_size=7).map(Partition)


def test_parse_partition_examples():
    assert parse_partition("2,1").parts == (2, 1)
    assert parse_partition("2,1").d == 3
    assert parse_partition("1,3").parts == (3, 1)
    assert parse_partition("1,3").d == 4
    assert parse_partition("4").parts == (4,)
    assert parse_partition("4").d == 4


@pytest.mark.parametrize("text", ["", "a", "0", "-1", "1,,2", "2,", "1.5"])
def test_parse_partition_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_partition(text)


def test_parse_profiles():
    profs = parse_profiles("2,1|2,1")
    assert profs == (Partition([2, 1]), Partition([2, 1]))
    with pytest.raises(ValidationError):
        parse_profiles("2,1|")


def test_parse_values():
    assert parse_values("-2,2") == (-2.0, 2.0)
    with pytest.raises(ValidationError):
        parse_values("1,inf")


def test_o_count_examples():
    assert o_count(Partition([2, 2])) == 0
    assert o_count(Partition([3, 1])) == 2
    assert o_count(Partition([2, 1, 1])) == 1


def _parity_by_definition(profiles):
    total = 0
    for lam in profiles:
        odd_values = sum(1 for mult in Counter(lam.parts).values() if mult % 2 == 1)
        total += odd_values // 2
    return total % 2


def test_floor_sum_parity_examples():
    assert floor_sum_parity([Partition([2, 1]), Partition([2, 1])]) == 0
    profs = [Partition([3, 1]), Partition([2, 1, 1])]
    assert floor_sum_parity(profs) == 1
    assert floor_sum_parity(profs) == _parity_by_definition(profs)
    profs = [Partition([2, 1, 1]), Partition([2, 2])]
    assert floor_sum_parity(profs) == 0
    assert floor_sum_parity(profs) == _parity_by_definition(profs)


@given(st.lists(partitions, min_size=1, max_size=4))
def test_floor_sum_parity_matches_definition(profiles):
    assert floor_sum_parity(profiles) == _parity_by_definition(profiles)


@given(partitions)
def test_odd_multiplicity_count_has_length_parity(lam):
    assert o_count(lam) % 2 == lam.length % 2


def test_validate_branch_spec_examples():
    spec = validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2))
    assert spec.d == 3 and spec.k == 2
    assert spec.values == (-2.0, 2.0)

    spec = validate_branch_spec(parse_profiles("1,1,1|2,1|2,1"), (0, 1, 2))
    assert spec.k == 2
    assert spec.profiles == (Partition([2, 1]), Partition([2, 1]))
    assert spec.values == (1.0, 2.0)

    with pytest.raises(ValidationError):
        validate_branch_spec(parse_profiles("2,2|2,2"))


def test_validate_branch_spec_sorts_attached_pairs():
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
    assert spec.values == (1.0, 28.0)
    assert spec.profiles == (Partition([2, 1, 1]), Partition([3, 1]))


def test_validate_branch_spec_rejects_duplicate_values():
    with pytest.raises(ValidationError):
        validate_branch_spec(parse_profiles("2,1|2,1"), (1, 1))


def test_validate_branch_spec_mixed_degrees():
    with pytest.raises(ValidationError):
        validate_branch_spec([Partition([2, 1]), Partition([2, 2])])


def test_validate_branch_spec_all_trivial():
    spec = validate_branch_spec([Partition([1])])
    assert spec.is_identity and spec.d == 1
    with pytest.raises(ValidationError):
        validate_branch_spec([Partition([1, 1, 1])])


def test_validate_branch_spec_default_values():
    spec = validate_branch_spec(parse_profiles("2,1|2,1"))
    assert spec.values == (1.0, 2.0)


def test_validate_idempotent_on_own_output():
    spec = validate_branch_spec(parse_profiles("1,1,1|2,1|2,1"), (5, -1, 3))
    again = validate_branch_spec(spec.profiles, spec.values)
    assert again == spec


def test_reversed_spec():
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (1, 2))
    rev = spec.reversed_spec()
    assert rev.values == (-2.0, -1.0)
    assert rev.profiles == (spec.profiles[1], spec.profiles[0])
    assert rev.reversed_spec() == spec


def test_permuted_attachment():
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (1, 2))
    swapped = spec.permuted([1, 0])
    assert swapped.values == spec.values
    assert swapped.profiles == (spec.profiles[1], spec.profiles[0])
    with pytest.raises(ValidationError):
        spec.permuted([0, 0])


def test_branch_spec_constructor_rejects_non_canonical():
    with pytest.raises(ValidationError):
        BranchSpec((Partition([2, 1]), Partition([2, 1])), (2.0, -2.0), 3)
    with pytest.raises(ValidationError):
        BranchSpec((Partition([1, 1, 1]),), (1.0,), 3)
    # parts are never truncated to integers: 2.7 is not a part of 3
    with pytest.raises(ValidationError):
        count_factorizations([Partition([2.7, 1]), Partition([2, 1.2])])


P21, P111 = Partition([2, 1]), Partition([1, 1, 1])


@pytest.mark.parametrize(
    "profiles, values, d, message",
    [
        ((P21,), (1.0, 2.0), 3, "equal length"),
        ((), (), 0, "at least 1"),
        ((P21,), (1.0,), 4, "does not partition"),
        ((P111,), (1.0,), 3, "trivial"),
        ((P21, P21), (1.0, math.inf), 3, "finite"),
        ((P21, P21), (math.nan, 1.0), 3, "finite"),
        ((P21, P21), (2.0, -2.0), 3, "strictly increasing"),
        ((), (), 3, "no ramification"),
        ((P21,), (1.0,), 3, "lengths sum"),
    ],
    ids=[
        "lengths", "degree", "partition", "trivial", "inf", "nan", "order", "empty", "genus",
    ],
)
def test_branch_spec_constructor_rejections(profiles, values, d, message):
    with pytest.raises(ValidationError, match=message):
        BranchSpec(profiles, values, d)


def test_empty_partition_rejected():
    # every degree is positive, so the partition of 0 is not a profile
    for parts in ((), []):
        with pytest.raises(ValidationError, match="at least one part"):
            Partition(parts)


@pytest.mark.parametrize(
    "part, message",
    [
        (1.5, "must be integers"),
        (2.0, "must be integers"),
        (np.float64(2), "must be integers"),
        (True, "must be integers"),
        (False, "must be integers"),
        ("2", "must be integers"),
        (0, "must be positive"),
        (-1, "must be positive"),
    ],
)
def test_partition_part_rejections(part, message):
    with pytest.raises(ValidationError, match=message):
        Partition([2, part])
    # numpy integers are integers, and are stored as plain ints
    parts = Partition([np.int64(1), np.int32(3), np.uint8(2)]).parts
    assert parts == (3, 2, 1) and all(type(p) is int for p in parts)


def test_value_type_semantics():
    """Equal branch data is one memo key, whatever form it was given in."""
    lam = Partition([1, 2])
    assert lam == Partition([2, 1]) and hash(lam) == hash(Partition((2, 1)))
    assert lam != (2, 1) and lam != Partition([2, 1, 1])
    assert (lam.d, lam.length) == (3, 2)
    assert str(lam) == "2,1" and repr(lam) == "Partition(2, 1)"

    from_ints = validate_branch_spec([Partition([1, 2]), Partition([2, 1])], (2, -2))
    from_floats = BranchSpec((Partition([2, 1]), Partition([2, 1])), (-2.0, 2.0), 3)
    assert from_ints == from_floats and hash(from_ints) == hash(from_floats)
    assert len({from_ints, from_floats}) == 1
    assert from_ints != BranchSpec(from_ints.profiles, (-2.0, 3.0), 3)
    assert from_floats.values == (-2.0, 2.0) and all(type(v) is float for v in from_ints.values)
    assert from_ints.canonical_key() == "d3:2,1|2,1@-2.0,2.0"

    for obj, name in ((lam, "parts"), (lam, "d"), (from_ints, "values"), (from_ints, "d")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    # a new name is refused too; a frozen slotted dataclass raises TypeError
    # for it on CPython 3.10 and 3.11, where its __setattr__ calls super()
    # with the class that slots=True replaced
    with pytest.raises((AttributeError, TypeError)):
        lam.extra = 1


def test_partitions_of():
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert all(not p.is_trivial for p in partitions_of(5, include_trivial=False))
