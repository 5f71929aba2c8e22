"""Constructions and exhaustive oracles for Sidon sequences."""

import hashlib
import itertools

import pytest

from sidon2d import (
    GroupSpec,
    SidonSequence,
    abelian_group_specs,
    check_optimality,
    construct_bose,
    construct_power_pairs,
    construct_ruzsa,
    construct_singer,
    crt_flatten,
    make_field,
    max_sidon_size,
    sidon_upper_bound,
    verify_sidon,
)
from sidon2d.numtheory import prime_power
from sidon2d.sidon import _subfield

from line_oracle import bose_by_logs, singer_by_logs

PRIME_POWERS = [3, 4, 5, 7, 8, 9, 11, 13, 16]
PRIMES = [3, 5, 7, 11, 13]


def brute_max_sidon(group: GroupSpec) -> int:
    """Reference maximum by filtering every subset, largest first."""
    els = sorted(group.elements())
    for r in range(len(els), 0, -1):
        for subset in itertools.combinations(els, r):
            if verify_sidon(SidonSequence(group, subset)) is None:
                return r
    return 0


# -- power pairs ---------------------------------------------------------------


def test_power_pairs_frozen_values():
    s = construct_power_pairs(7)
    assert s.group == GroupSpec((6, 7))
    assert s.elements == ((0, 1), (1, 3), (2, 2), (3, 6), (4, 4), (5, 5))
    assert construct_power_pairs(3).elements == ((0, 1), (1, 2))
    s4 = construct_power_pairs(4)
    assert s4.group == GroupSpec((3, 2, 2))
    assert s4.elements == ((0, 1, 0), (1, 0, 1), (2, 1, 1))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_power_pairs_is_sidon_and_full_size(q):
    s = construct_power_pairs(q)
    assert len(s) == q - 1
    assert s.group.order == q * (q - 1)
    assert verify_sidon(s) is None
    assert len(s) == sidon_upper_bound(s.group.order)  # meets the bound


def test_power_pairs_accepts_any_primitive_element():
    s = construct_power_pairs(7, alpha=5)
    assert verify_sidon(s) is None
    assert s != construct_power_pairs(7, alpha=3)


def test_power_pairs_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_power_pairs(6)  # not a prime power
    with pytest.raises(ValueError):
        construct_power_pairs(2)  # too small
    with pytest.raises(ValueError):
        construct_power_pairs(7, alpha=2)  # order 3, not primitive
    with pytest.raises(ValueError):
        construct_power_pairs(7, alpha=0)


# -- single-cycle form -----------------------------------------------------------


def test_ruzsa_frozen_values():
    assert construct_ruzsa(7).as_ints() == [2, 4, 5, 27, 31, 36]
    assert construct_ruzsa(3).as_ints() == [4, 5]


@pytest.mark.parametrize("p", PRIMES)
def test_ruzsa_is_sidon_at_the_bound(p):
    s = construct_ruzsa(p)
    assert s.group == GroupSpec((p * (p - 1),))
    assert len(s) == p - 1 == sidon_upper_bound(p * p - p)
    assert verify_sidon(s) is None


def test_ruzsa_needs_an_actual_prime():
    with pytest.raises(ValueError):
        construct_ruzsa(9)  # prime power but not prime
    with pytest.raises(ValueError):
        construct_ruzsa(2)


@pytest.mark.parametrize("p", PRIMES)
def test_ruzsa_is_the_flattened_power_pair_family(p):
    flat = crt_flatten(construct_power_pairs(p))
    assert set(flat.as_ints()) == set(construct_ruzsa(p).as_ints())


# -- subfield-line families -------------------------------------------------------


def test_bose_frozen_values():
    assert construct_bose(3).as_ints() == [1, 6, 7]
    assert construct_bose(2).as_ints() == [1, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_bose_is_sidon_at_the_bound(q):
    s = construct_bose(q)
    assert s.group == GroupSpec((q * q - 1,))
    assert len(s) == q == sidon_upper_bound(q * q - 1)
    assert verify_sidon(s) is None


def test_singer_frozen_values():
    assert construct_singer(2).as_ints() == [0, 1, 5]
    assert construct_singer(3).as_ints() == [0, 1, 8, 10]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_singer_is_a_perfect_difference_set(q):
    s = construct_singer(q)
    n = q * q + q + 1
    assert s.group.order == n
    assert len(s) == q + 1
    assert verify_sidon(s) is None
    vals = s.as_ints()
    diffs = [(a - b) % n for a in vals for b in vals if a != b]
    assert sorted(diffs) == list(range(1, n))  # every residue exactly once


@pytest.mark.parametrize("q", [q for q in range(2, 65) if prime_power(q)])
def test_bose_by_marking_matches_the_log_oracle(q):
    assert construct_bose(q) == bose_by_logs(q)


@pytest.mark.parametrize("q", [q for q in range(2, 17) if prime_power(q)])
def test_singer_by_marking_matches_the_log_oracle(q):
    assert construct_singer(q) == singer_by_logs(q)


def test_the_line_families_build_no_log_table():
    # the logs of the line are read off the exp table
    make_field.cache_clear()  # no other test's logs
    construct_bose(32), construct_singer(9)
    assert "log_table" not in vars(make_field(2, 10))
    assert "log_table" not in vars(make_field(3, 6))


def test_subfield_elements_and_rejection():
    f = make_field(2, 4)
    sub = _subfield(f, 4)
    assert len(sub) == 4
    assert all(f.pow(x, 4) == x for x in sub)  # the roots of x^4 - x
    with pytest.raises(ValueError):
        _subfield(f, 8)  # 7 does not divide 15


def test_family_constructions_are_deterministic():
    assert construct_bose(5) == construct_bose(5)
    assert construct_singer(4) == construct_singer(4)
    assert construct_power_pairs(9) == construct_power_pairs(9)


# -- exhaustive search -------------------------------------------------------------


def test_max_sidon_frozen_values():
    assert max_sidon_size(GroupSpec((7,))) == (3, ((0,), (1,), (3,)))
    assert max_sidon_size(GroupSpec((6,))) == (2, ((0,), (1,)))
    assert max_sidon_size(GroupSpec((1,))) == (1, ((0,),))
    # in characteristic 2 any pair sums to the identity twice
    assert max_sidon_size(GroupSpec((2, 2))) == (1, ((0, 0),))
    assert max_sidon_size(GroupSpec((2, 4, 6))) == (
        5, ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 2), (1, 0, 2))
    )


def test_max_sidon_at_the_cap_edge():
    """The cyclic groups at the top of the cap, with the maxima and
    witnesses the set-based search (tests/search_oracle.py) found."""
    head = ((0,), (1,), (3,), (7,), (12,), (20,))
    assert max_sidon_size(GroupSpec((58,))) == (7, head + ((43,),))
    assert max_sidon_size(GroupSpec((59,))) == (7, head + ((34,),))
    assert max_sidon_size(GroupSpec((60,))) == (7, head + ((38,),))


def test_max_sidon_on_every_group_under_the_cap():
    """All 102 abelian groups of order at most 60, against one sha256 of
    the sizes and witnesses the search gave before it searched only
    canonical translates."""
    results = [(g.moduli, max_sidon_size(g)) for n in range(1, 61) for g in abelian_group_specs(n)]
    assert len(results) == 102
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "931431cb098ca0b5bb5fdd8cc1ef8e5b39246fad8c479a1b424395c12c9e077f"


def test_max_sidon_matches_the_subset_filter():
    for moduli in [(5,), (6,), (7,), (8,), (2, 4), (3, 3), (12,), (2, 2, 3)]:
        g = GroupSpec(moduli)
        size, witness = max_sidon_size(g)
        assert size == brute_max_sidon(g)
        assert verify_sidon(SidonSequence(g, witness)) is None
        assert len(witness) == size


def test_max_sidon_respects_the_cap():
    with pytest.raises(ValueError, match="order 61 exceeds the search cap 60"):
        max_sidon_size(GroupSpec((61,)))
    assert max_sidon_size(GroupSpec((13,)))[0] == 4


def test_max_sidon_never_exceeds_the_counting_bound():
    for n in range(1, 16):
        size, _ = max_sidon_size(GroupSpec((n,)))
        assert size <= sidon_upper_bound(n)


# -- group enumeration ---------------------------------------------------------------


def test_abelian_group_specs_small_orders():
    assert [g.moduli for g in abelian_group_specs(1)] == [(1,)]
    assert [g.moduli for g in abelian_group_specs(30)] == [(2, 3, 5)]
    assert {g.moduli for g in abelian_group_specs(12)} == {(3, 4), (2, 2, 3)}
    assert {g.moduli for g in abelian_group_specs(8)} == {(8,), (2, 4), (2, 2, 2)}
    with pytest.raises(ValueError):
        abelian_group_specs(0)


def test_abelian_group_specs_counts():
    # counts are multiplicative with p(e) classes per prime power p^e
    assert len(abelian_group_specs(16)) == 5
    assert len(abelian_group_specs(36)) == 4
    assert len(abelian_group_specs(72)) == 6
    for n in (4, 9, 10, 24):
        specs = abelian_group_specs(n)
        assert all(g.order == n for g in specs)
        assert len({g.moduli for g in specs}) == len(specs)


# -- optimality grading ----------------------------------------------------------------


def test_report_for_a_bound_meeting_sequence():
    r = check_optimality(construct_power_pairs(4))
    assert r.to_json() == {
        "group_order": 12,
        "size": 3,
        "upper_bound": 3,
        "brute_force_max": 3,
        "verdict": "optimal-by-bound",
    }


def test_report_certifies_below_bound_maximum():
    # order 22: the bound allows 5 but no group of order 22 reaches it
    r = check_optimality(SidonSequence.from_ints(22, [0, 1, 3, 7]))
    assert (r.size, r.upper_bound, r.brute_force_max) == (4, 5, 4)
    assert r.verdict == "optimal"


def test_report_above_brute_cap_leaves_verdict_open():
    r = check_optimality(SidonSequence.from_ints(44, [0, 1]))
    assert r.brute_force_max is None
    assert r.verdict == "unknown"
    capped = check_optimality(SidonSequence.from_ints(43, [0, 1, 3, 7]))
    assert capped.brute_force_max is None
    assert capped.verdict == "unknown"
    assert check_optimality(SidonSequence.from_ints(40, [0, 1, 3, 7])).brute_force_max == 6


def test_report_on_large_bound_meeting_sequence_skips_brute_force():
    r = check_optimality(construct_ruzsa(7))
    assert r.to_json() == {
        "group_order": 42,
        "size": 6,
        "upper_bound": 6,
        "brute_force_max": None,
        "verdict": "optimal-by-bound",
    }


def test_report_flags_undersized_sequences_as_unknown():
    r = check_optimality(SidonSequence(GroupSpec((2, 2)), [(0, 1)]))
    assert (r.size, r.brute_force_max, r.verdict) == (1, 2, "unknown")


def test_report_rejects_non_sidon_input():
    with pytest.raises(ValueError):
        check_optimality(SidonSequence.from_ints(6, [0, 1, 3]))
