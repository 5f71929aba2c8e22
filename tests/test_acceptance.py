"""Acceptance suite: ten numbered end-to-end checks.

Each test is one release gate with its tolerance and time budget inline;
`pytest -v` therefore prints one pass/fail line per gate.  The folding
sweep shared by gates 6 and 7 runs once as a session fixture.
"""

import itertools
import random
import time

import pytest

from sidon2d import (
    GroupSpec,
    Lattice,
    PeriodicDdc,
    Shape,
    SidonSequence,
    Tiling,
    check_optimality,
    construct_bose,
    construct_golomb,
    construct_power_pairs,
    construct_ruzsa,
    construct_welch,
    crt_flatten,
    defines_folding_gcd,
    fold_sidon_to_ddc,
    folding_directions,
    fundamental_shape,
    is_doubly_periodic_ddc,
    make_field,
    max_ddc_dots,
    max_sidon_size,
    minimal_period,
    unfold_to_sidon,
    verify_sidon,
    verify_sidon_sums,
)
from sidon2d.numtheory import euler_phi, prime_power

from folding_oracle import defines_folding

WELCH7 = Lattice(((6, 0), (0, 7)))


def translates(a, b, n):
    """Set equality up to a constant shift modulo n."""
    sa, sb = set(a), set(b)
    if len(sa) != len(sb):
        return False
    return any({(x + c) % n for x in sa} == sb for c in range(n))


@pytest.fixture(scope="session")
def folding_sweep():
    """Compare the closed-form folding test against the walk simulation.

    Matrices: every 2x2 with all entries nonzero in [-6, 6] and
    0 < |det| <= 60, plus the diagonal and antidiagonal families in the
    same range.  Directions: every nonzero |d_i| <= 12.  The simulation
    runs once per (triangular basis, direction coset); the closed form
    runs on every (matrix, direction) pair.
    """
    span = [v for v in range(-6, 7) if v != 0]
    matrices = []
    for a, b, c, d in itertools.product(span, repeat=4):
        det = a * d - b * c
        if det != 0 and abs(det) <= 60:
            matrices.append(((a, b), (c, d)))
    for a, d in itertools.product(span, repeat=2):
        if abs(a * d) <= 60:
            matrices.append(((a, 0), (0, d)))
            matrices.append(((0, a), (d, 0)))

    directions = [
        (d1, d2)
        for d1 in range(-12, 13)
        for d2 in range(-12, 13)
        if (d1, d2) != (0, 0)
    ]

    start = time.perf_counter()
    sim_cache: dict = {}
    checked = 0
    mismatches = 0
    for rows in matrices:
        lat = Lattice(rows)
        per_lattice = sim_cache.get(lat.hnf)
        if per_lattice is None:
            tiling = Tiling(lat, fundamental_shape(lat))
            per_lattice = {}
            for d in directions:
                key = lat.coset_key(d)
                if key not in per_lattice:
                    per_lattice[key] = defines_folding(tiling, d)
            sim_cache[lat.hnf] = per_lattice
        vol = lat.volume
        key_of = lat.coset_key
        for d in directions:
            if defines_folding_gcd(lat, vol, d) != per_lattice[key_of(d)]:
                mismatches += 1
            checked += 1
    elapsed = time.perf_counter() - start
    foldable = {hnf: any(res.values()) for hnf, res in sim_cache.items()}
    return {
        "checked": checked,
        "mismatches": mismatches,
        "elapsed": elapsed,
        "foldable": foldable,
    }


def test_01_welch7_unfolds_to_the_reference_sequence():
    """Exact set equality over Z_42, within one second."""
    start = time.perf_counter()
    seq = unfold_to_sidon(construct_welch(7, alpha=3), (1, 1))
    assert seq.group == GroupSpec((42,))
    assert set(seq.as_ints()) == {0, 8, 10, 11, 33, 37}
    assert verify_sidon(seq) is None
    assert time.perf_counter() - start < 1.0


def test_02_welch_and_golomb_patterns_are_doubly_periodic_ddcs():
    """All stated parameter ranges, with their stated lattices; < 10 s."""
    start = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        pattern = construct_welch(p)
        assert pattern.lattice == Lattice(((p - 1, 0), (0, p)))
        assert is_doubly_periodic_ddc(pattern) is None
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        pattern = construct_golomb(q)
        assert pattern.lattice == Lattice(((q - 1, 0), (0, q - 1)))
        assert is_doubly_periodic_ddc(pattern) is None
    assert time.perf_counter() - start < 10.0


def test_03_power_pairs_hold_for_every_primitive_element():
    """All prime powers q <= 32, all primitive choices; graded optimal
    for the small orders; < 30 s."""
    start = time.perf_counter()
    qs = [q for q in range(3, 33) if prime_power(q) is not None]
    assert qs[0] == 3 and 32 in qs and len(qs) == 17
    for q in qs:
        field = make_field(*prime_power(q))
        for alpha in field.primitive_elements():
            seq = construct_power_pairs(q, alpha=alpha)
            assert len(seq) == q - 1
            assert verify_sidon(seq) is None
    for q in (3, 4, 5, 7, 8, 9):
        verdict = check_optimality(construct_power_pairs(q)).verdict
        assert verdict in ("optimal", "optimal-by-bound")
    assert time.perf_counter() - start < 30.0


def test_04_single_cycle_form_is_the_flattened_pair_form():
    """Exact set equality modulo p(p-1) for all primes p <= 31."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        flat = crt_flatten(construct_power_pairs(p))
        ruzsa = construct_ruzsa(p)
        assert flat.group == ruzsa.group
        assert set(flat.as_ints()) == set(ruzsa.as_ints())


def test_05_difference_and_sum_criteria_never_disagree():
    """Exhaustive for n <= 12, then ten thousand random instances."""
    for n in range(1, 13):
        g = GroupSpec((n,))
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                s = SidonSequence.from_ints(n, subset)
                assert (verify_sidon(s) is None) == (verify_sidon_sums(s) is None)
    rng = random.Random(515151)
    for _ in range(10_000):
        n = rng.randint(13, 60)
        size = rng.randint(0, min(n, 10))
        s = SidonSequence.from_ints(n, rng.sample(range(n), size))
        assert (verify_sidon(s) is None) == (verify_sidon_sums(s) is None)


def test_06_closed_form_folding_test_matches_simulation(folding_sweep):
    """Millions of (lattice, direction) pairs, zero disagreements, < 60 s."""
    assert folding_sweep["checked"] > 12_000_000
    assert folding_sweep["mismatches"] == 0
    assert folding_sweep["elapsed"] < 60.0


def test_07_folding_direction_counts_are_totients(folding_sweep):
    """Foldable tilings list exactly phi(|S|) directions; squares none."""
    for hnf, foldable in folding_sweep["foldable"].items():
        lat = Lattice(hnf)
        tiling = Tiling(lat, fundamental_shape(lat))
        dirs = folding_directions(tiling)
        if foldable:
            assert len(dirs) == euler_phi(tiling.size)
        if not dirs:
            assert not foldable
    for m in range(2, 13):
        square = Tiling(Lattice(((m, 0), (0, m))), Shape.rectangle(m, m))
        assert folding_directions(square) == []


def test_08_fold_and_unfold_are_mutually_inverse():
    """Family outputs of order <= 60 against every foldable tiling of
    matching volume: round trip up to anchor translation, and every
    unfold of a folded pattern is Sidon.  Zero failures."""
    sequences = (
        [construct_bose(q) for q in (2, 3, 4, 5, 7)]
        + [construct_ruzsa(p) for p in (3, 5, 7)]
        + [crt_flatten(construct_power_pairs(q)) for q in (3, 5, 7)]
    )
    assert all(s.group.order <= 60 for s in sequences)
    round_trips = 0
    for seq in sequences:
        n = seq.group.order
        ints = seq.as_ints()
        for a in range(1, n + 1):
            if n % a:
                continue
            b = n // a
            for c in range(b):
                lattice = Lattice(((a, c), (0, b)))
                shape = fundamental_shape(lattice)
                dirs = folding_directions(Tiling(lattice, shape))
                if not dirs:
                    continue
                for d in dirs:
                    pattern = fold_sidon_to_ddc(seq, lattice, shape, d)
                    assert is_doubly_periodic_ddc(pattern) is None
                    back = unfold_to_sidon(pattern, d)
                    assert translates(back.as_ints(), ints, n)
                    round_trips += 1
                # one verified pattern, read out along every direction
                pattern = fold_sidon_to_ddc(seq, lattice, shape, dirs[0])
                for d in dirs:
                    assert verify_sidon(unfold_to_sidon(pattern, d)) is None
    assert round_trips > 100  # the sweep was not vacuous


def test_09_exhaustive_oracles_hit_the_known_maxima():
    """Three frozen search results, each within its time budget."""
    start = time.perf_counter()
    size, witness = max_sidon_size(GroupSpec((7,)))
    assert size == 3 and len(witness) == 3
    assert time.perf_counter() - start < 60.0

    start = time.perf_counter()
    assert max_sidon_size(GroupSpec((6,)))[0] == 2
    assert time.perf_counter() - start < 60.0

    start = time.perf_counter()
    size, witness = max_ddc_dots(WELCH7, Shape.rectangle(6, 7))
    assert size == 6  # the q = 7 pattern family is exactly maximal
    pattern = PeriodicDdc(WELCH7, Shape.rectangle(6, 7), frozenset(witness))
    assert is_doubly_periodic_ddc(pattern) is None
    assert time.perf_counter() - start < 60.0


def test_10_minimal_period_volume_divides_the_planted_symmetry():
    """A thousand random patterns built around a planted symmetry
    lattice; the minimal period volume divides the planted volume."""
    rng = random.Random(101010)
    built = 0
    while built < 1000:
        m22 = rng.randint(1, 4)
        mat = ((rng.randint(1, 4), rng.randint(0, m22 - 1)), (0, m22))
        u = ((rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(-2, 2), rng.randint(-2, 2)))
        det_u = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        planted_volume = mat[0][0] * m22
        if det_u == 0 or abs(det_u) * planted_volume > 60:
            continue
        rows = tuple(
            tuple(sum(u[i][k] * mat[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        lattice = Lattice(rows)  # a sublattice of the planted one
        shape = fundamental_shape(lattice)
        planted = Lattice(mat)
        keys = sorted({planted.coset_key(p) for p in shape.points})
        chosen = {k for k in keys if rng.random() < 0.5}
        dots = [p for p in sorted(shape.points) if planted.coset_key(p) in chosen]
        period = minimal_period(lattice, shape, dots)
        assert planted_volume % period.volume == 0
        built += 1
