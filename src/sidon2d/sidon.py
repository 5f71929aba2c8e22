"""Sidon sequence constructions and exhaustive-search oracles.

Constructions: power_pairs (the pair family (i, alpha^i) over
Z_{q-1} x GF(q)+), ruzsa (its single-cycle form modulo p^2 - p), bose
(q elements modulo q^2 - 1) and singer (q + 1 elements modulo
q^2 + q + 1, a perfect difference set).  The oracles find exact maxima
by backtracking and grade a sequence against them.
"""

from __future__ import annotations

from itertools import compress, count, product

from .fields import Field, check_order, make_field
from .groups import (
    Element,
    GroupSpec,
    SidonSequence,
    max_distinct_difference_set,
    sidon_upper_bound,
    verify_sidon,
)
from .numtheory import Record, as_ints, factorize, is_prime, partitions, prime_power, xgcd


def _field_for(q: int, what: str, degree: int = 1) -> Field:
    if as_ints(q, "q") > 1:
        check_order(q, degree)  # before the trial division of q
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{what} needs a prime power, got {q}")
    p, k = pp
    return make_field(p, k * degree)


def construct_power_pairs(q: int, alpha: int | None = None) -> SidonSequence:
    """The q-1 pairs (i, alpha^i) over Z_{q-1} x (Z_p)^k.

    The second coordinate is the coefficient vector of alpha^i, so the
    group order is q*(q-1) and the size meets the counting bound.
    """
    if as_ints(q, "q") < 3:
        raise ValueError(f"need a prime power q >= 3, got {q}")
    field = _field_for(q, "power pair construction")
    alpha = field.primitive_or_generator(alpha, "alpha")
    group = GroupSpec((q - 1,) + (field.p,) * field.k)
    elements = [(i,) + field.coeffs(field.pow(alpha, i)) for i in range(q - 1)]
    return SidonSequence(group, elements)


def construct_ruzsa(p: int, alpha: int | None = None) -> SidonSequence:
    """p-1 elements modulo p^2 - p: the pair construction pushed through
    the splitting Z_{p(p-1)} = Z_{p-1} x Z_p, written out directly."""
    check_order(as_ints(p, "p"))  # before the trial division of p
    if p < 3 or not is_prime(p):
        raise ValueError(f"need a prime p >= 3, got {p}")
    field = make_field(p)
    alpha = field.primitive_or_generator(alpha, "alpha")
    n = p * (p - 1)
    # interpolation weights: w1 == 1 mod p-1, 0 mod p; w2 the reverse
    g, u, v = xgcd(p - 1, p)
    if g != 1:
        raise RuntimeError(f"gcd({p - 1}, {p}) = {g}, not 1")
    w1 = v * p % n
    w2 = u * (p - 1) % n
    values = [(i * w1 + field.pow(alpha, i) * w2) % n for i in range(p - 1)]
    return SidonSequence.from_ints(n, values)


def _subfield(field: Field, order: int) -> list[int]:
    """Elements of the subfield of the given order, via the exp table."""
    n = field.order - 1
    if n % (order - 1):
        raise ValueError(f"GF({order}) is not a subfield of GF({field.order})")
    step = n // (order - 1)
    return [0] + [field.exp_table[step * j] for j in range(order - 1)]


def _line_logs(field: Field, q: int) -> list[int]:
    """The logs of beta + c over c in GF(q), beta the generator, in
    increasing order: one pass over the exp table finds the line's codes."""
    line = {field.add(field.generator, c) for c in _subfield(field, q)}
    return list(compress(count(), map(line.__contains__, field.exp_table)))


def construct_bose(q: int) -> SidonSequence:
    """q elements over Z_{q^2-1}: logs of the line beta + GF(q) in GF(q^2)."""
    field = _field_for(q, "Bose construction", degree=2)
    return SidonSequence.from_ints(q * q - 1, _line_logs(field, q))


def construct_singer(q: int) -> SidonSequence:
    """q+1 elements over Z_{q^2+q+1}: logs of the projective line
    spanned by {1, beta} in GF(q^3).  A perfect difference set.  Its points
    are 1 and c + beta, c in GF(q), up to factors in GF(q)*: logs 0 mod n."""
    field = _field_for(q, "Singer construction", degree=3)
    n = q * q + q + 1
    return SidonSequence.from_ints(n, {0} | {i % n for i in _line_logs(field, q)})


SEARCH_CAP = 60


def max_sidon_size(group: GroupSpec) -> tuple[int, tuple[Element, ...]]:
    """Exact maximum Sidon size over the group, with one witness.

    Any Sidon set translates to one containing the identity, so the
    search is anchored there; the witness is the lexicographically
    smallest maximum-size set containing the identity.
    """
    if group.order > SEARCH_CAP:
        raise ValueError(f"group order {group.order} exceeds the search cap {SEARCH_CAP}")
    return max_distinct_difference_set(group.identity(), group.elements(), group.sub)


def abelian_group_specs(n: int) -> list[GroupSpec]:
    """One GroupSpec per isomorphism class of abelian groups of order n."""
    if as_ints(n, "group order") < 1:
        raise ValueError(f"group order must be positive, got {n}")
    if n == 1:
        return [GroupSpec((1,))]
    per_prime: list[list[tuple[int, ...]]] = []
    for p, e in sorted(factorize(n).items()):
        per_prime.append([tuple(p**part for part in parts) for parts in partitions(e)])
    specs = []
    for combo in product(*per_prime):
        moduli = tuple(sorted(m for factor in combo for m in factor))
        specs.append(GroupSpec(moduli))
    return specs


BRUTE_CAP = 40


class OptimalityReport(Record):
    """How a sequence's size compares against what its order allows; the
    verdict is optimal-by-bound, optimal or unknown."""

    __slots__ = _fields = ("group_order", "size", "upper_bound", "brute_force_max", "verdict")

    def __init__(
        self, group_order: int, size: int, upper_bound: int, brute_force_max: int | None, verdict: str
    ) -> None:
        self.group_order, self.size, self.upper_bound = group_order, size, upper_bound
        self.brute_force_max, self.verdict = brute_force_max, verdict

    def to_json(self) -> dict[str, int | str | None]:
        """The fields by name, in order: the report as `construct --report` writes it."""
        return dict(zip(self._fields, self._values()))


def check_optimality(seq: SidonSequence) -> OptimalityReport:
    """Grade a Sidon sequence: at the counting bound it is optimal by
    bound; otherwise exhaustive search over every abelian group of the
    same order (when small enough) can still certify optimality."""
    if verify_sidon(seq) is not None:
        raise ValueError("sequence is not Sidon")
    n = seq.group.order
    m = len(seq)
    bound = sidon_upper_bound(n)
    brute: int | None = None
    if n <= BRUTE_CAP:
        brute = max(max_sidon_size(g)[0] for g in abelian_group_specs(n))
    if m == bound:
        verdict = "optimal-by-bound"
    elif brute is not None and m == brute:
        verdict = "optimal"
    else:
        verdict = "unknown"
    return OptimalityReport(n, m, bound, brute, verdict)
