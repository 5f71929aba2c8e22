"""Finite abelian groups Z_{m1} x ... x Z_{mr} and Sidon sequences over them.

A Sidon sequence is a subset whose ordered differences of distinct
elements are pairwise distinct; equivalently (and verified separately,
because the equivalence itself is a fact worth checking) all pairwise
sums with repetition are distinct.  Every distinctness check in the
package is one first_collision scan over (key, pair) items.  A Sidon
sequence in Z_n and a doubly periodic DDC in Z^2 modulo a lattice are
both distinct-difference sets, told apart only by their subtraction:
first_difference_collision verifies either kind and
max_distinct_difference_set searches either for its largest member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from .numtheory import as_ints, modinv

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """A direct product of cyclic groups, given by the tuple of moduli."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", as_ints(self.moduli, "group moduli", None))
        if not self.moduli:
            raise ValueError("a group needs at least one cyclic factor")
        if any(m < 1 for m in self.moduli):
            raise ValueError(f"moduli must be positive: {self.moduli}")

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    def normalize(self, el: Iterable[int]) -> Element:
        t = as_ints(el, "group element", len(self.moduli))
        return tuple(c % m for c, m in zip(t, self.moduli))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def elements(self) -> Iterator[Element]:
        return product(*(range(m) for m in self.moduli))


class SidonSequence:
    """An ordered set of group elements, stored sorted and duplicate-free.

    The name records intent, not a checked property: verification is a
    separate step so that near-misses can be inspected.
    """

    def __init__(self, group: GroupSpec, elements: Iterable[Iterable[int]]):
        self.group = group
        elements = as_ints(elements, "sequence elements", None, group.rank)
        normalized = [group.normalize(e) for e in elements]
        repeat = first_collision((e, None) for e in normalized)
        if repeat:
            raise ValueError(f"duplicate element {repeat.key}")
        self.elements: tuple[Element, ...] = tuple(sorted(normalized))
        self._members = set(normalized)

    @classmethod
    def from_ints(cls, modulus: int, values: Iterable[int]) -> "SidonSequence":
        return cls(GroupSpec((modulus,)), [(v,) for v in as_ints(values, "sequence elements", None)])

    def as_ints(self) -> list[int]:
        if self.group.rank != 1:
            raise ValueError("as_ints requires a single cyclic factor")
        return [e[0] for e in self.elements]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, el: object) -> bool:
        try:
            return el in self._members
        except TypeError:  # unhashable, so not an element
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SidonSequence):
            return NotImplemented
        return self.group == other.group and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.group, self.elements))

    def __repr__(self) -> str:
        return f"SidonSequence({self.group.moduli}, {list(self.elements)})"


@dataclass(frozen=True)
class Collision:
    """Two distinct pairs that share a key: a difference, a sum or a
    difference vector, depending on the check that found them."""

    key: Hashable
    pair_a: Any
    pair_b: Any


def first_collision(keyed_pairs: Iterable[tuple[Hashable, Any]]) -> Collision | None:
    """The first key that repeats, with the pair that first had it and
    the pair that repeated it; None when every key is distinct."""
    seen: dict[Hashable, Any] = {}
    for key, pair in keyed_pairs:
        if key in seen:
            return Collision(key, seen[key], pair)
        seen[key] = pair
    return None


def verify_sidon(seq: SidonSequence) -> Collision | None:
    """First collision among ordered differences of distinct elements, if any."""
    if differences_distinct(seq.group.moduli, seq.elements):
        return None
    return first_difference_collision(seq.elements, seq.group.sub)


def differences_distinct(moduli: tuple[int, ...], elements: Sequence[Element]) -> bool:
    """Whether all ordered differences of distinct elements are distinct:
    the fast path of verify_sidon, and of the periodic-DDC check on a
    pattern's dots mapped into Z^2 modulo its lattice by Lattice.phi.

    Each element is packed into one int, component i in slot i of s bits
    under a flag bit, with 2^s above every modulus.  Slot i of a + (M - b)
    holds a_i - b_i + m_i in [1, 2m_i), which fits the slot; adding
    2^s - m_i raises the flag exactly where that is at least m_i, and so
    where m_i must be subtracted to leave the residue.  A row of keys
    a - b over every b, a itself included, adds n - 1 new keys and the
    zero difference when no collision has occurred.
    """
    s = max(moduli).bit_length()
    offsets = [i * (s + 1) for i in range(len(moduli))]
    mods = sum(m << o for m, o in zip(moduli, offsets))
    lift = sum((1 << s) - m << o for m, o in zip(moduli, offsets))
    flags = sum(1 << o + s for o in offsets)
    packed = [sum(c << o for c, o in zip(el, offsets)) for el in elements]
    negated = [mods - b for b in packed]
    seen: set[int] = set()
    n = len(packed)
    for count, a in enumerate(packed, 1):
        a_lift = a + lift
        seen.update([a + nb - (f - (f >> s) & mods) for nb in negated for f in [a_lift + nb & flags]])
        if len(seen) != count * (n - 1) + 1:
            return False
    return True


def first_difference_collision(
    elements: Sequence[Hashable], sub: Callable[[Any, Any], Hashable]
) -> Collision | None:
    """The first difference sub(a, b) of distinct elements that repeats,
    pairs (a, b) taken in the order of the elements, with both pairs."""
    return first_collision((sub(a, b), (a, b)) for a in elements for b in elements if a != b)


def verify_sidon_sums(seq: SidonSequence) -> Collision | None:
    """First collision among pairwise sums, repetition allowed, if any."""
    add = seq.group.add
    return first_collision(
        (add(a, b), (a, b)) for a, b in combinations_with_replacement(seq.elements, 2)
    )


def verify_weak_sidon(seq: SidonSequence) -> Collision | None:
    """Like verify_sidon_sums but only sums of two distinct elements."""
    add = seq.group.add
    return first_collision((add(a, b), (a, b)) for a, b in combinations(seq.elements, 2))


def sidon_upper_bound(n: int) -> int:
    """Largest m with m*(m-1) <= n-1: a Sidon set in a group of order n
    spends its m*(m-1) nonzero differences on the n-1 nonzero elements."""
    if as_ints(n, "group order") < 1:
        raise ValueError(f"group order must be positive, got {n}")
    return (1 + math.isqrt(4 * n - 3)) // 2


def max_distinct_difference_set(
    identity: Hashable, elements: Iterable[Hashable], diff: Callable[[Any, Any], Hashable]
) -> tuple[int, tuple]:
    """Largest subset containing the identity whose ordered differences
    of distinct members are pairwise distinct; ties break to the
    lexicographically smallest witness.  The elements are a whole group,
    or one representative of each coset, the identity among them.

    Depth-first over the other elements in sorted order, each
    difference key a bit of an int.  A node keeps its used differences
    and, in order, the later candidates that can still join, each with
    the differences it would bring; choosing one drops only those it
    rules out for good.  A branch is cut when all candidates left cannot
    beat the best size, so the first maximum found is the
    lexicographically smallest one.  Stops early at the counting bound.
    """
    items = sorted(elements)
    upper_bound = sidon_upper_bound(len(items))
    items.remove(identity)
    items.insert(0, identity)
    ids: dict = {}
    bits = [[1 << ids.setdefault(diff(a, b), len(ids)) for b in items] for a in items]
    # pair[c][y]: the bits of c - y and y - c, or 0 when the two coincide
    pair = [[0 if cy == yc else cy | yc for cy, yc in zip(row, col)] for row, col in zip(bits, zip(*bits))]
    chosen = [0]
    best = [0]

    def extend(used: int, admissible: list[tuple[int, int]]) -> bool:
        depth = len(chosen)
        if depth > len(best):
            best[:] = chosen
            if depth == upper_bound:
                return True
        for pos, (c, cmask) in enumerate(admissible):
            if depth + len(admissible) - pos <= len(best):
                break  # cannot beat the best even taking every candidate left
            row, used_c = pair[c], used | cmask
            chosen.append(c)
            if extend(used_c, [(y, ymask | ab) for y, ymask in admissible[pos + 1 :] for ab in [row[y]]
                               if ab and not (ab & (used_c | ymask) or ymask & cmask)]):
                return True
            chosen.pop()
        return False

    extend(0, [(y, ab) for y, ab in enumerate(pair[0]) if ab])
    return len(best), tuple(items[i] for i in best)


def crt_flatten(seq: SidonSequence) -> SidonSequence:
    """Rewrite a sequence over pairwise coprime cyclic factors as one over
    the single cycle of the same order, via CRT interpolation weights."""
    mods = seq.group.moduli
    for a, b in combinations(mods, 2):
        if math.gcd(a, b) != 1:
            raise ValueError(f"moduli {a} and {b} are not coprime")
    n = seq.group.order
    weights = [n // m * modinv(n // m % m, m) % n for m in mods]
    return SidonSequence.from_ints(
        n, [sum(c * w for c, w in zip(el, weights)) % n for el in seq.elements]
    )


def sequence_to_json(seq: SidonSequence) -> dict:
    """The sequence as JSON: a modulus and integer elements for one cyclic
    factor, otherwise the moduli and the elements as lists."""
    if seq.group.rank == 1:
        return {"modulus": seq.group.moduli[0], "elements": seq.as_ints()}
    return {"moduli": list(seq.group.moduli), "elements": [list(e) for e in seq.elements]}


def sequence_from_json(data: dict) -> SidonSequence:
    """The sequence that sequence_to_json wrote, or a ValueError."""
    try:
        if "modulus" in data:
            return SidonSequence.from_ints(data["modulus"], data["elements"])
        if "moduli" in data:
            return SidonSequence(GroupSpec(data["moduli"]), data["elements"])
    except KeyError as missing:
        raise ValueError(f"sequence JSON is missing the {missing} key") from None
    raise ValueError("sequence JSON needs a 'modulus' or 'moduli' key")
