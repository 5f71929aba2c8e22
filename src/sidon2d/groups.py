"""Finite abelian groups Z_{m1} x ... x Z_{mr} and Sidon sequences over them.

A Sidon sequence is a subset whose ordered differences of distinct
elements are pairwise distinct; equivalently (and verified separately,
because the equivalence itself is a fact worth checking) all pairwise
sums with repetition are distinct.  One row kernel, first_repeat,
decides every distinctness check and names its witness: it builds the
sums a row at a time in packed lanes, n(n + 1)/2 of them for a Sidon
check and the n(n - 1)/2 sums of distinct elements for a weak-Sidon
one, and marks them in a table of one byte per element on a group of
at most 2^21 elements and in a set beyond; trailing factors Z_2, as in
the power pairs' GF(2^k)+, are bits added by XOR.  The first repeated
sum is the weak-Sidon witness; a Sidon check that finds one builds
difference rows the same way for the first repeated difference.  A
Sidon sequence in Z_n and a doubly periodic DDC in Z^2 modulo a
lattice are both distinct-difference sets, told apart only by their
subtraction: first_repeat verifies either kind, each caller naming its
pairs with collision_at, and max_distinct_difference_set searches
either for its largest member.  first_collision's dict scan is left to
the gate's check of the sums, verify_sidon_sums, and to duplicates.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from itertools import combinations, combinations_with_replacement, product

from .numtheory import Record, as_ints, modinv

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

Element = tuple[int, ...]

# A group of at most this order records its sums in a table of one byte
# per element; a larger one in a set of the words that hold them.
_TABLE_ORDER = 1 << 21


class GroupSpec(Record):
    """A direct product of cyclic groups, given by the tuple of moduli."""

    __slots__ = _fields = ("moduli",)

    def __init__(self, moduli: Iterable[int]) -> None:
        self.moduli: tuple[int, ...] = as_ints(moduli, "group moduli", None)
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

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def elements(self) -> Iterator[Element]:
        return product(*(range(m) for m in self.moduli))


class SidonSequence(Record):
    """An ordered set of group elements, stored sorted and duplicate-free.

    The name records intent, not a checked property: verification is a
    separate step so that near-misses can be inspected.
    """

    __slots__ = _fields = ("group", "elements")

    def __init__(self, group: GroupSpec, elements: Iterable[Iterable[int]]):
        self.group = group
        elements = as_ints(elements, "sequence elements", None, group.rank)
        normalized = [tuple(c % m for c, m in zip(e, group.moduli)) for e in elements]
        repeat = first_collision((e, None) for e in normalized)
        if repeat:
            raise ValueError(f"duplicate element {repeat.key}")
        self.elements: tuple[Element, ...] = tuple(sorted(normalized))

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

    def __repr__(self) -> str:
        return f"SidonSequence({self.group.moduli}, {list(self.elements)})"


class Collision(Record):
    """Two distinct pairs that share a key: a difference, a sum or a
    difference vector, depending on the check that found them."""

    __slots__ = _fields = ("key", "pair_a", "pair_b")

    def __init__(self, key: Hashable, pair_a: Any, pair_b: Any) -> None:
        self.key, self.pair_a, self.pair_b = key, pair_a, pair_b


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
    return collision_at(first_repeat(seq.group.moduli, seq.elements), seq.elements, seq.group.sub)


def collision_at(repeat: tuple | None, labels: Sequence, key: Callable[[Any, Any], Hashable]) -> Collision | None:
    """The collision that first_repeat's index pairs name: both pairs as
    labels, keyed by key(c, d) of the later pair (c, d); None for None."""
    if repeat is None:
        return None
    (a, b), (c, d) = [(labels[i], labels[j]) for i, j in repeat]
    return Collision(key(c, d), (a, b), (c, d))


def first_repeat(moduli: tuple[int, ...], elements: Sequence[Element], skip: int = 0) -> tuple | None:
    """The index pairs ((i, j), (k, l)) of the first repeated key, or None:
    (k, l) is the first pair to repeat a key, (i, j) the earlier pair.

    The keys are the differences a - b of distinct elements, b over the
    whole list for each a = elements[i] in turn; with skip = 1, the sums
    a + b of each b after a, in combinations(elements, 2) order.  The
    elements must be distinct.  Sums decide both: with skip = 0, those
    of b at or after a, as a - b = c - d is a + d = c + b; the diagonal
    b = a catches 2-torsion: in {0, e} with 2e = 0, e - 0 = 0 - e, and
    only 0 + 0 = e + e repeats.  Only then are the differences built.

    Row i holds a plus each b from elements[i + skip] on, or plus m - b
    for each b but a.  Component i of an element sits in a slot of
    s_i = m_i.bit_length() bits under a flag bit.  Slot i of a row holds
    a value in [0, 2m_i), which fits the slot and its flag; adding
    2^s_i - m_i raises the flag exactly where that is at least m_i, and
    so where m_i must be subtracted to leave the residue.  The k factors
    Z_2 after the last factor of another modulus are k bits under the
    slots, the last factor lowest, with no flag: in Z_2 a sum and a
    difference are an XOR, so the row adds the slots and then XORs in
    b's bits.  Each element has a lane of 64w bits in one int, and a row
    takes its lanes by a shift, so it costs a handful of whole-int
    operations per slot.

    - On a group of at most _TABLE_ORDER = 2^21 elements, each lane's
      slots become the index sum(c_j * W_j) of its residue, W_j the
      order of the factors after j, and a table of one byte per element
      marks the keys seen: a pass stops at the first key already
      marked.  The bits are the index's last k digits as they stand, and
      where each slot j sits at bit log2(W_j), as for one cycle, the
      power pairs and Z_2^k, a lane is its own index.
    - A larger group joins each row's lanes to one set as keys: one
      machine word when w = 1, a w-tuple of words otherwise.  A key is
      not the residue but the words that hold it, read in native byte
      order; it stands for the same residue in every row and for no
      other, and equality is all a test of distinctness asks of it.  A
      row adds all its keys exactly when none has repeated, which is
      counted after every row (pigeonhole); the repeat is then the first
      of the row's keys that an earlier row, built again, shares.

    No row holds a key twice, so the earlier pair is in the one earlier
    row that holds the key.
    """
    k = next((j for j, m in enumerate(reversed(moduli)) if m != 2), len(moduli))
    head = moduli[: len(moduli) - k]  # the factors before the last k, which are Z_2
    widths = [m.bit_length() for m in head]
    offsets = [k + sum(widths[:i]) + i for i in range(len(widths))]
    words = -(-(k + sum(widths) + len(widths)) // 64)
    lane = 8 * words
    mods = sum(m << o for m, o in zip(head, offsets))
    lift = sum((1 << s) - m << o for m, s, o in zip(head, widths, offsets))
    # f - (f >> s) widens a raised flag into the s bits below it, so
    # slots of one width share one shift
    flags_by_width: dict[int, int] = {}
    for s, o in zip(widths, offsets):
        flags_by_width[s] = flags_by_width.get(s, 0) | 1 << o + s
    places = offsets + list(range(k))[::-1]
    packed = [sum(c << o for c, o in zip(el, places)) for el in elements]
    n = len(packed)
    # one lane per element: rep has a 1 at the bottom of each, lanes holds it
    rep = int.from_bytes((b"\1" + bytes(lane - 1)) * n, "little")
    lanes = int.from_bytes(b"".join(b.to_bytes(lane, "little") for b in packed), "little")
    low = (1 << k) - 1
    bits = lanes & low * rep  # every lane's bits, taken out of lanes
    lanes ^= bits
    lift, flags, mods = lift * rep, sum(flags_by_width.values()) * rep, mods * rep
    by_width = [(s, f * rep) for s, f in flags_by_width.items()]
    order = math.prod(moduli)
    big = order > _TABLE_ORDER
    if not big:
        # slot j of a lane holds c_j, and its index is sum(c_j * W_j), W_j
        # the order of the factors after j: its place in elements() order
        slots, weight = [(0, low * rep, 1)] if k else [], 1 << k
        for m, s, o in reversed(list(zip(head, widths, offsets))):
            if m > 1:
                slots.append((o, ((1 << s) - 1) * rep, weight))
            weight *= m
        compact = any(1 << o != w for o, _, w in slots)  # else a lane is its own index
        step = words if sys.byteorder == "little" else -words  # each lane's low word, in order

    def row(i: int, diff: bool) -> Iterable:
        # sums: a + b over the lanes from i + skip on; differences:
        # a + (m - b) over every lane, lane i (a - a = 0) then cut out
        shift = 0 if diff else 8 * lane * (i + skip)
        row = packed[i] * (rep >> shift) + ((mods - lanes if diff else lanes) >> shift)
        raised = row + (lift >> shift) & flags
        over = 0
        for s, f in by_width:
            f &= raised
            over |= f - (f >> s)
        row -= over & mods
        if k:
            row ^= bits >> shift  # a's bits, added by the product, XOR b's
        if diff:
            row = row & (1 << 8 * lane * i) - 1 | row >> 8 * lane * (i + 1) << 8 * lane * i
        size = (n - 1 if diff else n - i - skip) * lane
        if big:
            keys = memoryview(row.to_bytes(size, "little")).cast("Q")
            return keys if words == 1 else zip(*[iter(keys)] * words)
        if compact:
            row = sum((row >> o & mask) * w for o, mask, w in slots)
        return memoryview(row.to_bytes(size, sys.byteorder)).cast("Q")[::step]

    def first_repeated_key(diff: bool) -> tuple | None:
        # (earlier row, later row, key) of the first repeat, or None
        seen = set() if big else bytearray(order)
        for i in range(n if diff else n - skip):
            if big:  # rows 0 to i hold (i + 1)(n - 1) differences or their sums
                seen.update(row(i, diff))
                if len(seen) != (i + 1) * (2 * n - 2 if diff else 2 * (n - skip) - i) // 2:
                    later = set(row(i, diff))  # the repeat: its first key that an earlier row shares
                    owner = {key: r for r in range(i) for key in later.intersection(row(r, diff))}
                    key = next(key for key in row(i, diff) if key in owner)
                    return owner[key], i, key
                continue
            for key in row(i, diff):
                if seen[key]:
                    return next(r for r in range(i) if key in row(r, diff)), i, key
                seen[key] = 1
        return None

    def element(i: int, key: Hashable) -> int:
        # the index of b where row i holds the key: rows of differences skip b = a
        c = list(row(i, diff)).index(key)
        return c + (c >= i) if diff else i + skip + c

    for diff in (False, True)[: 2 - skip]:  # sums decide; differences name a Sidon witness
        repeat = first_repeated_key(diff)
        if repeat is None:
            return None
    first, last, key = repeat
    return (first, element(first, key)), (last, element(last, key))


def verify_sidon_sums(seq: SidonSequence) -> Collision | None:
    """First collision among pairwise sums, repetition allowed, if any."""
    add = seq.group.add
    return first_collision(
        (add(a, b), (a, b)) for a, b in combinations_with_replacement(seq.elements, 2)
    )


def verify_weak_sidon(seq: SidonSequence) -> Collision | None:
    """Like verify_sidon_sums but only sums of two distinct elements."""
    return collision_at(first_repeat(seq.group.moduli, seq.elements, skip=1), seq.elements, seq.group.add)


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

    Depth-first over the other elements in sorted order, each difference a
    bit of an int at its rank: the index of the element it equals taken from
    the identity.  A node keeps its used differences and, in order, the
    later candidates that can still join, each with the differences it would
    bring; choosing one drops only those it rules out for good.  A branch is
    cut when the candidates left, or the unused differences, are too few to
    beat the best: k more members bring k(2d + k - 1) new differences to d.
    A set has a translate with its lowest-ranked difference second, so the
    branch on a second member c uses no rank below c.  The smallest maximum
    has it second, or that translate would be smaller, so it is still the
    first maximum found.  Stops early at the counting bound.
    """
    items = sorted(elements)
    upper_bound = sidon_upper_bound(len(items))
    items.remove(identity)
    items.insert(0, identity)
    rank = {diff(a, identity): i for i, a in enumerate(items)}
    bits = [[1 << rank[diff(a, b)] for b in items] for a in items]
    # pair[c][y]: the bits of c - y and y - c, or 0 when the two coincide
    pair = [[0 if cy == yc else cy | yc for cy, yc in zip(row, col)] for row, col in zip(bits, zip(*bits))]
    usable = sum(1 << y for y, ab in enumerate(pair[0]) if ab)  # nonzero, not of order 2
    chosen = [0]
    best = [0]

    def extend(used: int, admissible: list[tuple[int, int]]) -> bool:
        depth = len(chosen)
        if depth > len(best):
            best[:] = chosen
            if depth == upper_bound:
                return True
        k = len(best) + 1 - depth
        if k * (2 * depth + k - 1) > (usable & ~used).bit_count():
            return False  # too few unused differences for k more members
        for pos, (c, cmask) in enumerate(admissible):
            if depth + len(admissible) - pos <= len(best):
                break  # cannot beat the best even taking every candidate left
            row, used_c = pair[c], used | cmask
            if depth == 1:
                used_c |= (1 << c) - 1  # c is the lowest-ranked difference
            chosen.append(c)
            if extend(used_c, [(y, ymask | ab) for y, ymask in admissible[pos + 1 :] for ab in [row[y]]
                               if ab and not ((ab | ymask) & used_c or ab & ymask)]):
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
