"""The set-based exhaustive search, kept as the tests' reference.

The package numbers differences by rank on the bits of an int, drops
candidates by forward checking, searches only the translate of each set
whose second member is its lowest-ranked difference, and cuts a branch
when too few differences are left unused.  This builds the set of new
differences for every candidate at every node, searches every set with
the identity, and cuts a branch only by the number of candidates left,
so the tests can check the engine's sizes and witnesses against a
search that takes none of those shortcuts.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence


def max_distinct_difference_set(
    identity: Hashable,
    candidates: Sequence[Hashable],
    diff: Callable[[Hashable, Hashable], Hashable],
    upper_bound: int,
) -> tuple[int, tuple]:
    """Largest subset (with the identity) whose ordered differences of
    distinct members are pairwise distinct; ties break to the
    lexicographically smallest witness.

    Depth-first over candidates in their given (sorted) order, recording
    the first witness of each new size: branches are cut only when they
    cannot exceed the best size, so the first maximum found is the
    lexicographically smallest one.  Stops early at the counting bound.
    """
    best_size = 1
    best_witness: tuple = (identity,)
    chosen: list = [identity]
    used: set = set()

    def extend(start: int) -> bool:
        nonlocal best_size, best_witness
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_witness = tuple(chosen)
            if best_size == upper_bound:
                return True
        for idx in range(start, len(candidates)):
            if len(chosen) + (len(candidates) - idx) <= best_size:
                break  # cannot beat the best even taking everything left
            c = candidates[idx]
            new_diffs = set()
            for x in chosen:
                new_diffs.add(diff(c, x))
                new_diffs.add(diff(x, c))
            if len(new_diffs) < 2 * len(chosen) or new_diffs & used:
                continue
            chosen.append(c)
            used.update(new_diffs)
            done = extend(idx + 1)
            chosen.pop()
            used.difference_update(new_diffs)
            if done:
                return True
        return False

    extend(0)
    return best_size, best_witness
