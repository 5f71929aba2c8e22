"""The ordered pair scan, kept as the tests' reference for every
distinct-difference check.

`verify_sidon`, `is_ddc` and `is_doubly_periodic_ddc` take their
witnesses from the row kernel `groups.first_repeat`; this dict scan over
every ordered pair of distinct elements names the witness they must
agree with.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from typing import Any

from sidon2d.groups import Collision, first_collision


def first_difference_collision(
    elements: Sequence[Hashable], sub: Callable[[Any, Any], Hashable]
) -> Collision | None:
    """The first difference sub(a, b) of distinct elements that repeats,
    pairs (a, b) taken in the order of the elements, with both pairs."""
    return first_collision((sub(a, b), (a, b)) for a in elements for b in elements if a != b)
