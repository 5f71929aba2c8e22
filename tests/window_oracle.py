"""The window scan, kept as the tests' reference for the periodic check.

A pattern that passes the modular check of `is_doubly_periodic_ddc`
passes this scan too, but not the other way round: the tests use it to
show what the modular check catches that plain windows miss.
"""

from __future__ import annotations

from sidon2d.ddc import PeriodicDdc, is_ddc
from sidon2d.groups import Collision
from sidon2d.lattices import Point


def window_ddc_violation(pattern: PeriodicDdc) -> tuple[Point, Collision] | None:
    """Scan every distinct window position for a plain-DDC violation.

    The window is the shape translated by t; the dots are those of the
    doubly periodic extension falling inside it.  Shape cells enumerate
    each window position once up to periodicity.  A pattern that passes
    the modular check always passes this one; the converse is weaker
    (a window can miss a collision that straddles copies).
    """
    representative = pattern.tiling.representative
    for t in sorted(pattern.shape.points):
        window = [
            (x + t[0], y + t[1])
            for x, y in pattern.shape.points
            if representative((x + t[0], y + t[1])) in pattern.dots
        ]
        collision = is_ddc(window)
        if collision is not None:
            return t, collision
    return None
