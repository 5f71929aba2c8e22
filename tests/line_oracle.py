"""Bose and Singer by one discrete log per element, kept as the tests'
reference for the constructions in `sidon2d.sidon`.

The package marks the codes of the line and reads their logs off the exp
table in one pass, and takes one representative per projective point;
this takes the log of every point of the line in turn, over a subfield
found as the roots of x^q = x, so the tests can check the sequences
against it.
"""

from __future__ import annotations

import itertools

from sidon2d import Field, SidonSequence, make_field
from sidon2d.numtheory import prime_power


def _field_and_subfield(q: int, degree: int) -> tuple[Field, list[int]]:
    p, k = prime_power(q)
    field = make_field(p, k * degree)
    return field, [x for x in range(field.order) if field.pow(x, q) == x]


def bose_by_logs(q: int) -> SidonSequence:
    """The logs of beta + c over c in GF(q), in GF(q^2), modulo q^2 - 1."""
    field, subfield = _field_and_subfield(q, 2)
    beta = field.generator
    return SidonSequence.from_ints(q * q - 1, [field.log(field.add(beta, c)) for c in subfield])


def singer_by_logs(q: int) -> SidonSequence:
    """The logs of c + d * beta over every (c, d) != (0, 0) in GF(q)^2,
    in GF(q^3), reduced modulo q^2 + q + 1."""
    field, subfield = _field_and_subfield(q, 3)
    n = q * q + q + 1
    beta = field.generator
    # d * beta = beta^(log d + 1)
    multiples = {d: field.pow(beta, field.log(d) + 1) if d else 0 for d in subfield}
    values = {
        field.log(field.add(c, multiples[d])) % n
        for c, d in itertools.product(subfield, repeat=2)
        if (c, d) != (0, 0)
    }
    return SidonSequence.from_ints(n, sorted(values))
