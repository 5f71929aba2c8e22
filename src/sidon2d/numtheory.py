"""Small integer helpers shared across the package."""

from __future__ import annotations

import reprlib
from itertools import chain, islice
from typing import Any, Iterator

_INT = frozenset([int])


def as_ints(value: Any, what: str, *lengths: int | None) -> Any:
    """Read outside data as exact ints, converting nothing.

    With no lengths the value itself must be an int.  Each length asks
    for one level of nesting: an iterable of that many items (None: any
    number), returned as a tuple.  Bools, floats, numeric strings, wrong
    nesting and wrong lengths raise ValueError("malformed <what>: ...")
    quoting the offending level.  This is the package's one reader of
    integers from JSON, argv and library arguments.
    """
    kind = type(value)
    if kind is int and not lengths:  # the common case first
        return value
    if lengths:
        try:
            items = value if kind is tuple else tuple(value)
        except TypeError:
            pass  # not iterable
        else:
            n = lengths[0]
            if n is None or n == len(items):
                if len(lengths) == 1:
                    for c in items:
                        if type(c) is not int:  # bools fail: their type is bool
                            break
                    else:
                        return items
                else:
                    try:  # rows of ints: converted and checked in bulk
                        rows = tuple(map(tuple, items))
                    except TypeError:
                        rows = None
                    m = lengths[1]
                    if rows is not None and (m is None or {*map(len, rows)} <= {m}):
                        if _INT.issuperset(map(type, chain.from_iterable(rows))):
                            return rows
                    # one item at a time, which raises naming the first bad one
                    # (a loop: a comprehension would cost every call two cells)
                    out = []
                    for v in items:
                        out.append(as_ints(v, what, *lengths[1:]))
                    return tuple(out)
    words = ["pairs of" if n == 2 else "lists of" if n is None else f"lists of {n}" for n in lengths]
    expected = " ".join(["a", *words, "integers"]).replace("s of", " of", 1) if lengths else "an integer"
    raise ValueError(f"malformed {what}: expected {expected}, got {reprlib.repr(value)}")


def at_most(cap: int, items: Any, error: str) -> Any:
    """The items, refused with ValueError(error) when there are more than
    cap of them, counted before any item is read.  An iterable without a
    length is read up to item cap + 1 only; a value that is not iterable
    is returned as it is, for as_ints to name."""
    if not hasattr(items, "__len__"):
        try:
            items = tuple(islice(items, cap + 1))
        except TypeError:
            return items
    if len(items) > cap:
        raise ValueError(error)
    return items


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    g, u, _ = xgcd(a, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return u % m


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None when n is not a prime power."""
    if n < 2:
        return None
    factors = factorize(n)
    if len(factors) != 1:
        return None
    ((p, k),) = factors.items()
    return p, k


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n as non-increasing tuples."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)
