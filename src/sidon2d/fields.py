"""Finite fields GF(p^k) with table-based arithmetic.

Elements are plain ints: the element with coefficient vector
(c0, c1, ..., c_{k-1}) -- c0 the constant term -- is encoded as
sum(ci * p**i).  Powers and discrete logs read an exp table built once
per field and a log table built on first use, 4 bytes an entry, so
construction costs O(q) and the arithmetic afterwards O(1) per operation.

The reducing polynomial and the generator are chosen deterministically:
the modulus is the first irreducible monic polynomial and the generator
the first primitive element, both in lexicographic order of the
coefficient vector with the constant term most significant.  Two fields
built with the same (p, k) therefore agree element for element.

The exp table steps through the powers of the generator on integer
codes, never on coefficient lists (Lidl-Niederreiter, *Finite Fields*,
ch. 10).  Multiplication by the generator is GF(p)-linear, so its image
of every value of a chunk of base-p digits is looked up in a table made
once per field.  The running power is kept as an int with one bit slot
per digit, wide enough that the images of the three chunks add up
without carries; one lookup per chunk yields both the next power, in
slots, and the integer code of the current one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import cached_property, lru_cache

from .numtheory import Record, as_ints, factorize, is_prime, modinv, xgcd

# Table construction is O(q); keep q sane.  Every admitted order builds both
# tables in under 1 s on a 2-vCPU Xeon VM with CPython 3.11, best of 5: the
# slowest are GF(1021^2) (exp + log, 0.51 + 0.15 s) and GF(2^20) (0.33 + 0.11 s).
ORDER_LIMIT = 1 << 20


def check_order(p: int, k: int = 1) -> int:
    """The order p**k of GF(p^k), for p >= 2 and k >= 1, refused over
    ORDER_LIMIT by plain arithmetic: callers check it before any trial
    division of p or table build."""
    # p**k >= 2**k, so a k over 64 is over the limit; up to it, p**k of a p
    # within the limit has at most 1,280 bits
    if p > ORDER_LIMIT or k > 64 or p**k > ORDER_LIMIT:
        order = p**k if k <= 64 else f"{p}^{k}"
        raise ValueError(f"field order {order} exceeds limit {ORDER_LIMIT}")
    return p**k


# ---------------------------------------------------------------------------
# polynomial helpers (dense coefficient lists, constant term first)


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo g over GF(p).  g must be nonzero."""
    f = [c % p for c in f]
    _poly_trim(f)
    dg = len(g) - 1
    lead_inv = modinv(g[-1], p)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        scale = f[-1] * lead_inv % p
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - scale * c) % p
        _poly_trim(f)
    return f


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    return _poly_rem(prod, list(mod), p)


def _poly_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _poly_rem(list(base), list(mod), p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod, p)
        acc = _poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(coeffs: Sequence[int], p: int, k: int) -> bool:
    """Whether x^k + sum(coeffs[i] * x^i) is irreducible over GF(p)."""
    if k == 1:
        return True
    # cheap root checks: a root at 0 or 1 gives a linear factor
    if coeffs[0] == 0:
        return False
    if (1 + sum(coeffs)) % p == 0:
        return False
    f = list(coeffs) + [1]
    # f is irreducible iff x^(p^k) == x mod f and, for every prime r | k,
    # x^(p^(k/r)) - x shares no factor with f
    t = [0, 1]
    minus_x = {}  # step -> x^(p^step) - x mod f
    for step in range(1, k + 1):
        t = _poly_powmod(t, p, f, p)
        u = t + [0] * (2 - len(t))
        u[1] = (u[1] - 1) % p
        minus_x[step] = _poly_trim(u)
    if minus_x[k]:
        return False
    return all(len(_poly_gcd(f, minus_x[k // r], p)) == 1 for r in factorize(k))


def _find_generator(p: int, k: int, mod: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of the first primitive element of GF(p)[x]/(mod)."""
    q = p**k
    prime_divs = list(factorize(q - 1)) if q > 2 else []
    for cand in itertools.product(range(p), repeat=k):
        if not any(cand):
            continue
        if all(
            _poly_trim(_poly_powmod(cand, (q - 1) // r, mod, p)) != [1]
            for r in prime_divs
        ):
            return cand
    # unreachable: the multiplicative group of a field is cyclic
    raise RuntimeError(f"no primitive element found in GF({q})")


def _power_codes(p: int, k: int, mod: Sequence[int], gen: Sequence[int]) -> memoryview:
    """Codes of gen^0, ..., gen^(q-2), read-only, 4 bytes each; raises unless gen^(q-1) == 1."""
    q = p**k
    exp = memoryview(bytearray(4 * q)).cast("I")  # and gen^(q-1), to check it is 1
    if k == 1:
        g, cur = gen[0], 1
        for i in range(q):
            exp[i] = cur
            cur = cur * g % p
    else:
        # Three chunks of c digits (the last may be short or empty), each
        # digit in a w-bit slot that holds a sum of three reduced digits.
        # Every admitted order then needs tables of at most 2^15 entries,
        # the largest for GF(7^7).
        c = -(-k // 3)
        w = (3 * (p - 1)).bit_length()
        code_bits = (q - 1).bit_length()
        images = [_poly_mulmod([0] * i + [1], gen, mod, p) for i in range(k)]
        tables = []
        for lo in range(0, 3 * c, c):
            digits = range(lo, min(lo + c, k))
            # image of every base-p value of the chunk, reduced mod p
            vecs = [(0,) * k]
            for i in digits:
                v = images[i] + [0] * (k - len(images[i]))
                vecs = [tuple((a + d * b) % p for a, b in zip(u, v)) for d in range(p) for u in vecs]
            entries = [
                sum(a << j * w for j, a in enumerate(u)) << code_bits | x * p**lo
                for x, u in enumerate(vecs)
            ]
            # the same entries indexed by the chunk's slots, whose digits
            # are reduced mod p only by this lookup
            index = [0]
            for t in range(len(digits)):
                index = [r + s % p * p**t for s in range(1 << w) for r in index]
            tables.append([entries[x] for x in index])
        t0, t1, t2 = tables
        shift1, shift2 = c * w, 2 * c * w
        mask, code_mask = (1 << c * w) - 1, (1 << code_bits) - 1
        cur = 1  # the slots of gen^0
        for i in range(q):
            t = t0[cur & mask] + t1[cur >> shift1 & mask] + t2[cur >> shift2]
            exp[i] = t & code_mask
            cur = t >> code_bits
    if exp[q - 1] != 1:
        raise RuntimeError(f"the powers of the generator of GF({q}) do not return to 1")
    return exp[: q - 1].toreadonly()


# ---------------------------------------------------------------------------


class Field(Record):
    """GF(p^k) with an exp table built once and a log table built on first use.

    ``modulus`` is the coefficient vector (c0, ..., c_{k-1}) of the canonical
    reducing polynomial x^k + c_{k-1} x^{k-1} + ... + c0 (see module docstring).
    """

    _fields = ("p", "k", "modulus")

    def __init__(self, p: int, k: int = 1):
        # a p over the limit is refused by check_order, not a trial division
        if as_ints(p, "field characteristic") <= ORDER_LIMIT and not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if as_ints(k, "extension degree") < 1:
            raise ValueError(f"extension degree must be positive, got {k}")
        order = check_order(p, k)
        self.p = p
        self.k = k
        self.order = order
        # every degree has an irreducible polynomial, so this finds one;
        # for k >= 2 one with c0 = 0 is divisible by x, so c0 starts at 1
        candidates = itertools.product(range(1 if k > 1 else 0, p), *[range(p)] * (k - 1))
        self.modulus: tuple[int, ...] = next(c for c in candidates if _is_irreducible(c, p, k))
        mod = list(self.modulus) + [1]
        exp = _power_codes(p, k, mod, _find_generator(p, k, mod))
        seen = bytearray(order)  # the codes among the powers: all but 0
        for v in exp:
            seen[v] = 1
        if seen.count(0) != 1:
            raise RuntimeError(f"the generator of GF({order}) does not have order {order - 1}")
        self.generator = exp[1] if order > 2 else 1
        self.exp_table = exp

    @cached_property
    def log_table(self) -> memoryview:
        """log_table[exp_table[i]] = i, built on first use; entry 0 stands for no log."""
        log = memoryview(bytearray(4 * self.order)).cast("I")
        for i, v in enumerate(self.exp_table):
            log[v] = i
        return log.toreadonly()

    # -- element plumbing ---------------------------------------------------

    def _check(self, x: int) -> int:
        if not 0 <= as_ints(x, "field element") < self.order:
            raise ValueError(f"{x!r} is not an element of GF({self.order})")
        return x

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Coefficient vector of x, constant term first."""
        self._check(x)
        out = []
        for _ in range(self.k):
            x, c = divmod(x, self.p)
            out.append(c)
        return tuple(out)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._digitwise(self._check(a), self._check(b), 1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(self._check(a), self._check(b), -1)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b in GF(p)^k: each base-p digit of the codes, mod p;
        when p = 2 that is the bitwise XOR, whatever the sign."""
        if self.p == 2:
            return a ^ b
        p, out, unit = self.p, 0, 1
        for _ in range(self.k):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += (ca + sign * cb) % p * unit
            unit *= p
        return out

    def pow(self, a: int, e: int) -> int:
        self._check(a), as_ints(e, "exponent")
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        n = self.order - 1
        return self.exp_table[self.log_table[a] * e % n]

    def log(self, x: int, base: int | None = None) -> int:
        """Discrete log of x, to the field generator unless a base is given."""
        self._check(x)
        if x == 0:
            raise ValueError("0 has no discrete logarithm")
        lx = self.log_table[x]
        if base is None:
            return lx
        self._check(base)
        if base == 0:
            raise ValueError("0 is not a valid logarithm base")
        lb = self.log_table[base]
        n = self.order - 1
        # solve t * lb == lx (mod n)
        g, _, _ = xgcd(lb, n)
        if lx % g:
            raise ValueError(f"{x} is not a power of {base}")
        m = n // g
        return lx // g * modinv(lb // g, m) % m

    # -- multiplicative structure -------------------------------------------

    def is_primitive(self, x: int) -> bool:
        return x != 0 and math.gcd(self.log_table[self._check(x)], self.order - 1) == 1

    def primitive_or_generator(self, alpha: int | None, name: str) -> int:
        """alpha, checked to be primitive; the generator when alpha is None."""
        if alpha is None:
            return self.generator
        if not self.is_primitive(alpha):
            raise ValueError(f"{name} = {alpha} is not primitive in GF({self.order})")
        return alpha

    def primitive_elements(self) -> list[int]:
        return [x for x in range(1, self.order) if self.is_primitive(x)]

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field({self.p}, {self.k})"

    def __reduce__(self) -> tuple:
        # the table buffers do not pickle: a copy is the canonical field
        return make_field, (self.p, self.k)


@lru_cache(maxsize=None, typed=True)
def make_field(p: int, k: int = 1) -> Field:
    """Cached constructor for the canonical GF(p^k); typed, so that a
    bool misses the entry of the int it equals and is rejected."""
    return Field(p, k)
