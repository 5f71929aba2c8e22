"""Finite field arithmetic, checked against a naive polynomial oracle."""

import copy
import itertools
import math
import pickle
import random

import pytest

from sidon2d import Field, fields, make_field
from sidon2d.fields import _poly_mulmod, _poly_powmod, _poly_trim
from sidon2d.numtheory import factorize, prime_power


def code(p: int, coeffs) -> int:
    """The integer code of a coefficient vector, constant term first."""
    return sum(c * p**i for i, c in enumerate(coeffs))


def naive_mul(field: Field, a: int, b: int) -> int:
    """Schoolbook polynomial product reduced by the field's monic modulus.

    Independent of the exp/log tables: works directly on coefficient
    vectors, so it cross-checks the table construction.
    """
    p, k = field.p, field.k
    ca, cb = field.coeffs(a), field.coeffs(b)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] = (prod[i + j] + x * y) % p
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i, m in enumerate(field.modulus):
                prod[deg - k + i] = (prod[deg - k + i] - c * m) % p
    return code(p, prod[:k])


def table_mul(field: Field, a: int, b: int) -> int:
    """The product by the field's tables: exp[log a + log b]."""
    if a == 0 or b == 0:
        return 0
    return field.exp_table[(field.log(a) + field.log(b)) % (field.order - 1)]


def oracle_tables(p: int, k: int, modulus) -> tuple[int, list[int], list]:
    """Generator, exp table and log table by coefficient-list stepping.

    The generator is the first candidate in coefficient order none of whose
    (q-1)/r-th powers is 1; the exp table multiplies it in one polynomial
    product and reduction per power.  Independent of the integer-coded
    build the field uses.
    """
    q = p**k
    mod = list(modulus) + [1]
    prime_divs = list(factorize(q - 1)) if q > 2 else []
    gen = next(
        cand
        for cand in itertools.product(range(p), repeat=k)
        if any(cand)
        and all(_poly_trim(_poly_powmod(cand, (q - 1) // r, mod, p)) != [1] for r in prime_divs)
    )
    exp = [0] * (q - 1)
    cur = [1]
    for i in range(q - 1):
        exp[i] = sum(c * p**j for j, c in enumerate(cur))
        cur = _poly_mulmod(cur, gen, mod, p)
    assert _poly_trim(cur) == [1]
    log: list = [None] * q
    for i, v in enumerate(exp):
        log[v] = i
    return (exp[1] if q > 2 else 1), exp, log


def assert_tables_match_oracle(f: Field) -> None:
    generator, exp, log = oracle_tables(f.p, f.k, f.modulus)
    assert f.generator == generator, (f.p, f.k, f.modulus)
    assert f.exp_table.tolist() == exp, (f.p, f.k, f.modulus)
    assert f.log_table.tolist()[1:] == log[1:], (f.p, f.k, f.modulus)  # 0 has no log


# -- frozen small-field facts ----------------------------------------------


def test_gf7_tables():
    f = Field(7)
    assert f.generator == 3
    assert f.exp_table.tolist() == [1, 3, 2, 6, 4, 5]
    assert f.log(6) == 3
    assert f.log(1) == 0


def test_gf2_is_degenerate_but_valid():
    f = Field(2)
    assert f.generator == 1
    assert f.exp_table.tolist() == [1]
    assert f.log(1) == 0
    assert f.add(1, 1) == 0


def test_gf4_canonical_modulus():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert Field(2, 2).modulus == (1, 1)


def test_gf8_canonical_modulus():
    # first irreducible cubic in constant-first lexicographic order
    assert Field(2, 3).modulus == (1, 0, 1)  # x^3 + x^2 + 1


def test_gf9_tables():
    f = Field(3, 2)
    assert f.modulus == (1, 0)  # x^2 + 1
    assert f.coeffs(f.generator) == (1, 1)  # x + 1 generates
    powers = [f.coeffs(v) for v in f.exp_table]
    assert powers == [
        (1, 0), (1, 1), (0, 2), (1, 2), (2, 0), (2, 2), (0, 1), (2, 1),
    ]
    assert f.log(2) == 4  # element 2 is -1, the unique order-2 element


def test_gf25_and_gf27_canonical_moduli():
    assert Field(5, 2).modulus == (1, 1)  # x^2 + x + 1
    assert Field(3, 3).modulus == (1, 0, 2)  # x^3 + 2x^2 + 1


# -- table multiplication vs. the polynomial oracle --------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_mul_matches_naive_oracle_exhaustively(p, k):
    f = Field(p, k)
    for a in range(f.order):
        for b in range(f.order):
            assert table_mul(f, a, b) == naive_mul(f, a, b)


def test_mul_matches_naive_oracle_sampled_large():
    rng = random.Random(20260819)
    for p, k in [(2, 10), (3, 6), (7, 4), (11, 3)]:
        f = make_field(p, k)
        for _ in range(200):
            a = rng.randrange(f.order)
            b = rng.randrange(f.order)
            assert table_mul(f, a, b) == naive_mul(f, a, b)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 5), (5, 2), (61, 1)])
def test_exp_table_satisfies_the_cyclic_law(p, k):
    f = Field(p, k)
    n = f.order - 1
    exp = f.exp_table
    assert len(set(exp)) == n  # one entry per nonzero element
    for i in range(n):
        for j in range(n):
            assert naive_mul(f, exp[i], exp[j]) == exp[(i + j) % n]


def test_tables_match_oracle_for_every_canonical_field_up_to_2_12():
    built = 0
    for q in range(2, (1 << 12) + 1):
        pk = prime_power(q)
        if pk is not None:
            assert_tables_match_oracle(Field(*pk))
            built += 1
    assert built == 604  # 564 primes and 40 higher powers


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (2, 3, (1, 1, 0)),  # x^3 + x + 1
        (2, 8, (1, 0, 1, 1, 1, 0, 0, 0)),  # x^8 + x^4 + x^3 + x^2 + 1
        (3, 4, (2, 0, 0, 1)),
        (5, 3, (2, 3, 0)),
        (13, 2, (2, 1)),
    ],
)
def test_tables_match_oracle_for_explicit_moduli(p, k, modulus):
    # the table build itself works over any irreducible modulus
    assert fields._is_irreducible(modulus, p, k)
    assert modulus != Field(p, k).modulus
    mod = list(modulus) + [1]
    gen = fields._find_generator(p, k, mod)
    generator, exp, _ = oracle_tables(p, k, modulus)
    assert (code(p, gen), fields._power_codes(p, k, mod, gen).tolist()) == (generator, exp)


@pytest.mark.parametrize(
    "p,k,element,message",
    [
        (7, 1, (2,), "order"),  # 2 has order 3 in GF(7)
        (3, 2, (2, 0), "order"),  # -1 has order 2 in GF(9)
        (2, 4, (1, 1, 0, 0), "order"),  # 1 + x has order 5 under x^4 + x^3 + 1
        (7, 1, (0,), "return to 1"),  # the powers of 0 never come back
        (3, 2, (0, 0), "return to 1"),
    ],
)
def test_table_build_rejects_a_non_primitive_generator(monkeypatch, p, k, element, message):
    monkeypatch.setattr(fields, "_find_generator", lambda *_: element)
    with pytest.raises(RuntimeError, match=message):
        Field(p, k)


# -- ring axioms on coefficient arithmetic ----------------------------------


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 1), (2, 5), (7, 2)])
def test_addition_group_axioms(p, k):
    f = Field(p, k)
    for a in range(f.order):
        neg = f.sub(0, a)
        assert f.add(a, neg) == 0
        assert f.add(a, 0) == a
        assert neg == code(p, [-x % p for x in f.coeffs(a)])
        for b in range(f.order):
            assert f.add(a, b) == f.add(b, a)
            assert f.sub(a, b) == f.add(a, f.sub(0, b))
            assert f.add(a, b) == code(p, [(x + y) % p for x, y in zip(f.coeffs(a), f.coeffs(b))])
            assert f.sub(a, b) == code(p, [(x - y) % p for x, y in zip(f.coeffs(a), f.coeffs(b))])


def test_distributivity_sampled():
    f = make_field(3, 4)
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert table_mul(f, a, f.add(b, c)) == f.add(table_mul(f, a, b), table_mul(f, a, c))


# -- inverse, division, powers -----------------------------------------------


def test_inverse_and_division():
    f = Field(3, 2)
    for a in range(1, f.order):
        assert naive_mul(f, a, f.pow(a, -1)) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_pow_edge_cases():
    f = Field(7)
    assert f.pow(3, 0) == 1
    assert f.pow(0, 0) == 1  # empty product convention
    assert f.pow(0, 5) == 0
    assert f.pow(3, -1) == 5  # 3 * 5 = 15 = 1 mod 7
    assert f.pow(3, 6) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -2)


def test_log_with_nonstandard_base():
    f = Field(7)
    # 2 = 3^2, so log base 2 solves 2t = log(x) in Z_6
    assert f.log(4, base=2) == 2
    assert f.pow(2, f.log(4, base=2)) == 4
    assert f.log(1, base=2) == 0
    with pytest.raises(ValueError):
        f.log(3, base=2)  # 3 is not a power of 2
    with pytest.raises(ValueError):
        f.log(0)
    with pytest.raises(ValueError):
        f.log(3, base=0)


def test_element_order_and_primitivity():
    f = Field(3, 2)
    orders = sorted({8 // math.gcd(f.log(x), 8) for x in range(1, 9)})
    assert orders == [1, 2, 4, 8]  # divisors of 8 realised by a cyclic group
    prim = f.primitive_elements()
    assert len(prim) == 4  # euler_phi(8)
    assert all(f.is_primitive(x) for x in prim)
    assert f.generator in prim
    assert not f.is_primitive(1)
    assert not f.is_primitive(0)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_element_order_is_the_first_power_to_reach_one(p, k):
    # the order n // gcd(log x, n) against the first power of x that is 1
    f = Field(p, k)
    n = f.order - 1
    for x in range(1, f.order):
        e = next(e for e in itertools.count(1) if f.pow(x, e) == 1)
        assert n // math.gcd(f.log(x), n) == e
        assert f.is_primitive(x) == (e == n)


# -- construction and serialisation ------------------------------------------


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError, match="^field order 2097152 exceeds limit 1048576$"):
        Field(2, 21)  # 2^21 exceeds the order cap
    # over the cap by p or k alone: refused with no trial division of p and
    # no power p**k built
    with pytest.raises(ValueError, match="^field order 3\\^1000000000 exceeds limit 1048576$"):
        Field(3, 10**9)
    with pytest.raises(ValueError, match="^field order 1000000000000000003 exceeds limit 1048576$"):
        Field(10**18 + 3)  # prime


def test_coeffs_round_trip_and_validation():
    f = Field(3, 2)
    for x in range(f.order):
        assert code(3, f.coeffs(x)) == x
    assert f.coeffs(5) == (2, 1)  # 5 = 2 + 1*3
    with pytest.raises(ValueError):
        f.coeffs(9)
    with pytest.raises(ValueError):
        f.pow(9, 1)


def test_make_field_is_cached():
    f = Field(3, 2)
    assert make_field(3, 2) is make_field(3, 2)  # cached
    assert make_field(3, 2) == f


def test_construction_is_deterministic():
    a, b = Field(5, 2), Field(5, 2)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert a.exp_table == b.exp_table


def test_log_table_is_built_on_first_use():
    for first_use in (lambda f: f.log(3), lambda f: f.pow(3, 2), lambda f: f.is_primitive(3)):
        f = Field(5, 2)
        assert "log_table" not in vars(f)
        first_use(f)
        assert f.log_table.tolist()[1:] == oracle_tables(5, 2, f.modulus)[2][1:]
        assert f.log_table is f.log_table  # built once


def test_tables_are_read_only_buffers_of_4_byte_entries():
    f = Field(3, 2)
    for table in (f.exp_table, f.log_table):
        assert (table.format, table.itemsize, table.readonly) == ("I", 4, True)
        with pytest.raises(TypeError):
            table[1] = 0
    assert (len(f.exp_table), len(f.log_table)) == (8, 9)


def test_copies_and_pickles_are_the_canonical_field():
    f = make_field(3, 2)
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin is f
