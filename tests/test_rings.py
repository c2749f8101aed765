import itertools
import random
import time

import pytest

from gassmann.errors import DimensionMismatch, NotPrime, SizeCapExceeded, SpecMismatch
from gassmann.rings import (
    PRIME_EXACT_LIMIT,
    LinearMap,
    all_linear_maps,
    is_mult_map,
    is_prime,
    make_field,
    make_trunc_ring,
    mult_matrix,
    next_prime,
    primes_up_to,
    reduced_echelon,
)


def test_prime_helpers():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(30)[-1] == 29
    assert next_prime(31) == 37
    assert not is_prime(1) and not is_prime(561)  # Carmichael number


def test_is_prime_is_exact_below_its_stated_limit():
    # the least strong pseudoprimes to the first twelve and thirteen prime bases: the
    # thirteenth base, 41, refuses the first, and the second is the limit itself, past
    # which a number that is_prime accepts is not proved prime
    assert not is_prime(399165290221 * 798330580441)
    assert PRIME_EXACT_LIMIT == 1287836182261 * 2575672364521 and is_prime(PRIME_EXACT_LIMIT)
    assert is_prime(3317044064679887385961813)  # the largest prime below the limit


# ---------------------------------------------------------------------------
# Modulus selection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (2, 1, (0, 1)),          # degree-1 case: modulus is x
        (2, 2, (1, 1, 1)),       # x^2 + x + 1, the only irreducible quadratic
        (3, 2, (1, 0, 1)),       # x^2 + 1: no root mod 3, earlier candidates reducible
        (2, 3, (1, 0, 1, 1)),    # x^3 + x^2 + 1 precedes x^3 + x + 1 low-to-high
    ],
)
def test_smallest_irreducible_modulus(p, m, modulus):
    spec = make_field(p, m)
    assert spec.modulus == modulus


def test_modulus_is_lex_minimal_among_irreducibles():
    # independent oracle: root test on every smaller monic quadratic over GF(3)
    spec = make_field(3, 2)
    for low in itertools.product(range(3), repeat=2):
        if low >= spec.modulus[:2]:
            break
        has_root = any((x * x + low[1] * x + low[0]) % 3 == 0 for x in range(3))
        assert has_root, f"candidate {low} should be reducible"


def test_make_field_is_deterministic():
    a = make_field(5, 3)
    b = make_field(5, 3)
    assert a is b and a.modulus == b.modulus


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(6, 2)
    with pytest.raises(SizeCapExceeded):
        make_field(2, 25)
    with pytest.raises(SizeCapExceeded):
        make_field(2, 5, cap=16)
    with pytest.raises(DimensionMismatch):
        make_field(2, 0)
    with pytest.raises(NotPrime):
        make_trunc_ring(4, 2)


@pytest.mark.parametrize("make", [make_field, make_trunc_ring])
def test_the_cap_is_compared_before_the_order_is_formed(make):
    # 2^(10^8) has 30 million digits: the exponent is compared with the cap's bits
    started = time.perf_counter()
    with pytest.raises(SizeCapExceeded, match=r"= 2\^100000000 exceeds cap 1048576"):
        make(2, 10**8, cap=1 << 20)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("cap", [16.0, True, "16"])
def test_the_cap_is_an_integer(cap):
    with pytest.raises(TypeError):
        make_field(2, 2, cap=cap)


# ---------------------------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------------------------


def test_trunc_ring_products():
    ring = make_trunc_ring(2, 3)
    x = (0, 1, 0)
    assert ring.mul(x, x) == (0, 0, 1)            # x * x = x^2
    one_plus_x = (1, 1, 0)
    assert ring.mul(one_plus_x, one_plus_x) == (1, 0, 1)  # (1+x)^2 = 1 + x^2 over GF(2)
    assert ring.mul((0, 0, 1), x) == ring.zero()  # x^3 = 0 exactly


@pytest.mark.parametrize("spec", [make_field(2, 2), make_field(3, 2), make_trunc_ring(2, 3)])
def test_ring_axioms_exhaustive(spec):
    els = spec.elements
    for a in els:
        assert spec.add(a, spec.neg(a)) == spec.zero()
        assert spec.mul(a, spec.one()) == a
        for b in els:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
    for a, b, c in itertools.product(els[:5], els[:5], els[:5]):
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))


def test_field_f4_multiplication_table():
    f4 = make_field(2, 2)
    x = (0, 1)
    assert f4.mul(x, x) == (1, 1)  # x^2 = x + 1 modulo x^2+x+1


def test_ring_ops_spec_mismatch():
    f4 = make_field(2, 2)
    with pytest.raises(SpecMismatch):
        f4.add((1, 0, 0), (1, 0))
    with pytest.raises(SpecMismatch):
        f4.mul((1,), (0, 1))


# ---------------------------------------------------------------------------
# Multiplication matrices
# ---------------------------------------------------------------------------


def test_mult_matrix_trivial_cases():
    f4 = make_field(2, 2)
    assert mult_matrix(f4.zero(), f4) == LinearMap.zero(2, 2)
    assert mult_matrix(f4.one(), f4) == LinearMap.identity(2, 2)


def test_mult_matrix_of_x_over_f4():
    f4 = make_field(2, 2)
    mm = mult_matrix((0, 1), f4)
    assert mm.column(0) == (0, 1)  # x * 1 = x
    assert mm.column(1) == (1, 1)  # x * x = x + 1


@pytest.mark.parametrize("spec", [make_field(2, 2), make_field(3, 2), make_field(2, 3),
                                  make_trunc_ring(2, 3), make_field(3, 4)])
def test_mult_matrix_is_ring_homomorphism(spec):
    # exhaustive for every ring of order <= 81
    els = spec.elements
    mats = {b: mult_matrix(b, spec) for b in els}
    for b in els:
        for c in els:
            sum_mat = mats[b] + mats[c]
            assert mats[spec.add(b, c)] == sum_mat
            prod = mats[spec.mul(b, c)]
            composed = LinearMap.from_columns(
                spec.p, [mats[b].apply(mats[c].column(k)) for k in range(spec.dim)]
            )
            assert prod == composed


@pytest.mark.parametrize("spec", [make_field(2, 2), make_field(3, 2), make_trunc_ring(2, 3)])
def test_is_mult_map_round_trip(spec):
    for b in spec.elements:
        assert is_mult_map(mult_matrix(b, spec), spec) == b


def test_is_mult_map_rejects_non_multiplications():
    f4 = make_field(2, 2)
    bad = LinearMap.from_columns(2, [(0, 0), (1, 0)])
    assert is_mult_map(bad, f4) is None
    # only p^m of the p^(m^2) maps are multiplications
    images = {mult_matrix(b, f4).flatten() for b in f4.elements}
    assert len(images) == 4
    hits = sum(1 for f in all_linear_maps(f4) if is_mult_map(f, f4) is not None)
    assert hits == 4


def test_is_mult_map_identity_and_zero():
    f4 = make_field(2, 2)
    assert is_mult_map(LinearMap.identity(2, 2), f4) == f4.one()
    assert is_mult_map(LinearMap.zero(2, 2), f4) == f4.zero()


def test_mult_matrix_dimension_mismatch():
    f4 = make_field(2, 2)
    with pytest.raises(DimensionMismatch):
        mult_matrix((1, 0, 0), f4)
    with pytest.raises(DimensionMismatch):
        is_mult_map(LinearMap.zero(2, 3), f4)


def test_mult_images_span_a_subspace_of_ring_dimension():
    # exhaustive for every ring of order <= 81
    from gassmann.certify import mult_subspace_echelon

    specs = [
        make_field(p, m)
        for p in (2, 3, 5, 7)
        for m in range(1, 7)
        if p**m <= 81
    ] + [make_trunc_ring(p, j) for p in (2, 3) for j in range(1, 5) if p**j <= 81]
    for spec in specs:
        images = {mult_matrix(b, spec).flatten() for b in spec.elements}
        assert len(images) == spec.size
        assert len(mult_subspace_echelon(spec)) == spec.dim


def _span(rows, p: int, width: int) -> set:
    """Every F_p-combination of the rows, by enumeration."""
    return {tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(width))
            for coeffs in itertools.product(range(p), repeat=len(rows))}


@pytest.mark.parametrize("p, width", [(2, 5), (3, 4), (5, 3)])
def test_reduced_echelon_is_the_reduced_basis_of_the_span(p, width):
    # seeded rows, some dependent or zero: the echelon basis spans what they span, and
    # each of its rows is 1 at its pivot, 0 left of it and 0 at every other pivot
    rng = random.Random(p * 100 + width)
    for count in range(5):
        rows = [[rng.randrange(3 * p) - p for _ in range(width)] for _ in range(count)]
        echelon = reduced_echelon(rows, p)
        pivots = [pivot for pivot, _ in echelon]
        assert pivots == sorted(set(pivots))
        for pivot, row in echelon:
            assert row[pivot] == 1 and not any(row[:pivot])
            assert all(row[other] == 0 for other in pivots if other != pivot)
        span = _span([row for _, row in echelon], p, width)
        assert span == _span(rows, p, width) and len(span) == p ** len(echelon)

