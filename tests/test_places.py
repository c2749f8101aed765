import time
from fractions import Fraction

import pytest

from gassmann.errors import NotPrime, RamifiedPlace, SpecMismatch
from gassmann import places
from gassmann.places import (
    choose_modulus,
    implementations_agree,
    residue_degree,
    residue_degree_subgroup,
    scan_places,
)
from gassmann.rings import is_prime, primes_up_to


@pytest.mark.parametrize("ell,q", [(2, 3), (3, 7), (5, 11), (7, 29), (11, 23)])
def test_choose_modulus(ell, q):
    assert choose_modulus(ell) == q


def _least_modulus_by_scan(ell: int) -> int:
    """The least prime q = 1 (mod ell), found by trying every integer from 2."""
    q = 2
    while not (q % ell == 1 and is_prime(q)):
        q += 1
    return q


def test_choose_modulus_equals_the_scan_over_every_integer():
    for ell in primes_up_to(999):
        assert choose_modulus(ell) == _least_modulus_by_scan(ell)


def test_choose_modulus_past_the_scan_limit_tests_no_number(monkeypatch):
    # 10000019 is prime, and its least candidate 10000020 is past the limit 10^7, so
    # neither ell nor any integer below the limit is tested
    calls = []
    monkeypatch.setattr(places, "is_prime", lambda n: calls.append(n) or is_prime(n))
    started = time.perf_counter()
    with pytest.raises(SpecMismatch, match="no prime q = 1 mod 10000019 below 10000000"):
        choose_modulus(10000019)
    assert time.perf_counter() - started < 0.1
    assert calls == []


def test_choose_modulus_requires_prime_degree():
    with pytest.raises(NotPrime):
        choose_modulus(4)


def test_residue_degree_examples():
    assert residue_degree(2, 7, 3) == 3   # 2 mod 7 not a cube
    assert residue_degree(13, 7, 3) == 1  # 13 = 6 mod 7, and 6 is a cube
    assert residue_degree(29, 7, 3) == 1  # 29 = 1 mod 7: trivial Frobenius
    assert residue_degree(71, 7, 3) == 1


def test_residue_degree_errors():
    with pytest.raises(RamifiedPlace):
        residue_degree(7, 7, 3)
    with pytest.raises(SpecMismatch):
        residue_degree(2, 11, 3)  # 11 is not 1 mod 3
    with pytest.raises(NotPrime):
        residue_degree(4, 7, 3)


def test_power_test_and_subgroup_test_agree_to_ten_thousand():
    for ell, q in ((2, 3), (3, 7), (5, 11)):
        for p in primes_up_to(10**4):
            if p == q:
                continue
            assert residue_degree(p, q, ell) == residue_degree_subgroup(p, q, ell)


@pytest.mark.parametrize("bound, liar, expected", [
    (10**5, 9973, (10**4, False)),  # the last prime below 10^4 is compared
    (10**5, 10007, (10**4, True)),  # the first one past it is not
    (9000, 9973, (9000, True)),
    (100, 7, (100, True)),  # nor is q
])
def test_implementations_agree_compares_every_prime_up_to_the_bound(bound, liar, expected,
                                                                    monkeypatch):
    subgroup = places._subgroup_degree
    monkeypatch.setattr(places, "_subgroup_degree",
                        lambda p, q, ell: 4 - subgroup(p, q, ell) if p == liar else
                        subgroup(p, q, ell))
    assert implementations_agree(3, 7, bound) == expected


def test_a_scan_proves_ell_and_q_prime_once(monkeypatch):
    # the sieve's primes are not proved again; a public residue-degree call still
    # checks all three of ell, q and p
    calls = []
    monkeypatch.setattr(places, "is_prime", lambda n: calls.append(n) or is_prime(n))
    scan = scan_places(3, 7, 10**4)
    assert calls == [3, 7]
    calls.clear()
    residue_degree(2, 7, 3)
    residue_degree_subgroup(2, 7, 3)
    assert calls == [3, 7, 2] * 2
    assert scan_places(3, 7, 10**4, subgroup=True) == scan


@pytest.mark.parametrize("ell, q, error", [(4, 7, NotPrime), (3, 9, SpecMismatch),
                                           (3, 11, SpecMismatch)])
def test_a_scan_checks_ell_and_q(ell, q, error):
    for subgroup in (False, True):
        with pytest.raises(error):
            scan_places(ell, q, 1, subgroup)


def test_scan_is_empty_below_two():
    assert scan_places(3, 7, 1).primes == ()


def test_scan_small_bound_contents():
    scan = scan_places(3, 7, 20)
    ps = list(scan.primes)
    for expected in (2, 3, 5, 17, 19):
        assert expected in ps
    assert 13 not in ps  # degree 1
    assert 7 not in ps   # ramified, excluded entirely
    assert ps == sorted(ps)
    assert all(residue_degree(p, 7, 3) == 3 for p in ps)


def test_density_at_large_bound():
    scan = scan_places(3, 7, 10**5)
    assert scan.density_gap() <= Fraction(1, 50)
    assert scan.cebotarev_density == Fraction(2, 3)
    # strictly increasing, each characteristic exactly once
    ps = list(scan.primes)
    assert ps == sorted(set(ps))


def test_density_is_exact_rational():
    scan = scan_places(3, 7, 100)
    assert scan.density == Fraction(17, 24)
