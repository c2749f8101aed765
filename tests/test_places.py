import time
from fractions import Fraction

import pytest

from gassmann.errors import NotPrime, SpecMismatch
from gassmann import places
from gassmann.oracles import residue_degree_subgroup
from gassmann.places import choose_modulus, scan_places
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
    primes = scan_places(3, 7, 100).primes
    assert 2 in primes  # 2 mod 7 not a cube
    assert 13 not in primes  # 13 = 6 mod 7, and 6 is a cube
    assert 29 not in primes  # 29 = 1 mod 7: trivial Frobenius
    assert 71 not in primes
    assert [residue_degree_subgroup(p, 7, 3) for p in (2, 13, 29, 71)] == [3, 1, 1, 1]


def test_power_test_and_subgroup_test_agree_to_ten_thousand():
    # the scan's power test against the oracle's subgroup test, on every prime up to
    # 10^4 other than q
    for ell, q in ((2, 3), (3, 7), (5, 11)):
        expected = tuple(p for p in primes_up_to(10**4)
                         if p != q and residue_degree_subgroup(p, q, ell) == ell)
        assert scan_places(ell, q, 10**4).primes == expected


def test_a_scan_proves_ell_and_q_prime_once(monkeypatch):
    # the sieve's primes are not proved again
    calls = []
    monkeypatch.setattr(places, "is_prime", lambda n: calls.append(n) or is_prime(n))
    scan_places(3, 7, 10**4)
    assert calls == [3, 7]


@pytest.mark.parametrize("ell, q, error", [(4, 7, NotPrime), (3, 9, SpecMismatch),
                                           (3, 11, SpecMismatch)])
def test_a_scan_checks_ell_and_q(ell, q, error):
    with pytest.raises(error):
        scan_places(ell, q, 1)


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
    assert all(residue_degree_subgroup(p, 7, 3) == 3 for p in ps)


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
