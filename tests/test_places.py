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
from gassmann.rings import primes_up_to


@pytest.mark.parametrize("ell,q", [(2, 3), (3, 7), (5, 11), (7, 29), (11, 23)])
def test_choose_modulus(ell, q):
    assert choose_modulus(ell) == q


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
    subgroup = places.residue_degree_subgroup
    monkeypatch.setattr(places, "residue_degree_subgroup",
                        lambda p, q, ell: 4 - subgroup(p, q, ell) if p == liar else
                        subgroup(p, q, ell))
    assert implementations_agree(3, 7, bound) == expected


def test_scan_is_empty_below_two():
    assert scan_places(3, 7, 1).records == ()


def test_scan_small_bound_contents():
    scan = scan_places(3, 7, 20)
    ps = [r.p for r in scan.records]
    for expected in (2, 3, 5, 17, 19):
        assert expected in ps
    assert 13 not in ps  # degree 1
    assert 7 not in ps   # ramified, excluded entirely
    assert ps == sorted(ps)
    for r in scan.records:
        assert r.degree == 3
        assert r.residue_size == r.p**3


def test_density_at_large_bound():
    scan = scan_places(3, 7, 10**5)
    assert scan.density_gap() <= Fraction(1, 50)
    assert scan.cebotarev_density == Fraction(2, 3)
    # strictly increasing, each characteristic exactly once
    ps = [r.p for r in scan.records]
    assert ps == sorted(set(ps))


def test_density_is_exact_rational():
    scan = scan_places(3, 7, 100)
    assert scan.density == Fraction(17, 24)
