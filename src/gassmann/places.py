"""Residue degrees of rational primes in a prime-degree cyclic field.

The degree-ell cyclic subfield of the q-th cyclotomic field (q prime,
q = 1 mod ell) makes the splitting behaviour a pure modular-arithmetic
question: the residue degree of p is the order of p's image in the
order-ell quotient of (Z/q)*, so it is 1 or ell.  Two independent
implementations of that order are kept side by side.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .errors import NotPrime, RamifiedPlace, SizeCapExceeded, SpecMismatch
from .rings import is_prime, primes_up_to


# The modulus search, the scan and its verification go no further than this: the
# scan sieves the primes up to its bound, and the subgroup test lists the powers mod q
SCAN_LIMIT = 10**7


def check_scan_limit(q: int, bound: int) -> None:
    """Raise SizeCapExceeded unless the modulus and the bound are within SCAN_LIMIT."""
    for name, value in (("bound", bound), ("q", q)):
        if value > SCAN_LIMIT:
            raise SizeCapExceeded(f"{name}={value} exceeds the scan limit {SCAN_LIMIT}")


def choose_modulus(ell: int) -> int:
    """Smallest prime q = 1 (mod ell), tried as q = k·ell + 1; Dirichlet guarantees one
    exists.  The least candidate ell + 1 is compared with SCAN_LIMIT before ell is
    tested, so an ell of thousands of digits never reaches Miller-Rabin."""
    q = ell + 1
    if q <= SCAN_LIMIT and not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    while q <= SCAN_LIMIT:
        if is_prime(q):
            return q
        q += ell
    raise SpecMismatch(f"no prime q = 1 mod {ell} below {SCAN_LIMIT}")


def _validate(p: int, q: int, ell: int) -> None:
    # a valid ell divides q - 1, so it is below q; comparing them first keeps a forged
    # ell of thousands of digits from reaching Miller-Rabin
    if ell >= q:
        raise SpecMismatch(f"q={q} is not 1 mod ell={ell}")
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    if not is_prime(q):
        raise NotPrime(f"q={q} is not prime")
    if (q - 1) % ell != 0:
        raise SpecMismatch(f"q={q} is not 1 mod ell={ell}")
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if p == q:
        raise RamifiedPlace(f"p={p} ramifies; the modulus prime is excluded")


def residue_degree(p: int, q: int, ell: int) -> int:
    """Power test: degree is ell unless p^((q-1)/ell) = 1 (mod q)."""
    _validate(p, q, ell)
    return _power_degree(p, q, ell)


def _power_degree(p: int, q: int, ell: int) -> int:
    return 1 if pow(p, (q - 1) // ell, q) == 1 else ell


@functools.lru_cache(maxsize=None)
def _index_ell_subgroup(q: int, ell: int) -> frozenset:
    return frozenset(pow(x, ell, q) for x in range(1, q))


def residue_degree_subgroup(p: int, q: int, ell: int) -> int:
    """Quotient-order test: membership in the unique index-ell subgroup.

    Independent of the power test; the quotient has prime order ell, so
    the image order is 1 exactly on the subgroup of ell-th powers.
    """
    _validate(p, q, ell)
    return _subgroup_degree(p, q, ell)


def _subgroup_degree(p: int, q: int, ell: int) -> int:
    return 1 if (p % q) in _index_ell_subgroup(q, ell) else ell


# the two residue-degree tests are compared on every prime up to this bound
AGREEMENT_BOUND = 10**4


def implementations_agree(ell: int, q: int, bound: int) -> tuple[int, bool]:
    """(checked_to, agree): whether the two tests give the same residue degree
    at every prime up to checked_to = min(bound, AGREEMENT_BOUND) other than q.

    The first prime goes through the public tests, which check ell, q and p, so
    ell and q are checked once per test; the sieve proved the rest prime, and
    only their degrees are compared."""
    checked_to = min(bound, AGREEMENT_BOUND)
    primes = [p for p in primes_up_to(checked_to) if p != q]
    agree = (all(residue_degree(p, q, ell) == residue_degree_subgroup(p, q, ell)
                 for p in primes[:1])
             and all(_power_degree(p, q, ell) == _subgroup_degree(p, q, ell)
                     for p in primes[1:]))
    return checked_to, agree


class ScanResult(NamedTuple):
    ell: int
    q: int
    bound: int
    primes: tuple[int, ...]  # those of residue degree ell, in increasing order
    scanned: int

    @property
    def degree_ell_count(self) -> int:
        return len(self.primes)

    @property
    def density(self) -> Fraction:
        if self.scanned == 0:
            return Fraction(0)
        return Fraction(self.degree_ell_count, self.scanned)

    @property
    def cebotarev_density(self) -> Fraction:
        return Fraction(self.ell - 1, self.ell)

    def density_gap(self) -> Fraction:
        return abs(self.density - self.cebotarev_density)


def scan_places(ell: int, q: int, bound: int, subgroup: bool = False) -> ScanResult:
    """All primes p <= bound of full residue degree ell, in increasing order, by the
    power test, or by the subgroup test where ``subgroup``.

    The ramified prime q is excluded from the scan; distinct primes mean
    each characteristic in the output is realized exactly once.
    """
    check_scan_limit(q, bound)
    # a valid ell divides q - 1 <= SCAN_LIMIT, so ell is compared with q before any
    # primality test
    if ell >= q:
        raise SpecMismatch(f"q={q} is not a prime = 1 mod {ell}")
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    if not is_prime(q) or (q - 1) % ell != 0:
        raise SpecMismatch(f"q={q} is not a prime = 1 mod {ell}")
    # ell and q are checked once, and the sieve's primes other than q need no
    # check of their own, so the degree test runs on them alone
    degree = _subgroup_degree if subgroup else _power_degree
    primes = [p for p in primes_up_to(bound) if p != q]
    return ScanResult(ell=ell, q=q, bound=bound, scanned=len(primes),
                      primes=tuple(p for p in primes if degree(p, q, ell) == ell))
