"""Residue degrees of rational primes in a prime-degree cyclic field.

The degree-ell cyclic subfield of the q-th cyclotomic field (q prime,
q = 1 mod ell) makes the splitting behaviour a pure modular-arithmetic
question: the residue degree of p is the order of p's image in the
order-ell quotient of (Z/q)*, so it is 1 or ell.  The scan reads it off one
power, p^((q-1)/ell) mod q, the power test; the subgroup test, membership in
the ell-th powers mod q, is its oracle in ``gassmann.oracles``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NotPrime, SizeCapExceeded, SpecMismatch
from .rings import PRIME_EXACT_LIMIT, is_prime, primes_up_to


# The modulus search and the scan's bound go no further than this: the scan sieves
# the primes up to its bound, and the search tries the candidates for q
SCAN_LIMIT = 10**7


def check_scan_limit(q: int, bound: int) -> None:
    """Raise SizeCapExceeded unless the bound is within SCAN_LIMIT and q is below
    PRIME_EXACT_LIMIT, where is_prime proves a prime: the power test costs one pow
    mod q per sieved prime, whatever q is."""
    if bound > SCAN_LIMIT:
        raise SizeCapExceeded(f"bound={bound} exceeds the scan limit {SCAN_LIMIT}")
    if q >= PRIME_EXACT_LIMIT:
        raise SizeCapExceeded(f"q={q} is not below {PRIME_EXACT_LIMIT}, where is_prime "
                              "proves a prime")


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


def scan_places(ell: int, q: int, bound: int) -> ScanResult:
    """All primes p <= bound of full residue degree ell, in increasing order, by the
    power test: the degree is ell unless p^((q-1)/ell) = 1 (mod q).

    The ramified prime q is excluded from the scan; distinct primes mean
    each characteristic in the output is realized exactly once.
    """
    check_scan_limit(q, bound)
    # a valid ell divides q - 1 < PRIME_EXACT_LIMIT, so ell is compared with q before
    # any primality test
    if ell >= q:
        raise SpecMismatch(f"q={q} is not a prime = 1 mod {ell}")
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    if not is_prime(q) or (q - 1) % ell != 0:
        raise SpecMismatch(f"q={q} is not a prime = 1 mod {ell}")
    # ell and q are checked once, and the sieve's primes other than q need no
    # check of their own, so the power test runs on them alone
    exponent = (q - 1) // ell
    primes = [p for p in primes_up_to(bound) if p != q]
    return ScanResult(ell=ell, q=q, bound=bound, scanned=len(primes),
                      primes=tuple(p for p in primes if pow(p, exponent, q) != 1))
