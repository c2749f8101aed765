"""Residue degrees of rational primes in a prime-degree cyclic field.

The degree-ell cyclic subfield of the q-th cyclotomic field (q prime,
q = 1 mod ell) makes the splitting behaviour a pure modular-arithmetic
question: the residue degree of p is the order of p's image in the
order-ell quotient of (Z/q)*, so it is 1 or ell.  Two independent
implementations of that order are kept side by side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotPrime, RamifiedPlace, SpecMismatch
from .rings import is_prime, primes_up_to


@dataclass(frozen=True)
class PlaceRecord:
    p: int
    q: int
    ell: int
    degree: int
    residue_size: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "ell": self.ell,
            "degree": self.degree,
            "residue_size": str(self.residue_size),
        }


def choose_modulus(ell: int, scan_cap: int = 10**7) -> int:
    """Smallest prime q = 1 (mod ell); Dirichlet guarantees one exists."""
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    q = 2
    while q <= scan_cap:
        if q % ell == 1 and is_prime(q):
            return q
        q += 1
    raise SpecMismatch(f"no prime q = 1 mod {ell} below {scan_cap}")


def _validate(p: int, q: int, ell: int) -> None:
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
    return 1 if (p % q) in _index_ell_subgroup(q, ell) else ell


# the two residue-degree tests are compared on every prime up to this bound
AGREEMENT_BOUND = 10**4


def implementations_agree(ell: int, q: int, bound: int) -> tuple[int, bool]:
    """(checked_to, agree): whether the two tests give the same residue degree
    at every prime up to checked_to = min(bound, AGREEMENT_BOUND) other than q."""
    checked_to = min(bound, AGREEMENT_BOUND)
    agree = all(residue_degree(p, q, ell) == residue_degree_subgroup(p, q, ell)
                for p in primes_up_to(checked_to) if p != q)
    return checked_to, agree


@dataclass(frozen=True)
class ScanResult:
    ell: int
    q: int
    bound: int
    records: tuple[PlaceRecord, ...]
    scanned: int

    @property
    def degree_ell_count(self) -> int:
        return len(self.records)

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
    """All primes p <= bound of full residue degree ell, in increasing order.

    The ramified prime q is excluded from the scan; distinct primes mean
    each characteristic in the output is realized exactly once.
    """
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    if not is_prime(q) or (q - 1) % ell != 0:
        raise SpecMismatch(f"q={q} is not a prime = 1 mod {ell}")
    records = []
    scanned = 0
    for p in primes_up_to(bound):
        if p == q:
            continue
        scanned += 1
        if residue_degree(p, q, ell) == ell:
            records.append(
                PlaceRecord(p=p, q=q, ell=ell, degree=ell, residue_size=p**ell)
            )
    return ScanResult(ell=ell, q=q, bound=bound, records=tuple(records), scanned=scanned)
