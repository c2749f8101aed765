"""Exact arithmetic for the finite coefficient rings used by the toolkit.

Two ring kinds are supported: the field GF(p^m) with a deterministic
modulus, and the truncated polynomial ring GF(p)[t]/t^j.  Ring elements
are plain coefficient tuples, low degree first, entries reduced into
[0, p).  Every operation is pure and every spec object is immutable, so
values can be shared freely.
"""

from __future__ import annotations

import functools
import itertools
import os
from functools import cached_property
from typing import Iterator, Optional, Union

from .errors import DimensionMismatch, NotPrime, SizeCapExceeded, SpecMismatch

DEFAULT_SIZE_CAP = 1 << 20
CAP_ENV_VAR = "GASSMANN_SIZE_CAP"

# Rings up to this order get dict-backed add/neg/mul tables; the brute-force
# modules hammer ring arithmetic hard enough that this pays off.
_TABLE_LIMIT = 512

Element = tuple[int, ...]


def size_cap() -> int:
    """Ring-size cap; override with the GASSMANN_SIZE_CAP env variable."""
    raw = os.environ.get(CAP_ENV_VAR)
    return int(raw) if raw else DEFAULT_SIZE_CAP


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base of _MR_WITNESSES (3.3e24): below it
# is_prime is exact, so a number it accepts there is proved prime
PRIME_EXACT_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first thirteen prime bases: exact below PRIME_EXACT_LIMIT,
    and a probable-prime test past it, where it only steers the search for a charpoly
    modulus (schreier._modulus checks the roots and pivots it relies on).  Twelve
    bases are exact only below 3.2e23: 318665857834031151167461 passes them all."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, n + 1, p)))
    return [i for i, alive in enumerate(sieve) if alive]


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    while not is_prime(k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Ring specs
# ---------------------------------------------------------------------------


class _RingOps:
    """Shared coefficient-vector arithmetic; subclasses fix the product.

    A spec is equal to, and hashes as, a spec of its own kind with the same
    fields, ``_key``: specs key the caches of groups, echelon bases and
    transversals.
    """

    p: int
    _key: tuple

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._key == self._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        return self.p**self.dim

    def zero(self) -> Element:
        return (0,) * self.dim

    def one(self) -> Element:
        return (1,) + (0,) * (self.dim - 1)

    def basis(self) -> tuple[Element, ...]:
        n = self.dim
        return tuple(tuple(1 if i == k else 0 for i in range(n)) for k in range(n))

    def element(self, coeffs) -> Element:
        vec = tuple(int(c) % self.p for c in coeffs)
        if len(vec) != self.dim:
            raise SpecMismatch(f"expected {self.dim} coefficients, got {len(vec)}")
        return vec

    def check(self, a: Element) -> None:
        if len(a) != self.dim or any(not 0 <= c < self.p for c in a):
            raise SpecMismatch(f"{a!r} is not an element of {self!r}")

    def add(self, a: Element, b: Element) -> Element:
        try:
            return self._add_table[a, b]
        except KeyError:
            raise SpecMismatch(f"{a!r}, {b!r} not both in {self!r}") from None

    def neg(self, a: Element) -> Element:
        try:
            return self._neg_table[a]
        except KeyError:
            raise SpecMismatch(f"{a!r} is not an element of {self!r}") from None

    def mul(self, a: Element, b: Element) -> Element:
        try:
            return self._mul_table[a, b]
        except KeyError:
            raise SpecMismatch(f"{a!r}, {b!r} not both in {self!r}") from None

    def _add_raw(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _neg_raw(self, a: Element) -> Element:
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul_raw(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All ring elements in lexicographic coefficient order."""
        return tuple(itertools.product(range(self.p), repeat=self.dim))

    # The op tables are the one route of ring arithmetic: table[a, b] (or
    # table[a] for neg) is the result, and a non-element raises KeyError or
    # SpecMismatch.  Up to _TABLE_LIMIT they are dicts whose values are the
    # objects of ``elements``, so a result fed back in as a key is found by
    # identity; past it they check their arguments and compute.

    @cached_property
    def _add_table(self):
        return self._table(self._add_raw, 2)

    @cached_property
    def _neg_table(self):
        return self._table(self._neg_raw, 1)

    @cached_property
    def _mul_table(self):
        return self._table(self._mul_raw, 2)

    def _table(self, op, arity: int):
        if self.size > _TABLE_LIMIT:
            return _ComputedTable(self, op, arity)
        els = self.elements
        canonical = dict(zip(els, els))
        if arity == 1:
            return {a: canonical[op(a)] for a in els}
        return {(a, b): canonical[op(a, b)] for a in els for b in els}


class _ComputedTable:
    """An op table past _TABLE_LIMIT: each lookup checks its arguments and
    computes the result."""

    __slots__ = ("ring", "op", "arity")

    def __init__(self, ring: _RingOps, op, arity: int):
        self.ring, self.op, self.arity = ring, op, arity

    def __getitem__(self, key) -> Element:
        args = (key,) if self.arity == 1 else key
        for a in args:
            self.ring.check(a)
        return self.op(*args)


class FieldSpec(_RingOps):
    """GF(p^m) presented as GF(p)[t] modulo a fixed monic irreducible.

    The modulus is stored low degree first and is always the
    lexicographically smallest monic irreducible of degree m, so specs
    built from the same (p, m) are bit-identical.
    """

    kind = "field"

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p, self.m, self.modulus = p, m, modulus
        self._key = (p, m, modulus)

    @property
    def dim(self) -> int:
        return self.m

    def _mul_raw(self, a: Element, b: Element) -> Element:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b):
                    prod[i + k] += x * y
        # reduce top-down against the monic modulus
        mod = self.modulus
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(m):
                    prod[d - m + i] -= c * mod[i]
            prod[d] = 0
        return tuple(c % p for c in prod[:m])

    def val(self, a: Element) -> int:
        """0 for a unit, m for zero.

        In both ring kinds aR is the set of elements whose first val(a)
        coefficients vanish.
        """
        return 0 if any(a) else self.m

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"


class TruncRingSpec(_RingOps):
    """GF(p)[t]/t^j: polynomial arithmetic truncated at degree j."""

    kind = "trunc"

    def __init__(self, p: int, j: int):
        self.p, self.j = p, j
        self._key = (p, j)

    @property
    def dim(self) -> int:
        return self.j

    def _mul_raw(self, a: Element, b: Element) -> Element:
        p, j = self.p, self.j
        prod = [0] * j
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b):
                    if i + k >= j:
                        break
                    prod[i + k] += x * y
        return tuple(c % p for c in prod)

    def val(self, a: Element) -> int:
        """t-adic valuation: index of the lowest nonzero coefficient, j for zero."""
        return next((i for i, x in enumerate(a) if x), self.j)

    def __repr__(self) -> str:
        return f"TruncRingSpec(p={self.p}, j={self.j})"


RingSpec = Union[FieldSpec, TruncRingSpec]


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------


def _poly_divisible(poly: tuple[int, ...], divisor: tuple[int, ...], p: int) -> bool:
    """Exact divisibility of dense GF(p) polynomials (both monic here)."""
    rem = list(poly)
    dd = len(divisor) - 1
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top] % p
        if c:
            for i in range(dd + 1):
                rem[top - dd + i] = (rem[top - dd + i] - c * divisor[i]) % p
    return all(c % p == 0 for c in rem)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Monic degree-m polynomial has no monic factor of degree <= m // 2."""
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if _poly_divisible(poly, low + (1,), p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=m):
        candidate = low + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int) -> FieldSpec:
    return FieldSpec(p=p, m=m, modulus=_smallest_irreducible(p, m))


def power_within(p: int, e: int, limit: int) -> Optional[int]:
    """p^e if 0 <= e and p^e <= limit, else None, never forming a power longer than
    limit: for p >= 2, as check_order assures, p^e > limit once e reaches its bits."""
    power = p**e if 0 <= e < limit.bit_length() else None
    return power if power is not None and power <= limit else None


def check_order(p: int, n: int, e: int, cap: Optional[int], what: str) -> None:
    """Raise unless p is a prime, n >= 1 and p^e, the order of ``what`` of degree n
    over GF(p), is within the cap (size_cap() if None), by ``power_within``."""
    limit = size_cap() if cap is None else cap
    if not all(type(v) is int for v in (p, n, limit)):
        raise TypeError("p, the degree and the cap are integers")
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if n < 1:
        raise DimensionMismatch(f"the degree of {what} must be >= 1, got {n}")
    if power_within(p, e, limit) is None:
        raise SizeCapExceeded(f"|{what}| = {p}^{e} exceeds cap {limit}")


def make_field(p: int, m: int, cap: Optional[int] = None) -> FieldSpec:
    """GF(p^m) with the lexicographically smallest monic irreducible modulus."""
    check_order(p, m, m, cap, f"GF({p}^{m})")
    return _field_cached(p, m)


@functools.lru_cache(maxsize=None)
def _trunc_cached(p: int, j: int) -> TruncRingSpec:
    return TruncRingSpec(p=p, j=j)


def make_trunc_ring(p: int, j: int, cap: Optional[int] = None) -> TruncRingSpec:
    """GF(p)[t]/t^j with the same primality and size guards as make_field."""
    check_order(p, j, j, cap, f"GF({p})[t]/t^{j}")
    return _trunc_cached(p, j)


# ---------------------------------------------------------------------------
# Additive maps as matrices over GF(p)
# ---------------------------------------------------------------------------


class LinearMap:
    """A GF(p)-linear self-map of the ring, stored as rows over GF(p).

    Column k is the image of the k-th power-basis vector.  Maps are equal,
    and hash alike, when their p and rows are: canonical twists key classes.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows: tuple[tuple[int, ...], ...]):
        self.p, self.rows = p, rows

    def __eq__(self, other) -> bool:
        return type(other) is LinearMap and other.p == self.p and other.rows == self.rows

    def __hash__(self) -> int:
        return hash((self.p, self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, p: int, n: int) -> "LinearMap":
        return cls(p, tuple((0,) * n for _ in range(n)))

    @classmethod
    def identity(cls, p: int, n: int) -> "LinearMap":
        return cls(p, tuple(tuple(1 if i == k else 0 for k in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, p: int, cols: list[Element]) -> "LinearMap":
        n = len(cols)
        return cls(p, tuple(tuple(cols[k][i] % p for k in range(n)) for i in range(n)))

    @classmethod
    def from_flat(cls, p: int, flat: tuple[int, ...], n: int) -> "LinearMap":
        return cls(p, tuple(tuple(flat[i * n + k] % p for k in range(n)) for i in range(n)))

    def column(self, k: int) -> Element:
        return tuple(row[k] for row in self.rows)

    def flatten(self) -> tuple[int, ...]:
        return tuple(c for row in self.rows for c in row)

    def apply(self, vec: Element) -> Element:
        p = self.p
        return tuple(sum(r * v for r, v in zip(row, vec)) % p for row in self.rows)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._match(other)
        p = self.p
        return LinearMap(
            p, tuple(tuple((x + y) % p for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._match(other)
        p = self.p
        return LinearMap(
            p, tuple(tuple((x - y) % p for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def _match(self, other: "LinearMap") -> None:
        if self.p != other.p or self.dim != other.dim:
            raise DimensionMismatch(f"cannot combine {self!r} with {other!r}")

    def __repr__(self) -> str:
        return f"LinearMap(p={self.p}, rows={self.rows})"


def reduced_echelon(rows, p: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The reduced row echelon basis of the rows' span over F_p: (pivot, row) pairs in
    increasing pivot order, each row 1 at its pivot and 0 at every other pivot.  The
    basis is unique to the span, so its length is the rank."""
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        vec = [x % p for x in row]
        for pivot, basis_row in echelon:
            c = vec[pivot]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, basis_row)]
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            continue
        inv = pow(vec[pivot], -1, p)
        vec = [x * inv % p for x in vec]
        for k, (other, basis_row) in enumerate(echelon):
            c = basis_row[pivot]
            if c:
                echelon[k] = (other, [(x - c * y) % p for x, y in zip(basis_row, vec)])
        echelon.append((pivot, vec))
    return tuple(sorted((pivot, tuple(vec)) for pivot, vec in echelon))


def all_linear_maps(spec: RingSpec) -> Iterator[LinearMap]:
    """All p^(n^2) additive self-maps of the ring, in flat lexicographic order."""
    n = spec.dim
    for flat in itertools.product(range(spec.p), repeat=n * n):
        yield LinearMap.from_flat(spec.p, flat, n)


def mult_matrix(beta: Element, spec: RingSpec) -> LinearMap:
    """Matrix of y -> beta * y in the power basis.

    The map beta -> mult_matrix(beta) is an injective ring homomorphism
    into the n x n matrices over GF(p).
    """
    if len(beta) != spec.dim:
        raise DimensionMismatch(
            f"element of length {len(beta)} does not match ring dimension {spec.dim}"
        )
    spec.check(beta)
    # n products do not pay for building the q^2 multiplication table
    cols = [spec._mul_raw(beta, e) for e in spec.basis()]
    return LinearMap.from_columns(spec.p, cols)


def is_mult_map(mat: LinearMap, spec: RingSpec) -> Optional[Element]:
    """Return beta with mult_matrix(beta) == mat, or None.

    The candidate is read off the first column (the image of 1), then all
    remaining columns are verified against it.
    """
    if mat.dim != spec.dim or mat.p != spec.p:
        raise DimensionMismatch(
            f"map of dimension {mat.dim} over GF({mat.p}) vs ring {spec!r}"
        )
    beta = mat.column(0)
    return beta if mult_matrix(beta, spec) == mat else None
