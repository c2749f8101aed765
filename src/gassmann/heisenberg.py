"""The group of 3x3 upper-triangular unipotent matrices over a finite ring.

Group elements are coordinate triples (a, b, c) of ring elements standing
for the matrix [[1, a, c], [0, 1, b], [0, 0, 1]]; the group law is
evaluated on the triples by lookups in the ring's op tables.  Conjugacy classes come from a closed
form in O(|G|) with no conjugation (see ``class_key``); the orbit
expansion ``oracles.conjugacy_partition`` is its oracle.
"""

from __future__ import annotations

import functools
from functools import cached_property
from typing import Optional

from .errors import DimensionMismatch, NotClosed, SpecMismatch
from .rings import Element, LinearMap, RingSpec, check_order

GroupElement = tuple[Element, Element, Element]


class Heisenberg:
    """Group object for one coefficient ring; all operations are pure."""

    def __init__(self, ring: RingSpec):
        self.ring = ring

    def __eq__(self, other) -> bool:
        return isinstance(other, Heisenberg) and self.ring == other.ring

    def __hash__(self) -> int:
        return hash(("Heisenberg", self.ring))

    def __repr__(self) -> str:
        return f"Heisenberg({self.ring!r})"

    @property
    def order(self) -> int:
        return self.ring.size**3

    def identity(self) -> GroupElement:
        z = self.ring.zero()
        return (z, z, z)

    def _check(self, g: GroupElement) -> None:
        if len(g) != 3:
            raise SpecMismatch(f"{g!r} is not a coordinate triple")
        for comp in g:
            self.ring.check(comp)

    @cached_property
    def _tables(self) -> tuple:
        """The ring's add, mul and neg tables (see ``_RingOps``), bound once."""
        ring = self.ring
        return ring._add_table, ring._mul_table, ring._neg_table

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """(a1,b1,c1) * (a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2)."""
        add, times, _ = self._tables
        try:
            (a1, b1, c1), (a2, b2, c2) = g, h
            return (add[a1, a2], add[b1, b2], add[add[c1, c2], times[a1, b2]])
        except (KeyError, ValueError):
            raise SpecMismatch(f"{g!r}, {h!r} not both in {self!r}") from None

    def inv(self, g: GroupElement) -> GroupElement:
        """(a,b,c)^-1 = (-a, -b, -c+a*b)."""
        add, times, neg = self._tables
        try:
            a, b, c = g
            return (neg[a], neg[b], add[neg[c], times[a, b]])
        except (KeyError, ValueError):
            raise SpecMismatch(f"{g!r} is not an element of {self!r}") from None

    def conjugate(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g * h * g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """All |R|^3 elements, lexicographic on the (a, b, c) coefficients."""
        els = self.ring.elements
        return tuple((a, b, c) for a in els for b in els for c in els)

    def center_elements(self) -> tuple[GroupElement, ...]:
        z = self.ring.zero()
        return tuple((z, z, c) for c in self.ring.elements)

    def conjugacy_classes(self, cap: Optional[int] = None) -> "ConjugacyClassTable":
        check_order(self.ring.p, self.ring.dim, 3 * self.ring.dim, cap, f"H({self.ring!r})")
        return _class_table_cached(self)


@functools.lru_cache(maxsize=None)
def heisenberg_group(ring: RingSpec) -> Heisenberg:
    return Heisenberg(ring)


class ConjugacyClassTable:
    """Partition of a Heisenberg group into conjugacy classes."""

    def __init__(self, group: Heisenberg, classes, index):
        self.group = group
        self.classes = classes
        self.index = index

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def representatives(self) -> tuple[GroupElement, ...]:
        return tuple(cls[0] for cls in self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    def identity_class(self) -> int:
        return self.index[self.group.identity()]


def class_key(ring: RingSpec, g: GroupElement) -> tuple:
    """Closed-form conjugacy-class key of g = (a, b, c).

    Conjugating by (x, y, z) sends g to (a, b, c + xb - ay), so the class
    of g is (a, b, c + aR + bR).  The ideal aR + bR is the set of elements
    whose first v = min(val a, val b) coefficients vanish (0 or R over a
    field, t^v R over GF(p)[t]/t^j), so the coset is fixed by c[:v].
    """
    a, b, c = g
    return a, b, c[: min(ring.val(a), ring.val(b))]


@functools.lru_cache(maxsize=None)
def _class_table_cached(group: Heisenberg) -> ConjugacyClassTable:
    # Elements are walked in lex order and a class id opens at the first
    # sighting of its key, so ids follow the class minima and each member
    # tuple comes out sorted: the same table as oracles.conjugacy_partition.
    ring = group.ring
    ids: dict = {}
    members: list[list] = []
    index: dict = {}
    for g in group.elements:
        key = class_key(ring, g)
        cid = ids.get(key)
        if cid is None:
            cid = ids[key] = len(members)
            members.append([])
        members[cid].append(g)
        index[g] = cid
    return ConjugacyClassTable(group, tuple(map(tuple, members)), index)


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


class TwistedSubgroup:
    """H_f = {(x, 0, f(x))} for an additive self-map f of the ring."""

    def __init__(self, group: Heisenberg, f: LinearMap):
        self.group, self.f = group, f

    @cached_property
    def elements(self) -> frozenset:
        ring = self.group.ring
        zero = ring.zero()
        members = frozenset((x, zero, self.f.apply(x)) for x in ring.elements)
        if len(members) != ring.size:
            raise NotClosed("twisted subgroup lost elements; additive map broken")
        return members

    @cached_property
    def sorted_elements(self) -> tuple[GroupElement, ...]:
        return tuple(sorted(self.elements))

    @property
    def size(self) -> int:
        return self.group.ring.size

    def label(self) -> str:
        return twist_label(self.f)


def twist_label(f: LinearMap) -> str:
    """The label H[...] of the twisted subgroup H_f, which lists f's rows flattened."""
    return f"H[{','.join(map(str, f.flatten()))}]"


def twisted_subgroup(f: LinearMap, group: Heisenberg) -> TwistedSubgroup:
    """Build H_f after checking that f acts on the group's ring.

    No closure check is needed: (x, 0, f(x)) * (y, 0, f(y)) =
    (x + y, 0, f(x) + f(y)) = (x + y, 0, f(x + y)) for any additive f.
    """
    ring = group.ring
    if f.dim != ring.dim or f.p != ring.p:
        raise DimensionMismatch(
            f"map of dimension {f.dim} over GF({f.p}) does not act on {ring!r}"
        )
    return TwistedSubgroup(group, f)

