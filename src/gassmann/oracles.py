"""Brute-force oracles that only the tests run.

Each function here answers a question that a production route answers
another way, by the most direct computation at hand: the Berkowitz
characteristic polynomial and the schoolbook product of polynomials, the
coset graph of any subgroup by a walk over the whole group, a plain
permutation search for graph isomorphism, the orbit expansion of a
conjugacy-class partition, and the profile of a product subgroup counted
inside the direct product.  The subgroups given by their element sets,
the untwisted subgroup, elementwise conjugation and the small readings of
certificates, spectra and graphs that only the tests make are here too.
This module may import the production modules; none of them imports it,
so the CLI never loads it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import Optional, Sequence

from . import schreier
from .certify import GassmannCertificate, ProductFamily
from .errors import EmptyGeneratorSet, SelfCheckFailed, SizeCapExceeded
from .heisenberg import ConjugacyClassTable, GroupElement, Heisenberg, TwistedSubgroup
from .rings import LinearMap, mult_matrix, size_cap
from .schreier import (DEFAULT_VERTEX_CAP, CosetGraph, IsomorphismResult, SpectrumPolynomial,
                       symmetrize_generators)


class PlainSubgroup:
    """An explicit subgroup given by its element set (center, whole group...)."""

    def __init__(self, group: Heisenberg, members: frozenset, name: str = "subgroup"):
        self.group, self.elements, self.name = group, members, name

    @property
    def size(self) -> int:
        return len(self.elements)

    def label(self) -> str:
        return self.name


def center_subgroup(group: Heisenberg) -> PlainSubgroup:
    return PlainSubgroup(group, frozenset(group.center_elements()), "center")


def whole_group(group: Heisenberg) -> PlainSubgroup:
    return PlainSubgroup(group, frozenset(group.elements), "whole-group")


def trivial_subgroup(group: Heisenberg) -> PlainSubgroup:
    return PlainSubgroup(group, frozenset([group.identity()]), "trivial")


def horizontal_subgroup(group: Heisenberg) -> TwistedSubgroup:
    """The untwisted subgroup {(x, 0, 0)}, H_f for the zero map f."""
    return TwistedSubgroup(group, LinearMap.zero(group.ring.p, group.ring.dim))


def conjugate_subgroup(g: GroupElement, sub: TwistedSubgroup) -> TwistedSubgroup:
    """g H_f g^-1, which is again twisted: f' = f - mult_matrix(b of g).

    The structural answer is verified elementwise before it is returned.
    """
    group = sub.group
    group._check(g)
    result = TwistedSubgroup(group, sub.f - mult_matrix(g[1], group.ring))
    conjugated = frozenset(group.conjugate(g, h) for h in sub.elements)
    if conjugated != result.elements:
        raise SelfCheckFailed("structural conjugate disagrees with elementwise conjugation")
    return result


def witness_class(cert: GassmannCertificate) -> Optional[int]:
    """The first class on which the certificate's two profiles differ, or None."""
    return next((i for i, (x, y) in enumerate(zip(cert.profile_h, cert.profile_k)) if x != y),
                None)


def evaluate(poly: SpectrumPolynomial, t: int) -> int:
    """The polynomial's value at t, by Horner's rule."""
    acc = 0
    for c in poly.coefficients:
        acc = acc * t + c
    return acc


def loop_count(graph: CosetGraph) -> int:
    """The loops of the graph, counted with multiplicity on every vertex's row."""
    return sum(mult for u, row in enumerate(graph.rows) for v, mult in row if u == v)


def charpoly_berkowitz(matrix: Sequence[Sequence[int]]) -> SpectrumPolynomial:
    """Division-free characteristic polynomial of an integer matrix."""
    n = len(matrix)
    if n == 0:
        return SpectrumPolynomial((1,))
    poly = [1]
    for r in range(1, n + 1):
        pivot = matrix[r - 1][r - 1]
        row = [matrix[r - 1][k] for k in range(r - 1)]
        col = [matrix[i][r - 1] for i in range(r - 1)]
        # Toeplitz column: 1, -pivot, -(row . col), -(row . A col), ...
        toep = [1, -pivot]
        vec = col[:]
        for _ in range(r - 1):
            toep.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(matrix[i][k] * vec[k] for k in range(r - 1)) for i in range(r - 1)]
        new_poly = [0] * (r + 1)
        for i, c in enumerate(poly):
            for k in range(r + 1 - i):
                new_poly[i + k] += c * toep[k]
        poly = new_poly
    return SpectrumPolynomial(tuple(poly))


def poly_mul_schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer polynomials, coefficient by coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def coset_graph_bruteforce(sub, gens: Sequence[GroupElement],
                           cap: int = DEFAULT_VERTEX_CAP) -> CosetGraph:
    """Schreier graph on the right cosets of any subgroup, by a walk over the group.

    Elements are walked in lex order; the first one seen of each coset is
    its least member, which becomes the vertex label, and the whole coset
    is found by multiplying it by every subgroup member: |G| products.
    """
    group = sub.group
    gens = symmetrize_generators(group, gens)
    if not gens:
        raise EmptyGeneratorSet("need at least one generator")
    members = sub.elements
    index = group.order // len(members)
    if index > cap:
        raise SizeCapExceeded(f"coset count {index} exceeds vertex cap {cap}")
    coset_of: dict[GroupElement, int] = {}
    vertices: list[GroupElement] = []
    for g in group.elements:
        if g in coset_of:
            continue
        vid = len(vertices)
        vertices.append(g)
        for h in members:
            coset_of[group.mul(h, g)] = vid
    if len(vertices) != index:
        raise SelfCheckFailed(f"found {len(vertices)} cosets, expected {index}")
    rows = tuple(
        tuple(sorted(Counter(coset_of[group.mul(rep, s)] for s in gens).items()))
        for rep in vertices
    )
    return CosetGraph.from_rows(group, sub.label(), gens, vertices, rows, 0)


def are_isomorphic_bruteforce(g1: CosetGraph, g2: CosetGraph,
                              cap: int = 16) -> IsomorphismResult:
    """Permutation search with adjacency pruning only, on the dense matrices."""
    if g1.n != g2.n:
        return IsomorphismResult(False, None)
    n = g1.n
    if n > cap:
        raise SizeCapExceeded(f"{n} vertices exceed brute-force cap {cap}")
    adj1, adj2 = g1.adjacency, g2.adjacency
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n

    def backtrack(v: int) -> bool:
        if v == n:
            return True
        for u in range(n):
            if used[u] or not schreier._permutation_matches(adj1, adj2, mapping, v, u):
                continue
            mapping[v] = u
            used[u] = True
            if backtrack(v + 1):
                return True
            mapping[v] = None
            used[u] = False
        return False

    if backtrack(0):
        witness = tuple(mapping)  # type: ignore[arg-type]
        if not schreier.verify_witness(adj1, adj2, witness):
            raise SelfCheckFailed("isomorphism witness does not map edges onto edges")
        return IsomorphismResult(True, witness)
    return IsomorphismResult(False, None)


def conjugacy_partition(elements, mul, inv):
    """Orbit partition of a finite group under conjugation by every element.

    Deterministic: seeds are taken in the given order, so each class is
    keyed by its minimal member and classes come out sorted by that key.
    """
    elts = list(elements)
    inverses = {g: inv(g) for g in elts}
    index: dict = {}
    classes: list[tuple] = []
    for seed in elts:
        if seed in index:
            continue
        orbit = {mul(mul(g, seed), inverses[g]) for g in elts}
        cid = len(classes)
        classes.append(tuple(sorted(orbit)))
        for member in orbit:
            index[member] = cid
    return tuple(classes), index


class ProductGroup:
    """Direct product of Heisenberg groups, for direct cross-checks only."""

    def __init__(self, factors: Sequence[Heisenberg]):
        self.factors = tuple(factors)

    @property
    def order(self) -> int:
        out = 1
        for g in self.factors:
            out *= g.order
        return out

    def mul(self, a, b):
        return tuple(g.mul(x, y) for g, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(g.inv(x) for g, x in zip(self.factors, a))

    @cached_property
    def elements(self):
        return tuple(itertools.product(*(g.elements for g in self.factors)))

    def conjugacy_partition(self, cap: Optional[int] = None):
        limit = size_cap() if cap is None else cap
        if self.order > limit:
            raise SizeCapExceeded(f"product order {self.order} exceeds cap {limit}")
        return conjugacy_partition(self.elements, self.mul, self.inv)


def product_profile_direct(fams: ProductFamily, partition_index: dict,
                           class_count: int) -> tuple[int, ...]:
    """Profile of the product subgroup counted directly, no tensor identity."""
    counts = [0] * class_count
    for combo in itertools.product(*(tuple(sorted(sub.elements)) for sub in fams.subgroups)):
        counts[partition_index[combo]] += 1
    return tuple(counts)


def product_classes_from_factors(factor_tables: Sequence[ConjugacyClassTable]):
    """Cartesian product of factor class tables as a set-of-frozensets partition."""
    partitions = []
    for combo in itertools.product(*(t.classes for t in factor_tables)):
        members = frozenset(itertools.product(*combo))
        partitions.append(members)
    return partitions
