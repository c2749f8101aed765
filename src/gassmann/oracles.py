"""Brute-force oracles that only the tests run.

Each function here answers a question that a production route answers
another way, by the most direct computation at hand: the Berkowitz
characteristic polynomial and the schoolbook product of polynomials, the
centre factorisation of rows made outside the closed form once their
action is certified, the polynomial of each coset graph of a family by
matching its blocks against H_0's under translations of the orbit index,
where Sunada's theorem gives H_0's for all and production computes that
one alone, a search of each coset graph for connectivity,
where the Burnside basis theorem reads generation off a rank, the
least coset members and the coset graph of any subgroup by a walk over
the whole group, where the closed form numbers the cosets, a plain
permutation search for graph isomorphism, the colour refinement by
(colour, multiplicity) pairs with its invariant kept whole, where the
search digests packed signatures, the orbit expansion of a
conjugacy-class partition, the profile of a product subgroup counted
inside the direct product, and the residue degree of a prime by the
subgroup of ell-th powers mod q, where the place scan takes one power.
The subgroups given by their element sets, the untwisted subgroup,
elementwise conjugation and the small readings of certificates, spectra
and graphs that only the tests make are here too.
This module may import the production modules; none of them imports it,
so the CLI never loads it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache
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


def connected(graph: CosetGraph) -> bool:
    """Whether a search from vertex 0 reaches every vertex, reading the row of
    a·p^r + t as the translate by t of reps[a], with no rows expanded: the oracle
    of heisenberg.generates, which makes every coset graph connected."""
    n, width, reps = graph.n, graph.centre_width, graph.reps
    if n == 0:
        return True
    plus = schreier._digit_sums(graph.group.ring.p, graph.rank)
    seen = bytearray(n)
    seen[0] = reached = 1
    frontier = [0]
    while frontier:
        a, t = divmod(frontier.pop(), width)
        shift = plus[t]
        for v, _ in reps[a]:
            d = v % width
            w = v - d + shift[d]
            if not seen[w]:
                seen[w] = 1
                reached += 1
                frontier.append(w)
    return reached == n


@lru_cache(maxsize=16)
def _sunada_reference(group: Heisenberg,
                      gens: tuple[GroupElement, ...]) -> tuple[tuple, SpectrumPolynomial]:
    """(blocks, product) of the family of H_f over the group's ring with these
    generators: H_0's block rows per line of schreier._characters, as _block_rows
    reads them, and schreier.char_poly of H_0's graph."""
    h0 = schreier.build_coset_graph(horizontal_subgroup(group), gens)
    p, r = group.ring.p, h0.rank
    relative = _relative_entries(h0.reps, p, r)
    blocks = tuple(_block_rows(relative, phase) for _, phase in schreier._characters(p, r))
    return blocks, schreier.char_poly(h0)


def _relative_entries(reps, p: int, r: int) -> list[list[tuple[int, int, int]]]:
    """Per representative a, its entries v = b·p^r + t as ((b - a)·p, t, multiplicity),
    b - a taken in the digit group of schreier._digit_sums, on a graph with p^r of them."""
    plus = schreier._digit_sums(p, r)
    width = len(plus)
    # minus[a][b] = b - a: plus[a] maps a's negative to 0
    minus = [plus[row.index(0)] for row in plus]
    return [[(minus[a][v // width] * p, v % width, mult) for v, mult in row]
            for a, row in enumerate(reps)]


def _block_rows(relative, phase: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """The block of the character with this phase table, row a read relative to a:
    the sorted ((b - a)·p + phase, multiplicity) of its entry at b, each phase of
    Z/p with the sum of the multiplicities of the voltages t of that phase.

    Row a of one block equals row a + x of another for every a exactly when
    the first block's entry at (a, b) is the second's at (a + x, b + x), as
    a vector of multiplicities per phase, for every a and b.
    """
    rows = []
    for entries in relative:
        acc: dict[int, int] = {}
        for base, t, mult in entries:
            key = base + phase[t]
            acc[key] = acc.get(key, 0) + mult
        rows.append(tuple(sorted(acc.items())))
    return rows


def translations(graph: CosetGraph) -> list[Optional[int]]:
    """Per line of schreier._characters, an x such that the graph's block has at (a, b)
    the entry of H_0's block at (a + x, b + x), for every a and b, or None.

    The graph is one of rank ring.dim with q representatives, compared with
    the blocks of _sunada_reference for its family, each x row by row.  A
    match relabels the block, so a graph whose every line matches has H_0's
    polynomial; over a field every line matches (Sunada's transplantation:
    ψ∘f is ψ(a·x) for one a).
    """
    p, r = graph.group.ring.p, graph.rank
    plus = schreier._digit_sums(p, r)
    relative = _relative_entries(graph.reps, p, r)
    blocks, _ = _sunada_reference(graph.group, graph.gens)
    found = []
    for (_, phase), h0_rows in zip(schreier._characters(p, r), blocks):
        rows = _block_rows(relative, phase)
        # row 0 against H_0's row x first, which rules out most x before any other row
        found.append(next((x for x, h0_row in enumerate(h0_rows) if h0_row == rows[0]
                           and all(row == h0_rows[plus[a][x]] for a, row in enumerate(rows))),
                          None))
    return found


def charpoly_by_translation(graph: CosetGraph) -> Optional[SpectrumPolynomial]:
    """H_0's polynomial where the graph has its family's shape, rank ring.dim and q
    representatives, and translations matches every line; else None."""
    ring = graph.group.ring
    if graph.rank != ring.dim or len(graph.reps) != ring.size or None in translations(graph):
        return None
    return _sunada_reference(graph.group, graph.gens)[1]


def distinct_charpolys(graphs: Sequence[CosetGraph]) -> tuple[list[tuple[int, ...]], list[int]]:
    """(distinct, charpoly_index): each distinct charpoly's coefficients once, numbered
    in order of first appearance, and each graph's charpoly by its number: the oracle
    of Sunada's theorem, by which the graphs of one family over a field have H_0's
    polynomial alone.  Each is charpoly_by_translation's, or schreier.char_poly's on
    a graph that matches no translate on some line."""
    index_of: dict[tuple, int] = {}
    charpoly_index = []
    for graph in graphs:
        poly = charpoly_by_translation(graph) or schreier.char_poly(graph)
        charpoly_index.append(index_of.setdefault(poly.coefficients, len(index_of)))
    return list(index_of), charpoly_index


def charpoly_by_centre(rows, p: int, r: int) -> SpectrumPolynomial:
    """det(tI - A) for the adjacency A of the graph with these neighbour rows,
    factored through a free (Z/p)^r action on the vertex numbers.

    schreier.check_centre certifies the action first, that p^r divides n and
    that each translation is an automorphism of A, raising SelfCheckFailed;
    then the orbit representatives' rows take char_poly's factorisation.
    r = 0 gives the dense polynomial.
    """
    width = schreier.check_centre(rows, p, r)
    return schreier._charpoly_of_reps(rows[::width], p, r)


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


def coset_minima(sub, cap: int = DEFAULT_VERTEX_CAP) -> tuple[list[GroupElement], dict]:
    """(minima, coset_of): the least member of each right coset of any subgroup, in lex
    order, and the number in that list of the coset of every group element, by a walk.

    Elements are walked in lex order; the first one seen of each coset is
    its least member, and the whole coset is found by multiplying it by
    every subgroup member: |G| products.
    """
    group = sub.group
    members = sub.elements
    index = group.order // len(members)
    if index > cap:
        raise SizeCapExceeded(f"coset count {index} exceeds vertex cap {cap}")
    coset_of: dict[GroupElement, int] = {}
    minima: list[GroupElement] = []
    for g in group.elements:
        if g in coset_of:
            continue
        vid = len(minima)
        minima.append(g)
        for h in members:
            coset_of[group.mul(h, g)] = vid
    if len(minima) != index:
        raise SelfCheckFailed(f"found {len(minima)} cosets, expected {index}")
    return minima, coset_of


def coset_graph_bruteforce(sub, gens: Sequence[GroupElement],
                           cap: int = DEFAULT_VERTEX_CAP) -> CosetGraph:
    """Schreier graph on the right cosets of any subgroup, by a walk over the group:
    vertex k is the coset whose least member is coset_minima's k-th."""
    group = sub.group
    gens = symmetrize_generators(group, gens)
    if not gens:
        raise EmptyGeneratorSet("need at least one generator")
    minima, coset_of = coset_minima(sub, cap)
    rows = tuple(
        tuple(sorted(Counter(coset_of[group.mul(rep, s)] for s in gens).items()))
        for rep in minima
    )
    return CosetGraph.from_rows(group, gens, rows, 0)


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


def refine_by_pairs(reps, colors: Sequence[int], width: int = 1) -> tuple[tuple, tuple[int, ...]]:
    """(invariant, colours) of the colour refinement that schreier._refine digests,
    with its signatures the flattened sorted (neighbour colour, multiplicity) pairs
    and its invariant kept whole: every round's sorted distinct signatures, then the
    colour histogram.  It takes the same rows, colours and orbit width, and gives the
    colours per orbit too."""
    loops = [next((mult for u, mult in row if u == a * width), 0) for a, row in enumerate(reps)]
    if width > 1:
        reps = [[(v // width, mult) for v, mult in row] for row in reps]
    rounds = []
    classes = len(set(colors))
    while True:
        signatures = []
        for a, row in enumerate(reps):
            pairs = sorted([(colors[u], mult) for u, mult in row])
            signatures.append((colors[a], loops[a], *itertools.chain.from_iterable(pairs)))
        distinct = sorted(set(signatures))
        rounds.append(tuple(distinct))
        ids = {sig: i for i, sig in enumerate(distinct)}
        colors = [ids[sig] for sig in signatures]
        if len(distinct) == classes:
            break
        classes = len(distinct)
    histogram = [0] * classes
    for c in colors:
        histogram[c] += width
    return (tuple(rounds), tuple(histogram)), tuple(colors)


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


@lru_cache(maxsize=None)
def _index_ell_subgroup(q: int, ell: int) -> frozenset:
    return frozenset(pow(x, ell, q) for x in range(1, q))


def residue_degree_subgroup(p: int, q: int, ell: int) -> int:
    """The residue degree of a prime p != q by the subgroup test, for a prime q = 1 mod
    the prime ell: membership in the unique index-ell subgroup of (Z/q)*, listed as
    the ell-th powers of all q - 1 units.  The quotient has prime order ell, so the
    image of p has order 1 exactly on that subgroup; the scan's power test never
    lists it."""
    return 1 if p % q in _index_ell_subgroup(q, ell) else ell
