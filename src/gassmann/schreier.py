"""Schreier coset graphs, exact integer spectra, and graph isomorphism.

Cosets are right cosets Hg of a twisted subgroup H_f = {(x, 0, f(x))},
acted on by g -> gs.  The elements (0, b, c) form a transversal: the
coset of (a, b, c) holds exactly one of them, (0, b, c - f(a) - ab), which
is also its least member: vertex k = index(b)·q + index(c), by formula, and
no graph lists labels.  A generator s = (s0, s1, s2) sends the coset of
(0, b, c) to that of (0, b + s1, c + s2 - f(s0) - s0·(b + s1));
``gassmann.oracles`` keeps the walk over the group, which finds the least
members of the cosets of any subgroup, as the oracle.  The centre
Z = {(0, 0, c)} acts freely on the cosets by Hg -> Hgz, which sends
(0, b, c) to (0, b, c + z), and commutes with every generator, so a
coset graph is a regular cover.  The numbering fixes that action,
(0, 0, e) adding 1 mod p to one base-p digit of index(c), and a graph
states the rank r of the (Z/p)^r it carries.  So a graph is the
sorted neighbour rows of its q orbit representatives (0, b, 0), its
voltage graph, each other row a translate of its representative's: the
build, the characteristic polynomial, the refinement and the
non-isomorphism verdicts read those q rows alone.  All q² rows are
expanded at each read, for the search below the root, the witness checks
and the exports, and no graph keeps them; the dense adjacency matrix is a
view of them for the oracles only.  This module is the one place that
makes a graph: graphs and verify both make a family's graphs by
class_rep_graphs, which builds the catalog's class reps by
build_coset_graph in catalog order, and rows made outside the closed
form, by the oracles or in tests, enter through CosetGraph.from_rows,
where check_centre certifies every row against the translation rule in
one pass before anything reads the action.  The graphs of one ring and
generator set share their family's work, made once per (group,
generators) as the modulus is: the skeleton of the rows, into which f
enters only through f(s0), one value per distinct first coordinate s0 of
a generator, and the automorphisms that fix the generators.
A graph's characteristic polynomial has one route, char_poly: the product
of small blocks, one per orbit of characters of its free action under
Galois conjugation (the voltage-graph factorisation), each split into
blocks over Z/ℓ for one ℓ ≡ 1 (mod 2p) past a bound on the coefficients
and reduced to Hessenberg form; the block polynomials multiply by
Kronecker substitution, one big-integer product each, in a balanced tree.
Over a field every H_f has the one profile, so the graphs of a family are
cospectral (Sunada's theorem): graphs and verify ask char_poly for H_0's
graph alone.  The theorem's oracle, ``oracles.distinct_charpolys``, matches
every graph's blocks against H_0's under translations of the orbit index.
At rank 0 the same route gives the dense polynomial, an oracle like the
fraction-free integer determinants kept here; the division-free Berkowitz
route and charpoly_by_centre, the route on certified rows alone, are in
``gassmann.oracles``.
Isomorphism classes are first the orbits of the automorphisms
φ(a, b, c) = (λσ(a), μσ(b), λμσ(c)) of the group, λ and μ units and σ a
power of Frobenius, that map the generators onto themselves, found once
per family.  Such a φ maps the graph of H_f onto that of φ(H_f), and left
multiplication by (0, β, 0) maps that onto the graph of its class rep, so
each graph outside its orbit's first member gets that vertex map, four
integers, as its witness.  It commutes with the centre up to relabelling
by λμσ, so it is checked on the q representatives' rows, with no graph's
rows expanded.  Only the orbits' first members are compared: by the
digests of canonical colour-refinement invariants, cached per graph and
computed on the orbit representatives, since the colours of a refinement
from one colour are constant on the centre's orbits (one kept per
orbit), and where they agree by a search that individualises and
refines, within a budget of refinement nodes; at the root, a failed
candidate rules out its whole orbit, since the centre acts by
colour-preserving automorphisms.  A
digest collision only lets a search run, whose witness is checked.
isomorphism_classes buckets them by digest, and verify runs it again on
the first members of a report's classes.  That search over the whole
family is the orbits' oracle in the tests, and the plain permutation
search in ``gassmann.oracles`` the search's, through the dense match and
witness checks kept here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, product
from math import comb, gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .certify import canonical_twist, enumerate_class_reps
from .errors import EmptyGeneratorSet, SelfCheckFailed, SizeCapExceeded, SpecMismatch
from .heisenberg import (GroupElement, Heisenberg, TwistedSubgroup, heisenberg_group,
                         twisted_subgroup)
from .rings import LinearMap, RingSpec, check_order, is_prime, power_within

DEFAULT_VERTEX_CAP = 4096
# Refinements per isomorphism search; one between GF(8) or GF(9) coset graphs runs 9 at most.
DEFAULT_ISO_NODES = 1024

# Per vertex, its (neighbour, multiplicity) pairs in increasing neighbour order.
Rows = tuple[tuple[tuple[int, int], ...], ...]


def default_generators(group: Heisenberg) -> tuple[GroupElement, ...]:
    """Symmetric generating set from the ring's power basis.

    One generator per basis element in each of the first two coordinates,
    together with all inverses.  For a one-dimensional ring this is the
    classical pair {(1,0,0), (0,1,0)} plus inverses; the basis-indexed
    family is what actually generates the group for higher-degree rings.
    """
    ring = group.ring
    zero = ring.zero()
    gens = []
    for e in ring.basis():
        gens.append((e, zero, zero))
        gens.append((zero, e, zero))
    return symmetrize_generators(group, gens)


def symmetrize_generators(group: Heisenberg, gens: Sequence[GroupElement]):
    """Close a generator list under inverses, dedupe, sort canonically."""
    closed = set()
    for g in gens:
        group._check(g)
        closed.add(g)
        closed.add(group.inv(g))
    return tuple(sorted(closed))


class CosetGraph:
    """Right-coset multigraph of a subgroup with respect to a generator set.

    ``rank`` is the rank r of a free (Z/p)^r action on the vertex numbers,
    vertex a·p^r + t the translate by t of the orbit representative a·p^r,
    as check_centre reads it: the ring's dimension on a coset graph of H_f,
    0 where none is claimed.  ``reps`` is the graph: reps[a] lists the
    (v, multiplicity) pairs of the neighbours v of vertex a·p^r in
    increasing v, loops included, and every other row is a translate.  At
    rank 0 they are all the rows.  ``rows``, every vertex's row, is expanded
    from them at each read and not kept, for a search below the root, the
    witness checks and the exports; ``adjacency`` is the dense matrix derived
    from the rows, for the oracles only.  build_coset_graph makes the
    representatives' rows in closed form; from_rows takes rows made
    elsewhere, once check_centre has certified them.
    """

    def __init__(self, group: Heisenberg, gens: tuple[GroupElement, ...], reps: Rows, rank: int):
        self.group, self.gens, self.reps, self.rank = group, gens, reps, rank

    @classmethod
    def from_rows(cls, group: Heisenberg, gens, rows: Rows, rank: int) -> CosetGraph:
        """The graph with these rows, once check_centre has certified its rank's action.

        It raises SelfCheckFailed where a row is not the translate of its
        representative's, and keeps the representatives' rows only.
        """
        width = check_centre(rows, group.ring.p, rank)
        return cls(group, tuple(gens), tuple(rows[::width]), rank)

    @property
    def n(self) -> int:
        return len(self.reps) * self.centre_width

    @property
    def degree(self) -> int:
        return len(self.gens)

    @property
    def centre_width(self) -> int:
        """p^rank, the size of the orbits of the graph's free action."""
        return self.group.ring.p ** self.rank

    @property
    def rows(self) -> Rows:
        """Every vertex's row: each representative's own, then its translates by t = 1, 2, ..."""
        plus = _digit_sums(self.group.ring.p, self.rank)[1:]  # plus[0] is the identity
        width = self.centre_width
        return tuple(chain.from_iterable((row, *_translates(row, width, plus))
                                         for row in self.reps))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The dense n x n adjacency matrix, derived from the rows for the oracles."""
        return tuple(tuple(dict(row).get(v, 0) for v in range(self.n)) for row in self.rows)

    @cached_property
    def refinement(self) -> tuple[int, tuple[int, ...]]:
        """_refine from one colour on the representatives' rows, cached: colours per orbit."""
        return _refine(self.reps, [0] * len(self.reps), self.centre_width)

    def edge_list(self) -> list[tuple[int, int, int]]:
        """(u, v, multiplicity) with u <= v, loops included."""
        return [(u, v, mult) for u, row in enumerate(self.rows) for v, mult in row if u <= v]


def to_dot(edges: Sequence[tuple[int, int, int]], name: str = "coset_graph") -> str:
    """The graph of these CosetGraph.edge_list edges in DOT."""
    lines = [f"graph {name} {{"]
    for u, v, mult in edges:
        suffix = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_coset_graph(sub: TwistedSubgroup, gens: Sequence[GroupElement],
                      cap: int = DEFAULT_VERTEX_CAP) -> CosetGraph:
    """Schreier graph on the q² right cosets of H_f = {(x, 0, f(x))}, in closed form.

    The coset of g = (a, b, c) holds exactly one element with first
    coordinate 0, (0, b, c - f(a) - ab), which is its least member.  So
    vertex k is the coset of (0, b, c) with k = index(b)·q + index(c), ring
    elements indexed in lexicographic coefficient order, and the generator
    s = (s0, s1, s2) sends it to the coset of
    (0, b + s1, c + s2 - f(s0) - s0·(b + s1)).  c enters that target only
    additively, so the row of (0, b, c) is the translate by index(c) of the
    row of (0, b, 0), and only those q representative rows are computed and
    stored, with the ring's dimension as the rank.  f enters them only
    through f(s0), one value per distinct s0: the family's skeleton holds the
    rest, and each entry is its skeleton entry shifted by index(-f(s0)).  No
    group element is walked, and no other row is written.
    ``oracles.coset_graph_bruteforce`` labels the cosets of any subgroup by
    walking the whole group.
    """
    if not isinstance(sub, TwistedSubgroup):
        raise SpecMismatch(f"coset graphs are built for twisted subgroups H_f, "
                           f"not a {type(sub).__name__}")
    group = sub.group
    ring = group.ring
    q = ring.size
    if q * q > cap:
        raise SizeCapExceeded(f"coset count {q * q} exceeds vertex cap {cap}")
    family = _family(group, tuple(gens))
    f, neg, index = sub.f.apply, ring.neg, family.index
    plus = _digit_sums(ring.p, ring.dim)
    shifts = [plus[index[neg(f(s0))]] for s0 in family.firsts]
    return CosetGraph(group, family.gens, family.reps(shifts), ring.dim)


def check_graphs_config(p: int, m: int, cap: Optional[int]) -> None:
    """Raise unless GF(p^m) is a field within the cap whose q² cosets are within the
    vertex cap, each power compared with its bound before it is formed: graphs makes
    no field before it, and verify reads no item of a config that fails it."""
    check_order(p, m, m, cap, f"GF({p}^{m})")
    if power_within(p, 2 * m, DEFAULT_VERTEX_CAP) is None:
        raise SizeCapExceeded(f"coset count {p}^{2 * m} exceeds vertex cap {DEFAULT_VERTEX_CAP}")


def class_rep_graphs(spec: RingSpec, gens: Sequence[GroupElement],
                     cap: Optional[int] = None) -> tuple[tuple[LinearMap, ...], list[CosetGraph]]:
    """(maps, graphs): the class reps under the cap in catalog order, and graphs[k] the
    coset graph of H_f, f = maps[k], with these generators: the one route from a
    graphs config to its family, which graphs and verify both run."""
    group = heisenberg_group(spec)
    maps = enumerate_class_reps(spec, cap).reps
    return maps, [build_coset_graph(twisted_subgroup(f, group), gens) for f in maps]


class _Family:
    """The work that every coset graph of an H_f over one ring with one generator set
    shares, made once: its skeleton and the automorphisms that fix the generators,
    whose orbits orbit_classes joins.

    In the row of (0, b, 0), the generator s = (s0, s1, s2) goes to vertex
    index(b + s1)·q + index(s2 - s0·(b + s1) - f(s0)).  moves[index(b)] holds,
    per generator, (k, index(b + s1)·q, index(s2 - s0·(b + s1))) for s0 = firsts[k],
    the distinct first coordinates of the generators, which does not depend on f;
    a graph's entry is base + shifts[k][c] for the table shifts[k] =
    plus[index(-f(s0))] of _digit_sums, which adds -f(s0).
    """

    def __init__(self, group: Heisenberg, given: tuple[GroupElement, ...]):
        gens = symmetrize_generators(group, given)
        if not gens:
            raise EmptyGeneratorSet("need at least one generator")
        ring = group.ring
        q, els = ring.size, ring.elements
        add, times, neg = ring.add, ring.mul, ring.neg
        self.ring, self.gens = ring, gens
        self.index = {x: i for i, x in enumerate(els)}
        self.firsts = tuple(sorted({s0 for s0, _, _ in gens}))
        index, slot = self.index, {s0: k for k, s0 in enumerate(self.firsts)}
        self.moves = tuple(
            tuple((slot[s0], index[b1] * q, index[add(s2, neg(times(s0, b1)))])
                  for s0, s1, s2 in gens for b1 in (add(b, s1),))
            for b in els)

    def reps(self, shifts: Sequence[Sequence[int]]) -> Rows:
        """The representatives' rows of the graph whose generators with first
        coordinate firsts[k] add the shift table shifts[k] to the c-index of their
        skeleton entries; each row's sorted targets merge into (v, multiplicity)."""
        rows = []
        for moved in self.moves:
            row: list[tuple[int, int]] = []
            last = -1
            for v in sorted([base + shifts[k][c] for k, base, c in moved]):
                if v == last:
                    row[-1] = (v, row[-1][1] + 1)
                else:
                    row.append((v, 1))
                    last = v
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, int, int], ...]:
        """(e, index(λ), index(μ)) of each automorphism φ of _automorphism that maps
        the generators onto themselves, in increasing order; the identity is one."""
        _, units, frobenius = _unit_tables(self.ring)
        gens = {tuple(self.index[x] for x in s) for s in self.gens}
        found = []
        for phi in product(range(len(frobenius)), units, units):
            a, b, c = _automorphism(self.ring, *phi)
            if {(a[s0], b[s1], c[s2]) for s0, s1, s2 in gens} == gens:
                found.append(phi)
        return tuple(found)


class OrbitWitness(NamedTuple):
    """The vertex map index(b)·q + index(c) ↦ index(β + μσ(b))·q + index(λμσ(c))
    from the coset graph of H_f onto that of H_f'', f'' = f' - mult(β), where
    φ(H_f) = H_f' for the automorphism φ of _automorphism; elements by index."""
    sigma: int  # σ = x ↦ x^(p^sigma)
    lam: int
    mu: int
    beta: int


@lru_cache(maxsize=16)
def _unit_tables(ring) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...],
                                tuple[tuple[int, ...], ...]]:
    """(times, units, frobenius) on element indices: times[x][y] = index(x·y); the
    units; and, per e < ring.dim for which σ = x ↦ x^(p^e) is a bijection, its table,
    which is every e over a field and e = 0 alone over a truncated ring."""
    els = ring.elements
    index = {x: i for i, x in enumerate(els)}
    q = len(els)
    times = tuple(tuple(index[ring.mul(x, y)] for y in els) for x in els)
    units = tuple(x for x in range(q) if len(set(times[x])) == q)
    frob = list(range(q))
    for _ in range(ring.p - 1):  # x^p
        frob = [times[y][x] for x, y in enumerate(frob)]
    frobenius, table = [], tuple(range(q))
    for _ in range(ring.dim):
        if len(set(table)) == q:
            frobenius.append(table)
        table = tuple(frob[x] for x in table)
    return times, units, tuple(frobenius)


def _automorphism(ring, e: int, lam: int, mu: int) -> tuple[tuple[int, ...], ...]:
    """The tables of λσ, μσ and λμσ on element indices, for σ = frobenius[e] of
    _unit_tables and λ, μ of indices lam and mu: the coordinate maps of
    φ(a, b, c) = (λσ(a), μσ(b), λμσ(c)), a homomorphism of the group, since σ is one
    of the ring, and bijective when λ and μ are units."""
    times, _, frobenius = _unit_tables(ring)
    return tuple(tuple(times[unit][x] for x in frobenius[e])
                 for unit in (lam, mu, times[lam][mu]))


@lru_cache(maxsize=16)
def _family(group: Heisenberg, gens: tuple[GroupElement, ...]) -> _Family:
    """The family of the group and the generators as given, made once they pass
    symmetrize_generators's checks.  A set that fails them raises at every call,
    since a call that raises caches nothing."""
    return _Family(group, gens)


@lru_cache(maxsize=16)
def _digit_sums(p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """plus[t][d], t, d < p^r: the base-p digitwise sum of t and d mod p.

    It is index(c_t + c_d) for the ring elements c_t, c_d of indices t and d,
    since addition is coefficientwise and index reads the coefficients as
    base-p digits; on the vertex numbers it is the centre's translation.
    """
    digits = list(product(range(p), repeat=r))
    index = {digit: t for t, digit in enumerate(digits)}
    return tuple(tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for b in digits)
                 for a in digits)


def _translates(row, width: int, plus) -> list:
    """The rows of the translates of a vertex with this row, one per table in plus.

    The translation by t, whose table is plus[t] of _digit_sums, sends
    v = b·width + d to b·width + plus[t][d]; it maps rows onto rows when it
    is an automorphism, as check_centre requires.
    """
    entries = [(v - v % width, v % width, mult) for v, mult in row]
    return [tuple(sorted([(base + shift[d], mult) for base, d, mult in entries]))
            for shift in plus]


def check_centre(rows: Rows, p: int, r: int) -> int:
    """p^r, once the rows carry a free (Z/p)^r action by translation; else SelfCheckFailed.

    The action is the numbering's: vertex a·p^r + t is the translate by t of
    the orbit representative a·p^r, and the translation by t adds t to the
    last r base-p digits of a vertex number digitwise mod p.  The group of
    these is (Z/p)^r, acting freely; on a coset graph of H_f it is the
    centre.  Each translation is an automorphism exactly when every row is
    the translate of its representative's, which is checked in one pass.
    """
    n = len(rows)
    width = p**r
    if n % width:
        raise SelfCheckFailed(f"{n} vertices do not split into orbits of {width} under the centre")
    if width > 1:
        plus = _digit_sums(p, r)
        for a in range(0, n, width):
            if _translates(rows[a], width, plus) != list(rows[a:a + width]):
                raise SelfCheckFailed("a centre permutation is not an automorphism of the graph")
    return width


def maps_onto(rows1: Rows, rows2: Rows, perm: Sequence[int]) -> bool:
    """Whether perm is a permutation taking every edge u-v of rows1 to perm[u]-perm[v]
    of rows2 with the same multiplicity, in O(edges)."""
    n = len(rows1)
    if len(rows2) != n or sorted(perm) != list(range(n)):
        return False
    return all(
        tuple(sorted((perm[v], mult) for v, mult in row)) == rows2[perm[u]]
        for u, row in enumerate(rows1)
    )


# ---------------------------------------------------------------------------
# Exact characteristic polynomials
# ---------------------------------------------------------------------------


class SpectrumPolynomial:
    """det(tI - A) with exact integer coefficients, t^n first; polynomials are equal,
    and hash alike, when their coefficients are."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        if not coefficients or coefficients[0] != 1:
            raise SpecMismatch("characteristic polynomial must be monic")
        self.coefficients = coefficients

    def __eq__(self, other) -> bool:
        return type(other) is SpectrumPolynomial and other.coefficients == self.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free integer determinant (Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# A modulus past this many bits takes seconds to minutes to find, so a
# coefficient bound that needs one is over the size cap.
_MODULUS_BITS = 2048


@lru_cache(maxsize=64)
def _modulus(p: int, bound: int) -> tuple[int, int]:
    """(ℓ, ω) for the charpolys of a graph whose coefficients are at most bound.

    ℓ is the least ℓ ≡ 1 (mod 2p) above 2·bound that is_prime accepts and
    whose ω = g^((ℓ-1)/p) ≠ 1, for the least such g, passes the root checks:
    ω^p ≡ 1, and 1, ω, ..., ω^(p-1) differ pairwise by units.  A candidate
    that fails them is skipped.  With them, Φ_p(x) ≡ Π_s (x - ω^s) splits
    into coprime factors mod ℓ, so Z[ζ_p]/ℓ ≅ Π_s Z/ℓ by ζ ↦ ω^s whether or
    not ℓ is prime, and _charpoly_mod checks each pivot it inverts.
    """
    if 2 * bound >= 1 << _MODULUS_BITS:
        raise SizeCapExceeded(f"characteristic polynomial coefficients need a modulus past "
                              f"{_MODULUS_BITS} bits")
    step = 2 * p
    ell = 2 * bound + 1 + -2 * bound % step
    while True:
        if is_prime(ell):
            g = 2
            while (omega := pow(g, (ell - 1) // p, ell)) == 1:
                g += 1
            powers = [pow(omega, j, ell) for j in range(p + 1)]
            # ω^t - ω^s = ω^s·(ω^(t-s) - 1), and ω is a unit once ω^p ≡ 1
            if powers[p] == 1 and all(gcd(w - 1, ell) == 1 for w in powers[1:p]):
                return ell, omega
        ell += step


def _charpoly_mod(matrix: Sequence[Sequence[int]], modulus: int) -> list[int]:
    """det(tI - A) mod the modulus, t^n first.

    Reduces A to upper Hessenberg form by similarity, swapping a nonzero
    pivot onto the subdiagonal, then runs the recurrence for the charpoly
    of each leading block.  Each step is a similarity over Z/modulus as long
    as the pivot it inverts is a unit, which is checked, so any modulus, prime
    or not, gives the true charpoly mod it or raises SelfCheckFailed.
    """
    n = len(matrix)
    a = [[x % modulus for x in row] for row in matrix]
    for j in range(n - 2):
        k = j + 1
        pivot_row = next((i for i in range(k, n) if a[i][j]), None)
        if pivot_row is None:
            continue
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            for row in a:
                row[k], row[pivot_row] = row[pivot_row], row[k]
        try:
            inv = pow(a[k][j], -1, modulus)
        except ValueError:
            raise SelfCheckFailed(f"a Hessenberg pivot is not a unit modulo the "
                                  f"{modulus.bit_length()}-bit modulus") from None
        # rows below k vanish left of column j, and so does the pivot row
        pivot = a[k][k:]
        factors = []
        for i in range(k + 1, n):
            row = a[i]
            u = row[j] * inv % modulus
            factors.append(u)
            if u:
                row[j] = 0
                row[k:] = [(x - u * y) % modulus for x, y in zip(row[k:], pivot)]
        if any(factors):
            # the inverse transform on the right: column k += sum u_i column i
            for row in a:
                row[k] = (row[k] + sum(map(mul, factors, row[k + 1:]))) % modulus
    # blocks[m] is the charpoly of the leading m x m block, low degree first
    blocks = [[1]]
    for m in range(n):
        prev = blocks[m]
        diag = a[m][m]
        acc = [0] + prev
        acc[:m + 1] = [x - diag * y for x, y in zip(acc, prev)]
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * a[i + 1][i] % modulus
            if not sub:
                break
            c = a[i][m] * sub % modulus
            if c:
                acc[:i + 1] = [x - c * y for x, y in zip(acc, blocks[i])]
        blocks.append([x % modulus for x in acc])
    return blocks[n][::-1]


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer polynomials by Kronecker substitution.

    Each is packed into one integer Σ a_i X^i, X = 2^(8w) for w bytes per
    slot, wide enough that every input and product coefficient lies in
    (-X/2, X/2).  One big-integer product gives Σ c_j X^j, whose slots are
    read back low first: a slot of X/2 or more stands for slot - X and
    borrows 1 from the next.  ``oracles.poly_mul_schoolbook`` is the oracle.
    """
    if len(a) == 1 or len(b) == 1:  # a constant times a polynomial needs no packing
        (scalar,), other = (a, b) if len(a) == 1 else (b, a)
        return [scalar * c for c in other]
    n = len(a) + len(b) - 1
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = max(top_a * top_b * min(len(a), len(b)), top_a, top_b)
    width = (bound.bit_length() + 8) // 8
    # |product| < X^n, so n slots and one byte for the sign hold it
    data = (_pack(a, width) * _pack(b, width)).to_bytes(n * width + 1, "little", signed=True)
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    out = []
    borrow = 0
    for start in range(0, n * width, width):
        v = int.from_bytes(data[start:start + width], "little") + borrow
        borrow = v >= half
        out.append(v - full if borrow else v)
    return out


def _pack(coeffs: Sequence[int], width: int) -> int:
    """Σ c_i X^i for X = 2^(8·width), every |c_i| < X."""
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else bytes(width) for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else bytes(width) for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


@lru_cache(maxsize=16)
def _characters(p: int, r: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(lead, phase) per line through 0 of the characters λ of (Z/p)^r: λ = 0, then
    per line the λ led by 1, in order of λ's digits; phase[t] = λ·t mod p."""
    digits = [[t // p**i % p for i in range(r)] for t in range(p**r)]
    lines = []
    for lam in digits:
        lead = next((x for x in lam if x), 0)
        if lead <= 1:  # keep λ = 0 and, per line through 0, the λ led by 1
            lines.append((lead, tuple(sum(map(mul, lam, t)) % p for t in digits)))
    return tuple(lines)


def _charpoly_of_reps(reps: Rows, p: int, r: int) -> SpectrumPolynomial:
    """det(tI - A) as a product of blocks over the characters of a free (Z/p)^r action.

    A is the adjacency of the graph whose vertex a·p^r + t has the translate
    by t of the row reps[a], the action's being certified, as check_centre
    reads it: vertex a·p^r + t is σ^t of the orbit representative a·p^r,
    where σ_i adds 1 mod p to digit i (weight p^i) of t; on a coset graph of
    H_f these are the centre's translations.  They commute, have order p,
    act freely by construction and are automorphisms of A.  So A preserves
    each space of vectors with f(σ^t v) = ζ^(λ·t) f(v), ζ = exp(2πi/p), and
    acts on the values at the Q = n/p^r representatives by the block
    A_λ[a, b] = Σ_t A[a·p^r, b·p^r + t] ζ^(λ·t); λ = 0 gives an integer block.
    The p - 1 nonzero multiples of one λ are Galois conjugate, so the
    charpolys of their blocks multiply to an integer polynomial of degree
    N = Q(p-1), one per line of _characters.  It is computed modulo one ℓ
    from _modulus, in which ζ ↦ ω^s sends A_λ to the block B_s of the
    character sλ, s = 1, ..., p - 1, and lifted to the symmetric range.  The
    line polynomials multiply in a balanced tree.
    """
    width = p**r
    size = len(reps)
    # the entries of orbit representative a·p^r: (orbit, digits t, multiplicity)
    voltages = [[(*divmod(v, width), mult) for v, mult in row] for row in reps]
    # every eigenvalue μ of A has |μ| <= d, the largest absolute row sum (a
    # translate's is its representative's), and
    # each orbit's polynomial is a product of t - μ over at most N of them,
    # so its t^(N-k) coefficient is at most C(N, k)·d^k
    d = max((sum(abs(mult) for _, mult in row) for row in reps), default=0)
    big = size * (p - 1) if r else size
    ell, omega = _modulus(p, max(comb(big, k) * d**k for k in range(big + 1)))
    powers = [pow(omega, j, ell) for j in range(p)]
    lines = []
    for lead, phase in _characters(p, r):
        factor = [1]
        for s in range(1, p) if lead else (1,):
            block = [[0] * size for _ in range(size)]
            for a, entries in enumerate(voltages):
                for b, t, mult in entries:
                    block[a][b] += mult * powers[s * phase[t] % p]
            factor = [c % ell for c in _poly_mul(factor, _charpoly_mod(block, ell))]
        lines.append([c - ell if 2 * c > ell else c for c in factor])
    while len(lines) > 1:  # pairwise, so no product is lopsided
        lines = [*map(_poly_mul, lines[::2], lines[1::2]), *lines[len(lines) & ~1:]]
    return SpectrumPolynomial(tuple(lines[0]))


def char_poly(graph: CosetGraph, cap: Optional[int] = None) -> SpectrumPolynomial:
    """Exact characteristic polynomial of the adjacency matrix of a coset graph.

    _charpoly_of_reps factors it on the representatives' rows through the free
    action of the graph's rank: on a coset graph of H_f the centre, whose
    (0, 0, e) adds 1 mod p to one base-p digit of index(c), at rank 0 the dense
    polynomial.  It is the one route; ``oracles.distinct_charpolys`` matches a
    family's blocks against H_0's as the oracle of Sunada's theorem.
    """
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if graph.n > limit:
        raise SizeCapExceeded(f"{graph.n} vertices exceed cap {limit}")
    return _charpoly_of_reps(graph.reps, graph.group.ring.p, graph.rank)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _refine(reps: Rows, colors: Sequence[int], width: int = 1) -> tuple[int, tuple[int, ...]]:
    """Canonical colour refinement (1-WL with multiplicities and loops).

    Each round colours a vertex by the index of its signature (own colour,
    loop count, then the sorted colour(u)·S + multiplicity over neighbours
    u, S above every multiplicity, which sorts as the pairs do) in the
    round's sorted list of distinct signatures, until no class splits.  Ids
    depend on signatures alone, so when two graphs give equal invariants
    (the per-round signature lists, the final colour histogram and S) a
    colour id means the same in both.  Returns (digest, colours), the
    digest Python's hash of the invariant.

    ``colors`` holds one colour per orbit a·width, ..., a·width + width - 1
    of automorphisms that fix every colour, and ``reps`` the rows of the
    representatives a·width, which alone get signatures, neighbour v taking
    the colour of orbit v // width; counts are width times the orbits', and
    the colours come back per orbit.  At width 1 ``reps`` are all the rows.
    """
    loops = [next((mult for u, mult in row if u == a * width), 0) for a, row in enumerate(reps)]
    if width > 1:
        reps = [[(v // width, mult) for v, mult in row] for row in reps]
    scale = 1 + max((mult for row in reps for _, mult in row), default=0)
    rounds = []
    classes = len(set(colors))
    while True:
        signatures = [(colors[a], loops[a], *sorted([colors[u] * scale + mult for u, mult in row]))
                      for a, row in enumerate(reps)]
        distinct = sorted(set(signatures))
        rounds.append(hash(tuple(distinct)))
        ids = {sig: i for i, sig in enumerate(distinct)}
        colors = [ids[sig] for sig in signatures]
        if len(distinct) == classes:
            break
        classes = len(distinct)
    histogram = [0] * classes
    for c in colors:
        histogram[c] += width
    return hash((tuple(rounds), tuple(histogram), scale)), tuple(colors)


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    """Split v off its colour class, keeping the order of the other classes."""
    return [2 * c + (w == v) for w, c in enumerate(colors)]


def _search(rows1: Rows, rows2: Rows, colors1: Sequence[int], colors2: Sequence[int],
            refine, width: int = 1) -> Optional[list[int]]:
    """Individualise-and-refine search for an isomorphism respecting the colours.

    The colourings come from refinements with equal digests.  At a
    discrete colouring the matching is forced and checked on the edges;
    otherwise one vertex v of the smallest non-singleton cell of g1 is
    individualised against each vertex u of the same cell of g2, and a branch
    survives only if both refinements give the same digest.  ``refine``
    is ``_refine`` behind the search's node budget.  ``width`` is the orbit
    size of the translations of check_centre when they are automorphisms of
    g2 that fix colors2, as the centre's fix its refinement from one colour.
    If no isomorphism sends v to u, none sends it to the translate σu, so
    once a branch fails the rest of the orbit of u is skipped.  The first
    branch to succeed, and so the witness, is the one that width 1 finds.
    """
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors1):
        cells.setdefault(c, []).append(v)
    if len(cells) == len(colors1):
        position = {c: u for u, c in enumerate(colors2)}
        # -1 where colors2 lacks a colour, as after a digest collision
        witness = [position.get(c, -1) for c in colors1]
        return witness if maps_onto(rows1, rows2, witness) else None
    _, target = min((len(cell), c) for c, cell in cells.items() if len(cell) > 1)
    digest, refined1 = refine(rows1, _individualize(colors1, cells[target][0]))
    failed = set()  # orbits of g2 with a failed branch
    for u, c in enumerate(colors2):
        if c != target or u // width in failed:
            continue
        other, refined2 = refine(rows2, _individualize(colors2, u))
        if other == digest:
            # individualised colourings are not fixed by the centre: width 1 below the root
            witness = _search(rows1, rows2, refined1, refined2, refine)
            if witness is not None:
                return witness
        failed.add(u // width)
    return None


def _permutation_matches(adj1, adj2, mapping, u, v) -> bool:
    if adj1[u][u] != adj2[v][v]:
        return False
    for w, image in enumerate(mapping):
        if image is None:
            continue
        if adj1[u][w] != adj2[v][image] or adj1[w][u] != adj2[image][v]:
            return False
    return True


class IsomorphismResult(NamedTuple):
    isomorphic: bool
    witness: Optional[tuple[int, ...]]


def verify_witness(adj1, adj2, witness: Sequence[int]) -> bool:
    """Whether witness maps the dense matrix adj1 onto adj2; the oracles' check."""
    n = len(adj1)
    if len(adj2) != n or sorted(witness) != list(range(n)):
        return False
    return all(adj1[u][w] == adj2[witness[u]][witness[w]] for u in range(n) for w in range(n))


def are_isomorphic(g1: CosetGraph, g2: CosetGraph,
                   cap: int = DEFAULT_ISO_NODES) -> IsomorphismResult:
    """Exact isomorphism, with a witness w that maps_onto(g1.rows, g2.rows, w).

    Different vertex counts or refinement digests rule it out, and equal
    representatives' rows give the identity, before either graph's rows are
    expanded: with n = len(reps)·p^r equal, the orbits have one width p^r,
    which fixes p and r, so the rows are equal too.  Otherwise the search
    runs on the rows and the root colours per vertex, expanded for it alone,
    its root pruned by the second graph's action.  It runs at most ``cap`` refinements and raises
    SizeCapExceeded past them.
    """
    if g1.n != g2.n:
        return IsomorphismResult(False, None)
    if g1.reps == g2.reps:
        return IsomorphismResult(True, tuple(range(g1.n)))
    if g1.refinement[0] != g2.refinement[0]:
        return IsomorphismResult(False, None)
    spent = 0

    def refine(rows, colors):
        nonlocal spent
        spent += 1
        if spent > cap:
            raise SizeCapExceeded(f"isomorphism search exceeds {cap} refinement nodes")
        return _refine(rows, colors)

    rows1, rows2 = g1.rows, g2.rows
    colors1, colors2 = ([c for c in g.refinement[1] for _ in range(g.centre_width)]
                        for g in (g1, g2))
    found = _search(rows1, rows2, colors1, colors2, refine, g2.centre_width)
    if found is None:
        return IsomorphismResult(False, None)
    if not maps_onto(rows1, rows2, found):
        raise SelfCheckFailed("isomorphism witness does not map edges onto edges")
    return IsomorphismResult(True, tuple(found))


def isomorphism_classes(graphs: Sequence[CosetGraph]):
    """(class_of, witnesses): isomorphism classes with no pairwise loop.

    class_of[k] is the class id of graph k, ids in order of first
    appearance; witnesses[k] maps graph k onto the first member of its
    class, and is None for that first member.  Isomorphic graphs share
    their refinement digest, so the graphs are bucketed by it, and each
    graph is searched only against the first members in its bucket.
    """
    buckets: dict[int, list[int]] = {}
    class_of: list[int] = []
    witnesses: list[Optional[tuple[int, ...]]] = []
    classes = 0
    for k, graph in enumerate(graphs):
        leaders = buckets.setdefault(graph.refinement[0], [])
        for leader in leaders:
            result = are_isomorphic(graph, graphs[leader])
            if result.isomorphic:
                class_of.append(class_of[leader])
                witnesses.append(result.witness)
                break
        else:
            leaders.append(k)
            class_of.append(classes)
            classes += 1
            witnesses.append(None)
    return class_of, witnesses


def orbit_classes(maps: Sequence[LinearMap], graphs: Sequence[CosetGraph]):
    """(class_of, witnesses) as isomorphism_classes gives them, for the coset graphs
    of a ring's whole catalog of canonical twists with one generator set: graphs[k]
    is the graph of H_f for f = maps[k].

    Each automorphism φ of the family maps the graph of H_f onto that of
    φ(H_f) = H_f', f'(y) = λμσ(f(σ⁻¹(λ⁻¹y))), by Hg ↦ φ(H)φ(g), and left
    multiplication by (0, β, 0) maps that onto the graph of its class rep
    H_f'', f'' = f' - mult(β).  So the orbits of these φ on the catalog lie in
    isomorphism classes.  Each orbit's first member is its leader, and every
    other graph k gets the OrbitWitness of the first φ that sends maps[k] to
    the leader's map, checked on the q representatives' rows.  The leaders
    alone are refined and searched by isomorphism_classes, whose classes,
    joined with the orbits, are the classes: a class's first member is a
    leader.  A graph whose leader that search put in an earlier leader's class
    takes the leader's permutation witness composed with its own vertex map.
    """
    group = graphs[0].group
    ring, family = group.ring, _family(group, graphs[0].gens)
    index, els, one = family.index, ring.elements, ring.one()
    position = {f: k for k, f in enumerate(maps)}
    # f' = c∘f∘a⁻¹ for φ's tables a and c, so f'(e) takes f at a⁻¹(e) for each basis e;
    # the identity fixes every map, so a set that no other φ fixes leaves each graph a leader
    points = []
    identity = (0, index[one], index[one])
    for phi in family.automorphisms:
        if phi == identity:
            continue
        a, _, c = _automorphism(ring, *phi)
        inverse = {y: x for x, y in enumerate(a)}
        points.append((phi, c, [els[inverse[index[e]]] for e in ring.basis()]))
    leader_of: list[int] = []
    found: list[Optional[OrbitWitness]] = []
    for k, f in enumerate(maps):
        leader, phi, image = k, None, f
        for candidate, c, at in points:
            moved = LinearMap.from_columns(ring.p, [els[c[index[f.apply(x)]]] for x in at])
            j = position[canonical_twist(moved, ring)]
            if j < leader:
                leader, phi, image = j, candidate, moved
        leader_of.append(leader)
        if phi is None:
            found.append(None)
            continue
        # f' - maps[leader] is mult(β), which takes 1 to β
        beta = index[ring.add(image.apply(one), ring.neg(maps[leader].apply(one)))]
        witness = OrbitWitness(*phi, beta)
        if not witness_maps_onto(graphs[k], graphs[leader], witness):
            raise SelfCheckFailed("an automorphism's vertex map does not map edges onto edges")
        found.append(witness)
    leaders = [k for k, leader in enumerate(leader_of) if leader == k]
    slot = {leader: i for i, leader in enumerate(leaders)}
    merged, through = isomorphism_classes([graphs[k] for k in leaders])
    class_of = [merged[slot[leader]] for leader in leader_of]
    witnesses: list = []
    for leader, witness in zip(leader_of, found):
        onward = through[slot[leader]]
        if onward is None:
            witnesses.append(witness)
        elif witness is None:
            witnesses.append(onward)
        else:
            witnesses.append(tuple(onward[v] for v in witness_permutation(ring, witness)))
    return class_of, witnesses


def _vertex_maps(ring, witness: OrbitWitness) -> Optional[tuple[list[int], tuple[int, ...]]]:
    """(orbits, centre) of the witness's vertex map a·q + t ↦ orbits[a]·q + centre[t]:
    index(b) ↦ index(β + μσ(b)) and index(c) ↦ index(λμσ(c)).  None where σ's
    exponent or β is out of range or λ or μ is no unit."""
    _, units, frobenius = _unit_tables(ring)
    sigma, lam, mu, beta = witness
    if not (0 <= sigma < len(frobenius) and lam in units and mu in units
            and 0 <= beta < ring.size):
        return None
    _, b, c = _automorphism(ring, sigma, lam, mu)
    plus = _digit_sums(ring.p, ring.dim)[beta]  # index(β + x) for x's index
    return [plus[x] for x in b], c


def witness_maps_onto(g1: CosetGraph, g2: CosetGraph, witness: OrbitWitness) -> bool:
    """Whether the witness's vertex map takes every edge u-v of g1 to one of g2 with
    the same multiplicity, checked on the q representatives' rows alone.

    Both are coset graphs of twisted subgroups over one ring, with q
    representatives and the centre of rank ring.dim, so every row is the
    translate of its representative's.  The map sends the translate by t of
    representative a to the translate by λμσ(t) of a's image, and λμσ is
    additive, so it maps each row of g1 onto the row of g2 it must exactly when
    it does so on the representatives.  It is a bijection, λ and μ being units.
    """
    ring = g1.group.ring
    maps = _vertex_maps(ring, witness)
    if maps is None:
        return False
    orbits, centre = maps
    q = ring.size
    return all(tuple(sorted((orbits[v // q] * q + centre[v % q], mult) for v, mult in row))
               == g2.reps[orbits[a]] for a, row in enumerate(g1.reps))


def witness_permutation(ring, witness: OrbitWitness) -> tuple[int, ...]:
    """The witness's vertex map as a permutation of the q² vertices."""
    orbits, centre = _vertex_maps(ring, witness)
    return tuple(b * ring.size + c for b in orbits for c in centre)
