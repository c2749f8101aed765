"""Schreier coset graphs, exact integer spectra, and graph isomorphism.

Cosets are right cosets Hg acted on by g -> gs; vertex labels are the
lexicographically minimal coset members, so graphs are deterministic.
Characteristic polynomials are computed division-free (Berkowitz) and
cross-checkable against a memoized cofactor expansion and against
fraction-free integer determinants at sample points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import EmptyGeneratorSet, SelfCheckFailed, SizeCapExceeded, SpecMismatch
from .heisenberg import GroupElement, Heisenberg

DEFAULT_VERTEX_CAP = 4096
DEFAULT_ISO_CAP = 64


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


@dataclass(frozen=True)
class CosetGraph:
    """Right-coset multigraph of a subgroup with respect to a generator set."""

    group: Heisenberg
    subgroup_label: str
    gens: tuple[GroupElement, ...]
    vertices: tuple[GroupElement, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return len(self.gens)

    def loop_count(self) -> int:
        return sum(self.adjacency[i][i] for i in range(self.n))

    @cached_property
    def connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v, mult in enumerate(self.adjacency[u]):
                if mult and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self.n

    def edge_list(self) -> list[tuple[int, int, int]]:
        """(u, v, multiplicity) with u <= v, loops included."""
        out = []
        for u in range(self.n):
            for v in range(u, self.n):
                if self.adjacency[u][v]:
                    out.append((u, v, self.adjacency[u][v]))
        return out

    def to_dot(self, name: str = "coset_graph") -> str:
        lines = [f"graph {name} {{"]
        for u, v, mult in self.edge_list():
            suffix = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f"  {u} -- {v}{suffix};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "subgroup": self.subgroup_label,
            "vertices": self.n,
            "generators": len(self.gens),
            "edges": [[u, v, m] for u, v, m in self.edge_list()],
            "connected": self.connected,
        }


def build_coset_graph(sub, gens: Sequence[GroupElement],
                      cap: int = DEFAULT_VERTEX_CAP) -> CosetGraph:
    """Deterministic Schreier graph on the right cosets of the subgroup."""
    group = sub.group
    gens = symmetrize_generators(group, gens)
    if not gens:
        raise EmptyGeneratorSet("need at least one generator")
    members = sub.elements
    index = group.order // len(members)
    if index > cap:
        raise SizeCapExceeded(f"coset count {index} exceeds vertex cap {cap}")
    # walk all group elements in lex order; the first member seen of each
    # coset is its minimum, which becomes the canonical vertex label
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
    rows = []
    for rep in vertices:
        row = [0] * index
        for s in gens:
            row[coset_of[group.mul(rep, s)]] += 1
        rows.append(tuple(row))
    return CosetGraph(
        group=group,
        subgroup_label=sub.label(),
        gens=gens,
        vertices=tuple(vertices),
        adjacency=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Exact characteristic polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumPolynomial:
    """det(tI - A) with exact integer coefficients, t^n first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise SpecMismatch("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * t + c
        return acc

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coefficients": [
                c if abs(c) < 2**53 else str(c) for c in self.coefficients
            ],
        }


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
            vec = [
                sum(matrix[i][k] * vec[k] for k in range(r - 1))
                for i in range(r - 1)
            ]
        new_poly = [0] * (r + 1)
        for i, c in enumerate(poly):
            for k in range(r + 1 - i):
                new_poly[i + k] += c * toep[k]
        poly = new_poly
    return SpectrumPolynomial(tuple(poly))


def charpoly_cofactor(matrix: Sequence[Sequence[int]]) -> SpectrumPolynomial:
    """Cofactor-expansion oracle for det(tI - A), memoized on column subsets.

    Kept independent of the Berkowitz route on purpose; polynomials are
    low-to-high tuples internally and rows are expanded top down.
    """
    n = len(matrix)
    if n == 0:
        return SpectrumPolynomial((1,))
    # entry polynomials of tI - A, low-to-high
    entry = [
        [
            ((-matrix[i][j], 1) if i == j else (-matrix[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def poly_scale_add(acc: list[int], poly: tuple[int, ...], scalar_poly) -> None:
        for i, x in enumerate(scalar_poly):
            if x:
                for k, y in enumerate(poly):
                    acc[i + k] += x * y

    memo: dict[int, tuple[int, ...]] = {}
    full_mask = (1 << n) - 1

    def minor(mask: int) -> tuple[int, ...]:
        if mask == 0:
            return (1,)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = n - bin(mask).count("1")
        size = bin(mask).count("1")
        acc = [0] * (size + 1)
        sign = 1
        position = 0
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            e = entry[row][j]
            if any(e):
                sub = minor(mask & ~(1 << j))
                if sign > 0:
                    poly_scale_add(acc, sub, e)
                else:
                    poly_scale_add(acc, tuple(-c for c in sub), e)
            sign = -sign
            position += 1
            m &= m - 1
        result = tuple(acc)
        memo[mask] = result
        return result

    low_to_high = minor(full_mask)
    return SpectrumPolynomial(tuple(reversed(low_to_high)))


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


def char_poly(graph: CosetGraph, cap: Optional[int] = None) -> SpectrumPolynomial:
    """Exact characteristic polynomial of the adjacency matrix."""
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if graph.n > limit:
        raise SizeCapExceeded(f"{graph.n} vertices exceed cap {limit}")
    return charpoly_berkowitz(graph.adjacency)


# ---------------------------------------------------------------------------
# Cospectrality and isomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsospectralResult:
    equal: bool
    poly_h: SpectrumPolynomial
    poly_k: SpectrumPolynomial

    def to_json(self) -> dict:
        return {
            "equal": self.equal,
            "polynomials": [self.poly_h.to_json(), self.poly_k.to_json()],
        }


def isospectral(sub_h, sub_k, gens: Sequence[GroupElement],
                cap: int = DEFAULT_VERTEX_CAP) -> IsospectralResult:
    """Compare exact spectra of the two Schreier graphs."""
    if sub_h.group != sub_k.group:
        raise SpecMismatch("subgroups live in different groups")
    graph_h = build_coset_graph(sub_h, gens, cap=cap)
    graph_k = build_coset_graph(sub_k, gens, cap=cap)
    poly_h = char_poly(graph_h)
    poly_k = char_poly(graph_k)
    return IsospectralResult(poly_h.coefficients == poly_k.coefficients, poly_h, poly_k)


def _refine_colors(adj: Sequence[Sequence[int]]) -> list[int]:
    """Stable 1-WL coloring with edge multiplicities; deterministic ids."""
    n = len(adj)
    colors = [0] * n
    signature = [(adj[v][v], tuple(sorted(adj[v]))) for v in range(n)]
    order = {sig: i for i, sig in enumerate(sorted(set(signature)))}
    colors = [order[sig] for sig in signature]
    while True:
        signature = [
            (
                colors[v],
                tuple(sorted((adj[v][u], colors[u]) for u in range(n) if adj[v][u])),
            )
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new_colors = [order[sig] for sig in signature]
        if new_colors == colors:
            return colors
        colors = new_colors


def _permutation_matches(adj1, adj2, mapping, u, v) -> bool:
    if adj1[u][u] != adj2[v][v]:
        return False
    for w, image in enumerate(mapping):
        if image is None:
            continue
        if adj1[u][w] != adj2[v][image] or adj1[w][u] != adj2[image][v]:
            return False
    return True


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    witness: Optional[tuple[int, ...]]

    def to_json(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def verify_witness(adj1, adj2, witness: Sequence[int]) -> bool:
    n = len(adj1)
    if sorted(witness) != list(range(n)):
        return False
    return all(
        adj1[u][w] == adj2[witness[u]][witness[w]]
        for u in range(n)
        for w in range(n)
    )


def are_isomorphic(g1: CosetGraph, g2: CosetGraph,
                   cap: int = DEFAULT_ISO_CAP) -> IsomorphismResult:
    """Exact isomorphism via color refinement plus backtracking."""
    if g1.n != g2.n:
        return IsomorphismResult(False, None)
    n = g1.n
    if n > cap:
        raise SizeCapExceeded(f"{n} vertices exceed isomorphism cap {cap}")
    adj1, adj2 = g1.adjacency, g2.adjacency
    if adj1 == adj2:
        return IsomorphismResult(True, tuple(range(n)))
    colors1 = _refine_colors(adj1)
    colors2 = _refine_colors(adj2)
    if sorted(colors1) != sorted(colors2):
        return IsomorphismResult(False, None)
    class_size = {c: colors1.count(c) for c in set(colors1)}
    order = sorted(range(n), key=lambda v: (class_size[colors1[v]], colors1[v], v))
    candidates = {
        v: [u for u in range(n) if colors2[u] == colors1[v]] for v in range(n)
    }
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n

    def backtrack(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for u in candidates[v]:
            if used[u] or not _permutation_matches(adj1, adj2, mapping, v, u):
                continue
            mapping[v] = u
            used[u] = True
            if backtrack(idx + 1):
                return True
            mapping[v] = None
            used[u] = False
        return False

    if backtrack(0):
        witness = tuple(mapping)  # type: ignore[arg-type]
        if not verify_witness(adj1, adj2, witness):
            raise SelfCheckFailed("isomorphism witness does not map edges onto edges")
        return IsomorphismResult(True, witness)
    return IsomorphismResult(False, None)


def are_isomorphic_bruteforce(g1: CosetGraph, g2: CosetGraph,
                              cap: int = 16) -> IsomorphismResult:
    """Permutation search with adjacency pruning only; the independent oracle."""
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
            if used[u] or not _permutation_matches(adj1, adj2, mapping, v, u):
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
        if not verify_witness(adj1, adj2, witness):
            raise SelfCheckFailed("isomorphism witness does not map edges onto edges")
        return IsomorphismResult(True, witness)
    return IsomorphismResult(False, None)
