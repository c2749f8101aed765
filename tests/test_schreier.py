import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassmann import oracles, schreier
from gassmann.certify import canonical_twist, enumerate_class_reps
from gassmann.errors import EmptyGeneratorSet, SelfCheckFailed, SizeCapExceeded, SpecMismatch
from gassmann.heisenberg import generates, heisenberg_group, twisted_subgroup
from gassmann.oracles import (
    are_isomorphic_bruteforce,
    center_subgroup,
    charpoly_berkowitz,
    charpoly_by_centre,
    conjugate_subgroup,
    coset_graph_bruteforce,
    evaluate,
    horizontal_subgroup,
    loop_count,
    poly_mul_schoolbook,
    trivial_subgroup,
    whole_group,
)
from gassmann.rings import LinearMap, is_prime, make_field, make_trunc_ring
from gassmann.schreier import (
    CosetGraph,
    OrbitWitness,
    are_isomorphic,
    bareiss_determinant,
    build_coset_graph,
    char_poly,
    default_generators,
    isomorphism_classes,
    maps_onto,
    orbit_classes,
    verify_witness,
    witness_maps_onto,
    witness_permutation,
)

F2 = make_field(2, 1)
F4 = make_field(2, 2)

G4 = heisenberg_group(F4)
GENS4 = default_generators(G4)


def _rep_graphs(spec=F4, gens=None, sample=None):
    """The coset graphs of the class reps, or of a seeded sample of that many of them."""
    group = heisenberg_group(spec)
    gens = default_generators(group) if gens is None else gens
    reps = enumerate_class_reps(spec).reps
    if sample is not None:
        reps = random.Random(sample).sample(reps, sample)
    return [build_coset_graph(twisted_subgroup(f, group), gens) for f in reps]


def _five_generators():
    """A custom GF(4) generating set: both basis elements in a and in b, one in c."""
    basis, zero = F4.basis(), F4.zero()
    return [(basis[0], zero, zero), (basis[1], zero, zero), (zero, basis[0], zero),
            (zero, basis[1], zero), (zero, zero, basis[0])]


def _rows(adjacency):
    """The neighbour rows of a dense integer matrix."""
    return tuple(tuple((v, mult) for v, mult in enumerate(row) if mult) for row in adjacency)


def _dense(matrix, p=2):
    """The charpoly of a dense integer matrix: charpoly_by_centre at rank 0."""
    return charpoly_by_centre(_rows(matrix), p, 0)


def _synthetic(adjacency, group=G4, rank=0):
    """A CosetGraph with the rows of an arbitrary adjacency matrix (up to |group| vertices),
    claiming a free action of rank ``rank`` over the group's prime, which the certified
    constructor checks."""
    return CosetGraph.from_rows(group, GENS4[:2], _rows(adjacency), rank)


def _per_vertex(colours, width):
    """Colours kept one per orbit of width vertices, one per vertex."""
    return tuple(c for c in colours for _ in range(width))


def _unpruned(g1, g2):
    """The witness of the search with no pruning at its root (width 1), or None."""
    colors1, colors2 = (_per_vertex(g.refinement[1], g.centre_width) for g in (g1, g2))
    found = schreier._search(g1.rows, g2.rows, colors1, colors2, schreier._refine)
    return None if found is None else tuple(found)


def _relabel(adjacency, perm):
    """The adjacency of the graph whose vertex perm[u] is vertex u of the input."""
    n = len(adjacency)
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for w in range(n):
            out[perm[u]][perm[w]] = adjacency[u][w]
    return out


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def test_whole_group_gives_single_vertex_with_loops():
    graph = coset_graph_bruteforce(whole_group(G4), GENS4)
    assert graph.n == 1
    assert graph.adjacency == ((len(GENS4),),)


def test_twisted_subgroup_graph_shape():
    graph = build_coset_graph(horizontal_subgroup(G4), GENS4)
    assert graph.n == 16  # index q^2
    assert all(sum(row) == len(GENS4) for row in graph.adjacency)
    assert all(
        graph.adjacency[u][v] == graph.adjacency[v][u]
        for u in range(16)
        for v in range(16)
    )
    assert oracles.connected(graph)


def test_trivial_subgroup_gives_cayley_graph():
    graph = coset_graph_bruteforce(trivial_subgroup(G4), GENS4)
    assert graph.n == G4.order
    assert oracles.connected(graph)  # the default generators generate the group


def _closed_form_labels(ring):
    """The elements (0, b, c), vertex k = index(b)·q + index(c) of the closed form."""
    zero, els = ring.zero(), ring.elements
    return [(zero, b, c) for b in els for c in els]


def test_vertices_are_canonical_minima():
    # the walk numbers the cosets by their least members, in lex order, and those are
    # the closed form's labels (0, b, c)
    sub = horizontal_subgroup(G4)
    minima, _ = oracles.coset_minima(sub)
    assert minima == sorted(minima) == _closed_form_labels(F4)
    for rep in minima:
        assert rep == min(G4.mul(h, rep) for h in sub.elements)
    assert build_coset_graph(sub, GENS4).n == len(minima)


def _assert_closed_form_equals_the_walk(sub, gens):
    fast, slow = build_coset_graph(sub, gens), coset_graph_bruteforce(sub, gens)
    # the walk numbers vertex k by the coset's least member, which is the closed form's
    # label of vertex k
    assert fast.rows == slow.rows
    assert oracles.coset_minima(sub)[0] == _closed_form_labels(sub.group.ring)
    assert fast.gens == slow.gens
    # the closed form claims the centre's action, which the walk does not
    assert (fast.rank, slow.rank) == (sub.group.ring.dim, 0)
    return fast, slow


@pytest.mark.parametrize("spec", [F4, make_field(2, 3), make_field(3, 2), make_trunc_ring(2, 2),
                                  make_trunc_ring(3, 2)], ids=repr)
def test_closed_form_coset_graphs_equal_the_walk_on_every_class_rep(spec):
    group = heisenberg_group(spec)
    one = spec.one()
    # (1, 1, 1) and its inverse (-1, -1, 0) move all three coordinates at once
    for gens in (default_generators(group), (*default_generators(group), (one, one, one))):
        for k, f in enumerate(enumerate_class_reps(spec).reps):
            fast, slow = _assert_closed_form_equals_the_walk(twisted_subgroup(f, group), gens)
            if k < 2:  # the walk's graph of rank 0 gets the dense polynomial
                assert char_poly(slow) == char_poly(fast)


@pytest.mark.parametrize("spec", [make_field(2, 4), make_field(3, 3)], ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_closed_form_coset_graphs_equal_the_walk_on_sampled_maps(spec, data):
    flat = data.draw(st.lists(st.integers(0, spec.p - 1), min_size=spec.dim**2,
                              max_size=spec.dim**2))
    group = heisenberg_group(spec)
    f = LinearMap.from_flat(spec.p, tuple(flat), spec.dim)
    _assert_closed_form_equals_the_walk(twisted_subgroup(f, group), default_generators(group))


def test_generator_set_errors():
    with pytest.raises(EmptyGeneratorSet):
        build_coset_graph(horizontal_subgroup(G4), [])
    with pytest.raises(SizeCapExceeded):
        build_coset_graph(horizontal_subgroup(G4), GENS4, cap=10)
    with pytest.raises(SizeCapExceeded):
        coset_graph_bruteforce(trivial_subgroup(G4), GENS4, cap=10)
    with pytest.raises(SpecMismatch):
        build_coset_graph(horizontal_subgroup(G4), [((1,), (0,), (0,))])
    # production builds the graphs of H_f only; the oracle takes any subgroup
    with pytest.raises(SpecMismatch, match="not a PlainSubgroup"):
        build_coset_graph(center_subgroup(G4), GENS4)


def _reaches_all(rows):
    """Whether a search over the full rows from vertex 0 reaches every vertex."""
    seen, frontier = {0}, [0]
    while frontier:
        for v, _ in rows[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(rows)


@pytest.mark.parametrize("spec", [F4, make_field(2, 3), make_field(3, 2), make_trunc_ring(2, 2),
                                  make_trunc_ring(3, 2)],
                         ids=["GF4", "GF8", "GF9", "F2[t]/t^2", "F3[t]/t^2"])
def test_connectivity_on_the_representatives_equals_a_search_over_the_rows(spec):
    group = heisenberg_group(spec)
    zero, basis = spec.zero(), spec.basis()
    # one a-coordinate generator, and every b-coordinate one: the latter's quotient by
    # the centre is connected, but c never moves, so the cover is not
    for gens in (default_generators(group), [(basis[0], zero, zero)],
                 [(zero, e, zero) for e in basis]):
        for f in enumerate_class_reps(spec).reps:
            graph = build_coset_graph(twisted_subgroup(f, group), gens)
            assert oracles.connected(graph) == _reaches_all(graph.rows)
            assert oracles.connected(graph) == (gens == default_generators(group))
        assert generates(group, gens) == (gens == default_generators(group))


def _random_generators(rng: random.Random, spec, count: int) -> list:
    """count random elements of the group over the ring, as generators."""
    return [tuple(rng.choice(spec.elements) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)],
                         ids=["GF4", "GF8", "GF9", "GF16", "GF25", "GF27"])
def test_each_class_reps_graph_has_h0s_polynomial_and_a_generating_set_connects_it(p, m):
    # Sunada's theorem: every H_f over a field has the one profile, so its coset graph
    # has H_0's polynomial, for every generator multiset, against the per-graph
    # translations and a Hessenberg pass on a sample; the Burnside basis theorem: a set
    # that passes the rank makes every graph connected, against the per-graph search
    spec = make_field(p, m)
    group = heisenberg_group(spec)
    reps = enumerate_class_reps(spec).reps
    assert reps[0] == LinearMap.zero(p, m)  # so graphs[0] is H_0's graph
    rng = random.Random(2 * p + m)
    # 2m random elements may generate; m never do, since their (a, b) parts span m dimensions
    for gens in (default_generators(group), _random_generators(rng, spec, 2 * m),
                 _random_generators(rng, spec, m)):
        graphs = [build_coset_graph(twisted_subgroup(f, group), gens) for f in reps]
        h0 = schreier._charpoly_of_reps(graphs[0].reps, p, m)
        assert oracles.distinct_charpolys(graphs) == ([h0.coefficients], [0] * len(graphs))
        for graph in rng.sample(graphs, min(2, len(graphs))):
            assert schreier._charpoly_of_reps(graph.reps, p, m) == h0
        assert not generates(group, gens) or all(map(oracles.connected, graphs))
    assert generates(group, default_generators(group))
    assert not generates(group, _random_generators(rng, spec, m))


def test_the_graph_layer_reads_the_representatives_rows_alone():
    # the build, the polynomial, connectivity, the refinement and a verdict between
    # graphs with different invariants never expand the q² rows
    graphs = _rep_graphs(make_field(2, 3))
    for graph in graphs:
        assert len(graph.reps) == 8 and graph.n == 64
        char_poly(graph)
        assert oracles.connected(graph) and graph.refinement
        # the invariant is kept as one digest
        assert type(graph.refinement[0]) is int
    apart = [(g1, g2) for g1 in graphs for g2 in graphs
             if g1.refinement[0] != g2.refinement[0]]
    assert apart and not any(are_isomorphic(g1, g2).isomorphic for g1, g2 in apart)
    assert are_isomorphic(graphs[0], graphs[0]).witness == tuple(range(64))
    assert not any("rows" in vars(graph) for graph in graphs)
    # the search between graphs with equal invariants reads the rows, and drops them
    g1, g2 = next((g1, g2) for g1 in graphs for g2 in graphs
                  if g1 is not g2 and g1.refinement[0] == g2.refinement[0])
    are_isomorphic(g1, g2)
    assert "rows" not in vars(g1) and "rows" not in vars(g2)


def test_default_generators_reduce_to_classic_pair_at_m1():
    g2 = heisenberg_group(F2)
    gens = default_generators(g2)
    one, zero = (1,), (0,)
    assert set(gens) == {(one, zero, zero), (zero, one, zero)}


def test_exports():
    graph = build_coset_graph(horizontal_subgroup(G4), GENS4)
    dot = schreier.to_dot(graph.edge_list())
    assert dot.startswith("graph") and "--" in dot
    edges = graph.edge_list()
    assert all(u <= v and mult >= 1 for u, v, mult in edges)
    assert sum(mult * (2 if u != v else 1) for u, v, mult in edges) == 16 * len(GENS4)


def test_rows_are_the_edges_and_adjacency_is_their_view():
    graph = build_coset_graph(horizontal_subgroup(G4), GENS4)
    for u, row in enumerate(graph.rows):
        assert [v for v, _ in row] == sorted({v for v, _ in row})
        assert all(mult > 0 for _, mult in row)
        assert row == tuple((v, mult) for v, mult in enumerate(graph.adjacency[u]) if mult)
    # each edge u <= v, read in both orientations, gives the adjacency
    dense = [[0] * graph.n for _ in range(graph.n)]
    for u, v, mult in graph.edge_list():
        dense[u][v] = dense[v][u] = mult
    assert tuple(map(tuple, dense)) == graph.adjacency


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    _multigraphs(n), _multigraphs(n), st.permutations(range(n)), st.booleans())))
def test_maps_onto_equals_the_dense_witness_check(case):
    adj1, other, perm, relabelled = case
    adj2 = _relabel(adj1, perm) if relabelled else other
    expected = verify_witness(adj1, adj2, perm)
    assert maps_onto(_rows(adj1), _rows(adj2), perm) == expected
    assert expected or not relabelled


def test_maps_onto_rejects_what_is_not_a_permutation():
    rows = _rows(C6)
    assert maps_onto(rows, rows, [1, 2, 3, 4, 5, 0])
    assert not maps_onto(rows, rows, [1, 2, 3, 4, 5, 5])
    assert not maps_onto(rows, rows, [1, 2, 3, 4, 5])
    assert not maps_onto(rows, _rows(C6[:5]), list(range(6)))


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------


_COEFFICIENTS = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**2100), 2**2100))


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFFICIENTS, min_size=1, max_size=12),
       st.lists(_COEFFICIENTS, min_size=1, max_size=12))
def test_kronecker_product_equals_the_schoolbook_oracle(a, b):
    assert schreier._poly_mul(a, b) == poly_mul_schoolbook(a, b)


@pytest.mark.parametrize("a, b", [
    ([0], [0]), ([5], [-7]), ([0, 0, 0], [1, -1]), ([-1], [1, 0, 0, -1]),
    # a slot that borrows from the next, past 2,000 bits, and an all-ones slot plus a borrow
    ([-(2**2047), 2**2047 - 1], [2**2047 + 1, 0, -(2**2046)]), ([-255, 255], [1, 1]),
    ([random.Random(7).randrange(-(2**2500), 2**2500) for _ in range(40)],
     [random.Random(8).randrange(-(2**2100), 2**2100) for _ in range(30)]),
])
def test_kronecker_product_on_edge_cases(a, b):
    assert schreier._poly_mul(a, b) == poly_mul_schoolbook(a, b)


def test_charpoly_trivial_cases():
    assert charpoly_berkowitz([[0, 0], [0, 0]]).coefficients == (1, 0, 0)
    assert charpoly_berkowitz([[0, 1], [1, 0]]).coefficients == (1, 0, -1)
    assert charpoly_berkowitz([[5]]).coefficients == (1, -5)


def test_charpoly_routes_agree_on_random_integer_matrices():
    rng = random.Random(1729)
    for n in (3, 4, 5, 6):
        for _ in range(8):
            mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            a = charpoly_berkowitz(mat)
            for t in (0, 1, -2, 7):
                shifted = [
                    [(t if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)
                ]
                assert bareiss_determinant(shifted) == evaluate(a, t)


def test_charpoly_matches_bareiss_at_random_points_on_graphs():
    rng = random.Random(424242)
    for graph in _rep_graphs():
        poly = char_poly(graph)
        for t in (rng.randrange(-50, 50) for _ in range(3)):
            shifted = [
                [(t if i == j else 0) - graph.adjacency[i][j] for j in range(graph.n)]
                for i in range(graph.n)
            ]
            assert bareiss_determinant(shifted) == evaluate(poly, t)


def test_charpoly_structure_on_coset_graphs():
    for graph in _rep_graphs():
        poly = char_poly(graph)
        assert poly.degree == graph.n
        assert poly.coefficients[0] == 1
        assert poly.coefficients[1] == -loop_count(graph)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_modular_charpoly_equals_berkowitz_on_random_integer_matrices(matrix):
    assert _dense(matrix).coefficients == charpoly_berkowitz(matrix).coefficients


@pytest.mark.parametrize("matrix", [
    [],
    [[-3]],
    [[0] * 5 for _ in range(5)],
    # zero subdiagonal and nothing below it: no pivot in any column
    [[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 0, -1]],
    # zero subdiagonal with nonzeros further down: the pivot needs a swap
    [[1, 2, 3, 4], [0, 5, 6, 7], [3, 0, 8, 9], [0, 2, 0, -1]],
])
def test_modular_charpoly_edge_cases(matrix):
    for p in (2, 3, 5):
        assert _dense(matrix, p).coefficients == charpoly_berkowitz(matrix).coefficients


@pytest.mark.parametrize("n, size, passes", [(20, 10**6, 1)])
def test_modular_charpoly_on_large_coefficients(n, size, passes, monkeypatch):
    # 20 x 20 near 10^6: coefficients past 2^127, in one pass modulo one ℓ
    rng = random.Random(20)
    matrix = [[rng.choice((-1, 1)) * rng.randrange(size - 100, size + 100)
               for _ in range(n)] for _ in range(n)]
    moduli = []
    one_pass = schreier._charpoly_mod
    monkeypatch.setattr(schreier, "_charpoly_mod",
                        lambda m, ell: moduli.append(ell) or one_pass(m, ell))
    poly = _dense(matrix)
    assert len(moduli) == passes
    assert max(abs(c) for c in poly.coefficients) > 2**127
    assert poly.coefficients == charpoly_berkowitz(matrix).coefficients


@pytest.mark.parametrize("spec", [F4, make_trunc_ring(2, 2), make_field(3, 1)],
                         ids=["GF4", "F2[t]/t^2", "GF3"])
def test_modular_charpoly_equals_berkowitz_on_coset_graphs(spec):
    for graph in _rep_graphs(spec):
        assert char_poly(graph).coefficients == charpoly_berkowitz(graph.adjacency).coefficients


def test_modular_charpoly_past_the_known_primes_raises(monkeypatch):
    # the bound needs a modulus past 2,048 bits, so the cap raises before any search
    searched = []
    monkeypatch.setattr(schreier, "is_prime", lambda n: searched.append(n) or True)
    big = 2 ** 2000
    with pytest.raises(SizeCapExceeded, match="2048 bits"):
        _dense([[big] * 12 for _ in range(12)])
    assert searched == []


def test_modulus_search_is_deterministic():
    schreier._modulus.cache_clear()
    for p, bound in ((2, 6), (3, 10**40), (5, 3**300)):
        ell, omega = schreier._modulus(p, bound)
        assert (ell, omega) == schreier._modulus.__wrapped__(p, bound)
        assert ell % (2 * p) == 1 and ell > 2 * bound
        assert is_prime(ell) and omega != 1 and pow(omega, p, ell) == 1
        # no ℓ ≡ 1 (mod 2p) between 2·bound and ℓ passes
        assert not any(is_prime(c) for c in range(ell - 2 * p, 2 * bound, -2 * p))


@pytest.mark.parametrize("bound, found", [(10, (29, 28)), (42, (89, 88)), (322, (653, 652))])
def test_modulus_search_skips_a_candidate_that_fails_the_root_checks(bound, found, monkeypatch):
    # with every candidate called prime: 21 and 25 fail both checks; 85 gives
    # ω = 4, with ω - 1 a unit but ω^2 ≠ 1; 645 = 3·5·43 gives ω = 259, with
    # ω^2 ≡ 1 but ω - 1 = 258 sharing 3·43 with it; 649 also fails
    monkeypatch.setattr(schreier, "is_prime", lambda n: True)
    assert schreier._modulus.__wrapped__(2, bound) == found


# a 3-vertex multigraph whose first Hessenberg pivot is 3
PIVOT_THREE = ((1, 3), (2, 3)), ((0, 3),), ((0, 3),)


def test_a_pivot_that_is_not_a_unit_raises(monkeypatch):
    # 3·(2^61 - 1) passes no primality test, but were it patched in, the
    # pivot 3 has no inverse modulo it
    monkeypatch.setattr(schreier, "_modulus", lambda p, bound: (3 * (2**61 - 1), 1))
    with pytest.raises(SelfCheckFailed, match="not a unit"):
        charpoly_by_centre(PIVOT_THREE, 2, 0)


def test_charpoly_cap():
    graph = build_coset_graph(horizontal_subgroup(G4), GENS4)
    with pytest.raises(SizeCapExceeded):
        char_poly(graph, cap=4)


# ---------------------------------------------------------------------------
# Cospectrality
# ---------------------------------------------------------------------------


def test_gassmann_pairs_are_cospectral():
    graphs = _rep_graphs()
    polys = [char_poly(g) for g in graphs]
    assert all(p.coefficients == polys[0].coefficients for p in polys[1:])


def test_isospectral_self_and_size_mismatch():
    h0 = horizontal_subgroup(G4)
    poly = char_poly(build_coset_graph(h0, GENS4))
    assert poly == char_poly(coset_graph_bruteforce(h0, GENS4))
    whole = charpoly_by_centre(coset_graph_bruteforce(whole_group(G4), GENS4).rows, 2, 0)
    assert poly != whole
    assert poly.degree == 16 and whole.degree == 1


def test_isospectral_spec_mismatch():
    # graphs of two groups cannot share a generator set
    with pytest.raises(SpecMismatch):
        build_coset_graph(horizontal_subgroup(heisenberg_group(F2)), GENS4)


# ---------------------------------------------------------------------------
# The oracle of Sunada's theorem: translations onto H_0's blocks
# ---------------------------------------------------------------------------


def _paths(graph):
    """Per line of characters, the translation that matched H_0's block, or None where
    none did; the oracle gives a graph with a None its own char_poly."""
    return oracles.translations(graph)


# the dense route's reach here: 81 vertices, F_3[t]/t^2's graphs, take it about 0.07 s
DENSE_VERTICES = 81


def _assert_char_poly_is_the_oracle(graph):
    """char_poly against a route that runs no pass on this graph's blocks: H_0's
    polynomial where the oracle matches every line onto a translate of H_0's blocks,
    else the dense polynomial at rank 0; the oracle falls back to char_poly there."""
    expected = oracles.charpoly_by_translation(graph)
    if expected is None:
        assert graph.n <= DENSE_VERTICES
        expected = charpoly_by_centre(graph.rows, graph.group.ring.p, 0)
    assert char_poly(graph) == expected
    assert oracles.distinct_charpolys([graph]) == ([expected.coefficients], [0])


def _with_one_one_one(spec):
    group = heisenberg_group(spec)
    one = spec.one()
    return (*default_generators(group), (one, one, one))


@pytest.mark.parametrize("spec", [F4, make_field(2, 3), make_field(3, 2)], ids=repr)
def test_every_block_of_every_class_rep_is_a_translate_over_a_field(spec):
    for gens in (default_generators(heisenberg_group(spec)), _with_one_one_one(spec)):
        for graph in _rep_graphs(spec, gens):
            assert None not in _paths(graph)
            _assert_char_poly_is_the_oracle(graph)


@pytest.mark.parametrize("spec, sample", [(make_field(2, 4), 12), (make_field(5, 2), 3)],
                         ids=["GF16", "GF25"])
def test_char_poly_by_translation_equals_the_oracle_on_sampled_reps(spec, sample):
    for graph in _rep_graphs(spec, sample=sample):
        assert None not in _paths(graph)
        _assert_char_poly_is_the_oracle(graph)


# ring -> (lines that match a translate, lines) over the class reps' graphs
TRUNCATED_MATCHES = {
    "F2[t]/t^2": (make_trunc_ring(2, 2), 14, 16),
    "F3[t]/t^2": (make_trunc_ring(3, 2), 39, 45),
    "F2[t]/t^3": (make_trunc_ring(2, 3), 400, 512),
}


@pytest.mark.parametrize("name", list(TRUNCATED_MATCHES))
def test_over_a_truncated_ring_some_blocks_match_no_translate(name):
    # a ↦ ψ(a·x) is not onto the characters there, so some blocks are no translates;
    # the dense route checks a seeded sample of 9 graphs where a family is larger
    spec, matched, lines = TRUNCATED_MATCHES[name]
    graphs = _rep_graphs(spec)
    paths = [x for graph in graphs for x in _paths(graph)]
    assert (sum(x is not None for x in paths), len(paths)) == (matched, lines)
    for graph in random.Random(len(graphs)).sample(graphs, min(9, len(graphs))):
        _assert_char_poly_is_the_oracle(graph)


def _h0_rows(gens=GENS4):
    """Every row of H_0's graph over GF(4)."""
    return build_coset_graph(horizontal_subgroup(G4), gens).rows


def _claiming(rows, gens=GENS4, rank=2, group=G4):
    """The graph with these rows that claims the generators of GF(4)'s family."""
    return CosetGraph.from_rows(group, gens, rows, rank)


H0_POLY = char_poly(build_coset_graph(horizontal_subgroup(G4), GENS4))


def test_a_graph_whose_blocks_match_no_translate_falls_back():
    # the rows of the five-generator graph of H_0, claiming the default generators:
    # every block has degree 5, H_0's 4
    graph = _claiming(_h0_rows(gens=_five_generators()))
    assert _paths(graph) == [None] * 4
    _assert_char_poly_is_the_oracle(graph)
    assert char_poly(graph) != H0_POLY


def test_a_match_compares_multiplicities():
    # H_0 with every edge doubled: its blocks have H_0's entries at every phase, but
    # twice as many of each, and its polynomial is not H_0's
    graph = _claiming(tuple(tuple((v, 2 * mult) for v, mult in row) for row in _h0_rows()))
    assert _paths(graph) == [None] * 4
    _assert_char_poly_is_the_oracle(graph)
    assert char_poly(graph) != H0_POLY


def test_a_match_compares_phases():
    # H_0 with every voltage made trivial: vertex a·4 + t goes wherever its
    # representative goes, plus t, so each block has H_0's multiplicities at phase 0
    # alone; only the trivial character's block, the quotient's, is H_0's
    width = 4
    plus = schreier._digit_sums(2, 2)
    reps = [Counter() for _ in range(width)]
    for a, row in enumerate(_h0_rows()[::width]):
        for v, mult in row:
            reps[a][v - v % width] += mult
    rows = tuple(tuple(sorted((base + plus[t][0], mult) for base, mult in rep.items()))
                 for rep in reps for t in range(width))
    graph = _claiming(rows)
    paths = _paths(graph)
    assert paths[0] is not None and paths[1:] == [None] * 3
    _assert_char_poly_is_the_oracle(graph)
    assert char_poly(graph) != H0_POLY


def test_a_graph_of_another_rank_takes_no_translation():
    # H_0's quotient by the centre, q vertices at rank 0: as many rows as H_0 has
    # representatives, but no action of the ring's rank, so its own dense polynomial
    rows = []
    for row in _h0_rows()[::4]:
        quotient = Counter()
        for v, mult in row:
            quotient[v // 4] += mult
        rows.append(tuple(sorted(quotient.items())))
    graph = _claiming(tuple(rows), rank=0)
    assert len(graph.reps) == F4.size
    assert oracles.charpoly_by_translation(graph) is None
    _assert_char_poly_is_the_oracle(graph)
    assert char_poly(graph).degree == 4


def test_a_bad_generator_set_raises_at_every_build():
    h0 = horizontal_subgroup(G4)
    build_coset_graph(h0, GENS4)
    for _ in range(2):
        with pytest.raises(SpecMismatch):
            build_coset_graph(h0, [((1,), (0,), (0,))])
        with pytest.raises(EmptyGeneratorSet):
            build_coset_graph(h0, [])


def test_two_generator_sets_over_one_ring_keep_two_families():
    five = tuple(_five_generators())
    assert schreier._family(G4, five) is not schreier._family(G4, GENS4)
    assert schreier._family(G4, GENS4) is schreier._family(G4, GENS4)
    # built alternately, each set's graphs are the walk's, and each polynomial its own
    for f in enumerate_class_reps(F4).reps:
        for gens in (five, GENS4):
            fast, _ = _assert_closed_form_equals_the_walk(twisted_subgroup(f, G4), gens)
            _assert_char_poly_is_the_oracle(fast)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def test_identical_graphs_are_isomorphic_with_identity_witness():
    graph = _rep_graphs()[0]
    res = are_isomorphic(graph, graph)
    assert res.isomorphic
    assert res.witness == tuple(range(graph.n))
    assert verify_witness(graph.adjacency, graph.adjacency, res.witness)


def test_different_loop_counts_not_isomorphic():
    with_loops = _synthetic(((2, 0), (0, 2)))  # 4 loops, 2-regular
    mixed = _synthetic(((1, 1), (1, 1)))       # 2 loops, 2-regular
    assert not are_isomorphic(with_loops, mixed).isomorphic
    assert not are_isomorphic_bruteforce(with_loops, mixed).isomorphic
    # a loop and an edge between like-coloured vertices differ in the refinement invariant alone
    loops, edge = _synthetic(((1, 0), (0, 1))), _synthetic(((0, 1), (1, 0)))
    assert loops.refinement[0] != edge.refinement[0]


def test_different_vertex_counts_not_isomorphic():
    g1 = build_coset_graph(horizontal_subgroup(G4), GENS4)
    g2 = coset_graph_bruteforce(whole_group(G4), GENS4)
    assert not are_isomorphic(g1, g2).isomorphic


def test_refined_search_matches_bruteforce_on_gassmann_pairs():
    graphs = _rep_graphs()
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            fast = are_isomorphic(graphs[i], graphs[j])
            slow = are_isomorphic_bruteforce(graphs[i], graphs[j])
            assert fast.isomorphic == slow.isomorphic
            if fast.isomorphic:
                assert verify_witness(
                    graphs[i].adjacency, graphs[j].adjacency, fast.witness
                )


def test_conjugate_subgroups_give_isomorphic_graphs():
    sub = twisted_subgroup(LinearMap.from_flat(2, (0, 0, 1, 0), 2), G4)
    g = ((0, 1), (1, 1), (0, 0))
    moved = conjugate_subgroup(g, sub)
    res = are_isomorphic(
        build_coset_graph(sub, GENS4), build_coset_graph(moved, GENS4)
    )
    assert res.isomorphic


def _multigraphs(n):
    """Symmetric adjacency matrices with loops and multiplicities up to 2."""
    cells = n * (n + 1) // 2
    return st.lists(st.integers(0, 2), min_size=cells, max_size=cells).map(
        lambda flat: _symmetric(n, flat))


def _symmetric(n, flat):
    adj = [[0] * n for _ in range(n)]
    cells = iter(flat)
    for u in range(n):
        for w in range(u, n):
            adj[u][w] = adj[w][u] = next(cells)
    return adj


def _check_against_oracle(adj1, adj2):
    g1, g2 = _synthetic(adj1), _synthetic(adj2)
    fast = are_isomorphic(g1, g2)
    slow = are_isomorphic_bruteforce(g1, g2)
    assert fast.isomorphic == slow.isomorphic
    if fast.isomorphic:
        assert verify_witness(g1.adjacency, g2.adjacency, fast.witness)
    return fast


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(_multigraphs(n), _multigraphs(n))))
def test_isomorphism_equals_bruteforce_on_random_multigraphs(pair):
    _check_against_oracle(*pair)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(_multigraphs(n), st.permutations(range(n)))))
def test_isomorphism_finds_randomly_relabelled_copies(case):
    adj, perm = case
    assert _check_against_oracle(adj, _relabel(adj, perm)).isomorphic


def _lift(p, base, edges):
    """The p-fold cover of a multigraph on ``base`` vertices with Z/p voltages: vertex
    a·p + t, and edge (a, b, x) joins a·p + t to b·p + (t + x) mod p for every t."""
    adj = [[0] * (base * p) for _ in range(base * p)]
    for a, b, x in edges:
        for t in range(p):
            u, v = a * p + t, b * p + (t + x) % p
            adj[u][v] += 1
            if u != v:
                adj[v][u] += 1
            elif x:  # a loop with nonzero voltage joins t to t + x, once from each end
                adj[u][v] += 1
    return adj


@st.composite
def _covers(draw):
    """A random cover, a copy relabelled by orbit and by translation within each
    orbit (so it keeps the action), and an unrelated cover of the same size."""
    p = draw(st.sampled_from([2, 3]))
    base = draw(st.integers(1, 4 if p == 2 else 3))  # 9 vertices at most, for the oracle
    edge = st.tuples(st.integers(0, base - 1), st.integers(0, base - 1), st.integers(0, p - 1))
    edges, others = draw(st.lists(edge, max_size=8)), draw(st.lists(edge, max_size=8))
    orbits = draw(st.permutations(range(base)))
    shifts = draw(st.lists(st.integers(0, p - 1), min_size=base, max_size=base))
    perm = [orbits[k // p] * p + (k + shifts[k // p]) % p for k in range(base * p)]
    adj = _lift(p, base, edges)
    return p, adj, _relabel(adj, perm), _lift(p, base, others)


@settings(max_examples=150, deadline=None)
@given(_covers())
def test_root_pruning_equals_the_oracle_on_random_covers(case):
    # both graphs carry the translation of rank 1, so the search prunes at its root
    p, adj, relabelled, other = case
    group = heisenberg_group(make_field(p, 2))
    g1, g2, g3 = (_synthetic(a, group, 1) for a in (adj, relabelled, other))
    fast = are_isomorphic(g1, g2)
    assert fast.isomorphic and verify_witness(g1.adjacency, g2.adjacency, fast.witness)
    assert fast.witness == _unpruned(g1, g2)
    assert are_isomorphic(g1, g3).isomorphic == are_isomorphic_bruteforce(g1, g3).isomorphic


def _simple_graph(n, edges):
    adj = [[0] * n for _ in range(n)]
    for u, w in edges:
        adj[u][w] = adj[w][u] = 1
    return adj


C6 = _simple_graph(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_TRIANGLES = _simple_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
PRISM = _simple_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (0, 3), (1, 4), (2, 5)])
K33 = _simple_graph(6, [(u, w) for u in range(3) for w in range(3, 6)])


@pytest.mark.parametrize("left, right", [(C6, TWO_TRIANGLES), (K33, PRISM)],
                         ids=["C6-vs-2K3", "K33-vs-prism"])
def test_equal_refinement_invariants_are_separated_by_the_search(left, right):
    g1, g2 = _synthetic(left), _synthetic(right)
    assert g1.refinement[0] == g2.refinement[0]  # refinement alone cannot tell them apart
    assert not are_isomorphic(g1, g2).isomorphic
    assert not are_isomorphic_bruteforce(g1, g2).isomorphic
    perm = [3, 5, 0, 4, 1, 2]
    assert are_isomorphic(g1, _synthetic(_relabel(left, perm))).isomorphic


def test_isomorphism_cap():
    g1 = coset_graph_bruteforce(trivial_subgroup(heisenberg_group(F2)), default_generators(heisenberg_group(F2)))
    g2 = coset_graph_bruteforce(trivial_subgroup(heisenberg_group(F2)), default_generators(heisenberg_group(F2)))
    assert are_isomorphic(g1, g2).isomorphic  # 8 vertices, inside the cap
    # the cap counts refinements per search: separating K33 from the prism takes 7
    k33, prism = _synthetic(K33), _synthetic(PRISM)
    with pytest.raises(SizeCapExceeded):
        are_isomorphic(k33, prism, cap=6)
    assert not are_isomorphic(k33, prism, cap=7).isomorphic
    big1 = coset_graph_bruteforce(trivial_subgroup(G4), GENS4)
    with pytest.raises(SizeCapExceeded):
        are_isomorphic_bruteforce(big1, big1)  # brute cap is 16


def _partition(labels):
    blocks = {}
    for k, label in enumerate(labels):
        blocks.setdefault(label, []).append(k)
    return sorted(blocks.values())


@pytest.mark.parametrize("gens", [None, "five"], ids=["default", "five-generators"])
def test_isomorphism_classes_equal_the_pairwise_oracle(gens):
    group = G4
    gens = _five_generators() if gens == "five" else GENS4
    subs = [twisted_subgroup(f, group) for f in enumerate_class_reps(F4).reps]
    graphs = [build_coset_graph(sub, gens) for sub in subs]
    class_of, witnesses = isomorphism_classes(graphs)
    # union of the brute-force oracle's pairwise verdicts
    root = list(range(len(graphs)))
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if are_isomorphic_bruteforce(graphs[i], graphs[j]).isomorphic:
                root[j] = root[i]
    assert _partition(class_of) == _partition(root)
    for k, witness in enumerate(witnesses):
        leader = class_of.index(class_of[k])
        if k == leader:
            assert witness is None
        else:
            assert verify_witness(graphs[k].adjacency, graphs[leader].adjacency, witness)


def test_isomorphism_classes_search_only_leaders_of_their_bucket(monkeypatch):
    graphs = _rep_graphs(make_field(3, 2))
    calls = []
    search = schreier.are_isomorphic

    def recorded(g1, g2):
        calls.append((graphs.index(g1), graphs.index(g2)))
        return search(g1, g2)

    monkeypatch.setattr(schreier, "are_isomorphic", recorded)
    class_of, _ = isomorphism_classes(graphs)
    assert class_of == [0, 1, 1, 1, 2, 2, 1, 2, 2]
    leaders = {class_of.index(c) for c in class_of}
    assert len(calls) == 6
    for k, leader in calls:
        assert leader in leaders and leader < k
        assert graphs[k].refinement[0] == graphs[leader].refinement[0]


# ---------------------------------------------------------------------------
# Isomorphism classes as orbits of the automorphisms that fix the generators
# ---------------------------------------------------------------------------

F8, F9, F25 = make_field(2, 3), make_field(3, 2), make_field(5, 2)


def _one_one_t(spec):
    """The default generators and (1, 1, t): a set that only the identity φ fixes."""
    group = heisenberg_group(spec)
    one, t = spec.one(), spec.basis()[1]
    return schreier.symmetrize_generators(group, [*default_generators(group), (one, one, t)])


def _gf9_extra(*extra):
    """The default GF(9) generators and the given triples of coefficient tuples."""
    group = heisenberg_group(F9)
    return schreier.symmetrize_generators(group, [*default_generators(group), *extra])


# over GF(9): a set that only the identity fixes, with isomorphic graphs for the leader
# search to join, and one with 4 automorphisms whose orbits that search merges
GF9_SEARCHED = ((0, 0), (0, 1), (1, 2)), ((1, 2), (0, 2), (0, 1))
GF9_MERGED = (((1, 0), (0, 0), (0, 2)),)


def _frobenius_power(spec, x, e):
    """x^(p^e) by multiplication in the ring."""
    for _ in range(e):
        y = x
        for _ in range(spec.p - 1):
            y = spec.mul(y, x)
        x = y
    return x


def _fixing_automorphisms(spec, gens):
    """(e, index(λ), index(μ)) of every φ that maps gens onto itself, each candidate
    tried by ring arithmetic on the generators."""
    els = spec.elements
    units = [x for x in els if spec.one() in (spec.mul(x, y) for y in els)]
    found = []
    for e, lam, mu in product(range(spec.dim), units, units):
        image = {(spec.mul(lam, _frobenius_power(spec, s0, e)),
                  spec.mul(mu, _frobenius_power(spec, s1, e)),
                  spec.mul(spec.mul(lam, mu), _frobenius_power(spec, s2, e)))
                 for s0, s1, s2 in gens}
        if image == set(gens):
            found.append((e, els.index(lam), els.index(mu)))
    return found


@pytest.mark.parametrize("spec, default, identity_only", [
    (F4, 2, 1), (F8, 1, 1), (F9, 32, 1), (F25, 8, 1)], ids=["gf4", "gf8", "gf9", "gf25"])
def test_the_automorphisms_that_fix_the_generators_equal_a_search_over_every_candidate(
        spec, default, identity_only):
    group = heisenberg_group(spec)
    for gens, count in ((default_generators(group), default), (_one_one_t(spec), identity_only)):
        found = schreier._family(group, gens).automorphisms
        assert list(found) == _fixing_automorphisms(spec, gens)
        assert len(found) == count


def _image_class_rep(spec, f, e, lam, mu):
    """(f'', β) with φ(H_f) = H_f', f'(y) = λμσ(f(σ⁻¹(λ⁻¹y))), and f'' = f' - mult(β) the
    canonical twist of f', by ring arithmetic; λ and μ by index."""
    els = spec.elements
    lam, mu = els[lam], els[mu]
    lam_inverse = next(y for y in els if spec.mul(lam, y) == spec.one())
    columns = [spec.mul(spec.mul(lam, mu), _frobenius_power(
        spec, f.apply(_frobenius_power(spec, spec.mul(lam_inverse, x), spec.dim - e)), e))
        for x in spec.basis()]
    image = LinearMap.from_columns(spec.p, columns)
    rep = canonical_twist(image, spec)
    return rep, spec.add(image.apply(spec.one()), spec.neg(rep.apply(spec.one())))


@pytest.mark.parametrize("spec, witnesses", [(F4, 8), (F8, 64), (F9, 288), (F25, 200)],
                         ids=["gf4", "gf8", "gf9", "gf25"])
def test_every_automorphism_maps_each_graph_onto_its_image_class_rep(spec, witnesses):
    group = heisenberg_group(spec)
    reps = enumerate_class_reps(spec).reps
    graphs = _rep_graphs(spec)
    checked = 0
    for phi in schreier._family(group, default_generators(group)).automorphisms:
        for k, f in enumerate(reps):
            rep, beta = _image_class_rep(spec, f, *phi)
            witness = OrbitWitness(*phi, spec.elements.index(beta))
            image = graphs[reps.index(rep)]
            assert witness_maps_onto(graphs[k], image, witness)
            assert maps_onto(graphs[k].rows, image.rows, witness_permutation(spec, witness))
            checked += 1
    assert checked == witnesses


@pytest.mark.parametrize("spec", [F4, F9], ids=["gf4", "gf9"])
def test_the_check_on_the_representatives_equals_maps_onto_on_every_row(spec):
    # every σ, β and pair of units, fixing the generators or not, between graphs 0 and 1
    # and from graph 1 onto itself
    graphs = _rep_graphs(spec)
    units = schreier._unit_tables(spec)[1]
    outcomes = Counter()
    for e, lam, mu, beta in product(range(spec.dim), units, units, range(spec.size)):
        witness = OrbitWitness(e, lam, mu, beta)
        permutation = witness_permutation(spec, witness)
        for g1, g2 in ((graphs[0], graphs[1]), (graphs[1], graphs[1])):
            holds = witness_maps_onto(g1, g2, witness)
            assert holds == maps_onto(g1.rows, g2.rows, permutation)
            outcomes[holds] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("witness", [(2, 1, 1, 0), (-1, 1, 1, 0), (0, 0, 1, 0), (0, 1, 4, 0),
                                     (0, 1, 1, 4), (0, 1, 1, -1)],
                         ids=["sigma-past-m", "sigma-negative", "lambda-zero", "mu-past-q",
                              "beta-past-q", "beta-negative"])
def test_a_witness_out_of_range_maps_nothing(witness):
    graph = _rep_graphs()[1]
    assert not witness_maps_onto(graph, graph, OrbitWitness(*witness))
    assert witness_maps_onto(graph, graph, OrbitWitness(0, 2, 2, 0))  # the identity


def _orbit_cases():
    for name, spec in (("gf4", F4), ("gf8", F8), ("gf9", F9), ("gf25", F25)):
        group = heisenberg_group(spec)
        yield pytest.param(spec, default_generators(group), id=f"{name}-default")
        yield pytest.param(spec, _one_one_t(spec), id=f"{name}-identity-only")
    yield pytest.param(F9, _gf9_extra(*GF9_SEARCHED), id="gf9-searched")
    yield pytest.param(F9, _gf9_extra(*GF9_MERGED), id="gf9-merged")
    # over a truncated ring σ is the identity alone and λ, μ range over the units
    for name, spec in (("f2-t2", make_trunc_ring(2, 2)), ("f3-t2", make_trunc_ring(3, 2))):
        yield pytest.param(spec, default_generators(heisenberg_group(spec)), id=name)


@pytest.mark.parametrize("spec, gens", list(_orbit_cases()))
def test_orbit_classes_equal_the_full_search(spec, gens):
    # today's search over the whole family is the oracle of the classes
    reps = enumerate_class_reps(spec).reps
    class_of, witnesses = orbit_classes(reps, _rep_graphs(spec, gens))
    assert class_of == isomorphism_classes(_rep_graphs(spec, gens))[0]
    graphs = _rep_graphs(spec, gens)
    kinds = Counter()
    for k, witness in enumerate(witnesses):
        first = class_of.index(class_of[k])
        if k == first:
            assert witness is None
            continue
        kinds[type(witness).__name__] += 1
        if isinstance(witness, OrbitWitness):
            assert witness_maps_onto(graphs[k], graphs[first], witness)
            witness = witness_permutation(spec, witness)
        assert maps_onto(graphs[k].rows, graphs[first].rows, witness)
    if gens == _gf9_extra(*GF9_MERGED):
        # both an orbit witness and a permutation composed through a merged leader
        assert kinds == {"OrbitWitness": 2, "tuple": 3}
    if graphs[0].n <= 16:
        for i, j in combinations(range(len(graphs)), 2):
            assert (are_isomorphic_bruteforce(graphs[i], graphs[j]).isomorphic
                    == (class_of[i] == class_of[j]))


def test_a_set_that_only_the_identity_fixes_takes_the_search_alone(monkeypatch):
    # over GF(8) no other φ fixes the default generators: no map is moved and every
    # graph is a leader, as isomorphism_classes takes them
    moved = []
    twist = schreier.canonical_twist
    monkeypatch.setattr(schreier, "canonical_twist",
                        lambda f, spec: moved.append(f) or twist(f, spec))
    graphs = _rep_graphs(F8)
    assert orbit_classes(enumerate_class_reps(F8).reps, graphs) == isomorphism_classes(graphs)
    assert moved == []


def test_orbit_classes_refine_and_search_the_orbit_leaders_alone(monkeypatch):
    # over GF(9) the orbits are the classes, so the leaders are the first members 0,
    # 1 and 4, and no other graph is refined, searched or expanded
    graphs = _rep_graphs(F9)
    refined, searched, expanded = [], [], []
    refinement, rows = CosetGraph.refinement, CosetGraph.rows
    search = schreier.are_isomorphic
    monkeypatch.setattr(CosetGraph, "refinement", property(
        lambda graph: refined.append(graphs.index(graph)) or refinement.func(graph)))
    monkeypatch.setattr(CosetGraph, "rows", property(
        lambda graph: expanded.append(graph) or rows.fget(graph)))
    monkeypatch.setattr(schreier, "are_isomorphic", lambda g1, g2: searched.append(
        (graphs.index(g1), graphs.index(g2))) or search(g1, g2))
    class_of, witnesses = orbit_classes(enumerate_class_reps(F9).reps, graphs)
    assert class_of == [0, 1, 1, 1, 2, 2, 1, 2, 2]
    assert set(refined) == {0, 1, 4} and expanded == []
    assert all(i in (0, 1, 4) and j in (0, 1, 4) for i, j in searched)
    assert [k for k, w in enumerate(witnesses) if isinstance(w, OrbitWitness)] == \
        [2, 3, 5, 6, 7, 8]


def test_the_root_refinement_keeps_one_colour_per_orbit():
    # the cached refinement runs on the centre's orbits and keeps q colours; expanded
    # per vertex they are those that the same helper gives vertex by vertex, from the
    # rows, with the same digest
    for spec, sample in ((F4, None), (make_field(2, 3), None), (make_field(3, 2), None),
                         (make_trunc_ring(2, 2), None), (make_trunc_ring(3, 2), None),
                         (make_field(2, 4), 6), (make_field(5, 2), 6)):
        for graph in _rep_graphs(spec, sample=sample):
            digest, colours = graph.refinement
            assert graph.centre_width == len(colours) == spec.size
            assert schreier._refine(graph.rows, [0] * graph.n) == (
                digest, _per_vertex(colours, spec.size))


def test_packed_refinement_keeps_the_pair_refinement():
    # the reference refinement by (colour, multiplicity) pairs gives the same colours,
    # and its whole invariants are equal exactly where the digests are, pair by pair:
    # at the root on the representatives' rows (width q), and below it on all the rows
    # with each vertex of the smallest non-singleton root cell individualised (width 1)
    for spec, sample in ((F4, None), (make_field(2, 3), None), (make_field(3, 2), None),
                         (make_trunc_ring(2, 2), None), (make_trunc_ring(3, 2), None),
                         (make_field(2, 4), 6), (make_field(5, 2), 3)):
        root, below = [], []
        for graph in _rep_graphs(spec, sample=sample):
            start = [0] * len(graph.reps)
            root.append((schreier._refine(graph.reps, start, spec.size),
                         oracles.refine_by_pairs(graph.reps, start, spec.size)))
            colours, rows = _per_vertex(root[-1][0][1], spec.size), graph.rows
            _, target = min((size, c) for c, size in Counter(colours).items() if size > 1)
            for v in (v for v, c in enumerate(colours) if c == target):
                split = schreier._individualize(colours, v)
                below.append((schreier._refine(rows, split), oracles.refine_by_pairs(rows, split)))
        for results in (root, below):
            assert all(packed[1] == pairs[1] for packed, pairs in results)
            # equal digests exactly where the invariants are equal: the pairs of
            # (digest, invariant) are as many as the distinct digests and invariants
            digests, invariants = ([r[0] for r in side] for side in zip(*results))
            assert (len(set(digests)) == len(set(invariants))
                    == len(set(zip(digests, invariants))))
        # below the root some invariants agree and some differ
        assert 1 < len(set(digests)) < len(digests)


def test_colliding_digests_only_let_a_search_run(monkeypatch):
    # were every digest equal, every pair would be searched, to the same classes, and
    # a leaf whose colourings differ would be no witness rather than an error
    refine = schreier._refine
    for spec in (F4, make_field(3, 2), make_trunc_ring(2, 2), make_trunc_ring(3, 2)):
        class_of, _ = isomorphism_classes(_rep_graphs(spec))
        monkeypatch.setattr(schreier, "_refine", lambda *args: (0, refine(*args)[1]))
        graphs = _rep_graphs(spec)
        collided, witnesses = isomorphism_classes(graphs)
        monkeypatch.setattr(schreier, "_refine", refine)
        assert collided == class_of
        firsts = [graphs[class_of.index(c)] for c in class_of]
        assert all(w is None or maps_onto(graph.rows, first.rows, w)
                   for graph, first, w in zip(graphs, firsts, witnesses))


# field -> refinement nodes of the searches between its class-rep graphs, with the
# centre's pruning at the root and without it
SEARCH_NODES = {(2, 2): (2, 2), (2, 3): (26, 117), (3, 2): (96, 96)}


@pytest.mark.parametrize("field", list(SEARCH_NODES), ids=["GF4", "GF8", "GF9"])
def test_root_pruning_keeps_every_witness(field, monkeypatch):
    graphs = _rep_graphs(make_field(*field))
    nodes = [0]
    refine = schreier._refine
    monkeypatch.setattr(schreier, "_refine",
                        lambda *args: nodes.__setitem__(0, nodes[0] + 1) or refine(*args))
    pruned = unpruned = 0
    for i, g1 in enumerate(graphs):
        for g2 in graphs[i + 1:]:
            if g1.refinement[0] != g2.refinement[0]:
                continue
            nodes[0] = 0
            witness = are_isomorphic(g1, g2).witness
            pruned += nodes[0]
            nodes[0] = 0
            # width 1: every root candidate is tried
            assert witness == _unpruned(g1, g2)
            unpruned += nodes[0]
    assert (pruned, unpruned) == SEARCH_NODES[field]


# search -> (its module, (module, name, stand-in)) that makes the search's final
# check reject its witness
REJECTED_WITNESS = {
    # a search that returns the identity, which does not map the relabelled copy
    "are_isomorphic": (schreier, (schreier, "_search",
                                  lambda rows1, *args: list(range(len(rows1))))),
    "are_isomorphic_bruteforce": (oracles, (schreier, "verify_witness", lambda *args: False)),
}


@pytest.mark.parametrize("search", list(REJECTED_WITNESS))
def test_rejected_witness_raises_even_under_optimization(search, monkeypatch):
    # a relabelled copy forces a real search; a witness that fails its
    # check must raise, not be dropped the way python -O drops an assert
    graph = _rep_graphs()[1]
    shift = [(v + 1) % graph.n for v in range(graph.n)]
    # the relabelling moves the centre's orbits, so the copy claims no action
    relabelled = CosetGraph(graph.group, graph.gens, _rows(_relabel(graph.adjacency, shift)), 0)
    assert relabelled.rows != graph.rows
    home, patch = REJECTED_WITNESS[search]
    assert getattr(home, search)(graph, relabelled).isomorphic
    monkeypatch.setattr(*patch)
    with pytest.raises(SelfCheckFailed):
        getattr(home, search)(graph, relabelled)


# ---------------------------------------------------------------------------
# Characteristic polynomials through the centre's action
# ---------------------------------------------------------------------------


def _subgroup_graphs(*subgroups):
    return [coset_graph_bruteforce(sub(G4), GENS4) for sub in subgroups]


# case -> (graphs, rank r of the centre's free action on their vertex numbers)
CENTRE_CASES = {
    "GF3": lambda: (_rep_graphs(make_field(3, 1)), 1),
    "GF5": lambda: (_rep_graphs(make_field(5, 1)), 1),
    "GF4": lambda: (_rep_graphs(F4), 2),
    "GF8": lambda: (_rep_graphs(make_field(2, 3)), 3),
    "GF9": lambda: (_rep_graphs(make_field(3, 2)), 2),
    "GF4-five-generators": lambda: (_rep_graphs(F4, _five_generators()), 2),
    "F2[t]/t^2": lambda: (_rep_graphs(make_trunc_ring(2, 2)), 2),
    # Z acts freely on the 64 elements, the last digits of the vertex number;
    # it fixes every coset of the centre and of the whole group, so rank 0
    "GF4-trivial": lambda: (_subgroup_graphs(trivial_subgroup), 2),
    "GF4-centre-and-whole-group": lambda: (_subgroup_graphs(center_subgroup, whole_group), 0),
    "synthetic": lambda: ([_synthetic(adj) for adj in (C6, PRISM, K33, K4)], 0),
}


@pytest.mark.parametrize("case", list(CENTRE_CASES))
def test_factorised_charpoly_equals_the_dense_oracle(case, monkeypatch):
    graphs, rank = CENTRE_CASES[case]()
    one_pass = schreier._charpoly_mod
    sizes = []
    monkeypatch.setattr(schreier, "_charpoly_mod",
                        lambda m, ell: sizes.append(len(m)) or one_pass(m, ell))
    for graph in graphs:
        p = graph.group.ring.p
        dense = charpoly_by_centre(graph.rows, p, 0)
        sizes.clear()
        factored = charpoly_by_centre(graph.rows, p, rank)
        assert factored == dense
        # the quotient block, then p - 1 blocks over F_ℓ per line through 0 in F_p^r
        quotient = graph.n // p**rank
        assert sizes == [quotient] + [quotient] * (p - 1) * ((p**rank - 1) // (p - 1))
        if rank == graph.group.ring.dim:  # char_poly takes the rank from the ring
            assert char_poly(graph) == factored


def test_factorised_charpoly_agrees_with_the_dense_one_modulo_a_prime_on_gf16():
    spec = make_field(2, 4)
    group = heisenberg_group(spec)
    f = LinearMap.from_flat(2, (1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1), 4)
    graph = build_coset_graph(twisted_subgroup(f, group), default_generators(group))
    assert graph.n == 256
    prime = 2**61 - 1
    poly = char_poly(graph).coefficients
    assert [c % prime for c in poly] == schreier._charpoly_mod(graph.adjacency, prime)


# field -> SHA-256 of the comma-joined coefficients of the charpoly of the
# class-rep-0 graph with the default generators, as the Z[ζ_p]-block route
# computed them; the dense oracle cannot reach these sizes
PINNED_CHARPOLYS = {
    (3, 3): "8110b2373f600f75f6af3a59ecac258e60232347a7aeb493ffd71354d19c1693",
    (5, 2): "48037d5deedb029dd02a4fb007e806fd9bc56dd34ded53980e6e53004bc5a56c",
}


@pytest.mark.parametrize("field", list(PINNED_CHARPOLYS), ids=["GF27", "GF25"])
def test_charpoly_of_the_first_class_rep_keeps_its_pinned_digest(field):
    spec = make_field(*field)
    group = heisenberg_group(spec)
    sub = twisted_subgroup(enumerate_class_reps(spec).reps[0], group)
    poly = char_poly(build_coset_graph(sub, default_generators(group)))
    digest = hashlib.sha256(",".join(map(str, poly.coefficients)).encode()).hexdigest()
    assert digest == PINNED_CHARPOLYS[field]


def test_klein_four_action_on_k4_gives_its_spectrum():
    # (0 1)(2 3) and (0 2)(1 3) act regularly: four 1 x 1 blocks, eigenvalues 3, -1, -1, -1
    poly = charpoly_by_centre(_rows(K4), 2, 2)
    assert poly.coefficients == (1, 0, -6, -8, -3) == charpoly_berkowitz(K4).coefficients


PATH4 = _simple_graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = _simple_graph(4, [(u, w) for u in range(4) for w in range(u + 1, 4)])


def _without_one_edge(graph, u):
    """The adjacency of the graph less one edge u-v, v not an orbit representative either."""
    adjacency = [list(row) for row in graph.adjacency]
    v = next(v for v, mult in enumerate(adjacency[u]) if mult and v != u and v % graph.centre_width)
    adjacency[u][v] -= 1
    adjacency[v][u] -= 1
    return adjacency


# name -> (dense adjacency, p, rank r, message): each breaks one check of the certificate
BROKEN_CENTRE_ACTIONS = {
    # σ_0 = (0 1)(2 3) moves the edge 1-2 to 0-3
    "not-an-automorphism": (PATH4, 2, 1, "not an automorphism"),
    "orbits-do-not-divide": (K4, 3, 1, "4 vertices do not split into orbits of 3"),
    # the rows of vertex 1 and of its neighbour are no translates of their representatives'
    "GF4-graph-less-one-edge": (_without_one_edge(build_coset_graph(horizontal_subgroup(G4),
                                                                    GENS4), 1),
                                2, 2, "not an automorphism"),
}


@pytest.mark.parametrize("name", list(BROKEN_CENTRE_ACTIONS))
def test_broken_centre_action_raises(name):
    adjacency, p, r, message = BROKEN_CENTRE_ACTIONS[name]
    with pytest.raises(SelfCheckFailed, match=message):
        charpoly_by_centre(_rows(adjacency), p, r)
    # rows that claim the action are checked by the certified constructor, so no
    # graph is made that could refine or factor them
    with pytest.raises(SelfCheckFailed, match=message):
        _synthetic(adjacency, heisenberg_group(make_field(p, 2)), r)


def test_broken_centre_actions_raise_even_under_optimization():
    # the checks raise explicitly, so python -O, which drops asserts, keeps
    # them, and so do the modulus search and the pivot check
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "import json, sys\n"
        "from gassmann import schreier\n"
        "from gassmann.errors import SelfCheckFailed, SizeCapExceeded\n"
        "from gassmann.heisenberg import heisenberg_group\n"
        "from gassmann.rings import make_field\n"
        "from gassmann.oracles import charpoly_by_centre\n"
        "from gassmann.schreier import CosetGraph\n"
        "for name, (adjacency, p, r, message) in json.loads(sys.argv[1]).items():\n"
        "    rows = tuple(tuple((v, m) for v, m in enumerate(row) if m) for row in adjacency)\n"
        "    group = heisenberg_group(make_field(p, 2))\n"
        "    for check in (lambda: charpoly_by_centre(rows, p, r),\n"
        "                  lambda: CosetGraph.from_rows(group, (), rows, r)):\n"
        "        try:\n"
        "            check()\n"
        "        except SelfCheckFailed as exc:\n"
        "            print(name, message in str(exc))\n"
        "try:\n"
        "    charpoly_by_centre([[(0, 2**2100)]], 2, 0)\n"
        "except SizeCapExceeded:\n"
        "    print('cap', True)\n"
        "ell, omega = schreier._modulus(3, 10**40)\n"
        "print('search', ell % 6 == 1 and ell > 2 * 10**40 and pow(omega, 3, ell) == 1)\n"
        "schreier.is_prime = lambda n: True\n"
        "print('skip', schreier._modulus.__wrapped__(2, 10) == (29, 28))\n"
        "schreier._modulus = lambda p, bound: (3 * (2**61 - 1), 1)\n"
        "try:\n"
        "    charpoly_by_centre(json.loads(sys.argv[2]), 2, 0)\n"
        "except SelfCheckFailed as exc:\n"
        "    print('pivot', 'not a unit' in str(exc))\n"
    )
    args = [json.dumps(BROKEN_CENTRE_ACTIONS), json.dumps(PIVOT_THREE)]
    done = subprocess.run([sys.executable, "-O", "-c", script, *args],
                          env=env, capture_output=True, text=True, check=True)
    # charpoly_by_centre and the certified constructor each raise on every broken action
    cases = [*(name for name in BROKEN_CENTRE_ACTIONS for _ in range(2)),
             "cap", "search", "skip", "pivot"]
    assert done.stdout.splitlines() == [f"{name} True" for name in cases]


@pytest.mark.parametrize("spec", [F4, make_field(2, 3), make_field(3, 2), make_trunc_ring(2, 2),
                                  make_trunc_ring(3, 2)],
                         ids=["GF4", "GF8", "GF9", "F2[t]/t^2", "F3[t]/t^2"])
def test_the_centre_adds_one_to_a_digit_of_the_vertex_number(spec):
    # charpoly_by_centre(rows, p, r) takes σ_i to add 1 mod p to digit i of k mod p^r;
    # on a graph of H_f these must be the translations by (0, 0, e), walked here
    group = heisenberg_group(spec)
    p = spec.p

    def sigma(i, k):
        w = p**i
        digit = k // w % p
        return k + w * ((digit + 1) % p - digit)

    for f in enumerate_class_reps(spec).reps:
        sub = twisted_subgroup(f, group)
        # the walk's least members, vertex k the closed form's label of vertex k
        minima, _ = oracles.coset_minima(sub)
        assert minima == _closed_form_labels(spec)
        number = {v: k for k, v in enumerate(minima)}
        # index(c) reads c's coefficients as a base-p number, the first one highest
        for i, e in enumerate(reversed(spec.basis())):
            for k, (a, b, c) in enumerate(minima):
                least = min(group.mul(h, (a, b, spec.add(c, e))) for h in sub.elements)
                assert number[least] == sigma(i, k)
