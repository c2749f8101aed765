import ast
from collections import Counter
from pathlib import Path

import pytest

from gassmann.certify import (
    BRUTE_CONJ_WORK_LIMIT,
    BRUTE_ORBIT_LIMIT,
    ProductFamily,
    all_linear_maps,
    almost_conjugate,
    are_conjugate,
    bruteforce_subgroup_keys,
    canonical_twist,
    class_count,
    conjugate_pair_count,
    conjugator_oracle_runs,
    enumerate_class_reps,
    family_mode,
    intersection_profile,
    mult_subspace_echelon,
    orbit_oracle_runs,
    product_certificate,
    tensor_profiles,
    twist_orbit_count_bruteforce,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gassmann import certify, cli
from gassmann.errors import SizeCapExceeded, SpecMismatch
from gassmann.heisenberg import Heisenberg, heisenberg_group, twisted_subgroup
from gassmann.oracles import (
    PlainSubgroup,
    ProductGroup,
    center_subgroup,
    conjugate_subgroup,
    horizontal_subgroup,
    product_classes_from_factors,
    product_profile_direct,
    trivial_subgroup,
    whole_group,
    witness_class,
)
from gassmann.rings import LinearMap, make_field, make_trunc_ring, mult_matrix

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)
F8 = make_field(2, 3)


# ---------------------------------------------------------------------------
# Intersection profiles
# ---------------------------------------------------------------------------


def test_profile_sums_and_identity_entry():
    group = heisenberg_group(F4)
    table = group.conjugacy_classes()
    for f in all_linear_maps(F4):
        profile = intersection_profile(twisted_subgroup(f, group), table)
        assert sum(profile) == F4.size
        assert profile[table.identity_class()] == 1


def test_h0_profile_over_f4_frozen():
    # 19 classes: 4 central singletons + 15 noncentral classes of size 4.
    # H_0 meets the identity class once and one class per nonzero (x, 0).
    group = heisenberg_group(F4)
    table = group.conjugacy_classes()
    profile = intersection_profile(horizontal_subgroup(group), table)
    assert table.class_count == 19
    assert table.sizes() == (1, 1, 1, 1) + (4,) * 15
    assert profile == (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)


def test_profile_spec_mismatch():
    with pytest.raises(SpecMismatch):
        intersection_profile(
            horizontal_subgroup(heisenberg_group(F4)),
            heisenberg_group(F2).conjugacy_classes(),
        )


# ---------------------------------------------------------------------------
# Almost conjugacy
# ---------------------------------------------------------------------------


def test_every_twisted_pair_over_f4_is_gassmann_equal():
    group = heisenberg_group(F4)
    table = group.conjugacy_classes()
    subs = [twisted_subgroup(f, group) for f in all_linear_maps(F4)]
    assert len(subs) == 16
    certs = [
        almost_conjugate(subs[i], subs[j], table)
        for i in range(16)
        for j in range(i + 1, 16)
    ]
    assert len(certs) == 120
    assert all(c.equal for c in certs)
    assert all(witness_class(c) is None for c in certs)


def test_self_pair_is_equal():
    group = heisenberg_group(F9)
    h0 = horizontal_subgroup(group)
    assert almost_conjugate(h0, h0).equal


def test_center_vs_horizontal_is_unequal():
    group = heisenberg_group(F4)
    cert = almost_conjugate(horizontal_subgroup(group), center_subgroup(group))
    assert not cert.equal
    w = witness_class(cert)
    # the center meets central classes, the horizontal subgroup does not
    assert cert.profile_h[w] != cert.profile_k[w]
    assert len(cert.profile_h) == 19


def test_profiles_invariant_under_conjugation():
    group = heisenberg_group(F4)
    table = group.conjugacy_classes()
    sub = twisted_subgroup(LinearMap.from_flat(2, (0, 0, 1, 0), 2), group)
    base = intersection_profile(sub, table)
    for g in list(group.elements)[::7]:
        moved = conjugate_subgroup(g, sub)
        assert intersection_profile(moved, table) == base


def test_almost_conjugate_cap():
    group = heisenberg_group(F9)
    h0 = horizontal_subgroup(group)
    with pytest.raises(SizeCapExceeded):
        almost_conjugate(h0, h0, cap=10)


# ---------------------------------------------------------------------------
# Conjugacy dichotomy
# ---------------------------------------------------------------------------


def test_structural_conjugacy_examples():
    f = LinearMap.from_flat(2, (0, 0, 1, 0), 2)
    assert are_conjugate(f, f, F4)
    for b in F4.elements:
        shifted = f - mult_matrix(b, F4)
        assert are_conjugate(f, shifted, F4)
    g = f - LinearMap.from_columns(2, [(0, 0), (1, 0)])  # difference not a multiplication
    assert not are_conjugate(f, g, F4)


@pytest.mark.parametrize("spec", [F9, F8, F4])
def test_structural_equals_bruteforce_exhaustive_at_scale(spec):
    # all p^(m^2) twisted subgroups; the brute side keys each by its least
    # image under all of G, through the group law alone, no structural shortcuts
    group = heisenberg_group(spec)
    maps = list(all_linear_maps(spec))
    subs = [twisted_subgroup(f, group) for f in maps]
    table = group.conjugacy_classes()
    profiles = [intersection_profile(s, table) for s in subs]
    assert all(p == profiles[0] for p in profiles[1:])  # Gassmann, forward direction
    keys = bruteforce_subgroup_keys(group, subs)
    assert len(set(keys)) == spec.p ** (spec.m * (spec.m - 1))
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            assert (keys[i] == keys[j]) == are_conjugate(maps[i], maps[j], spec)


def test_cli_binds_the_one_conjugator_oracle():
    assert cli._bruteforce_subgroup_keys is bruteforce_subgroup_keys


@pytest.mark.parametrize(
    "spec", [make_trunc_ring(2, 2), make_trunc_ring(2, 3), make_trunc_ring(3, 2)], ids=repr
)
def test_oracle_partition_equals_structural_on_truncated_rings(spec):
    # the class reps plus one shifted copy of each, so the partition has
    # conjugate pairs as well as non-conjugate ones
    group = heisenberg_group(spec)
    reps = list(enumerate_class_reps(spec).reps)
    shift = mult_matrix(spec.elements[1], spec)
    maps = reps + [f - shift for f in reps]
    keys = bruteforce_subgroup_keys(group, [twisted_subgroup(f, group) for f in maps])
    assert len(set(keys)) == len(reps)
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            assert (keys[i] == keys[j]) == are_conjugate(maps[i], maps[j], spec)


@pytest.mark.parametrize("spec", [F2, F4, make_trunc_ring(2, 2)], ids=repr)
def test_oracle_keys_normal_subgroups_by_their_own_elements(spec):
    group = heisenberg_group(spec)
    subs = [center_subgroup(group), whole_group(group), trivial_subgroup(group)]
    keys = bruteforce_subgroup_keys(group, subs)
    assert keys == [tuple(sorted(sub.elements)) for sub in subs]


_HYPOTHESIS_RINGS = [F4, F8, make_trunc_ring(2, 3)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_HYPOTHESIS_RINGS), st.data())
def test_oracle_key_is_conjugation_invariant(spec, data):
    group = heisenberg_group(spec)
    f = data.draw(st.sampled_from(list(all_linear_maps(spec))))
    g = data.draw(st.sampled_from(group.elements))
    sub = twisted_subgroup(f, group)
    moved = conjugate_subgroup(g, sub)
    assert bruteforce_subgroup_keys(group, [sub]) == bruteforce_subgroup_keys(group, [moved])


def _definition_key(group, sub):
    return min(tuple(sorted(group.conjugate(g, h) for h in sub.elements)) for g in group.elements)


@pytest.mark.parametrize(
    "spec", [F4, make_trunc_ring(2, 2), F8, F9, make_trunc_ring(3, 2)], ids=repr)
def test_oracle_keys_are_the_least_conjugate_of_each_subgroup(spec):
    # twisted subgroups in conjugate pairs beside normal ones; the whole group
    # makes <U> = G non-abelian, so the span is closed over commutators too
    group = heisenberg_group(spec)
    g = group.elements[-1]
    assert g not in group.center_elements()
    reps = [twisted_subgroup(f, group) for f in enumerate_class_reps(spec).reps]
    subs = (reps + [conjugate_subgroup(g, sub) for sub in reps]
            + [center_subgroup(group), whole_group(group), trivial_subgroup(group)])
    assert bruteforce_subgroup_keys(group, subs) == [_definition_key(group, sub) for sub in subs]


@seed(2006)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_HYPOTHESIS_RINGS), st.data())
def test_oracle_keys_of_random_subfamilies_are_the_least_conjugates(spec, data):
    # a few maps, each subgroup beside a conjugated copy: a small union U leaves a
    # large kernel K, so the walk skips most of G, and a skip that missed an action
    # would leave some key above the least conjugate.  The kernel of a twisted
    # family is {(a, 0, c)}, which the lex order meets before any element that acts
    # like another; a cyclic subgroup <h> moves K off the coordinate axes, so the
    # walk also finds kernel elements as r^-1 g for a representative r other than 1
    group = heisenberg_group(spec)
    maps = data.draw(st.lists(st.sampled_from(list(all_linear_maps(spec))),
                              min_size=1, max_size=4))
    elements = st.sampled_from(group.elements)
    subs = []
    for f in maps:
        sub = twisted_subgroup(f, group)
        subs += [sub, conjugate_subgroup(data.draw(elements), sub)]
    for h in data.draw(st.lists(elements, max_size=2)):
        subs.append(PlainSubgroup(group, frozenset(_span(group, [h])), "cyclic"))
    assert bruteforce_subgroup_keys(group, subs) == [_definition_key(group, sub) for sub in subs]


def _span(group, gens):
    span = {group.identity()}
    while True:
        grown = span | {group.mul(x, s) for x in span for s in gens}
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("spec,family", [
    (F8, "class reps"), (F9, "class reps"), (make_trunc_ring(2, 3), "class reps"),
    (F3, "whole group")],
    ids=["gf8-class-reps", "gf9-class-reps", "f2t3-class-reps", "gf3-whole-group"])
def test_oracle_conjugates_the_union_once_per_distinct_action(monkeypatch, spec, family):
    # the spans of S and of the kernel K cost at most |<S>|.(|S| + 1) and
    # |K|.(log2 |K| + 1) products, covering the cosets of K at most |G|; the walk
    # conjugates S, at two products each plus one inverse, by at most
    # |A| + log2 |K| elements, and one element per distinct action conjugates
    # the union U; |G|.|U| conjugations at GF(8) would be 30,208 calls
    group = heisenberg_group(spec)
    subs = ([twisted_subgroup(f, group) for f in enumerate_class_reps(spec).reps]
            if family == "class reps" else [whole_group(group), trivial_subgroup(group)])
    pool = sorted(set().union(*(sub.elements for sub in subs)))
    gens = []
    for u in pool:
        if u not in _span(group, gens):
            gens.append(u)
    actions = {tuple(group.conjugate(g, u) for u in pool) for g in group.elements}
    kernel = [g for g in group.elements if all(group.conjugate(g, s) == s for s in gens)]
    log_kernel = len(kernel).bit_length() - 1
    assert len(actions) * len(kernel) == group.order
    bound = (len(_span(group, gens)) * (len(gens) + 1) + len(kernel) * (log_kernel + 1)
             + group.order + (len(actions) + log_kernel) * (2 * len(gens) + 1)
             + len(actions) * (2 * len(pool) + 1))
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Heisenberg, "mul", counted(Heisenberg.mul))
    monkeypatch.setattr(Heisenberg, "inv", counted(Heisenberg.inv))
    keys = bruteforce_subgroup_keys(group, subs)
    assert len(set(keys)) == len(subs)
    assert 0 < calls[0] <= bound
    if family == "whole group":
        # <U> = G is non-abelian, and what fixes it is the centre
        assert len(actions) > 1 and sorted(kernel) == sorted(group.center_elements())
    if spec == F8:
        old_work = 2 * group.order * len(pool) + group.order
        assert (len(gens), len(actions), old_work) == (5, 8, 30_208)
        # the walk before the cosets of K were skipped made 6,256 calls
        assert calls[0] <= 1_700 < 6_256 / 3


# the only reads of the group and of the subgroups that the conjugator oracle may
# make, and names of the structure that it must not touch
ORACLE_GROUP_READS = {"mul", "inv", "identity", "elements"}
ORACLE_SUBGROUP_READS = {"elements"}
ORACLE_STRUCTURE = ({"class_key", "canonical_twist", "is_mult_map", "mult_matrix", "_tables",
                     "ring", "conjugate", "conjugacy_classes", "center_elements", "f"}
                    | {name for name in dir(F4) if not name.startswith("__")})
_CONTAINER_METHODS = {name for kind in (set, list, dict, tuple) for name in dir(kind)}


def _oracle_reads(tree: ast.Module, name: str) -> list[str]:
    """What the function and the module's functions it calls read beyond the group's
    ORACLE_GROUP_READS, the subgroups' elements and containers of their own."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, problems = [name], set(), []
    while todo:
        fn = defs[todo.pop()]
        seen.add(fn.name)
        parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))]
        members = {target.id for node in loops if isinstance(node.iter, ast.Name)
                   and node.iter.id == "subgroups" for target in ast.walk(node.target)
                   if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if node.id in ORACLE_STRUCTURE - {"mul", "elements"}:
                    problems.append(f"{fn.name} names {node.id}")
                elif node.id == "group" and not isinstance(parents[node], ast.Attribute):
                    problems.append(f"{fn.name} hands the group on whole")
                elif node.id == "subgroups" and parents[node] not in loops:
                    problems.append(f"{fn.name} reads the subgroups other than by iterating")
                elif node.id in defs and node.id not in seen and isinstance(parents[node], ast.Call):
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else None
                allowed = (ORACLE_GROUP_READS if base == "group"
                           else ORACLE_SUBGROUP_READS if base in members
                           else _CONTAINER_METHODS)
                if node.attr not in allowed:
                    problems.append(f"{fn.name} reads {base or '(...)'}.{node.attr}")
    return problems


def test_the_conjugator_oracle_reads_the_group_law_alone():
    # a speed-up may not slip structure into the oracle: the group is read through
    # its law and its elements, each subgroup through its elements
    sample = ast.parse(
        "def oracle(group, subgroups):\n"
        "    helper(group.mul, group.ring)\n"
        "    keys = [sub.f for sub in subgroups]\n"
        "    return canonical_twist(keys), subgroups[0], group, set().union(x.val)\n"
        "def helper(mul, ring):\n"
        "    return mul._tables, ring\n")
    assert sorted(_oracle_reads(sample, "oracle")) == [
        "helper names ring", "helper reads mul._tables", "oracle hands the group on whole",
        "oracle names canonical_twist", "oracle reads group.ring",
        "oracle reads sub.f", "oracle reads the subgroups other than by iterating",
        "oracle reads x.val"]
    source = Path(certify.__file__).read_text()
    assert _oracle_reads(ast.parse(source), "bruteforce_subgroup_keys") == []


# ---------------------------------------------------------------------------
# Class catalogs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec,count", [(F4, 4), (F9, 9), (F8, 64), (F2, 1), (F3, 1)])
def test_catalog_counts(spec, count):
    catalog = enumerate_class_reps(spec)
    assert catalog.count == count == spec.p ** (spec.m * (spec.m - 1))
    assert twist_orbit_count_bruteforce(spec) == count


@pytest.mark.parametrize("spec", [F2, F3, F4], ids=repr)
def test_all_twists_pair_count_is_the_closed_form(spec):
    # every map of the all-twists family, keyed by its canonical twist: the class
    # multiplicities give the conjugate pairs that certify states in closed form
    assert family_mode(spec.p, spec.m) == "all-twists"
    keys = Counter(canonical_twist(f, spec) for f in all_linear_maps(spec))
    assert set(keys.values()) == {spec.size}
    assert (sum(c * (c - 1) // 2 for c in keys.values())
            == conjugate_pair_count(spec.p, spec.m) == len(keys) * spec.size * (spec.size - 1) // 2)


@pytest.mark.parametrize("spec", [F2, F3, F4, F8, F9, make_field(5, 2), make_field(2, 4),
                                  make_trunc_ring(2, 3), make_trunc_ring(3, 2)], ids=repr)
def test_class_count_is_the_catalog_size(spec):
    assert class_count(spec) == enumerate_class_reps(spec).count == spec.p ** (spec.dim**2 - spec.dim)


@pytest.mark.parametrize(
    "spec",
    [F4, F9, make_trunc_ring(2, 2), F2, F3, make_field(5, 1), F8,
     make_trunc_ring(2, 3), make_trunc_ring(3, 2)],
)
def test_catalog_invariants(spec):
    catalog = enumerate_class_reps(spec)
    reps = catalog.reps
    # no two representatives differ by a multiplication matrix
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not are_conjugate(reps[i], reps[j], spec)
    # the closed form equals the route it replaced: reduce all p^(n^2) maps
    # and keep the distinct results, sorted
    oracle = sorted({canonical_twist(f, spec).flatten() for f in all_linear_maps(spec)})
    assert [r.flatten() for r in reps] == oracle
    # canonicalization is a projection and fixes the reps
    for r in reps:
        assert canonical_twist(r, spec) == r
    # the eliminated subspace has dimension equal to the ring dimension
    assert len(mult_subspace_echelon(spec)) == spec.dim


_KEY_RINGS = [F4, F8, F9, make_trunc_ring(2, 3), make_trunc_ring(3, 2)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_KEY_RINGS), st.booleans(), st.data())
def test_canonical_twist_key_equals_structural_conjugacy(spec, shifted, data):
    n2 = spec.dim * spec.dim
    flat = st.tuples(*[st.integers(0, spec.p - 1)] * n2)
    f = LinearMap.from_flat(spec.p, data.draw(flat), spec.dim)
    if shifted:  # a conjugate of H_f, so both sides must say yes
        g = f - mult_matrix(data.draw(st.sampled_from(spec.elements)), spec)
    else:
        g = LinearMap.from_flat(spec.p, data.draw(flat), spec.dim)
    same_key = canonical_twist(f, spec) == canonical_twist(g, spec)
    assert same_key == are_conjugate(f, g, spec)
    assert same_key or not shifted


def test_catalog_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_class_reps(F9, cap=50)  # 3^4 = 81 maps to enumerate


# ---------------------------------------------------------------------------
# Truncated-ring class counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,j,exact,cited",
    [(2, 1, 1, 1), (2, 2, 4, 2), (2, 3, 64, 8), (3, 1, 1, 1), (3, 2, 9, 3)],
)
def test_tower_class_counts(p, j, exact, cited):
    assert class_count(make_trunc_ring(p, j)) == exact == p ** (j * (j - 1))
    assert cited == p ** (j * (j - 1) // 2)
    item = cli.cmd_tower(p, j)["items"][-1]
    assert (item["exact"], item["cited_lower"]) == (exact, cited)
    assert item["holds"] and item["gap"] == (exact != cited)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                                  (5, 1), (5, 2), (13, 1), (17, 1), (37, 1), (41, 1)])
def test_oracle_limits_follow_from_p_and_m(p, m):
    # the family bound |G|·q·n that fixes bruteforce_checked counts the family certify builds
    spec = make_field(p, m)
    q = spec.size
    n = len(list(all_linear_maps(spec))) if family_mode(p, m) == "all-twists" else (
        p ** (m * (m - 1)))
    assert conjugator_oracle_runs(p, m) == (q**3 * q * n <= BRUTE_CONJ_WORK_LIMIT)
    assert orbit_oracle_runs(p, m) == (p ** (m * m) <= BRUTE_ORBIT_LIMIT)
    # the fields that README's oracle ledger names
    assert conjugator_oracle_runs(p, m) == (q in (2, 3, 4, 5, 8, 9, 13, 17, 37))
    assert orbit_oracle_runs(p, m) == ((p, m) != (2, 5))


def test_tower_count_matches_orbit_oracle():
    # the closed form against both oracles wherever they reach: the
    # catalog under the default cap, the orbit count under the CLI's limit
    for p, j in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                 (7, 2)):
        spec = make_trunc_ring(p, j)
        exact = class_count(spec)
        assert exact == p ** (j * j - j) == enumerate_class_reps(spec).count
        if orbit_oracle_runs(p, j):
            assert exact == twist_orbit_count_bruteforce(spec)


def test_tower_count_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tower count must not enumerate maps")

    monkeypatch.setattr("gassmann.certify.enumerate_class_reps", refuse)
    monkeypatch.setattr("gassmann.certify.twist_orbit_count_bruteforce", refuse)
    report = cli.cmd_tower(2, 20)
    assert report["summary"]["verdict"] == "pass"
    assert report["items"][-1]["exact"] == str(2 ** (20 * 19))
    assert class_count(make_trunc_ring(3, 4)) == 3**12


# ---------------------------------------------------------------------------
# Product families
# ---------------------------------------------------------------------------


def _family(maps2, maps3):
    return ProductFamily((F2, F3), (maps2, maps3))


def test_single_factor_reduces_to_almost_conjugate():
    fam = ProductFamily((F4,), (LinearMap.zero(2, 2),))
    fam2 = ProductFamily((F4,), (LinearMap.identity(2, 2),))
    cert = product_certificate(fam, fam2)
    direct = almost_conjugate(
        horizontal_subgroup(heisenberg_group(F4)),
        twisted_subgroup(LinearMap.identity(2, 2), heisenberg_group(F4)),
    )
    assert cert.equal == direct.equal
    assert cert.profile_h == direct.profile_h


def test_two_factor_certificate_and_direct_enumeration_agree():
    fam1 = _family(LinearMap.zero(2, 1), LinearMap.zero(3, 1))
    fam2 = _family(LinearMap.identity(2, 1), LinearMap.from_flat(3, (2,), 1))
    cert = product_certificate(fam1, fam2)
    assert cert.equal

    product = ProductGroup([heisenberg_group(F2), heisenberg_group(F3)])
    assert product.order == 216
    classes, index = product.conjugacy_partition()
    assert len(classes) == 55
    # classes of the direct product are exactly products of factor classes
    factor_tables = [heisenberg_group(F2).conjugacy_classes(),
                     heisenberg_group(F3).conjugacy_classes()]
    cartesian = product_classes_from_factors(factor_tables)
    assert {frozenset(c) for c in classes} == {frozenset(c) for c in cartesian}
    # tensor profiles match brute-force counting inside the product group
    for fam in (fam1, fam2):
        tens = tensor_profiles(
            [c.profile_h if fam is fam1 else c.profile_k for c in cert.factor_certificates]
        )
        assert product_profile_direct(fam, index, len(classes)) == tens


def test_product_unequal_when_one_factor_differs():
    # twisted pairs over a field are always Gassmann-equal, so the unequal
    # branch is exercised with a non-twisted subgroup (the center) pushed
    # through the same tensor machinery
    group = heisenberg_group(F4)
    table = group.conjugacy_classes()
    profile_center = intersection_profile(center_subgroup(group), table)
    profile_h0 = intersection_profile(horizontal_subgroup(group), table)
    other = heisenberg_group(F3)
    other_profile = intersection_profile(horizontal_subgroup(other),
                                         other.conjugacy_classes())
    left = tensor_profiles([profile_h0, other_profile])
    right = tensor_profiles([profile_center, other_profile])
    assert left != right
    witness = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
    assert left[witness] != right[witness]


def test_product_family_validation():
    with pytest.raises(SpecMismatch):
        ProductFamily((F2, F2), (LinearMap.zero(2, 1), LinearMap.zero(2, 1)))
    with pytest.raises(SpecMismatch):
        ProductFamily((F2,), (LinearMap.zero(3, 1),))
    with pytest.raises(SpecMismatch):
        product_certificate(
            _family(LinearMap.zero(2, 1), LinearMap.zero(3, 1)),
            ProductFamily((F3, F2), (LinearMap.zero(3, 1), LinearMap.zero(2, 1))),
        )
