import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassmann.errors import DimensionMismatch, SizeCapExceeded, SpecMismatch
from gassmann.heisenberg import class_key, heisenberg_group, twisted_subgroup
from gassmann import rings
from gassmann.oracles import (center_subgroup, conjugacy_partition, conjugate_subgroup,
                              horizontal_subgroup)
from gassmann.rings import LinearMap, all_linear_maps, make_field, make_trunc_ring, mult_matrix


F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def test_identity_and_inverse():
    g4 = heisenberg_group(F4)
    e = g4.identity()
    for g in g4.elements:
        assert g4.mul(e, g) == g
        assert g4.mul(g, g4.inv(g)) == e
        assert g4.mul(g4.inv(g), g) == e


def test_group_law_example_over_f4():
    g4 = heisenberg_group(F4)
    x, one, zero = (0, 1), (1, 0), (0, 0)
    # (x,1,0) * (1,x,0) = (x+1, x+1, x+1) because x*x = x+1
    assert g4.mul((x, one, zero), (one, x, zero)) == ((1, 1), (1, 1), (1, 1))


def test_associativity_exhaustive_small_random_large():
    for spec in (F2, F4):
        group = heisenberg_group(spec)
        els = group.elements
        for a, b, c in itertools.product(els, els, els):
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    group = heisenberg_group(F9)
    rng = random.Random(20240811)
    els = group.elements
    for _ in range(10_000):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_order_and_center():
    for spec in (F2, F3, F4):
        group = heisenberg_group(spec)
        assert group.order == spec.size**3
        center = set(group.center_elements())
        assert len(center) == spec.size
        computed = {
            g for g in group.elements
            if all(group.mul(g, h) == group.mul(h, g) for h in group.elements)
        }
        assert computed == center


def test_spec_mismatch_in_group_ops():
    g4 = heisenberg_group(F4)
    with pytest.raises(SpecMismatch):
        g4.mul(((1,), (0,), (0,)), g4.identity())


# ---------------------------------------------------------------------------
# The group law reads the ring's op tables
# ---------------------------------------------------------------------------

# rings with dict tables, and one past _TABLE_LIMIT, whose tables compute
TABLED_RINGS = [F4, make_field(2, 3), make_trunc_ring(2, 3), make_trunc_ring(3, 2)]
LARGE_RING = make_trunc_ring(2, 10)


def _law(spec, g, h):
    # the product and inverse by coefficient arithmetic mod p and _mul_raw
    p = spec.p

    def plus(*xs):
        return tuple(sum(cs) % p for cs in zip(*xs))

    def minus(x):
        return tuple(-c % p for c in x)

    (a1, b1, c1), (a2, b2, c2) = g, h
    product = plus(a1, a2), plus(b1, b2), plus(c1, c2, spec._mul_raw(a1, b2))
    inverse = minus(a1), minus(b1), plus(minus(c1), spec._mul_raw(a1, b1))
    return product, inverse


def _assert_law(group, g, h):
    product, inverse = _law(group.ring, g, h)
    assert group.mul(g, h) == product
    assert group.inv(g) == inverse


@pytest.mark.parametrize("spec", TABLED_RINGS, ids=repr)
def test_table_driven_law_equals_the_formula_on_every_element_pair(spec):
    group = heisenberg_group(spec)
    els = spec.elements
    canonical = set(map(id, els))
    # (x, x, x)·(y, y, y) puts every ring pair into every sum and the product
    for x in els:
        for y in els:
            _assert_law(group, (x, x, x), (y, y, y))
            assert all(id(c) in canonical for c in group.mul((x, x, x), (y, y, y)))
    for g in group.elements:
        _assert_law(group, g, g)
        assert all(id(c) in canonical for c in group.inv(g))
    if spec.size <= 4:
        for g in group.elements:
            for h in group.elements:
                _assert_law(group, g, h)


def test_table_driven_law_equals_the_formula_past_the_table_limit():
    group = heisenberg_group(LARGE_RING)
    els = LARGE_RING.elements
    assert LARGE_RING.size > rings._TABLE_LIMIT
    rng = random.Random(20261018)
    for _ in range(2_000):
        g, h = ((tuple(els[rng.randrange(len(els))] for _ in range(3))) for _ in range(2))
        _assert_law(group, g, h)


@pytest.mark.parametrize("spec", TABLED_RINGS, ids=repr)
def test_every_table_result_is_a_canonical_element(spec):
    canonical = set(map(id, spec.elements))
    for table in (spec._add_table, spec._mul_table, spec._neg_table):
        assert len(table) in (spec.size, spec.size**2)
        assert all(id(value) in canonical for value in table.values())


# Each ring with its non-elements: wrong length and a coefficient out of range.
# The group ops also get triples that are too short or too long.
NON_ELEMENT_SCRIPT = """
import sys
from gassmann.errors import SpecMismatch
from gassmann.heisenberg import heisenberg_group
from gassmann.rings import make_field, make_trunc_ring
for spec, bad in [(make_field(2, 2), [(1, 0, 0), (2, 0), (1,)]),
                  (make_trunc_ring(2, 10), [(1,) * 9, (2,) + (0,) * 9, (0,) * 11])]:
    group, one, zero = heisenberg_group(spec), spec.one(), spec.zero()
    e = group.identity()
    calls = [("mul", group.mul, (e[:2], e)), ("inv", group.inv, (e + (zero,),))]
    for x in bad:
        calls += [("add", spec.add, (x, one)), ("add", spec.add, (one, x)),
                  ("mul", spec.mul, (x, one)), ("mul", spec.mul, (one, x)),
                  ("neg", spec.neg, (x,)),
                  ("group mul", group.mul, ((x, zero, zero), e)),
                  ("group mul", group.mul, (e, (zero, zero, x))),
                  ("group inv", group.inv, ((zero, x, zero),)),
                  ("group inv", group.inv, ((zero, zero, x),))]
    for name, op, args in calls:
        try:
            op(*args)
        except SpecMismatch:
            continue
        sys.exit(f"{name}{args!r} over {spec!r} raised no SpecMismatch")
print("raised", __debug__)
"""


@pytest.mark.parametrize("flags, debug", [([], True), (["-O"], False)], ids=["plain", "-O"])
def test_a_non_element_raises_spec_mismatch(flags, debug):
    # tabled and computed rings alike; the checks are table lookups and
    # explicit raises, so python -O, which drops asserts, keeps them
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, *flags, "-c", NON_ELEMENT_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, f"raised {debug}\n"), done.stderr


# ---------------------------------------------------------------------------
# Conjugacy classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec,count", [(F2, 5), (F3, 11), (F4, 19)])
def test_class_counts(spec, count):
    table = heisenberg_group(spec).conjugacy_classes()
    assert table.class_count == count


def test_class_partition_properties():
    for spec in (F2, F3, F4, make_trunc_ring(2, 2)):
        group = heisenberg_group(spec)
        table = group.conjugacy_classes()
        assert sum(table.sizes()) == group.order
        # every central element is a singleton class
        for z in group.center_elements():
            assert len(table.classes[table.index[z]]) == 1
        # classes are closed under conjugation
        for cls in table.classes[:6]:
            member = cls[0]
            for g in group.elements:
                assert table.index[group.conjugate(g, member)] == table.index[member]
        # representatives are the class minima, in increasing order
        reps = table.representatives()
        assert list(reps) == sorted(reps)
        assert all(rep == min(cls) for rep, cls in zip(reps, table.classes))


# Every ring whose orbit-expansion oracle runs in well under a second.
ORACLE_RINGS = [
    F2, F3, F4, make_field(5, 1), make_field(7, 1), make_field(2, 3), F9,
    make_trunc_ring(2, 2), make_trunc_ring(2, 3), make_trunc_ring(3, 2),
]


@pytest.mark.parametrize("spec", ORACLE_RINGS, ids=repr)
def test_closed_form_class_table_equals_orbit_oracle(spec):
    group = heisenberg_group(spec)
    table = group.conjugacy_classes()
    classes, index = conjugacy_partition(group.elements, group.mul, group.inv)
    # tuple equality also pins the class order and each class's member order
    assert table.classes == classes
    assert table.index == index
    if spec.kind == "field":
        q = spec.size
        assert table.class_count == q * q + q - 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORACLE_RINGS + [make_field(2, 4), make_trunc_ring(2, 4)]),
       st.data())
def test_class_key_is_conjugation_invariant(spec, data):
    els = spec.elements
    triple = st.tuples(*[st.sampled_from(els)] * 3)
    g, h = data.draw(triple), data.draw(triple)
    group = heisenberg_group(spec)
    assert class_key(spec, group.conjugate(h, g)) == class_key(spec, g)


def test_class_table_size_cap():
    with pytest.raises(SizeCapExceeded):
        heisenberg_group(F9).conjugacy_classes(cap=100)


# ---------------------------------------------------------------------------
# Twisted subgroups
# ---------------------------------------------------------------------------


def test_horizontal_subgroup_and_cardinality():
    g4 = heisenberg_group(F4)
    h0 = horizontal_subgroup(g4)
    zero = F4.zero()
    assert h0.elements == frozenset((x, zero, zero) for x in F4.elements)
    for f in all_linear_maps(F4):
        assert twisted_subgroup(f, g4).size == F4.size


def test_identity_twist_is_closed():
    g4 = heisenberg_group(F4)
    sub = twisted_subgroup(LinearMap.identity(2, 2), g4)
    assert ((0, 1), (0, 0), (0, 1)) in sub.elements
    # closure is the oracle for twisted_subgroup, which does not check it
    for spec in (F4, F3, make_trunc_ring(2, 2)):
        group = heisenberg_group(spec)
        for f in all_linear_maps(spec):
            sub = twisted_subgroup(f, group)
            assert len(sub.elements) == spec.size
            for g in sub.elements:
                for h in sub.elements:
                    assert group.mul(g, h) in sub.elements


def test_twisted_subgroup_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        twisted_subgroup(LinearMap.zero(2, 3), heisenberg_group(F4))


def test_conjugate_subgroup_formula():
    g4 = heisenberg_group(F4)
    h0 = horizontal_subgroup(g4)
    zero, b = F4.zero(), (1, 1)
    # central conjugator: nothing moves
    assert conjugate_subgroup((zero, zero, (1, 0)), h0).f == h0.f
    # conjugator with only a and c set: formula depends only on b
    assert conjugate_subgroup(((1, 0), zero, (1, 1)), h0).f == h0.f
    # g = (0, b, 0): twist shifts by the multiplication matrix of b
    moved = conjugate_subgroup((zero, b, zero), h0)
    assert moved.f == h0.f - mult_matrix(b, F4)


def test_conjugate_subgroup_matches_elementwise_exhaustive():
    # exhaustive over every twist and every conjugator for p=2, m <= 2;
    # conjugate_subgroup itself re-verifies elementwise, so a pass means
    # the structural formula agreed each time
    for spec in (F2, F4):
        group = heisenberg_group(spec)
        for f in all_linear_maps(spec):
            sub = twisted_subgroup(f, group)
            for g in group.elements:
                conj = conjugate_subgroup(g, sub)
                assert conj.elements == frozenset(
                    group.conjugate(g, h) for h in sub.elements
                )


def test_center_subgroup():
    g4 = heisenberg_group(F4)
    c = center_subgroup(g4)
    assert c.size == 4 and all(g[0] == F4.zero() and g[1] == F4.zero() for g in c.elements)
