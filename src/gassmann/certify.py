"""Almost-conjugacy certificates for twisted subgroup families.

Everything here is exact and brute-force checkable.  The certify family's
class count, profile and conjugate pairs come from closed forms, since H_f
and H_g are conjugate exactly when f - g is a multiplication; the orbit
count and ``family_oracles`` (class-table profiles, the conjugator search)
are their oracles, run by the CLI under its limits.  Componentwise product
certificates close the module; the direct count in a product group, their
oracle, is in ``gassmann.oracles``.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import SelfCheckFailed, SpecMismatch
from .heisenberg import (
    ConjugacyClassTable,
    Heisenberg,
    TwistedSubgroup,
    heisenberg_group,
    twisted_subgroup,
)
from .rings import (
    FieldSpec,
    LinearMap,
    RingSpec,
    TruncRingSpec,
    all_linear_maps,
    check_order,
    is_mult_map,
    mult_matrix,
    make_field,
    power_within,
)


# certify lists the subgroup of every additive map while there are at most this
# many maps, and one subgroup per conjugacy class otherwise
ALL_TWISTS_LIMIT = 16


def family_mode(p: int, m: int) -> str:
    """The certify family's mode over GF(p^m): 'all-twists' or 'class-reps'."""
    return "all-twists" if power_within(p, m * m, ALL_TWISTS_LIMIT) is not None else "class-reps"


def family_exponent(p: int, m: int) -> int:
    """The certify family has p^e subgroups: e = m² maps, or m(m-1) class reps."""
    return m * m if family_mode(p, m) == "all-twists" else m * (m - 1)


def check_family_config(p: int, m: int, cap: Optional[int]) -> None:
    """Raise unless GF(p^m) is a field whose Heisenberg group, of order q³, is within
    the cap: certify builds nothing larger, and every closed form assumes it."""
    check_order(p, m, 3 * m, cap, f"H(GF({p}^{m}))")


# certify runs each brute-force oracle while its work is within these limits
BRUTE_ORBIT_LIMIT = 1 << 16
BRUTE_CONJ_WORK_LIMIT = 2_000_000


def orbit_oracle_runs(p: int, m: int) -> bool:
    """Whether certify counts the orbits of all p^(m²) maps by brute force."""
    return power_within(p, m * m, BRUTE_ORBIT_LIMIT) is not None


def conjugator_oracle_runs(p: int, m: int) -> bool:
    """Whether certify checks the conjugacy keys by conjugating with all of G: the
    work is |G|·q·n for the q³ group elements and the n subgroups of the family."""
    return power_within(p, 4 * m + family_exponent(p, m), BRUTE_CONJ_WORK_LIMIT) is not None


@dataclass(frozen=True)
class GassmannCertificate:
    """Per-class intersection profiles for a subgroup pair, plus verdict."""

    profile_h: tuple[int, ...]
    profile_k: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.profile_h == self.profile_k

    @property
    def witness_class(self) -> Optional[int]:
        if self.equal:
            return None
        for i, (x, y) in enumerate(zip(self.profile_h, self.profile_k)):
            if x != y:
                return i
        return None


def intersection_profile(sub, table: ConjugacyClassTable) -> tuple[int, ...]:
    """|H intersect [g]| for every class, in canonical class order."""
    if sub.group != table.group:
        raise SpecMismatch("subgroup and class table live in different groups")
    counts = [0] * table.class_count
    for g in sub.elements:
        counts[table.index[g]] += 1
    return tuple(counts)


def almost_conjugate(sub_h, sub_k, table: Optional[ConjugacyClassTable] = None,
                     cap: Optional[int] = None) -> GassmannCertificate:
    """Certificate that two subgroups meet every conjugacy class equally."""
    if sub_h.group != sub_k.group:
        raise SpecMismatch("subgroups live in different groups")
    if table is None:
        table = sub_h.group.conjugacy_classes(cap=cap)
    return GassmannCertificate(intersection_profile(sub_h, table),
                               intersection_profile(sub_k, table))


# ---------------------------------------------------------------------------
# Conjugacy of twisted subgroups: structural test and independent search
# ---------------------------------------------------------------------------


def are_conjugate(f: LinearMap, g: LinearMap, spec: RingSpec) -> bool:
    """Pairwise oracle: H_f and H_g are conjugate iff f - g is a multiplication.

    Production code compares ``canonical_twist`` keys instead; this test
    stays as their independent check.
    """
    return is_mult_map(f - g, spec) is not None


def bruteforce_subgroup_keys(group: Heisenberg, subgroups) -> list:
    """Conjugator oracle: per subgroup, the least sorted image of H under all of G.

    Two subgroups get equal keys exactly when some g in G conjugates one
    onto the other.  The union U of the subgroups' elements is conjugated
    once by every g, through ``group.mul`` and ``group.inv`` alone, and the
    distinct resulting actions on U are kept.  g H g^-1 depends only on how
    g acts on H, a subset of U, so each key is the least sorted image of H
    over those actions: |G|.|U| conjugations, never more than conjugating
    every subgroup separately, and no structural shortcut.
    """
    pool = sorted(set().union(*(sub.elements for sub in subgroups)))
    mul = group.mul
    actions = set()
    for g in group.elements:
        g_inv = group.inv(g)
        actions.add(tuple(mul(mul(g, u), g_inv) for u in pool))
    position = {u: i for i, u in enumerate(pool)}
    keys = []
    for sub in subgroups:
        slots = [position[h] for h in sub.elements]
        keys.append(min(tuple(sorted(act[i] for i in slots)) for act in actions))
    return keys


def keyings_agree(keys, other) -> bool:
    """Whether two keyings of one family partition it alike, which is when they
    agree on every pair: both conjugate or both not."""
    return len(set(zip(keys, other))) == len(set(keys)) == len(set(other))


# ---------------------------------------------------------------------------
# Canonical class representatives
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def mult_subspace_echelon(spec: RingSpec) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Reduced echelon basis of the flattened multiplication matrices.

    Returns (pivot_position, row_vector) pairs in fixed leftmost-pivot
    order; the span always has dimension equal to the ring dimension.
    """
    p = spec.p
    n2 = spec.dim * spec.dim
    rows: list[list[int]] = [
        list(mult_matrix(e, spec).flatten()) for e in spec.basis()
    ]
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        vec = row[:]
        for pivot, basis_row in echelon:
            c = vec[pivot]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, basis_row)]
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            continue
        inv = pow(vec[pivot], -1, p)
        vec = [(x * inv) % p for x in vec]
        for k, (piv2, row2) in enumerate(echelon):
            c = row2[pivot]
            if c:
                echelon[k] = (piv2, [(x - c * y) % p for x, y in zip(row2, vec)])
        echelon.append((pivot, vec))
    echelon.sort(key=lambda pr: pr[0])
    if len(echelon) != spec.dim:
        raise SelfCheckFailed("multiplication matrices are dependent")
    if not all(0 <= piv < n2 for piv, _ in echelon):
        raise SelfCheckFailed("echelon pivot out of range")
    return tuple((piv, tuple(vec)) for piv, vec in echelon)


def canonical_twist(f: LinearMap, spec: RingSpec) -> LinearMap:
    """Reduce f modulo the multiplication subspace by pivot elimination."""
    p = spec.p
    vec = list(f.flatten())
    for pivot, row in mult_subspace_echelon(spec):
        c = vec[pivot]
        if c:
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    return LinearMap.from_flat(p, tuple(vec), spec.dim)


@dataclass(frozen=True)
class ClassCatalog:
    """One canonical twist representative per conjugacy class of subgroups."""

    ring: RingSpec
    reps: tuple[LinearMap, ...]

    @property
    def count(self) -> int:
        return len(self.reps)


def enumerate_class_reps(spec: RingSpec, cap: Optional[int] = None) -> ClassCatalog:
    """The canonical twists, one per class, in flat lexicographic order.

    ``canonical_twist`` zeroes every pivot of ``mult_subspace_echelon`` and
    fixes every map that is already zero there, so the class reps are
    exactly the maps supported on the free (non-pivot) coordinates.  They
    are enumerated directly, at the cost of the output; the cap still
    bounds the p^(n^2) maps they stand for.
    """
    n2 = spec.dim * spec.dim
    check_order(spec.p, spec.dim, n2, cap, f"additive maps of {spec!r}")
    pivots = {pivot for pivot, _ in mult_subspace_echelon(spec)}
    coords = [(0,) if i in pivots else range(spec.p) for i in range(n2)]
    reps = tuple(LinearMap.from_flat(spec.p, flat, spec.dim)
                 for flat in itertools.product(*coords))
    return ClassCatalog(ring=spec, reps=reps)


def twist_orbit_count_bruteforce(spec: RingSpec) -> int:
    """Independent count of orbits of f under f -> f - mult_matrix(b), over all
    p^(n²) maps; certify runs it while ``orbit_oracle_runs``."""
    n2 = spec.dim * spec.dim
    p = spec.p
    translations = [mult_matrix(b, spec).flatten() for b in spec.elements]
    seen: set = set()
    orbits = 0
    for flat in itertools.product(range(p), repeat=n2):  # all maps, flattened
        if flat in seen:
            continue
        orbits += 1
        for t in translations:
            seen.add(tuple((x - y) % p for x, y in zip(flat, t)))
    return orbits


def class_count(spec: RingSpec) -> int:
    """The class count p^(n² - rank): the canonical twists are the maps that vanish
    at the pivots of ``mult_subspace_echelon``, so no map is enumerated."""
    return spec.p ** (spec.dim**2 - len(mult_subspace_echelon(spec)))


# ---------------------------------------------------------------------------
# The certify family in closed form, and its one oracle block
# ---------------------------------------------------------------------------


def family_class_sizes(q: int) -> list[int]:
    """The class sizes over GF(q), in the order of ``family_profile``: q central
    classes of size 1, then q² - 1 classes of size q."""
    return [1] * q + [q] * (q * q - 1)


def family_profile(q: int) -> list[int]:
    """The intersection profile of every H_f over GF(q), derived without a class table.

    Classes are numbered by their lex-least members, as _class_table_cached
    numbers them: (0, 0, c) is class index(c), and the class of (a, b, *) with
    (a, b) != 0 is q - 1 + index(a)·q + index(b), elements indexed in
    lexicographic coefficient order.  H_f meets the identity class, class 0,
    once, and the class of each (x, 0, *) with x != 0 once, in (x, 0, f(x)).
    """
    profile = [0] * (q * q + q - 1)
    profile[0] = 1
    for i in range(1, q):
        profile[q - 1 + i * q] = 1
    return profile


def conjugate_pair_count(p: int, m: int) -> int:
    """The conjugate pairs of the certify family over GF(p^m): none among the class
    reps, and all p^(m²) maps fall into p^(m(m-1)) cosets of the multiplication
    subspace, of q maps each."""
    if family_mode(p, m) == "class-reps":
        return 0
    q = p**m
    return p ** (m * (m - 1)) * (q * (q - 1) // 2)


def family_oracles(p: int, m: int, cap: Optional[int], bruteforce_keys) -> bool:
    """The oracle block of certify and verify, run while ``conjugator_oracle_runs``
    and true elsewhere: whether the canonical-twist keys of the family's subgroups,
    built once, partition them as ``bruteforce_keys`` does.  A class table or keys
    that disagree with the closed forms raise SelfCheckFailed."""
    if not conjugator_oracle_runs(p, m):
        return True
    spec = make_field(p, m, cap=cap)
    group = heisenberg_group(spec)
    maps = (all_linear_maps(spec) if family_mode(p, m) == "all-twists"
            else enumerate_class_reps(spec, cap=cap).reps)
    subgroups = [twisted_subgroup(f, group) for f in maps]
    table = group.conjugacy_classes(cap=cap)
    profile = tuple(family_profile(spec.size))
    if (list(table.sizes()) != family_class_sizes(spec.size) or table.identity_class() != 0
            or any(intersection_profile(sub, table) != profile for sub in subgroups)):
        raise SelfCheckFailed("the class table gives a profile other than the closed form")
    keys = [canonical_twist(sub.f, spec) for sub in subgroups]
    if sum(c * (c - 1) // 2 for c in Counter(keys).values()) != conjugate_pair_count(p, m):
        raise SelfCheckFailed("the canonical twists give a conjugate-pair count other than "
                              "the closed form")
    # with one subgroup there is no pair for the search to compare
    return len(subgroups) < 2 or keyings_agree(keys, bruteforce_keys(group, subgroups))


# ---------------------------------------------------------------------------
# Truncated-ring class counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerClassCount:
    """Exact class count over GF(p)[t]/t^j next to the cited lower value."""

    p: int
    j: int
    exact: int
    cited_lower: int

    @property
    def bound_holds(self) -> bool:
        return self.exact >= self.cited_lower

    @property
    def gap(self) -> bool:
        """True when the exact count exceeds the cited value; never hidden."""
        return self.exact != self.cited_lower


def tower_class_count(spec: TruncRingSpec) -> TowerClassCount:
    """Count twisted-subgroup classes of the truncated-ring group exactly.

    The count is ``class_count``, p^(j^2 - j) for the j pivots.  The cited
    literature value p^(j(j-1)/2) is reported as a lower bound only, and the
    discrepancy is surfaced via the gap flag.
    """
    cited = spec.p ** (spec.j * (spec.j - 1) // 2)
    return TowerClassCount(p=spec.p, j=spec.j, exact=class_count(spec), cited_lower=cited)


# ---------------------------------------------------------------------------
# Product families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductFamily:
    """Componentwise twisted subgroups inside a product of Heisenberg groups."""

    rings: tuple[FieldSpec, ...]
    maps: tuple[LinearMap, ...]

    def __post_init__(self):
        if len(self.rings) < 1:
            raise SpecMismatch("a product family needs at least one factor")
        if len(self.rings) != len(self.maps):
            raise SpecMismatch("one twist per factor ring required")
        chars = [r.p for r in self.rings]
        if len(set(chars)) != len(chars):
            raise SpecMismatch("factor residue fields must have distinct characteristics")
        for ring, f in zip(self.rings, self.maps):
            if f.dim != ring.dim or f.p != ring.p:
                raise SpecMismatch("twist dimensions inconsistent with factor rings")

    @cached_property
    def subgroups(self) -> tuple[TwistedSubgroup, ...]:
        return tuple(
            twisted_subgroup(f, heisenberg_group(ring))
            for ring, f in zip(self.rings, self.maps)
        )


@dataclass(frozen=True)
class ProductCertificate(GassmannCertificate):
    """Tensor-profile certificate for a pair of product families: the product
    profiles, with the factors' certificates."""

    factor_certificates: tuple[GassmannCertificate, ...]


def tensor_profiles(profiles: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Profile of a product subgroup over the product class table.

    Classes of a direct product are products of factor classes, ordered
    lexicographically by factor class indices, so the product profile is
    the flattened outer product of the factor profiles.
    """
    out = (1,)
    for prof in profiles:
        out = tuple(x * y for x in out for y in prof)
    return out


def product_certificate(fam1: ProductFamily, fam2: ProductFamily,
                        cap: Optional[int] = None) -> ProductCertificate:
    if fam1.rings != fam2.rings:
        raise SpecMismatch("product families must share factor ring specs")
    certs = tuple(
        almost_conjugate(h, k, cap=cap)
        for h, k in zip(fam1.subgroups, fam2.subgroups)
    )
    return ProductCertificate(
        factor_certificates=certs,
        profile_h=tensor_profiles([c.profile_h for c in certs]),
        profile_k=tensor_profiles([c.profile_k for c in certs]),
    )
