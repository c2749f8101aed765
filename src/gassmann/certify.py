"""Almost-conjugacy certificates for twisted subgroup families.

Everything here is exact and brute-force checkable: intersection profiles
against full conjugacy-class tables, the canonical twist as the one class
key of a twisted subgroup (it names the class, enumerates the catalog and
decides conjugacy), the truncated-ring class count in closed form, and
componentwise product certificates.  The pairwise structural test, the
conjugator search and the orbit count are oracles for the class key, and
stay here because the CLI runs the last two under its limits.  The direct
count in a product group, the oracle for product profiles, is in
``gassmann.oracles``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import SelfCheckFailed, SizeCapExceeded, SpecMismatch
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
    is_mult_map,
    mult_matrix,
    size_cap,
)


# certify lists the subgroup of every additive map while there are at most this
# many maps, and one subgroup per conjugacy class otherwise
ALL_TWISTS_LIMIT = 16


def family_mode(p: int, m: int) -> str:
    """The certify family's mode over GF(p^m): 'all-twists' or 'class-reps'."""
    return "all-twists" if p ** (m * m) <= ALL_TWISTS_LIMIT else "class-reps"


# certify runs each brute-force oracle while its work is within these limits
BRUTE_ORBIT_LIMIT = 1 << 16
BRUTE_CONJ_WORK_LIMIT = 2_000_000


def orbit_oracle_runs(p: int, m: int) -> bool:
    """Whether certify counts the orbits of all p^(m²) maps by brute force."""
    return p ** (m * m) <= BRUTE_ORBIT_LIMIT


def conjugator_oracle_runs(p: int, m: int) -> bool:
    """Whether certify checks the conjugacy keys by conjugating with all of G.

    The work is |G|·q·n for the q³ group elements and the n subgroups of
    the family: p^(m²) in all-twists mode, p^(m(m-1)) in class-reps mode.
    """
    q = p**m
    n = p ** (m * m if family_mode(p, m) == "all-twists" else m * (m - 1))
    return q**4 * n <= BRUTE_CONJ_WORK_LIMIT


@dataclass(frozen=True)
class GassmannCertificate:
    """Per-class intersection profiles for a subgroup pair, plus verdict."""

    ring: RingSpec
    label_h: str
    label_k: str
    size_h: int
    size_k: int
    identity_class: int
    class_sizes: tuple[int, ...]
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
    return GassmannCertificate(
        ring=sub_h.group.ring,
        label_h=sub_h.label(),
        label_k=sub_k.label(),
        size_h=sub_h.size,
        size_k=sub_k.size,
        identity_class=table.identity_class(),
        class_sizes=table.sizes(),
        profile_h=intersection_profile(sub_h, table),
        profile_k=intersection_profile(sub_k, table),
    )


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
    limit = size_cap() if cap is None else cap
    if spec.p**n2 > limit:
        raise SizeCapExceeded(f"{spec.p}^{n2} additive maps exceed cap {limit}")
    pivots = {pivot for pivot, _ in mult_subspace_echelon(spec)}
    coords = [(0,) if i in pivots else range(spec.p) for i in range(n2)]
    reps = tuple(LinearMap.from_flat(spec.p, flat, spec.dim)
                 for flat in itertools.product(*coords))
    return ClassCatalog(ring=spec, reps=reps)


def twist_orbit_count_bruteforce(spec: RingSpec, cap: Optional[int] = None) -> int:
    """Independent count of orbits of f under f -> f - mult_matrix(b)."""
    n2 = spec.dim * spec.dim
    limit = size_cap() if cap is None else cap
    if spec.p**n2 > limit:
        raise SizeCapExceeded(f"{spec.p}^{n2} additive maps exceed cap {limit}")
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

    The classes are the canonical twists, the maps that vanish at the j
    pivots of ``mult_subspace_echelon``, so the count is p^(j^2 - j) in
    closed form, with the rank read off the echelon basis; no map is
    enumerated.  The cited literature value p^(j(j-1)/2) is reported as a
    lower bound only, and the discrepancy is surfaced via the gap flag.
    """
    exact = spec.p ** (spec.j**2 - len(mult_subspace_echelon(spec)))
    cited = spec.p ** (spec.j * (spec.j - 1) // 2)
    return TowerClassCount(p=spec.p, j=spec.j, exact=exact, cited_lower=cited)


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
class ProductCertificate:
    """Tensor-profile certificate for a pair of product families."""

    factor_certificates: tuple[GassmannCertificate, ...]
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
