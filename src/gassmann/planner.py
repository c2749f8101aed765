"""Exact certification of the counting and growth inequalities.

Everything is integer or rational arithmetic; the single transcendental
quantity (a natural logarithm) is enclosed in a rational interval with a
proved tail bound, and every emitted verdict is re-checked by direct
substitution before it leaves this module.  Count-style results with a
non-positive exponent are returned as exact rationals carrying a
"vacuous" flag instead of being clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    ExponentMarginNonpositive,
    NoValidD,
    PrecisionExhausted,
    PrimesExhausted,
    SelfCheckFailed,
)
from .rings import is_prime, next_prime

Exact = Union[int, Fraction]

def exact_power(p: int, exponent: int) -> Exact:
    """p^exponent as an exact rational; negative exponents allowed."""
    if exponent >= 0:
        return p**exponent
    return Fraction(1, p**-exponent)


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class IneqCheck:
    """One substituted inequality instance; holds is re-derivable from it."""

    label: str
    lhs: Exact
    op: str
    rhs: Exact

    @property
    def holds(self) -> bool:
        return _OPS[self.op](self.lhs, self.rhs)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "lhs": str(self.lhs),
            "op": self.op,
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


def check_holds(data: dict) -> bool:
    """Re-derive a serialized check's verdict from its decimal strings alone."""
    return _OPS[data["op"]](Fraction(data["lhs"]), Fraction(data["rhs"]))


def required_check_labels(op: str, inputs: dict, result: dict) -> Iterator[str]:
    """The labels of the checks a plan item's verdict rests on, from its op,
    inputs and result alone.  The CLI stores them as required_checks and
    verify_report derives them again; they come lazily, so it can stop early."""
    if op == "comm-classes" and "n" in inputs:
        yield "isometry-headroom"
    elif op == "nonarith-count" and "n" in inputs:
        yield "nonarith-headroom"
    elif op in ("min-ell-sequence", "min-ell-growth"):
        yield f"{op}@ell={result['ell']}"
        if op == "min-ell-growth" and "c_1" in inputs:
            yield from ("p^r > C_1^r", "chain-left", "chain-right")
    elif op == "growth-constant":
        for j in range(inputs["j_min"], inputs["j_max"] + 1):
            yield f"growth@j={j}"
    elif op == "tower-min-k":
        yield from (f"tower-product@k={result['k']}", f"tower-full@k={result['k']}")


@dataclass(frozen=True)
class PlannerParams:
    """Named constants of the counting arguments; all default to 1.

    The underlying theory proves these constants exist without giving
    values, so every result downstream is parametric in them.
    """

    dim_g: int
    c: int = 1
    x: int = 1
    big_c: int = 1
    c_x: int = 1
    c_1: int = 1
    d_p: int = 1
    delta: Fraction = Fraction(1)
    r: int = 1
    ell: Optional[int] = None
    ell0: Optional[int] = None

    def __post_init__(self):
        if self.dim_g < 1:
            raise ValueError("dim_g must be positive")
        for name in ("x", "big_c", "c_x", "c_1", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.c < 0 or self.d_p < 0 or self.delta < 0:
            raise ValueError("c, d_p, delta must be non-negative")
        if self.ell is not None and self.ell0 is not None and self.ell > self.ell0:
            raise ValueError("ell must not exceed ell0")


# ---------------------------------------------------------------------------
# Count-style bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountBound:
    label: str
    p: int
    exponent: int
    value: Exact
    vacuous: bool

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "p": self.p,
            "exponent": self.exponent,
            "value": str(self.value),
            "vacuous": self.vacuous,
        }


def twisted_count_bound(p: int, ell0: int, dim_g: int) -> CountBound:
    """p^(ell0(ell0-1) - ell0*dim_g), the distinct-pullback count."""
    e = ell0 * (ell0 - 1) - ell0 * dim_g
    return CountBound("twisted-count", p, e, exact_power(p, e), e <= 0)


def distinct_comm_classes(p: int, ell0: int, dim_g: int, c: int) -> CountBound:
    """p^(ell0(ell0-1) - ell0(3*dim_g + c)), commensurator-distinct count."""
    e = ell0 * (ell0 - 1) - ell0 * (3 * dim_g + c)
    return CountBound("comm-classes", p, e, exact_power(p, e), e <= 0)


def nonarith_count(p: int, ell: int) -> CountBound:
    """p^(ell(ell-1) - 8*ell), the non-arithmetic pullback count."""
    e = ell * (ell - 1) - 8 * ell
    return CountBound("nonarith-count", p, e, exact_power(p, e), e <= 0)


def commensurator_conjugates_bound(n_index: int, x: int, big_c: int,
                                   group_order: int) -> int:
    """Upper bound n * x^C * |image| on subgroups conjugate in the commensurator."""
    if n_index < 1 or x < 1 or big_c < 0 or group_order < 1:
        raise ValueError("inputs must be positive (big_c may be zero)")
    return n_index * x**big_c * group_order


def tower_volume_bound(big_c: int, p: int, j: int) -> int:
    """Volume bound C * p^(9j) for a level-j cover."""
    if big_c < 1 or p < 2 or j < 0:
        raise ValueError("need big_c >= 1, p >= 2, j >= 0")
    return big_c * p ** (9 * j)


def isometry_headroom(p: int, ell: int, dim_g: int, c: int, c_x: int,
                      n: int) -> IneqCheck:
    """The pigeonhole condition p^(ell(ell-1)-ell(3 dim_g+c)) > c_x * n."""
    e = ell * (ell - 1) - ell * (3 * dim_g + c)
    return IneqCheck("isometry-headroom", exact_power(p, e), ">", c_x * n)


def nonarith_headroom(p: int, ell: int, comm_index: int, n: int) -> IneqCheck:
    """The non-arithmetic condition p^(ell(ell-1)-8ell) > [Comm:G0] * n."""
    e = ell * (ell - 1) - 8 * ell
    return IneqCheck("nonarith-headroom", exact_power(p, e), ">", comm_index * n)


# ---------------------------------------------------------------------------
# Minimal prime degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinEllResult:
    ell: int
    passing: IneqCheck
    failing: Optional[IneqCheck]


def _min_prime_satisfying(label: str, lhs_at, rhs: Exact) -> MinEllResult:
    prev: Optional[int] = None
    ell = 2
    while True:
        if lhs_at(ell) > rhs:
            passing = IneqCheck(f"{label}@ell={ell}", lhs_at(ell), ">", rhs)
            failing = (
                IneqCheck(f"{label}@ell={prev}", lhs_at(prev), ">", rhs)
                if prev
                else None
            )
            if failing is not None and failing.holds:
                raise SelfCheckFailed("predecessor certificate unexpectedly passes")
            if not passing.holds:
                raise SelfCheckFailed(f"{passing.label} does not hold")
            return MinEllResult(ell, passing, failing)
        prev = ell
        ell = next_prime(ell)


def min_ell_sequence(dim_g: int, c: int, r: int) -> MinEllResult:
    """Smallest prime ell with ell(ell-1) - ell(3 dim_g + c) > r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return _min_prime_satisfying(
        "min-ell-sequence",
        lambda ell: ell * (ell - 1) - ell * (3 * dim_g + c),
        r,
    )


def min_ell_growth(dim_g: int, c: int, r: int) -> MinEllResult:
    """Smallest prime ell with ell(ell-1) - ell(3 dim_g+c) - r*ell*dim_g - r > 0."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return _min_prime_satisfying(
        "min-ell-growth",
        lambda ell: ell * (ell - 1) - ell * (3 * dim_g + c) - r * ell * dim_g - r,
        0,
    )


def growth_chain_check(p: int, c_1: int, ell0: int, r: int, dim_g: int,
                       c: int) -> tuple[IneqCheck, ...]:
    """The displayed two-step chain behind the volume-growth argument.

    C_1^r p^(r ell0 dim_g) < p^(r + r ell0 dim_g) < p^(ell0(ell0-1) - ell0(3 dim_g + c)),
    valid once p^r > C_1^r; all three comparisons are substituted exactly.
    """
    precondition = IneqCheck("p^r > C_1^r", p**r, ">", c_1**r)
    lhs = c_1**r * p ** (r * ell0 * dim_g)
    mid = p ** (r + r * ell0 * dim_g)
    rhs = exact_power(p, ell0 * (ell0 - 1) - ell0 * (3 * dim_g + c))
    return (
        precondition,
        IneqCheck("chain-left", lhs, "<", mid),
        IneqCheck("chain-right", mid, "<", rhs),
    )


# ---------------------------------------------------------------------------
# Certified natural-log intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, k: Fraction) -> "RationalInterval":
        if k < 0:
            return RationalInterval(self.hi * k, self.lo * k)
        return RationalInterval(self.lo * k, self.hi * k)

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi)}


def _atanh_twice(x: Fraction, max_width: Fraction) -> RationalInterval:
    """Interval for 2*atanh(x), 0 <= x < 1, via the odd series with tail bound."""
    if not 0 <= x < 1:
        raise SelfCheckFailed(f"atanh series argument {x} outside [0, 1)")
    xx = x * x
    total = Fraction(0)
    power = x
    i = 0
    while True:
        total += power / (2 * i + 1)
        tail = (power * xx) / ((2 * i + 3) * (1 - xx))
        if 2 * tail <= max_width:
            return RationalInterval(2 * total, 2 * total + 2 * tail)
        power *= xx
        i += 1


def ln_interval(n: int, max_width: Fraction = Fraction(1, 1 << 30)) -> RationalInterval:
    """Certified rational enclosure of ln(n) for an integer n >= 1."""
    if n < 1:
        raise ValueError("ln_interval needs n >= 1")
    if n == 1:
        return RationalInterval(Fraction(0), Fraction(0))
    k = n.bit_length() - 1
    r = Fraction(n, 1 << k)  # in [1, 2)
    budget = Fraction(max_width, 2)
    part = _atanh_twice((r - 1) / (r + 1), budget)
    if k:
        ln2 = _atanh_twice(Fraction(1, 3), budget / k)
        part = part + ln2.scale(Fraction(k))
    return part


# ---------------------------------------------------------------------------
# The tower growth constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthConstantResult:
    p: int
    delta: Fraction
    d_p: int
    j_min: int
    j_max: int
    constant: Fraction
    ln_p: RationalInterval
    checks: tuple[IneqCheck, ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "delta": str(self.delta),
            "d_p": self.d_p,
            "range": [self.j_min, self.j_max],
            "constant": str(self.constant),
            "log_base": "natural",
            "ln_p": self.ln_p.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }


def _growth_rhs(j: int, d_p: int) -> Fraction:
    return Fraction(j * (j - 1), 2) - 9 * j - d_p


def tower_growth_constant(
    p: int,
    delta: Fraction,
    d_p: int,
    j_min: int,
    j_max: int,
    margin: Fraction = Fraction(1, 1024),
    max_refinements: int = 12,
) -> GrowthConstantResult:
    """Largest certifiable D with D*ln(p)*(9j+delta)^2 < j(j-1)/2 - 9j - D_p
    for every j in [j_min, j_max].

    D is taken a relative margin below the interval-certified minimum of
    the ratio; each final verdict substitutes the upper bound of the ln(p)
    enclosure, so a pass is a proof.  "log" means the natural logarithm
    here; rescaling D converts to any other base.
    """
    if p < 2 or not is_prime(p):
        raise ValueError("p must be prime")
    if j_min < 1 or j_max < j_min:
        raise ValueError("need 1 <= j_min <= j_max")
    if margin < 0 or margin >= 1:
        raise ValueError("margin must lie in [0, 1)")
    delta = Fraction(delta)
    rhs = {j: _growth_rhs(j, d_p) for j in range(j_min, j_max + 1)}
    if all(v <= 0 for v in rhs.values()):
        raise NoValidD(
            f"right side non-positive throughout [{j_min}, {j_max}] for D_p={d_p}"
        )
    if rhs[j_min] <= 0:
        raise NoValidD(
            f"right side non-positive at j_min={j_min}; shift the range up"
        )
    width = Fraction(1, 1 << 30)
    for _ in range(max_refinements):
        enclosure = ln_interval(p, width)
        ratios = [
            rhs[j] / (enclosure.hi * (9 * j + delta) ** 2)
            for j in range(j_min, j_max + 1)
        ]
        constant = (1 - margin) * min(ratios)
        checks = tuple(
            IneqCheck(
                f"growth@j={j}",
                constant * enclosure.hi * (9 * j + delta) ** 2,
                "<",
                rhs[j],
            )
            for j in range(j_min, j_max + 1)
        )
        if all(c.holds for c in checks):
            return GrowthConstantResult(
                p=p, delta=delta, d_p=d_p, j_min=j_min, j_max=j_max,
                constant=constant, ln_p=enclosure, checks=checks,
            )
        width /= 1 << 8
    raise PrecisionExhausted(
        "could not separate the growth inequality at maximum ln precision"
    )


# ---------------------------------------------------------------------------
# Tower levels
# ---------------------------------------------------------------------------


def _validate_primes(primes: Sequence[int]) -> None:
    if any(p < 2 or not is_prime(p) for p in primes):
        raise ValueError("tower places must be primes")
    if any(a >= b for a, b in zip(primes, primes[1:])):
        raise ValueError("tower primes must be strictly increasing")


def level_count(primes: Sequence[int], j: int, ell0: int) -> int:
    """Number of level-j covers: product of p_i^(ell0(ell0-1)) over i <= j."""
    _validate_primes(primes)
    if j < 0:
        raise ValueError("level must be >= 0")
    if j > len(primes):
        raise PrimesExhausted(f"need {j} primes, have {len(primes)}")
    e = ell0 * (ell0 - 1)
    out = 1
    for p in primes[:j]:
        out *= p**e
    return out


@dataclass(frozen=True)
class TowerKResult:
    k: int
    product_condition: IneqCheck
    full_at_k: IneqCheck
    product_condition_before: Optional[IneqCheck]
    full_before: Optional[IneqCheck]


def _tower_full_check(primes: Sequence[int], j: int, k: int, ell0: int,
                      dim_g: int, c_x: int, x: int, c: int) -> IneqCheck:
    lhs = c_x * x**c
    for p in primes[:k]:
        lhs *= p ** (3 * ell0 * dim_g)
    rhs = 1
    for p in primes[j:k]:
        rhs *= p ** (ell0 * (ell0 - 1))
    return IneqCheck(f"tower-full@k={k}", lhs, "<", rhs)


def tower_min_k(primes: Sequence[int], j: int, ell0: int, dim_g: int,
                c_x: int, x: int, c: int, r: int) -> TowerKResult:
    """Minimal level k > j at which new non-isometric covers must appear.

    The search runs on the sufficient condition
    prod_{i=j+1..k} p_i^r > C_j * C_X * x^c with
    C_j = prod_{i=1..j} p_i^(3 ell0 dim_g); the result is certified by
    substituting the full tower inequality at k and both conditions at k-1.
    """
    _validate_primes(primes)
    if j < 0 or j > len(primes):
        raise ValueError("invalid start level")
    margin = ell0 * (ell0 - 1) - 3 * ell0 * dim_g
    if r <= 0 or margin < r:
        raise ExponentMarginNonpositive(
            f"need ell0(ell0-1) - 3 ell0 dim_g = {margin} >= r = {r} > 0"
        )
    target = c_x * x**c
    for p in primes[:j]:
        target *= p ** (3 * ell0 * dim_g)
    acc = 1
    for k in range(j + 1, len(primes) + 1):
        acc *= primes[k - 1] ** r
        if acc > target:
            product_cond = IneqCheck(f"tower-product@k={k}", acc, ">", target)
            full = _tower_full_check(primes, j, k, ell0, dim_g, c_x, x, c)
            if not (product_cond.holds and full.holds):
                raise SelfCheckFailed(f"tower certificate at k={k} does not hold")
            before_prod = before_full = None
            if k - 1 >= j:
                prev_acc = acc // primes[k - 1] ** r
                before_prod = IneqCheck(
                    f"tower-product@k={k - 1}", prev_acc, ">", target
                )
                before_full = _tower_full_check(
                    primes, j, k - 1, ell0, dim_g, c_x, x, c
                )
                if before_prod.holds:
                    raise SelfCheckFailed(f"product condition already holds at k={k - 1}")
            return TowerKResult(
                k=k,
                product_condition=product_cond,
                full_at_k=full,
                product_condition_before=before_prod,
                full_before=before_full,
            )
    raise PrimesExhausted(
        f"the supplied {len(primes)} primes never satisfy the product condition"
    )
