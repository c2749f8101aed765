"""Exact certification of the counting and growth inequalities.

Everything is integer or rational arithmetic; the single transcendental
quantity (a natural logarithm) is enclosed in a rational interval with a
proved tail bound, and every emitted verdict is re-checked by direct
substitution before it leaves this module.  Count-style results with a
non-positive exponent are returned as exact rationals carrying a
"vacuous" flag instead of being clamped.

PLAN_OPS, at the end, holds one entry per op of ``gassmann plan``: the
options it reads, the validation of its inputs, the search that finds its
result, and the certificate that derives the result's closed-form fields and
every check from the inputs and result.  The plan command runs all four;
verify runs all but the search on the stored inputs and result.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import chain as chain_iterables
from operator import gt, lt
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    ExponentMarginNonpositive,
    NoValidD,
    PrecisionExhausted,
    PrimesExhausted,
    SelfCheckFailed,
)
from .rings import PRIME_EXACT_LIMIT, is_prime, next_prime

Exact = Union[int, Fraction]

# The most bits a power p^e may have, or None for no bound.  Every power a result or
# a check is built from goes through exact_power, so verify, which sets the bound from
# the size of the item it checks, does no more work than the stored item states.
_POWER_BITS: ContextVar[Optional[int]] = ContextVar("power_bits", default=None)


@contextmanager
def power_bits(bits: int) -> Iterator[None]:
    """Within the block, exact_power refuses a power of more than ``bits`` bits."""
    token = _POWER_BITS.set(bits)
    try:
        yield
    finally:
        _POWER_BITS.reset(token)


def exact_power(p: int, exponent: int) -> Exact:
    """p^exponent as an exact rational; negative exponents allowed."""
    bits = _POWER_BITS.get()
    # |p|^|e| has at least |e| * (bit_length(p) - 1) bits, counted without forming it
    if bits is not None and abs(exponent) * (abs(p).bit_length() - 1) > bits:
        raise ValueError(f"{p}^{exponent} has more than the {bits} bits that the item "
                         "could state")
    if exponent >= 0:
        return p**exponent
    return Fraction(1, p**-exponent)


_OPS = {"<": lt, ">": gt}


class IneqCheck(NamedTuple):
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


# A certificate: each check with whether the verdict rests on it, in report order.
Certificate = Iterator[tuple[IneqCheck, bool]]


# ---------------------------------------------------------------------------
# Count-style bounds
# ---------------------------------------------------------------------------


class CountBound(NamedTuple):
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


def _comm_exponent(ell: int, dim_g: int, c: int) -> int:
    """ell(ell-1) - ell(3 dim_g + c), the exponent of the commensurator-distinct count."""
    return ell * (ell - 1) - ell * (3 * dim_g + c)


def _nonarith_exponent(ell: int) -> int:
    """ell(ell-1) - 8 ell, the exponent of the non-arithmetic pullback count."""
    return ell * (ell - 1) - 8 * ell


def distinct_comm_classes(p: int, ell0: int, dim_g: int, c: int) -> CountBound:
    """p^(ell0(ell0-1) - ell0(3*dim_g + c)), commensurator-distinct count."""
    e = _comm_exponent(ell0, dim_g, c)
    return CountBound("comm-classes", p, e, exact_power(p, e), e <= 0)


def nonarith_count(p: int, ell: int) -> CountBound:
    """p^(ell(ell-1) - 8*ell), the non-arithmetic pullback count."""
    e = _nonarith_exponent(ell)
    return CountBound("nonarith-count", p, e, exact_power(p, e), e <= 0)


def commensurator_conjugates_bound(n_index: int, x: int, big_c: int,
                                   group_order: int) -> int:
    """Upper bound n * x^C * |image| on subgroups conjugate in the commensurator."""
    if n_index < 1 or x < 1 or big_c < 0 or group_order < 1:
        raise ValueError("inputs must be positive (big_c may be zero)")
    return n_index * exact_power(x, big_c) * group_order


def tower_volume_bound(big_c: int, p: int, j: int) -> int:
    """Volume bound C * p^(9j) for a level-j cover."""
    if big_c < 1 or p < 2 or j < 0:
        raise ValueError("need big_c >= 1, p >= 2, j >= 0")
    return big_c * exact_power(p, 9 * j)


def isometry_headroom(p: int, ell: int, dim_g: int, c: int, c_x: int,
                      n: int) -> IneqCheck:
    """The pigeonhole condition p^(ell(ell-1)-ell(3 dim_g+c)) > c_x * n."""
    return IneqCheck("isometry-headroom", exact_power(p, _comm_exponent(ell, dim_g, c)), ">",
                     c_x * n)


def nonarith_headroom(p: int, ell: int, comm_index: int, n: int) -> IneqCheck:
    """The non-arithmetic condition p^(ell(ell-1)-8ell) > [Comm:G0] * n."""
    return IneqCheck("nonarith-headroom", exact_power(p, _nonarith_exponent(ell)), ">",
                     comm_index * n)


# ---------------------------------------------------------------------------
# Minimal prime degrees
# ---------------------------------------------------------------------------


def _sequence_condition(dim_g: int, c: int, r: int):
    """(label, lhs, rhs) of ell(ell-1) - ell(3 dim_g + c) > r, lhs a function of ell."""
    return "min-ell-sequence", lambda ell: _comm_exponent(ell, dim_g, c), r


def _growth_condition(dim_g: int, c: int, r: int):
    """(label, lhs, rhs) of ell(ell-1) - ell(3 dim_g+c) - r*ell*dim_g - r > 0."""
    return ("min-ell-growth",
            lambda ell: _comm_exponent(ell, dim_g, c) - r * ell * dim_g - r, 0)


def _least_prime(lhs_at, rhs: Exact) -> int:
    """The prime walk: the least prime ell with lhs_at(ell) > rhs.

    lhs_at - rhs is convex and at most 0 at 0, so once it is positive at some
    n > 0 it stays positive past n.  The least such integer n >= 2 is found by
    doubling and then bisection, in exact integers, and the walk starts there.
    """
    hi = 2
    while not lhs_at(hi) > rhs:
        hi *= 2
    lo = hi // 2  # fails, unless hi is 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if lhs_at(mid) > rhs else (mid, hi)
    return next_prime(hi - 1)


def _prime_before(n: int) -> Optional[int]:
    k = n - 1
    while k >= 2 and not is_prime(k):
        k -= 1
    return k if k >= 2 else None


def _least_prime_checks(label: str, lhs_at, rhs: Exact, ell: int) -> Certificate:
    """The certificate that ell is the least prime with lhs_at(ell) > rhs: the
    check at ell, on which the verdict rests, and the failing check at the
    prime before it."""
    # Bertrand: some prime lies in (n, 2n], below ell.  lhs_at is a convex quadratic,
    # so once it rises from n to n + 1 it keeps rising, and if it holds at n + 1 it
    # holds at the prime before ell; a forged ell of many digits is refused at once
    n = (ell - 1) // 2
    if n >= 1 and lhs_at(n) <= lhs_at(n + 1) and lhs_at(n + 1) > rhs:
        raise SelfCheckFailed("predecessor certificate unexpectedly passes")
    if not is_prime(ell):
        raise SelfCheckFailed(f"ell={ell} is not prime")
    passing = IneqCheck(f"{label}@ell={ell}", lhs_at(ell), ">", rhs)
    if not passing.holds:
        raise SelfCheckFailed(f"{passing.label} does not hold")
    yield passing, True
    prev = _prime_before(ell)
    if prev is not None:
        failing = IneqCheck(f"{label}@ell={prev}", lhs_at(prev), ">", rhs)
        if failing.holds:
            raise SelfCheckFailed("predecessor certificate unexpectedly passes")
        yield failing, False


def growth_chain_check(p: int, c_1: int, ell0: int, r: int, dim_g: int,
                       c: int) -> tuple[IneqCheck, ...]:
    """The displayed two-step chain behind the volume-growth argument.

    C_1^r p^(r ell0 dim_g) < p^(r + r ell0 dim_g) < p^(ell0(ell0-1) - ell0(3 dim_g + c)),
    valid once p^r > C_1^r; all three comparisons are substituted exactly.
    """
    precondition = IneqCheck("p^r > C_1^r", exact_power(p, r), ">", exact_power(c_1, r))
    lhs = exact_power(c_1, r) * exact_power(p, r * ell0 * dim_g)
    mid = exact_power(p, r + r * ell0 * dim_g)
    rhs = exact_power(p, _comm_exponent(ell0, dim_g, c))
    return (
        precondition,
        IneqCheck("chain-left", lhs, "<", mid),
        IneqCheck("chain-right", mid, "<", rhs),
    )


# ---------------------------------------------------------------------------
# Certified natural-log intervals
# ---------------------------------------------------------------------------


class RationalInterval:
    """The interval [lo, hi] of rationals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo, self.hi = lo, hi

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


def _growth_rhs(j: int, d_p: int) -> Fraction:
    return Fraction(j * (j - 1), 2) - 9 * j - d_p


_LADDER_RUNGS = 12


def _ln_ladder(p: int) -> Iterator[RationalInterval]:
    """The enclosures of ln p that the growth-constant search tries, widest first."""
    width = Fraction(1, 1 << 30)
    for _ in range(_LADDER_RUNGS):
        yield ln_interval(p, width)
        width /= 1 << 8


def _growth_args(i: dict) -> tuple:
    """(p, delta, d_p, j_min, j_max, margin) of a growth-constant op's inputs."""
    return i["p"], Fraction(i["delta"]), i["d_p"], i["j_min"], i["j_max"], Fraction(i["margin"])


def _check_growth_inputs(i: dict) -> None:
    """The inputs of growth-constant, of which delta takes any value."""
    p, _, d_p, j_min, j_max, margin = _growth_args(i)
    if not _proved_prime(p):
        raise ValueError("p must be a prime below 3.3e24, where it is proved prime")
    if j_min < 1 or j_max < j_min:
        raise ValueError("need 1 <= j_min <= j_max")
    if margin < 0 or margin >= 1:
        raise ValueError("margin must lie in [0, 1)")
    # the right side is convex in j, so it is largest at an end of the range
    if _growth_rhs(j_min, d_p) <= 0:
        if _growth_rhs(j_max, d_p) <= 0:
            raise NoValidD(
                f"right side non-positive throughout [{j_min}, {j_max}] for D_p={d_p}"
            )
        raise NoValidD(
            f"right side non-positive at j_min={j_min}; shift the range up"
        )


def _growth_checks(delta: Fraction, d_p: int, j_min: int, j_max: int, margin: Fraction,
                   constant: Fraction, ln_hi: Fraction) -> Certificate:
    """growth@j for each j in [j_min, j_max], lazily, each substituting ln_hi, the upper
    end of the ln(p) enclosure; past the last, the proof that constant is (1 - margin)
    times the least ratio of the right side to ln_hi*(9j+delta)^2 over the range, and
    that every check holds."""
    least, held = None, True
    for j in range(j_min, j_max + 1):
        rhs, weight = _growth_rhs(j, d_p), ln_hi * (9 * j + delta) ** 2
        least = rhs / weight if least is None else min(least, rhs / weight)
        check = IneqCheck(f"growth@j={j}", constant * weight, "<", rhs)
        held = held and check.holds
        yield check, True
    if constant != (1 - margin) * least:
        raise SelfCheckFailed("the constant is not (1 - margin) times the least ratio")
    if not held:
        raise SelfCheckFailed("a growth check fails at this enclosure of ln p")


def _search_growth_constant(i: dict) -> tuple[dict, dict]:
    """The ln ladder: the largest certifiable D with D*ln(p)*(9j+delta)^2 <
    j(j-1)/2 - 9j - D_p for every j in [j_min, j_max], at the first rung that separates.

    D is taken a relative margin below the interval-certified minimum of
    the ratio; each check substitutes the upper bound of the ln(p)
    enclosure, so a pass is a proof.  "log" means the natural logarithm
    here; rescaling D converts to any other base.
    """
    p, delta, d_p, j_min, j_max, margin = _growth_args(i)
    for enclosure in _ln_ladder(p):
        ratios = [_growth_rhs(j, d_p) / (enclosure.hi * (9 * j + delta) ** 2)
                  for j in range(j_min, j_max + 1)]
        constant = (1 - margin) * min(ratios)
        # each ln_hi*(9j+delta)^2 is positive, so constant < ratio is the check growth@j
        if all(constant < ratio for ratio in ratios):
            return i, {"constant": str(constant), "ln_p": enclosure.to_json()}
    raise PrecisionExhausted(
        "could not separate the growth inequality at maximum ln precision"
    )


# ---------------------------------------------------------------------------
# Tower levels
# ---------------------------------------------------------------------------


def _proved_prime(p: int) -> bool:
    """Whether a stated p is prime, proved: is_prime is exact below PRIME_EXACT_LIMIT,
    and a p at or past it is refused by its size before any Miller-Rabin round, so a
    forged prime of many digits costs a comparison."""
    return 2 <= p < PRIME_EXACT_LIMIT and is_prime(p)


def _validate_primes(primes: Sequence[int]) -> None:
    if not all(map(_proved_prime, primes)):
        raise ValueError("tower places must be primes below 3.3e24, where they are proved prime")
    if any(a >= b for a, b in zip(primes, primes[1:])):
        raise ValueError("tower primes must be strictly increasing")


def _power_product(primes: Sequence[int], e: int) -> Exact:
    out = 1
    for p in primes:
        out *= exact_power(p, e)
    return out


def level_count(primes: Sequence[int], j: int, ell0: int) -> int:
    """Number of level-j covers: product of p_i^(ell0(ell0-1)) over i <= j."""
    _validate_primes(primes)
    if j < 0:
        raise ValueError("level must be >= 0")
    if j > len(primes):
        raise PrimesExhausted(f"need {j} primes, have {len(primes)}")
    return _power_product(primes[:j], ell0 * (ell0 - 1))


def _check_tower_inputs(i: dict) -> None:
    """The inputs of tower-min-k: its constants, primes, start level and margin >= r."""
    _constants(i)
    _validate_primes(i["primes"])
    if i["j"] < 0 or i["j"] > len(i["primes"]):
        raise ValueError("invalid start level")
    ell0, r = i["ell0"], i["r"]
    margin = _comm_exponent(ell0, i["dim_g"], 0)
    if margin < r:
        raise ExponentMarginNonpositive(
            f"need ell0(ell0-1) - 3 ell0 dim_g = {margin} >= r = {r} > 0"
        )


def _tower_side(i: dict, level: int) -> Exact:
    """C_X * x^c * prod_{i<=level} p_i^(3 ell0 dim_g): at j the right side of the
    product condition, at k the left side of the full tower inequality."""
    return i["c_x"] * exact_power(i["x"], i["c"]) * _power_product(
        i["primes"][:level], 3 * i["ell0"] * i["dim_g"])


def _tower_checks(i: dict, k: int) -> Certificate:
    """The certificate that k is the least level past j with the product condition
    prod_{i=j+1..k} p_i^r > C_j * C_X * x^c: it and the full tower inequality
    C_X x^c prod_{i<=k} p_i^(3 ell0 dim_g) < prod_{j<i<=k} p_i^(ell0(ell0-1)) at k,
    on which the verdict rests, then both at k - 1, where the product condition fails."""
    primes, j, ell0 = i["primes"], i["j"], i["ell0"]
    if not j < k <= len(primes):
        raise SelfCheckFailed(f"k={k} is not a level in {j + 1}..{len(primes)}")
    for level, rests in ((k, True), (k - 1, False)):
        product = IneqCheck(f"tower-product@k={level}", _power_product(primes[j:level], i["r"]),
                            ">", _tower_side(i, j))
        if product.holds and not rests:
            raise SelfCheckFailed(f"product condition already holds at k={level}")
        full = IneqCheck(f"tower-full@k={level}", _tower_side(i, level), "<",
                         _power_product(primes[j:level], ell0 * (ell0 - 1)))
        if rests and not (product.holds and full.holds):
            raise SelfCheckFailed(f"tower certificate at k={level} does not hold")
        yield from ((product, rests), (full, rests))


def _least_level(i: dict) -> int:
    """The product walk: the least k > j with prod_{i=j+1..k} p_i^r > C_j * C_X * x^c."""
    primes, j, target = i["primes"], i["j"], _tower_side(i, i["j"])
    acc = 1
    for k in range(j + 1, len(primes) + 1):
        acc *= primes[k - 1] ** i["r"]
        if acc > target:
            return k
    raise PrimesExhausted(
        f"the supplied {len(primes)} primes never satisfy the product condition"
    )


# ---------------------------------------------------------------------------
# The plan ops
# ---------------------------------------------------------------------------


class PlanOp(NamedTuple):
    """One op of ``gassmann plan``.

    reads: the options it always reads, in the order a missing one is named (an
    option without a default must be given);
    optional: (trigger, options), options it reads too once every trigger is given.
    validate(inputs) rejects inputs the op cannot take.  search(inputs) gives the
    inputs, with any the search settles, and the fields it finds (the prime
    walk's ell, the product walk's k, the ln ladder's rung and constant).
    certify(inputs, result) gives the result, with every closed-form field
    derived, and the lazy certificate; it raises SelfCheckFailed where a found
    field fails its proof.
    """

    reads: tuple[str, ...]
    certify: Callable[[dict, dict], tuple[dict, Certificate]]
    validate: Callable[[dict], None] = lambda inputs: None
    search: Callable[[dict], tuple[dict, dict]] = lambda inputs: (inputs, {})
    optional: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())

    def names(self, given) -> tuple[str, ...]:
        """The inputs of the op when the options in ``given`` are given."""
        trigger, extra = self.optional
        return self.reads + (extra if all(name in given for name in trigger) else ())

    def read(self, options: dict) -> dict:
        """The op's inputs from the values of options, as parsed from the command line
        or as a report states them, each in its form; one that is None stays None."""
        given = {name for name, value in options.items() if value is not None}
        return {name: None if options[name] is None else PLAN_OPTIONS[name][1](options[name])
                for name in self.names(given)}


def _fraction(value) -> str:
    return str(Fraction(value))


def _primes(value) -> list[int]:
    return [int(v) for v in (value.split(",") if isinstance(value, str) else value)]


# The options of gassmann plan, each with its default, None for one that is None until
# given, and its form: an integer option is parsed as one, the others are parsed as text,
# and the form gives the input an op reads from the value.
PLAN_OPTIONS: dict[str, tuple[Optional[object], Callable]] = {
    "p": (None, int),
    "ell": (None, int),
    "ell0": (None, int),
    "dim_g": (None, int),
    "c": (1, int),
    "r": (1, int),
    "x": (1, int),
    "big_c": (1, int),
    "c_x": (1, int),
    "c_1": (None, int),
    "d_p": (1, int),
    "delta": ("1", _fraction),
    "margin": ("1/1024", _fraction),
    "n": (None, int),
    "n_index": (None, int),
    "comm_index": (1, int),
    "group_order": (None, int),
    "j": (None, int),
    "j_min": (None, int),
    "j_max": (None, int),
    "primes": (None, _primes),
}


def _constants(inputs: dict) -> None:
    """The counting constants that an op reading dim_g reads: each of dim_g, x,
    c_x, c_1 and r is positive, and c is non-negative."""
    for name in ("dim_g", "x", "c_x", "c_1", "r"):
        if name in inputs and inputs[name] < 1:
            raise ValueError(f"{name} must be positive")
    if inputs.get("c", 0) < 0:
        raise ValueError("c must be non-negative")


def _headroom(check: Callable[..., IneqCheck], *names: str):
    """The certificate of an op with n given: one check, on which the verdict rests."""
    return lambda i: iter([(check(*(i[name] for name in names)), True)] if "n" in i else [])


def _closed(fn: Callable, reads: tuple[str, ...], certificate=lambda i: iter(()),
            **fields) -> PlanOp:
    """An op whose result fn gives on the options it reads, in their order: a
    CountBound, or a value."""
    def result(i: dict) -> dict:
        found = fn(*(i[name] for name in reads))
        return found.to_json() if isinstance(found, CountBound) else {"value": str(found)}
    return PlanOp(reads, lambda i, _: (result(i), certificate(i)), **fields)


def _min_ell_op(condition, chained: bool = False) -> PlanOp:
    """min-ell-sequence, or min-ell-growth with its optional chain if chained."""
    def search(i: dict) -> tuple[dict, dict]:
        ell = _least_prime(*condition(i["dim_g"], i["c"], i["r"])[1:])
        if "ell0" in i and i["ell0"] is None:  # the chain's ell0 defaults to ell
            i = {**i, "ell0": ell}
        return i, {"ell": ell}

    def certify(i: dict, result: dict) -> tuple[dict, Certificate]:
        ell = int(result["ell"])
        certificate = _least_prime_checks(*condition(i["dim_g"], i["c"], i["r"]), ell)
        if chained and "c_1" in i:
            chain = growth_chain_check(i["p"], i["c_1"], i["ell0"], i["r"], i["dim_g"], i["c"])
            certificate = chain_iterables(certificate, ((check, True) for check in chain))
        return {"ell": ell}, certificate
    optional = (("p", "c_1"), ("p", "c_1", "ell0")) if chained else ((), ())
    return PlanOp(("dim_g", "c", "r"), certify, _constants, search, optional)


def _certify_growth_constant(i: dict, result: dict) -> tuple[dict, Certificate]:
    """ln_p must be a rung of the search's ladder, which proves that it encloses
    ln p; the certificate proves the constant after its last check."""
    p, *args = _growth_args(i)
    stated = (Fraction(result["ln_p"]["lo"]), Fraction(result["ln_p"]["hi"]))
    rung = next((rung for rung in _ln_ladder(p) if (rung.lo, rung.hi) == stated),
                None)
    if rung is None:
        raise SelfCheckFailed(f"ln_p is not one of the {_LADDER_RUNGS} enclosures of ln {p} "
                              "that the search tries")
    constant = Fraction(result["constant"])
    return ({"constant": str(constant), "log_base": "natural", "ln_p": rung.to_json()},
            _growth_checks(*args, constant, rung.hi))


PLAN_OPS: dict[str, PlanOp] = {
    "twisted-count": _closed(twisted_count_bound, ("p", "ell0", "dim_g"), validate=_constants),
    "comm-classes": _closed(
        distinct_comm_classes, ("p", "ell0", "dim_g", "c"),
        _headroom(isometry_headroom, "p", "ell0", "dim_g", "c", "c_x", "n"),
        validate=_constants, optional=(("n",), ("c_x", "n"))),
    "conjugates-bound": _closed(commensurator_conjugates_bound,
                                ("n_index", "x", "big_c", "group_order")),
    "min-ell-sequence": _min_ell_op(_sequence_condition),
    "min-ell-growth": _min_ell_op(_growth_condition, chained=True),
    "nonarith-count": _closed(
        nonarith_count, ("p", "ell"), _headroom(nonarith_headroom, "p", "ell", "comm_index", "n"),
        optional=(("n",), ("comm_index", "n"))),
    "volume-bound": _closed(tower_volume_bound, ("big_c", "p", "j")),
    "growth-constant": PlanOp(
        ("p", "delta", "d_p", "j_min", "j_max", "margin"), _certify_growth_constant,
        _check_growth_inputs, _search_growth_constant),
    "level-count": _closed(level_count, ("primes", "j", "ell0")),
    "tower-min-k": PlanOp(
        ("primes", "j", "ell0", "dim_g", "c_x", "x", "c", "r"),
        lambda i, result: ({"k": int(result["k"])}, _tower_checks(i, int(result["k"]))),
        _check_tower_inputs, lambda i: (i, {"k": _least_level(i)})),
}
