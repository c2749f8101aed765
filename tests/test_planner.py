import json
from fractions import Fraction

import pytest
from conftest import run_cli

from gassmann.errors import PrimesExhausted, SelfCheckFailed
from gassmann.planner import (
    IneqCheck,
    commensurator_conjugates_bound,
    distinct_comm_classes,
    growth_chain_check,
    isometry_headroom,
    level_count,
    ln_interval,
    nonarith_count,
    nonarith_headroom,
    tower_volume_bound,
    twisted_count_bound,
    _atanh_twice,
    _growth_condition,
    _least_prime,
    _least_prime_checks,
    _sequence_condition,
)


def _flags(options: dict) -> list[str]:
    return [arg for name, value in options.items()
            for arg in ("--" + name.replace("_", "-"), str(value))]


def _plan_item(op: str, **options) -> dict:
    """The item of the report of gassmann plan op with the options given."""
    code, out, err = run_cli("plan", op, *_flags(options))
    assert code == 0, err
    return json.loads(out)["items"][0]


def _plan_error(op: str, **options) -> str:
    """The one-line error of gassmann plan op, which refuses the options given."""
    code, out, err = run_cli("plan", op, *_flags(options))
    assert code == 2 and out == "" and err.count("\n") == 1
    return err


def _holds(item: dict) -> dict[str, bool]:
    """Each check's label with whether it holds, in report order."""
    return {check["label"]: check["holds"] for check in item["checks"]}


# ---------------------------------------------------------------------------
# Count-style bounds
# ---------------------------------------------------------------------------


def test_twisted_count_bound_values():
    assert twisted_count_bound(2, 37, 8).value == 2**1036
    zero_exp = twisted_count_bound(2, 9, 8)  # 9*8 - 9*8 = 0
    assert zero_exp.value == 1 and zero_exp.vacuous
    negative = twisted_count_bound(2, 2, 8)
    assert negative.vacuous and negative.value == Fraction(1, 2**14)


def test_distinct_comm_classes_values():
    assert distinct_comm_classes(2, 37, 8, 1).value == 2**407
    assert distinct_comm_classes(2, 37, 8, 1).exponent == 1332 - 925


def test_nonarith_count_values():
    assert nonarith_count(2, 11).value == 2**22
    assert nonarith_count(3, 9).value == 1 and nonarith_count(3, 9).vacuous
    assert nonarith_count(2, 2).vacuous


def test_headroom_checks():
    check = isometry_headroom(2, 29, 8, 1, c_x=3, n=5)
    assert check.lhs == 2**87 and check.rhs == 15 and check.holds
    check2 = nonarith_headroom(2, 11, comm_index=7, n=3)
    assert check2.lhs == 2**22 and check2.rhs == 21 and check2.holds
    assert not nonarith_headroom(2, 2, 1, 1).holds


def test_conjugates_bound():
    # n = q^(2 dim) with q=2, dim=3; x=2, C=3, order 2^9: product is 2^18
    assert commensurator_conjugates_bound(2**6, 2, 3, 2**9) == 2**18
    assert commensurator_conjugates_bound(5, 1, 7, 11) == 55   # x = 1
    assert commensurator_conjugates_bound(5, 9, 0, 11) == 55   # C = 0
    with pytest.raises(ValueError):
        commensurator_conjugates_bound(0, 1, 1, 1)


def test_volume_bound():
    assert tower_volume_bound(3, 2, 4) == 3 * 2**36


# ---------------------------------------------------------------------------
# Minimal primes with two-sided certificates
# ---------------------------------------------------------------------------


def _min_ell(condition, args: tuple) -> tuple[int, dict[str, bool]]:
    """The least prime of the search on args, and each check of its certificate
    with whether it holds: what the op reports, and also at dim_g = 0, which it refuses."""
    label, lhs_at, rhs = condition(*args)
    ell = _least_prime(lhs_at, rhs)
    return ell, {check.label: check.holds
                 for check, _ in _least_prime_checks(label, lhs_at, rhs, ell)}


def _expected_holds(op: str, expected: int, fail_at) -> dict[str, bool]:
    holds = {f"{op}@ell={expected}": True}
    return holds if fail_at is None else {**holds, f"{op}@ell={fail_at}": False}


@pytest.mark.parametrize(
    "args,expected,fail_at",
    [((0, 0, 0), 2, None), ((1, 0, 1), 5, 3), ((8, 1, 1), 29, 23)],
)
def test_min_ell_sequence(args, expected, fail_at):
    holds = _expected_holds("min-ell-sequence", expected, fail_at)
    assert _min_ell(_sequence_condition, args) == (expected, holds)
    if args[0] > 0:
        item = _plan_item("min-ell-sequence", **dict(zip(("dim_g", "c", "r"), args)))
        assert item["result"]["ell"] == expected and _holds(item) == holds


@pytest.mark.parametrize(
    "args,expected,fail_at",
    [((0, 0, 0), 2, None), ((3, 1, 2), 19, 17), ((8, 1, 1), 37, 31)],
)
def test_min_ell_growth(args, expected, fail_at):
    holds = _expected_holds("min-ell-growth", expected, fail_at)
    assert _min_ell(_growth_condition, args) == (expected, holds)
    if args[0] > 0:
        item = _plan_item("min-ell-growth", **dict(zip(("dim_g", "c", "r"), args)))
        assert item["result"]["ell"] == expected and _holds(item) == holds


def test_the_min_ell_ops_refuse_dim_g_0():
    assert all("ValueError: dim_g must be positive" in _plan_error(op, dim_g=0, c=0, r=0)
               for op in ("min-ell-sequence", "min-ell-growth"))


def test_min_ell_growth_certificate_values():
    checks = _plan_item("min-ell-growth", dim_g=8, c=1, r=1)["checks"]
    # 37*36 - 37*25 - 37*8 - 1 = 110 and 31*30 - 31*25 - 31*8 - 1 = -94
    assert [(check["label"], check["lhs"]) for check in checks] == [
        ("min-ell-growth@ell=37", "110"), ("min-ell-growth@ell=31", "-94")]


def test_growth_chain():
    checks = growth_chain_check(2, 1, 37, 1, 8, 1)
    assert all(c.holds for c in checks)
    labels = [c.label for c in checks]
    assert "chain-left" in labels[1] and "chain-right" in labels[2]
    # chain collapses when p^r is not above C_1^r
    bad = growth_chain_check(2, 2, 37, 1, 8, 1)
    assert not bad[0].holds


def test_check_json_round_trip():
    check = IneqCheck("demo", 2**200, "<", 3**200)
    data = check.to_json()
    assert data["lhs"] == str(2**200) and data["holds"] is True
    parsed = IneqCheck(data["label"], Fraction(data["lhs"]), data["op"], Fraction(data["rhs"]))
    assert parsed == check and parsed.to_json() == data
    assert IneqCheck("demo", 2**200, ">", 3**200).to_json()["holds"] is False


# ---------------------------------------------------------------------------
# Certified logarithm intervals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 97, 1000])
def test_ln_interval_encloses(n):
    import math

    enclosure = ln_interval(n, Fraction(1, 1 << 40))
    assert enclosure.width <= Fraction(1, 1 << 40)
    assert float(enclosure.lo) <= math.log(n) <= float(enclosure.hi)


def test_ln_interval_of_one_is_exact():
    enclosure = ln_interval(1)
    assert enclosure.lo == enclosure.hi == 0


# ---------------------------------------------------------------------------
# Growth constant
# ---------------------------------------------------------------------------


def test_growth_constant_range():
    item = _plan_item("growth-constant", p=2, delta=1, d_p=0, j_min=30, j_max=100)
    constant = Fraction(item["result"]["constant"])
    ln_hi = Fraction(item["result"]["ln_p"]["hi"])
    assert _holds(item) == {f"growth@j={j}": True for j in range(30, 101)}
    # substitution uses the upper end of the ln enclosure, so a pass is a proof
    for j, check in zip(range(30, 101), item["checks"]):
        rhs = Fraction(j * (j - 1), 2) - 9 * j
        assert Fraction(check["rhs"]) == rhs
        assert constant * ln_hi * (9 * j + 1) ** 2 < rhs


def test_growth_constant_single_point_strictly_below_ratio():
    result = _plan_item("growth-constant", p=3, delta="1/2", d_p=2, j_min=40, j_max=40)["result"]
    j = 40
    rhs = Fraction(j * (j - 1), 2) - 9 * j - 2
    # D sits strictly below the certified ratio at the only point
    assert (Fraction(result["constant"]) * Fraction(result["ln_p"]["hi"])
            * (9 * j + Fraction(1, 2)) ** 2 < rhs)


def test_growth_constant_no_valid_d():
    assert "error: NoValidD: " in _plan_error("growth-constant", p=2, d_p=5000,
                                              j_min=30, j_max=100)
    # right side < 0 at j_min
    assert "error: NoValidD: " in _plan_error("growth-constant", p=2, d_p=0, j_min=3, j_max=10)


def test_growth_constant_precision_exhausted():
    # with no margin the constant is the least ratio, which no rung puts below itself
    assert "error: PrecisionExhausted: " in _plan_error("growth-constant", p=2, d_p=0,
                                                        j_min=30, j_max=31, margin=0)


# ---------------------------------------------------------------------------
# Tower levels
# ---------------------------------------------------------------------------


def test_level_count():
    assert level_count([2, 3, 5], 3, 2) == 900  # (2*3*5)^2
    assert level_count([2, 3, 5], 0, 7) == 1
    with pytest.raises(PrimesExhausted):
        level_count([2, 3], 3, 2)
    with pytest.raises(ValueError):
        level_count([3, 2], 2, 2)


_TOWER = dict(ell0=37, dim_g=8, x=1, c=1)


def test_tower_min_k_toy_configuration():
    r = 37 * 36 - 3 * 37 * 8  # 444, the exact exponent margin
    item = _plan_item("tower-min-k", primes="2,3,5,7,11", j=1, c_x=4, r=r, **_TOWER)
    assert item["result"]["k"] == 3
    # minimality in the product condition and in the full inequality
    assert _holds(item) == {"tower-product@k=3": True, "tower-full@k=3": True,
                            "tower-product@k=2": False, "tower-full@k=2": False}


def test_tower_min_k_first_prime_case():
    item = _plan_item("tower-min-k", primes="2,3,5", j=0, c_x=1, r=1, **_TOWER)
    assert item["result"]["k"] == 1
    assert _holds(item)["tower-full@k=0"] is False  # empty products: 1 < 1 fails


def test_tower_min_k_errors():
    assert "error: ExponentMarginNonpositive: " in _plan_error(
        "tower-min-k", primes="2,3", j=0, c_x=1, r=1, **{**_TOWER, "ell0": 2})
    assert "error: ExponentMarginNonpositive: " in _plan_error(
        "tower-min-k", primes="2,3", j=0, c_x=1, r=445, **_TOWER)
    assert "error: ValueError: r must be positive" in _plan_error(
        "tower-min-k", primes="2,3", j=0, c_x=1, r=0, **_TOWER)
    assert "error: PrimesExhausted: " in _plan_error(
        "tower-min-k", primes="2,3", j=1, c_x=10**500, r=444, **_TOWER)


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------


def test_count_bounds_monotone_on_grid():
    # monotone past the vacuous region: p^e with e < 0 decreases in p, so
    # the comparison only makes sense once the exponent is non-negative
    for dim_g, c in ((8, 1), (3, 2)):
        for ell0 in range(2, 51):
            for smaller, larger in (((2, ell0), (3, ell0)), ((3, ell0), (5, ell0))):
                a = twisted_count_bound(*smaller, dim_g)
                b = twisted_count_bound(*larger, dim_g)
                if not a.vacuous:
                    assert a.value <= b.value
                a = distinct_comm_classes(*smaller, dim_g, c)
                b = distinct_comm_classes(*larger, dim_g, c)
                if not a.vacuous:
                    assert a.value <= b.value
        for ell0 in range(2, 50):
            a = distinct_comm_classes(2, ell0, dim_g, c)
            b = distinct_comm_classes(2, ell0 + 1, dim_g, c)
            if not a.vacuous and not b.vacuous:
                assert a.value <= b.value
            a = twisted_count_bound(2, ell0, dim_g)
            b = twisted_count_bound(2, ell0 + 1, dim_g)
            if not a.vacuous and not b.vacuous:
                assert a.value <= b.value


def test_atanh_guard_raises_instead_of_asserting():
    with pytest.raises(SelfCheckFailed):
        _atanh_twice(Fraction(1), Fraction(1, 100))
