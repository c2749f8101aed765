"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
test re-derives its expected values from an independent route (brute
force, oracle expansion, direct enumeration, exact substitution) before
asserting, and enforces the stated runtime budgets.
"""

import json
import time
from fractions import Fraction

from conftest import run_cli

from gassmann.certify import ProductFamily, product_certificate
from gassmann.cli import cmd_certify, cmd_graphs, cmd_tower
from gassmann.errors import NoValidD
from gassmann.heisenberg import heisenberg_group
from gassmann.oracles import ProductGroup, charpoly_berkowitz, product_profile_direct
from gassmann.places import residue_degree, residue_degree_subgroup, scan_places
from gassmann.planner import min_ell_growth, min_ell_sequence, tower_growth_constant, tower_min_k
from gassmann.reports import verify_report
from gassmann.rings import LinearMap, make_field, primes_up_to


def _criterion(num: int, text: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_exhaustive_proposition_at_2_2():
    started = time.perf_counter()
    report = cmd_certify(2, 2)
    elapsed = time.perf_counter() - started
    items = {item["kind"]: item for item in report["items"]}
    family = items["gassmann-family"]
    dichotomy = items["conjugacy-dichotomy"]
    ok = (
        report["summary"]["verdict"] == "pass"
        and family["mode"] == "all-twists"
        and family["count"] == 16
        and family["pair_count"] == 120
        and family["all_equal"]
        and items["class-count"]["actual"] == 4
        and dichotomy["bruteforce_checked"]
        and dichotomy["structural_equals_bruteforce"]
        and elapsed < 1.0
    )
    _criterion(
        1,
        f"16 twisted subgroups of N3(F4), 120 Gassmann-equal pairs, 4 classes, "
        f"structural == brute-force conjugacy ({elapsed:.3f}s < 1s)",
        ok,
    )


def test_criterion_2_proposition_at_scale():
    ok = True
    details = []
    for p, m, classes in ((3, 2, 9), (2, 3, 64)):
        started = time.perf_counter()
        report = cmd_certify(p, m)
        elapsed = time.perf_counter() - started
        items = {item["kind"]: item for item in report["items"]}
        ok = (
            ok
            and report["summary"]["verdict"] == "pass"
            and items["class-count"]["actual"] == classes
            and items["gassmann-family"]["all_equal"]
            and items["gassmann-family"]["count"] == classes
            and elapsed < 60.0
        )
        details.append(f"({p},{m}): {classes} classes in {elapsed:.2f}s")
    _criterion(2, "; ".join(details) + " (< 60s each)", ok)


def test_criterion_3_sunada_graph_analog():
    started = time.perf_counter()
    report, exports = cmd_graphs(2, 2, exports=True)
    graphs = [item for item in report["items"] if item["kind"] == "coset-graph"]
    cospectral = next(item for item in report["items"] if item["kind"] == "cospectral")
    oracle_ok = True
    for k, item in enumerate(graphs):
        # the graph from its .edges export, the polynomial from the cospectral item
        n = item["vertices"]
        adjacency = [[0] * n for _ in range(n)]
        for line in exports[f"rep_{k}.edges"].splitlines():
            u, v, mult = map(int, line.split())
            adjacency[u][v] = adjacency[v][u] = mult
        charpoly = cospectral["distinct_charpolys"][cospectral["charpoly_index"][k]]
        oracle = charpoly_berkowitz(adjacency)
        oracle_ok = oracle_ok and list(oracle.coefficients) == [int(c) for c in charpoly]
    elapsed = time.perf_counter() - started
    ok = (
        len(graphs) == 4
        and all(item["vertices"] == 16 for item in graphs)
        and cospectral["all_equal"]
        and oracle_ok
        and elapsed < 5.0
    )
    _criterion(
        3,
        f"4 representative 16-vertex graphs share one integer characteristic "
        f"polynomial, Berkowitz oracle agrees ({elapsed:.2f}s < 5s)",
        ok,
    )


def test_criterion_9_sunada_graph_analog_at_gf8_verified():
    started = time.perf_counter()
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "3")
    report = json.loads(out)
    problems = verify_report(report)
    elapsed = time.perf_counter() - started
    graphs = [item for item in report["items"] if item["kind"] == "coset-graph"]
    cospectral = next(item for item in report["items"] if item["kind"] == "cospectral")
    ok = (
        code == 0
        and len(graphs) == 64
        and all(item["vertices"] == 64 for item in graphs)
        and cospectral["all_equal"]
        and problems == []
        and elapsed < 5.0
    )
    _criterion(
        9,
        f"64 representative 64-vertex GF(8) graphs share one characteristic "
        f"polynomial, and verify re-derives the report ({elapsed:.2f}s < 5s)",
        ok,
    )


def test_criterion_4_tower_rings():
    ok = True
    details = []
    for p, j_max, exacts, citeds in (
        (2, 3, [1, 4, 64], [1, 2, 8]),
        (3, 2, [1, 9], [1, 3]),
    ):
        report = cmd_tower(p, j_max)
        exact = [item["exact"] for item in report["items"]]
        cited = [item["cited_lower"] for item in report["items"]]
        gaps = [item["gap"] for item in report["items"]]
        formula = [p ** (j * (j - 1)) for j in range(1, j_max + 1)]
        ok = (
            ok
            and exact == exacts == formula
            and cited == citeds
            and all(e >= c for e, c in zip(exact, cited))
            and gaps == [e != c for e, c in zip(exact, cited)]
        )
        details.append(f"p={p}: exact {exact} vs cited {cited}")
    _criterion(4, "; ".join(details) + " (gap reported, never reconciled)", ok)


def test_criterion_5_product_gassmann():
    started = time.perf_counter()
    f2, f3 = make_field(2, 1), make_field(3, 1)
    fam1 = ProductFamily((f2, f3), (LinearMap.zero(2, 1), LinearMap.zero(3, 1)))
    fam2 = ProductFamily(
        (f2, f3), (LinearMap.identity(2, 1), LinearMap.from_flat(3, (2,), 1))
    )
    cert = product_certificate(fam1, fam2)
    product = ProductGroup([heisenberg_group(f2), heisenberg_group(f3)])
    classes, index = product.conjugacy_partition()
    direct_ok = all(
        product_profile_direct(fam, index, len(classes)) == profile
        for fam, profile in ((fam1, cert.profile_h), (fam2, cert.profile_k))
    )
    elapsed = time.perf_counter() - started
    ok = (
        cert.equal
        and product.order == 216
        and len(classes) == 55
        and direct_ok
        and elapsed < 60.0
    )
    _criterion(
        5,
        f"two-factor family over F2 x F3: tensor certificate equals direct "
        f"enumeration in the 216-element product ({elapsed:.2f}s < 60s)",
        ok,
    )


def test_criterion_6_place_scanner():
    scan = scan_places(3, 7, 10**5)
    gap = scan.density_gap()
    agree = all(
        residue_degree(p, 7, 3) == residue_degree_subgroup(p, 7, 3)
        for p in primes_up_to(10**4)
        if p != 7
    )
    ok = gap <= Fraction(1, 50) and agree
    _criterion(
        6,
        f"density {float(scan.density):.4f} within 0.02 of 2/3; power test and "
        f"subgroup test agree on all primes <= 10^4",
        ok,
    )


def test_criterion_7_planner_exactness():
    growth = min_ell_growth(8, 1, 1)
    sequence = min_ell_sequence(8, 1, 1)
    r = 37 * 36 - 3 * 37 * 8
    tower = tower_min_k([2, 3, 5, 7, 11], j=1, ell0=37, dim_g=8, c_x=4, x=1, c=1, r=r)
    constant = tower_growth_constant(2, Fraction(1), 0, 30, 100)
    novalid = False
    try:
        tower_growth_constant(2, Fraction(1), 5000, 30, 100)
    except NoValidD:
        novalid = True
    ok = (
        growth.ell == 37
        and growth.passing.holds
        and growth.failing is not None
        and "ell=31" in growth.failing.label
        and not growth.failing.holds
        and sequence.ell == 29
        and tower.full_at_k.holds
        and tower.full_before is not None
        and not tower.full_before.holds
        and all(check.holds for check in constant.checks)
        and novalid
    )
    _criterion(
        7,
        f"min_ell_growth(8,1,1)={growth.ell} (31 fails, 37 passes); "
        f"min_ell_sequence(8,1,1)={sequence.ell}; tower k={tower.k} minimal; "
        f"growth constant certified at 71 points; NoValidD raised",
        ok,
    )


def test_criterion_8_determinism():
    commands = (
        ("certify", "--p", "2", "--m", "2"),
        ("graphs", "--p", "2", "--m", "2"),
        ("tower", "--p", "2", "--j-max", "3"),
        ("places", "--ell", "3", "--bound", "100000"),
        ("plan", "min-ell-growth", "--dim-g", "8", "--c", "1", "--r", "1"),
        ("plan", "growth-constant", "--p", "2", "--delta", "1", "--d-p", "0",
         "--j-min", "30", "--j-max", "100"),
    )
    outputs = []
    for _ in range(2):
        chunks = []
        for argv in commands:
            code, out, _ = run_cli(*argv)
            assert code == 0, argv
            chunks.append(out)
        outputs.append("".join(chunks))
    ok = outputs[0] == outputs[1]
    _criterion(
        8,
        f"two consecutive full-suite runs produce byte-identical reports "
        f"({len(outputs[0])} bytes compared)",
        ok,
    )
