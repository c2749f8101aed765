"""Machine-readable reports: canonical JSON, schema, self-verification.

JSON is the single source of truth; the table rendering is derived from
it.  Reports carry enough substituted data (profiles, class sizes,
inequality instances, witness permutations, edge lists) that
verify_report can reproduce the verdict from the JSON alone.  Each fact
is stated once: only coset-graph items carry edges and charpolys, and
other items refer to graphs and profiles by index.  Large integers travel
as decimal strings.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Any

from .errors import GassmannError, SizeCapExceeded, SpecMismatch
from .places import residue_degree
from .planner import verify_check_json
from .rings import is_prime
from .schreier import (charpoly_by_centre, colour_refinement, find_isomorphism, maps_onto,
                       rows_from_edges)

SCHEMA_VERSION = 2


def encode_count(v: int) -> Any:
    """Plain int when JSON-safe, decimal string past 2^53."""
    return v if abs(v) < 2**53 else str(v)


def decode_count(v: Any) -> int:
    return int(v)


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def new_report(command: str, config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "items": [],
        "summary": {},
    }


def finalize(report: dict) -> dict:
    failed = [i for i, item in enumerate(report["items"]) if not item.get("holds", True)]
    report["summary"] = {
        "verdict": "pass" if not failed else "fail",
        "items": len(report["items"]),
        "failed_items": failed,
    }
    return report


# ---------------------------------------------------------------------------
# Self-verification
# ---------------------------------------------------------------------------


def _verify_profiles(item: dict, config: dict, problems: list[str]) -> bool:
    labels = item["subgroups"]
    distinct = item["distinct_profiles"]
    index = item["profile_index"]
    sizes = item["subgroup_sizes"]
    identity_class = item["identity_class"]
    class_sizes = item["class_sizes"]
    n = len(labels)
    ok = True
    # over GF(q): q central classes of size 1, q^2 - 1 classes of size q, subgroups of order q
    q = config["p"] ** config["m"]
    if Counter(class_sizes) != Counter({1: q, q: q * q - 1}):
        problems.append("class_sizes are not q classes of size 1 and q^2-1 of size q, q = p^m")
        ok = False
    if not (0 <= identity_class < len(class_sizes) and class_sizes[identity_class] == 1):
        problems.append("identity_class is not a class of size 1")
        return False
    if any(size != q for size in sizes):
        problems.append("a subgroup order is not q = p^m")
        ok = False
    if not len(index) == len(sizes) == n:
        problems.append("subgroups, profile_index and subgroup_sizes differ in length")
        ok = False
    if item["pair_count"] != n * (n - 1) // 2:
        problems.append("pair_count is not n(n-1)/2 for the n subgroups")
        ok = False
    if len({tuple(profile) for profile in distinct}) != len(distinct):
        problems.append("distinct_profiles repeats a profile")
        ok = False
    if not all(isinstance(k, int) and 0 <= k < len(distinct) for k in index):
        problems.append("profile_index is out of range of distinct_profiles")
        return False
    if list(dict.fromkeys(index)) != list(range(len(distinct))):
        problems.append("distinct_profiles are not listed in order of first appearance")
        ok = False
    for label, k, size in zip(labels, index, sizes):
        if sum(distinct[k]) != size:
            problems.append(f"profile of {label} does not sum to its order")
            ok = False
        if distinct[k][identity_class] != 1:
            problems.append(f"profile of {label} misses the identity class")
            ok = False
    if (len(distinct) == 1) != item["all_equal"]:
        problems.append("stored all_equal flag contradicts the profiles")
        ok = False
    return ok and item["all_equal"] == item["holds"]


def _verify_class_count(item: dict, config: dict, problems: list[str]) -> bool:
    m = config["m"]
    if not _is_power(decode_count(item["expected"]), config["p"], m * (m - 1)):
        problems.append("class-count expected differs from p^(m(m-1))")
        return False
    ok = decode_count(item["actual"]) == decode_count(item["expected"])
    if item.get("bruteforce_orbits") is not None:
        ok = ok and decode_count(item["bruteforce_orbits"]) == decode_count(item["actual"])
    if ok != item["holds"]:
        problems.append("class-count holds flag is wrong")
        return False
    return ok


def _verify_conjugacy(item: dict, config: dict, problems: list[str]) -> bool:
    conjugate_pairs = item["structural_conjugate_pairs"]
    if not 0 <= conjugate_pairs <= item["pairs"]:
        problems.append("structural_conjugate_pairs is outside [0, pairs]")
        return False
    if ("reps_pairwise_nonconjugate" in item
            and item["reps_pairwise_nonconjugate"] != (conjugate_pairs == 0)):
        problems.append("reps_pairwise_nonconjugate disagrees with structural_conjugate_pairs")
        return False
    ok = item["structural_equals_bruteforce"] if item["bruteforce_checked"] else True
    if item.get("reps_pairwise_nonconjugate") is False:
        ok = False
    if ok != item["holds"]:
        problems.append("conjugacy-dichotomy holds flag is wrong")
        return False
    return ok


def _centre_action(config: dict, n: int) -> list[list[int]]:
    """The centre's vertex permutations on a coset graph of a graphs report.

    Vertex k is the coset of (0, b, c) with k = index(b)·q + index(c), ring
    elements indexed in lexicographic coefficient order, so (0, 0, e_i)
    adds 1 mod p to the digit of k of weight p^(m-1-i).  charpoly_by_centre
    checks them on the edges, so a wrong labelling is a problem, not a
    wrong polynomial.
    """
    p, m = config["p"], config["m"]
    q = p**m
    if n != q * q:
        raise SpecMismatch(f"a coset graph over GF({q}) has {q * q} vertices, not {n}")
    weights = [p ** (m - 1 - i) for i in range(m)]
    return [[k + w * (1 - p if k // w % p == p - 1 else 1) for k in range(n)] for w in weights]


def _verify_graph(item: dict, config: dict, problems: list[str]) -> bool:
    n = item["vertices"]
    rows = rows_from_edges(n, item["edges"])
    ok = all(sum(mult for _, mult in row) == item["generators"] for row in rows)
    if not ok:
        problems.append("row sums do not match the generator count")
    else:
        poly = charpoly_by_centre(rows, _centre_action(config, n), config["p"])
        if [decode_count(c) for c in item["charpoly"]] != list(poly.coefficients):
            problems.append("characteristic polynomial disagrees with the one recomputed "
                            "from the edges")
            ok = False
    if ok != item["holds"]:
        problems.append("graph holds flag is wrong")
        return False
    return ok


def _verify_cospectral(item: dict, graphs: list[dict], problems: list[str]) -> bool:
    # _verify_graph recomputes each graph item's charpoly from its edges
    polys = [[decode_count(c) for c in graph["charpoly"]] for graph in graphs]
    k = len(polys)
    if item["pair_count"] != k * (k - 1) // 2:
        problems.append("cospectral pair_count is not k(k-1)/2 for the k coset graphs")
        return False
    all_equal = all(poly == polys[0] for poly in polys[1:])
    if all_equal != item["all_equal"] or item["holds"] != all_equal:
        problems.append("cospectral flags contradict the coset-graph charpolys")
        return False
    return True


def _verify_isomorphism_classes(item: dict, graphs: list[dict], problems: list[str]) -> bool:
    """Witnesses map each graph onto its class's first member; first members are
    pairwise non-isomorphic, by distinct refinement invariants or a re-run search."""
    class_of, witnesses = item["class_of"], item["witnesses"]
    if not len(class_of) == len(witnesses) == len(graphs):
        problems.append("class_of and witnesses do not give one entry per coset graph")
        return False
    rows = [rows_from_edges(graph["vertices"], graph["edges"]) for graph in graphs]
    leaders: dict[int, int] = {}
    ok = True
    for k, (c, witness) in enumerate(zip(class_of, witnesses)):
        if c not in leaders:
            if c != len(leaders) or witness is not None:
                problems.append(f"graph {k} opens class {c} out of order or with a witness")
                return False
            leaders[c] = k
        elif witness is None or not maps_onto(rows[k], rows[leaders[c]], witness):
            problems.append(f"witness of graph {k} does not map it onto graph {leaders[c]}")
            ok = False
    refinements = {k: colour_refinement(rows[k]) for k in leaders.values()}
    buckets: dict[tuple, list[int]] = {}
    for k, refinement in refinements.items():
        bucket = buckets.setdefault(refinement[0], [])
        for other in bucket:
            try:
                if find_isomorphism(rows[k], rows[other], refinement, refinements[other]) is None:
                    continue
                problems.append(f"graphs {other} and {k} open two classes but are isomorphic")
            except SizeCapExceeded:
                problems.append(f"graphs {other} and {k}: search exceeds the node budget")
            ok = False
        bucket.append(k)
    if ok != item["holds"]:
        problems.append("isomorphism-classes holds flag is wrong")
        return False
    return ok


def _is_power(value: int, p: int, e: int) -> bool:
    """value == p^e for p >= 2, without building a power longer than value."""
    return 0 <= e < value.bit_length() and value == p**e


def _verify_tower_count(item: dict, config: dict, problems: list[str]) -> bool:
    p, j = config["p"], item["j"]
    exact = decode_count(item["exact"])
    cited = decode_count(item["cited_lower"])
    if not (_is_power(exact, p, j * j - j) and _is_power(cited, p, j * (j - 1) // 2)):
        problems.append("tower-count exact or cited_lower differs from p^(j^2-j) or p^(j(j-1)/2)")
        return False
    ok = (exact >= cited) == item["bound_holds"] and (exact != cited) == item["gap"]
    if not ok or item["holds"] != item["bound_holds"]:
        problems.append("tower-count flags are inconsistent")
        return False
    return True


def _verify_place_scan(item: dict, config: dict, problems: list[str]) -> bool:
    ell, q, bound = config["ell"], config["q"], config["bound"]
    records = item["records"]
    ps = [r["p"] for r in records]
    if ps != sorted(set(ps)):
        problems.append("place records are not strictly increasing")
        return False
    for r in records:
        p = r["p"]
        if not (is_prime(p) and p <= bound and p != q):
            problems.append(f"place record p={p} is not a prime up to the bound other than q")
            return False
        if (r["q"], r["ell"], r["degree"]) != (q, ell, ell) or residue_degree(p, q, ell) != ell:
            problems.append(f"place record p={p} does not have residue degree ell={ell}")
            return False
        if decode_count(r["residue_size"]) != p**ell:
            problems.append(f"residue size wrong at p={p}")
            return False
    scanned = item["scanned"]
    if item["degree_ell_count"] != len(records) or Fraction(item["density"]) != (
            Fraction(len(records), scanned) if scanned else 0):
        problems.append("degree_ell_count or density does not count the records")
        return False
    cebotarev = Fraction(item["cebotarev_density"])
    if cebotarev != Fraction(ell - 1, ell) or item["tolerance"] != config["tolerance"]:
        problems.append("cebotarev_density or tolerance differs from the config")
        return False
    within = abs(Fraction(item["density"]) - cebotarev) <= Fraction(item["tolerance"])
    if within != item["within_tolerance"] or item["holds"] != (
        within and item["implementations_agree"]
    ):
        problems.append("place-scan verdict flags are inconsistent")
        return False
    return True


def _verify_plan(item: dict, config: dict, problems: list[str]) -> bool:
    ok = True
    for check in item.get("checks", []):
        if not verify_check_json(check):
            problems.append(f"check {check['label']} does not re-verify")
            ok = False
    required = item.get("required_checks")
    if required is not None:
        holding = all(c["holds"] for c in item.get("checks", []) if c["label"] in required)
        if holding != item["holds"]:
            problems.append("plan holds flag contradicts its required checks")
            ok = False
    return ok


# Verifiers of one item, given the report's config.
_VERIFIERS = {
    "gassmann-family": _verify_profiles,
    "class-count": _verify_class_count,
    "conjugacy-dichotomy": _verify_conjugacy,
    "coset-graph": _verify_graph,
    "tower-count": _verify_tower_count,
    "place-scan": _verify_place_scan,
    "plan": _verify_plan,
}

# Verifiers that also read the report's coset-graph items, in rep order.
_GRAPH_VERIFIERS = {
    "cospectral": _verify_cospectral,
    "isomorphism-classes": _verify_isomorphism_classes,
}


def verify_report(report: dict) -> list[str]:
    """Re-run every bundled certificate; returns problems (empty = verified)."""
    if not (isinstance(report, dict) and isinstance(report.get("items"), list)
            and isinstance(report.get("summary"), dict)):
        raise SpecMismatch("a report is a JSON object with an items list and a summary")
    problems: list[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append("unknown schema version")
        return problems
    config = report.get("config")
    kinds = [item.get("kind") if isinstance(item, dict) else None for item in report["items"]]
    graphs = [item for item, kind in zip(report["items"], kinds) if kind == "coset-graph"]
    all_hold = True
    for i, (item, kind) in enumerate(zip(report["items"], kinds)):
        try:
            if kind in _GRAPH_VERIFIERS:
                ok = _GRAPH_VERIFIERS[kind](item, graphs, problems)
            elif kind in _VERIFIERS:
                ok = _VERIFIERS[kind](item, config, problems)
            else:
                problems.append(f"no verifier for item kind {kind!r}")
                all_hold = False
                continue
            if not ok:
                all_hold = False
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems.append(f"item {i} ({kind}) is malformed: {type(exc).__name__}: {exc}")
        except GassmannError as exc:
            problems.append(f"item {i} ({kind}) fails its check: {type(exc).__name__}: {exc}")
        if not item.get("holds", True):
            all_hold = False
    verdict = report["summary"].get("verdict")
    if (verdict == "pass") != all_hold:
        problems.append("summary verdict does not match the re-run certificates")
    return problems


# ---------------------------------------------------------------------------
# Table rendering (derived from JSON, never the source of truth)
# ---------------------------------------------------------------------------


def render_table(report: dict) -> str:
    lines = [
        f"command : {report['command']}",
        f"config  : {json.dumps(report['config'], sort_keys=True)}",
        "-" * 72,
    ]
    for i, item in enumerate(report["items"]):
        status = "PASS" if item.get("holds", True) else "FAIL"
        detail = {
            k: v
            for k, v in item.items()
            if k not in {"kind", "holds"} and not isinstance(v, (list, dict))
        }
        body = ", ".join(f"{k}={v}" for k, v in sorted(detail.items()))
        lines.append(f"{status}  [{i:>2}] {item['kind']}: {body}")
    lines.append("-" * 72)
    lines.append(f"verdict : {report['summary']['verdict']}")
    return "\n".join(lines) + "\n"
