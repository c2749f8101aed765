"""Machine-readable reports: canonical JSON, schema, self-verification.

JSON is the single source of truth; the table rendering is derived from
it.  Reports carry enough substituted data (profiles, class sizes,
inequality instances, witness permutations, subgroup labels) that
verify_report can reproduce the verdict from the JSON alone.  Each fact
is stated once: a certify family is stated by its definition, its mode
and count, which the config fixes, with the one profile of its members;
a coset graph is stated by its subgroup label and the config's
generators, which fix it, and verify_report rebuilds it by the group
law; each distinct charpoly is listed once, and items refer to graphs
and charpolys by index.  Large integers travel as decimal strings.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import islice
from typing import Any, Optional

from .certify import (canonical_twist, check_family_config, conjugate_pair_count,
                      conjugator_oracle_runs, family_class_sizes, family_exponent,
                      family_mode, family_oracles, family_profile, orbit_oracle_runs)
from .errors import GassmannError, SizeCapExceeded, SpecMismatch
from .heisenberg import heisenberg_group, parse_twist_label
from .places import implementations_agree, residue_degree_subgroup
from .planner import PLAN_OPS, IneqCheck, power_bits
from .rings import make_field, power_within, primes_up_to
from .schreier import (CosetGraph, char_poly, find_isomorphism, maps_onto,
                       symmetrize_generators, transversal)

SCHEMA_VERSION = 4


def encode_count(v: int) -> Any:
    """Plain int when JSON-safe, decimal string past 2^53."""
    return v if abs(v) < 2**53 else str(v)


def decode_count(v: Any) -> int:
    """A count as encode_count writes it; a JSON true or false is not one."""
    if type(v) not in (int, str):
        raise TypeError(f"a count is an integer or a decimal string, not {v!r}")
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


def summarize(items: list[dict]) -> dict:
    """The summary of a report's items; finalize writes it and verify_report checks it."""
    failed = [i for i, item in enumerate(items) if not item.get("holds", True)]
    return {"verdict": "pass" if not failed else "fail", "items": len(items),
            "failed_items": failed}


def finalize(report: dict) -> dict:
    report["summary"] = summarize(report["items"])
    return report


def plan_item(op: str, inputs: dict, result: dict, checks: list[tuple[IneqCheck, bool]]) -> dict:
    """The item of a plan report, from an op's inputs, result and certificate: the
    verdict rests on the checks marked True, whose labels it lists sorted."""
    required = sorted(check.label for check, rests in checks if rests)
    item = {"kind": "plan", "op": op, "inputs": inputs, "result": result,
            "checks": [check.to_json() for check, _ in checks],
            "holds": all(check.holds for check, rests in checks if rests)}
    if required:
        item["required_checks"] = required
    return item


# ---------------------------------------------------------------------------
# Self-verification
# ---------------------------------------------------------------------------
# A verifier checks one item's fields, lists one problem per inconsistency and
# returns the verdict the item's evidence gives; verify_report alone compares
# that verdict with the item's holds flag.  Stored values are compared with
# derived ones by _same, since Python's == reads true as 1 and false as 0.


class _Items:
    """A report's coset-graph items, in report order, each rebuilt from its label and
    the config once, for every verifier that reads it."""

    def __init__(self, items: list[dict], config):
        self.config = config
        self.coset_graphs = [item for item in items if item["kind"] == "coset-graph"]
        self._graphs: dict[int, CosetGraph] = {}

    def graph(self, item: dict) -> CosetGraph:
        key = id(item)  # the items outlive the verification
        if key not in self._graphs:
            self._graphs[key] = _schreier_graph(item["subgroup"], self.config)
        return self._graphs[key]

    def graphs(self) -> list[CosetGraph]:
        return [self.graph(item) for item in self.coset_graphs]


def _same(stored: Any, derived: Any) -> bool:
    """stored == derived with JSON's types kept apart, in lists and objects too."""
    if isinstance(derived, list):
        return (isinstance(stored, list) and len(stored) == len(derived)
                and all(map(_same, stored, derived)))
    if isinstance(derived, dict):
        return (isinstance(stored, dict) and stored.keys() == derived.keys()
                and all(_same(stored[key], value) for key, value in derived.items()))
    return type(stored) is type(derived) and stored == derived


def _states_family_pairs(config: dict, stored: Any) -> bool:
    """Whether stored is n(n-1)/2 for the family's n = p^e, forming n only up to 2·stored + 1."""
    pairs = decode_count(stored)
    n = power_within(config["p"], family_exponent(config["p"], config["m"]), 2 * pairs + 1)
    return n is not None and _same(stored, encode_count(n * (n - 1) // 2))


def _verify_profiles(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """The family, its one profile and the class table's shape, each derived from the
    config; every H_f has that profile, so the evidence always gives true."""
    # every power and list is bounded by what the item stores, so a forged config
    # costs no more than the item: the counts by their digits, q by the stored classes
    p, m = config["p"], config["m"]
    mode, count = family_mode(p, m), decode_count(item["count"])
    if not (item["mode"] == mode and power_within(p, family_exponent(p, m), count) == count
            and _same(item["count"], encode_count(count))):
        problems.append(f"the family is not the {mode} family of the config: p^(m^2) "
                        "subgroups in all-twists mode, p^(m(m-1)) in class-reps mode")
    if not _states_family_pairs(config, item["pair_count"]):
        problems.append("pair_count is not n(n-1)/2 for the family's n subgroups")
    classes = len(item["class_sizes"])
    q = power_within(p, m, classes)
    shape = q is not None and classes == q * q + q - 1
    if not (shape and _same(item["class_sizes"], family_class_sizes(q))):
        problems.append("class_sizes are not q classes of size 1, then q^2-1 of size q, q = p^m")
    if not _same(item["identity_class"], 0):
        problems.append("identity_class is not 0, the class of the identity")
    if not (shape and _same(item["profile"], family_profile(q))):
        problems.append("profile is not the one profile that every H_f has over GF(q)")
    if item["all_equal"] is not True:
        problems.append("all_equal is not true, though every H_f has the same profile")
    return True


def _verify_class_count(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    p, m = config["p"], config["m"]
    expected = decode_count(item["expected"])
    if power_within(p, m * (m - 1), expected) != expected:
        problems.append("class-count expected differs from p^(m(m-1))")
    actual, orbits = decode_count(item["actual"]), item["bruteforce_orbits"]
    if (orbits is not None) != orbit_oracle_runs(p, m):
        problems.append("whether bruteforce_orbits is stated differs from whether certify runs "
                        "the orbit oracle at this p and m")
    return (power_within(p, m * (m - 1), actual) == actual
            and (orbits is None or decode_count(orbits) == actual))


def _verify_conjugacy(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    # H_f and H_g are conjugate exactly when f - g is a multiplication
    p, m = config["p"], config["m"]
    conjugate_pairs = conjugate_pair_count(p, m)
    stored = item["structural_conjugate_pairs"]
    if not _states_family_pairs(config, item["pairs"]):
        problems.append("pairs is not n(n-1)/2 for the family's n subgroups")
    if not _same(stored, encode_count(conjugate_pairs)):
        problems.append("structural_conjugate_pairs differs from the closed form: 0 among the "
                        "class reps, p^(m(m-1))·q(q-1)/2 among all p^(m^2) maps")
    if family_mode(p, m) == "class-reps" and not _same(item["reps_pairwise_nonconjugate"],
                                                       decode_count(stored) == 0):
        problems.append("reps_pairwise_nonconjugate disagrees with structural_conjugate_pairs")
    ran = conjugator_oracle_runs(p, m)
    if not _same(item["bruteforce_checked"], ran):
        problems.append("bruteforce_checked differs from whether certify runs the conjugator "
                        "oracle at this p and m")
    from . import cli  # the binding cmd_certify calls, so a replaced oracle is re-run too

    # the oracle block again, as cmd_certify runs it
    agreement = family_oracles(p, m, config["cap"], cli._bruteforce_subgroup_keys)
    claimed = item["structural_equals_bruteforce"]
    if not _same(claimed, agreement):
        problems.append("structural_equals_bruteforce differs from the conjugator oracle, run "
                        "again on the config's family" if ran else
                        "structural_equals_bruteforce is not a boolean, or is false with no "
                        "oracle run")
    # the item holds on the derived agreement, and only where it claims it
    return agreement and claimed is True


def _schreier_graph(label, config: dict) -> CosetGraph:
    """The Schreier graph of H_f, f from the label, under the config's generators,
    built by the group law.

    Vertex k stands for t_k = (0, b, c) with k = index(b)·q + index(c); these
    q² elements lie in distinct cosets of H_f, which has index q².  Generator s
    sends vertex k to the coset of x = t_k·s, and h·x, for h = (-x0, 0, f(-x0))
    in H_f, has first coordinate 0, so it is the t_j of that coset.  The
    centre adds to index(c), so the graph states the ring's dimension as its
    rank, which CosetGraph.from_rows certifies once by check_centre before it
    keeps the q orbit representatives' rows.
    """
    spec = make_field(config["p"], config["m"], cap=config["cap"])
    f = parse_twist_label(label, spec)
    group = heisenberg_group(spec)
    gens = tuple(tuple(map(tuple, s)) for s in config["generators"])
    els, zero, mul = spec.elements, spec.zero(), group.mul
    vertices = transversal(spec)
    number = {t: k for k, t in enumerate(vertices)}
    lift = {x: (spec.neg(x), zero, f.apply(spec.neg(x))) for x in els}
    rows = []
    for t in vertices:
        moved = (mul(t, s) for s in gens)
        rows.append(tuple(sorted(Counter(number[mul(lift[x[0]], x)] for x in moved).items())))
    return CosetGraph.from_rows(group, label, gens, vertices, rows, spec.dim)


def _is_catalog(labels: list, config: dict) -> bool:
    """Whether the labels are the class reps in catalog order: each its own canonical
    twist, with flat maps increasing.  With p^(m(m-1)) of them they are all the reps."""
    spec = make_field(config["p"], config["m"], cap=config["cap"])
    maps = [parse_twist_label(label, spec) for label in labels]
    flats = [f.flatten() for f in maps]
    return (all(canonical_twist(f, spec) == f for f in maps)
            and all(a < b for a, b in zip(flats, flats[1:])))


def _verify_graph(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """A coset graph states facts, not a claim: its evidence always gives true."""
    graph = items.graph(item)
    if graph.gens != symmetrize_generators(graph.group, graph.gens):
        problems.append("the config's generators are not distinct, sorted and closed under "
                        "inverses")
    for field, value in (("vertices", graph.n), ("generators", graph.degree),
                         ("connected", graph.connected)):
        if not _same(item[field], value):
            problems.append(f"{field} of graph {item['subgroup']} differs from the Schreier graph "
                            "rebuilt from its label")
    return True


def _verify_cospectral(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    # vertex index(b)·q + index(c) is the coset of (0, b, c): each graph's centre has
    # rank m, from the config, and its polynomial comes from its q representatives' rows
    # each distinct charpoly once, numbered in order of first appearance, as cmd_graphs interns them
    index_of: dict[tuple, int] = {}
    charpoly_index = [index_of.setdefault(char_poly(graph).coefficients, len(index_of))
                      for graph in items.graphs()]
    k = len(charpoly_index)
    if not _same(item["pair_count"], k * (k - 1) // 2):
        problems.append("cospectral pair_count is not k(k-1)/2 for the k coset graphs")
    if not _same(item["distinct_charpolys"],
                 [[encode_count(c) for c in poly] for poly in index_of]):
        problems.append("distinct_charpolys are not the charpolys of the graphs rebuilt from "
                        "their labels, each once in order of first appearance")
    if not _same(item["charpoly_index"], charpoly_index):
        problems.append("charpoly_index does not give each graph's charpoly")
    all_equal = len(index_of) <= 1
    if not _same(item["all_equal"], all_equal):
        problems.append("cospectral flags contradict the coset-graph charpolys")
    return all_equal


def _verify_isomorphism_classes(item: dict, config: dict, items: _Items,
                                problems: list[str]) -> bool:
    """Witnesses map each graph onto its class's first member; first members are
    pairwise non-isomorphic, by distinct refinement invariants or a re-run search.
    The classes state facts, not a claim: their evidence always gives true."""
    graphs = items.graphs()
    class_of, witnesses = item["class_of"], item["witnesses"]
    if not len(class_of) == len(witnesses) == len(graphs):
        problems.append("class_of and witnesses do not give one entry per coset graph")
        return True
    leaders: dict[int, int] = {}
    for k, (c, witness) in enumerate(zip(class_of, witnesses)):
        if c not in leaders:
            if not _same(c, len(leaders)) or witness is not None:
                problems.append(f"graph {k} opens class {c} out of order or with a witness")
                return True
            leaders[c] = k
        elif not (isinstance(witness, list) and _same(sorted(witness), list(range(graphs[k].n)))
                  and maps_onto(graphs[k].rows, graphs[leaders[c]].rows, witness)):
            problems.append(f"witness of graph {k} does not map it onto graph {leaders[c]}")
    buckets: dict[tuple, list[int]] = {}
    for k in leaders.values():
        bucket = buckets.setdefault(graphs[k].refinement[0], [])
        for other in bucket:
            try:
                if find_isomorphism(graphs[k], graphs[other]) is None:
                    continue
                problems.append(f"graphs {other} and {k} open two classes but are isomorphic")
            except SizeCapExceeded:
                problems.append(f"graphs {other} and {k}: search exceeds the node budget")
        bucket.append(k)
    return True


def _verify_tower_count(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    p, j = config["p"], item["j"]
    exact = decode_count(item["exact"])
    cited = decode_count(item["cited_lower"])
    if not (power_within(p, j * j - j, exact) == exact
            and power_within(p, j * (j - 1) // 2, cited) == cited):
        problems.append("tower-count exact or cited_lower differs from p^(j^2-j) or p^(j(j-1)/2)")
    if not (_same(item["bound_holds"], exact >= cited) and _same(item["gap"], exact != cited)):
        problems.append("tower-count flags are inconsistent")
    return exact >= cited


def _verify_place_scan(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    ell, q, bound = config["ell"], config["q"], config["bound"]
    primes = [p for p in primes_up_to(bound) if p != q]
    scanned = set(primes)
    records = item["records"]
    for r in records:
        p = r["p"]
        if p not in scanned:
            problems.append(f"place record p={p} is not a prime up to the bound other than q")
        elif (r["q"], r["ell"], r["degree"]) != (q, ell, ell):
            problems.append(f"place record p={p} does not have residue degree ell={ell}")
        elif decode_count(r["residue_size"]) != p**ell:
            problems.append(f"residue size wrong at p={p}")
    # the scan again, by the subgroup test that production does not use for the records
    degree_ell = [p for p in primes if residue_degree_subgroup(p, q, ell) == ell]
    if [r["p"] for r in records] != degree_ell:
        problems.append(f"records are not every prime of residue degree ell={ell} up to the bound")
    agree_to, agree = implementations_agree(ell, q, bound)
    if not (_same(item["agreement_checked_to"], agree_to)
            and _same(item["implementations_agree"], agree)):
        problems.append("agreement_checked_to or implementations_agree differs from the two "
                        "residue-degree tests up to min(bound, 10^4)")
    if not _same(item["scanned"], len(scanned)):
        problems.append("scanned is not the number of primes up to the bound other than q")
    density = Fraction(len(records), len(scanned)) if scanned else Fraction(0)
    if not _same(item["degree_ell_count"], len(records)) or Fraction(item["density"]) != density:
        problems.append("degree_ell_count or density does not count the records")
    cebotarev = Fraction(ell - 1, ell)
    if Fraction(item["cebotarev_density"]) != cebotarev or item["tolerance"] != config["tolerance"]:
        problems.append("cebotarev_density or tolerance differs from the config")
    within = abs(density - cebotarev) <= Fraction(config["tolerance"])
    if not _same(item["within_tolerance"], within):
        problems.append("within_tolerance contradicts the density")
    return within and agree


def _verify_plan(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """The op's validation and certificate run on the stored inputs, read in the form
    plan writes them, and result, so every closed-form result field and every check
    is derived, not read."""
    name, stored = item["op"], item["checks"]
    op = PLAN_OPS[name]
    if not isinstance(item["inputs"], dict):
        raise TypeError("inputs are not a JSON object")
    inputs = op.read(item["inputs"])
    # a decimal digit holds less than 4 bits, so no number the item states has more
    # bits than 4 per character of the item; a forged input asking for more is refused
    with power_bits(4 * len(json.dumps(item))):
        op.validate(inputs)
        result, certificate = op.certify(inputs, item["result"])
        # the certificate is lazy: a forged range or level costs one check past the stored list
        derived = list(islice(certificate, len(stored) + 1))
    want = plan_item(name, inputs, result, derived)
    for field, message in (
            ("inputs", f"inputs are not the options that plan {name} reads"),
            ("result", "result differs from the one that the op's inputs give"),
            ("required_checks", "required_checks are not those that the op, inputs and "
                                "result require")):
        if not _same(item.get(field), want.get(field)):
            problems.append(message)
    for check, wanted in zip(stored, want["checks"]):
        # an operand that is no rational, such as 1/0, makes the item malformed
        Fraction(check["lhs"]), Fraction(check["rhs"])
        if not _same({**check, "holds": wanted["holds"]}, wanted):
            problems.append(f"check {check['label']} is not {wanted['label']} as the op's "
                            "inputs and result give it")
        elif not _same(check["holds"], wanted["holds"]):
            problems.append(f"check {check['label']} does not re-verify")
    for check, rests in derived[len(stored):]:
        problems.append(f"{'required check' if rests else 'check'} {check.label} is missing")
    for check in stored[len(derived):len(derived) + 1]:
        problems.append(f"check {check['label']} is not one that the op's inputs and result "
                        "give")
    return want["holds"] and len(derived) <= len(stored)


# fn(item, config, items, problems) -> the verdict the item's evidence gives
_VERIFIERS = {
    "gassmann-family": _verify_profiles,
    "class-count": _verify_class_count,
    "conjugacy-dichotomy": _verify_conjugacy,
    "coset-graph": _verify_graph,
    "cospectral": _verify_cospectral,
    "isomorphism-classes": _verify_isomorphism_classes,
    "tower-count": _verify_tower_count,
    "place-scan": _verify_place_scan,
    "plan": _verify_plan,
}


def _layout_problem(command: str, config: dict, items: list[dict]) -> Optional[str]:
    """What is wrong with the items' kinds and order for the command and config, if anything."""
    kinds = [item["kind"] for item in items]
    n = len(items)
    if command == "certify":
        check_family_config(config["p"], config["m"], config["cap"])
        ok = kinds == ["class-count", "gassmann-family", "conjugacy-dichotomy"]
    elif command == "graphs":
        m = config["m"]
        ok = (power_within(config["p"], m * (m - 1), n - 2) == n - 2
              and kinds == ["coset-graph"] * (n - 2) + ["cospectral", "isomorphism-classes"]
              and _same([item.get("rep") for item in items[:-2]], list(range(n - 2))))
        if ok and not _is_catalog([item["subgroup"] for item in items[:-2]], config):
            return ("the coset graphs' subgroups are not the class reps in catalog order: each "
                    "its own canonical twist, their flat maps increasing")
    elif command == "tower":
        ok = (config["j_max"] == n and kinds == ["tower-count"] * n
              and _same([item.get("j") for item in items], list(range(1, n + 1))))
    elif command == "places":
        ok = kinds == ["place-scan"]
    elif command == "plan":
        ok = kinds == ["plan"] and items[0].get("op") == config["op"]
    else:
        return f"unknown command {command!r}"
    return None if ok else f"the items are not those of a {command} report with its config"


def verify_report(report: dict) -> list[str]:
    """Re-run every bundled certificate; returns problems (empty = verified)."""
    if not (isinstance(report, dict) and isinstance(report.get("items"), list)
            and isinstance(report.get("summary"), dict)):
        raise SpecMismatch("a report is a JSON object with an items list and a summary")
    if report.get("schema_version") != SCHEMA_VERSION:
        return ["unknown schema version"]
    items, config = report["items"], report.get("config")
    shapeless = [i for i, item in enumerate(items)
                 if not (isinstance(item, dict) and isinstance(item.get("kind"), str))]
    if shapeless:
        return [f"item {i} is not an object with a kind" for i in shapeless]
    try:
        layout = _layout_problem(report.get("command"), config, items)
    except (KeyError, TypeError, ValueError, GassmannError) as exc:
        layout = f"the config or a subgroup label is malformed: {type(exc).__name__}: {exc}"
    problems = [layout] if layout else []
    grouped = _Items(items, config)
    for i, item in enumerate(items):
        kind = item["kind"]
        if kind not in _VERIFIERS:
            problems.append(f"no verifier for item kind {kind!r}")
            continue
        try:
            verdict = _VERIFIERS[kind](item, config, grouped, problems)
        except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"item {i} ({kind}) is malformed: {type(exc).__name__}: {exc}")
            continue
        except GassmannError as exc:
            problems.append(f"item {i} ({kind}) fails its check: {type(exc).__name__}: {exc}")
            continue
        if not _same(item.get("holds"), verdict):
            problems.append(f"item {i} ({kind}) holds {item.get('holds')}, "
                            f"but its evidence gives {verdict}")
    if not _same(report["summary"], summarize(items)):
        problems.append("summary does not match the items' holds flags")
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
