"""Machine-readable reports: canonical JSON, schema, self-verification.

JSON is the single source of truth; the table rendering is derived from
it.  Reports carry enough substituted data (inequality instances,
isomorphism witnesses) that verify_report can reproduce the verdict from
the JSON alone.  Each fact is stated once: a family is stated by its
definition, which the config fixes.  A certify family is its mode, count
and pair count; its one profile and class sizes are closed forms of the
config, which verify_report derives and no report states; the coset
graphs of a graphs report are the class reps' graphs, in catalog order,
with the config's generators, stated by their mode, count, vertices and
degree; verify_report rebuilds them by the route that graphs
runs, checks every isomorphism witness and searches the classes' first
members again, as graphs searches its orbit leaders.  Their one spectrum
is a closed form of the config too: over a field every H_f has the one
profile, so by Sunada's theorem every graph has the polynomial of H_0,
which the report states once and verify_report computes again on H_0's
graph.  A place scan is its two counts, not its records: its density, the
target (ell-1)/ell and the tolerance are closed forms of them and the config,
and verify_report scans again by the power test that places runs.  Items
refer to graphs by index.  A report holds no key that its command does
not write.  Large integers travel as decimal strings.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import TYPE_CHECKING, Any, Optional

from .certify import (check_family_config, conjugate_pair_count, conjugator_oracle_runs,
                      family_exponent, family_mode, family_oracles, orbit_oracle_runs)
from .errors import GassmannError, SpecMismatch
from .heisenberg import generates
from .rings import make_field, make_trunc_ring, power_within

# A verifier imports the modules of its item kind, so that verify loads only those
# that the report's kinds need
if TYPE_CHECKING:
    from .planner import IneqCheck
    from .schreier import CosetGraph

SCHEMA_VERSION = 9


def encode_count(v: int) -> Any:
    """Plain int when JSON-safe, decimal string past 2^53."""
    return v if abs(v) < 2**53 else str(v)


def decode_count(v: Any) -> int:
    """A count as encode_count writes it; a JSON true or false is not one."""
    if type(v) not in (int, str):
        raise TypeError(f"a count is an integer or a decimal string, not {v!r}")
    return int(v)


# an isomorphism witness from an automorphism is stored as an object of its four indices,
# the fields of schreier.OrbitWitness in order
_WITNESS_KEYS = ("sigma", "lambda", "mu", "beta")


def encode_witness(witness) -> Any:
    """An isomorphism witness as a report stores it: None for a class's first member,
    an OrbitWitness as its object, a permutation as a list."""
    from .schreier import OrbitWitness

    if witness is None:
        return None
    if isinstance(witness, OrbitWitness):
        return dict(zip(_WITNESS_KEYS, witness))
    return list(witness)


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
    """A graphs report's coset graphs: the class reps' graphs in catalog order with the
    config's generators, built once, by schreier.class_rep_graphs as graphs builds
    them, for every verifier that reads them.  A build that fails raises the same
    error at every call, which verify_report lists once."""

    def __init__(self, items: list[dict], config):
        self.items, self.config = items, config
        self._graphs: Optional[list[CosetGraph]] = None
        self._failure: Optional[GassmannError] = None

    def generators(self) -> tuple:
        """The config's generator list, each a triple of coefficient tuples."""
        return tuple(tuple(map(tuple, s)) for s in self.config["generators"])

    def graphs(self) -> list[CosetGraph]:
        from .schreier import class_rep_graphs

        if self._failure is not None:
            raise self._failure
        if self._graphs is None:
            p, m, cap = self.config["p"], self.config["m"], self.config["cap"]
            try:
                # the stored class_of list bounds the catalog, one entry per class rep,
                # before the field is made
                stored = [len(item["class_of"]) for item in self.items
                          if item["kind"] == "isomorphism-classes"]
                if not (len(stored) == 1
                        and power_within(p, m * (m - 1), stored[0]) == stored[0]):
                    raise SpecMismatch("class_of does not list the p^(m(m-1)) class reps")
                _, self._graphs = class_rep_graphs(make_field(p, m, cap), self.generators(),
                                                   cap)
            except GassmannError as exc:
                self._failure = exc
                raise
        return self._graphs


def _same(stored: Any, derived: Any) -> bool:
    """stored == derived with JSON's types kept apart, in lists and objects too."""
    if isinstance(derived, list):
        return (isinstance(stored, list) and len(stored) == len(derived)
                and all(map(_same, stored, derived)))
    if isinstance(derived, dict):
        return (isinstance(stored, dict) and stored.keys() == derived.keys()
                and all(_same(stored[key], value) for key, value in derived.items()))
    return type(stored) is type(derived) and stored == derived


def _verify_family(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """The family and its pairs, derived from the config; every H_f has the one profile
    of certify.family_profile, so the evidence always gives true."""
    # every power is bounded by what the item stores, so a forged config costs no
    # more than the item: n by the digits of the count and the pair count
    p, m = config["p"], config["m"]
    mode, count = family_mode(p, m), decode_count(item["count"])
    if not (item["mode"] == mode and power_within(p, family_exponent(p, m), count) == count
            and _same(item["count"], encode_count(count))):
        problems.append(f"the family is not the {mode} family of the config: p^(m^2) "
                        "subgroups in all-twists mode, p^(m(m-1)) in class-reps mode")
    n = power_within(p, family_exponent(p, m), 2 * decode_count(item["pair_count"]) + 1)
    if n is None or not _same(item["pair_count"], encode_count(n * (n - 1) // 2)):
        problems.append("pair_count is not n(n-1)/2 for the family's n subgroups")
    if item["all_equal"] is not True:
        problems.append("all_equal is not true, though every H_f has the same profile")
    return True


def _verify_class_count(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    from . import certify

    p, m = config["p"], config["m"]
    actual, orbits = decode_count(item["actual"]), item["bruteforce_orbits"]
    ran = orbit_oracle_runs(p, m)
    if (orbits is not None) != ran:
        problems.append("whether bruteforce_orbits is stated differs from whether certify runs "
                        "the orbit oracle at this p and m")
    derived = None
    if ran:
        # the orbit oracle again, looked up on certify as cmd_certify calls it, so a
        # replaced oracle is re-run too; the verdict rests on its count
        derived = certify.twist_orbit_count_bruteforce(make_field(p, m, config["cap"]))
        if orbits is not None and decode_count(orbits) != derived:
            problems.append("bruteforce_orbits differs from the orbit oracle, run again on the "
                            "config's field")
    return (power_within(p, m * (m - 1), actual) == actual
            and (derived is None or derived == actual))


def _verify_conjugacy(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    # H_f and H_g are conjugate exactly when f - g is a multiplication
    p, m = config["p"], config["m"]
    if not _same(item["structural_conjugate_pairs"], encode_count(conjugate_pair_count(p, m))):
        problems.append("structural_conjugate_pairs differs from the closed form: 0 among the "
                        "class reps, p^(m(m-1))·q(q-1)/2 among all p^(m^2) maps")
    ran = conjugator_oracle_runs(p, m)
    if not _same(item["bruteforce_checked"], ran):
        problems.append("bruteforce_checked differs from whether certify runs the conjugator "
                        "oracle at this p and m")
    # the oracle block again, as cmd_certify runs it, so a replaced oracle is re-run too
    agreement = family_oracles(p, m, config["cap"])
    claimed = item["structural_equals_bruteforce"]
    if not _same(claimed, agreement):
        problems.append("structural_equals_bruteforce differs from the conjugator oracle, run "
                        "again on the config's family" if ran else
                        "structural_equals_bruteforce is not a boolean, or is false with no "
                        "oracle run")
    # the item holds on the derived agreement, and only where it claims it
    return agreement and claimed is True


def _verify_coset_graphs(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """The family states facts, not a claim: its evidence always gives true."""
    graphs = items.graphs()
    # the build symmetrises the generators it is given, so the config must list them so
    if items.generators() != graphs[0].gens:
        problems.append("the config's generators are not distinct, sorted and closed under "
                        "inverses")
    for field, value in (("mode", "class-reps"), ("count", len(graphs)),
                         ("vertices", graphs[0].n), ("degree", graphs[0].degree)):
        if not _same(item[field], value):
            problems.append(f"{field} of the coset graphs differs from the class reps' graphs "
                            "built from the config")
    # by the Burnside basis theorem, as graphs checks it: a generating set makes every
    # coset graph connected
    if not generates(graphs[0].group, graphs[0].gens):
        problems.append("the config's generators do not generate the group: their (a, b) "
                        "parts do not span F_p^(2m)")
    return True


def _verify_cospectral(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """Over a field every H_f has the one profile of certify.family_profile, so by
    Sunada's theorem the coset graphs share H_0's polynomial, whatever the generators:
    the evidence always gives true, and the stated polynomial is H_0's graph's, the
    first class rep being the zero map."""
    from .schreier import char_poly

    if not _same(item["all_equal"], True):
        problems.append("all_equal is not true, though every H_f over a field has the one "
                        "profile, and so the one spectrum")
    if not _same(item["charpoly"],
                 [encode_count(c) for c in char_poly(items.graphs()[0]).coefficients]):
        problems.append("charpoly is not the characteristic polynomial of H_0's coset graph, "
                        "built from the config")
    return True


def _verify_isomorphism_classes(item: dict, config: dict, items: _Items,
                                problems: list[str]) -> bool:
    """Witnesses map each graph onto its class's first member; first members are
    pairwise non-isomorphic, as the leader search that graphs runs finds them.  An
    orbit witness is checked on the q representatives' rows, with no graph's rows
    expanded, and a permutation on every row, each class's first member expanded
    once.  The classes state facts, not a claim: their evidence always gives true."""
    from .schreier import OrbitWitness, isomorphism_classes, maps_onto, witness_maps_onto

    graphs = items.graphs()
    class_of, witnesses = item["class_of"], item["witnesses"]
    if not len(class_of) == len(witnesses) == len(graphs):
        problems.append("class_of and witnesses do not give one entry per coset graph")
        return True
    leaders: dict[int, int] = {}
    first_rows: dict = {}  # class -> its first member's rows, expanded once
    for k, (c, witness) in enumerate(zip(class_of, witnesses)):
        if c not in leaders:
            if not _same(c, len(leaders)) or witness is not None:
                problems.append(f"graph {k} opens class {c} out of order or with a witness")
                return True
            leaders[c] = k
            continue
        first = graphs[leaders[c]]
        if isinstance(witness, dict):
            holds = (witness.keys() == set(_WITNESS_KEYS)
                     and all(type(witness[key]) is int for key in _WITNESS_KEYS)
                     and witness_maps_onto(graphs[k], first,
                                           OrbitWitness(*map(witness.get, _WITNESS_KEYS))))
        else:
            holds = (isinstance(witness, list)
                     and _same(sorted(witness), list(range(graphs[k].n)))
                     and maps_onto(graphs[k].rows,
                                   first_rows.get(c) or first_rows.setdefault(c, first.rows),
                                   witness))
        if not holds:
            problems.append(f"witness of graph {k} does not map it onto graph {leaders[c]}")
    # a search past its budget raises SizeCapExceeded, which verify_report lists
    firsts = list(leaders.values())
    merged, witnesses = isomorphism_classes([graphs[k] for k in firsts])
    problems.extend(f"graphs {firsts[merged.index(c)]} and {k} open two classes but are "
                    "isomorphic" for k, c, w in zip(firsts, merged, witnesses) if w is not None)
    return True


def _verify_tower_count(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    p, j = config["p"], item["j"]
    exact = decode_count(item["exact"])
    cited = decode_count(item["cited_lower"])
    if not (power_within(p, j * j - j, exact) == exact
            and power_within(p, j * (j - 1) // 2, cited) == cited):
        problems.append("tower-count exact or cited_lower differs from p^(j^2-j) or p^(j(j-1)/2)")
    if not _same(item["gap"], exact != cited):
        problems.append("tower-count gap is not whether exact differs from cited_lower")
    return exact >= cited


def _verify_place_scan(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """The scan again, by the power test that places runs; the verdict is the rescan's
    density within the config's tolerance of (ell-1)/ell."""
    from fractions import Fraction

    from .places import scan_places

    rescan = scan_places(config["ell"], config["q"], config["bound"])
    if not _same(item["scanned"], rescan.scanned):
        problems.append("scanned is not the number of primes up to the bound other than q")
    if not _same(item["degree_ell_count"], rescan.degree_ell_count):
        problems.append(f"degree_ell_count does not count the primes of residue degree "
                        f"ell={config['ell']} up to the bound")
    return rescan.density_gap() <= Fraction(config["tolerance"])


def _verify_plan(item: dict, config: dict, items: _Items, problems: list[str]) -> bool:
    """The op's validation and certificate run on the stored inputs, read in the form
    plan writes them, and result, so every closed-form result field and every check
    is derived, not read."""
    from fractions import Fraction

    from .planner import PLAN_OPS, power_bits

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
        if not (_same(item.get(field), want.get(field)) and (field in item) == (field in want)):
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
    "gassmann-family": _verify_family,
    "class-count": _verify_class_count,
    "conjugacy-dichotomy": _verify_conjugacy,
    "coset-graphs": _verify_coset_graphs,
    "cospectral": _verify_cospectral,
    "isomorphism-classes": _verify_isomorphism_classes,
    "tower-count": _verify_tower_count,
    "place-scan": _verify_place_scan,
    "plan": _verify_plan,
}


# The keys that each command writes in its config, and in each item kind beside kind
# and holds, the optional required_checks included: the plan verifier checks that it
# is there exactly where plan writes it
_CONFIG_KEYS = {"certify": "p m cap", "graphs": "p m generators cap", "tower": "p j_max cap",
                "places": "ell q bound tolerance", "plan": "op"}
_ITEM_KEYS = {
    "class-count": "actual bruteforce_orbits",
    "gassmann-family": "mode count pair_count all_equal",
    "conjugacy-dichotomy": "structural_conjugate_pairs bruteforce_checked "
                           "structural_equals_bruteforce",
    "coset-graphs": "mode count vertices degree",
    "cospectral": "charpoly all_equal",
    "isomorphism-classes": "class_of witnesses",
    "tower-count": "j exact cited_lower gap",
    "place-scan": "scanned degree_ell_count",
    "plan": "op inputs result checks required_checks",
}


def _unwritten_keys(report: dict) -> list[str]:
    """One problem per key of the report, its config or an item that its command does
    not write, so that a report carries nothing that no check reads."""
    command = report.get("command")
    if not (isinstance(command, str) and command in _CONFIG_KEYS):
        return []  # the layout lists an unknown command
    where = [("the report", report, " ".join(new_report(command, {}))),
             ("the config", report.get("config"), _CONFIG_KEYS[command])]
    where += [(f"item {i} ({item['kind']})", item, "kind holds " + _ITEM_KEYS[item["kind"]])
              for i, item in enumerate(report["items"]) if item["kind"] in _ITEM_KEYS]
    return [f"{name} has a key that {command} does not write: {key!r}"
            for name, fields, keys in where if isinstance(fields, dict)
            for key in sorted(fields.keys() - set(keys.split()))]


def _layout_problem(command: str, config: dict, items: list[dict]) -> Optional[str]:
    """What is wrong with the items' kinds and order for the command and config, if anything."""
    kinds = [item["kind"] for item in items]
    n = len(items)
    if command == "certify":
        check_family_config(config["p"], config["m"], config["cap"])
        ok = kinds == ["class-count", "gassmann-family", "conjugacy-dichotomy"]
    elif command == "graphs":
        from .schreier import check_graphs_config

        check_graphs_config(config["p"], config["m"], config["cap"])
        ok = kinds == ["coset-graphs", "cospectral", "isomorphism-classes"]
    elif command == "tower":
        # the ring of the last level, checked as tower builds it
        make_trunc_ring(config["p"], config["j_max"], config["cap"])
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
        # every item reads the config, so no item verifier runs on one that fails its check
        return [f"the config is malformed: {type(exc).__name__}: {exc}"]
    problems = ([layout] if layout else []) + _unwritten_keys(report)
    grouped = _Items(items, config)
    failures: list[GassmannError] = []
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
            # the graphs' build raises one error for every item that reads the graphs
            if not any(exc is seen for seen in failures):
                failures.append(exc)
                problems.append(f"item {i} ({kind}) fails its check: {type(exc).__name__}: "
                                f"{exc}")
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
