"""Command-line entry point: batch certification runs with JSON reports.

Subcommands: certify, graphs, tower, places, plan, verify.  Reports are
deterministic (byte-identical for identical config); wall-clock timing
goes to stderr only.  Exit code 0 exactly when the summary verdict is
"pass"; operational errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import certify as cz
from . import planner as pl
from . import reports as rp
from . import schreier as sg
from .errors import GassmannError, NotGenerating, SelfCheckFailed, SpecMismatch, UsageError
from .heisenberg import heisenberg_group, twisted_subgroup
from .places import choose_modulus, implementations_agree, scan_places
from .rings import make_field, make_trunc_ring, size_cap

# The conjugator oracle of certify.bruteforce_subgroup_keys, bound here so that
# cmd_certify and verify look it up through this module, and a caller that
# replaces it replaces it for both.
_bruteforce_subgroup_keys = cz.bruteforce_subgroup_keys


def cmd_certify(p: int, m: int, cap: Optional[int] = None) -> dict:
    spec = make_field(p, m, cap=cap)
    group = heisenberg_group(spec)
    report = rp.new_report("certify", {"p": p, "m": m, "cap": cap or size_cap()})

    catalog = cz.enumerate_class_reps(spec, cap=cap)
    expected = p ** (m * (m - 1))
    orbits = None
    if cz.orbit_oracle_runs(p, m):
        orbits = cz.twist_orbit_count_bruteforce(spec, cap=cap)
    report["items"].append(
        {
            "kind": "class-count",
            "expected": rp.encode_count(expected),
            "actual": rp.encode_count(catalog.count),
            "bruteforce_orbits": rp.encode_count(orbits) if orbits is not None else None,
            "holds": catalog.count == expected and (orbits in (None, catalog.count)),
        }
    )

    mode = cz.family_mode(p, m)
    maps = cz.all_linear_maps(spec) if mode == "all-twists" else catalog.reps
    subgroups = [twisted_subgroup(f, group) for f in maps]
    table = group.conjugacy_classes(cap=cap)
    profiles = [cz.intersection_profile(sub, table) for sub in subgroups]
    # each distinct profile once, numbered in order of first appearance
    index_of = {prof: i for i, prof in enumerate(dict.fromkeys(profiles))}
    all_equal = len(index_of) == 1
    count = len(subgroups)
    pairs = count * (count - 1) // 2
    report["items"].append(
        {
            "kind": "gassmann-family",
            "mode": mode,
            "subgroups": [sub.label() for sub in subgroups],
            "pair_count": pairs,
            "identity_class": table.identity_class(),
            "class_sizes": list(table.sizes()),
            "distinct_profiles": [list(prof) for prof in index_of],
            "profile_index": [index_of[prof] for prof in profiles],
            "all_equal": all_equal,
            "holds": all_equal,
        }
    )

    # H_f and H_g are conjugate exactly when f and g share a canonical twist,
    # so the key multiplicities count the conjugate pairs.
    keys = [cz.canonical_twist(sub.f, spec) for sub in subgroups]
    conjugate_pairs = sum(c * (c - 1) // 2 for c in Counter(keys).values())
    brute_checked = cz.conjugator_oracle_runs(p, m)
    agreement = True
    if brute_checked and count >= 2:  # with one subgroup there is no pair to compare
        agreement = cz.keyings_agree(keys, _bruteforce_subgroup_keys(group, subgroups))
    item = {
        "kind": "conjugacy-dichotomy",
        "pairs": pairs,
        "structural_conjugate_pairs": conjugate_pairs,
        "bruteforce_checked": brute_checked,
        "structural_equals_bruteforce": agreement,
        "holds": agreement,
    }
    if mode == "class-reps":
        nonconjugate = conjugate_pairs == 0
        item["reps_pairwise_nonconjugate"] = nonconjugate
        item["holds"] = agreement and nonconjugate
    report["items"].append(item)
    return rp.finalize(report)


def parse_generators(text: str, spec):
    gens = []
    for chunk in text.split(";"):
        parts = chunk.split("|")
        if len(parts) != 3:
            raise SpecMismatch(f"generator {chunk!r} is not of the form a|b|c")
        gens.append(tuple(spec.element([int(v) for v in part.split(",")]) for part in parts))
    return gens


def cmd_graphs(p: int, m: int, gens_text: Optional[str] = None, cap: Optional[int] = None,
               exports: bool = False) -> tuple[dict, dict[str, str]]:
    """The graphs report, and the .dot, .edges and .charpoly.json files of each
    graph by name if ``exports``, else no files."""
    spec = make_field(p, m, cap=cap)
    group = heisenberg_group(spec)
    gens = (
        parse_generators(gens_text, spec)
        if gens_text
        else sg.default_generators(group)
    )
    gens = sg.symmetrize_generators(group, gens)
    report = rp.new_report(
        "graphs",
        {
            "p": p,
            "m": m,
            "generators": [[list(c) for c in g] for g in gens],
            "cap": cap or size_cap(),
        },
    )
    catalog = cz.enumerate_class_reps(spec, cap=cap)
    subgroups = [twisted_subgroup(f, group) for f in catalog.reps]
    graphs = [sg.build_coset_graph(sub, gens) for sub in subgroups]
    for graph in graphs:
        if not graph.connected:
            raise NotGenerating(
                f"coset graph of {graph.subgroup_label} is disconnected; "
                "the generator set does not generate"
            )
    polys = [sg.char_poly(g).coefficients for g in graphs]
    # each distinct charpoly once, numbered in order of first appearance
    index_of = {poly: i for i, poly in enumerate(dict.fromkeys(polys))}
    distinct = [[rp.encode_count(c) for c in poly] for poly in index_of]

    files: dict[str, str] = {}
    for k, (graph, poly) in enumerate(zip(graphs, polys)):
        report["items"].append({**graph.to_json(), "kind": "coset-graph", "rep": k, "holds": True})
        if not exports:
            continue
        files[f"rep_{k}.dot"] = graph.to_dot(f"rep_{k}")
        files[f"rep_{k}.edges"] = "".join(
            f"{u} {v} {mult}\n" for u, v, mult in graph.edge_list())
        files[f"rep_{k}.charpoly.json"] = json.dumps(
            {"degree": len(poly) - 1, "coefficients": distinct[index_of[poly]]},
            sort_keys=True) + "\n"

    # both items below refer to the coset-graph items by their rep index
    all_equal = len(index_of) == 1
    report["items"].append(
        {
            "kind": "cospectral",
            "pair_count": len(polys) * (len(polys) - 1) // 2,
            "distinct_charpolys": distinct,
            "charpoly_index": [index_of[poly] for poly in polys],
            "all_equal": all_equal,
            "holds": all_equal,
        }
    )
    class_of, witnesses = sg.isomorphism_classes(graphs)
    report["items"].append(
        {
            "kind": "isomorphism-classes",
            "class_of": class_of,
            "witnesses": [list(w) if w is not None else None for w in witnesses],
            "holds": True,
        }
    )
    return rp.finalize(report), files


def cmd_tower(p: int, j_max: int, cap: Optional[int] = None) -> dict:
    if j_max < 1:
        raise UsageError(f"--j-max must be >= 1, got {j_max}")
    report = rp.new_report("tower", {"p": p, "j_max": j_max, "cap": cap or size_cap()})
    for j in range(1, j_max + 1):
        spec = make_trunc_ring(p, j, cap=cap)
        result = cz.tower_class_count(spec)
        report["items"].append(
            {
                "kind": "tower-count",
                "j": j,
                "exact": rp.encode_count(result.exact),
                "cited_lower": rp.encode_count(result.cited_lower),
                "bound_holds": result.bound_holds,
                "gap": result.gap,
                "holds": result.bound_holds,
            }
        )
    return rp.finalize(report)


def cmd_places(ell: int, bound: int, q: Optional[int] = None,
               tol: Fraction = Fraction(1, 50)) -> dict:
    if q is None:
        q = choose_modulus(ell)
    scan = scan_places(ell, q, bound)
    agree_to, agree = implementations_agree(ell, q, bound)
    within = scan.density_gap() <= tol
    report = rp.new_report(
        "places", {"ell": ell, "q": q, "bound": bound, "tolerance": str(Fraction(tol))}
    )
    report["items"].append(
        {
            "kind": "place-scan",
            "records": [r.to_json() for r in scan.records],
            "scanned": scan.scanned,
            "degree_ell_count": scan.degree_ell_count,
            "density": str(scan.density),
            "cebotarev_density": str(scan.cebotarev_density),
            "tolerance": str(Fraction(tol)),
            "within_tolerance": within,
            "agreement_checked_to": agree_to,
            "implementations_agree": agree,
            "holds": within and agree,
        }
    )
    return rp.finalize(report)


# ---------------------------------------------------------------------------
# Planner subcommands
# ---------------------------------------------------------------------------


# Options each plan op needs that have no default.
_PLAN_REQUIRED = {
    "twisted-count": ("p", "ell0", "dim_g"),
    "comm-classes": ("p", "ell0", "dim_g"),
    "conjugates-bound": ("n_index", "group_order"),
    "min-ell-sequence": ("dim_g",),
    "min-ell-growth": ("dim_g",),
    "nonarith-count": ("p", "ell"),
    "volume-bound": ("p", "j"),
    "growth-constant": ("p", "j_min", "j_max"),
    "level-count": ("primes", "j", "ell0"),
    "tower-min-k": ("primes", "j", "ell0", "dim_g"),
}


def cmd_plan(args: argparse.Namespace) -> dict:
    op = args.plan_op
    missing = [name for name in _PLAN_REQUIRED[op] if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"plan {op} needs {flags}")
    if args.dim_g is not None:
        pl.PlannerParams(
            dim_g=args.dim_g, c=args.c, x=args.x, big_c=args.big_c,
            c_x=args.c_x, c_1=args.c_1 if args.c_1 is not None else 1,
            d_p=args.d_p, delta=Fraction(args.delta), r=args.r,
            ell=args.ell, ell0=args.ell0,
        )

    def given(*names: str) -> dict:
        return {name: getattr(args, name) for name in names}

    checks: list = []
    if op == "twisted-count":
        inputs = given("p", "ell0", "dim_g")
        result = pl.twisted_count_bound(args.p, args.ell0, args.dim_g).to_json()

    elif op == "comm-classes":
        inputs = given("p", "ell0", "dim_g", "c")
        result = pl.distinct_comm_classes(args.p, args.ell0, args.dim_g, args.c).to_json()
        if args.n is not None:
            checks.append(pl.isometry_headroom(args.p, args.ell0, args.dim_g, args.c,
                                               args.c_x, args.n))
            inputs.update(given("c_x", "n"))

    elif op == "conjugates-bound":
        inputs = given("n_index", "x", "big_c", "group_order")
        value = pl.commensurator_conjugates_bound(args.n_index, args.x, args.big_c,
                                                  args.group_order)
        result = {"value": str(value)}

    elif op in ("min-ell-sequence", "min-ell-growth"):
        fn = pl.min_ell_sequence if op == "min-ell-sequence" else pl.min_ell_growth
        found = fn(args.dim_g, args.c, args.r)
        inputs = given("dim_g", "c", "r")
        result = {"ell": found.ell}
        checks = [found.passing] + ([found.failing] if found.failing else [])
        if op == "min-ell-growth" and args.p is not None and args.c_1 is not None:
            ell0 = args.ell0 if args.ell0 is not None else found.ell
            checks.extend(pl.growth_chain_check(args.p, args.c_1, ell0, args.r,
                                                args.dim_g, args.c))
            inputs.update({"p": args.p, "c_1": args.c_1, "ell0": ell0})

    elif op == "nonarith-count":
        inputs = given("p", "ell")
        result = pl.nonarith_count(args.p, args.ell).to_json()
        if args.n is not None:
            checks.append(pl.nonarith_headroom(args.p, args.ell, args.comm_index, args.n))
            inputs.update(given("comm_index", "n"))

    elif op == "volume-bound":
        inputs = given("big_c", "p", "j")
        result = {"value": str(pl.tower_volume_bound(args.big_c, args.p, args.j))}

    elif op == "growth-constant":
        delta, margin = Fraction(args.delta), Fraction(args.margin)
        found = pl.tower_growth_constant(args.p, delta, args.d_p, args.j_min, args.j_max,
                                         margin=margin)
        inputs = {**given("p", "d_p", "j_min", "j_max"), "delta": str(delta),
                  "margin": str(margin)}
        payload = found.to_json()
        result = {"constant": payload["constant"], "log_base": "natural",
                  "ln_p": payload["ln_p"]}
        checks = list(found.checks)

    elif op == "level-count":
        primes = [int(v) for v in args.primes.split(",")]
        inputs = {**given("j", "ell0"), "primes": primes}
        result = {"value": str(pl.level_count(primes, args.j, args.ell0))}

    elif op == "tower-min-k":
        primes = [int(v) for v in args.primes.split(",")]
        found = pl.tower_min_k(primes, args.j, args.ell0, args.dim_g,
                               args.c_x, args.x, args.c, args.r)
        inputs = {**given("j", "ell0", "dim_g", "c_x", "x", "c", "r"), "primes": primes}
        result = {"k": found.k}
        checks = [c for c in (found.product_condition, found.full_at_k,
                              found.product_condition_before, found.full_before)
                  if c is not None]

    else:  # pragma: no cover - argparse restricts choices
        raise SpecMismatch(f"unknown plan op {op!r}")

    required = sorted(pl.required_check_labels(op, inputs, result))
    if not {c.label for c in checks}.issuperset(required):
        raise SelfCheckFailed(f"plan {op} lacks one of its required checks {required}")
    item = {"kind": "plan", "op": op, "inputs": inputs, "result": result,
            "checks": [c.to_json() for c in checks],
            "holds": all(c.holds for c in checks if c.label in required)}
    if required:
        item["required_checks"] = required
    report = rp.new_report("plan", {"op": op})
    report["items"].append(item)
    return rp.finalize(report)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gassmann",
        description="Exact certification of almost-conjugate subgroup families, "
        "coset-graph spectra, and growth inequalities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table", "jsonl"], default="json")
    common.add_argument("--out", type=Path, default=None,
                        help="file (or directory, for graphs) for report and exports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="Gassmann-certify a twisted family")
    p_cert.add_argument("--p", type=int, required=True)
    p_cert.add_argument("--m", type=int, required=True)
    p_cert.add_argument("--cap", type=int, default=None)

    p_graphs = sub.add_parser("graphs", parents=[common], help="coset graphs, spectra, isomorphism")
    p_graphs.add_argument("--p", type=int, required=True)
    p_graphs.add_argument("--m", type=int, required=True)
    p_graphs.add_argument("--gens", type=str, default=None,
                          help="generators 'a|b|c;a|b|c;...', coefficients comma-separated")
    p_graphs.add_argument("--cap", type=int, default=None)

    p_tower = sub.add_parser("tower", parents=[common], help="truncated-ring class counts")
    p_tower.add_argument("--p", type=int, required=True)
    p_tower.add_argument("--j-max", type=int, required=True)
    p_tower.add_argument("--cap", type=int, default=None)

    p_places = sub.add_parser("places", parents=[common], help="residue-degree scan")
    p_places.add_argument("--ell", type=int, required=True)
    p_places.add_argument("--bound", type=int, required=True)
    p_places.add_argument("--q", type=int, default=None)
    p_places.add_argument("--tol", type=str, default="1/50",
                          help="density tolerance, decimal or fraction")

    p_plan = sub.add_parser("plan", parents=[common], help="exact inequality certification")
    p_plan.add_argument(
        "plan_op",
        choices=[
            "twisted-count", "comm-classes", "conjugates-bound",
            "min-ell-sequence", "min-ell-growth", "nonarith-count",
            "volume-bound", "growth-constant", "level-count", "tower-min-k",
        ],
    )
    p_plan.add_argument("--p", type=int, default=None)
    p_plan.add_argument("--ell", type=int, default=None)
    p_plan.add_argument("--ell0", type=int, default=None)
    p_plan.add_argument("--dim-g", dest="dim_g", type=int, default=None)
    p_plan.add_argument("--c", type=int, default=1)
    p_plan.add_argument("--r", type=int, default=1)
    p_plan.add_argument("--x", type=int, default=1)
    p_plan.add_argument("--big-c", dest="big_c", type=int, default=1)
    p_plan.add_argument("--c-x", dest="c_x", type=int, default=1)
    p_plan.add_argument("--c-1", dest="c_1", type=int, default=None)
    p_plan.add_argument("--d-p", dest="d_p", type=int, default=1)
    p_plan.add_argument("--delta", type=str, default="1")
    p_plan.add_argument("--margin", type=str, default="1/1024")
    p_plan.add_argument("--n", type=int, default=None)
    p_plan.add_argument("--n-index", dest="n_index", type=int, default=None)
    p_plan.add_argument("--comm-index", dest="comm_index", type=int, default=1)
    p_plan.add_argument("--group-order", dest="group_order", type=int, default=None)
    p_plan.add_argument("--j", type=int, default=None)
    p_plan.add_argument("--j-min", dest="j_min", type=int, default=None)
    p_plan.add_argument("--j-max", dest="j_max", type=int, default=None)
    p_plan.add_argument("--primes", type=str, default=None)

    p_verify = sub.add_parser("verify", parents=[common], help="re-run the certificates in a report")
    p_verify.add_argument("report", type=Path)

    return parser


def _write_outputs(args, report: dict, exports: dict[str, str]) -> None:
    if args.out is None:
        return
    if exports:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(rp.canonical_json(report))
        for name, content in exports.items():
            (args.out / name).write_text(content)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(rp.canonical_json(report))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    exports: dict[str, str] = {}
    try:
        if args.format == "jsonl" and args.command != "places":
            raise UsageError(f"--format jsonl applies to places only, not {args.command}")
        if args.command == "certify":
            report = cmd_certify(args.p, args.m, cap=args.cap)
        elif args.command == "graphs":
            report, exports = cmd_graphs(args.p, args.m, gens_text=args.gens,
                                         cap=args.cap, exports=args.out is not None)
        elif args.command == "tower":
            report = cmd_tower(args.p, args.j_max, cap=args.cap)
        elif args.command == "places":
            report = cmd_places(args.ell, args.bound, q=args.q,
                                tol=Fraction(args.tol))
        elif args.command == "plan":
            report = cmd_plan(args)
        elif args.command == "verify":
            data = json.loads(args.report.read_text())
            problems = rp.verify_report(data)
            for problem in problems:
                print(f"problem: {problem}", file=sys.stderr)
            print("verified" if not problems else "verification failed")
            return 0 if not problems else 1
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
    except (GassmannError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.format == "jsonl" and args.command == "places":
        lines = [
            json.dumps(rec, sort_keys=True)
            for rec in report["items"][0]["records"]
        ]
        summary = {
            k: v for k, v in report["items"][0].items() if k != "records"
        }
        lines.append(json.dumps(summary, sort_keys=True))
        sys.stdout.write("\n".join(lines) + "\n")
    elif args.format == "table":
        sys.stdout.write(rp.render_table(report))
    else:
        sys.stdout.write(rp.canonical_json(report))
    _write_outputs(args, report, exports)
    print(f"# elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0 if report["summary"]["verdict"] == "pass" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
