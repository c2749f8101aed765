"""Command-line entry point: batch certification runs with JSON reports.

Subcommands: certify, graphs, tower, places, plan, verify.  Reports are
deterministic (byte-identical for identical config); wall-clock timing
goes to stderr only.  Exit code 0 exactly when the summary verdict is
"pass"; operational errors exit 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import certify as cz
from . import reports as rp
# at the top, not in cmd_graphs: bench/child.py's tracer patches it before main runs
from . import schreier as sg
from .errors import GassmannError, NotGenerating, SpecMismatch, UsageError
from .heisenberg import generates, heisenberg_group
from .rings import make_field, make_trunc_ring, size_cap

# Everything the imports made lives as long as the process; frozen, no later collection
# scans it again, so none of its young objects is left for a collection during a command.
gc.freeze()

# The conjugator oracle, by the name that bench/child.py binds; cmd_certify and verify
# call it through certify.family_oracles
_bruteforce_subgroup_keys = cz.bruteforce_subgroup_keys


def cmd_certify(p: int, m: int, cap: Optional[int] = None) -> dict:
    """The certify report: each fact from its closed form, checked by the oracles that
    run at this p and m.  The cap bounds the group, the largest thing they build."""
    cz.check_family_config(p, m, cap)
    spec = make_field(p, m, cap=cap)
    report = rp.new_report("certify", {"p": p, "m": m, "cap": cap or size_cap()})

    actual = cz.class_count(spec)
    orbits = None
    if cz.orbit_oracle_runs(p, m):
        orbits = cz.twist_orbit_count_bruteforce(spec)
    report["items"].append(
        {
            "kind": "class-count",
            "actual": rp.encode_count(actual),
            "bruteforce_orbits": rp.encode_count(orbits) if orbits is not None else None,
            "holds": actual == p ** (m * (m - 1)) and (orbits in (None, actual)),
        }
    )

    # the family is stated by its definition; its one profile and class sizes are
    # closed forms of q, which verify derives and the oracle block checks
    count = p ** cz.family_exponent(p, m)
    report["items"].append(
        {
            "kind": "gassmann-family",
            "mode": cz.family_mode(p, m),
            "count": rp.encode_count(count),
            "pair_count": rp.encode_count(count * (count - 1) // 2),
            "all_equal": True,
            "holds": True,
        }
    )

    agreement = cz.family_oracles(p, m, cap)
    report["items"].append(
        {
            "kind": "conjugacy-dichotomy",
            "structural_conjugate_pairs": rp.encode_count(cz.conjugate_pair_count(p, m)),
            "bruteforce_checked": cz.conjugator_oracle_runs(p, m),
            "structural_equals_bruteforce": agreement,
            "holds": agreement,
        }
    )
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
    sg.check_graphs_config(p, m, cap)
    spec = make_field(p, m, cap=cap)
    group = heisenberg_group(spec)
    gens = (
        parse_generators(gens_text, spec)
        if gens_text is not None
        else sg.default_generators(group)
    )
    gens = sg.symmetrize_generators(group, gens)
    # by the Burnside basis theorem, one rank over F_p per generator set; a set that
    # generates the group makes every coset graph connected, since H_f·<S> ⊇ <S> = G
    if not generates(group, gens):
        raise NotGenerating(f"the generators do not generate H(GF({p}^{m})): their (a, b) "
                            f"parts do not span F_{p}^{2 * m}")
    report = rp.new_report(
        "graphs",
        {
            "p": p,
            "m": m,
            "generators": [[list(c) for c in g] for g in gens],
            "cap": cap or size_cap(),
        },
    )
    maps, graphs = sg.class_rep_graphs(spec, gens, cap)
    # the family is stated by its definition: the class reps in catalog order, each
    # graph's vertices the q^2 cosets and its degree the config's generator count
    report["items"].append({"kind": "coset-graphs", "mode": "class-reps", "count": len(graphs),
                            "vertices": graphs[0].n, "degree": len(gens), "holds": True})
    # over a field every H_f has the one profile, so by Sunada's theorem every graph has
    # the polynomial of H_0, the first class rep's graph, the zero map being first
    charpoly = [rp.encode_count(c) for c in sg.char_poly(graphs[0]).coefficients]

    files: dict[str, str] = {}
    if exports:
        spectrum = json.dumps({"degree": len(charpoly) - 1, "coefficients": charpoly},
                              sort_keys=True) + "\n"
        for k, graph in enumerate(graphs):
            edges = graph.edge_list()  # rows are not kept, so expand them once for both
            files[f"rep_{k}.dot"] = sg.to_dot(edges, f"rep_{k}")
            files[f"rep_{k}.edges"] = "".join(f"{u} {v} {mult}\n" for u, v, mult in edges)
            files[f"rep_{k}.charpoly.json"] = spectrum

    report["items"].append({"kind": "cospectral", "charpoly": charpoly, "all_equal": True,
                            "holds": True})
    class_of, witnesses = sg.orbit_classes(maps, graphs)
    report["items"].append(
        {
            "kind": "isomorphism-classes",
            "class_of": class_of,
            "witnesses": [rp.encode_witness(w) for w in witnesses],
            "holds": True,
        }
    )
    return rp.finalize(report), files


def cmd_tower(p: int, j_max: int, cap: Optional[int] = None) -> dict:
    if j_max < 1:
        raise UsageError(f"--j-max must be >= 1, got {j_max}")
    report = rp.new_report("tower", {"p": p, "j_max": j_max, "cap": cap or size_cap()})
    for j in range(1, j_max + 1):
        # the exact count next to the cited value p^(j(j-1)/2), a lower bound only; the
        # gap between them is stated, never hidden
        exact, cited = cz.class_count(make_trunc_ring(p, j, cap=cap)), p ** (j * (j - 1) // 2)
        report["items"].append(
            {
                "kind": "tower-count",
                "j": j,
                "exact": rp.encode_count(exact),
                "cited_lower": rp.encode_count(cited),
                "gap": exact != cited,
                "holds": exact >= cited,
            }
        )
    return rp.finalize(report)


def cmd_places(ell: int, bound: int, q: Optional[int] = None,
               tol: str = "1/50") -> tuple[dict, Iterator[dict]]:
    """The places report, and the records of the primes of residue degree ell, which
    the report counts and --format jsonl lists, each made only when it is read; tol is
    a decimal or a fraction."""
    from fractions import Fraction

    from .places import choose_modulus, scan_places

    tolerance = Fraction(tol)
    if q is None:
        q = choose_modulus(ell)
    scan = scan_places(ell, q, bound)
    report = rp.new_report(
        "places", {"ell": ell, "q": q, "bound": bound, "tolerance": str(tolerance)}
    )
    # the density and its target (ell-1)/ell are closed forms of the counts and the
    # config, which verify derives; the verdict is the density within the tolerance
    report["items"].append(
        {
            "kind": "place-scan",
            "scanned": scan.scanned,
            "degree_ell_count": scan.degree_ell_count,
            "holds": scan.density_gap() <= tolerance,
        }
    )
    records = ({"p": p, "q": q, "ell": ell, "degree": ell, "residue_size": str(p**ell)}
               for p in scan.primes)
    return rp.finalize(report), records


# ---------------------------------------------------------------------------
# Planner subcommands
# ---------------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> dict:
    from .planner import PLAN_OPS

    name, options = args.plan_op, vars(args)
    op = PLAN_OPS[name]
    # an option without a default is None until given, and an op needs those it always reads
    missing = [option for option in op.reads if options[option] is None]
    if missing:
        flags = ", ".join("--" + option.replace("_", "-") for option in missing)
        raise UsageError(f"plan {name} needs {flags}")
    inputs = op.read(options)
    op.validate(inputs)
    inputs, found = op.search(inputs)
    result, certificate = op.certify(inputs, found)
    report = rp.new_report("plan", {"op": name})
    report["items"].append(rp.plan_item(name, inputs, result, list(certificate)))
    return rp.finalize(report)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The gassmann parser; the plan subparser gets its op and options, which the
    planner lists, only where the command is plan."""
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
    if command == "plan":
        from .planner import PLAN_OPS, PLAN_OPTIONS

        p_plan.add_argument("plan_op", choices=list(PLAN_OPS))
        for name, (default, form) in PLAN_OPTIONS.items():
            p_plan.add_argument("--" + name.replace("_", "-"), default=default,
                                type=int if form is int else str)

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
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option but --help, so the command comes first
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    exports: dict[str, str] = {}
    records: Iterator[dict] = iter(())
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
            report, records = cmd_places(args.ell, args.bound, q=args.q, tol=args.tol)
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
    # a JSON file nested past the interpreter's recursion limit raises RecursionError
    except (GassmannError, ValueError, ZeroDivisionError, OSError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.format == "jsonl":
        lines = [json.dumps(rec, sort_keys=True) for rec in [*records, report["items"][0]]]
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
