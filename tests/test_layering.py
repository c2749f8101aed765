import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute path) of every name that bench/child.py and bench/run.py look up
BENCH_BINDINGS = [
    ("gassmann.cli", "main"),
    ("gassmann.cli", "cmd_certify"),
    ("gassmann.cli", "cmd_graphs"),
    ("gassmann.cli", "_bruteforce_subgroup_keys"),
    ("gassmann.heisenberg", "heisenberg_group"),
    ("gassmann.heisenberg", "twisted_subgroup"),
    ("gassmann.heisenberg", "Heisenberg.conjugacy_classes"),
    ("gassmann.heisenberg", "Heisenberg.mul"),
    ("gassmann.heisenberg", "Heisenberg.inv"),
    ("gassmann.heisenberg", "Heisenberg.conjugate"),
    ("gassmann.certify", "enumerate_class_reps"),
    ("gassmann.certify", "twist_orbit_count_bruteforce"),
    ("gassmann.certify", "intersection_profile"),
    ("gassmann.certify", "are_conjugate"),
    ("gassmann.certify", "canonical_twist"),
    ("gassmann.schreier", "default_generators"),
    ("gassmann.schreier", "build_coset_graph"),
    ("gassmann.schreier", "char_poly"),
    ("gassmann.schreier", "are_isomorphic"),
    ("gassmann.schreier", "_permutation_matches"),
    ("gassmann.schreier", "bareiss_determinant"),
    ("gassmann.schreier", "verify_witness"),
    ("gassmann.schreier", "CosetGraph.adjacency"),
    ("gassmann.reports", "canonical_json"),
    ("gassmann.reports", "verify_report"),
    ("gassmann.rings", "make_field"),
    ("gassmann.rings", "_RingOps.add"),
    ("gassmann.rings", "_RingOps.mul"),
    ("gassmann.rings", "_RingOps.neg"),
]

# library entry points that no command runs: the paper's product construction
LIBRARY_ENTRY_POINTS = [
    ("gassmann.certify", "product_certificate"),
]

# certify and graphs over GF(4) and a place scan through cli.main, then verify on
# each report
CLI_RUN = """
import contextlib, io, sys
from gassmann import cli
runs = [["certify", "--p", "2", "--m", "2", "--out", sys.argv[1] + "/certify.json"],
        ["graphs", "--p", "2", "--m", "2", "--out", sys.argv[1] + "/graphs"],
        ["places", "--ell", "3", "--bound", "1000", "--out", sys.argv[1] + "/places.json"],
        ["verify", sys.argv[1] + "/certify.json"],
        ["verify", sys.argv[1] + "/graphs/report.json"],
        ["verify", sys.argv[1] + "/places.json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, "gassmann.oracles" in sys.modules)
"""

# a command through cli.main, its argv given as JSON, and verify of a report through
# reports alone; each prints its result and which of the modules named after its first
# argument it loaded
COMMAND_RUN = """
import contextlib, io, json, sys
from gassmann import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(code, sorted(set(sys.argv[2:]) & set(sys.modules)))
"""
VERIFY_RUN = """
import json, sys
from gassmann import reports
with open(sys.argv[1]) as fh:
    problems = reports.verify_report(json.load(fh))
print(problems, sorted(set(sys.argv[2:]) & set(sys.modules)))
"""
PRODUCTION = [path for path in sorted((SRC / "gassmann").glob("*.py")) if path.name != "oracles.py"]


def _imports(tree: ast.AST, module: str) -> bool:
    """Whether the tree imports the module, named by its last component."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == module for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                return True
            if any(alias.name == module for alias in node.names):
                return True
    return False


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level def or class of the sources, by module name,
    that no name, attribute or from-import in any of them refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_oracles_stay_out_of_production_and_bench_bindings_resolve(tmp_path):
    # (a) no production module imports the oracle module
    importers = [path.name for path in PRODUCTION
                 if _imports(ast.parse(path.read_text(), str(path)), "oracles")]
    assert importers == []
    assert _imports(ast.parse("from . import oracles, schreier"), "oracles")
    # (b) so the CLI and verify never load it
    assert _run(CLI_RUN, str(tmp_path)) == "[0, 0, 0, 0, 0, 0] False\n"
    # (c) every name the benchmark binds is still where it looks it up
    for module, path in BENCH_BINDINGS:
        functools.reduce(getattr, path.split("."), importlib.import_module(module))


def test_certify_and_its_verify_load_only_what_they_run(tmp_path):
    # (a) no production module imports dataclasses, whose code generation and imports
    # (inspect, ast, dis, tokenize) cost more start-up than the work of small commands,
    # nor hashlib, a few ms to import where Python's hash of int tuples digests the
    # refinement invariants
    for module in ("dataclasses", "hashlib"):
        importers = [path.name for path in PRODUCTION
                     if _imports(ast.parse(path.read_text(), str(path)), module)]
        assert importers == []
    assert _imports(ast.parse("from dataclasses import dataclass"), "dataclasses")
    assert _imports(ast.parse("import dataclasses"), "dataclasses")
    assert _imports(ast.parse("from hashlib import sha256"), "hashlib")
    # (b) certify loads neither those nor the place scanner, nor the planner and the
    # fractions that only places and plan use, and verify of its report not the coset
    # graphs either: each item kind imports what its verifier runs
    report = str(tmp_path / "certify.json")
    unused = ["dataclasses", "inspect", "gassmann.places", "gassmann.planner", "fractions",
              "decimal"]
    argv = ["certify", "--p", "2", "--m", "2", "--out", report]
    assert _run(COMMAND_RUN, json.dumps(argv), *unused) == "0 []\n"
    assert _run(VERIFY_RUN, report, *unused, "gassmann.schreier") == "[] []\n"


def test_graphs_tower_and_their_verify_load_neither_the_planner_nor_the_place_scanner(
        tmp_path):
    unused = ["gassmann.planner", "gassmann.places", "fractions", "decimal"]
    for argv, report in ((["graphs", "--p", "2", "--m", "2", "--out", str(tmp_path / "graphs")],
                          tmp_path / "graphs" / "report.json"),
                         (["tower", "--p", "2", "--j-max", "3", "--out", str(tmp_path / "tower")],
                          tmp_path / "tower")):
        assert _run(COMMAND_RUN, json.dumps(argv), *unused) == "0 []\n"
        assert _run(VERIFY_RUN, str(report), *unused) == "[] []\n"
    # plan does load the planner, so the check above can fail
    argv = ["plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"]
    loaded = "0 ['decimal', 'fractions', 'gassmann.planner']\n"
    assert _run(COMMAND_RUN, json.dumps(argv), *unused) == loaded


def test_every_production_definition_is_used_by_production_code():
    # a function or class that only the tests call belongs in oracles.py, unless the
    # benchmark binds it or it is a named library entry point
    assert _unreferenced({"a": "def f(): g()\ndef g(): pass\nclass C: pass",
                          "b": "from a import C"}) == ["a.f"]
    kept = {f"{module}.{path.split('.')[0]}"
            for module, path in BENCH_BINDINGS + LIBRARY_ENTRY_POINTS}
    sources = {f"gassmann.{path.stem}": path.read_text() for path in PRODUCTION}
    assert [name for name in _unreferenced(sources) if name not in kept] == []


# the constructors of coset graphs and of the rows they certify, and the closed-form
# build; they live in schreier, whose class_rep_graphs is the one route from a graphs
# config to its family, so graphs and verify share one build
GRAPH_CONSTRUCTORS = {"CosetGraph", "from_rows", "check_centre", "build_coset_graph"}


def _called(tree: ast.AST) -> list[str]:
    """The names of the functions that the tree calls, by name or attribute."""
    called = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return [func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for func in called]


def _graph_constructions(tree: ast.AST) -> list[str]:
    """The sorted names of the graph constructors that the tree calls, by name or attribute."""
    return sorted(name for name in _called(tree) if name in GRAPH_CONSTRUCTORS)


def test_only_schreier_constructs_coset_graphs():
    sample = ("CosetGraph(g)\nsg.CosetGraph.from_rows(r)\ncheck_centre(r, 2, 1)\n"
              "sg.build_coset_graph(h, g)\nclass_rep_graphs(s, g, c)\nCosetGraph.rows")
    assert _graph_constructions(ast.parse(sample)) == [
        "CosetGraph", "build_coset_graph", "check_centre", "from_rows"]
    # a family's graphs made outside the one route, by a loop over its subgroups, are caught
    loop = ("subgroups = [twisted_subgroup(f, group) for f in catalog.reps]\n"
            "graphs = [sg.build_coset_graph(sub, gens) for sub in subgroups]")
    assert _graph_constructions(ast.parse(loop)) == ["build_coset_graph"]
    assert "twisted_subgroup" in _called(ast.parse(loop))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in PRODUCTION}
    makers = {name: _graph_constructions(tree) for name, tree in trees.items()
              if name != "schreier.py"}
    assert {name: calls for name, calls in makers.items() if calls} == {}
    # certify makes H_f for its profiles and conjugator oracle, no graph; the commands
    # make no subgroup, and reach the family's graphs through class_rep_graphs alone
    assert sorted(name for name, tree in trees.items()
                  if "twisted_subgroup" in _called(tree)) == ["certify.py", "schreier.py"]
    assert sorted(name for name, tree in trees.items()
                  if "class_rep_graphs" in _called(tree)) == ["cli.py", "reports.py"]
