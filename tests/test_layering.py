import ast
import functools
import importlib
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

# certify and graphs over GF(4) through cli.main, then verify on both reports
CLI_RUN = """
import contextlib, io, sys
from gassmann import cli
runs = [["certify", "--p", "2", "--m", "2", "--out", sys.argv[1] + "/certify.json"],
        ["graphs", "--p", "2", "--m", "2", "--out", sys.argv[1] + "/graphs"],
        ["verify", sys.argv[1] + "/certify.json"],
        ["verify", sys.argv[1] + "/graphs/report.json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, "gassmann.oracles" in sys.modules)
"""


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracles":
                return True
            if any(alias.name == "oracles" for alias in node.names):
                return True
    return False


def test_oracles_stay_out_of_production_and_bench_bindings_resolve(tmp_path):
    # (a) no production module imports the oracle module
    production = [path for path in sorted((SRC / "gassmann").glob("*.py"))
                  if path.name != "oracles.py"]
    importers = [path.name for path in production
                 if _imports_oracles(ast.parse(path.read_text(), str(path)))]
    assert importers == []
    assert _imports_oracles(ast.parse("from . import oracles, schreier"))
    # (b) so the CLI and verify never load it
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", CLI_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[0, 0, 0, 0] False\n"
    # (c) every name the benchmark binds is still where it looks it up
    for module, path in BENCH_BINDINGS:
        functools.reduce(getattr, path.split("."), importlib.import_module(module))
