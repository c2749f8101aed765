import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import run_cli

from gassmann import cli, heisenberg, planner, reports, schreier
from gassmann.certify import (enumerate_class_reps, family_class_sizes, family_mode,
                              family_profile)
from gassmann.oracles import center_subgroup, connected
from gassmann.reports import render_table, verify_report
from gassmann.rings import PRIME_EXACT_LIMIT, all_linear_maps, make_field


SRC = Path(__file__).resolve().parent.parent / "src"


def _report(stdout: str) -> dict:
    return json.loads(stdout)


# ---------------------------------------------------------------------------
# Certify
# ---------------------------------------------------------------------------


def test_certify_2_2_passes_and_self_verifies():
    code, out, err = run_cli("certify", "--p", "2", "--m", "2")
    assert code == 0
    report = _report(out)
    assert report["summary"]["verdict"] == "pass"
    assert verify_report(report) == []
    items = {item["kind"]: item for item in report["items"]}
    assert items["class-count"]["actual"] == 4
    family = items["gassmann-family"]
    assert family["mode"] == "all-twists"
    assert family["count"] == 16 and family["pair_count"] == 120
    dichotomy = items["conjugacy-dichotomy"]
    assert dichotomy["bruteforce_checked"] and dichotomy["structural_equals_bruteforce"]


def test_certify_single_subgroup_skips_the_conjugator_oracle(monkeypatch):
    # one subgroup leaves no pair to compare, so the oracle's keys are never needed
    def refuse(*args):
        raise AssertionError("conjugator oracle called with a single subgroup")

    monkeypatch.setattr(cli.cz, "bruteforce_subgroup_keys", refuse)
    report = cli.cmd_certify(17, 1)
    assert report["summary"]["verdict"] == "pass"
    dichotomy = report["items"][2]
    assert dichotomy["bruteforce_checked"] and dichotomy["structural_equals_bruteforce"]


def test_certify_2_1_single_class():
    code, out, _ = run_cli("certify", "--p", "2", "--m", "1")
    assert code == 0
    report = _report(out)
    assert report["items"][0]["actual"] == 1  # m=1: every twist is a multiplication
    assert verify_report(report) == []


def test_certify_3_2_class_count():
    code, out, _ = run_cli("certify", "--p", "3", "--m", "2")
    assert code == 0
    report = _report(out)
    items = {item["kind"]: item for item in report["items"]}
    assert items["class-count"]["actual"] == 9
    assert items["gassmann-family"]["mode"] == "class-reps"
    assert items["conjugacy-dichotomy"]["structural_conjugate_pairs"] == 0
    assert verify_report(report) == []


def test_cap_flag_and_env_override(monkeypatch):
    code, _, err = run_cli("certify", "--p", "2", "--m", "2", "--cap", "10")
    assert code == 2 and "SizeCapExceeded" in err
    monkeypatch.setenv("GASSMANN_SIZE_CAP", "10")
    code, _, err = run_cli("certify", "--p", "2", "--m", "2")
    assert code == 2 and "SizeCapExceeded" in err


def test_explicit_cap_overrides_a_smaller_env_cap(monkeypatch):
    # 2^9 = 512 maps on GF(8): over the env cap, inside the explicit one
    monkeypatch.setenv("GASSMANN_SIZE_CAP", "256")
    code, _, err = run_cli("certify", "--p", "2", "--m", "3", "--cap", "1024")
    assert code == 0, err


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_certify_builds_the_catalog_once_and_keys_each_subgroup_once(monkeypatch):
    catalogs = _count_calls(monkeypatch, cli.cz, "enumerate_class_reps")
    keyed = _count_calls(monkeypatch, cli.cz, "canonical_twist")
    report = cli.cmd_certify(2, 3)
    assert report["summary"]["verdict"] == "pass"
    assert catalogs[0] == 1
    assert keyed[0] == report["items"][1]["count"] == 64


@pytest.mark.parametrize("p,m,conjugate_pairs,pairs", [(2, 1, 1, 1), (2, 2, 24, 120),
                                                       (2, 3, 0, 2016)])
def test_certify_dichotomy_needs_no_pairwise_test(monkeypatch, p, m, conjugate_pairs, pairs):
    def refuse(*args):
        raise AssertionError("pairwise conjugacy test called on the certify path")

    monkeypatch.setattr(cli.cz, "are_conjugate", refuse)
    report = cli.cmd_certify(p, m)
    assert report["summary"]["verdict"] == "pass"
    dichotomy = report["items"][2]
    assert dichotomy["structural_conjugate_pairs"] == conjugate_pairs
    assert report["items"][1]["pair_count"] == pairs
    assert dichotomy["bruteforce_checked"] and dichotomy["structural_equals_bruteforce"]


def _merge_two_classes(keys):
    other = next(k for k in keys if k != keys[0])
    return [keys[0] if k == other else k for k in keys]


def _move_one_subgroup(keys):
    # the first class keeps three of its four members, so the class count holds
    other = next(k for k in keys if k != keys[0])
    return [other] + keys[1:]


@pytest.mark.parametrize("tamper", [_merge_two_classes, _move_one_subgroup])
def test_certify_fails_when_the_oracle_partition_differs(monkeypatch, tamper):
    oracle = cli.cz.bruteforce_subgroup_keys

    def tampered(group, subgroups):
        return tamper(oracle(group, subgroups))

    monkeypatch.setattr(cli.cz, "bruteforce_subgroup_keys", tampered)
    code, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    assert code == 1
    dichotomy = _report(out)["items"][2]
    assert dichotomy["bruteforce_checked"]
    assert not dichotomy["structural_equals_bruteforce"] and not dichotomy["holds"]


def _refuse(*args, **kwargs):
    raise AssertionError("the family is built outside the oracle block")


def test_certify_past_the_oracle_limits_builds_no_family(monkeypatch):
    # over GF(16) and GF(32) certify and verify state every fact from its closed form:
    # no subgroup, class table, profile or canonical twist is built
    for module in (cli.cz, cli, heisenberg, reports):
        for name in ("enumerate_class_reps", "canonical_twist", "twisted_subgroup",
                     "intersection_profile"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    monkeypatch.setattr(heisenberg.Heisenberg, "conjugacy_classes", _refuse)
    for m in (4, 5):
        report = cli.cmd_certify(2, m)
        assert report["summary"]["verdict"] == "pass"
        assert verify_report(report) == []


@pytest.mark.parametrize("p, m", [(2, 5), (3, 4), (2, 6)])
def test_certify_reaches_past_the_map_cap(tmp_path, p, m):
    # 2^25, 3^16 and 2^36 maps are past the default cap, but their groups are not
    started = time.perf_counter()
    code, out, err = run_cli("certify", "--p", str(p), "--m", str(m))
    assert code == 0, err
    family = json.loads(out)["items"][1]
    assert family["count"] == p ** (m * (m - 1)) and family["mode"] == "class-reps"
    assert _verify_json(tmp_path, json.loads(out))[0] == 0
    assert time.perf_counter() - started < 2.0


def test_certify_caps_the_group_order():
    code, out, err = run_cli("certify", "--p", "5", "--m", "3")
    assert code == 2 and out == ""
    _one_line_error(err, "SizeCapExceeded")
    assert "|H(GF(5^3))| = 5^9 exceeds cap 1048576" in err


def _profile_off_by_one(monkeypatch):
    profile = cli.cz.intersection_profile
    monkeypatch.setattr(cli.cz, "intersection_profile",
                        lambda sub, table: (0,) + profile(sub, table)[1:])


def _one_key_for_all(monkeypatch):
    monkeypatch.setattr(cli.cz, "canonical_twist", lambda f, spec: 0)


@pytest.mark.parametrize("fault, message", [
    (_profile_off_by_one, "the class table gives a profile other than the closed form"),
    (_one_key_for_all, "the canonical twists give a conjugate-pair count other than the "
                       "closed form"),
], ids=["profile", "keys"])
def test_certify_self_checks_the_closed_forms_against_the_oracle_block(monkeypatch, fault,
                                                                        message):
    fault(monkeypatch)
    code, out, err = run_cli("certify", "--p", "2", "--m", "2")
    assert code == 2 and out == ""
    _one_line_error(err, "SelfCheckFailed")
    assert message in err


def _verify_in_a_fresh_process(path: Path, seconds: float) -> list[str]:
    """The problems that verify lists for the report at path, in a fresh process that
    must refuse it within the seconds given."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "gassmann.cli", "verify", str(path)], env=env,
                          capture_output=True, text=True)
    assert time.perf_counter() - started < seconds
    assert done.returncode == 1 and done.stdout == "verification failed\n"
    assert "Traceback" not in done.stderr
    return done.stderr.splitlines()


@pytest.mark.parametrize("m", [40, 13, 10**5, 10**9])
def test_verify_of_a_forged_certify_config_costs_what_the_stored_item_states(tmp_path, m):
    # a GF(4) report claiming GF(2^m): p^(m(m-1)) would have about m^2 bits.  Past the
    # cap, the config check compares the group's exponent with the cap's bits and no
    # item is read; with a cap that admits the group, verify measures the stored
    # counts first
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["config"]["m"] = m
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    assert _verify_in_a_fresh_process(path, 1.0) == [
        f"problem: the config is malformed: SizeCapExceeded: |H(GF(2^{m}))| = 2^{3 * m} "
        "exceeds cap 1048576"]
    if m > 1000:
        return  # a cap of 2^(3m) has more digits than Python's JSON reads
    report["config"]["cap"] = 2 ** (3 * m)
    path.write_text(json.dumps(report))
    problems = _verify_in_a_fresh_process(path, 1.0)
    assert ("problem: the family is not the class-reps family of the config: p^(m^2) "
            "subgroups in all-twists mode, p^(m(m-1)) in class-reps mode") in problems
    assert "problem: pair_count is not n(n-1)/2 for the family's n subgroups" in problems


def test_verify_of_a_forged_graphs_degree_compares_it_with_the_cap(tmp_path):
    # the graphs config check compares the field's exponent with the cap's bits;
    # 2^(10^8) is not formed
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["config"]["m"] = 10**8
    started = time.perf_counter()
    code, err = _verify_json(tmp_path, report)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and "Traceback" not in err
    assert err.splitlines() == ["problem: the config is malformed: SizeCapExceeded: "
                                "|GF(2^100000000)| = 2^100000000 exceeds cap 1048576"]


@pytest.mark.parametrize("m", [20, 24])
def test_verify_of_a_forged_graphs_field_makes_no_field(tmp_path, m):
    # a GF(4) report claiming GF(2^m) with a cap that admits the field: the search
    # for its modulus would take seconds at m = 20 and minutes at 24, so the vertex cap
    # on its q^2 cosets is checked before any field is made
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["config"].update(m=m, cap=2**m)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    assert _verify_in_a_fresh_process(path, 2.0) == [
        f"problem: the config is malformed: SizeCapExceeded: coset count 2^{2 * m} exceeds "
        "vertex cap 4096"]


def test_graphs_past_the_vertex_cap_exits_2_before_it_makes_a_field():
    # the default cap admits GF(2^20), whose modulus takes seconds to find
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "gassmann.cli", "graphs", "--p", "2", "--m",
                           "20"], env=env, capture_output=True, text=True)
    assert time.perf_counter() - started < 2.0
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: SizeCapExceeded: coset count 2^40 exceeds vertex cap 4096\n")


@pytest.mark.parametrize("command, argv", [
    ("certify", ("--p", "2", "--m", "2")),
    ("tower", ("--p", "2", "--j-max", "3")),
    ("graphs", ("--p", "2", "--m", "2")),
], ids=["certify", "tower", "graphs"])
@pytest.mark.parametrize("forge", [lambda c: c.update(p="x"), lambda c: c.update(cap=4096.0)],
                         ids=["p-a-string", "float-cap"])
def test_a_malformed_config_is_one_problem(tmp_path, command, argv, forge):
    # every item reads the config, so once its check fails no item is verified
    _, out, _ = run_cli(command, *argv)
    report = json.loads(out)
    forge(report["config"])
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and "Traceback" not in err
    (problem,) = err.splitlines()
    assert problem.startswith("problem: the config is malformed: TypeError: ")


def _restated_for(report: dict, p: int, m: int) -> dict:
    """The report with its config's p and m replaced and every count restated for
    them by the closed forms, so that only the config is wrong."""
    report["config"].update(p=p, m=m)
    count = p ** (m * (m - 1))  # the class reps
    pairs = count * (count - 1) // 2
    class_count, family, dichotomy = report["items"]
    class_count.update(actual=count, bruteforce_orbits=None)
    family.update(mode="class-reps", count=count, pair_count=pairs)
    dichotomy.update(structural_conjugate_pairs=0, bruteforce_checked=False)
    return report


@pytest.mark.parametrize("argv, forge, error", [
    # (-2)^12 = 2^12 and (-2)^4 = 16: every closed form agrees with the GF(16) items
    (("--p", "2", "--m", "4"), lambda r: r["config"].update(p=-2),
     "NotPrime: p=-2 is not prime"),
    # a 'GF(4^3)' of 64 elements, whose class table and profile are those of GF(64)
    (("--p", "2", "--m", "6"), lambda r: _restated_for(r, 4, 3),
     "NotPrime: p=4 is not prime"),
    (("--p", "2", "--m", "4"), lambda r: r["config"].update(cap=4095),
     "SizeCapExceeded: |H(GF(2^4))| = 2^12 exceeds cap 4095"),
    (("--p", "2", "--m", "4"), lambda r: r["config"].update(m=0),
     "DimensionMismatch: the degree of H(GF(2^0)) must be >= 1, got 0"),
    (("--p", "2", "--m", "4"), lambda r: r["config"].update(cap=4096.0),
     "TypeError: p, the degree and the cap are integers"),
], ids=["negative-p", "prime-power-p", "cap-below-q3", "m-zero", "float-cap"])
def test_verify_checks_the_certify_config_is_a_field_within_its_cap(tmp_path, argv, forge,
                                                                    error):
    # past the oracle limits no closed form builds the field, so verify checks the
    # config as certify does before it reads a count
    _, out, _ = run_cli("certify", *argv)
    report = json.loads(out)
    forge(report)
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and "Traceback" not in err
    assert (f"problem: the config is malformed: {error}"
            in err.splitlines())


def _restated_tower_for(report: dict, p: int) -> dict:
    """The tower report with its config's p replaced and every level restated for it."""
    report["config"]["p"] = p
    for item in report["items"]:
        j = item["j"]
        exact, cited = p ** (j * j - j), p ** (j * (j - 1) // 2)
        item.update(exact=exact, cited_lower=cited, gap=exact != cited)
    return report


@pytest.mark.parametrize("forge, error", [
    (lambda r: _restated_tower_for(r, 4), "NotPrime: p=4 is not prime"),
    (lambda r: r["config"].update(cap=1), "SizeCapExceeded: |GF(2)[t]/t^3| = 2^3 exceeds cap 1"),
], ids=["prime-power-p", "cap-below-the-ring"])
def test_verify_checks_the_tower_config_as_tower_does(tmp_path, forge, error):
    # tower refuses both configs; every item agrees with the forged config, so the
    # check of the ring that the last level builds is the one problem
    _, out, _ = run_cli("tower", "--p", "2", "--j-max", "3")
    report = json.loads(out)
    forge(report)
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err.splitlines() == [f"problem: the config is malformed: {error}"]


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def test_graphs_2_2_default_generators(tmp_path):
    out_dir = tmp_path / "exports"
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "2", "--out", str(out_dir))
    assert code == 0
    report = _report(out)
    assert verify_report(report) == []
    family = report["items"][0]
    assert family == {"kind": "coset-graphs", "mode": "class-reps", "count": 4, "vertices": 16,
                      "degree": 4, "holds": True}
    cospectral = next(item for item in report["items"] if item["kind"] == "cospectral")
    assert cospectral["all_equal"]
    for k in range(4):
        assert (out_dir / f"rep_{k}.dot").exists()
        assert (out_dir / f"rep_{k}.edges").exists()
        assert (out_dir / f"rep_{k}.charpoly.json").exists()
    assert (out_dir / "report.json").exists()
    assert verify_report(json.loads((out_dir / "report.json").read_text())) == []


def test_graphs_lists_each_graph_edges_once(monkeypatch):
    # the .edges export lists each graph's edges, which its class rep and the config
    # fix, so no report item carries edges, and only the family's one charpoly is stated
    calls = [0]
    edge_list = cli.sg.CosetGraph.edge_list

    def counted(graph):
        calls[0] += 1
        return edge_list(graph)

    monkeypatch.setattr(cli.sg.CosetGraph, "edge_list", counted)
    # without --out no export is built
    assert cli.cmd_graphs(2, 2)[1] == {} and calls[0] == 0
    report, exports = cli.cmd_graphs(2, 2, exports=True)
    count = report["items"][0]["count"]
    assert count == 4 and calls[0] <= 2 * count
    assert all("edges" not in item for item in report["items"])
    assert [(item["kind"], key) for item in report["items"] for key in item
            if "charpoly" in key] == [("cospectral", "charpoly")]
    assert all(exports[f"rep_{k}.charpoly.json"] == exports["rep_0.charpoly.json"]
               for k in range(count))
    spec = make_field(2, 2)
    f = enumerate_class_reps(spec).reps[1]
    sub = heisenberg.twisted_subgroup(f, heisenberg.heisenberg_group(spec))
    rebuilt = schreier.build_coset_graph(
        sub, [tuple(map(tuple, s)) for s in report["config"]["generators"]])
    assert exports["rep_1.edges"] == "".join(f"{u} {v} {m}\n" for u, v, m in edge_list(rebuilt))


def test_graphs_single_class_vacuous_pairwise():
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "1")
    assert code == 0
    report = _report(out)
    assert report["items"][0]["count"] == 1
    classes = next(item for item in report["items"] if item["kind"] == "isomorphism-classes")
    assert classes["class_of"] == [0] and classes["witnesses"] == [None]


def test_graphs_3_2_groups_isomorphic_graphs_into_classes():
    # 81-vertex graphs: the search budget counts refinement nodes, not vertices
    code, out, _ = run_cli("graphs", "--p", "3", "--m", "2")
    assert code == 0
    report = _report(out)
    classes = next(item for item in report["items"] if item["kind"] == "isomorphism-classes")
    assert classes["class_of"] == [0, 1, 1, 1, 2, 2, 1, 2, 2]
    assert [k for k, w in enumerate(classes["witnesses"]) if w is None] == [0, 1, 4]
    assert verify_report(report) == []


# GF(9)'s default generators with (0, t, 1 + 2t) and (1 + 2t, 2t, t): only the identity
# automorphism fixes them, so every class is joined by the leader search
GF9_SEARCHED = "1,0|0,0|0,0;0,1|0,0|0,0;0,0|1,0|0,0;0,0|0,1|0,0;0,0|0,1|1,2;1,2|0,2|0,1"


# and with (1, 0, 2t): four automorphisms fix them, and the leader search merges orbits
GF9_MERGED = "1,0|0,0|0,0;0,1|0,0|0,0;0,0|1,0|0,0;0,0|0,1|0,0;1,0|0,0|0,2"


@pytest.mark.parametrize("gens, kinds", [(GF9_SEARCHED, {"list": 3, "NoneType": 6}),
                                         (GF9_MERGED, {"dict": 2, "list": 3, "NoneType": 4})],
                         ids=["searched", "merged"])
def test_graphs_under_gens_verify_with_each_kind_of_witness(tmp_path, gens, kinds):
    code, out, _ = run_cli("graphs", "--p", "3", "--m", "2", "--gens", gens)
    assert code == 0
    witnesses = json.loads(out)["items"][2]["witnesses"]
    assert {kind: sum(type(w).__name__ == kind for w in witnesses) for kind in kinds} == kinds
    assert _verify_json(tmp_path, json.loads(out))[0] == 0


def test_graphs_over_the_search_budget_exits_2(monkeypatch, capsys):
    # with GF9_SEARCHED, orbit leaders share their refinement invariant and need a search
    search = cli.sg.are_isomorphic
    monkeypatch.setattr(cli.sg, "are_isomorphic", lambda g1, g2: search(g1, g2, cap=0))
    assert cli.main(["graphs", "--p", "3", "--m", "2", "--gens", GF9_SEARCHED]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: SizeCapExceeded: isomorphism search exceeds 0 refinement nodes\n"


def test_graphs_non_generating_set_errors():
    # a single a-coordinate generator leaves the coset graph disconnected
    code, _, err = run_cli("graphs", "--p", "2", "--m", "2", "--gens", "1,0|0,0|0,0")
    assert code == 2 and "NotGenerating" in err


def test_graphs_refuses_a_set_that_connects_every_graph_but_does_not_generate():
    # over GF(3), (0, 1, 0) and (0, 0, 1) generate only the abelian normal subgroup
    # {(0, b, c)} of order 9, and H_f·<S> = G for every f, so every coset graph is
    # connected; the (a, b) parts span a line of F_3^2, so graphs exits 2
    gens = "0|1|0;0|0|1"
    code, out, err = run_cli("graphs", "--p", "3", "--m", "1", "--gens", gens)
    assert code == 2 and out == ""
    assert err == ("error: NotGenerating: the generators do not generate H(GF(3^1)): their "
                   "(a, b) parts do not span F_3^2\n")
    spec = make_field(3, 1)
    group = heisenberg.heisenberg_group(spec)
    given = schreier.symmetrize_generators(group, cli.parse_generators(gens, spec))
    assert all(connected(schreier.build_coset_graph(
        heisenberg.twisted_subgroup(f, group), given)) for f in enumerate_class_reps(spec).reps)


def test_graphs_empty_gens_is_refused():
    # an empty --gens names no generator; it does not fall back on the default set
    code, out, err = run_cli("graphs", "--p", "2", "--m", "2", "--gens", "")
    assert code == 2 and out == ""
    assert err == "error: SpecMismatch: generator '' is not of the form a|b|c\n"


def test_graphs_custom_generating_set():
    gens = "1,0|0,0|0,0;0,1|0,0|0,0;0,0|1,0|0,0;0,0|0,1|0,0;0,0|0,0|1,0"
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "2", "--gens", gens)
    assert code == 0
    report = _report(out)
    cospectral = next(item for item in report["items"] if item["kind"] == "cospectral")
    assert cospectral["all_equal"]


# ---------------------------------------------------------------------------
# Tower / places / plan
# ---------------------------------------------------------------------------


def test_tower_2_3():
    code, out, _ = run_cli("tower", "--p", "2", "--j-max", "3")
    assert code == 0
    report = _report(out)
    assert [item["exact"] for item in report["items"]] == [1, 4, 64]
    assert [item["cited_lower"] for item in report["items"]] == [1, 2, 8]
    assert all(item["holds"] for item in report["items"])
    assert [item["gap"] for item in report["items"]] == [False, True, True]
    assert verify_report(report) == []


def test_places_small_bound_reports_and_fails_tolerance():
    code, out, _ = run_cli("places", "--ell", "3", "--bound", "100")
    report = _report(out)
    item = report["items"][0]
    ps = [r["p"] for r in cli.cmd_places(3, 100)[1]]
    assert {2, 3, 5, 17, 19} <= set(ps) and 13 not in ps and item["degree_ell_count"] == len(ps)
    # 17/24 is more than 0.02 from 2/3, so the strict default verdict fails
    assert item == {"kind": "place-scan", "scanned": 24, "degree_ell_count": 17, "holds": False}
    assert code == 1
    assert verify_report(report) == []
    code2, out2, _ = run_cli("places", "--ell", "3", "--bound", "100", "--tol", "1/10")
    assert code2 == 0 and _report(out2)["summary"]["verdict"] == "pass"


# the CLI in a fresh interpreter whose address space is capped at 1 GiB, so that a
# sieve or a set of powers past the scan limit fails at once instead of swapping
_CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from gassmann.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _capped_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=env,
                          capture_output=True, text=True)


# PRIME_EXACT_LIMIT = 1 mod 3 is the least composite that is_prime accepts, so a q at
# it is refused by its size before any Miller-Rabin round
_PAST_PROVED = (f"q={PRIME_EXACT_LIMIT} is not below {PRIME_EXACT_LIMIT}, where is_prime "
                "proves a prime")


@pytest.mark.parametrize("argv, message", [
    (("--bound", str(10**11)), "bound=100000000000 exceeds the scan limit 10000000"),
    (("--bound", "100", "--q", str(PRIME_EXACT_LIMIT)), _PAST_PROVED),
], ids=["bound", "q"])
def test_places_past_the_scan_limit_exits_2(argv, message):
    run = _capped_cli("places", "--ell", "3", *argv)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == f"error: SizeCapExceeded: {message}\n"


def test_places_with_an_ell_past_the_scan_limit_exits_2_before_any_primality_test():
    # the least candidate q = ell + 1 is past the limit, so a Mersenne prime of 969
    # digits is refused at once, where Miller-Rabin on it would take about a second
    ell = 2**3217 - 1
    started = time.perf_counter()
    run = _capped_cli("places", "--ell", str(ell), "--bound", "100")
    assert time.perf_counter() - started < 0.3
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == f"error: SpecMismatch: no prime q = 1 mod {ell} below 10000000\n"


# the CLI in a fresh interpreter that writes its peak RSS in kB, the high-water mark of
# its own address space, as the last line of stderr; the rusage of a child started by
# vfork counts the parent's pages too
_MEASURED_CLI = """
import sys
from gassmann.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _measured_cli(*argv: str) -> tuple[int, str, float, float]:
    """The exit code, stdout, wall seconds and peak RSS in MB of gassmann argv."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    started = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", _MEASURED_CLI, *argv], env=env,
                         capture_output=True, text=True)
    wall = time.perf_counter() - started
    return run.returncode, run.stdout, wall, int(run.stderr.splitlines()[-1]) / 1024


def test_places_near_the_scan_limit_costs_its_scan_alone(tmp_path):
    # q = 9999991 is a prime = 1 mod 3 just below the limit: 25 primes up to 100 are
    # scanned by one power each, and neither places nor verify lists the q - 1 powers
    # mod q; 17/25 misses 2/3 by more than the default 1/50, so places exits 1
    code, out, wall, rss = _measured_cli("places", "--ell", "3", "--q", "9999991", "--bound",
                                         "100")
    assert code == 1 and wall < 0.5 and rss < 60
    assert json.loads(out)["items"][0]["scanned"] == 25
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, wall, rss = _measured_cli("verify", str(path))
    assert (code, out) == (0, "verified\n") and wall < 0.5 and rss < 60


@pytest.mark.parametrize("field, value", [("bound", 10**11), ("q", PRIME_EXACT_LIMIT)])
def test_verify_of_a_place_scan_past_the_scan_limit_lists_one_problem(tmp_path, field, value):
    message = {"bound": f"bound={value} exceeds the scan limit 10000000",
               "q": _PAST_PROVED}[field]
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "100")
    report = json.loads(out)
    report["config"][field] = value
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    run = _capped_cli("verify", str(path))
    assert run.returncode == 1 and run.stdout == "verification failed\n"
    assert run.stderr == ("problem: item 0 (place-scan) fails its check: SizeCapExceeded: "
                          f"{message}\n")


def test_places_past_the_modulus_search_limit_scans_by_the_power_test():
    # a stated q is bounded by where is_prime proves it, not by the modulus search's
    # limit: 1000000009 is a prime = 1 mod 3, and the 25 primes up to 100 cost one
    # power each
    code, out, _ = run_cli("places", "--ell", "3", "--q", "1000000009", "--bound", "100")
    report = json.loads(out)
    assert code in (0, 1) and report["items"][0]["scanned"] == 25
    assert verify_report(report) == []


def test_places_jsonl_format():
    code, out, _ = run_cli("places", "--ell", "3", "--bound", "30", "--format", "jsonl")
    lines = [json.loads(line) for line in out.strip().split("\n")]
    records, summary = lines[:-1], lines[-1]
    assert [r["p"] for r in records] == [2, 3, 5, 11, 17, 19, 23]
    assert all(r == {"p": r["p"], "q": 7, "ell": 3, "degree": 3, "residue_size": str(r["p"]**3)}
               for r in records)
    assert summary["kind"] == "place-scan" and "records" not in summary


def test_plan_min_ell_growth():
    code, out, _ = run_cli("plan", "min-ell-growth", "--dim-g", "8", "--c", "1", "--r", "1")
    assert code == 0
    report = _report(out)
    item = report["items"][0]
    assert item["result"]["ell"] == 37
    labels = {c["label"]: c["holds"] for c in item["checks"]}
    assert labels["min-ell-growth@ell=37"] is True
    assert labels["min-ell-growth@ell=31"] is False
    assert verify_report(report) == []


def test_plan_growth_constant_and_novalid():
    code, out, _ = run_cli("plan", "growth-constant", "--p", "2", "--delta", "1",
                           "--d-p", "0", "--j-min", "30", "--j-max", "100")
    assert code == 0
    report = _report(out)
    assert len(report["items"][0]["checks"]) == 71
    assert verify_report(report) == []
    code, _, err = run_cli("plan", "growth-constant", "--p", "2", "--delta", "1",
                           "--d-p", "5000", "--j-min", "30", "--j-max", "100")
    assert code == 2 and "NoValidD" in err


def test_plan_tower_min_k():
    code, out, _ = run_cli(
        "plan", "tower-min-k", "--primes", "2,3,5,7", "--j", "1", "--ell0", "37",
        "--dim-g", "8", "--c-x", "4", "--x", "1", "--c", "1", "--r", "444",
    )
    assert code == 0
    report = _report(out)
    item = report["items"][0]
    assert item["result"]["k"] == 3
    by_label = {c["label"]: c["holds"] for c in item["checks"]}
    assert by_label["tower-full@k=3"] is True
    assert by_label["tower-full@k=2"] is False
    assert verify_report(report) == []


def test_plan_value_ops():
    code, out, _ = run_cli("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8")
    assert code == 0 and _report(out)["items"][0]["result"]["value"] == str(2**1036)
    code, out, _ = run_cli("plan", "level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2")
    assert code == 0 and _report(out)["items"][0]["result"]["value"] == "900"
    code, out, _ = run_cli("plan", "conjugates-bound", "--n-index", "64", "--x", "2",
                           "--big-c", "3", "--group-order", "512")
    assert code == 0 and _report(out)["items"][0]["result"]["value"] == str(2**18)
    code, out, _ = run_cli("plan", "volume-bound", "--big-c", "3", "--p", "2", "--j", "4")
    assert code == 0 and _report(out)["items"][0]["result"]["value"] == str(3 * 2**36)


def test_plan_headroom_checks():
    code, out, _ = run_cli("plan", "comm-classes", "--p", "2", "--ell0", "29",
                           "--dim-g", "8", "--c", "1", "--c-x", "3", "--n", "5")
    assert code == 0
    item = _report(out)["items"][0]
    assert item["result"]["value"] == str(2**87)
    assert item["checks"][0]["holds"]
    assert verify_report(_report(out)) == []
    # vacuous exponent makes the headroom condition fail, and the verdict says so
    code, out, _ = run_cli("plan", "nonarith-count", "--p", "2", "--ell", "2",
                           "--comm-index", "1", "--n", "1")
    assert code == 1
    assert _report(out)["summary"]["verdict"] == "fail"


def test_plan_min_ell_growth_with_chain():
    code, out, _ = run_cli("plan", "min-ell-growth", "--dim-g", "8", "--c", "1",
                           "--r", "1", "--p", "2", "--c-1", "1")
    assert code == 0
    item = _report(out)["items"][0]
    labels = {c["label"] for c in item["checks"]}
    assert {"chain-left", "chain-right"} <= labels
    assert verify_report(_report(out)) == []


def test_plan_input_validation_exits_2():
    code, _, err = run_cli("plan", "level-count", "--primes", "5,3,2", "--j", "2",
                           "--ell0", "2")
    assert code == 2 and "strictly increasing" in err
    code, _, err = run_cli("plan", "tower-min-k", "--primes", "2,3", "--j", "0",
                           "--ell0", "2", "--dim-g", "8", "--c-x", "1", "--x", "1",
                           "--c", "1", "--r", "1")
    assert code == 2 and "ExponentMarginNonpositive" in err
    code, _, err = run_cli("plan", "min-ell-growth", "--dim-g", "0", "--c", "1", "--r", "1")
    assert code == 2 and "dim_g" in err


_TOWER_MIN_K = ("tower-min-k", "--primes", "2,3,5,7", "--j", "1", "--ell0", "37", "--dim-g", "8",
                "--c-x", "4", "--c", "1", "--r", "444")


@pytest.mark.parametrize("argv, message", [
    (("twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "0"), "dim_g must be positive"),
    (("comm-classes", "--p", "2", "--ell0", "29", "--dim-g", "8", "--c", "-1"),
     "c must be non-negative"),
    (("comm-classes", "--p", "2", "--ell0", "29", "--dim-g", "8", "--n", "5", "--c-x", "0"),
     "c_x must be positive"),
    (("min-ell-sequence", "--dim-g", "8", "--r", "0"), "r must be positive"),
    (("min-ell-growth", "--dim-g", "8", "--p", "2", "--c-1", "0"), "c_1 must be positive"),
    (_TOWER_MIN_K + ("--x", "0"), "x must be positive"),
], ids=["dim_g", "c", "c_x", "r", "c_1", "x"])
def test_plan_rejects_a_bad_input_that_the_op_reads(argv, message):
    code, out, err = run_cli("plan", *argv)
    assert code == 2 and out == ""
    _one_line_error(err, "ValueError")
    assert message in err


@pytest.mark.parametrize("argv, unread", [
    (("twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"), ("--x", "0")),
    (("comm-classes", "--p", "2", "--ell0", "29", "--dim-g", "8"), ("--c-x", "0")),
    (("min-ell-growth", "--dim-g", "8"), ("--c-1", "0")),
    (("level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2"), ("--dim-g", "0")),
    (("min-ell-growth", "--dim-g", "8", "--p", "2", "--c-1", "1", "--ell0", "40"), ("--ell", "50")),
], ids=["x", "c_x-without-n", "c_1-without-p", "dim_g", "ell-above-ell0"])
def test_plan_ignores_a_bad_value_of_an_option_that_the_op_does_not_read(argv, unread):
    # only the inputs an op reads are validated, whichever other options are given
    code, out, _ = run_cli("plan", *argv)
    assert code == 0 and run_cli("plan", *argv, *unread)[:2] == (0, out)


def test_graphs_odd_characteristic():
    # generators and their inverses differ for p > 2; the graph stays symmetric
    code, out, _ = run_cli("graphs", "--p", "3", "--m", "1")
    assert code == 0
    report = _report(out)
    family = report["items"][0]
    assert family["vertices"] == 9  # [G : H] = 27 / 3
    assert family["degree"] == 4
    assert verify_report(report) == []


# ---------------------------------------------------------------------------
# Self-verification, formats, determinism
# ---------------------------------------------------------------------------


def test_verify_subcommand_detects_tampering(tmp_path):
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    good = tmp_path / "good.json"
    good.write_text(out)
    code, msg, _ = run_cli("verify", str(good))
    assert code == 0 and "verified" in msg
    report = json.loads(out)
    report["items"][1]["pair_count"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg


def test_verify_rejects_tampered_structural_conjugate_pairs(tmp_path):
    _, out, _ = run_cli("certify", "--p", "2", "--m", "3")
    report = json.loads(out)
    dichotomy = next(item for item in report["items"] if item["kind"] == "conjugacy-dichotomy")
    assert dichotomy["structural_conjugate_pairs"] == 0
    dichotomy["structural_conjugate_pairs"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg
    assert "structural_conjugate_pairs differs from the closed form" in err


def _tampered_family_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("certify", "--p", "2", "--m", "3")
    report = json.loads(out)
    tamper(next(item for item in report["items"] if item["kind"] == "gassmann-family"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli("verify", str(bad))
    return code, err


def test_verify_recomputes_the_expected_class_count(tmp_path):
    # the two stored counts agree with each other, but 5 is not 2^(2·1)
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    count = report["items"][0]
    assert count["kind"] == "class-count" and count["actual"] == 4
    count["actual"] = count["bruteforce_orbits"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg
    assert "problem: item 0 (class-count) holds True, but its evidence gives False" in err


# A report states no profile, class sizes or identity class: verify derives them from
# the config and, where the conjugator oracle runs, checks the class table against them
# in the oracle block.  Each fault below breaks the table after certify wrote the report.
_TABLE_PROBLEM = ("problem: item 2 (conjugacy-dichotomy) fails its check: SelfCheckFailed: "
                  "the class table gives a profile other than the closed form")


def _faulted_table_verify(tmp_path, monkeypatch, fault) -> tuple[int, str]:
    _, out, _ = run_cli("certify", "--p", "2", "--m", "3")
    fault(monkeypatch)
    return _verify_json(tmp_path, json.loads(out))


def test_verify_recomputes_the_class_sizes(tmp_path, monkeypatch):
    sizes = heisenberg.ConjugacyClassTable.sizes
    code, err = _faulted_table_verify(tmp_path, monkeypatch, lambda mp: mp.setattr(
        heisenberg.ConjugacyClassTable, "sizes", lambda table: (99,) + sizes(table)[1:]))
    assert code == 1 and err.splitlines() == [_TABLE_PROBLEM]


def test_verify_checks_the_identity_class_size(tmp_path, monkeypatch):
    # each subgroup meets a non-central class (x, 0, *) in exactly one element, so
    # every profile still has a 1 there; only the class index shows the fault
    q = 8
    assert family_class_sizes(q)[2 * q - 1] == q and family_profile(q)[2 * q - 1] == 1
    code, err = _faulted_table_verify(tmp_path, monkeypatch, lambda mp: mp.setattr(
        heisenberg.ConjugacyClassTable, "identity_class", lambda table: 2 * q - 1))
    assert code == 1 and err.splitlines() == [_TABLE_PROBLEM]


def test_verify_rejects_a_missing_profile(tmp_path, monkeypatch):
    profile = cli.cz.intersection_profile
    code, err = _faulted_table_verify(tmp_path, monkeypatch, lambda mp: mp.setattr(
        cli.cz, "intersection_profile", lambda sub, table: profile(sub, table)[:-1]))
    assert code == 1 and err.splitlines() == [_TABLE_PROBLEM]


def test_verify_rejects_a_wrong_pair_count(tmp_path):
    def tamper(family):
        family["pair_count"] = 5

    code, err = _tampered_family_verify(tmp_path, tamper)
    assert code == 1 and "pair_count" in err


def _moved_element(profile, q=4):
    moved = list(profile)
    assert moved[2 * q - 1] == 1 and moved[2 * q] == 0  # the classes of (1, 0, *), (1, 1, *)
    moved[2 * q - 1], moved[2 * q] = 0, 1
    return tuple(moved)


def _second_profile(monkeypatch, family):
    # a second profile, the last subgroup's, with one element moved between two
    # classes of size q
    profile, last = cli.cz.intersection_profile, list(all_linear_maps(make_field(2, 2)))[-1]
    monkeypatch.setattr(cli.cz, "intersection_profile", lambda sub, table: (
        _moved_element(profile(sub, table)) if sub.f == last else profile(sub, table)))


def _altered_profile(monkeypatch, family):
    profile = cli.cz.intersection_profile
    monkeypatch.setattr(cli.cz, "intersection_profile",
                        lambda sub, table: _moved_element(profile(sub, table)))


def _central_classes_last(monkeypatch, family):
    # rotating class sizes, identity class and profiles together keeps them consistent
    q, table_class = 4, heisenberg.ConjugacyClassTable
    sizes, identity, profile = (table_class.sizes, table_class.identity_class,
                                cli.cz.intersection_profile)
    monkeypatch.setattr(table_class, "sizes", lambda table: sizes(table)[q:] + sizes(table)[:q])
    monkeypatch.setattr(table_class, "identity_class",
                        lambda table: (identity(table) - q) % len(sizes(table)))
    monkeypatch.setattr(cli.cz, "intersection_profile", lambda sub, table: (
        profile(sub, table)[q:] + profile(sub, table)[:q]))


def _all_equal_false(monkeypatch, family):
    family["all_equal"] = False


@pytest.mark.parametrize("fault, message", [
    (_second_profile, _TABLE_PROBLEM),
    (_altered_profile, _TABLE_PROBLEM),
    (_central_classes_last, _TABLE_PROBLEM),
    (_all_equal_false, "problem: all_equal is not true, though every H_f has the same profile"),
], ids=["second-profile", "altered-profile", "central-classes-last", "all-equal-false"])
def test_verify_derives_the_family_profile(tmp_path, monkeypatch, fault, message):
    # each class-table fault keeps every profile summing to q with a 1 on the identity
    # class, so only the profile derived from the config shows it
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    fault(monkeypatch, report["items"][1])
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err.splitlines() == [message]


def test_verify_lists_a_split_class_over_the_search_budget(tmp_path, monkeypatch):
    # graphs 1 and 2 of GF(4) share their refinement invariant, so splitting
    # their class makes verify re-run a search that the budget cuts off
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    classes = next(item for item in report["items"] if item["kind"] == "isomorphism-classes")
    classes["class_of"] = [0, 1, 2, 3]
    classes["witnesses"][2] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    search = schreier.are_isomorphic
    monkeypatch.setattr(schreier, "are_isomorphic", lambda g1, g2: search(g1, g2, cap=0))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg
    assert err.splitlines() == [
        "problem: item 2 (isomorphism-classes) fails its check: SizeCapExceeded: isomorphism "
        "search exceeds 0 refinement nodes"]


def _gf9_report() -> dict:
    report, _ = cli.cmd_graphs(3, 2)
    classes = report["items"][2]
    assert classes["class_of"] == [0, 1, 1, 1, 2, 2, 1, 2, 2]
    assert classes["witnesses"][2] == {"sigma": 0, "lambda": 1, "mu": 3, "beta": 6}
    return report


def _set_witness(**fields):
    def forge(classes):
        classes["witnesses"][2].update(fields)
    return forge


def _drop_beta(classes):
    del classes["witnesses"][2]["beta"]


def _merge(classes):
    classes["class_of"][5] = 1  # its witness maps graph 5 onto graph 4


def _split(classes):
    classes["class_of"] = [0, 1, 2, 1, 3, 3, 1, 3, 3]
    classes["witnesses"][2] = None


_WITNESS_2 = "problem: witness of graph 2 does not map it onto graph 1"


@pytest.mark.parametrize("forge, problem", [
    (_set_witness(mu=4), _WITNESS_2),  # μ = 1 + t: the φ does not fix the generators
    (_set_witness(beta=7), _WITNESS_2),
    (_set_witness(sigma=2), _WITNESS_2), (_set_witness(sigma=-1), _WITNESS_2),
    (_set_witness(**{"lambda": 9}), _WITNESS_2), (_set_witness(mu=0), _WITNESS_2),
    (_set_witness(beta=-1), _WITNESS_2),
    (_set_witness(beta="6"), _WITNESS_2), (_set_witness(beta=6.0), _WITNESS_2),
    (_set_witness(sigma=False), _WITNESS_2), (_drop_beta, _WITNESS_2),
    (_set_witness(nu=0), _WITNESS_2),
    (_merge, "problem: witness of graph 5 does not map it onto graph 1"),
    (_split, "problem: graphs 1 and 2 open two classes but are isomorphic"),
], ids=["phi-not-fixing-the-generators", "wrong-beta", "sigma-past-m", "sigma-negative",
        "lambda-past-q", "mu-zero", "beta-negative", "beta-string", "beta-float",
        "sigma-false", "beta-missing", "extra-key", "class-merged", "class-split"])
def test_verify_refuses_each_forged_orbit_witness(tmp_path, forge, problem):
    report = _gf9_report()
    forge(report["items"][2])
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err.splitlines() == [problem]


def _tampered_graph_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    tamper(next(item for item in report["items"] if item["kind"] == "coset-graphs"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert msg == ("verified\n" if code == 0 else "verification failed\n")
    return code, err


def test_verify_lists_a_huge_multiplicity(tmp_path):
    # a generator count past any real one is compared, never used
    def tamper(family):
        family["degree"] = 10**1500

    code, err = _tampered_graph_verify(tmp_path, tamper)
    assert code == 1 and err.splitlines() == [
        "problem: degree of the coset graphs differs from the class reps' graphs built from "
        "the config"]


@pytest.mark.parametrize("field, value, problem", [
    # schema 4 stated each graph's connected flag; the family states none
    ("connected", False, "item 0 (coset-graphs) has a key that graphs does not write: "
                         "'connected'"),
    ("vertices", 15, None), ("vertices", 16.0, None), ("degree", 6, None),
    ("degree", True, None), ("count", 5, None), ("count", 4.0, None), ("mode", "all-twists", None),
], ids=["connected", "vertices", "vertices-float", "generators", "generators-bool", "count",
        "count-float", "mode"])
def test_verify_rebuilds_each_graph_from_its_label(tmp_path, field, value, problem):
    # each graph is rebuilt from its class rep, whose label schema 4 stored: the
    # family's mode, count, vertices and degree are derived from those builds
    def tamper(family):
        family[field] = value

    code, err = _tampered_graph_verify(tmp_path, tamper)
    message = problem or (f"{field} of the coset graphs differs from the class reps' graphs "
                          "built from the config")
    assert code == 1 and err.splitlines() == [f"problem: {message}"]


def test_verify_bounds_the_catalog_by_the_stored_classes(monkeypatch):
    # a GF(4) report claiming GF(32): 2^20 class reps against the 4 that class_of
    # lists, so no catalog is enumerated and no graph is built
    def refuse(*args, **kwargs):
        raise AssertionError("the catalog is enumerated past the stored classes")

    report, _ = cli.cmd_graphs(2, 2)
    report["config"].update(m=5, cap=2**40)
    monkeypatch.setattr(schreier, "enumerate_class_reps", refuse)
    # the bound comes before the field is made
    monkeypatch.setattr(reports, "make_field", refuse)
    problems = verify_report(report)
    # the three items read the same graphs, whose build fails once
    assert problems == ["item 0 (coset-graphs) fails its check: SpecMismatch: class_of does "
                        "not list the p^(m(m-1)) class reps"]


def test_verify_lists_a_disconnected_graph(tmp_path):
    # the config's one generator (1, 0, 0) is its own inverse, but it does not
    # generate, and each coset graph falls apart; verify reads that off the rank of
    # the (a, b) parts, as graphs does, with no graph searched
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["config"]["generators"] = [[[1, 0], [0, 0], [0, 0]]]
    report["items"][0]["degree"] = 1
    code, err = _verify_json(tmp_path, report)
    assert code == 1
    assert ("problem: the config's generators do not generate the group: their (a, b) parts "
            "do not span F_p^(2m)") in err.splitlines()


@pytest.mark.parametrize("tamper", [list.pop, list.reverse], ids=["inverse-dropped", "unsorted"])
def test_verify_checks_the_config_generators(tmp_path, tamper):
    # over GF(3), (2, 0, 0) is the inverse of (1, 0, 0); without it the rows are
    # those of a directed graph
    _, out, _ = run_cli("graphs", "--p", "3", "--m", "1")
    report = json.loads(out)
    tamper(report["config"]["generators"])
    code, err = _verify_json(tmp_path, report)
    assert code == 1
    assert ("problem: the config's generators are not distinct, sorted and closed under "
            "inverses") in err.splitlines()


def _tampered_cospectral_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    cospectral = report["items"][-2]
    assert cospectral.keys() == {"kind", "charpoly", "all_equal", "holds"}
    tamper(cospectral)
    return _verify_json(tmp_path, reports.finalize(report))


def _stale_key(key, value):
    # schema 7 stated each graph's charpoly by its index into the distinct ones, and the
    # pair count of the family; Sunada's theorem leaves one polynomial, so neither is read
    def tamper(cospectral):
        cospectral[key] = value
    return tamper


def _other_charpoly(cospectral):
    cospectral["charpoly"][2] += 1


def _all_equal_false(cospectral):
    cospectral["all_equal"] = cospectral["holds"] = False


def _stale_distinct_charpolys(cospectral):
    cospectral["distinct_charpolys"] = [cospectral.pop("charpoly")]


def _stale(key):
    return f"problem: item 1 (cospectral) has a key that graphs does not write: {key!r}"


_OTHER = ("problem: charpoly is not the characteristic polynomial of H_0's coset graph, built "
          "from the config")


@pytest.mark.parametrize("tamper, problems", [
    (_stale_key("charpoly_index", [0, 0, 1, 0]), [_stale("charpoly_index")]),
    (_stale_key("charpoly_index", [0, 0, -1, 0]), [_stale("charpoly_index")]),
    (_stale_key("charpoly_index", ["0"] * 4), [_stale("charpoly_index")]),
    (_stale_key("charpoly_index", [0.0] * 4), [_stale("charpoly_index")]),
    (_stale_key("charpoly_index", [False] * 4), [_stale("charpoly_index")]),
    (_stale_key("charpoly_index", [True] * 4), [_stale("charpoly_index")]),
    (_stale_distinct_charpolys, [_stale("distinct_charpolys"),
                                 "problem: item 1 (cospectral) is malformed: KeyError: "
                                 "'charpoly'"]),
    (_all_equal_false, ["problem: all_equal is not true, though every H_f over a field has "
                        "the one profile, and so the one spectrum",
                        "problem: item 1 (cospectral) holds False, but its evidence gives True"]),
    (_other_charpoly, [_OTHER]),
    (_stale_key("pair_count", 6), [_stale("pair_count")]),
], ids=["index-out-of-range", "index-negative", "index-string", "index-float", "index-false",
        "index-true", "unused-charpoly", "repeated-charpoly", "charpoly-out-of-order",
        "stale-pair-count"])
def test_verify_checks_the_distinct_charpolys_and_their_index(tmp_path, tamper, problems):
    # the schema-7 forgeries of the distinct charpolys and their index: each stale key
    # is refused, and so are a forged polynomial and all_equal false
    code, err = _tampered_cospectral_verify(tmp_path, tamper)
    assert code == 1 and err.splitlines() == problems


# From the graphs reports of --p 2 --m 2, --p 2 --m 3 and --p 3 --m 2 before schema 6,
# which stored every witness as a permutation: SHA-256 of the compact JSON of [the
# graphs' charpolys as integers in rep order, class_of].  Each stored witness, a
# permutation or the vertex map of an automorphism, is checked on every row.
SCHEMA_2_GRAPH_FACTS = {
    (2, 2): "09e2aa8e4c1b825d896f78b849356ad0898bc453287e6bcc489796edba262dca",
    (2, 3): "2d2dd1b70211aaf60f93c44a3f62a6415fe0589a62d7c28d80a25ee1648e7992",
    (3, 2): "8a88b81c2cd538aff11a51a65b432183effcb67efe701d9a83f310512d21b3a3",
}


@pytest.mark.parametrize("p, m", list(SCHEMA_2_GRAPH_FACTS), ids=lambda v: str(v))
def test_graph_facts_survive_the_schema_bump(p, m):
    report, _ = cli.cmd_graphs(p, m)
    cospectral, classes = report["items"][-2:]
    # schema 8 states the one polynomial that Sunada's theorem gives every graph
    polys = [[int(c) for c in cospectral["charpoly"]]] * len(classes["class_of"])
    payload = json.dumps([polys, classes["class_of"]], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == SCHEMA_2_GRAPH_FACTS[p, m]
    spec = make_field(p, m)
    group = heisenberg.heisenberg_group(spec)
    graphs = [schreier.build_coset_graph(heisenberg.twisted_subgroup(f, group),
                                         schreier.default_generators(group))
              for f in enumerate_class_reps(spec).reps]
    class_of = classes["class_of"]
    for k, witness in enumerate(classes["witnesses"]):
        first = class_of.index(class_of[k])
        if isinstance(witness, dict):
            witness = schreier.witness_permutation(spec, schreier.OrbitWitness(
                witness["sigma"], witness["lambda"], witness["mu"], witness["beta"]))
        assert (witness is None) == (k == first)
        assert k == first or schreier.maps_onto(graphs[k].rows, graphs[first].rows, witness)


# From the schema-3 certify reports, which listed every subgroup's label and profile
# index: SHA-256 of the compact JSON of the facts that any layout must keep.  Schema 4
# states the family by its definition and its one profile as a flat list.  Schema 7
# drops the facts that restate others or the config; the test rebuilds each from the
# kept fields and the closed forms, so the hashes prove they were restatements.
SCHEMA_3_CERTIFY_FACTS = {
    (2, 1): "bacb4dddb3394e0d237bffd5ade826cdf4485e0d5546b759e4a2a46bf48ca28b",
    (2, 2): "60b7cf23d4b90b616238eac534d961a513503f55ea21bd7830fa653d5b8a9ced",
    (2, 3): "4081fa13f91d1d8443053b1cbcac9211113fdde56aa7b8d45fd2dc8b3538af6a",
    (3, 2): "8b876fd117a09f1c6e5e0c2152ce04536e38529ec91d586a8673d6899362f311",
    (3, 3): "ce97d15f025ac58f22b5d1be9151bfa70828015b95b173f2926b27ddc6f4c0d1",
    (17, 1): "9c43ac6595731726a7f2e298ae049e05ef9c43034625fc83f06eb95cd0e31f5e",
}


@pytest.mark.parametrize("p, m", list(SCHEMA_3_CERTIFY_FACTS), ids=lambda v: str(v))
def test_certify_facts_survive_the_schema_bump(p, m):
    report = cli.cmd_certify(p, m)
    count, family, dichotomy = report["items"]
    q, conjugate_pairs = p**m, dichotomy["structural_conjugate_pairs"]
    facts = [[p ** (m * (m - 1)), count["actual"], count["bruteforce_orbits"]],
             [family_profile(q), family_class_sizes(q), 0],
             [family["pair_count"], family["pair_count"], conjugate_pairs],
             [dichotomy["bruteforce_checked"], dichotomy["structural_equals_bruteforce"],
              conjugate_pairs == 0 if family["mode"] == "class-reps" else None],
             [item["holds"] for item in report["items"]]]
    payload = json.dumps(facts, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == SCHEMA_3_CERTIFY_FACTS[p, m]


def _tampered_places_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "1000")
    report = json.loads(out)
    assert verify_report(report) == []
    tamper(report["items"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert msg == ("verified\n" if code == 0 else "verification failed\n")
    return code, err


def test_verify_counts_the_place_records(tmp_path):
    # the scan counts the primes of residue degree ell, which the report no longer lists
    def tamper(scan):
        scan["degree_ell_count"] -= 1

    code, err = _tampered_places_verify(tmp_path, tamper)
    assert code == 1 and err.splitlines() == [
        "problem: degree_ell_count does not count the primes of residue degree ell=3 up to the "
        "bound"]


@pytest.mark.parametrize("field, value", [("tolerance", "1/10"), ("cebotarev_density", "17/24")])
def test_verify_takes_the_tolerance_and_density_target_from_the_config(tmp_path, field, value):
    # at bound 100 the density 17/24 misses 2/3 by more than the 1/50 tolerance; a
    # looser tolerance or a moved target stored in the item, as schema 8 stored them,
    # is a key that places does not write, and leaves the verdict to the config
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "100")
    report = json.loads(out)
    scan = report["items"][0]
    assert (scan["scanned"], scan["degree_ell_count"], scan["holds"]) == (24, 17, False)
    scan[field] = value
    scan["holds"] = True
    report["summary"].update(verdict="pass", failed_items=[])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and err.splitlines() == [
        f"problem: item 0 (place-scan) has a key that places does not write: {field!r}",
        "problem: item 0 (place-scan) holds True, but its evidence gives False"]


def test_graphs_and_verify_never_read_the_dense_adjacency(monkeypatch):
    # the rows are the only graph format in production; the dense matrix is the oracles' view
    def refuse(graph):
        raise AssertionError("dense adjacency read outside the oracles")

    monkeypatch.setattr(cli.sg.CosetGraph, "adjacency", property(refuse))
    report, _ = cli.cmd_graphs(2, 3)
    assert report["summary"]["verdict"] == "pass"
    assert verify_report(report) == []


def test_graphs_never_enumerate_the_group_or_a_subgroup(monkeypatch):
    # the coset graphs of H_f come in closed form, with no hidden walk over G or H_f
    expected, _ = cli.cmd_graphs(2, 3)

    def refuse(owner):
        raise AssertionError(f"{type(owner).__name__}.elements enumerated by graphs")

    monkeypatch.setattr(heisenberg.Heisenberg, "elements", property(refuse))
    monkeypatch.setattr(heisenberg.TwistedSubgroup, "elements", property(refuse))
    report, _ = cli.cmd_graphs(2, 3)
    assert reports.canonical_json(report) == reports.canonical_json(expected)


def test_a_subgroup_that_is_not_twisted_exits_2(monkeypatch, capsys):
    # production builds coset graphs of H_f only; any other subgroup is a spec mismatch
    monkeypatch.setattr(schreier, "twisted_subgroup", lambda f, group: center_subgroup(group))
    assert cli.main(["graphs", "--p", "2", "--m", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: SpecMismatch: coset graphs are built for twisted subgroups H_f, "
                   "not a PlainSubgroup\n")


def test_verify_recomputes_the_tower_count(tmp_path):
    _, out, _ = run_cli("tower", "--p", "2", "--j-max", "3")
    report = json.loads(out)
    item = report["items"][2]
    assert (item["j"], item["exact"], item["cited_lower"]) == (3, 64, 8)
    item["exact"], item["gap"] = 8, False  # the gap flag agrees, and 8 >= 8 holds
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg
    assert "tower-count exact or cited_lower differs" in err


def _verify_json(tmp_path, report: dict) -> tuple[int, str]:
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert msg == ("verified\n" if code == 0 else "verification failed\n")
    return code, err


# one real report per item kind that verify knows
_HOLDS_CASES = {
    "class-count": ("certify", "--p", "2", "--m", "2"),
    "gassmann-family": ("certify", "--p", "2", "--m", "2"),
    "conjugacy-dichotomy": ("certify", "--p", "2", "--m", "2"),
    "coset-graphs": ("graphs", "--p", "2", "--m", "2"),
    "cospectral": ("graphs", "--p", "2", "--m", "2"),
    "isomorphism-classes": ("graphs", "--p", "2", "--m", "2"),
    "tower-count": ("tower", "--p", "2", "--j-max", "4"),
    "place-scan": ("places", "--ell", "3", "--bound", "1000"),
    "plan": ("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"),
}


@pytest.mark.parametrize("kind", sorted(reports._VERIFIERS))
def test_verify_rederives_every_holds_flag(tmp_path, kind):
    # a flipped holds flag with a summary that agrees with it is still a forgery
    _, out, _ = run_cli(*_HOLDS_CASES[kind])
    report = json.loads(out)
    item = next(item for item in report["items"] if item["kind"] == kind)
    item["holds"] = not item["holds"]
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and "but its evidence gives" in err


def _orbit_count_of_five(monkeypatch):
    monkeypatch.setattr(cli.cz, "twist_orbit_count_bruteforce", lambda spec, cap=None: 5)


def _oracle_merging_two_classes(monkeypatch):
    keys = cli.cz.bruteforce_subgroup_keys
    monkeypatch.setattr(cli.cz, "bruteforce_subgroup_keys",
                        lambda group, subgroups: _merge_two_classes(keys(group, subgroups)))


@pytest.mark.parametrize("argv, fault", [
    (("certify", "--p", "2", "--m", "2"), _orbit_count_of_five),
    (("certify", "--p", "2", "--m", "2"), _oracle_merging_two_classes),
    (("places", "--ell", "3", "--bound", "100"), None),
    (("plan", "comm-classes", "--p", "2", "--ell0", "3", "--dim-g", "8", "--n", "2"), None),
], ids=["class-count", "conjugacy-dichotomy", "place-scan", "plan"])
def test_verify_accepts_a_failing_verdict_that_the_evidence_gives(monkeypatch, argv, fault):
    if fault is not None:
        fault(monkeypatch)
    code, out, _ = run_cli(*argv)
    report = json.loads(out)
    assert code == 1 and report["summary"]["verdict"] == "fail"
    assert verify_report(report) == []


@pytest.mark.parametrize("field, value", [("items", 99), ("failed_items", [0])])
def test_verify_checks_the_whole_summary(tmp_path, field, value):
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["summary"][field] = value
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and "summary does not match the items' holds flags" in err


def _drop_isomorphism_classes(report):
    report["items"].pop()


def _list_an_item_twice(report):
    report["items"].append(dict(report["items"][0]))


def _keep_the_first_level(report):
    del report["items"][1:]


def _one_family_item_per_rep(report):
    # schema 4 listed one coset-graph item per class rep
    report["items"][:1] = [dict(report["items"][0]) for _ in range(4)]


def _swap_two_levels(report):
    first, second = report["items"][:2]
    first["j"], second["j"] = second["j"], first["j"]


def _change_the_op(report):
    report["config"]["op"] = "twisted-count"


@pytest.mark.parametrize("argv, tamper", [
    (("graphs", "--p", "2", "--m", "2"), _drop_isomorphism_classes),
    (("certify", "--p", "2", "--m", "2"), _list_an_item_twice),
    (("tower", "--p", "2", "--j-max", "4"), _keep_the_first_level),
    (("graphs", "--p", "2", "--m", "2"), _one_family_item_per_rep),
    (("tower", "--p", "2", "--j-max", "4"), _swap_two_levels),
    (("plan", "comm-classes", "--p", "2", "--ell0", "3", "--dim-g", "8"), _change_the_op),
], ids=["graphs", "certify", "tower", "graphs-rep", "tower-j", "plan-op"])
def test_verify_checks_the_item_layout_against_the_config(tmp_path, argv, tamper):
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    tamper(report)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and f"the items are not those of a {argv[0]} report with its config" in err


def _drop_the_required_check(report):
    plan = report["items"][0]
    assert [c["label"] for c in plan["checks"]] == plan["required_checks"] == ["isometry-headroom"]
    plan["checks"] = []
    del plan["required_checks"]
    plan["holds"] = True


def test_verify_derives_the_required_checks_of_a_plan(tmp_path):
    # a failing comm-classes report turned into a pass by deleting its one
    # required check and the requirement: verify reads it from --n in the inputs
    _, out, _ = run_cli("plan", "comm-classes", "--p", "2", "--ell0", "3", "--dim-g", "8",
                        "--n", "2")
    report = json.loads(out)
    assert report["summary"]["verdict"] == "fail"
    _drop_the_required_check(report)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1
    assert "required_checks are not those that the op, inputs and result require" in err
    assert "required check isometry-headroom is missing" in err


def _class_count_true(report):
    count = report["items"][0]
    assert count["actual"] == count["bruteforce_orbits"] == 1
    count["actual"] = count["bruteforce_orbits"] = True


def _charpoly_lead_true(report):
    # the leading coefficient 1 of the one charpoly
    report["items"][-2]["charpoly"][0] = True


def _first_class_false(report):
    report["items"][-1]["class_of"][0] = False


def _first_level_true(report):
    report["items"][0]["j"] = True


def _first_level_count_true(report):
    level = report["items"][0]
    assert level["j"] == 1 and level["exact"] == level["cited_lower"] == 1
    level["exact"] = level["cited_lower"] = True


@pytest.mark.parametrize("argv, tamper", [
    (("certify", "--p", "2", "--m", "1"), _class_count_true),
    (("graphs", "--p", "2", "--m", "2"), _charpoly_lead_true),
    (("graphs", "--p", "2", "--m", "2"), _first_class_false),
    (("tower", "--p", "2", "--j-max", "3"), _first_level_true),
    (("tower", "--p", "2", "--j-max", "3"), _first_level_count_true),
], ids=["class-count", "charpoly", "class-of", "tower-level",
        "tower-count"])
def test_verify_does_not_read_a_boolean_as_a_count(tmp_path, argv, tamper):
    # Python's == takes true for 1 and false for 0; verify compares JSON types too
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    tamper(report)
    code, _ = _verify_json(tmp_path, report)
    assert code == 1


def test_verify_rejects_an_unknown_command(tmp_path):
    _, out, _ = run_cli("tower", "--p", "2", "--j-max", "2")
    report = json.loads(out)
    report["command"] = "towers"
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and "unknown command 'towers'" in err


def test_verify_counts_the_family_from_the_config(tmp_path):
    # one subgroup of the 16 in all-twists mode over GF(4), with its pair count to match
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    family = report["items"][1]
    assert family["mode"] == "all-twists" and family["count"] == 16
    family.update(count=1, pair_count=0)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and "the family is not the all-twists family of the config" in err


@pytest.mark.parametrize("argv, index, field, value, message", [
    (("certify", "--p", "2", "--m", "2"), 0, "actual", 5,
     "item 0 (class-count) holds True, but its evidence gives False"),
    (("certify", "--p", "2", "--m", "2"), 1, "mode", "class-reps",
     "the family is not the all-twists family of the config"),
    (("certify", "--p", "2", "--m", "2"), 1, "pair_count", 105,  # 15·14/2, one subgroup short
     "pair_count is not n(n-1)/2 for the family's n subgroups"),
], ids=["actual", "mode", "pairs"])
def test_verify_rejects_each_forged_certify_field(tmp_path, argv, index, field, value, message):
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    report["items"][index][field] = value
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and f"problem: {message}" in err.splitlines()[0]


def test_verify_recomputes_the_structural_conjugate_pairs(tmp_path):
    # 16 maps in 4 classes of 4 give 4·6 = 24 conjugate pairs; 7 stays inside [0, pairs]
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    dichotomy = report["items"][2]
    assert dichotomy["structural_conjugate_pairs"] == 24
    dichotomy["structural_conjugate_pairs"] = 7
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and "structural_conjugate_pairs differs from the closed form" in err


def test_verify_takes_the_dichotomy_verdict_from_the_labels(tmp_path):
    # a consistent forged failure: one conjugate pair among the 64 GF(8) class reps
    _, out, _ = run_cli("certify", "--p", "2", "--m", "3")
    report = json.loads(out)
    dichotomy = report["items"][2]
    assert dichotomy["structural_conjugate_pairs"] == 0
    dichotomy.update(structural_conjugate_pairs=1, holds=False)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1
    assert "item 2 (conjugacy-dichotomy) holds False, but its evidence gives True" in err


@pytest.mark.parametrize("argv, label", [
    (("plan", "min-ell-growth", "--dim-g", "8", "--c", "1", "--r", "1"), "min-ell-growth@ell=31"),
    (("plan", "min-ell-growth", "--dim-g", "8", "--c", "1", "--r", "1"), "min-ell-growth@ell=37"),
    (("plan", "growth-constant", "--p", "2", "--delta", "1", "--d-p", "0",
      "--j-min", "30", "--j-max", "33"), "growth@j=31"),
], ids=["min-ell-growth-unrequired", "min-ell-growth-required", "growth-constant"])
def test_verify_rederives_each_plan_check(tmp_path, argv, label):
    # a check's stored flag must be the verdict its inequality gives, required or not
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    check = next(c for c in report["items"][0]["checks"] if c["label"] == label)
    check["holds"] = not check["holds"]
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and err == f"problem: check {label} does not re-verify\n"


_GROWTH = ("plan", "growth-constant", "--p", "2", "--j-min", "30", "--j-max", "32")
_MIN_ELL_GROWTH = ("plan", "min-ell-growth", "--dim-g", "8", "--c", "1", "--r", "1")


def _constant_times_1000_with_every_lhs_1(plan):
    plan["result"]["constant"] = str(Fraction(plan["result"]["constant"]) * 1000)
    for check in plan["checks"]:
        check["lhs"] = "1"


def _ln_p_from_0_to_a_thousandth(plan):
    plan["result"]["ln_p"] = {"lo": "0", "hi": "1/1000"}


def _one_rhs_a_million(plan):
    plan["checks"][1]["rhs"] = str(10**6)


def _one_lhs_1(plan):
    plan["checks"][1]["lhs"] = "1"  # 1 < rhs, so the check still holds


def _constant_over_1000_with_its_checks(plan):
    # a smaller constant whose checks all hold is a true inequality, but not the constant
    constant = Fraction(plan["result"]["constant"]) / 1000
    hi = Fraction(plan["result"]["ln_p"]["hi"])
    plan["result"]["constant"] = str(constant)
    for j, check in zip(range(30, 33), plan["checks"]):
        check["lhs"] = str(constant * hi * (9 * j + 1) ** 2)


def _exponent_7253(plan):
    assert plan["result"]["exponent"] == 1036
    plan["result"]["exponent"] = 7253


def _vacuous_true(plan):
    plan["result"]["vacuous"] = True


def _value_6301(plan):
    assert plan["result"]["value"] == "900"
    plan["result"]["value"] = "6301"


def _dim_g_10_to_the_12(plan):
    plan["inputs"]["dim_g"] = 10**12


def _ell_41_with_checks_at_41_and_37(plan):
    # ell(ell-1) - ell(3*8+1) - ell*8 - 1 is 286 at 41 and 110 at 37: both hold
    plan["result"]["ell"] = 41
    plan["checks"] = [
        {"label": "min-ell-growth@ell=41", "lhs": "286", "op": ">", "rhs": "0", "holds": True},
        {"label": "min-ell-growth@ell=37", "lhs": "110", "op": ">", "rhs": "0", "holds": True},
    ]
    plan["required_checks"] = ["min-ell-growth@ell=41"]


def _op_of_a_check_flipped(plan):
    plan["checks"][0].update(op="<", holds=False)
    plan["holds"] = False


def _ell_6_which_is_not_prime(plan):
    # at dim_g 1, c 0, r 1 the left side ell^2 - 5 ell - 1 is 5 at 6 and -1 at 5
    plan["result"]["ell"] = 6
    plan["checks"] = [
        {"label": "min-ell-growth@ell=6", "lhs": "5", "op": ">", "rhs": "0", "holds": True},
        {"label": "min-ell-growth@ell=5", "lhs": "-1", "op": ">", "rhs": "0", "holds": False},
    ]
    plan["required_checks"] = ["min-ell-growth@ell=6"]


def _k_4_with_checks_at_4_and_3(plan):
    # primes 2, 3, 5, 7 from j = 1, with C_X = 4, x^c = 1, r = 444 and ell0 = 37, dim_g = 8
    def product(primes, e):
        return math.prod(primes) ** e

    primes, target = [2, 3, 5, 7], 4 * 2**888
    plan["result"]["k"] = 4
    plan["checks"] = [check.to_json() for level in (4, 3) for check in (
        planner.IneqCheck(f"tower-product@k={level}", product(primes[1:level], 444), ">", target),
        planner.IneqCheck(f"tower-full@k={level}", 4 * product(primes[:level], 888), "<",
                          product(primes[1:level], 37 * 36)))]
    plan["required_checks"] = ["tower-full@k=4", "tower-product@k=4"]


def _ell_31_with_both_checks_failing(plan):
    # at 31 and 29 the left side is -32 and -88: a self-consistent failing report
    plan["result"]["ell"] = 31
    plan["checks"] = [
        {"label": "min-ell-growth@ell=31", "lhs": "-32", "op": ">", "rhs": "0", "holds": False},
        {"label": "min-ell-growth@ell=29", "lhs": "-88", "op": ">", "rhs": "0", "holds": False},
    ]
    plan["required_checks"] = ["min-ell-growth@ell=31"]
    plan["holds"] = False


def _k_2_below_the_least_level(plan):
    # the least level is 3; at 2 and 1 the product condition fails, so the stated
    # checks and a failing verdict agree with each other
    inputs = plan["inputs"]
    target = planner._tower_side(inputs, 1)
    plan["result"]["k"] = 2
    plan["checks"] = [check.to_json() for level in (2, 1) for check in (
        planner.IneqCheck(f"tower-product@k={level}", 3 ** (444 * (level - 1)), ">", target),
        planner.IneqCheck(f"tower-full@k={level}", planner._tower_side(inputs, level), "<",
                          3 ** (37 * 36 * (level - 1))))]
    plan["required_checks"] = ["tower-full@k=2", "tower-product@k=2"]
    plan["holds"] = False


def _margin_0_with_the_least_ratio(plan):
    # with no margin the constant is the least ratio itself, and its check fails
    hi = Fraction(plan["result"]["ln_p"]["hi"])
    constant = Fraction(plan["result"]["constant"]) / (1 - Fraction(1, 1024))
    plan["inputs"]["margin"] = "0"
    plan["result"]["constant"] = str(constant)
    for j, check in zip(range(30, 33), plan["checks"]):
        lhs = constant * hi * (9 * j + 1) ** 2
        check.update(lhs=str(lhs), holds=lhs < Fraction(check["rhs"]))
    plan["holds"] = all(check["holds"] for check in plan["checks"])
    assert not plan["holds"]


def _a_label_changed(plan):
    plan["checks"][1]["label"] = "min-ell-growth@ell=29"


def _failing_check_dropped(plan):
    assert plan["checks"].pop()["label"] == "min-ell-growth@ell=31"


def _a_check_appended(plan):
    plan["checks"].append(dict(plan["checks"][0], label="extra"))


def _an_input_it_does_not_read(plan):
    plan["inputs"]["x"] = 1


_PLAN_FORGERIES = [
    (_GROWTH, _constant_times_1000_with_every_lhs_1,
     "fails its check: SelfCheckFailed: the constant is not (1 - margin) times the least ratio"),
    (_GROWTH, _ln_p_from_0_to_a_thousandth,
     "fails its check: SelfCheckFailed: ln_p is not one of the 12 enclosures of ln 2"),
    (_GROWTH, _one_rhs_a_million, "check growth@j=31 is not growth@j=31 as the op's inputs"),
    (_GROWTH, _one_lhs_1, "check growth@j=31 is not growth@j=31 as the op's inputs"),
    (_GROWTH, _constant_over_1000_with_its_checks,
     "fails its check: SelfCheckFailed: the constant is not (1 - margin) times the least ratio"),
    (("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"), _exponent_7253,
     "result differs from the one that the op's inputs give"),
    (("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"), _vacuous_true,
     "result differs from the one that the op's inputs give"),
    (("plan", "level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2"), _value_6301,
     "result differs from the one that the op's inputs give"),
    (_MIN_ELL_GROWTH, _dim_g_10_to_the_12,
     "fails its check: SelfCheckFailed: min-ell-growth@ell=37 does not hold"),
    (_MIN_ELL_GROWTH, _ell_41_with_checks_at_41_and_37,
     "fails its check: SelfCheckFailed: predecessor certificate unexpectedly passes"),
    (_MIN_ELL_GROWTH, _op_of_a_check_flipped,
     "check min-ell-growth@ell=37 is not min-ell-growth@ell=37 as the op's inputs"),
    (("plan", "min-ell-growth", "--dim-g", "1", "--c", "0", "--r", "1"),
     _ell_6_which_is_not_prime, "fails its check: SelfCheckFailed: ell=6 is not prime"),
    (("plan",) + _TOWER_MIN_K, _k_4_with_checks_at_4_and_3,
     "fails its check: SelfCheckFailed: product condition already holds at k=3"),
    (_MIN_ELL_GROWTH, _ell_31_with_both_checks_failing,
     "fails its check: SelfCheckFailed: min-ell-growth@ell=31 does not hold"),
    (("plan",) + _TOWER_MIN_K, _k_2_below_the_least_level,
     "fails its check: SelfCheckFailed: tower certificate at k=2 does not hold"),
    (_GROWTH, _margin_0_with_the_least_ratio,
     "fails its check: SelfCheckFailed: a growth check fails at this enclosure of ln p"),
    (_MIN_ELL_GROWTH, _a_label_changed,
     "check min-ell-growth@ell=29 is not min-ell-growth@ell=31 as the op's inputs"),
    (_MIN_ELL_GROWTH, _failing_check_dropped, "problem: check min-ell-growth@ell=31 is missing"),
    (_MIN_ELL_GROWTH, _a_check_appended,
     "check extra is not one that the op's inputs and result give"),
    (("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"),
     _an_input_it_does_not_read, "inputs are not the options that plan twisted-count reads"),
]


@pytest.mark.parametrize("argv, forge, message", _PLAN_FORGERIES,
                         ids=[forge.__name__.strip("_") for _, forge, _ in _PLAN_FORGERIES])
def test_verify_derives_every_plan_operand(tmp_path, argv, forge, message):
    # each forgery keeps the stored checks' flags, the item's holds and the summary
    # consistent with the stored operands, so only a derived operand exposes it
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    forge(report["items"][0])
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and message in err


def _inflated(name, value=10**12):
    return lambda plan: plan["inputs"].update({name: value})


@pytest.mark.parametrize("argv, forge", [
    (_GROWTH, _inflated("j_max", 10**9)),
    (_MIN_ELL_GROWTH, _dim_g_10_to_the_12),
    # a prime of 969 digits: testing it takes about a second, and walking below it longer
    (_MIN_ELL_GROWTH, lambda plan: plan["result"].update(ell=2**3217 - 1)),
    (_MIN_ELL_GROWTH + ("--p", "2", "--c-1", "1"), _dim_g_10_to_the_12),
    (("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"), _dim_g_10_to_the_12),
    (("plan", "comm-classes", "--p", "2", "--ell0", "29", "--dim-g", "8", "--n", "5"),
     _inflated("ell0")),
    (("plan", "nonarith-count", "--p", "2", "--ell", "11"), _inflated("ell")),
    (("plan", "conjugates-bound", "--n-index", "64", "--x", "2", "--big-c", "3",
      "--group-order", "512"), _inflated("big_c")),
    (("plan", "volume-bound", "--big-c", "3", "--p", "2", "--j", "4"), _inflated("j")),
    (("plan", "level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2"), _inflated("ell0")),
    (("plan",) + _TOWER_MIN_K, _inflated("ell0")),
], ids=["j_max", "dim_g", "ell", "dim_g-chained", "twisted-count", "comm-classes", "nonarith-count",
        "conjugates-bound", "volume-bound", "level-count", "tower-min-k"])
def test_verify_of_a_forged_plan_costs_what_the_stored_item_states(tmp_path, argv, forge):
    # 10^9 levels, a 10^12-dimensional group or a power of 2 with about 10^12 bits:
    # verify derives no more checks than the item stores, plus one, never runs a
    # walk, and refuses a power with more bits than the item could state
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    forge(report["items"][0])
    started = time.perf_counter()
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and time.perf_counter() - started < 1.0


_MERSENNE = [2**2203 - 1, 2**2281 - 1, 2**3217 - 1]  # primes past 2^2000
_PAST_EXACT = ("must be a prime below 3.3e24, where it is proved prime",
               "must be primes below 3.3e24, where they are proved prime")


@pytest.mark.parametrize("argv, name, value", [
    (("plan", "level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2"), "primes",
     _MERSENNE),
    (("plan",) + _TOWER_MIN_K, "primes", [2, 3, 5, _MERSENNE[0]]),
    (_GROWTH, "p", _MERSENNE[2]),
    (_GROWTH, "p", PRIME_EXACT_LIMIT),
], ids=["level-count-mersenne", "tower-min-k-mersenne", "growth-constant-mersenne",
        "growth-constant-at-the-limit"])
def test_verify_refuses_a_stated_prime_past_the_exact_range_at_once(tmp_path, argv, name,
                                                                     value):
    # is_prime proves a prime only below PRIME_EXACT_LIMIT, so a prime at or past it is
    # refused by its size, before any Miller-Rabin round
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    report["items"][0]["inputs"][name] = value
    started = time.perf_counter()
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and time.perf_counter() - started < 0.5
    assert any(message in err for message in _PAST_EXACT)


def test_plan_proves_a_prime_just_below_the_exact_range():
    largest = 3317044064679887385961813  # the largest prime below PRIME_EXACT_LIMIT
    code, out, _ = run_cli("plan", "level-count", "--primes", f"2,3,{largest}", "--j", "3",
                           "--ell0", "2")
    assert code == 0 and verify_report(json.loads(out)) == []
    code, _, err = run_cli("plan", "level-count", "--primes", f"2,3,{largest + 2}", "--j", "3",
                           "--ell0", "2")
    assert code == 2 and "must be primes below 3.3e24" in err


@pytest.mark.parametrize("argv, name, value", [
    (("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "1"), "dim_g", True),
    (_GROWTH, "delta", 1),
    (_GROWTH, "margin", "2/2048"),
    (("plan", "level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2"), "primes", "2,3,5"),
    (("plan", "level-count", "--primes", "2,3,5", "--j", "3", "--ell0", "2"), "primes",
     [2.0, 3, 5]),
], ids=["dim_g-true", "delta-an-int", "margin-not-in-lowest-terms", "primes-as-text",
        "a-prime-a-float"])
def test_verify_reads_each_plan_input_in_the_form_plan_writes(tmp_path, argv, name, value):
    # each stored value equals what plan writes once read, so only its form is wrong
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    report["items"][0]["inputs"][name] = value
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err == f"problem: inputs are not the options that plan {argv[1]} reads\n"


def test_the_growth_chain_stays_exact_below_ell0_1():
    # a negative ell0 makes the chain's exponents negative; the powers stay rationals
    code, out, _ = run_cli(*_MIN_ELL_GROWTH, "--p", "2", "--c-1", "1", "--ell0", "-1")
    report = json.loads(out)
    chain = {c["label"]: c for c in report["items"][0]["checks"]}
    assert code == 0 and (chain["chain-left"]["lhs"], chain["chain-left"]["rhs"]) == ("1/256", "1/128")
    assert verify_report(report) == []


@pytest.mark.parametrize("argv", [
    ("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8"),
    _MIN_ELL_GROWTH,
    ("plan", "tower-min-k", "--primes", "2,3,5,7", "--j", "1", "--ell0", "37", "--dim-g", "8",
     "--c-x", "4", "--x", "1", "--c", "1", "--r", "444"),
], ids=["twisted-count", "min-ell-growth", "tower-min-k"])
def test_verify_lists_a_stored_dim_g_of_0(tmp_path, argv):
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    report["items"][0]["inputs"]["dim_g"] = 0
    code, err = _verify_json(tmp_path, report)
    assert code == 1
    assert "problem: item 0 (plan) is malformed: ValueError: dim_g must be positive" in err


@pytest.mark.parametrize("walk", ["_least_prime", "_least_level"])
def test_verify_never_runs_a_plans_walk(monkeypatch, walk):
    # the prime walk, the product walk and the ln ladder are searches; verify proves
    # their result, so it runs no op's search, nor a walk by another way
    reports_out = [json.loads(run_cli("plan", *argv.split())[1]) for argv in PINNED_PLANS]

    def refuse(what):
        def run(*args):
            raise AssertionError(f"verify ran {what}")
        return run

    monkeypatch.setattr(planner, walk, refuse(walk))
    for name in {argv.split()[0] for argv in PINNED_PLANS}:
        op = planner.PLAN_OPS[name]
        monkeypatch.setitem(planner.PLAN_OPS, name, op._replace(search=refuse(f"{name}'s search")))
    assert [verify_report(report) for report in reports_out] == [[]] * len(PINNED_PLANS)


@pytest.mark.parametrize("op", ["min-ell-sequence", "min-ell-growth"])
def test_the_prime_walk_starts_near_its_root(tmp_path, op):
    # the least ell is near 4·10^9: a walk over every prime from 2 would not finish
    started = time.perf_counter()
    code, out, err = run_cli("plan", op, "--dim-g", "1000000000", "--c", "1", "--r", "1")
    assert code == 0, err
    assert time.perf_counter() - started < 1.0
    assert _verify_json(tmp_path, json.loads(out))[0] == 0


def test_the_prime_walk_finds_the_least_prime_as_a_walk_from_2_does():
    # the bisection starts the walk at the least passing integer, which may be prime
    for dim_g in range(1, 40):
        for c, r in ((0, 1), (1, 1), (3, 7)):
            for _, lhs_at, rhs in (planner._sequence_condition(dim_g, c, r),
                                   planner._growth_condition(dim_g, c, r)):
                ell = 2
                while not lhs_at(ell) > rhs:
                    ell = planner.next_prime(ell)
                assert planner._least_prime(lhs_at, rhs) == ell


def test_the_readme_library_example_runs():
    # the example imports each name from its module, as a user of the package must
    text = (SRC.parent / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _readme_plan_examples() -> list[list[str]]:
    text = (SRC.parent / "README.md").read_text().replace("\\\n", " ")
    return [line.split()[1:] for line in text.splitlines() if line.startswith("gassmann plan ")]


@pytest.mark.parametrize("argv", _readme_plan_examples(), ids=lambda argv: argv[1])
def test_each_readme_plan_example_verifies(tmp_path, argv):
    code, out, _ = run_cli(*argv)
    assert code == 0
    path = tmp_path / "plan.json"
    path.write_text(out)
    started = time.perf_counter()
    assert run_cli("verify", str(path))[:2] == (0, "verified\n")
    assert time.perf_counter() - started < 0.3


def test_verify_recomputes_the_scanned_count(tmp_path):
    # 24 primes up to 100 other than q = 7; one more would bring 17/25 within 1/50 of 2/3
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "100")
    report = json.loads(out)
    scan = report["items"][0]
    assert (scan["scanned"], scan["degree_ell_count"], scan["holds"]) == (24, 17, False)
    scan.update(scanned=25, holds=True)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and "scanned is not the number of primes up to the bound" in err
    assert "item 0 (place-scan) holds True, but its evidence gives False" in err


def _orbit_count_dropped(report):
    report["items"][0]["bruteforce_orbits"] = None  # the orbit oracle runs at GF(4)


def _conjugator_oracle_unrun(report):
    # with no oracle run the disagreement would not count against the verdict
    report["items"][2].update(bruteforce_checked=False, structural_equals_bruteforce=False)


@pytest.mark.parametrize("forge, message", [
    (_orbit_count_dropped, "whether bruteforce_orbits is stated differs from whether certify "
                           "runs the orbit oracle at this p and m"),
    (_conjugator_oracle_unrun, "bruteforce_checked differs from whether certify runs the "
                               "conjugator oracle at this p and m"),
], ids=["orbit-count-dropped", "conjugator-oracle-unrun"])
def test_verify_knows_from_the_config_whether_the_oracles_ran(tmp_path, forge, message):
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    forge(report)
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and f"problem: {message}" in err.splitlines()


def test_verify_requires_agreement_where_no_conjugator_oracle_ran(tmp_path):
    # over GF(25) |G|·q·n = 5^12·25 is past the limit, so the keys stand alone;
    # a claimed disagreement would fail the item with no oracle to show it
    _, out, _ = run_cli("certify", "--p", "5", "--m", "2")
    report = json.loads(out)
    dichotomy = report["items"][2]
    assert not dichotomy["bruteforce_checked"] and dichotomy["structural_equals_bruteforce"]
    dichotomy.update(structural_equals_bruteforce=False, holds=False)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and err.splitlines() == [
        "problem: structural_equals_bruteforce is not a boolean, or is false with no oracle run"]


def test_verify_runs_the_conjugator_oracle_again(tmp_path, monkeypatch):
    # an oracle that merges every class disagrees with the keys; a report that
    # hides the disagreement must not verify
    monkeypatch.setattr(cli.cz, "bruteforce_subgroup_keys", lambda group, subs: [0] * len(subs))
    report = cli.cmd_certify(2, 2)
    dichotomy = report["items"][2]
    assert dichotomy["bruteforce_checked"] and not dichotomy["structural_equals_bruteforce"]
    dichotomy.update(structural_equals_bruteforce=True, holds=True)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and err.splitlines() == [
        "problem: structural_equals_bruteforce differs from the conjugator oracle, run again "
        "on the config's family",
        "problem: item 2 (conjugacy-dichotomy) holds True, but its evidence gives False"]


def test_verify_runs_the_orbit_oracle_again(monkeypatch):
    # a genuine GF(8) report, checked with an orbit oracle that counts 999: verify calls
    # the oracle that cmd_certify calls, once, and its verdict rests on that count
    report = cli.cmd_certify(2, 3)
    assert report["items"][0]["bruteforce_orbits"] == 64
    calls = []
    monkeypatch.setattr(cli.cz, "twist_orbit_count_bruteforce",
                        lambda spec: calls.append(spec.size) or 999)
    assert verify_report(report) == [
        "bruteforce_orbits differs from the orbit oracle, run again on the config's field",
        "item 0 (class-count) holds True, but its evidence gives False"]
    assert calls == [8]
    # GF(32) has 2^25 maps, past the oracle's limit: no oracle runs
    calls.clear()
    assert verify_report(cli.cmd_certify(2, 5)) == [] and calls == []


def _family_labels(p, m):
    spec = make_field(p, m)
    maps = (all_linear_maps(spec) if family_mode(p, m) == "all-twists"
            else enumerate_class_reps(spec).reps)
    return [heisenberg.twist_label(f) for f in maps]


def test_verify_derives_the_oracle_agreement_from_the_labels(monkeypatch):
    # verify calls the oracle on the subgroups of the config's family, labelled as
    # cmd_certify builds them, and its verdict reads the derived agreement, not the
    # stored one
    calls = []
    oracle = cli.cz.bruteforce_subgroup_keys

    def spy(group, subgroups):
        calls.append([sub.label() for sub in subgroups])
        return oracle(group, subgroups)

    monkeypatch.setattr(cli.cz, "bruteforce_subgroup_keys", spy)
    for p, m, runs in [(2, 2, True), (3, 1, True), (2, 1, True), (5, 2, False)]:
        calls.clear()
        report = cli.cmd_certify(p, m)
        built = list(calls)
        calls.clear()
        assert verify_report(report) == []
        assert calls == built == ([_family_labels(p, m)] if runs else [])
    report = cli.cmd_certify(2, 2)
    monkeypatch.setattr(cli.cz, "bruteforce_subgroup_keys", lambda group, subs: [0] * len(subs))
    problems = verify_report(report)
    assert "item 2 (conjugacy-dichotomy) holds True, but its evidence gives False" in problems


def _record_dropped(scan):
    # one prime of residue degree 3 left out of the count, with the verdict re-derived
    count = scan["degree_ell_count"] - 1
    scan.update(degree_ell_count=count,
                holds=abs(Fraction(count, scan["scanned"]) - Fraction(2, 3)) <= Fraction(1, 50))
    return "degree_ell_count does not count the primes of residue degree ell=3 up to the bound"


# schema 8 stated the agreement of two residue-degree tests; schema 9 runs one, and a
# report that still states the agreement has keys that places does not write
def _agreement_shortened(scan):
    scan["agreement_checked_to"] = 100
    return "item 0 (place-scan) has a key that places does not write: 'agreement_checked_to'"


def _disagreement_claimed(scan):
    scan.update(implementations_agree=False, holds=False)
    return "item 0 (place-scan) has a key that places does not write: 'implementations_agree'"


def _keeping(key, value):
    """A forge that keeps a key of the schema-8 item, with the value schema 8 wrote."""
    def forge(scan):
        scan[key] = value
        return f"item 0 (place-scan) has a key that places does not write: {key!r}"

    forge.__name__ = f"_keeping_{key}"
    return forge


# the place-scan keys that schema 9 dropped, beside the agreement's two, with their
# schema-8 values at bound 1000: each copies the config or the counts
_SCHEMA_8_PLACE_KEYS = {"density": "112/167", "cebotarev_density": "2/3",
                        "tolerance": "1/50", "within_tolerance": True}


@pytest.mark.parametrize("forge", [_record_dropped, _agreement_shortened, _disagreement_claimed,
                                   *(_keeping(*kept) for kept in _SCHEMA_8_PLACE_KEYS.items())])
def test_verify_scans_the_places_again(tmp_path, forge):
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "1000")
    report = json.loads(out)
    message = forge(report["items"][0])
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and f"problem: {message}" in err.splitlines()


def test_verify_of_a_forged_place_ell_compares_it_with_q_before_any_primality_test(tmp_path):
    # a valid ell divides q - 1, so a Mersenne prime of 969 digits as ell is refused
    # by comparing it with q = 7, before Miller-Rabin would take about a second on it
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "1000")
    report = json.loads(out)
    report["config"]["ell"] = 2**3217 - 1
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "gassmann.cli", "verify", str(path)], env=env,
                          capture_output=True, text=True)
    assert time.perf_counter() - started < 0.3
    assert done.returncode == 1 and done.stdout == "verification failed\n"
    [problem] = done.stderr.splitlines()
    assert problem.startswith("problem: item 0 (place-scan) fails its check: SpecMismatch: "
                              "q=7 is not a prime = 1 mod 2591170860")


# SHA-256 of the report on stdout; a schema bump updates these and says so
PINNED_REPORTS = {
    ("certify", "--p", "2", "--m", "2"):
        "f5612b92b000d73be38b15ca684979ffee438a44e8acdc1eae9f3e1067973cfe",
    ("certify", "--p", "2", "--m", "3"):
        "62463370797d657903a41e2b719034344cb75bdb25216a68d99235a7b00a6491",
    ("certify", "--p", "3", "--m", "2"):
        "4398bbe646af2aa84a9cc56f41e48f6e4f42757eb7384666a85d6963f1721969",
    ("certify", "--p", "13", "--m", "1"):
        "a10d94d5a5408d684d10d8335cf345f890e5c8b5c9608fbc93c25885b5e784db",
    ("graphs", "--p", "2", "--m", "2"):
        "3061b09c25e1edc15a91828adf06e0bafcb2a3eaa6c04cf8c5df1913923019d6",
    ("graphs", "--p", "3", "--m", "2"):
        "a0912ad93e7d8cc2e49c1e49f6b7f8bfbe8f795a4305bd2fc5d11505b47662f9",
    ("graphs", "--p", "2", "--m", "3"):
        "3dee19697050c0e98a3081592d3022b99d3647f086bd4713a13bc61fd1a26e00",
    ("tower", "--p", "2", "--j-max", "5"):
        "bc67d1ae1a3106796e5d6bacafc480c5a3a8b646efce559a3956d8a3d2dadc62",
    ("places", "--ell", "3", "--bound", "1000"):
        "8582333e4eaddb95ebad3c361c46dbbc3fdebbdecfc2bb8c3ca94de486b3d654",
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=lambda argv: "-".join(argv[::2]))
def test_reports_keep_their_pinned_bytes(argv, tmp_path):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run_cli("verify", str(path))[0] == 0



def test_places_jsonl_keeps_its_schema_4_bytes():
    # the records left the report in schema 5, but the jsonl stream still lists them,
    # in the bytes of schema 4; the last line is the schema-9 place-scan item
    code, out, _ = run_cli("places", "--ell", "3", "--bound", "1000", "--format", "jsonl")
    assert code == 0
    *records, item = out.splitlines(keepends=True)
    assert (hashlib.sha256("".join(records).encode()).hexdigest()
            == "602c2c62e664c11398c0ad6d4519caf8a4b921803918e7fa2d26b458b4ce79a2")
    assert item == ('{"degree_ell_count": 112, "holds": true, "kind": "place-scan", '
                    '"scanned": 167}\n')

# SHA-256 of one plan report per op, and of the three ops with an optional check
# (comm-classes --n, nonarith-count --n, min-ell-growth --p --c-1)
PINNED_PLANS = {
    "twisted-count --p 2 --ell0 37 --dim-g 8":
        "c84ad74352bca47a6cb566d61fa17e1783046dd441b41bcf4331e7b216f3e6d3",
    "comm-classes --p 2 --ell0 29 --dim-g 8 --c 1":
        "73f10ab1ce560fba8502bd304e3cf6d4769e3ca517628fff2966299416e89558",
    "comm-classes --p 2 --ell0 29 --dim-g 8 --c 1 --c-x 3 --n 5":
        "2c8d6663b64273f4e4bef427239c133c6271dcef6dc2f1d346a13d23da5cb90c",
    "conjugates-bound --n-index 64 --x 2 --big-c 3 --group-order 512":
        "6b79f31a23a222a6dd42c551adefe2e1b4bb698dcc1cece18418718b0c9ce847",
    "min-ell-sequence --dim-g 8 --c 1 --r 1":
        "d5fe6172f3a058e84ef4e8a43e2ab98a0a3812f0e65d3b69b404cc74914912e9",
    "min-ell-growth --dim-g 8 --c 1 --r 1":
        "ec9c1102da5ed867fedee8bfbea51f2df73388a73690a78feeaf19a0d026664d",
    "min-ell-growth --dim-g 8 --c 1 --r 1 --p 2 --c-1 1":
        "218ec45365b245224ee03c884fb737d2ceef83409466ffd4f6c0ccc5e2309073",
    "nonarith-count --p 2 --ell 11":
        "deff7205e0376f1a6f55e1931a6060f2d78fc0ed235541f39379b98a8457fc0f",
    "nonarith-count --p 2 --ell 11 --comm-index 7 --n 3":
        "cc12005fa9573e2fab24b4fa3903c6b61b8aab19705ddf64e41fac0c240bf59a",
    "volume-bound --big-c 3 --p 2 --j 4":
        "96c3831ceeec1b7354b66bf46be5f6a41ed13f499f88d7ffa5143b63d2fb15c6",
    "growth-constant --p 2 --delta 1 --d-p 0 --j-min 30 --j-max 100":
        "0d82f1e82c6862ddba62084a66ae7e6bf3366f761e85d640f5968a47b6714bfa",
    "level-count --primes 2,3,5 --j 3 --ell0 2":
        "020f3f26c67c911aea440ef761664b0d36004a0a26d40d5672f79fedee58eaae",
    "tower-min-k --primes 2,3,5,7 --j 1 --ell0 37 --dim-g 8 --c-x 4 --x 1 --c 1 --r 444":
        "afc08fd29c38890fa2c6eae5f8164fd651e5f1cb41b15ac3617336ebbb054d5d",
}


@pytest.mark.parametrize("argv", list(PINNED_PLANS),
                         ids=lambda argv: argv.replace(" --", ",").replace(" ", "="))
def test_plan_reports_keep_their_pinned_bytes(argv):
    code, out, _ = run_cli("plan", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_PLANS[argv]


def test_table_format():
    code, out, _ = run_cli("tower", "--p", "2", "--j-max", "2", "--format", "table")
    assert code == 0
    assert "verdict : pass" in out and "tower-count" in out


def test_render_table_is_derived_from_json():
    _, out, _ = run_cli("tower", "--p", "2", "--j-max", "2")
    assert "tower-count" in render_table(json.loads(out))


def test_reports_are_byte_identical_across_runs():
    runs = []
    for _ in range(2):
        chunks = []
        for argv in (
            ("certify", "--p", "2", "--m", "2"),
            ("graphs", "--p", "2", "--m", "2"),
            ("tower", "--p", "2", "--j-max", "3"),
            ("places", "--ell", "3", "--bound", "1000", "--tol", "1/10"),
            ("plan", "min-ell-sequence", "--dim-g", "8", "--c", "1", "--r", "1"),
        ):
            code, out, _ = run_cli(*argv)
            assert code == 0
            chunks.append(out)
        runs.append("".join(chunks))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Operational errors: exit 2, one line on stderr, no traceback
# ---------------------------------------------------------------------------


def _one_line_error(err: str, name: str) -> None:
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _parser_exit(capsys, *argv: str) -> tuple[int, str, str]:
    """The status, stdout and stderr with which argparse ends cli.main(argv)."""
    with pytest.raises(SystemExit) as ended:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    return ended.value.code, out, err


def test_help_lists_the_six_commands(capsys):
    code, out, _ = _parser_exit(capsys, "--help")
    assert code == 0 and "{certify,graphs,tower,places,plan,verify}" in out


def test_plan_help_lists_every_op_and_option(capsys):
    # the plan subparser takes its op and options from the planner only for plan
    code, out, _ = _parser_exit(capsys, "plan", "--help")
    flags = {line.split()[0] for line in out.splitlines() if line.strip().startswith("--")}
    assert code == 0 and "{" + ",".join(planner.PLAN_OPS) + "}" in out
    assert flags == {"--format", "--out"} | {"--" + name.replace("_", "-")
                                            for name in planner.PLAN_OPTIONS}


def test_plan_with_an_unknown_op_exits_2(capsys):
    code, out, err = _parser_exit(capsys, "plan", "no-such-op")
    assert code == 2 and out == ""
    assert "error: argument plan_op: invalid choice: 'no-such-op'" in err


def test_plan_missing_required_option_exits_2():
    code, out, err = run_cli("plan", "twisted-count", "--dim-g", "8")
    assert code == 2 and out == ""
    _one_line_error(err, "UsageError")
    assert "--p" in err and "--ell0" in err


def test_verify_json_list_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli("verify", str(path))
    assert code == 2 and out == ""
    _one_line_error(err, "SpecMismatch")


def test_verify_of_json_nested_past_the_recursion_limit_exits_2(tmp_path):
    # the JSON parser gives up near the interpreter's recursion limit of 1,000 frames,
    # counted from the stack of a fresh interpreter, so verify runs in one: on a bare
    # list and on a plan report with one deep field in its config
    _, out, _ = run_cli("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    field = tmp_path / "field.json"
    field.write_text(out.replace('"op": ', '"extra": ' + "[" * 1000 + "]" * 1000 + ', "op": ', 1))
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for path in (deep, field):
        run = subprocess.run([sys.executable, "-m", "gassmann.cli", "verify", str(path)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2 and run.stdout == ""
        _one_line_error(run.stderr, "RecursionError")


def _adding(*path, value):
    """A forgery of a report's text that sets the field at path, its last key new."""
    def forge(text):
        report = json.loads(text)
        parent = report
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return json.dumps(report)
    return forge


def _deep_config_field(text):
    # 988 levels parse in a fresh interpreter, and no check reads them
    return text.replace('"op": ', '"extra": ' + "[" * 988 + "]" * 988 + ', "op": ', 1)


_TWISTED_COUNT = "plan twisted-count --p 2 --ell0 37 --dim-g 8"


@pytest.mark.parametrize("argv, forge, key", [
    ("certify --p 2 --m 2", _adding("config", "extra", value=5), "extra"),
    ("certify --p 2 --m 2", _adding("items", 0, "note", value="n"), "note"),
    ("certify --p 2 --m 2", _adding("note", value="n"), "note"),
    # the flag that schema 6 wrote in class-reps mode only
    ("certify --p 2 --m 2", _adding("items", 2, "reps_pairwise_nonconjugate", value=True),
     "reps_pairwise_nonconjugate"),
    # each key that schema 6 wrote and schema 7 drops, with the value it had: a
    # restatement of another field or a closed form of the config
    ("certify --p 2 --m 3", _adding("items", 0, "expected", value=64), "expected"),
    ("certify --p 2 --m 3", _adding("items", 1, "identity_class", value=0), "identity_class"),
    ("certify --p 2 --m 3", _adding("items", 1, "class_sizes", value=family_class_sizes(8)),
     "class_sizes"),
    ("certify --p 2 --m 3", _adding("items", 1, "profile", value=family_profile(8)), "profile"),
    ("certify --p 2 --m 3", _adding("items", 2, "pairs", value=2016), "pairs"),
    ("certify --p 2 --m 3", _adding("items", 2, "reps_pairwise_nonconjugate", value=True),
     "reps_pairwise_nonconjugate"),
    ("tower --p 2 --j-max 3", _adding("items", 2, "bound_holds", value=True), "bound_holds"),
    # the edges list that schema 2 wrote
    ("graphs --p 2 --m 2", _adding("items", 0, "edges", value=[[0, 0, 2], [0, 4, 1]]), "edges"),
    # an op that requires no check, where plan omits the list
    (_TWISTED_COUNT, _adding("items", 0, "required_checks", value=[]), "required_checks"),
    (_TWISTED_COUNT, _adding("items", 0, "required_checks", value=None), "required_checks"),
    # the records list that schema 4 wrote
    ("places --ell 3 --bound 100", _adding("items", 0, "records", value=[{"p": 2}]), "records"),
    (_TWISTED_COUNT, _deep_config_field, "extra"),
], ids=["certify-config", "certify-item", "certify-report", "optional-flag",
        "schema-6-expected", "schema-6-identity-class", "schema-6-class-sizes",
        "schema-6-profile", "schema-6-pairs", "schema-6-reps-pairwise-nonconjugate",
        "schema-6-bound-holds", "schema-2-edges", "empty-required-checks",
        "null-required-checks", "place-record", "deep-plan-config"])
def test_verify_refuses_a_key_that_the_command_does_not_write(tmp_path, argv, forge, key):
    # verify runs in a fresh interpreter, whose stack leaves room for the deep field
    _, out, _ = run_cli(*argv.split())
    path = tmp_path / "forged.json"
    path.write_text(forge(out))
    run = _capped_cli("verify", str(path))
    assert run.returncode == 1 and run.stdout == "verification failed\n"
    problems = run.stderr.splitlines()
    assert len(problems) == 1 and key in problems[0]


@pytest.mark.parametrize("item", [1, {"holds": True}, {"kind": ["plan"]}])
def test_verify_lists_an_item_without_a_kind(tmp_path, item):
    _, out, _ = run_cli("tower", "--p", "2", "--j-max", "1")
    report = json.loads(out)
    report["items"].append(item)
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err == "problem: item 1 is not an object with a kind\n"


def test_verify_report_without_summary_exits_2(tmp_path):
    _, out, _ = run_cli("certify", "--p", "2", "--m", "1")
    report = json.loads(out)
    del report["summary"]
    path = tmp_path / "nosummary.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli("verify", str(path))
    assert code == 2 and out == ""
    _one_line_error(err, "SpecMismatch")


def test_verify_malformed_item_reports_one_problem(tmp_path):
    _, out, _ = run_cli("certify", "--p", "2", "--m", "1")
    report = json.loads(out)
    family = next(item for item in report["items"] if item["kind"] == "gassmann-family")
    del family["pair_count"]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli("verify", str(path))
    assert code == 1 and out == "verification failed\n"
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("problem: item 1 (gassmann-family) is malformed: KeyError")


@pytest.mark.parametrize("inputs", [[], [0], "dim_g", None, 5])
def test_verify_lists_plan_inputs_that_are_no_object(tmp_path, inputs):
    _, out, _ = run_cli("plan", "twisted-count", "--p", "2", "--ell0", "37", "--dim-g", "8")
    report = json.loads(out)
    report["items"][0]["inputs"] = inputs
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and "Traceback" not in err
    assert err == "problem: item 0 (plan) is malformed: TypeError: inputs are not a JSON object\n"


@pytest.mark.parametrize("argv", [
    ("places", "--ell", "3", "--bound", "100", "--tol", "1/0"),
    ("plan", "growth-constant", "--p", "2", "--j-min", "30", "--j-max", "32", "--delta", "1/0"),
    ("plan", "growth-constant", "--p", "2", "--j-min", "30", "--j-max", "32", "--margin", "1/0"),
], ids=["tol", "delta", "margin"])
def test_a_zero_denominator_exits_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    _one_line_error(err, "ZeroDivisionError")


def _zero_tolerance(report):
    report["config"]["tolerance"] = "1/0"


def _zero_lhs(report):
    report["items"][0]["checks"][0]["lhs"] = "1/0"


@pytest.mark.parametrize("argv, tamper", [
    (("places", "--ell", "3", "--bound", "100"), _zero_tolerance),
    (("plan", "growth-constant", "--p", "2", "--j-min", "30", "--j-max", "32"), _zero_lhs),
], ids=["tolerance", "lhs"])
def test_verify_lists_a_zero_denominator_as_malformed(tmp_path, argv, tamper):
    _, out, _ = run_cli(*argv)
    report = json.loads(out)
    tamper(report)
    code, err = _verify_json(tmp_path, report)
    kind = report["items"][0]["kind"]
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"problem: item 0 ({kind}) is malformed: ZeroDivisionError")


@pytest.mark.parametrize("j_max", [0, -1])
def test_tower_below_the_first_level_exits_2(j_max):
    code, out, err = run_cli("tower", "--p", "2", "--j-max", str(j_max))
    assert code == 2 and out == ""
    _one_line_error(err, "UsageError")
    assert f"got {j_max}" in err


def test_jsonl_format_outside_places_exits_2():
    code, out, err = run_cli("certify", "--p", "2", "--m", "1", "--format", "jsonl")
    assert code == 2 and out == ""
    _one_line_error(err, "UsageError")


def test_optimized_interpreter_writes_identical_report():
    # certificate checks raise explicitly, so python -O must not change a byte
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for m in ("2", "3"):  # over GF(8) the oracle block checks every class-table profile
        argv = ["-m", "gassmann.cli", "certify", "--p", "2", "--m", m]
        plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)
        optimized = subprocess.run([sys.executable, "-O", *argv], env=env,
                                   capture_output=True, check=True)
        assert plain.stdout and optimized.stdout == plain.stdout


def test_no_package_module_uses_assert():
    # python -O strips assert statements, so no check of the package may rest on one
    modules = sorted((SRC / "gassmann").glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_graph_and_certify_commands_do_not_import_numpy():
    # numpy would raise every process's peak RSS by about 11 MB
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "import contextlib, io, sys\n"
        "from gassmann import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['graphs', '--p', '2', '--m', '2']),\n"
        "             cli.main(['certify', '--p', '2', '--m', '2'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[0, 0] False\n"
