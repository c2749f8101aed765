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

from gassmann import cli, heisenberg, planner, reports
from gassmann.certify import ClassCatalog, enumerate_class_reps, family_mode
from gassmann.heisenberg import center_subgroup
from gassmann.reports import render_table, verify_report
from gassmann.rings import LinearMap, all_linear_maps, make_field


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

    monkeypatch.setattr(cli, "_bruteforce_subgroup_keys", refuse)
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
    assert items["conjugacy-dichotomy"]["reps_pairwise_nonconjugate"]
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
    assert dichotomy["pairs"] == pairs
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
    def tampered(group, subgroups):
        return tamper(cli.cz.bruteforce_subgroup_keys(group, subgroups))

    monkeypatch.setattr(cli, "_bruteforce_subgroup_keys", tampered)
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


@pytest.mark.parametrize("m", [40, 13, 10**5, 10**9])
def test_verify_of_a_forged_certify_config_costs_what_the_stored_item_states(tmp_path, m):
    # a GF(4) report claiming GF(2^m): the derived lists would hold about 2^(2m)
    # entries, and p^(m^2) would have m^2 bits, so verify measures the stored lists
    # and counts first
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["config"]["m"] = m
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "gassmann.cli", "verify", str(path)], env=env,
                          capture_output=True, text=True)
    assert time.perf_counter() - started < 1.0
    assert done.returncode == 1 and done.stdout == "verification failed\n"
    assert "Traceback" not in done.stderr
    problems = done.stderr.splitlines()
    assert "problem: class_sizes are not q classes of size 1, then q^2-1 of size q, q = p^m" \
        in problems
    assert "problem: profile is not the one profile that every H_f has over GF(q)" in problems


def test_verify_of_a_forged_graphs_degree_compares_it_with_the_cap(tmp_path):
    # every graphs verifier builds the field from the config; 2^(10^8) is not formed
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    report["config"]["m"] = 10**8
    started = time.perf_counter()
    code, err = _verify_json(tmp_path, report)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and "Traceback" not in err
    assert ("problem: item 0 (coset-graph) fails its check: SizeCapExceeded: "
            "|GF(2^100000000)| = 2^100000000 exceeds cap 1048576") in err.splitlines()


def _restated_for(report: dict, p: int, m: int) -> dict:
    """The report with its config's p and m replaced and every count restated for
    them by the closed forms, so that only the config is wrong."""
    report["config"].update(p=p, m=m)
    count = p ** (m * (m - 1))  # the class reps
    pairs = count * (count - 1) // 2
    class_count, family, dichotomy = report["items"]
    class_count.update(expected=count, actual=count, bruteforce_orbits=None)
    family.update(mode="class-reps", count=count, pair_count=pairs)
    dichotomy.update(pairs=pairs, structural_conjugate_pairs=0, bruteforce_checked=False)
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
    assert (f"problem: the config or a subgroup label is malformed: {error}"
            in err.splitlines())


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def test_graphs_2_2_default_generators(tmp_path):
    out_dir = tmp_path / "exports"
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "2", "--out", str(out_dir))
    assert code == 0
    report = _report(out)
    assert verify_report(report) == []
    graphs = [item for item in report["items"] if item["kind"] == "coset-graph"]
    assert len(graphs) == 4 and all(g["vertices"] == 16 for g in graphs)
    cospectral = next(item for item in report["items"] if item["kind"] == "cospectral")
    assert cospectral["all_equal"]
    for k in range(4):
        assert (out_dir / f"rep_{k}.dot").exists()
        assert (out_dir / f"rep_{k}.edges").exists()
        assert (out_dir / f"rep_{k}.charpoly.json").exists()
    assert (out_dir / "report.json").exists()
    assert verify_report(json.loads((out_dir / "report.json").read_text())) == []


def test_graphs_lists_each_graph_edges_once(monkeypatch):
    # the .edges export lists each graph's edges, which its label and the config
    # fix, so no report item carries edges or a charpoly of its own
    calls = [0]
    edge_list = cli.sg.CosetGraph.edge_list

    def counted(graph):
        calls[0] += 1
        return edge_list(graph)

    monkeypatch.setattr(cli.sg.CosetGraph, "edge_list", counted)
    # without --out no export is built
    assert cli.cmd_graphs(2, 2)[1] == {} and calls[0] == 0
    report, exports = cli.cmd_graphs(2, 2, exports=True)
    graphs = [item for item in report["items"] if item["kind"] == "coset-graph"]
    assert len(graphs) == 4 and calls[0] <= 2 * len(graphs)
    assert all("edges" not in item and "charpoly" not in item for item in report["items"])
    rebuilt = reports._schreier_graph(graphs[1]["subgroup"], report["config"])
    assert exports["rep_1.edges"] == "".join(f"{u} {v} {m}\n" for u, v, m in edge_list(rebuilt))


def test_graphs_single_class_vacuous_pairwise():
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "1")
    assert code == 0
    report = _report(out)
    graphs = [item for item in report["items"] if item["kind"] == "coset-graph"]
    assert len(graphs) == 1
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


def test_graphs_over_the_search_budget_exits_2(monkeypatch, capsys):
    # graphs 1 and 2 of GF(4) share their refinement invariant and need a search
    search = cli.sg.are_isomorphic
    monkeypatch.setattr(cli.sg, "are_isomorphic", lambda g1, g2: search(g1, g2, cap=0))
    assert cli.main(["graphs", "--p", "2", "--m", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: SizeCapExceeded: isomorphism search exceeds 0 refinement nodes\n"


def test_graphs_non_generating_set_errors():
    # a single a-coordinate generator leaves the coset graph disconnected
    code, _, err = run_cli("graphs", "--p", "2", "--m", "2", "--gens", "1,0|0,0|0,0")
    assert code == 2 and "NotGenerating" in err


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
    assert all(item["bound_holds"] for item in report["items"])
    assert [item["gap"] for item in report["items"]] == [False, True, True]
    assert verify_report(report) == []


def test_places_small_bound_reports_and_fails_tolerance():
    code, out, _ = run_cli("places", "--ell", "3", "--bound", "100")
    report = _report(out)
    item = report["items"][0]
    ps = [r["p"] for r in item["records"]]
    assert {2, 3, 5, 17, 19} <= set(ps) and 13 not in ps
    assert item["implementations_agree"]
    # 17/24 is more than 0.02 from 2/3, so the strict default verdict fails
    assert not item["within_tolerance"] and code == 1
    assert verify_report(report) == []
    code2, out2, _ = run_cli("places", "--ell", "3", "--bound", "100", "--tol", "1/10")
    assert code2 == 0 and _report(out2)["summary"]["verdict"] == "pass"


def test_places_jsonl_format():
    code, out, _ = run_cli("places", "--ell", "3", "--bound", "30", "--format", "jsonl")
    lines = [json.loads(line) for line in out.strip().split("\n")]
    records, summary = lines[:-1], lines[-1]
    assert [r["p"] for r in records] == [2, 3, 5, 11, 17, 19, 23]
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
    graph = next(item for item in report["items"] if item["kind"] == "coset-graph")
    assert graph["vertices"] == 9  # [G : H] = 27 / 3
    assert graph["generators"] == 4
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
    report["items"][1]["profile"][0] += 1
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
    assert "reps_pairwise_nonconjugate" in err


def _tampered_family_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("certify", "--p", "2", "--m", "3")
    report = json.loads(out)
    tamper(next(item for item in report["items"] if item["kind"] == "gassmann-family"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli("verify", str(bad))
    return code, err


def test_verify_recomputes_the_expected_class_count(tmp_path):
    # the three stored counts agree with each other, but 5 is not 2^(2·1)
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    count = report["items"][0]
    assert count["kind"] == "class-count" and count["expected"] == 4
    count["expected"] = count["actual"] = count["bruteforce_orbits"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg
    assert "class-count expected differs from p^(m(m-1))" in err


def test_verify_recomputes_the_class_sizes(tmp_path):
    def tamper(family):
        family["class_sizes"][0] = 99

    code, err = _tampered_family_verify(tmp_path, tamper)
    assert code == 1 and "class_sizes are not q classes" in err


def test_verify_checks_the_identity_class_size(tmp_path):
    # each subgroup meets a non-central class (x, 0, *) in exactly one element, so
    # every profile still has a 1 there; only the class index shows the tamper
    def tamper(family):
        q = family["class_sizes"].count(1)
        family["identity_class"] = next(
            c for c, size in enumerate(family["class_sizes"])
            if size == q and family["profile"][c] == 1)

    code, err = _tampered_family_verify(tmp_path, tamper)
    assert code == 1 and "identity_class is not 0" in err


def test_verify_rejects_a_missing_profile(tmp_path):
    code, err = _tampered_family_verify(tmp_path, lambda family: family["profile"].pop())
    assert code == 1 and "profile is not the one profile" in err


def test_verify_rejects_a_wrong_pair_count(tmp_path):
    def tamper(family):
        family["pair_count"] = 5

    code, err = _tampered_family_verify(tmp_path, tamper)
    assert code == 1 and "pair_count" in err


def _second_profile(family):
    # a second profile, with one element moved between two classes of size q
    family["profile"] = [family["profile"], _moved_element(family)]
    family["all_equal"] = family["holds"] = False


def _altered_profile(family):
    family["profile"] = _moved_element(family)


def _moved_element(family):
    q = family["class_sizes"].count(1)
    moved = list(family["profile"])
    assert moved[2 * q - 1] == 1 and moved[2 * q] == 0  # the classes of (1, 0, *), (1, 1, *)
    moved[2 * q - 1], moved[2 * q] = 0, 1
    return moved


def _central_classes_last(family):
    # rotating classes, identity class and profile together keeps them consistent
    q = family["class_sizes"].count(1)
    family["class_sizes"] = family["class_sizes"][q:] + family["class_sizes"][:q]
    family["identity_class"] = (family["identity_class"] - q) % len(family["class_sizes"])
    family["profile"] = family["profile"][q:] + family["profile"][:q]


def _all_equal_false(family):
    family["all_equal"] = False


@pytest.mark.parametrize("tamper, message", [
    (_second_profile, "profile is not the one profile"),
    (_altered_profile, "profile is not the one profile"),
    (_central_classes_last, "class_sizes are not q classes of size 1, then"),
    (_all_equal_false, "all_equal is not true"),
], ids=["second-profile", "altered-profile", "central-classes-last", "all-equal-false"])
def test_verify_derives_the_family_profile(tmp_path, tamper, message):
    # each profile forgery keeps every profile summing to q with a 1 on the identity
    # class, so only the profile derived from the config shows it
    _, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    report = json.loads(out)
    tamper(report["items"][1])
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and message in err


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
    search = reports.find_isomorphism
    monkeypatch.setattr(reports, "find_isomorphism", lambda g1, g2: search(g1, g2, cap=0))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "failed" in msg
    assert "graphs 1 and 2: search exceeds the node budget" in err


def _tampered_graph_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    tamper(next(item for item in report["items"] if item["kind"] == "coset-graph"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert msg == ("verified\n" if code == 0 else "verification failed\n")
    return code, err


def test_verify_lists_a_huge_multiplicity(tmp_path):
    # a generator count past any real one is compared, never used
    def tamper(graph):
        graph["generators"] = 10**1500

    code, err = _tampered_graph_verify(tmp_path, tamper)
    assert code == 1 and err.splitlines() == [
        "problem: generators of graph H[0,0,0,0] differs from the Schreier graph rebuilt from "
        "its label"]


def test_verify_lists_a_relabelled_graph(tmp_path):
    # H[1,0,1,0] is conjugate to H[0,0,1,1], the last rep, and comes after the rep
    # before it, so its graph has the same spectrum and opens the same class; only
    # the canonical-twist check shows that the label is not a rep
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    assert report["items"][3]["subgroup"] == "H[0,0,1,1]"
    report["items"][3]["subgroup"] = "H[1,0,1,0]"
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err.splitlines() == [
        "problem: the coset graphs' subgroups are not the class reps in catalog order: each its "
        "own canonical twist, their flat maps increasing"]


@pytest.mark.parametrize("field, value", [
    ("connected", False), ("vertices", 15), ("vertices", 16.0), ("generators", 6),
    ("generators", True),
], ids=["connected", "vertices", "vertices-float", "generators", "generators-bool"])
def test_verify_rebuilds_each_graph_from_its_label(tmp_path, field, value):
    def tamper(graph):
        graph[field] = value

    code, err = _tampered_graph_verify(tmp_path, tamper)
    assert code == 1 and err.splitlines() == [
        f"problem: {field} of graph H[0,0,0,0] differs from the Schreier graph rebuilt from "
        "its label"]


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


def _conjugate_label(reps):
    # H[1,0,0,1] is conjugate to H[0,0,0,0]: the identity map is a multiplication
    return [LinearMap.from_flat(2, (1, 0, 0, 1), 2), *reps[1:]]


def _conjugate_last_label(reps):
    # H[1,0,1,0] is conjugate to H[0,0,1,1] and keeps the flat maps increasing
    return [*reps[:-1], LinearMap.from_flat(2, (1, 0, 1, 0), 2)]


def _swapped_labels(reps):
    return [reps[1], reps[0], *reps[2:]]


def _repeated_label(reps):
    return [reps[0], reps[0], *reps[2:]]


@pytest.mark.parametrize("forge", [_conjugate_label, _conjugate_last_label, _swapped_labels,
                                   _repeated_label],
                         ids=["conjugate-label", "conjugate-last-label", "swapped-labels",
                              "repeated-label"])
def test_verify_checks_that_the_labels_are_the_catalog(forge, tmp_path, monkeypatch):
    # graphs writes a consistent report from the forged catalog, so every graph,
    # charpoly and class follows from its label; only the catalog check is left
    reps = cli.cz.enumerate_class_reps(cli.make_field(2, 2)).reps
    monkeypatch.setattr(cli.cz, "enumerate_class_reps",
                        lambda spec, cap=None: ClassCatalog(spec, tuple(forge(list(reps)))))
    report, _ = cli.cmd_graphs(2, 2)
    assert report["summary"]["verdict"] == "pass"
    monkeypatch.undo()
    code, err = _verify_json(tmp_path, report)
    assert code == 1 and err.splitlines() == [
        "problem: the coset graphs' subgroups are not the class reps in catalog order: each its "
        "own canonical twist, their flat maps increasing"]


def _tampered_cospectral_verify(tmp_path, tamper) -> tuple[int, str]:
    _, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    report = json.loads(out)
    cospectral = report["items"][-2]
    assert cospectral["kind"] == "cospectral" and cospectral["charpoly_index"] == [0] * 4
    tamper(cospectral)
    return _verify_json(tmp_path, reports.finalize(report))


def _other_charpoly(cospectral):
    poly = list(cospectral["distinct_charpolys"][0])
    poly[2] += 1
    return poly


def _unused_charpoly(cospectral):
    cospectral["distinct_charpolys"].append(_other_charpoly(cospectral))


def _repeated_charpoly(cospectral):
    # graph 3 points at a second copy, which would make all_equal look false
    cospectral["distinct_charpolys"].append(list(cospectral["distinct_charpolys"][0]))
    cospectral["charpoly_index"][3] = 1
    cospectral["all_equal"] = cospectral["holds"] = False


def _charpoly_out_of_order(cospectral):
    # a first entry that no graph uses, so the graphs' own charpoly comes second
    cospectral["distinct_charpolys"].insert(0, _other_charpoly(cospectral))
    cospectral["charpoly_index"] = [1] * 4


def _true_index(cospectral):
    # true reads as 1 in Python, and a second copy of the one charpoly is there
    cospectral["distinct_charpolys"].append(list(cospectral["distinct_charpolys"][0]))
    cospectral["charpoly_index"][1] = True


def _index_setter(value):
    def tamper(cospectral):
        cospectral["charpoly_index"][2] = value
    return tamper


_DISTINCT = ("problem: distinct_charpolys are not the charpolys of the graphs rebuilt from their "
             "labels, each once in order of first appearance")
_INDEX = "problem: charpoly_index does not give each graph's charpoly"


@pytest.mark.parametrize("tamper, problems", [
    (_index_setter(1), [_INDEX]),
    (_index_setter(-1), [_INDEX]),
    (_index_setter("0"), [_INDEX]),
    (_index_setter(0.0), [_INDEX]),
    (_index_setter(False), [_INDEX]),
    (_true_index, [_DISTINCT, _INDEX]),
    (_unused_charpoly, [_DISTINCT]),
    (_repeated_charpoly, [_DISTINCT, _INDEX,
                          "problem: cospectral flags contradict the coset-graph charpolys",
                          "problem: item 4 (cospectral) holds False, but its evidence gives True"]),
    (_charpoly_out_of_order, [_DISTINCT, _INDEX]),
], ids=["index-out-of-range", "index-negative", "index-string", "index-float", "index-false",
        "index-true", "unused-charpoly", "repeated-charpoly", "charpoly-out-of-order"])
def test_verify_checks_the_distinct_charpolys_and_their_index(tmp_path, tamper, problems):
    code, err = _tampered_cospectral_verify(tmp_path, tamper)
    assert code == 1 and err.splitlines() == problems


# From the schema-2 reports of graphs --p 2 --m 2, --p 2 --m 3 and --p 3 --m 2,
# which stored each graph's charpoly in its own item: SHA-256 of the compact JSON
# of [the graphs' charpolys as integers in rep order, class_of, witnesses].
SCHEMA_2_GRAPH_FACTS = {
    (2, 2): "dd17ff7552223bfa2e3cd5f26bc8721b5191a7e4704e3cc88c477b79628f5283",
    (2, 3): "f27ac9ce3e1e023640e530b853f01ca5aa3a9180d3556eb233f1fd7c2dd62ce9",
    (3, 2): "78be5171d490a414415d58b06be098040d5fc8329b1f44b15ed355e05a9107a2",
}


@pytest.mark.parametrize("p, m", list(SCHEMA_2_GRAPH_FACTS), ids=lambda v: str(v))
def test_graph_facts_survive_the_schema_bump(p, m):
    report, _ = cli.cmd_graphs(p, m)
    cospectral, classes = report["items"][-2:]
    polys = [[int(c) for c in cospectral["distinct_charpolys"][k]]
             for k in cospectral["charpoly_index"]]
    payload = json.dumps([polys, classes["class_of"], classes["witnesses"]], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == SCHEMA_2_GRAPH_FACTS[p, m]


# From the schema-3 certify reports, which listed every subgroup's label and profile
# index: SHA-256 of the compact JSON of the facts that any layout must keep.  Schema 4
# states the family by its definition and its one profile as a flat list.
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
    facts = [[count["expected"], count["actual"], count["bruteforce_orbits"]],
             [family["profile"], family["class_sizes"], family["identity_class"]],
             [family["pair_count"], dichotomy["pairs"], dichotomy["structural_conjugate_pairs"]],
             [dichotomy["bruteforce_checked"], dichotomy["structural_equals_bruteforce"],
              dichotomy.get("reps_pairwise_nonconjugate")],
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
    code, err = _tampered_places_verify(tmp_path, lambda scan: scan["records"].pop())
    assert code == 1 and "degree_ell_count or density does not count the records" in err


def test_verify_recomputes_each_residue_degree(tmp_path):
    def tamper(scan):
        scan["records"][3]["degree"] = 1

    code, err = _tampered_places_verify(tmp_path, tamper)
    assert code == 1 and "does not have residue degree ell=3" in err


def test_verify_rejects_a_place_record_outside_the_scan(tmp_path):
    def tamper(scan):
        records = scan["records"]
        records[-1]["p"] = 1013  # a prime of residue degree 3, but past the bound
        records[-1]["residue_size"] = str(1013**3)

    code, err = _tampered_places_verify(tmp_path, tamper)
    assert code == 1 and "not a prime up to the bound" in err


@pytest.mark.parametrize("field, value", [("tolerance", "1/10"), ("cebotarev_density", "17/24")])
def test_verify_takes_the_tolerance_and_density_target_from_the_config(tmp_path, field, value):
    # at bound 100 the density 17/24 misses 2/3 by more than the 1/50 tolerance;
    # a looser stored tolerance or a moved target would turn the failing scan into a pass
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "100")
    report = json.loads(out)
    scan = report["items"][0]
    assert scan["density"] == "17/24" and not scan["holds"]
    scan[field] = value
    scan["within_tolerance"] = scan["holds"] = True
    report["summary"].update(verdict="pass", failed_items=[])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, msg, err = run_cli("verify", str(bad))
    assert code == 1 and "cebotarev_density or tolerance differs from the config" in err


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
    monkeypatch.setattr(cli, "twisted_subgroup", lambda f, group: center_subgroup(group))
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
    item["exact"], item["gap"] = 8, False  # bound_holds stays true: the flags agree
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
    "coset-graph": ("graphs", "--p", "2", "--m", "2"),
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
    monkeypatch.setattr(cli, "_bruteforce_subgroup_keys",
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


def _swap_two_reps(report):
    first, second = report["items"][:2]
    first["rep"], second["rep"] = second["rep"], first["rep"]


def _swap_two_levels(report):
    first, second = report["items"][:2]
    first["j"], second["j"] = second["j"], first["j"]


def _change_the_op(report):
    report["config"]["op"] = "twisted-count"


@pytest.mark.parametrize("argv, tamper", [
    (("graphs", "--p", "2", "--m", "2"), _drop_isomorphism_classes),
    (("certify", "--p", "2", "--m", "2"), _list_an_item_twice),
    (("tower", "--p", "2", "--j-max", "4"), _keep_the_first_level),
    (("graphs", "--p", "2", "--m", "2"), _swap_two_reps),
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


def _counts_as_booleans(report):
    family = report["items"][1]
    family["profile"][0] = True
    q = 4
    assert family["class_sizes"][:q] == [1] * q
    family["class_sizes"][:q] = [True] * q


def _charpoly_index_false(report):
    report["items"][-2]["charpoly_index"][0] = False


def _first_class_false(report):
    report["items"][-1]["class_of"][0] = False


def _first_level_true(report):
    report["items"][0]["j"] = True


def _first_level_count_true(report):
    level = report["items"][0]
    assert level["j"] == 1 and level["exact"] == level["cited_lower"] == 1
    level["exact"] = level["cited_lower"] = True


@pytest.mark.parametrize("argv, tamper", [
    (("certify", "--p", "2", "--m", "2"), _counts_as_booleans),
    (("graphs", "--p", "2", "--m", "2"), _charpoly_index_false),
    (("graphs", "--p", "2", "--m", "2"), _first_class_false),
    (("tower", "--p", "2", "--j-max", "3"), _first_level_true),
    (("tower", "--p", "2", "--j-max", "3"), _first_level_count_true),
], ids=["profile-and-class-sizes", "charpoly-index", "class-of", "tower-level",
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
    (("certify", "--p", "2", "--m", "2"), 2, "pairs", 105,  # 15·14/2, one subgroup short
     "pairs is not n(n-1)/2 for the family's n subgroups"),
    (("certify", "--p", "2", "--m", "3"), 2, "reps_pairwise_nonconjugate", False,
     "reps_pairwise_nonconjugate disagrees with structural_conjugate_pairs"),
], ids=["actual", "mode", "pairs", "reps-pairwise-nonconjugate"])
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
    assert dichotomy["structural_conjugate_pairs"] == 0 and dichotomy["reps_pairwise_nonconjugate"]
    dichotomy.update(structural_conjugate_pairs=1, reps_pairwise_nonconjugate=False, holds=False)
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
    # the prime walk and the product walk are searches; verify proves their result
    reports_out = [json.loads(run_cli(*argv)[1]) for argv in (
        _MIN_ELL_GROWTH + ("--p", "2", "--c-1", "1"),
        ("plan", "tower-min-k", "--primes", "2,3,5,7", "--j", "1", "--ell0", "37",
         "--dim-g", "8", "--c-x", "4", "--x", "1", "--c", "1", "--r", "444"))]

    def refuse(*args):
        raise AssertionError(f"verify ran {walk}")

    monkeypatch.setattr(planner, walk, refuse)
    assert [verify_report(report) for report in reports_out] == [[], []]


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
    assert (scan["scanned"], scan["density"], scan["holds"]) == (24, "17/24", False)
    scan.update(scanned=25, density="17/25", within_tolerance=True, holds=True)
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
    monkeypatch.setattr(cli, "_bruteforce_subgroup_keys", lambda group, subs: [0] * len(subs))
    report = cli.cmd_certify(2, 2)
    dichotomy = report["items"][2]
    assert dichotomy["bruteforce_checked"] and not dichotomy["structural_equals_bruteforce"]
    dichotomy.update(structural_equals_bruteforce=True, holds=True)
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and err.splitlines() == [
        "problem: structural_equals_bruteforce differs from the conjugator oracle, run again "
        "on the config's family",
        "problem: item 2 (conjugacy-dichotomy) holds True, but its evidence gives False"]


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
    oracle = cli._bruteforce_subgroup_keys

    def spy(group, subgroups):
        calls.append([sub.label() for sub in subgroups])
        return oracle(group, subgroups)

    monkeypatch.setattr(cli, "_bruteforce_subgroup_keys", spy)
    for p, m, runs in [(2, 2, True), (3, 1, True), (2, 1, True), (5, 2, False)]:
        calls.clear()
        report = cli.cmd_certify(p, m)
        built = list(calls)
        calls.clear()
        assert verify_report(report) == []
        assert calls == built == ([_family_labels(p, m)] if runs else [])
    report = cli.cmd_certify(2, 2)
    monkeypatch.setattr(cli, "_bruteforce_subgroup_keys", lambda group, subs: [0] * len(subs))
    problems = verify_report(report)
    assert "item 2 (conjugacy-dichotomy) holds True, but its evidence gives False" in problems


def _record_dropped(scan):
    # one prime of residue degree 3 left out, with every count and flag re-derived
    del scan["records"][5]
    count = len(scan["records"])
    density = Fraction(count, scan["scanned"])
    within = abs(density - Fraction(2, 3)) <= Fraction(1, 50)
    scan.update(degree_ell_count=count, density=str(density), within_tolerance=within,
                holds=within and scan["implementations_agree"])
    return "records are not every prime of residue degree ell=3 up to the bound"


def _agreement_shortened(scan):
    scan["agreement_checked_to"] = 100
    return _AGREEMENT_PROBLEM


def _disagreement_claimed(scan):
    scan.update(implementations_agree=False, holds=False)
    return _AGREEMENT_PROBLEM


_AGREEMENT_PROBLEM = ("agreement_checked_to or implementations_agree differs from the two "
                      "residue-degree tests up to min(bound, 10^4)")


@pytest.mark.parametrize("forge", [_record_dropped, _agreement_shortened, _disagreement_claimed])
def test_verify_scans_the_places_again(tmp_path, forge):
    _, out, _ = run_cli("places", "--ell", "3", "--bound", "1000")
    report = json.loads(out)
    message = forge(report["items"][0])
    code, err = _verify_json(tmp_path, reports.finalize(report))
    assert code == 1 and f"problem: {message}" in err.splitlines()


# SHA-256 of the report on stdout; a schema bump updates these and says so
PINNED_REPORTS = {
    ("certify", "--p", "2", "--m", "2"):
        "18b2a2db44cbbd0ee45f7b114e017e238e161dbaa58067bafee3f9266f915457",
    ("certify", "--p", "2", "--m", "3"):
        "559737699218fd75afc25426994f5e4396ce818c7b5b55655b3b0f9b158c4138",
    ("graphs", "--p", "2", "--m", "2"):
        "445302ea28b1510b6181de3e295189edeec47dab336b16daf14fa936f223871d",
    ("graphs", "--p", "3", "--m", "2"):
        "a926a48941f282cd2b6fad89d9d18c2388e0bd6688884d780b49d80ca99f4096",
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=lambda argv: "-".join(argv[::2]))
def test_reports_keep_their_pinned_bytes(argv):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]


# SHA-256 of one plan report per op, and of the three ops with an optional check
# (comm-classes --n, nonarith-count --n, min-ell-growth --p --c-1)
PINNED_PLANS = {
    "twisted-count --p 2 --ell0 37 --dim-g 8":
        "8c8e251e52ecc519a0dd96e232e1511c567d9efb86e5e3133c36ba1a85ac63f4",
    "comm-classes --p 2 --ell0 29 --dim-g 8 --c 1":
        "5fca9ee6044c2db7427b6929d39fe80d50c2d9b0ce9fa3aac6b506d2ad67fa3c",
    "comm-classes --p 2 --ell0 29 --dim-g 8 --c 1 --c-x 3 --n 5":
        "31f05ee47b35a7d64fbdc99ad2cb265c744444ec9e0181d3f1311eafbd1a360e",
    "conjugates-bound --n-index 64 --x 2 --big-c 3 --group-order 512":
        "9baffeb446ce3855e61fa533964f3695dc9604a5f78a618464f1cbf78edf1626",
    "min-ell-sequence --dim-g 8 --c 1 --r 1":
        "7cb35d485f17997d14aaabfdfed059af688c8c53a7d01e13981df44ba65959a4",
    "min-ell-growth --dim-g 8 --c 1 --r 1":
        "58190c38d757e7aa6f14e5be7e51a819f50f2667cfc1e977c0b2c4f2b1890639",
    "min-ell-growth --dim-g 8 --c 1 --r 1 --p 2 --c-1 1":
        "c0a8ad50c654975882c60c3a75b09302d4377ec3cc4e38ab69bf4e56aed9b99f",
    "nonarith-count --p 2 --ell 11":
        "688cd04ed4aadd10a0d1028358eb223774240e9f9942d3b0754a7810a745d3d5",
    "nonarith-count --p 2 --ell 11 --comm-index 7 --n 3":
        "acdbba6c662598587a30743d135da7b59eb5e74580837016db3c24330b0f71c7",
    "volume-bound --big-c 3 --p 2 --j 4":
        "b5b479425efeacef55b19d3978031a5d16d9c8ce02145eee749c64cd01b3a365",
    "growth-constant --p 2 --delta 1 --d-p 0 --j-min 30 --j-max 100":
        "2606166a55002a4300417dcad2bc587205ef9630817e2fab31907b40a2b6d310",
    "level-count --primes 2,3,5 --j 3 --ell0 2":
        "203c532422ab3e0ea35b233ae44f9815daf734f6d1e9f511055b6a509ce423a3",
    "tower-min-k --primes 2,3,5,7 --j 1 --ell0 37 --dim-g 8 --c-x 4 --x 1 --c 1 --r 444":
        "b7f681abbe568e6b5d07189713233476b6ebb324228f8cf9cea37b5a74475bb9",
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
    del family["profile"]
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
    report["config"]["tolerance"] = report["items"][0]["tolerance"] = "1/0"


def _zero_density(report):
    report["items"][0]["density"] = "1/0"


def _zero_lhs(report):
    report["items"][0]["checks"][0]["lhs"] = "1/0"


@pytest.mark.parametrize("argv, tamper", [
    (("places", "--ell", "3", "--bound", "100"), _zero_tolerance),
    (("places", "--ell", "3", "--bound", "100"), _zero_density),
    (("plan", "growth-constant", "--p", "2", "--j-min", "30", "--j-max", "32"), _zero_lhs),
], ids=["tolerance", "density", "lhs"])
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
