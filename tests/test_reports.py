import json

from conftest import run_cli

from gassmann.reports import canonical_json, encode_count, new_report, finalize, verify_report


def test_encode_count_thresholds():
    assert encode_count(5) == 5
    assert encode_count(-(2**53) + 1) == -(2**53) + 1
    assert encode_count(2**53) == str(2**53)
    assert encode_count(2**200) == str(2**200)


def test_canonical_json_is_sorted_and_stable():
    report = finalize(new_report("demo", {"b": 1, "a": 2}))
    text = canonical_json(report)
    assert text == canonical_json(json.loads(text))
    assert text.index('"a"') < text.index('"b"')


def test_finalize_flags_failed_items():
    report = new_report("demo", {})
    report["items"].append({"kind": "class-count", "expected": 1, "actual": 1,
                            "bruteforce_orbits": None, "holds": True})
    report["items"].append({"kind": "class-count", "expected": 2, "actual": 1,
                            "bruteforce_orbits": None, "holds": False})
    finalize(report)
    assert report["summary"]["verdict"] == "fail"
    assert report["summary"]["failed_items"] == [1]


def test_verify_report_catches_bad_summary():
    report = finalize(new_report("demo", {}))
    report["summary"]["verdict"] = "fail"  # no failing items recorded
    assert verify_report(report)


def test_verify_report_replays_every_bundled_certificate():
    for argv in (
        ("certify", "--p", "2", "--m", "2"),
        ("graphs", "--p", "2", "--m", "2"),
        ("tower", "--p", "3", "--j-max", "2"),
        ("places", "--ell", "3", "--bound", "200", "--tol", "1/10"),
        ("plan", "tower-min-k", "--primes", "2,3,5,7", "--j", "1", "--ell0", "37",
         "--dim-g", "8", "--c-x", "4", "--x", "1", "--c", "1", "--r", "444"),
    ):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert verify_report(json.loads(out)) == []


def test_verify_report_rejects_witness_tampering():
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    assert code == 0
    report = json.loads(out)
    iso_items = [item for item in report["items"]
                 if item["kind"] == "isomorphism" and item["isomorphic"]]
    if not iso_items:  # all representative pairs non-isomorphic; nothing to tamper
        return
    witness = iso_items[0]["witness"]
    witness[0] = witness[1]  # no longer a permutation
    assert verify_report(report)


def test_verify_report_recomputes_coset_graph_charpolys():
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    assert code == 0
    report = json.loads(out)
    graph = next(item for item in report["items"] if item["kind"] == "coset-graph")
    coeffs = graph["charpoly"]
    middle = len(coeffs) // 2
    coeffs[middle] = int(coeffs[middle]) + 1  # shape and trace still look right
    problems = verify_report(report)
    assert any("recomputed from the edges" in problem for problem in problems)


def test_verify_report_bounds_structural_conjugate_pairs():
    code, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    assert code == 0
    pairs = json.loads(out)["items"][2]["pairs"]
    for tampered in (-1, pairs + 1):
        report = json.loads(out)
        dichotomy = report["items"][2]
        assert dichotomy["kind"] == "conjugacy-dichotomy"
        assert "reps_pairwise_nonconjugate" not in dichotomy  # all-twists mode
        dichotomy["structural_conjugate_pairs"] = tampered
        problems = verify_report(report)
        assert any("outside [0, pairs]" in problem for problem in problems)
