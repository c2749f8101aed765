import json
import random

import pytest
from conftest import run_cli

from gassmann import heisenberg, reports, schreier
from gassmann.certify import (
    all_linear_maps,
    canonical_twist,
    enumerate_class_reps,
    family_class_sizes,
    family_mode,
    family_profile,
    intersection_profile,
    mult_subspace_echelon,
)
from gassmann.errors import SizeCapExceeded
from gassmann.heisenberg import heisenberg_group, twisted_subgroup
from gassmann.oracles import (center_subgroup, charpoly_by_centre, coset_graph_bruteforce,
                              distinct_charpolys, horizontal_subgroup)
from gassmann.cli import cmd_graphs
from gassmann.reports import (
    canonical_json,
    encode_count,
    finalize,
    new_report,
    verify_report,
)
from gassmann.rings import LinearMap, make_field
from gassmann.schreier import build_coset_graph, default_generators


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
    report["items"].append({"kind": "class-count", "actual": 1, "bruteforce_orbits": None,
                            "holds": True})
    report["items"].append({"kind": "class-count", "actual": 2, "bruteforce_orbits": None,
                            "holds": False})
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


def _graphs_2_2() -> dict:
    code, out, _ = run_cli("graphs", "--p", "2", "--m", "2")
    assert code == 0
    report = json.loads(out)
    classes = _item(report, "isomorphism-classes")
    # graphs 1 and 2 are isomorphic; 0 and 3 are alone in their classes
    assert classes["class_of"] == [0, 1, 1, 2] and classes["witnesses"][2] is not None
    return report


def _item(report: dict, kind: str) -> dict:
    return next(item for item in report["items"] if item["kind"] == kind)


def _permutation_witness(report: dict) -> list:
    """Graph 2's witness, an automorphism's, stored as the permutation it gives: the
    form of a witness composed through a merged orbit leader, which verify checks on
    every row."""
    witnesses = _item(report, "isomorphism-classes")["witnesses"]
    stored = witnesses[2]
    witnesses[2] = list(schreier.witness_permutation(make_field(2, 2), schreier.OrbitWitness(
        stored["sigma"], stored["lambda"], stored["mu"], stored["beta"])))
    assert verify_report(report) == []
    return witnesses[2]


def test_verify_report_rejects_witness_tampering():
    report = _graphs_2_2()
    witness = _permutation_witness(report)
    witness[0] = witness[1]  # no longer a permutation
    assert any("witness of graph 2" in problem for problem in verify_report(report))


def test_verify_report_rejects_a_corrupted_witness_permutation():
    report = _graphs_2_2()
    witness = _permutation_witness(report)
    witness[0], witness[1] = witness[1], witness[0]  # a permutation, not an isomorphism
    assert any("witness of graph 2" in problem for problem in verify_report(report))


def test_verify_report_rejects_a_merged_class():
    report = _graphs_2_2()
    classes = _item(report, "isomorphism-classes")
    classes["class_of"][3] = 0
    classes["witnesses"][3] = list(range(16))
    assert any("witness of graph 3" in problem for problem in verify_report(report))


def test_verify_report_rejects_a_split_class():
    # graphs 1 and 2 have equal refinement invariants, so verify re-runs the search
    report = _graphs_2_2()
    classes = _item(report, "isomorphism-classes")
    classes["class_of"] = [0, 1, 2, 3]
    classes["witnesses"][2] = None
    problems = verify_report(report)
    assert any("graphs 1 and 2 open two classes" in problem for problem in problems)


def test_verify_report_ties_cospectral_to_the_graph_items():
    # a 4-regular 16-vertex graph with another spectrum: the centre's coset graph
    group = heisenberg_group(make_field(2, 2))
    other = coset_graph_bruteforce(center_subgroup(group), default_generators(group))
    report = _graphs_2_2()
    family, cospectral = _item(report, "coset-graphs"), _item(report, "cospectral")
    assert other.n == family["vertices"] and other.degree == family["degree"]
    # the centre fixes every coset of itself, so its free action has rank 0
    charpoly = [encode_count(c) for c in charpoly_by_centre(other.rows, 2, 0).coefficients]
    assert charpoly != cospectral["charpoly"]
    cospectral["charpoly"] = charpoly
    assert cospectral["all_equal"]
    problems = verify_report(report)
    assert problems == ["charpoly is not the characteristic polynomial of H_0's coset graph, "
                        "built from the config"]


def test_verify_report_recomputes_coset_graph_charpolys():
    report = _graphs_2_2()
    coeffs = _item(report, "cospectral")["charpoly"]
    middle = len(coeffs) // 2
    coeffs[middle] = int(coeffs[middle]) + 1  # shape and trace still look right
    problems = verify_report(report)
    assert any("not the characteristic polynomial of H_0's coset graph" in problem
               for problem in problems)


def test_the_rebuilt_graph_counts_multiplicities():
    # vertex 0 of H[0,0,0,0] over GF(4) has a double loop: both (1, 0, 0) and (t, 0, 0) fix it
    report = _graphs_2_2()
    rows = reports._Items(report["items"], report["config"]).graphs()[0].rows
    assert rows[0] == ((0, 2), (4, 1), (8, 1))


def test_verify_builds_each_graph_once(monkeypatch):
    # the coset-graphs, cospectral and isomorphism-classes items read one build per
    # class rep, in catalog order, by the closed form that graphs runs, with no group law
    calls, products = [], []
    build, mul = schreier.build_coset_graph, heisenberg.Heisenberg.mul
    monkeypatch.setattr(schreier, "build_coset_graph",
                        lambda sub, gens: calls.append(sub.label()) or build(sub, gens))
    monkeypatch.setattr(heisenberg.Heisenberg, "mul",
                        lambda group, g, h: products.append(g) or mul(group, g, h))
    report, _ = cmd_graphs(2, 3)
    calls.clear(), products.clear()
    assert verify_report(report) == []
    reps = enumerate_class_reps(make_field(2, 3)).reps
    assert calls == [heisenberg.twist_label(f) for f in reps]
    assert products == []


def test_graphs_and_verify_expand_no_graph_with_an_orbit_witness(monkeypatch):
    # an automorphism's witness is checked on the q representatives' rows alone
    expanded = []
    rows = schreier.CosetGraph.rows
    monkeypatch.setattr(schreier.CosetGraph, "rows", property(
        lambda graph: expanded.append(graph.subgroup_label) or rows.fget(graph)))
    report, _ = cmd_graphs(5, 2)
    assert verify_report(report) == []
    witnesses = _item(report, "isomorphism-classes")["witnesses"]
    reps = enumerate_class_reps(make_field(5, 2)).reps
    witnessed = {heisenberg.twist_label(reps[k]) for k, w in enumerate(witnesses)
                 if isinstance(w, dict)}
    assert len(witnessed) == 16 and witnessed.isdisjoint(expanded)


def test_each_reader_expands_a_graph_once(monkeypatch):
    # no graph keeps its rows, so each reader expands them once: the exports once per
    # graph for both files, and verify once per permutation witness and per first
    # member of its class, however many members the class has
    expanded = []
    rows = schreier.CosetGraph.rows
    monkeypatch.setattr(schreier.CosetGraph, "rows", property(
        lambda graph: expanded.append(graph.subgroup_label) or rows.fget(graph)))
    cmd_graphs(3, 2)
    searched = list(expanded)
    report, exports = cmd_graphs(3, 2, exports=True)
    spec = make_field(3, 2)
    labels = [heisenberg.twist_label(f) for f in enumerate_class_reps(spec).reps]
    assert len(exports) == 3 * len(labels)
    assert sorted(expanded[len(searched):]) == sorted(searched + labels)
    # classes {1, 2, 3, 6} and {4, 5, 7, 8}, each member's orbit witness made a permutation
    classes = _item(report, "isomorphism-classes")
    for k, witness in enumerate(classes["witnesses"]):
        if isinstance(witness, dict):
            orbit = schreier.OrbitWitness(*map(witness.get, reports._WITNESS_KEYS))
            classes["witnesses"][k] = list(schreier.witness_permutation(spec, orbit))
    assert classes["class_of"] == [0, 1, 1, 1, 2, 2, 1, 2, 2]
    # the first members' search apart, which isomorphism_classes runs
    monkeypatch.setattr(schreier, "isomorphism_classes",
                        lambda graphs: (list(range(len(graphs))), [None] * len(graphs)))
    expanded.clear()
    assert verify_report(report) == []
    assert sorted(expanded) == sorted(labels[1:])


class _TwoSpectra(reports._Items):
    """The items with the graphs given, not built from the config."""

    def __init__(self, graphs):
        super().__init__([], {"p": 2, "m": 0})
        self._given = graphs

    def graphs(self):
        return self._given


def test_the_distinct_charpolys_come_in_order_of_first_appearance():
    # GF(4) coset graphs of twisted subgroups are cospectral, so two spectra come from
    # the centre's graph; the oracle numbers them in order of first appearance
    group = heisenberg_group(make_field(2, 2))
    gens = default_generators(group)
    twisted = build_coset_graph(horizontal_subgroup(group), gens)
    centre = coset_graph_bruteforce(center_subgroup(group), gens)
    polys = [charpoly_by_centre(g.rows, 2, 0).coefficients for g in (centre, twisted)]
    assert distinct_charpolys([twisted, centre, twisted]) == (polys[::-1], [0, 1, 0])
    assert distinct_charpolys([centre, twisted]) == (polys, [0, 1])
    # the verifier reads the first graph's alone, which a report's catalog puts first
    items = _TwoSpectra([centre, twisted])
    problems = []
    for first in polys:
        item = {"charpoly": [encode_count(c) for c in first], "all_equal": True}
        assert reports._verify_cospectral(item, items.config, items, problems) is True
    assert problems == ["charpoly is not the characteristic polynomial of H_0's coset graph, "
                        "built from the config"]


def test_verify_report_bounds_structural_conjugate_pairs():
    code, out, _ = run_cli("certify", "--p", "2", "--m", "2")
    assert code == 0
    pairs = json.loads(out)["items"][1]["pair_count"]
    for tampered in (-1, pairs + 1):
        report = json.loads(out)
        dichotomy = report["items"][2]
        assert dichotomy["kind"] == "conjugacy-dichotomy"
        dichotomy["structural_conjugate_pairs"] = tampered
        problems = verify_report(report)
        assert any("structural_conjugate_pairs differs from the closed form" in problem
                   for problem in problems)


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2), (2, 3), (3, 2)])
def test_verify_derives_the_centre_action_from_the_config(p, m, monkeypatch):
    # vertex index(b)·q + index(c) is the coset of (0, b, c), so verify factors H_0's
    # charpoly over the centre of rank m, taken from the config, as production does;
    # by Sunada's theorem it is every graph's, so no other graph's is computed
    calls = []
    report, _ = cmd_graphs(p, m)
    factor = schreier.char_poly
    monkeypatch.setattr(schreier, "char_poly", lambda graph: calls.append(
        (graph.group.ring.p, graph.rank, len(graph.reps))) or factor(graph))
    assert verify_report(report) == []
    assert calls == [(p, m, p**m)]


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2)])
def test_the_centre_is_checked_once_per_rebuilt_graph_and_never_on_a_built_one(
        p, m, monkeypatch):
    # build_coset_graph writes the representatives' rows alone, so it has nothing to
    # check, and verify rebuilds each graph by it too: only rows made elsewhere, by
    # the oracles, are certified by CosetGraph.from_rows
    calls = []
    check = schreier.check_centre
    monkeypatch.setattr(schreier, "check_centre",
                        lambda rows, p, r: calls.append(len(rows)) or check(rows, p, r))
    report, _ = cmd_graphs(p, m)
    assert verify_report(report) == []
    assert calls == []


def _sampled_class_reps(spec, count: int, seed: int) -> list:
    """Seeded class reps of a field whose maps enumerate_class_reps refuses: random
    values at the free coordinates, 0 at the pivots of mult_subspace_echelon."""
    rng = random.Random(seed)
    pivots = {pivot for pivot, _ in mult_subspace_echelon(spec)}
    reps = [LinearMap.from_flat(spec.p, tuple(0 if i in pivots else rng.randrange(spec.p)
                                              for i in range(spec.dim**2)), spec.dim)
            for _ in range(count)]
    assert all(canonical_twist(f, spec) == f for f in reps)
    return reps


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3),
                                  (2, 5), (2, 6)])
def test_verify_derives_the_family_profile_from_the_config(p, m):
    # the class table gives the sizes, identity class and profile that certify and
    # verify derive, for every subgroup of the certify family up to GF(27), and for a
    # seeded sample of class reps over GF(32) and GF(64)
    spec = make_field(p, m)
    group = heisenberg_group(spec)
    table = group.conjugacy_classes()
    q = spec.size
    assert list(table.sizes()) == family_class_sizes(q) == [1] * q + [q] * (q * q - 1)
    assert table.identity_class() == 0
    if family_mode(p, m) == "all-twists":
        maps = all_linear_maps(spec)
    elif m <= 4:
        maps = enumerate_class_reps(spec).reps
    else:
        with pytest.raises(SizeCapExceeded):
            enumerate_class_reps(spec)
        maps = _sampled_class_reps(spec, 16, seed=m)
    profile = family_profile(q)
    for f in maps:
        assert list(intersection_profile(twisted_subgroup(f, group), table)) == profile
