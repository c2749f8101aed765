"""One measured job of the gassmann benchmark, run in a fresh interpreter.

    python3 bench/child.py SPEC_JSON

SPEC_JSON names the record file to write and what to run:

    {"record": path, "argv": [...CLI arguments...],
     "graphs": {"polys": [i, ...], "pairs": [[i, j], ...]} or absent,
     "instrument": "none" | "probe" | "trace" | "count" | "micro"}

The CLI runs in-process through ``gassmann.cli.main`` with its stdout
going wherever the parent pointed it.  The first call into a layer (a
``cmd_*`` function, or ``verify_report``) ends set-up; the job ends when
``main`` has returned, the report is flushed and, for graphs-gf8, the
library leg on GF(8) is done.  Stamps are ``time.monotonic()``, which is
CLOCK_MONOTONIC on Linux and therefore comparable with the parent's.

Instrumentation is applied from outside: nothing under ``src/`` knows
about it.  "trace" wraps layer entry points with spans, "count" wraps
the hot ring and group operations with counters, "probe" exits at the
first layer call, and "micro" times warm ring and group operations.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# (module, attribute, span name); every gassmann module binding the same
# object is patched, since cli imports some names with ``from ... import``.
SPAN_TARGETS = (
    ("gassmann.cli", "cmd_certify", "cli"),
    ("gassmann.cli", "cmd_graphs", "cli"),
    ("gassmann.cli", "_bruteforce_subgroup_keys", "cli.bruteforce_subgroup_keys"),
    ("gassmann.heisenberg", "twisted_subgroup", "heisenberg.twisted_subgroup"),
    ("gassmann.certify", "enumerate_class_reps", "certify.enumerate_class_reps"),
    ("gassmann.certify", "twist_orbit_count_bruteforce",
     "certify.twist_orbit_count_bruteforce"),
    ("gassmann.certify", "intersection_profile", "certify.intersection_profile"),
    ("gassmann.certify", "are_conjugate", "certify.are_conjugate"),
    ("gassmann.schreier", "build_coset_graph", "schreier.build_coset_graph"),
    ("gassmann.schreier", "char_poly", "schreier.char_poly"),
    ("gassmann.schreier", "are_isomorphic", "schreier.are_isomorphic"),
    ("gassmann.reports", "canonical_json", "reports.canonical_json"),
    ("gassmann.reports", "verify_report", "reports.verify_report"),
)
# Methods patched on their class rather than in module namespaces.
SPAN_METHODS = (
    ("gassmann.heisenberg", "Heisenberg", "conjugacy_classes",
     "heisenberg.conjugacy_classes"),
)
# First calls into a layer: their entry ends set-up.
ENTRY_POINTS = ("cmd_certify", "cmd_graphs")


def patch_everywhere(original, replacement) -> None:
    """Rebind every gassmann module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "gassmann" or name.startswith("gassmann."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    """In-memory spans [name, start, end, parent index]; written at exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        for module_name, attr, span in SPAN_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            patch_everywhere(original, self.wrap(span, original))
        for module_name, cls_name, attr, span in SPAN_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr)))


class Counter:
    """Call counters on the hot operations, too frequent for spans."""

    def __init__(self):
        self.cells: dict[str, list[int]] = {}

    def counted(self, key, fn):
        cell = self.cells.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def scoped(self, key, sources, fn):
        """Count the calls of ``sources`` made while ``fn`` runs."""
        cell = self.cells.setdefault(key, [0])
        cells = self.cells

        def wrapper(*args, **kwargs):
            before = sum(cells[s][0] for s in sources)
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += sum(cells[s][0] for s in sources) - before

        return wrapper

    def install(self) -> None:
        from gassmann import certify, cli, heisenberg, rings, schreier

        ring_ops = rings._RingOps
        for op in ("add", "mul", "neg"):
            setattr(ring_ops, op, self.counted(f"rings.{op}", getattr(ring_ops, op)))
        group = heisenberg.Heisenberg
        for op in ("mul", "inv", "conjugate"):
            setattr(group, op, self.counted(f"heisenberg.{op}", getattr(group, op)))
        group.conjugacy_classes = self.scoped(
            "heisenberg.class_table_group_ops",
            ("heisenberg.mul", "heisenberg.inv"), group.conjugacy_classes)
        patch_everywhere(cli._bruteforce_subgroup_keys, self.scoped(
            "cli.bruteforce_conjugations", ("heisenberg.conjugate",),
            cli._bruteforce_subgroup_keys))
        patch_everywhere(certify.canonical_twist, self.counted(
            "certify.maps_canonicalized", certify.canonical_twist))
        patch_everywhere(schreier._permutation_matches, self.counted(
            "schreier.iso_match_checks", schreier._permutation_matches))
        char_poly = schreier.char_poly
        vertices = self.cells.setdefault("schreier.char_poly_vertices", [0])

        def counted_char_poly(graph, *args, **kwargs):
            vertices[0] += graph.n
            return char_poly(graph, *args, **kwargs)

        patch_everywhere(char_poly, counted_char_poly)
        classes = self.cells.setdefault("heisenberg.classes", [0])
        conjugacy_classes = group.conjugacy_classes

        def counted_classes(self_, *args, **kwargs):
            table = conjugacy_classes(self_, *args, **kwargs)
            classes[0] = max(classes[0], table.class_count)
            return table

        group.conjugacy_classes = counted_classes

    def totals(self) -> dict:
        counts = {key: cell[0] for key, cell in self.cells.items()}
        counts["rings.ring_ops"] = sum(counts.pop(f"rings.{op}") for op in ("add", "mul", "neg"))
        counts["heisenberg.group_ops"] = counts.pop("heisenberg.mul") + counts.pop("heisenberg.inv")
        counts.pop("heisenberg.conjugate")
        return counts


def graphs_library_leg(polys, pairs):
    """The per-graph and per-pair work of ``graphs --p 2 --m 3`` on a sample."""
    from gassmann import certify, heisenberg, rings, schreier

    spec = rings.make_field(2, 3)
    group = heisenberg.heisenberg_group(spec)
    gens = schreier.default_generators(group)
    reps = certify.enumerate_class_reps(spec).reps
    graphs = [schreier.build_coset_graph(heisenberg.twisted_subgroup(f, group), gens)
              for f in reps]
    charpolys = {i: schreier.char_poly(graphs[i]).coefficients for i in polys}
    verdicts = {(i, j): schreier.are_isomorphic(graphs[i], graphs[j]) for i, j in pairs}
    return graphs, charpolys, verdicts


def graphs_record(graphs, charpolys, verdicts) -> dict:
    """Outputs of the library leg, with the adjacency the parent checks them on."""
    used = set(charpolys)
    for (i, j), result in verdicts.items():
        if result.isomorphic:
            used.update((i, j))
    return {
        "graphs": len(graphs),
        "adjacency": {str(i): [list(row) for row in graphs[i].adjacency] for i in sorted(used)},
        "charpolys": {str(i): list(c) for i, c in charpolys.items()},
        "pairs": [[i, j, r.isomorphic, list(r.witness) if r.witness else None]
                  for (i, j), r in verdicts.items()],
    }


def micro() -> dict:
    """Warm ns per call of ring and group operations on GF(8), loop included."""
    from gassmann import heisenberg, rings

    spec = rings.make_field(2, 3)
    group = heisenberg.heisenberg_group(spec)
    ring_pairs = [(a, b) for a in spec.elements for b in spec.elements] * 64
    elements = group.elements
    group_pairs = [(elements[i], elements[(i * 37 + 11) % len(elements)])
                   for i in range(len(elements))] * 8
    cases = {
        "rings.add_ns": (spec.add, ring_pairs),
        "rings.mul_ns": (spec.mul, ring_pairs),
        "heisenberg.mul_ns": (group.mul, group_pairs),
        "heisenberg.conjugate_ns": (group.conjugate, group_pairs),
    }
    out = {}
    for name, (op, pairs) in cases.items():
        out[name] = _median_ns(lambda: [op(a, b) for a, b in pairs], len(pairs))
    singles = [a for a, _ in ring_pairs]
    out["rings.neg_ns"] = _median_ns(lambda: [spec.neg(a) for a in singles], len(singles))
    return out


def _median_ns(run, ops: int, repeats: int = 7) -> float:
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[repeats // 2] / ops * 1e9


def main() -> None:
    spec = json.loads(sys.argv[1])
    instrument = spec["instrument"]
    record: dict = {}
    if instrument == "micro":
        record["micro"] = micro()
        _write(spec["record"], record)
        return

    from gassmann import cli

    def write_probe():
        record["first"] = time.monotonic()
        _write(spec["record"], record)
        sys.stdout.flush()
        os._exit(0)

    def stamp(fn):
        def first_call(*args, **kwargs):
            if instrument == "probe":
                write_probe()
            record.setdefault("first", time.monotonic())
            return fn(*args, **kwargs)
        return first_call

    for name in ENTRY_POINTS:
        setattr(cli, name, stamp(getattr(cli, name)))
    if spec["argv"][0] == "verify":
        from gassmann import reports
        reports.verify_report = stamp(reports.verify_report)

    tracer = counter = None
    if instrument == "trace":
        tracer = Tracer()
        tracer.install()
    elif instrument == "count":
        counter = Counter()
        counter.install()

    record["rc"] = cli.main(spec["argv"])
    sys.stdout.flush()
    leg = None
    if spec.get("graphs"):
        leg = graphs_library_leg(spec["graphs"]["polys"],
                                 [tuple(p) for p in spec["graphs"]["pairs"]])
    record["end"] = time.monotonic()

    record["rss_kb"] = peak_rss_kb()
    if leg is not None:
        record["graphs"] = graphs_record(*leg)
    if tracer is not None:
        record["spans"] = tracer.spans
    if counter is not None:
        record["counts"] = counter.totals()
    _write(spec["record"], record)


def peak_rss_kb() -> int:
    """Peak RSS of this process image.

    VmHWM belongs to the address space made by exec.  ``ru_maxrss`` would
    also count the parent's pages that the fork before exec touched.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
