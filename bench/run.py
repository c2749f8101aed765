"""Benchmark of the gassmann certifier: cold CLI processes, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each job is a fresh interpreter (``bench/child.py``), one at a
time, so every cache starts cold as it does for a CLI user.  Jobs repeat
until ``--seconds`` have passed (at least ``MIN_JOBS``) and medians are
reported.  Every job's output is checked after it exits, outside the
timed interval; a job failing any check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs, then makes one counting run and one warm
microbenchmark run, and prints the per-layer metrics.  The last line of
stdout is the result object; the line before it records the environment.
See ``bench/README.md`` for the metrics and why each workload is here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")

MIN_JOBS = 3
# Process start-up varies from one spawn to the next, so each run takes at
# least this many set-up samples, spread over the run.
SETUP_SAMPLES = 12
DEADLINE_S = 170.0

# graphs-gf8 sample per job: charpolys of GRAPH_POLYS of the 64 coset
# graphs, and isomorphism on the pairs (pi(i), pi(i + d)) for a random
# permutation pi and d = 1..PAIR_OFFSETS, so each graph is in the same
# number of pairs, and the cost varies less from seed to seed than with
# pairs drawn at random.
GRAPH_COUNT = 64
GRAPH_POLYS = 3
PAIR_OFFSETS = 3
DET_POINTS = (-2, 3)

WORKLOADS = {
    "certify-gf8": ["certify", "--p", "2", "--m", "3"],
    "certify-gf17": ["certify", "--p", "17", "--m", "1"],
    # GF(4) graphs CLI run (the report that is written and verified),
    # then the library leg on GF(8) sampled from --seed.
    "graphs-gf8": ["graphs", "--p", "2", "--m", "2"],
}

E2E_UNITS = {"run_s": "s", "setup_s": "s", "report_bytes": "B", "peak_rss_mb": "MB"}

SPAN_METRICS = (
    "cli", "cli.bruteforce_subgroup_keys", "heisenberg.conjugacy_classes",
    "heisenberg.twisted_subgroup", "certify.enumerate_class_reps",
    "certify.twist_orbit_count_bruteforce", "certify.intersection_profile",
    "certify.are_conjugate", "schreier.build_coset_graph", "schreier.char_poly",
    "schreier.are_isomorphic", "reports.canonical_json", "reports.verify_report",
)
CALL_METRICS = (
    "heisenberg.twisted_subgroup", "certify.intersection_profile",
    "certify.are_conjugate", "schreier.build_coset_graph", "schreier.char_poly",
    "schreier.are_isomorphic",
)
COUNT_METRICS = (
    "heisenberg.classes", "heisenberg.class_table_group_ops",
    "cli.bruteforce_conjugations", "heisenberg.group_ops", "rings.ring_ops",
    "certify.maps_canonicalized", "schreier.char_poly_vertices",
    "schreier.iso_match_checks",
)
MICRO_METRICS = ("heisenberg.mul_ns", "heisenberg.conjugate_ns",
                 "rings.add_ns", "rings.mul_ns", "rings.neg_ns")


class Bench:
    """One benchmark invocation: spawns the jobs one at a time and checks their outputs."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.argv = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.first_report: bytes | None = None
        self.det_cache: dict = {}
        # An installed package runs from compiled bytecode, so the jobs may
        # write and reuse __pycache__ even where the caller turned it off.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        with open(os.path.join(BENCH, "graphs_gf8_expected.json")) as fh:
            self.expected_graphs = json.load(fh)

    # -- processes ---------------------------------------------------------

    def spawn(self, argv, instrument: str, graphs=None):
        """Run one child to completion; returns (record, stdout path, t_spawn)."""
        self.spawned += 1
        stem = os.path.join(self.work, f"{self.spawned:04d}")
        spec = {"record": stem + ".record.json", "argv": argv,
                "instrument": instrument, "graphs": graphs}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                                  stdout=out, stderr=err, cwd=ROOT, env=self.env,
                                  timeout=timeout)
        if proc.returncode != 0 or not os.path.exists(spec["record"]):
            with open(stem + ".err", "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            raise RuntimeError(f"child exited {proc.returncode}: {tail}")
        with open(spec["record"]) as fh:
            return json.load(fh), stem + ".out", t_spawn

    def graphs_sample(self, job: int):
        if self.workload != "graphs-gf8":
            return None
        rng = random.Random(f"graphs-gf8:{self.seed}:{job}")
        polys = sorted(rng.sample(range(GRAPH_COUNT), GRAPH_POLYS))
        perm = rng.sample(range(GRAPH_COUNT), GRAPH_COUNT)
        pairs = sorted({tuple(sorted((perm[i], perm[(i + d) % GRAPH_COUNT])))
                        for i in range(GRAPH_COUNT) for d in range(1, PAIR_OFFSETS + 1)})
        return {"polys": polys, "pairs": [list(p) for p in pairs]}

    def job(self, instrument: str, index: int):
        """One job and ``gassmann verify`` on its report, both checked after they exit.

        Returns the job's record, or None if a check failed.  A traced job
        gets a traced verify, whose spans are kept as ``verify_spans``.
        """
        self.attempted += 1
        graphs = self.graphs_sample(index)
        try:
            record, report_path, t_spawn = self.spawn(self.argv, instrument, graphs)
            problems = self.check_report(record, report_path)
            if graphs is not None:
                problems += self.check_graphs(record.get("graphs"), graphs)
            record["setup_s"] = record["first"] - t_spawn
            record["run_s"] = record["end"] - record["first"]
            record["report"] = report_path
            verify_instrument = "trace" if instrument == "trace" else "none"
            verified, out, _ = self.spawn(["verify", report_path], verify_instrument)
            with open(out, "rb") as fh:
                if verified.get("rc") != 0 or fh.read().strip() != b"verified":
                    problems.append("gassmann verify rejected the report")
            record["verify_spans"] = verified.get("spans")
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
                OSError, ValueError, KeyError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            print(f"[{self.workload} job {index} {instrument}] {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        print(f"[{self.workload} job {index} {instrument}] setup {record['setup_s']:.3f} s, "
              f"run {record['run_s']:.3f} s, rss {record['rss_kb'] / 1024:.1f} MB",
              file=sys.stderr)
        return record

    def probe(self) -> float:
        """Set-up time of one process that exits at its first call into a layer."""
        record, _, t_spawn = self.spawn(self.argv, "probe")
        return record["first"] - t_spawn

    # -- output checks -----------------------------------------------------

    def check_report(self, record: dict, path: str) -> list[str]:
        problems = []
        if record.get("rc") != 0:
            problems.append(f"exit code {record.get('rc')}")
        with open(path, "rb") as fh:
            raw = fh.read()
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            problems.append("report bytes differ from the first job of this run")
        report = json.loads(raw)
        if report.get("summary", {}).get("verdict") != "pass":
            problems.append("summary verdict is not pass")
        by_kind = defaultdict(list)
        for item in report.get("items", []):
            by_kind[item.get("kind")].append(item)
        if self.workload.startswith("certify-"):
            p, m = int(self.argv[2]), int(self.argv[4])
            counts = [int(i["actual"]) for i in by_kind["class-count"]]
            if counts != [p ** (m * (m - 1))]:
                problems.append(f"class count {counts} is not [{p}^({m}({m}-1))]")
            if [i.get("all_equal") for i in by_kind["gassmann-family"]] != [True]:
                problems.append("gassmann-family profiles are not all equal")
        elif self.workload == "graphs-gf8":
            if [i.get("all_equal") for i in by_kind["cospectral"]] != [True]:
                problems.append("GF(4) coset graphs are not cospectral")
        return problems

    def check_graphs(self, got: dict | None, sample: dict) -> list[str]:
        """Charpolys against Bareiss determinants, Sunada, and committed verdicts."""
        from gassmann.schreier import bareiss_determinant, verify_witness

        if got is None:
            return ["library leg produced no output"]
        expected = self.expected_graphs
        problems = []
        if got["graphs"] != expected["graphs"]:
            problems.append(f"{got['graphs']} coset graphs, expected {expected['graphs']}")
        adjacency = got["adjacency"]
        polys = got["charpolys"]
        if sorted(map(int, polys)) != sample["polys"]:
            problems.append("charpolys were not computed for the sampled graphs")
        for key, coeffs in polys.items():
            adj = adjacency[key]
            for t in DET_POINTS:
                cache_key = (json.dumps(adj), t)
                if cache_key not in self.det_cache:
                    n = len(adj)
                    shifted = [[(t if u == v else 0) - adj[u][v] for v in range(n)]
                               for u in range(n)]
                    self.det_cache[cache_key] = bareiss_determinant(shifted)
                value = 0
                for c in coeffs:
                    value = value * t + c
                if value != self.det_cache[cache_key]:
                    problems.append(f"charpoly of graph {key} is not det(tI - A) at t = {t}")
            if coeffs != expected["charpoly"]:
                problems.append(f"charpoly of graph {key} differs from the committed one "
                                "(the sample is not cospectral)")
        iso_expected = {tuple(p) for p in expected["isomorphic_pairs"]}
        if [[i, j] for i, j, _, _ in got["pairs"]] != sample["pairs"]:
            problems.append("isomorphism was not decided for the sampled pairs")
        for i, j, isomorphic, witness in got["pairs"]:
            if isomorphic != ((i, j) in iso_expected):
                problems.append(f"pair ({i}, {j}) verdict {isomorphic} is not the committed one")
            if isomorphic and not verify_witness(adjacency[str(i)], adjacency[str(j)], witness):
                problems.append(f"pair ({i}, {j}) witness does not map the graphs")
        return problems

    # -- runs --------------------------------------------------------------

    def timed_loop(self, step, min_steps: int = MIN_JOBS) -> None:
        """Call ``step(index)`` until ``seconds`` have passed and ``min_steps`` ran."""
        start = time.monotonic()
        index = 0
        while index < min_steps or time.monotonic() - start < self.seconds:
            if time.monotonic() > self.deadline - 30:
                break
            step(index)
            index += 1

    def end_to_end(self) -> dict:
        records, setups = [], []
        start = time.monotonic()

        def top_up(share):
            """Spread the set-up probes evenly over the run."""
            while len(setups) < SETUP_SAMPLES * share:
                setups.append(self.probe())

        def step(index):
            record = self.job("none", index)
            if record is not None:
                records.append(record)
                setups.append(record["setup_s"])
            top_up(min(1.0, (time.monotonic() - start) / self.seconds))

        self.timed_loop(step)
        top_up(1.0)
        if not records:
            raise RuntimeError("no job passed its checks")
        median = statistics.median
        return {
            "run_s": median(r["run_s"] for r in records),
            "setup_s": median(setups),
            "report_bytes": median(os.path.getsize(r["report"]) for r in records),
            "peak_rss_mb": median(r["rss_kb"] / 1024 for r in records),
        }

    def per_layer(self) -> dict:
        plain, traced = [], []

        def step(index):
            record = self.job("none", index)
            if record is not None:
                plain.append(record)
            record = self.job("trace", index)
            if record is not None:
                traced.append(record)

        self.timed_loop(step, min_steps=2)
        counted = self.job("count", 0)
        micro, _, _ = self.spawn([], "micro")
        if not plain or not traced or counted is None:
            raise RuntimeError("no job passed its checks")
        median = statistics.median
        metrics: dict[str, float] = {}
        jobs = [layer_times(r["spans"]) for r in traced]
        verifies = [layer_times(r["verify_spans"]) for r in traced]
        for name in SPAN_METRICS:
            metrics[f"{name}.self_s"] = median(
                job[0][name] + verify[0][name] for job, verify in zip(jobs, verifies))
        for name in CALL_METRICS:
            metrics[f"{name}.calls"] = jobs[0][1][name]
        for name in COUNT_METRICS:
            metrics[name] = counted["counts"][name]
        for name in MICRO_METRICS:
            metrics[name] = micro["micro"][name]
        traced_run = median(r["run_s"] for r in traced)
        metrics["trace.run_s"] = traced_run
        metrics["trace.overhead_s"] = traced_run - median(r["run_s"] for r in plain)
        metrics["trace.unspanned_s"] = median(
            r["run_s"] - sum(selfs.values()) for r, (selfs, _) in zip(traced, jobs))
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def layer_times(spans) -> tuple[dict, Counter]:
    """Self time (duration minus time covered by child spans) and calls per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, start, end, _), cover in zip(spans, covered):
        selfs[name] += end - start - cover
        calls[name] += 1
    return selfs, calls


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows machine-speed drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "gassmann")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "gassmann", "cli.py")):
        print(f"error: no gassmann sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    env["calibration_before_s"] = calibrate()
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        values = bench.per_layer() if args.trace else bench.end_to_end()
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    env["calibration_after_s"] = calibrate()
    env["loadavg_after"] = list(os.getloadavg())
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)

    if args.trace:
        units = {name: per_layer_unit(name) for name in values}
    else:
        units = E2E_UNITS
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
