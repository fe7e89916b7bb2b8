#!/usr/bin/env python3
"""Pipeline benchmark for hierlabel.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --workload all        # every workload in turn
    python3 pipebench/run.py --self-test           # checks of the benchmark
    python3 pipebench/run.py --write-golden        # re-record golden.json

Workloads (see ``workloads.py``): ``deep-comb`` (161-node comb of depth 80,
``all --threads 1``) and ``wide-staged`` (root -> 24 -> 24 leaves, run as the
five stage commands in separate processes).  ``--seed`` picks one of a fixed
set of input variants per workload (``seed % variants``), so every run's
reports can be checked byte for byte against the digests in ``golden.json``.

With ``--trace 0`` each run measures, as fresh ``python -m hierlabel.cli``
processes:

* ``setup_s``: median wall time of ``validate --config ...`` (import, input
  parse, reference-corpus load), one sample before each sequence and, if
  that makes fewer than ``SETUP_SAMPLES``, more after the last;
* ``wall_s``: median wall time of the workload's whole command sequence,
  first spawn to last exit;
* ``peak_rss_mb``: median over sequences of the largest ``ru_maxrss`` among
  the sequence's processes;
* ``fail_ratio``: sequences and set-up samples that failed (a non-zero exit
  or report bytes that differ from the golden digests) over those attempted,
  reported as the result's ``failed`` / ``attempted``.

Sequences run until the next one, with the set-up samples still owed,
would overrun ``--seconds`` (at least one sequence).  With ``--trace 1``
the run alternates an untraced sequence with one run through ``traced.py``
and reports the per-layer metrics of the traced one, plus
``trace_overhead``.  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with input descriptors and the environment, goes to ``.pipebench/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import harness
import workloads

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0        # every child is killed by then
BASELINE = harness.HERE / "baseline.json"

METHODS = ("MTWL_raw", "MTWL_idf", "ICWL_raw", "ICWL_idf",
           "HierMTWL_raw", "HierMTWL_idf", "HierICWL_raw", "HierICWL_idf",
           "RCL_chi2", "RCL_jsd", "HierRCL_chi2", "HierRCL_jsd",
           "PopesculUngar", "RLUM", "CFAverage", "CFLeaveOneOut")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("corpus", "labeling", "queryeval", "stats", "coherence", "cli")

# per-layer metric -> (unit, source, key); sources are read by layer_metrics
PER_LAYER = {
    "corpus.load_matrix_s": ("s", "total", "corpus.load_matrix"),
    "corpus.load_vocabulary_s": ("s", "total", "corpus.load_vocabulary"),
    "corpus.load_hierarchy_s": ("s", "total", "corpus.load_hierarchy"),
    "corpus.build_node_stats_s": ("s", "total", "corpus.build_node_stats"),
    "cli.load_inputs_calls": ("count", "calls", "cli.load_inputs"),
    **{f"labeling.{m}_s": ("s", "total", f"labeling.{m}") for m in METHODS},
    "labeling.empty_label_nodes": ("count", "count",
                                   "labeling.empty_label_nodes"),
    "queryeval.evaluate_all_s": ("s", "total", "queryeval.evaluate_all"),
    "queryeval.derive_specific_queries_s": (
        "s", "total", "queryeval.derive_specific_queries"),
    "queryeval.derive_generic_queries_s": (
        "s", "total", "queryeval.derive_generic_queries"),
    "queryeval.query_to_prefix_s": ("s", "total", "queryeval.query_to_prefix"),
    "queryeval.unretrievable_nodes": ("count", "count",
                                      "queryeval.unretrievable_nodes"),
    "queryeval.query_bytes": ("bytes", "file", "queries.txt"),
    "stats.fit_additive_model_s": ("s", "total", "stats.fit_additive_model"),
    "stats.fit_level_model_s": ("s", "total", "stats.fit_level_model"),
    "stats.snk_compare_s": ("s", "total", "stats.snk_compare"),
    "stats.srq_calls": ("count", "count", "stats.srq_calls"),
    "stats.srq_distinct": ("count", "count", "stats.srq_distinct"),
    "coherence.load_reference_corpus_s": (
        "s", "total", "coherence.load_reference_corpus"),
    "coherence.count_cooccurrence_s": ("s", "total",
                                       "coherence.count_cooccurrence"),
    "coherence.oc_npmi_s": ("s", "total", "coherence.oc_npmi"),
    "coherence.oc_npmi_calls": ("count", "calls", "coherence.oc_npmi"),
    "coherence.pair_keys": ("count", "count", "coherence.pair_keys"),
    "coherence.oov_label_terms": ("count", "count",
                                  "coherence.oov_label_terms"),
    **{f"cli.stage_{s}_s": ("s", "self", f"cli.stage_{s}")
       for s in ("validate", "label", "evaluate", "stats", "coherence")},
    "cli.read_labels_csv_s": ("s", "total", "cli.read_labels_csv"),
    "cli.read_metrics_csv_s": ("s", "total", "cli.read_metrics_csv"),
    "cli.write_manifest_s": ("s", "total", "cli.write_manifest"),
    "cli.report_bytes": ("bytes", "file", ""),        # manifest excluded
    **{f"{layer}.self_s": ("s", "layer", layer) for layer in LAYERS},
    "trace_overhead": ("ratio", "overhead", ""),
}


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def read_spans(files) -> dict:
    """Totals, self times, call counts and counters over the span dumps of
    one traced sequence.  A span's self time is its duration minus the part
    its child spans cover and minus aggregated calls made inside it."""
    total, self_t, calls = defaultdict(float), defaultdict(float), Counter()
    layer, counts, srq_keys = defaultdict(float), Counter(), set()
    for f in files:
        d = json.loads(Path(f).read_text())
        spans = d["spans"]
        kids = defaultdict(list)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                kids[s[1]].append((spans[i][2], spans[i][3]))
        for i, (name, _, t0, t1, agg) in enumerate(spans):
            own = (t1 - t0) - _covered(kids[i], t0, t1) - agg
            total[name] += t1 - t0
            self_t[name] += own
            calls[name] += 1
            layer[name.split(".")[0]] += own
        for name, (n, seconds) in d["agg"].items():
            total[name] += seconds
            calls[name] += n
            layer[name.split(".")[0]] += seconds
        counts.update(d["counts"])
        srq_keys |= {tuple(k) for k in d["srq_keys"]}
    counts["stats.srq_distinct"] = len(srq_keys)
    return {"total": total, "self": self_t, "calls": calls, "layer": layer,
            "count": counts}


def layer_metrics(spans: dict, out: Path, overhead: float) -> dict:
    metrics = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if source == "file":
            paths = ([out / key] if key else
                     [p for p in out.rglob("*") if p.name != harness.MANIFEST])
            value = sum(p.stat().st_size for p in paths if p.is_file())
        elif source == "overhead":
            value = overhead
        else:
            value = spans[source].get(key, 0)
        metrics[name] = value
    return metrics


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100)[q - 1]


class Run:
    """One benchmark run of one workload; keeps every sample it takes."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.wl = workloads.WORKLOADS[name]
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.dir = harness.WORK / "runs" / name
        self.inputs = self.dir / "inputs"
        self.attempted = self.failed = 0
        self.problems = []
        self.expected = harness.expected_for(harness.load_golden(), name,
                                             seed)

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.descriptors = self.wl.generate(
            self.inputs, workloads.variant(self.name, self.seed))
        self.environment = harness.environment()

    def _fail(self, what, problems):
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems[:5])

    def validate(self) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        p = harness.spawn(
            harness.cli_argv(["validate"], self.inputs / "config.json",
                             self.dir / "out"),
            self.dir / "validate.stderr", self.deadline)
        wall = time.perf_counter() - t0
        if p.rc != 0:
            self._fail("validate", [f"exited {p.rc}: {p.stderr}"])
        return wall

    def sequence(self, traced: bool):
        """One run of the command sequence, gated on exit codes and report
        digests.  Returns (SequenceRun, span files)."""
        self.attempted += 1
        out = self.dir / "out"
        spans_dir = None
        if traced:
            spans_dir = self.dir / "spans"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
        run = harness.run_sequence(self.wl.commands, self.inputs, out,
                                   self.deadline, spans_dir)
        problems = run.problems or harness.check_reports(
            out, self.inputs, self.expected)
        if problems:
            self._fail("traced sequence" if traced else "sequence", problems)
        files = sorted(spans_dir.glob("*.json")) if traced else []
        return run, files

    def fits(self, last: float) -> bool:
        return time.perf_counter() - self.t_measure + last <= self.seconds

    def measure(self) -> dict:
        self.t_measure = time.perf_counter()
        setup, walls, rss = [], [], []
        while True:
            setup.append(self.validate())
            run, _ = self.sequence(traced=False)
            walls.append(run.wall_s)
            rss.append(run.peak_rss_mb)
            # room for another pair and for the set-up samples still owed
            owed = max(0, SETUP_SAMPLES - len(setup) - 1) * setup[-1]
            if not self.fits(setup[-1] + run.wall_s + owed):
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.validate())
        self.samples = {"setup_s": setup, "wall_s": walls,
                        "peak_rss_mb": rss}
        return {k: (statistics.median(self.samples[k]), unit)
                for k, unit in END_TO_END.items()}

    def measure_traced(self) -> dict:
        self.t_measure = time.perf_counter()
        plain, traced, layers = [], [], []
        while True:
            run, _ = self.sequence(traced=False)
            plain.append(run.wall_s)
            run, files = self.sequence(traced=True)
            traced.append(run.wall_s)
            layers.append(read_spans(files))
            if not self.fits(plain[-1] + traced[-1]):
                break
        overhead = statistics.median(traced) / statistics.median(plain)
        per_run = [layer_metrics(s, self.dir / "out", overhead)
                   for s in layers]
        self.samples = {"wall_s": plain, "traced_wall_s": traced}
        return {name: (statistics.median(r[name] for r in per_run), unit)
                for name, (unit, _, _) in PER_LAYER.items()}

    def record(self, metrics: dict, trace: bool) -> dict:
        baseline = {}
        if BASELINE.is_file():
            baseline = json.loads(BASELINE.read_text()).get("environment", {})
        comparable = not baseline or baseline == self.environment
        rec = {"workload": self.name, "seed": self.seed,
               "variant": workloads.variant(self.name, self.seed),
               "trace": trace, "seconds": self.seconds,
               "descriptors": self.descriptors,
               "environment": self.environment,
               "comparable_with_baseline": comparable,
               "samples": self.samples, "problems": self.problems,
               "attempted": self.attempted, "failed": self.failed,
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
        path = harness.WORK / "results" / (
            f"{self.name}-seed{self.seed}-trace{int(trace)}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"workload {self.name} seed {self.seed} variant "
              f"{rec['variant']}: {json.dumps(self.descriptors)}")
        print(f"environment: {json.dumps(self.environment)}"
              + ("" if comparable else
                 "  (differs from baseline.json: NOT comparable)"))
        for k, (v, u) in metrics.items():
            n = len(self.samples.get(k, ()))
            tail = tail_percentile(self.samples.get(k, ()))
            extra = (f" (median of {n}; "
                     + (f"p{tail[0]} {tail[1]:.4g}" if tail else
                        "too few samples for a tail percentile") + ")"
                     if n else "")
            print(f"  {k} = {v:.6g} {u}{extra}")
        print(f"  fail_ratio = {self.failed}/{self.attempted} = "
              f"{self.failed / self.attempted:.3g}")
        for p in self.problems:
            print(f"  FAILED {p}")
        print(f"  record: {path.relative_to(harness.ROOT)}")
        return rec


def run_one(name, seed, seconds, trace) -> dict:
    run = Run(name, seed, seconds)
    run.prepare()
    metrics = run.measure_traced() if trace else run.measure()
    rec = run.record(metrics, trace)
    shutil.rmtree(run.dir, ignore_errors=True)
    return rec


def self_test() -> int:
    """Smoke inputs equal the acceptance fixture; seeded inputs are
    reproducible; wide-staged's staged reports equal an ``all`` run and the
    golden digests; a corrupted report makes the gate fire."""
    root = harness.WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == list(END_TO_END.items())
          and [(m["name"], m["unit"]) for m in bench["per_layer"]]
          == [(k, v[0]) for k, v in PER_LAYER.items()]
          and [w["name"] for w in bench["workloads"]]
          == list(workloads.WORKLOADS),
          "BENCHMARK.json names the metrics and workloads reported")
    workloads.gen_smoke(root / "smoke")
    got = {p.name: harness.sha256(p) for p in (root / "smoke").iterdir()}
    check(got == workloads.SMOKE_FIXTURE_SHA256,
          "smoke inputs are the acceptance fixture byte for byte")
    for name in ("deep-comb", "wide-staged"):
        gen = workloads.WORKLOADS[name].generate
        a, b = gen(root / "a", 3), gen(root / "b", 3)
        same = all(harness.sha256(p) == harness.sha256(root / "b" / p.name)
                   for p in (root / "a").iterdir())
        check(a == b and same, f"{name} inputs are a function of the seed")
        shutil.rmtree(root / "a")
        shutil.rmtree(root / "b")

    wl = workloads.WORKLOADS["wide-staged"]
    inputs = root / "wide"
    wl.generate(inputs, 0)
    deadline = time.perf_counter() + 600
    staged = harness.run_sequence(wl.commands, inputs, root / "staged",
                                  deadline)
    single = harness.run_sequence([["all"]], inputs, root / "all", deadline)
    check(not staged.problems and not single.problems,
          "wide-staged runs staged and as all")
    check(harness.report_digests(root / "staged")
          == harness.report_digests(root / "all"),
          "wide-staged stage-by-stage reports equal the all reports")
    expected = harness.expected_for(harness.load_golden(), "wide-staged", 0)
    check(harness.check_reports(root / "staged", inputs, expected) == [],
          "wide-staged reports match golden.json")
    with open(root / "staged" / "metrics.csv", "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(b"X" if first != b"X" else b"Y")
    problems = harness.check_reports(root / "staged", inputs, expected)
    check(any(p.startswith("metrics.csv") for p in problems)
          and any(p.startswith(harness.MANIFEST) for p in problems),
          "a corrupted report makes the gate fire")
    shutil.rmtree(root, ignore_errors=True)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not harness.program_present():
        print(f"hierlabel sources not found under {harness.SRC}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.write_golden:
        harness.write_golden()
        return 0

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    recs = [run_one(n, args.seed, args.seconds, bool(args.trace))
            for n in names]          # one at a time, never concurrently
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    if len(recs) == 1:
        metrics = recs[0]["metrics"]
    else:
        print("workload        " + "  ".join(
            f"{k:>18}" for k in (*recs[0]["metrics"], "fail_ratio")))
        for r in recs:
            cells = [f"{m['value']:>15.4g} {m['unit']:<2}"
                     for m in r["metrics"].values()]
            cells.append(f"{r['failed']:>13}/{r['attempted']:<4}")
            print(f"{r['workload']:<16}" + "  ".join(cells))
        metrics = {f"{r['workload']}.{k}": m for r in recs
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
