"""Benchmark driver: label a document hierarchy with all sixteen methods,
evaluate the labels by boolean retrieval, fit the variance models, and
score label coherence, emitting CSV reports plus gnuplot-ready per-level
curves.

Stages are independently re-runnable; each consumes the previous stage's
CSV outputs.  Given identical inputs and configuration, every report is
byte-identical across runs and thread counts.

Exit codes: 0 success, 2 configuration error, 3 input validation error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import coherence as coh
from . import corpus as corp
from . import labeling as lab
from . import queryeval as qe
from . import stats as st
from .errors import (ConfigError, HierlabelError, NumericalError, ParseError,
                     ValidationError)

MEASURES = ("precision", "recall", "f")
KINDS = ("specific", "generic")


def fmt(x) -> str:
    """Report formatting: floats with 6 significant digits."""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# config key -> (accepted types, description); bool is rejected everywhere
_SCALAR_TYPES = {
    "p_cap": (numbers.Integral, "an integer"),
    "big_threshold": (numbers.Integral, "an integer"),
    "threads": (numbers.Integral, "an integer"),
    "alpha": (numbers.Real, "a number"),
    "npmi_epsilon": (numbers.Real, "a number"),
    "chi2_shape": (str, "a string"),
    "rcl_fp": (str, "a string"),
    "oc_aggregate": (str, "a string"),
}


@dataclass
class RunConfig:
    matrix: Path
    vocabulary: Path
    hierarchy: Path
    out_dir: Path
    reference_corpus: Path | None = None
    p_cap: int = 10
    alpha: float = 0.05
    methods: list = field(default_factory=lambda: list(lab.METHODS))
    chi2_shape: str = "full_table"
    rcl_fp: str = "corrected"
    oc_aggregate: str = "sum"
    big_threshold: int = 5
    npmi_epsilon: float = 0.0
    df_filter: tuple | None = None
    threads: int = 1

    def validate(self):
        for name, (types, what) in _SCALAR_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.methods, (list, tuple)) \
                or not all(isinstance(m, str) for m in self.methods):
            raise ConfigError(
                f"methods must be a list of method names, got {self.methods!r}")
        if self.p_cap < 1:
            raise ConfigError("p_cap must be >= 1")
        if not (0 < self.alpha < 1):
            raise ConfigError("alpha must be in (0, 1)")
        if not self.methods:
            raise ConfigError("method list is empty")
        bad = [m for m in self.methods if m not in lab.METHODS]
        if bad:
            raise ConfigError("unknown methods: " + ", ".join(bad))
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method in method list")
        if self.oc_aggregate not in ("sum", "mean"):
            raise ConfigError(f"unknown oc_aggregate {self.oc_aggregate!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not 0 <= self.npmi_epsilon < math.inf:
            raise ConfigError("npmi_epsilon must be finite and >= 0")
        if self.df_filter is not None:
            low, high = self.df_filter
            if not (0 <= low < high <= 1):
                raise ConfigError("df_filter requires 0 <= low < high <= 1")
        for name in ("matrix", "vocabulary", "hierarchy"):
            p = getattr(self, name)
            if not Path(p).is_file():
                raise ConfigError(f"{name} file not found: {p}")
        if self.reference_corpus is not None \
                and not Path(self.reference_corpus).is_file():
            raise ConfigError(
                f"reference corpus not found: {self.reference_corpus}")
        # construction re-checks chi2_shape / rcl_fp / big_threshold
        self.label_config()

    def label_config(self) -> lab.LabelConfig:
        return lab.LabelConfig(
            p_cap=self.p_cap, alpha=self.alpha, chi2_shape=self.chi2_shape,
            rcl_fp=self.rcl_fp, big_threshold=self.big_threshold,
        )

    def echo(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, Path):
                d[k] = str(v)
        if d["reference_corpus"] is not None:
            d["reference_corpus"] = str(d["reference_corpus"])
        if d["df_filter"] is not None:
            d["df_filter"] = list(d["df_filter"])
        return d


def load_config(path, overrides: dict) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        blob = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {
        "matrix", "vocabulary", "hierarchy", "reference_corpus", "out_dir",
        "p_cap", "alpha", "methods", "chi2_shape", "rcl_fp", "oc_aggregate",
        "big_threshold", "npmi_epsilon", "df_filter", "threads",
    }
    unknown = set(blob) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    base = path.parent

    def respath(name):
        v = blob[name]
        if not isinstance(v, str):
            raise ConfigError(f"{path}: {name} must be a path string, "
                              f"got {v!r}")
        p = Path(v)
        return p if p.is_absolute() else base / p

    kwargs = {}
    for name in ("matrix", "vocabulary", "hierarchy", "out_dir"):
        if name not in blob:
            raise ConfigError(f"{path}: missing required key {name!r}")
        kwargs[name] = respath(name)
    if blob.get("reference_corpus") is not None:
        kwargs["reference_corpus"] = respath("reference_corpus")
    for name in ("p_cap", "alpha", "methods", "chi2_shape", "rcl_fp",
                 "oc_aggregate", "big_threshold", "npmi_epsilon", "threads"):
        if name in blob:
            kwargs[name] = blob[name]
    if blob.get("df_filter") is not None:
        f = blob["df_filter"]
        if not isinstance(f, dict) or "low" not in f or "high" not in f:
            raise ConfigError(f"{path}: df_filter needs 'low' and 'high'")
        if any(isinstance(f[b], bool) or not isinstance(f[b], numbers.Real)
               for b in ("low", "high")):
            raise ConfigError(f"{path}: df_filter bounds must be numbers")
        kwargs["df_filter"] = (float(f["low"]), float(f["high"]))

    for k, v in overrides.items():
        if v is not None:
            kwargs[k] = v
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad config: {e}") from None
    try:
        cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    return cfg


# ---------------------------------------------------------------------------
# input assembly
# ---------------------------------------------------------------------------

@dataclass
class InputBundle:
    matrix: corp.DocTermMatrix        # df-filtered when configured
    vocab: corp.Vocabulary            # filtered vocabulary
    vocab_full: corp.Vocabulary       # as loaded from disk
    hierarchy: corp.Hierarchy
    remap: np.ndarray                 # original term id -> working id, -1 dropped
    orig_id: np.ndarray               # working id -> original term id


def load_inputs(cfg: RunConfig) -> InputBundle:
    # the hierarchy is read first: a matrix header with more documents than
    # it lists is rejected before arrays of that size are allocated
    records = corp.read_hierarchy(cfg.hierarchy)
    matrix = corp.load_matrix(cfg.matrix,
                              max_docs=corp.listed_docs(records))
    vocab_full = corp.load_vocabulary(cfg.vocabulary)
    if len(vocab_full) != matrix.n_terms:
        raise ValidationError(
            f"vocabulary has {len(vocab_full)} terms, matrix has "
            f"{matrix.n_terms}"
        )
    if cfg.df_filter is not None:
        matrix, remap = corp.salton_df_filter(matrix, *cfg.df_filter)
        orig_id = np.flatnonzero(remap >= 0)
        vocab = vocab_full.subset(orig_id)
    else:
        remap = np.arange(matrix.n_terms, dtype=np.int64)
        orig_id = remap
        vocab = vocab_full
    hierarchy = corp.load_hierarchy(cfg.hierarchy, matrix, records)
    return InputBundle(matrix, vocab, vocab_full, hierarchy, remap, orig_id)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class OutputTracker:
    """Registers written files so a failed stage leaves no partial output.

    Each report is written to a temporary file beside it and renamed over
    it when complete, so no reader ever sees a torn report."""

    def __init__(self, out_dir: Path, dry_run: bool = False):
        self.out_dir = Path(out_dir)
        self.dry_run = dry_run
        self.written = []
        self.pending = []
        if not dry_run:
            try:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                (self.out_dir / "plots").mkdir(exist_ok=True)
            except OSError as e:
                raise ConfigError(f"cannot create output dir: {e}") from None

    @contextmanager
    def open(self, relname: str):
        path = self.out_dir / relname
        tmp = path.with_name(f".{path.name}.tmp")
        self.written.append(path)
        self.pending.append(tmp)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
        self.pending.remove(tmp)

    def cleanup(self):
        for p in self.written + self.pending:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def write_manifest(tracker: OutputTracker, cfg: RunConfig, stage: str,
                   extra_inputs=()):
    inputs = {"matrix": cfg.matrix, "vocabulary": cfg.vocabulary,
              "hierarchy": cfg.hierarchy}
    if cfg.reference_corpus is not None:
        inputs["reference_corpus"] = cfg.reference_corpus
    for name, path in extra_inputs:
        inputs[name] = path
    manifest = {
        "stage": stage,
        "config": cfg.echo(),
        "inputs": {k: {"path": str(v), "sha256": _sha256(v)}
                   for k, v in inputs.items()},
    }
    with tracker.open("run_manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# stage: label
# ---------------------------------------------------------------------------

def stage_label(cfg: RunConfig, tracker: OutputTracker,
                bundle: InputBundle | None = None):
    bundle = bundle or load_inputs(cfg)
    stats = corp.build_node_stats(bundle.matrix, bundle.hierarchy)
    assignments = lab.label_all(stats, cfg.methods, cfg.label_config())
    with tracker.open("labels.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "node_id", "rank", "term_id", "term_surface",
                    "score"])
        for method in cfg.methods:
            labels = assignments[method].labels
            for i in range(bundle.hierarchy.n_nodes):
                nid = int(bundle.hierarchy.ids[i])
                for rank, (t, score) in enumerate(labels.get(i, []), start=1):
                    orig = int(bundle.orig_id[t])
                    w.writerow([method, nid, rank, orig,
                                bundle.vocab_full.surface(orig), fmt(score)])
    return bundle, assignments


def _report_rows(path, columns):
    """Yield (line number, the fields named by ``columns``, in that order)
    for each row of a report CSV; blank lines are skipped.  A header that
    lacks one of ``columns``, a row whose width differs from the header's,
    undecodable text and broken CSV quoting are ParseErrors naming the file
    and the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            # a repeated column name counts at its last position
            at = {name: k for k, name in enumerate(header)}
            absent = [c for c in columns if c not in at]
            if absent:
                raise ParseError(f"{path}:1: header lacks column(s) "
                                 + ", ".join(absent))
            pick = operator.itemgetter(*(at[c] for c in columns))
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise _bad_row(path, reader.line_num,
                                   f"{len(row)} fields, the header has "
                                   f"{width}")
                yield reader.line_num, pick(row)
        except (UnicodeDecodeError, csv.Error) as e:
            raise ParseError(f"{path}:{reader.line_num}: {e}") from None


def _bad_row(path, line, e) -> ParseError:
    return ParseError(f"{path}:{line}: malformed row ({e})")


def read_labels_csv(path) -> dict:
    """method -> {node_id: [(original term id, score)] in rank order}; at
    most one row per method, node and rank."""
    out = {}
    first = {}                  # (method, node, rank) -> line
    for line, (method, nid, rank, term, score) in _report_rows(
            path, ("method", "node_id", "rank", "term_id", "score")):
        try:
            nid = int(nid)
            entry = (int(rank), int(term), float(score))
        except ValueError as e:
            raise _bad_row(path, line, e) from None
        seen = first.setdefault((method, nid, entry[0]), line)
        if seen != line:
            raise _bad_row(path, line, f"repeats the row of line {seen}")
        out.setdefault(method, {}).setdefault(nid, []).append(entry)
    for per_node in out.values():
        for nid, entries in per_node.items():
            entries.sort()
            per_node[nid] = [(t, s) for _, t, s in entries]
    return out


def _assignments_from_csv(tracker: OutputTracker, bundle: InputBundle,
                          methods) -> dict:
    """Rebuild the label stage's LabelAssignments (internal node indices,
    working term ids) from labels.csv; a term the working vocabulary lacks,
    such as one the df filter dropped, is an input error."""
    path = tracker.out_dir / "labels.csv"
    if not path.is_file():
        raise ConfigError(f"labels.csv not found in {tracker.out_dir}; "
                          "run the label stage first")
    rows = read_labels_csv(path)
    working = dict(zip(bundle.orig_id.tolist(), range(bundle.orig_id.size)))
    ids = bundle.hierarchy.ids.tolist()
    assignments = {}
    for method in methods:
        per_node = rows.get(method, {})
        a = lab.LabelAssignment(method)
        try:
            a.labels = {i: [(working[orig], score)
                            for orig, score in per_node.get(nid, [])]
                        for i, nid in enumerate(ids)}
        except KeyError as e:
            raise ValidationError(
                f"{path}: term {e.args[0]} is absent from the working "
                f"vocabulary"
            ) from None
        assignments[method] = a
    return assignments


# ---------------------------------------------------------------------------
# stage: evaluate
# ---------------------------------------------------------------------------

def stage_evaluate(cfg: RunConfig, tracker: OutputTracker,
                   bundle: InputBundle | None = None,
                   assignments: dict | None = None):
    """``assignments`` are the label stage's in-memory results; without
    them the labels are read back from labels.csv."""
    bundle = bundle or load_inputs(cfg)
    if assignments is None:
        assignments = _assignments_from_csv(tracker, bundle, cfg.methods)
    table, queries = qe.evaluate_all(bundle.matrix, bundle.hierarchy,
                                     assignments)
    with tracker.open("metrics.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "node_id", "level", "kind",
                    "precision", "recall", "f"])
        by_key = {(r.method, r.node_id, r.kind): r for r in table.rows}
        for method in cfg.methods:
            for i in range(bundle.hierarchy.n_nodes):
                nid = int(bundle.hierarchy.ids[i])
                for kind in KINDS:
                    r = by_key[(method, nid, kind)]
                    w.writerow([method, nid, r.level, kind,
                                fmt(r.precision), fmt(r.recall), fmt(r.f)])
    with tracker.open("queries.txt") as fh:
        for method in cfg.methods:
            render = qe.prefix_renderer()
            for kind in KINDS:
                qmap = queries[method][kind]
                for i in range(bundle.hierarchy.n_nodes):
                    nid = int(bundle.hierarchy.ids[i])
                    fh.write(f"{method} {nid} {kind} {render(qmap[i])}\n")
    return table


def read_metrics_csv(path) -> qe.ObservationTable:
    """The observations of a metrics.csv: at most one row per method, node
    and query kind, every measure a number in [0, 1]."""
    table = qe.ObservationTable()
    first = {}                  # (method, node, kind) -> line
    for line, (method, nid, level, kind, *values) in _report_rows(
            path, ("method", "node_id", "level", "kind", *MEASURES)):
        try:
            nid, level = int(nid), int(level)
            precision, recall, f = map(float, values)
        except ValueError as e:
            raise _bad_row(path, line, e) from None
        if not (0 <= precision <= 1 and 0 <= recall <= 1 and 0 <= f <= 1):
            name, value = next((name, value) for name, value in zip(
                MEASURES, (precision, recall, f)) if not 0 <= value <= 1)
            raise _bad_row(path, line, f"{name} {value} is not in [0, 1]")
        seen = first.setdefault((method, nid, kind), line)
        if seen != line:
            raise _bad_row(path, line, f"repeats the row of line {seen}")
        table.rows.append(qe.ObservationRow(
            method=method, node_id=nid, level=level, kind=kind,
            precision=precision, recall=recall, f=f,
        ))
    return table


# ---------------------------------------------------------------------------
# stage: stats
# ---------------------------------------------------------------------------

def emit_level_plot_data(fits: dict, measure: str, kind: str,
                         tracker: OutputTracker):
    """One gnuplot-compatible (level, mean) file per method."""
    for method, fit in fits.items():
        with tracker.open(f"plots/{method}_{measure}_{kind}.dat") as fh:
            for lvl in fit.factors["level"]:
                fh.write(f"{lvl} {fmt(fit.adjusted_means['level'][lvl])}\n")


def stage_stats(cfg: RunConfig, tracker: OutputTracker,
                bundle: InputBundle | None = None):
    bundle = bundle or load_inputs(cfg)
    metrics_path = tracker.out_dir / "metrics.csv"
    if not metrics_path.is_file():
        raise ConfigError(f"metrics.csv not found in {tracker.out_dir}; "
                          "run the evaluate stage first")
    table = read_metrics_csv(metrics_path)
    wanted = set(cfg.methods)
    table = qe.ObservationTable([r for r in table.rows if r.method in wanted])
    # a file that lacks observations is an input error, not a degenerate fit
    present = {(r.method, r.node_id, r.kind) for r in table.rows}
    ids = bundle.hierarchy.ids.tolist()
    for method in cfg.methods:
        for nid in ids:
            for kind in KINDS:
                if (method, nid, kind) not in present:
                    raise ValidationError(
                        f"{metrics_path}: no {kind} row for method {method} "
                        f"at node {nid}")
    for kind in KINDS:
        sub = table.filter(kind=kind)
        for measure in MEASURES:
            if len(cfg.methods) >= 2:
                fit = st.fit_additive_model(sub, measure, methods=cfg.methods)
                entries = st.snk_compare(fit, "method", cfg.alpha).entries
            else:
                # single-method run: the method factor degenerates; the
                # level-only fit supplies the mean and variance
                fit = st.fit_level_model(sub, measure)
                entries = [(cfg.methods[0], fit.mu, "a")]
            with tracker.open(f"stats_{measure}_{kind}.csv") as fh:
                fh.write(f"# df_r={fit.df_resid},V_E={fmt(fit.resid_var)},"
                         f"alpha={fmt(cfg.alpha)}\n")
                w = csv.writer(fh)
                w.writerow(["method", "adjusted_mean", "letters"])
                for lv, mean, letters in entries:
                    w.writerow([lv, fmt(mean), letters])

            level_fits = {}
            for method in cfg.methods:
                mtab = sub.filter(method=method)
                level_fits[method] = st.fit_level_model(mtab, measure)
            with tracker.open(f"level_means_{measure}_{kind}.csv") as fh:
                w = csv.writer(fh)
                w.writerow(["method", "level", "mean"])
                for method in cfg.methods:
                    fitm = level_fits[method]
                    for lvl in fitm.factors["level"]:
                        w.writerow([method, lvl,
                                    fmt(fitm.adjusted_means["level"][lvl])])
            emit_level_plot_data(level_fits, measure, kind, tracker)


# ---------------------------------------------------------------------------
# stage: coherence
# ---------------------------------------------------------------------------

def _coherence_labels(cfg: RunConfig, tracker: OutputTracker,
                      bundle: InputBundle, assignments: dict | None) -> dict:
    """method -> {node id: [original term ids in rank order]} for every
    configured method and hierarchy node, read back from labels.csv without
    ``assignments``.  The parsed rows die with this call, before the
    reference corpus is loaded."""
    if assignments is None:
        assignments = _assignments_from_csv(tracker, bundle, cfg.methods)
    ids = [int(nid) for nid in bundle.hierarchy.ids]
    orig = bundle.orig_id
    return {m: {nid: [int(orig[t]) for t, _ in
                      assignments[m].labels.get(i, [])]
                for i, nid in enumerate(ids)}
            for m in cfg.methods}


def stage_coherence(cfg: RunConfig, tracker: OutputTracker,
                    bundle: InputBundle | None = None,
                    assignments: dict | None = None):
    """``assignments`` are the label stage's in-memory results; without
    them the labels are read back from labels.csv."""
    if cfg.reference_corpus is None:
        raise ConfigError("coherence stage requires a reference_corpus path")
    bundle = bundle or load_inputs(cfg)
    labels = _coherence_labels(cfg, tracker, bundle, assignments)
    label_terms = set()
    for per in labels.values():
        for terms in per.values():
            label_terms.update(terms)
    counts = coh.count_cooccurrence(_load_reference_corpus(cfg),
                                    bundle.vocab_full,
                                    restrict_terms=sorted(label_terms))
    report = coh.score_labels(counts, labels, cfg.p_cap, cfg.npmi_epsilon,
                              cfg.oc_aggregate)

    with tracker.open("coherence.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "node_id", "oc"])
        for method in cfg.methods:
            per_node = report.per_node[method]
            for nid in sorted(per_node):
                w.writerow([method, nid, fmt(per_node[nid])])
    with tracker.open("coherence_summary.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "upper_quartile", "maximum"])
        for method in cfg.methods:
            uq, mx = report.summary[method]
            w.writerow([method, fmt(uq), fmt(mx)])


# ---------------------------------------------------------------------------
# stage: validate
# ---------------------------------------------------------------------------

def _load_reference_corpus(cfg: RunConfig) -> list:
    corpus = coh.load_reference_corpus(cfg.reference_corpus)
    if not corpus:
        raise ValidationError(
            f"reference corpus {cfg.reference_corpus} has no documents")
    return corpus


def stage_validate(cfg: RunConfig, reference: bool = True):
    """Load and check every input; returns the summary lines and the input
    bundle.  ``reference`` False skips parsing the reference corpus, which
    only the coherence stage reads (it parses the corpus itself)."""
    bundle = load_inputs(cfg)
    lines = [
        f"matrix: {bundle.matrix.n_docs} docs x {bundle.matrix.n_terms} terms "
        f"({bundle.matrix.csr.nnz} cells)",
        f"hierarchy: {bundle.hierarchy.n_nodes} nodes, "
        f"depth {int(bundle.hierarchy.level.max())}",
        f"methods: {len(cfg.methods)}",
    ]
    if cfg.df_filter is not None:
        kept = bundle.matrix.n_terms
        lines.append(f"df filter kept {kept} of {len(bundle.vocab_full)} terms")
    if reference and cfg.reference_corpus is not None:
        corpus = _load_reference_corpus(cfg)
        lines.append(f"reference corpus: {len(corpus)} documents")
    return lines, bundle


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

STAGES = ("validate", "label", "evaluate", "stats", "coherence", "all")


def run_stage(stage: str, cfg: RunConfig, dry_run: bool = False) -> list:
    """Execute one subcommand; returns human-readable summary lines.

    The inputs are loaded once, by the validation, and handed to the
    stages; ``all`` also hands its label assignments on in memory.  The
    reference corpus is parsed by ``validate`` and dry runs, or else by
    the coherence stage alone.  The stats stage always fits on the rounded
    values that metrics.csv holds.
    """
    checks_only = dry_run or stage == "validate"
    summary, bundle = stage_validate(cfg, reference=checks_only)
    if checks_only:
        return summary + (["dry run: no outputs written"] if dry_run else [])
    tracker = OutputTracker(cfg.out_dir)
    try:
        assignments = None
        if stage in ("label", "all"):
            _, assignments = stage_label(cfg, tracker, bundle)
        if stage in ("evaluate", "all"):
            stage_evaluate(cfg, tracker, bundle, assignments)
        if stage in ("stats", "all"):
            stage_stats(cfg, tracker, bundle)
        if stage in ("coherence", "all"):
            if stage == "all" and cfg.reference_corpus is None:
                summary.append("coherence skipped: no reference corpus")
            else:
                stage_coherence(cfg, tracker, bundle, assignments)
        extra = []
        for name in ("labels.csv", "metrics.csv"):
            p = tracker.out_dir / name
            if p.is_file():
                extra.append((name, p))
        write_manifest(tracker, cfg, stage, extra)
    except BaseException:
        tracker.cleanup()
        raise
    summary.append(f"wrote {len(tracker.written)} files to {tracker.out_dir}")
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierlabel",
        description="Benchmark label selection methods for hierarchical "
                    "document clusters.",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--methods", default=None,
                       help="comma-separated subset of the sixteen methods")
        p.add_argument("--p-cap", type=int, default=None, dest="p_cap")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dry-run", action="store_true", dest="dry_run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "threads": args.threads,
        "p_cap": args.p_cap,
        "alpha": args.alpha,
        "methods": args.methods.split(",") if args.methods else None,
        "out_dir": Path(args.out) if args.out else None,
    }
    try:
        cfg = load_config(args.config, overrides)
        for line in run_stage(args.stage, cfg, args.dry_run):
            print(line)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 4
    except HierlabelError as e:  # pragma: no cover - safety net
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
