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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import coherence as coh
from . import corpus as corp
from . import labeling as lab
from . import queryeval as qe
from . import stats as st
from .errors import (ConfigError, HierlabelError, NumericalError, ParseError,
                     ValidationError)

MEASURES = qe.MEASURES
KINDS = qe.KINDS


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
        # LabelConfig checks p_cap, alpha, chi2_shape, rcl_fp, big_threshold
        self.label_config()
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
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") \
            from None
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(blob) - {f.name for f in fields(RunConfig)}
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
    for name in (*_SCALAR_TYPES, "methods"):
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
    matrix: corp.DocTermMatrix        # the df band's cells when configured
    vocabulary: corp.Vocabulary
    hierarchy: corp.Hierarchy
    kept: np.ndarray                  # per term id: in the df band (bool)


def load_inputs(cfg: RunConfig) -> InputBundle:
    # the hierarchy is read first: a matrix header with more documents than
    # it lists is rejected before arrays of that size are allocated
    records = corp.read_hierarchy(cfg.hierarchy)
    matrix = corp.load_matrix(cfg.matrix,
                              max_docs=corp.listed_docs(records))
    vocabulary = corp.load_vocabulary(cfg.vocabulary)
    if len(vocabulary) != matrix.n_terms:
        raise ValidationError(
            f"{cfg.vocabulary}: vocabulary has {len(vocabulary)} terms, "
            f"matrix {cfg.matrix} has {matrix.n_terms}")
    if cfg.df_filter is not None:
        try:
            matrix, kept = corp.salton_df_filter(matrix, *cfg.df_filter)
        except ValidationError as e:
            raise ValidationError(f"{cfg.matrix}: {e}") from None
    else:
        kept = np.ones(matrix.n_terms, bool)
    hierarchy = corp.load_hierarchy(cfg.hierarchy, matrix, records)
    return InputBundle(matrix, vocabulary, hierarchy, kept)


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

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.written = []
        self.pending = []
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
                bundle: InputBundle) -> dict:
    stats = corp.build_node_stats(bundle.matrix, bundle.hierarchy)
    assignments = lab.label_all(stats, cfg.methods, cfg.label_config())
    with tracker.open("labels.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "node_id", "rank", "term_id", "term_surface",
                    "score"])
        fh.write(_label_rows(assignments, cfg.methods, bundle))
    return assignments


def _label_rows(assignments, methods, bundle) -> str:
    """labels.csv's rows in method, node and rank order, as csv.writer
    writes them: method, node id, rank, term id, surface, score.  Of these
    only a surface can need quoting, so each distinct surface is encoded
    once by csv.writer, each distinct score formatted once by ``fmt``, and
    the rows joined from the columns' cells."""
    records = [assignments[m] for m in methods]
    sizes = np.concatenate([np.diff(a.indptr) for a in records])
    owner = np.repeat(np.arange(sizes.size), sizes)     # (method, node) code
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    term, term_at = np.unique(np.concatenate([a.term for a in records]),
                              return_inverse=True)
    score, score_at = np.unique(np.concatenate([a.score for a in records]),
                                return_inverse=True)
    encoded = []
    # a row of the surface and an empty field: "<encoded surface>,\r\n"
    csv.writer(SimpleNamespace(write=encoded.append)).writerows(
        [bundle.vocabulary.surfaces[t], ""] for t in term.tolist())
    ids = bundle.hierarchy.ids.tolist()
    cells = np.empty((owner.size, 4), object)
    # each column's distinct cells, with the separators that follow them
    for k, (distinct, at) in enumerate((
            ([f"{m},{nid}," for m in methods for nid in ids], owner),
            ([f"{r}," for r in range(1, int(sizes.max(initial=0)) + 1)],
             rank),
            ([f"{t},{cell[:-3]}," for t, cell in zip(term.tolist(), encoded)],
             term_at),
            ([fmt(v) + "\r\n" for v in score.tolist()], score_at))):
        cells[:, k] = np.array(distinct, object)[at]
    return "".join(cells.ravel().tolist())


def _report_columns(path, columns):
    """The rows of a report CSV as (each row's physical line, the cells of
    each of ``columns``, fault).  Reading stops at the first row that breaks
    the file's form: a width other than the header's, broken CSV quoting or
    undecodable text; ``fault`` is that row's ParseError, else None.  Blank
    lines are skipped.  A header that lacks one of ``columns`` raises.

    A file that ``_split_columns`` takes is split in one pass; every other
    is read row by row through csv.reader (``_reader_columns``)."""
    return (_split_columns(path, columns)
            or _reader_columns(path, columns))


def _split_columns(path, columns):
    """``_report_columns``'s result for a file that csv.reader splits at
    every comma and line end, else None.  That is UTF-8 text with no quote
    whose every carriage return is part of a \\r\\n, and whose header holds
    ``columns`` and at least one comma.  Every line must hold as many
    commas as the header, so none is blank, and be shorter than csv's
    field size limit.  The rows then all parse, each on its own line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if '"' in text or text.count("\r") != text.count("\r\n"):
        return None
    raw = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, raw.size)
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends),
                     prepend=0)
    if commas[0] == 0 or (commas != commas[0]).any() \
            or np.diff(ends, prepend=-1).max() >= csv.field_size_limit():
        return None
    head, _, body = text.replace("\r\n", "\n").removesuffix("\n") \
        .partition("\n")
    header = head.split(",")
    at = {name: k for k, name in enumerate(header)}
    if any(c not in at for c in columns):
        return None
    width, n = len(header), ends.size - 1
    flat = body.replace("\n", ",").split(",") if n else []
    return (np.arange(2, n + 2, dtype=np.int64),
            [flat[at[c]::width] for c in columns], None)


def _reader_columns(path, columns):
    """``_report_columns``'s result, read row by row through csv.reader.
    The rows end before the row that holds the file's first undecodable
    byte, which is the fault unless an earlier row is.  The text is
    decoded as a whole beforehand, because the reader's line count runs
    ahead of a decoding error in the file's text layer."""
    bad_line, bad = corp.utf8_fault(path)
    lines, rows, fault = [], [], None
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as e:
            raise (bad if reader.line_num >= bad_line else
                   ParseError(f"{path}:{reader.line_num}: {e}")) from None
        if reader.line_num >= bad_line:
            raise bad
        # a repeated column name counts at its last position
        at = {name: k for k, name in enumerate(header)}
        absent = [c for c in columns if c not in at]
        if absent:
            raise ParseError(f"{path}:1: header lacks column(s) "
                             + ", ".join(absent))
        width = len(header)
        try:
            for row in reader:
                if reader.line_num >= bad_line:
                    fault = bad
                    break
                if len(row) != width:
                    if not row:
                        continue
                    fault = _bad_row(path, reader.line_num,
                                     f"{len(row)} fields, the header has "
                                     f"{width}")
                    break
                lines.append(reader.line_num)
                rows.append(row)
        except csv.Error as e:
            fault = (bad if reader.line_num >= bad_line else
                     ParseError(f"{path}:{reader.line_num}: {e}"))
    table = list(zip(*rows)) or [()] * width
    return (np.array(lines, np.int64), [table[at[c]] for c in columns],
            fault)


def _bad_row(path, line, e) -> ParseError:
    return ParseError(f"{path}:{line}: malformed row ({e})")


_INT64 = np.iinfo(np.int64)


def _column(cells, kind) -> np.ndarray:
    """The cells as an int64 (``kind`` int) or float64 (``kind`` float)
    array; ValueError or OverflowError at a cell that does not convert."""
    return np.fromiter(map(kind, cells), np.int64 if kind is int
                       else np.float64, len(cells))


def _cell_error(name, cell, kind):
    """Why the cell does not convert, or None."""
    try:
        value = kind(cell)
    except ValueError as e:
        return e
    if kind is int and not _INT64.min <= value <= _INT64.max:
        return f"{name} {value} does not fit in 64 bits"
    return None


def _numbers(path, lines, fields, fault):
    """([array per field], fault) for ``fields``, a sequence of (name,
    cells, int or float) in the order a row's cells are converted.  At the
    first row with a cell that does not convert the arrays stop, and that
    row's error replaces ``fault``, which lies further on."""
    try:
        return [_column(cells, kind) for _, cells, kind in fields], fault
    except (ValueError, OverflowError):
        pass
    for row in range(len(lines)):
        why = next((e for name, cells, kind in fields
                    if (e := _cell_error(name, cells[row], kind))), None)
        if why is not None:
            return ([_column(cells[:row], kind) for _, cells, kind in fields],
                    _bad_row(path, lines[row], why))
    raise AssertionError("a column failed to convert, no cell does")


def _codes(cells) -> tuple:
    """(names in order of first appearance, int64 code of each cell)."""
    names = tuple(dict.fromkeys(cells))
    at = {name: k for k, name in enumerate(names)}
    return names, np.fromiter(map(at.__getitem__, cells), np.int64,
                              len(cells))


def _first_repeat(order, keys, lines):
    """(row, message) for the first row in file order whose ``keys`` equal
    an earlier row's, or None; ``order`` sorts the rows by the keys,
    keeping file order among equal ones."""
    same = np.ones(max(order.size - 1, 0), bool)
    for key in keys:
        k = key[order]
        same &= k[1:] == k[:-1]
    at = np.flatnonzero(same) + 1
    if not at.size:
        return None
    # within a run of equal keys the rows keep file order, so the first
    # repeat in file order is the second row of its run
    j = at[np.argmin(order[at])]
    return int(order[j]), f"repeats the row of line {lines[order[j - 1]]}"


def _first_fault(mask, why):
    """(first row of ``mask``, ``why(row)``), or None."""
    if not mask.any():
        return None
    k = int(np.argmax(mask))
    return k, why(k)


def _raise_first(path, lines, faults, fault):
    """Raise the fault of the earliest row among ``faults``, (row, message)
    pairs or None, listed in the order a row's checks run; else ``fault``
    when there is one."""
    faults = [f for f in faults if f is not None]
    if faults:
        row, why = min(faults, key=operator.itemgetter(0))
        raise _bad_row(path, lines[row], why)
    if fault is not None:
        raise fault


@dataclass
class LabelColumns:
    """labels.csv's rows sorted by method code, node id and rank; ``method``
    codes index ``method_names``."""
    method_names: tuple
    method: np.ndarray
    node_id: np.ndarray
    term: np.ndarray
    score: np.ndarray

    def rows_of(self, method: str) -> slice:
        """The rows of one method."""
        if method not in self.method_names:
            return slice(0, 0)
        code = self.method_names.index(method)
        lo, hi = np.searchsorted(self.method, [code, code + 1])
        return slice(int(lo), int(hi))


def read_labels_csv(path, surfaces) -> tuple:
    """(LabelColumns, each row's physical line) of a labels.csv: at most
    one row per method, node and rank, every method one of the sixteen,
    every score positive and finite, the ranks of each method and node
    running 1..k, and every term_surface the surface in ``surfaces`` (the
    vocabulary's) of its term_id, where ``surfaces`` holds that id.
    The file's form and the repeats are checked first, the values after
    them."""
    lines, (method, surface, *cells), fault = _report_columns(
        path, ("method", "term_surface", "node_id", "rank", "term_id",
               "score"))
    (nid, rank, term, score), fault = _numbers(path, lines, list(zip(
        ("node_id", "rank", "term_id", "score"), cells,
        (int, int, int, float))), fault)
    names, codes = _codes(method[:nid.size])
    order = np.lexsort((rank, nid, codes))
    _raise_first(path, lines,
                 [_first_repeat(order, (codes, nid, rank), lines)], fault)
    k = _rows_per_node(order, codes, nid)
    unknown = np.array([name not in lab.METHODS for name in names], bool)
    known = (term >= 0) & (term < len(surfaces))
    misnamed = known.copy()
    misnamed[known] = (np.array(surface[:nid.size], object)[known]
                       != np.array(surfaces, object)[term[known]])
    _raise_first(path, lines, [
        _first_fault(unknown[codes],
                     lambda r: f"method {names[codes[r]]!r} is not a "
                               f"labeling method"),
        _first_fault(~((score > 0) & (score < math.inf)),
                     lambda r: f"score {score[r]} is not positive and "
                               f"finite"),
        _first_fault((rank < 1) | (rank > k),
                     lambda r: f"rank {rank[r]}, but {names[codes[r]]} has "
                               f"{k[r]} rows at node {nid[r]}, ranked "
                               f"1..{k[r]}"),
        _first_fault(misnamed,
                     lambda r: f"term_surface {surface[r]!r} is not the "
                               f"surface of term {term[r]}, "
                               f"{surfaces[term[r]]!r}")], None)
    return (LabelColumns(names, codes[order], nid[order], term[order],
                         score[order]), lines[order])


def _rows_per_node(order, codes, nid) -> np.ndarray:
    """For each row, the number of rows of its method and node; ``order``
    sorts the rows by method and node.  Without repeats, the ranks of a
    method and node run 1..k exactly when each lies in 1..k."""
    c, n = codes[order], nid[order]
    start = np.flatnonzero(np.concatenate(
        [[True], (c[1:] != c[:-1]) | (n[1:] != n[:-1])]))
    size = np.diff(start, append=order.size)
    k = np.empty(order.size, np.int64)
    k[order] = np.repeat(size, size)
    return k


def _assignments_from_csv(tracker: OutputTracker, bundle: InputBundle,
                          cfg: RunConfig) -> dict:
    """The label stage's LabelAssignments (internal node indices) of the
    configured methods, read back from labels.csv.  Only each label's
    first p_cap ranks are kept, the terms the label stage would have
    written under ``cfg``.  A row whose node the hierarchy lacks, or whose
    term the working vocabulary lacks (such as one outside the df band),
    is an input error; the first such row in file order is named."""
    path = tracker.out_dir / "labels.csv"
    if not path.is_file():
        raise ConfigError(f"labels.csv not found in {tracker.out_dir}; "
                          "run the label stage first")
    cols, lines = read_labels_csv(path, bundle.vocabulary.surfaces)
    wanted = np.zeros(lines.size, bool)
    for method in cfg.methods:
        wanted[cols.rows_of(method)] = True
    node, stray = _node_index(bundle.hierarchy, cols.node_id)
    term = cols.term
    inside = (term >= 0) & (term < bundle.kept.size)
    absent = ~inside
    absent[inside] = ~bundle.kept[term[inside]]
    bad = np.flatnonzero(wanted & (stray | absent))
    if bad.size:
        k = bad[np.argmin(lines[bad])]
        why = (f"node {cols.node_id[k]} is not in the hierarchy" if stray[k]
               else f"term {term[k]} is absent from the working vocabulary")
        raise ValidationError(f"{path}:{lines[k]}: {why}")
    nodes = np.arange(bundle.hierarchy.n_nodes + 1)
    out = {}
    for method in cfg.methods:
        rows = cols.rows_of(method)
        n, t, s = node[rows], term[rows], cols.score[rows]
        # the rows run in node and rank order
        start = np.searchsorted(n, nodes)
        keep = (np.arange(n.size) - np.repeat(start[:-1], np.diff(start))
                < cfg.p_cap)
        out[method] = lab.LabelAssignment(
            method, np.searchsorted(n[keep], nodes), t[keep], s[keep])
    return out


def _node_index(hierarchy: corp.Hierarchy, nid) -> tuple:
    """(each node id's internal index, mask of the ids the hierarchy
    lacks, whose index is arbitrary)."""
    ids = hierarchy.ids
    node = np.minimum(np.searchsorted(ids, nid), ids.size - 1)
    return node, ids[node] != nid


# ---------------------------------------------------------------------------
# stage: evaluate
# ---------------------------------------------------------------------------

def stage_evaluate(cfg: RunConfig, tracker: OutputTracker,
                   bundle: InputBundle, assignments: dict | None = None):
    """``assignments`` are the label stage's in-memory results; without
    them the labels are read back from labels.csv."""
    if assignments is None:
        assignments = _assignments_from_csv(tracker, bundle, cfg)
    table, queries = qe.evaluate_all(bundle.matrix, bundle.hierarchy,
                                     assignments)
    with tracker.open("metrics.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "node_id", "level", "kind", *MEASURES])
        # the table's rows are in method, node and kind order already
        w.writerows(zip(
            map(table.method_names.__getitem__, table.method.tolist()),
            table.node_id.tolist(), table.level.tolist(),
            map(KINDS.__getitem__, table.kind.tolist()),
            *(map(fmt, getattr(table, m).tolist()) for m in MEASURES)))
    ids = bundle.hierarchy.ids.tolist()
    with tracker.open("queries.txt") as fh:
        for method in cfg.methods:
            q = queries[method]
            for kind, texts in zip(KINDS, qe.prefix_strings(q["specific"],
                                                             q["generic"])):
                fh.writelines(f"{method} {nid} {kind} {text}\n"
                              for nid, text in zip(ids, texts))
    return table


def read_metrics_csv(path) -> tuple:
    """(ObservationTable, each row's physical line) of a metrics.csv: at
    most one row per method, node and query kind, every kind one of
    ``KINDS``, every measure a number in [0, 1]."""
    lines, (method, nid, level, kind, *cells), fault = _report_columns(
        path, ("method", "node_id", "level", "kind", *MEASURES))
    (nid, level, *values), fault = _numbers(path, lines, list(zip(
        ("node_id", "level", *MEASURES), (nid, level, *cells),
        (int, int, float, float, float))), fault)
    n = nid.size
    names, codes = _codes(method[:n])
    known = {name: k for k, name in enumerate(KINDS)}
    kinds = np.fromiter((known.get(k, -1) for k in kind[:n]), np.int64, n)
    outside = np.array([(v < 0) | (v > 1) | np.isnan(v) for v in values])

    def out_of_range(k):
        j = int(np.argmax(outside[:, k]))
        return f"{MEASURES[j]} {float(values[j][k])} is not in [0, 1]"

    order = np.lexsort((kinds, nid, codes))
    _raise_first(path, lines, [
        _first_fault(kinds < 0, lambda k: f"kind {kind[k]!r} is not one "
                                          f"of {', '.join(KINDS)}"),
        _first_fault(outside.any(axis=0), out_of_range),
        _first_repeat(order, (codes, nid, kinds), lines)], fault)
    return qe.ObservationTable(names, codes, nid, level, kinds,
                               *values), lines


def _check_metrics_rows(path, table: qe.ObservationTable, lines,
                        hierarchy: corp.Hierarchy):
    """Each row's node index.  Every row's node must be a hierarchy node
    and its level that node's; the first row that breaks either is an
    input error naming its line."""
    node, stray = _node_index(hierarchy, table.node_id)
    moved = ~stray & (hierarchy.level[node] != table.level)

    def why(k):
        nid = int(table.node_id[k])
        return (f"node {nid} is not in the hierarchy" if stray[k] else
                f"level {int(table.level[k])}, but node {nid} is at level "
                f"{int(hierarchy.level[node[k]])}")

    fault = _first_fault(stray | moved, why)
    if fault is None:
        return node
    raise ValidationError(f"{path}:{lines[fault[0]]}: {fault[1]}")


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
                bundle: InputBundle):
    metrics_path = tracker.out_dir / "metrics.csv"
    if not metrics_path.is_file():
        raise ConfigError(f"metrics.csv not found in {tracker.out_dir}; "
                          "run the evaluate stage first")
    table, lines = read_metrics_csv(metrics_path)
    # each row's position in cfg.methods; rows of other methods (-1) are
    # neither checked nor fitted
    at = {m: j for j, m in enumerate(cfg.methods)}
    method = np.array([at.get(m, -1) for m in table.method_names],
                      np.int64)[table.method]
    wanted = method >= 0
    table, lines, method = table.take(wanted), lines[wanted], method[wanted]
    node = _check_metrics_rows(metrics_path, table, lines, bundle.hierarchy)
    # a file that lacks observations is an input error, not a degenerate fit
    shape = (len(cfg.methods), bundle.hierarchy.n_nodes, len(KINDS))
    present = np.zeros(shape, bool)
    present[method, node, table.kind] = True
    if not present.all():
        m, i, k = np.unravel_index(np.argmin(present), present.shape)
        raise ValidationError(
            f"{metrics_path}: no {KINDS[k]} row for method "
            f"{cfg.methods[m]} at node {bundle.hierarchy.ids[i]}")
    # each measure as a (method, node, kind) array, so that every fit sees
    # its rows in method and node order, whatever the file's row order
    values = np.empty((len(MEASURES), *shape))
    values[:, method, node, table.kind] = [getattr(table, m)
                                           for m in MEASURES]
    level = bundle.hierarchy.level
    # the additive fit's rows: every method's nodes, method after method
    levels = np.tile(level, len(cfg.methods))
    codes = np.repeat(np.arange(len(cfg.methods)), level.size)
    for k, kind in enumerate(KINDS):
        for measure, y in zip(MEASURES, values[..., k]):
            # the methods share the levels, so equal values share one fit
            by_values = {}
            level_fits = {}
            for j, m in enumerate(cfg.methods):
                key = y[j].tobytes()
                if key not in by_values:
                    by_values[key] = st.fit_level_model(y[j], level)
                level_fits[m] = by_values[key]
            if len(cfg.methods) >= 2:
                fit = st.fit_additive_model(y.ravel(), levels, codes,
                                            cfg.methods)
                entries = st.snk_compare(fit, "method", cfg.alpha)
            else:
                # single-method run: the method factor degenerates; the
                # method's level-only fit supplies the mean and variance
                fit = level_fits[cfg.methods[0]]
                entries = [(cfg.methods[0], fit.mu, "a")]
            with tracker.open(f"stats_{measure}_{kind}.csv") as fh:
                fh.write(f"# df_r={fit.df_resid},V_E={fmt(fit.resid_var)},"
                         f"alpha={fmt(cfg.alpha)}\n")
                w = csv.writer(fh)
                w.writerow(["method", "adjusted_mean", "letters"])
                for lv, mean, letters in entries:
                    w.writerow([lv, fmt(mean), letters])

            with tracker.open(f"level_means_{measure}_{kind}.csv") as fh:
                w = csv.writer(fh)
                w.writerow(["method", "level", "mean"])
                for m, fitm in level_fits.items():
                    for lvl in fitm.factors["level"]:
                        w.writerow([m, lvl,
                                    fmt(fitm.adjusted_means["level"][lvl])])
            emit_level_plot_data(level_fits, measure, kind, tracker)


# ---------------------------------------------------------------------------
# stage: coherence
# ---------------------------------------------------------------------------

def stage_coherence(cfg: RunConfig, tracker: OutputTracker,
                    bundle: InputBundle, assignments: dict | None = None):
    """``assignments`` are the label stage's in-memory results; without
    them the labels are read back from labels.csv, and only the bounds and
    term ids that ``coh.score_labels`` takes outlive the reading, before
    the reference corpus is loaded."""
    if cfg.reference_corpus is None:
        raise ConfigError("coherence stage requires a reference_corpus path")
    labels = {m: (a.indptr, a.term)
              for m, a in (assignments if assignments is not None else
                           _assignments_from_csv(tracker, bundle, cfg)).items()}
    label_terms = np.unique(np.concatenate([t for _, t in labels.values()]))
    counts = coh.count_cooccurrence(
        coh.load_reference_corpus(cfg.reference_corpus), bundle.vocabulary,
        restrict_terms=label_terms.tolist())
    oc = coh.score_labels(counts, labels, cfg.p_cap, cfg.npmi_epsilon,
                          cfg.oc_aggregate)

    ids = bundle.hierarchy.ids.tolist()
    with tracker.open("coherence.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "node_id", "oc"])
        for method in cfg.methods:
            # the label of node index k is node ids[k]'s, ids ascending
            w.writerows([method, nid, fmt(v)]
                        for nid, v in zip(ids, oc[method].tolist()))
    with tracker.open("coherence_summary.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "upper_quartile", "maximum"])
        for method in cfg.methods:
            uq, mx = coh.summarize_coherence(oc[method])
            w.writerow([method, fmt(uq), fmt(mx)])


# ---------------------------------------------------------------------------
# stage: validate
# ---------------------------------------------------------------------------

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
        lines.append(f"df filter kept {np.count_nonzero(bundle.kept)} of "
                     f"{bundle.kept.size} terms")
    if reference and cfg.reference_corpus is not None:
        corpus = coh.load_reference_corpus(cfg.reference_corpus)
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
            assignments = stage_label(cfg, tracker, bundle)
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
