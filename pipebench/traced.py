"""Run one ``hierlabel`` CLI command in-process with layer tracing.

    python3 pipebench/traced.py SPANS.json <cli arguments...>

Wraps the public functions of ``corpus``, ``labeling``, ``queryeval``,
``stats``, ``coherence`` and ``cli`` by replacing their module attributes
(the program calls them through module attributes, so no source is edited),
then calls ``cli.main``.  Spans go to an in-memory list and are written to
SPANS.json once, when the command ends.  Functions called thousands of times
per run are aggregated into a call count plus total time instead of spans.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from time import perf_counter

from hierlabel import cli, coherence, corpus, labeling, queryeval, stats

SPANNED = {
    corpus: ("load_matrix", "load_vocabulary", "load_hierarchy",
             "build_node_stats"),
    cli: ("load_inputs", "stage_validate", "stage_label", "stage_evaluate",
          "stage_stats", "stage_coherence", "read_labels_csv",
          "read_metrics_csv", "write_manifest"),
    labeling: ("label_all",),
    queryeval: ("evaluate_all", "derive_generic_queries"),
    stats: ("fit_additive_model", "fit_level_model", "snk_compare"),
    coherence: ("load_reference_corpus",),
}


class Tracer:
    """Nested spans per thread.  A span opened on a worker thread with no
    open span of its own is parented to the main thread's innermost span."""

    def __init__(self):
        self.spans = []        # [name, parent index or -1, t0, t1, agg_s]
        self.agg = {}          # name -> [calls, seconds]
        self.counts = Counter()
        self.srq_keys = set()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else -1

    def span(self, name, fn, on_result=None):
        """``name`` is a string or a function of the call's arguments."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rec = [label, self._parent(stack), perf_counter(), None, 0.0]
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    def aggregate(self, name, fn):
        """Count and total time, charged to the enclosing span so that its
        self time excludes it."""
        slot = self.agg.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                slot[0] += 1
                slot[1] += dt
                parent = self._parent(self._stack())
                if parent >= 0:
                    self.spans[parent][4] += dt
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "agg": self.agg,
                       "counts": self.counts,
                       "srq_keys": sorted(self.srq_keys)}, fh)


def install(tr: Tracer):
    for mod, names in SPANNED.items():
        layer = mod.__name__.rsplit(".", 1)[-1]
        for n in names:
            setattr(mod, n, tr.span(f"{layer}.{n}", getattr(mod, n)))

    def empty_labels(result, stats_, *a, **k):
        n = stats_.hierarchy.n_nodes
        tr.counts["labeling.empty_label_nodes"] += sum(
            1 for i in range(n) if not result.labels.get(i))

    labeling.label_hierarchy = tr.span(
        lambda stats_, method, *a, **k: f"labeling.{method}",
        labeling.label_hierarchy, empty_labels)

    def unretrievable(result, *a, **k):
        tr.counts["queryeval.unretrievable_nodes"] += sum(
            1 for q in result.values() if q is None)

    queryeval.derive_specific_queries = tr.span(
        "queryeval.derive_specific_queries",
        queryeval.derive_specific_queries, unretrievable)

    # query_to_prefix recurses through its module global: time the outermost
    # call only, with the original bound to the global while it runs so the
    # recursion pays no wrapper cost.  The CLI calls it from one thread.
    original = queryeval.query_to_prefix
    timed = tr.aggregate("queryeval.query_to_prefix", original)

    def outermost(query):
        queryeval.query_to_prefix = original
        try:
            return timed(query)
        finally:
            queryeval.query_to_prefix = outermost
    queryeval.query_to_prefix = outermost

    srq = stats.studentized_range_quantile

    def counted_srq(alpha, k, df):
        tr.counts["stats.srq_calls"] += 1
        tr.srq_keys.add((float(alpha), int(k), float(df)))
        return srq(alpha, k, df)
    stats.studentized_range_quantile = counted_srq

    def cooccurrence(result, corpus_, vocab, restrict_terms=None):
        tr.counts["coherence.pair_keys"] += int(result.pair_keys.size)
        terms = () if restrict_terms is None else restrict_terms
        tr.counts["coherence.oov_label_terms"] += sum(
            1 for t in terms if result.unary[t] == 0)

    coherence.count_cooccurrence = tr.span(
        "coherence.count_cooccurrence", coherence.count_cooccurrence,
        cooccurrence)
    coherence.oc_npmi = tr.aggregate("coherence.oc_npmi", coherence.oc_npmi)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    try:
        return tr.span("cli.main", cli.main)(cli_args)
    finally:
        tr.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
