"""End-to-end CLI runs on a small fixture: file outputs, determinism,
stage independence, overrides, and exit codes."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierlabel
from hierlabel import cli
from hierlabel import coherence as coh
from hierlabel import corpus as corp
from hierlabel import labeling as lab
from hierlabel import queryeval as qe

import oracles

def write_fixture(root, n_docs=12, seed=5):
    """12 docs in a 7-node tree (root, two internal, four leaves)."""
    rng = np.random.default_rng(seed)
    n_terms = 9
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    cells = {}
    for d in range(n_docs):
        for t in rng.choice(n_terms, size=4, replace=False):
            cells[(d, int(t))] = int(rng.integers(1, 5))
    for (d, t), c in sorted(cells.items()):
        lines.append(f"{d} {t} {c}")
    (root / "matrix.txt").write_text(
        f"{n_docs} {n_terms}\n" + "\n".join(lines) + "\n")
    (root / "vocab.tsv").write_text(
        "".join(f"{i}\tterm{i}\n" for i in range(n_terms)))
    nodes = [
        {"id": 0, "parent": None, "children": [1, 2], "docs": []},
        {"id": 1, "parent": 0, "children": [3, 4], "docs": []},
        {"id": 2, "parent": 0, "children": [5, 6], "docs": []},
        {"id": 3, "parent": 1, "children": [], "docs": [0, 1, 2]},
        {"id": 4, "parent": 1, "children": [], "docs": [3, 4, 5]},
        {"id": 5, "parent": 2, "children": [], "docs": [6, 7, 8]},
        {"id": 6, "parent": 2, "children": [], "docs": [9, 10, 11]},
    ]
    (root / "hier.json").write_text(json.dumps({"nodes": nodes}))
    corpus_lines = []
    for d in range(n_docs):
        toks = [f"term{t}" for (dd, t) in sorted(cells) if dd == d]
        corpus_lines.append(" ".join(toks))
    (root / "reference.txt").write_text("\n".join(corpus_lines) + "\n")
    cfg = {
        "matrix": "matrix.txt",
        "vocabulary": "vocab.tsv",
        "hierarchy": "hier.json",
        "reference_corpus": "reference.txt",
        "out_dir": "out",
    }
    (root / "config.json").write_text(json.dumps(cfg))
    return root / "config.json"


ALL_DOCS = list(range(12))
ROOT = {"id": 0, "parent": None, "children": [1], "docs": []}

EXPECTED_FILES = (
    "labels.csv", "metrics.csv", "queries.txt", "coherence.csv",
    "coherence_summary.csv", "run_manifest.json",
)

# sha256 of the stats reports of ``all --methods MTWL_raw`` on the fixture,
# as ``sha256sum`` lists them: the one method's level-only fit supplies the
# stats_*.csv mean and variance
SINGLE_METHOD_STATS = Path(__file__).with_name("single_method_stats.sha256")


class TestPipeline:

    def test_all_stages_produce_reports(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg)]) == 0
        out = tmp_path / "fx" / "out"
        for name in EXPECTED_FILES:
            assert (out / name).is_file(), name
        for measure in ("precision", "recall", "f"):
            for kind in ("specific", "generic"):
                assert (out / f"stats_{measure}_{kind}.csv").is_file()
                assert (out / f"level_means_{measure}_{kind}.csv").is_file()
        dats = list((out / "plots").glob("*.dat"))
        assert len(dats) == 16 * 3 * 2

    def test_labels_csv_shape(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        cli.main(["all", "--config", str(cfg)])
        out = tmp_path / "fx" / "out"
        with open(out / "labels.csv") as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert methods <= set(lab.METHODS)
        assert "MTWL_raw" in methods
        for r in rows:
            assert float(r["score"]) > 0
            assert r["term_surface"] == f"term{r['term_id']}"

    def test_method_filtering(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        rc = cli.main(["all", "--config", str(cfg),
                       "--methods", "MTWL_raw"])
        assert rc == 0
        out = tmp_path / "fx" / "out"
        for name in ("labels.csv", "metrics.csv", "coherence.csv"):
            with open(out / name) as fh:
                rows = list(csv.DictReader(fh))
            assert {r["method"] for r in rows} == {"MTWL_raw"}

    def test_single_method_stats_reports_pinned(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg),
                         "--methods", "MTWL_raw"]) == 0
        out = tmp_path / "fx" / "out"
        got = {p.relative_to(out).as_posix():
               hashlib.sha256(p.read_bytes()).hexdigest()
               for pattern in ("stats_*.csv", "level_means_*.csv",
                               "plots/*.dat")
               for p in out.glob(pattern)}
        want = dict(line.split()[::-1]
                    for line in SINGLE_METHOD_STATS.read_text().splitlines())
        assert got == want

    def test_identical_rerun_bitwise_stable(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        args = ["all", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 0
        snapshot = {p.relative_to(tmp_path / "o"): p.read_bytes()
                    for p in (tmp_path / "o").rglob("*") if p.is_file()}
        assert cli.main(args) == 0
        again = {p.relative_to(tmp_path / "o"): p.read_bytes()
                 for p in (tmp_path / "o").rglob("*") if p.is_file()}
        assert snapshot == again

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        cli.main(["all", "--config", str(cfg), "--out",
                  str(tmp_path / "o1"), "--threads", "1"])
        cli.main(["all", "--config", str(cfg), "--out",
                  str(tmp_path / "o2"), "--threads", "4"])
        files1 = sorted(p.relative_to(tmp_path / "o1")
                        for p in (tmp_path / "o1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "o2")
                        for p in (tmp_path / "o2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            b1 = (tmp_path / "o1" / rel).read_bytes()
            b2 = (tmp_path / "o2" / rel).read_bytes()
            if rel.name == "run_manifest.json":
                # out_dir/threads differ in the config echo by design
                m1 = json.loads(b1)
                m2 = json.loads(b2)
                sums1 = {k: v["sha256"] for k, v in m1["inputs"].items()}
                sums2 = {k: v["sha256"] for k, v in m2["inputs"].items()}
                assert sums1 == sums2
            else:
                assert b1 == b2, rel

    def test_stagewise_equals_all(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        cli.main(["all", "--config", str(cfg), "--out", str(tmp_path / "oa")])
        for stage in ("label", "evaluate", "stats", "coherence"):
            assert cli.main([stage, "--config", str(cfg),
                             "--out", str(tmp_path / "ob")]) == 0
        for rel in EXPECTED_FILES:
            if rel == "run_manifest.json":
                continue
            assert (tmp_path / "oa" / rel).read_bytes() == \
                (tmp_path / "ob" / rel).read_bytes(), rel

    def test_stats_reports_do_not_depend_on_metrics_row_order(self,
                                                              tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg)]) == 0

        def reports():
            return {p.relative_to(out).as_posix(): p.read_bytes()
                    for pattern in ("stats_*.csv", "level_means_*.csv",
                                    "plots/*.dat")
                    for p in out.glob(pattern)}

        want = reports()
        path = out / "metrics.csv"
        head, *body = path.read_bytes().splitlines(keepends=True)
        order = np.random.default_rng(7).permutation(len(body))
        path.write_bytes(head + b"".join(body[k] for k in order))
        assert cli.main(["stats", "--config", str(cfg)]) == 0
        got = reports()
        assert sorted(got) == sorted(want)
        assert [name for name in want if got[name] != want[name]] == []

    def test_coherence_rows_in_ascending_node_id(self, tmp_path):
        """Node ids neither contiguous nor declared in order: each method's
        coherence.csv rows run in ascending id, each the OC of that node's
        label."""
        cfg = write_fixture(tmp_path / "fx")
        hier = tmp_path / "fx" / "hier.json"
        ids = [50, 3, 17, 8, 42, 9, 21]
        nodes = json.loads(hier.read_text())["nodes"]
        for node in nodes:
            node["id"] = ids[node["id"]]
            node["children"] = [ids[c] for c in node["children"]]
            if node["parent"] is not None:
                node["parent"] = ids[node["parent"]]
        hier.write_text(json.dumps({"nodes": nodes[::-1]}))
        assert cli.main(["all", "--config", str(cfg)]) == 0
        out = tmp_path / "fx" / "out"
        labels = {}
        with open(out / "labels.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                labels.setdefault((row["method"], int(row["node_id"])),
                                  []).append(int(row["term_id"]))
        counts = coh.count_cooccurrence(
            coh.load_reference_corpus(tmp_path / "fx" / "reference.txt"),
            corp.load_vocabulary(tmp_path / "fx" / "vocab.tsv"))
        with open(out / "coherence.csv", newline="") as fh:
            got = list(csv.reader(fh))[1:]
        assert got == [
            [method, str(nid), cli.fmt(oracles.oc_npmi(
                counts, labels.get((method, nid), []), 10))]
            for method in lab.METHODS for nid in sorted(ids)]

    def test_manifest_checksums(self, tmp_path):
        import hashlib
        cfg = write_fixture(tmp_path / "fx")
        cli.main(["all", "--config", str(cfg)])
        manifest = json.loads(
            (tmp_path / "fx" / "out" / "run_manifest.json").read_text())
        for name in ("matrix", "vocabulary", "hierarchy"):
            entry = manifest["inputs"][name]
            digest = hashlib.sha256(
                Path(entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_dry_run_writes_nothing(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        rc = cli.main(["all", "--config", str(cfg), "--dry-run",
                       "--out", str(tmp_path / "dry")])
        assert rc == 0
        assert not (tmp_path / "dry").exists()

    def test_validate_stage(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["validate", "--config", str(cfg)]) == 0

    def test_queries_txt_prefix_format(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        cli.main(["all", "--config", str(cfg), "--methods", "MTWL_raw"])
        lines = (tmp_path / "fx" / "out" / "queries.txt").read_text()
        for line in lines.splitlines():
            method, node, kind, expr = line.split(" ", 3)
            assert method == "MTWL_raw"
            assert kind in ("specific", "generic")
            assert expr.startswith(("(", "t"))

    def test_queries_name_the_label_term_ids_under_df_filter(self, tmp_path):
        """Under a df filter, the specific query of a node with its own
        label ORs exactly that label's term ids from labels.csv."""
        cfg = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg.read_text())
        blob["df_filter"] = {"low": 0.1, "high": 0.45}
        cfg.write_text(json.dumps(blob))
        assert cli.main(["all", "--config", str(cfg)]) == 0
        out = tmp_path / "fx" / "out"
        labels = {}
        with open(out / "labels.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                labels.setdefault((r["method"], r["node_id"]), []).append(
                    f"t{r['term_id']}")
        checked = 0
        for line in (out / "queries.txt").read_text().splitlines():
            method, nid, kind, expr = line.split(" ", 3)
            terms = labels.get((method, nid))
            if kind == "specific" and terms:
                assert re.findall(r"t\d+", expr) == terms, line
                checked += 1
        assert checked and any(len(t) > 1 for t in labels.values())


# (file, its fault, a part of the message, the line the message names or
# None): one row per input fault that is found after parsing
INPUT_FAULTS = [
    # hierarchy faults found while building the tree
    ("hier.json", lambda n: n[0].update(parent=1), "has no root", None),
    ("hier.json", lambda n: n[2].update(parent=None), "multiple roots", None),
    ("hier.json", lambda n: n.append(dict(n[6])), "duplicate node id", None),
    ("hier.json", lambda n: n[1].update(children=[3]), "disagrees", None),
    ("hier.json", lambda n: (n[5]["docs"].extend(n[6]["docs"]),
                             n[6].update(docs=[])), "empty leaf", None),
    ("hier.json", lambda n: n[6]["docs"].append(12),
     "doc-id out of range", None),
    ("hier.json", lambda n: n[6]["docs"].append(0), "two leaves", None),
    ("hier.json", lambda n: n[1].update(docs=[0]),
     "attached to an internal node", None),
    # matrix cells, named by their line
    ("matrix.txt", "12 9\n0 0 0\n", "zero or negative count", 2),
    ("matrix.txt", "12 9\n0 0 1\n0 0 1\n", "duplicate (doc, term)", 3),
    ("matrix.txt", "12 9\n0 9 1\n", "term-id out of range", 2),
    ("matrix.txt", "12 9\n12 0 1\n", "doc-id out of range", 2),
    # the bulk parse skips blank and whitespace-only lines; non-ASCII text
    # takes the line loop
    ("matrix.txt", "12 9\n0 0 1\n\n \t\n1 0 1\n0 0 1\n",
     "duplicate (doc, term) cell", 6),
    ("matrix.txt", "12 9\n0 0 1\n\u3000\n0\xa01\xa00\n",
     "zero or negative count in matrix cell", 4),
    # vocabulary surfaces
    ("vocab.tsv", lambda v: v.replace("\tterm3", "\t"),
     "empty surface", None),
    ("vocab.tsv", lambda v: v.replace("term3", "term2"),
     "duplicate surface", None),
    # the vocabulary against the matrix: both files are named
    ("vocab.tsv", lambda v: v.replace("8\tterm8\n", ""),
     "vocabulary has 8 terms, matrix", None),
]


class TestExitCodes:

    def test_missing_config(self, tmp_path):
        assert cli.main(["all", "--config", str(tmp_path / "nope.json")]) == 2

    def test_numerical_failure_is_exit_4(self, tmp_path):
        # a one-node hierarchy leaves the level factor with a single level,
        # so the stats stage cannot fit its models
        cfg = write_fixture(tmp_path / "fx")
        (tmp_path / "fx" / "hier.json").write_text(json.dumps({"nodes": [
            {"id": 0, "parent": None, "children": [],
             "docs": list(range(12))}]}))
        assert cli.main(["all", "--config", str(cfg)]) == 4

    def test_bad_alpha(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg), "--alpha", "3"]) == 2

    def test_unknown_method(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg),
                         "--methods", "NotAMethod"]) == 2

    def test_invalid_matrix_is_input_error(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        (tmp_path / "fx" / "matrix.txt").write_text("2 2\n5 0 1\n")
        assert cli.main(["all", "--config", str(cfg)]) == 3

    def test_malformed_hierarchy_is_input_error(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        (tmp_path / "fx" / "hier.json").write_text("{not json")
        assert cli.main(["all", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("nodes,position", [
        ([1, 2], 0),
        ([ROOT, {"parent": 0, "children": [], "docs": ALL_DOCS}], 1),
        ([ROOT, {"id": 1, "parent": 0, "children": [], "docs": ["x"]}], 1),
        ([ROOT, {"id": 1, "parent": 0, "children": 5, "docs": ALL_DOCS}], 1),
        ([{"id": 0.5, "parent": None, "children": [], "docs": ALL_DOCS}], 0),
    ])
    def test_mistyped_hierarchy_node_is_input_error(self, tmp_path, capsys,
                                                    nodes, position):
        cfg = write_fixture(tmp_path / "fx")
        hier = tmp_path / "fx" / "hier.json"
        hier.write_text(json.dumps({"nodes": nodes}))
        assert cli.main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{hier}: nodes[{position}]" in err, err

    @pytest.mark.parametrize("name,code", [
        ("config.json", 2), ("hier.json", 3)])
    def test_deeply_nested_json(self, tmp_path, capsys, name, code):
        # json's decoder recurses once per nesting level
        cfg = write_fixture(tmp_path / "fx")
        path = tmp_path / "fx" / name
        path.write_text("[" * 5000 + "]" * 5000 if name == "config.json"
                        else "[" * 100_000)
        assert cli.main(["validate", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert f"{path}: JSON nested too deeply" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,change,why,line", INPUT_FAULTS,
                             ids=[f"{name}: {why}"
                                  for name, _, why, _ in INPUT_FAULTS])
    def test_input_fault_names_its_file(self, tmp_path, capsys, name,
                                        change, why, line):
        cfg = write_fixture(tmp_path / "fx")
        path = tmp_path / "fx" / name
        if name == "hier.json":
            nodes = json.loads(path.read_text())["nodes"]
            change(nodes)
            path.write_text(json.dumps({"nodes": nodes}))
        elif callable(change):
            path.write_text(change(path.read_text()))
        else:
            path.write_text(change, encoding="utf-8")
        assert cli.main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        where = f"{path}: " if line is None else f"{path}:{line}: "
        assert where in err and why in err, err
        if why.endswith("matrix"):
            assert str(tmp_path / "fx" / "matrix.txt") in err, err
        if name == "matrix.txt":
            # after a non-ASCII blank line the line loop parses the cells,
            # and names the same fault one line further down
            head, body = change.split("\n", 1)
            path.write_text(f"{head}\n\u3000\n{body}", encoding="utf-8")
            assert cli.main(["validate", "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert f"{path}:{line + 1}: " in err and why in err, err

    @pytest.mark.parametrize("stage,name,damage,line", [
        ("evaluate", "labels.csv", "header", 1),
        ("coherence", "labels.csv", "header", 1),
        ("stats", "metrics.csv", "header", 1),
        ("evaluate", "labels.csv", "node_id", 2),
        ("coherence", "labels.csv", "node_id", 2),
        ("stats", "metrics.csv", "node_id", 2),
        ("evaluate", "labels.csv", "foreign", 1),
        ("evaluate", "labels.csv", "long", 2),
        ("coherence", "labels.csv", "short", 2),
        ("stats", "metrics.csv", "long", 2),
        ("stats", "metrics.csv", "short", 2),
        ("stats", "metrics.csv", "repeat", 3),
        ("coherence", "labels.csv", "repeat", 3),
        # rows that disagree with the hierarchy or name an unknown kind
        ("evaluate", "labels.csv", "stray", 3),
        ("coherence", "labels.csv", "stray", 3),
        ("stats", "metrics.csv", "stray", 3),
        ("stats", "metrics.csv", "level", 2),
        ("stats", "metrics.csv", "kind", 2),
        # values the label stage never writes
        ("evaluate", "labels.csv", "score:nan", 2),
        ("coherence", "labels.csv", "score:inf", 2),
        ("evaluate", "labels.csv", "score:-1", 2),
        ("coherence", "labels.csv", "score:0", 2),
        ("evaluate", "labels.csv", "rank:-3", 2),
        ("coherence", "labels.csv", "rank:gap", 10),
        ("evaluate", "labels.csv", "method", 2),
        ("coherence", "labels.csv", "method", 2),
        ("evaluate", "labels.csv", "surface", 2),
        ("coherence", "labels.csv", "surface", 2),
    ])
    def test_malformed_report_csv_is_input_error(self, tmp_path, capsys,
                                                 stage, name, damage, line):
        cfg = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg)]) == 0
        path = out / name
        rows = path.read_text().splitlines()
        if damage == "header":
            rows[0] = rows[0].replace("method", "algorithm")
        elif damage == "node_id":
            fields = rows[1].split(",")
            fields[1] = "x"
            rows[1] = ",".join(fields)
        elif damage == "method":            # not a labeling method
            rows[1] = "Bogus" + rows[1][rows[1].index(","):]
        elif damage == "surface":           # not the term's surface
            fields = rows[1].split(",")
            fields[4] = "term" + fields[3] + "x"
            rows[1] = ",".join(fields)
        elif damage == "long":
            rows[1] += ",x"
        elif damage == "short":
            rows[1] = rows[1].rsplit(",", 1)[0]
        elif damage == "repeat":
            rows.insert(2, rows[1])
        elif damage == "stray":             # a row for node 99999
            fields = rows[1].split(",")
            fields[1] = "99999"
            rows.insert(2, ",".join(fields))
        elif damage in ("level", "kind"):   # node 0 is at level 0
            fields = rows[1].split(",")
            fields[rows[0].split(",").index(damage)] = \
                {"level": "7", "kind": "bogus"}[damage]
            rows[1] = ",".join(fields)
        elif damage.startswith(("score:", "rank:")):
            column, value = damage.split(":")
            row = 1
            if value == "gap":
                # the last of the first node's k ranks becomes k + 3
                first = rows[1].split(",")[:2]
                row = max(j for j, r in enumerate(rows)
                          if r.split(",")[:2] == first)
                value = str(row + 3)
            fields = rows[row].split(",")
            fields[rows[0].split(",").index(column)] = value
            rows[row] = ",".join(fields)
        else:
            rows = (out / "metrics.csv").read_text().splitlines()
        path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:{line}:" in err, err

    def test_labels_beyond_p_cap_are_cut(self, tmp_path):
        """evaluate and coherence read only each label's first p_cap ranks:
        on the labels of p_cap 10 at p_cap 2, they write the reports of a
        whole run at p_cap 2."""
        cfg = write_fixture(tmp_path / "fx")
        out, cut = tmp_path / "fx" / "out", tmp_path / "cut"
        assert cli.main(["all", "--config", str(cfg)]) == 0
        assert cli.main(["all", "--config", str(cfg), "--p-cap", "2",
                         "--out", str(cut)]) == 0
        with open(out / "labels.csv", newline="") as fh:
            assert max(int(r["rank"]) for r in csv.DictReader(fh)) > 2
        for stage in ("evaluate", "coherence"):
            assert cli.main([stage, "--config", str(cfg),
                             "--p-cap", "2"]) == 0
        for name in ("metrics.csv", "queries.txt", "coherence.csv",
                     "coherence_summary.csv"):
            assert (out / name).read_bytes() == (cut / name).read_bytes()

    def test_coherence_takes_a_p_cap_beyond_int64(self, tmp_path):
        """A p_cap of 10^30 keeps every rank of every label: coherence
        writes the reports it writes at the labels' own p_cap."""
        cfg = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg)]) == 0
        names = ("coherence.csv", "coherence_summary.csv")
        want = {name: (out / name).read_bytes() for name in names}
        assert cli.main(["coherence", "--config", str(cfg),
                         "--p-cap", str(10 ** 30)]) == 0
        for name in names:
            assert (out / name).read_bytes() == want[name]

    @pytest.mark.parametrize("stage", ["evaluate", "coherence"])
    def test_labels_csv_term_outside_the_filtered_vocabulary(
            self, tmp_path, capsys, stage):
        # the df filter drops term 1, which 6 of the 12 documents hold
        cfg = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg.read_text())
        blob["df_filter"] = {"low": 0.0, "high": 0.4}
        cfg.write_text(json.dumps(blob))
        assert cli.main(["label", "--config", str(cfg)]) == 0
        path = tmp_path / "fx" / "out" / "labels.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert "1" not in {row[3] for row in rows[1:]}
        rows[1][3:5] = ["1", "term1"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:2: term 1 " in err, err

    @pytest.mark.parametrize("stage", ["evaluate", "coherence"])
    @pytest.mark.parametrize("fault", ["node", "term"])
    def test_labels_csv_fault_named_in_file_order(self, tmp_path, capsys,
                                                  stage, fault):
        """Of two rows of one method that name a node the hierarchy lacks,
        or a term the df filter drops, the row on the earlier line is
        named, though the other comes first in node order."""
        cfg = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg.read_text())
        blob["df_filter"] = {"low": 0.0, "high": 0.4}     # drops term 1
        cfg.write_text(json.dumps(blob))
        assert cli.main(["label", "--config", str(cfg)]) == 0
        path = tmp_path / "fx" / "out" / "labels.csv"
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        if fault == "node":
            # a node 900 row on line 2 and a node 100 row on the last line
            rows = ([rows[0][:1] + ["900"] + rows[0][2:]] + rows
                    + [rows[0][:1] + ["100"] + rows[0][2:]])
            want = "node 900 is not in the hierarchy"
        else:
            # the rank-1 rows of nodes 0 and 6 name term 1; node 6's moves
            # to line 2
            at = [k for k, r in enumerate(rows)
                  if r[0] == "MTWL_raw" and r[1] in ("0", "6") and r[2] == "1"]
            assert len(at) == 2
            for k in at:
                rows[k][3:5] = ["1", "term1"]
            rows.insert(0, rows.pop(at[-1]))
            want = "term 1 is absent from the working vocabulary"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:2: {want}" in err, err

    def test_empty_df_band_names_the_matrix(self, tmp_path, capsys):
        # 12 documents: the band (0.7, 1.0) is 8 to 12 documents, and no
        # term of the fixture is in more than 7
        cfg = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg.read_text())
        blob["df_filter"] = {"low": 0.7, "high": 1.0}
        cfg.write_text(json.dumps(blob))
        assert cli.main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'fx' / 'matrix.txt'}: empty vocabulary after "
                f"filter: no term is in 8 to 12 of the 12 documents") in err, \
            err

    @pytest.mark.parametrize("column", ["precision", "recall", "f"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-0.1"])
    def test_metric_outside_unit_interval_is_input_error(
            self, tmp_path, capsys, column, value):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg)]) == 0
        path = tmp_path / "fx" / "out" / "metrics.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert cli.main(["stats", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:4:" in err and column in err, err

    def test_metrics_csv_without_a_row_is_input_error(self, tmp_path,
                                                      capsys):
        # a fit without that observation could fail as a numerical error
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg)]) == 0
        path = tmp_path / "fx" / "out" / "metrics.csv"
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:-1]) + "\n")
        capsys.readouterr()
        assert cli.main(["stats", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}: no generic row for method" in err, err

    def test_matrix_header_beyond_the_hierarchy_is_input_error(
            self, tmp_path, capsys):
        # the document count alone would ask for an 8 TiB index array
        cfg = write_fixture(tmp_path / "fx")
        path = tmp_path / "fx" / "matrix.txt"
        body = path.read_text().split("\n", 1)[1]
        path.write_text("1099511627776 9\n" + body)
        assert cli.main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:1:" in err, err
        assert "1099511627776" in err and "12" in err, err

    def test_matrix_mass_beyond_2_53_is_input_error(self, tmp_path, capsys):
        # two cells of 2^62 wrap an int64 node total; nothing is labeled
        cfg = write_fixture(tmp_path / "fx")
        path = tmp_path / "fx" / "matrix.txt"
        lines = path.read_text().splitlines()
        term = lines[1].split()[1]
        rows = [k for k, ln in enumerate(lines[1:], 1)
                if ln.split()[1] == term][:2]
        for k in rows:
            d, t, _ = lines[k].split()
            lines[k] = f"{d} {t} {1 << 62}"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["all", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:" in err and "2^53" in err, err
        assert not (tmp_path / "fx" / "out" / "labels.csv").exists()

    @pytest.mark.parametrize("name,code,ending", [
        pytest.param(name, code, ending,
                     id=f"{name}-{code}" + {"\n": "", "\r": "-cr",
                                            "\r\n": "-crlf"}[ending])
        for ending in ("\n", "\r", "\r\n")
        for name, code in (("matrix.txt", 3), ("vocab.tsv", 3),
                           ("hier.json", 3), ("reference.txt", 3),
                           ("config.json", 2))
    ] + [pytest.param("matrix.txt", 3, "\f", id="matrix.txt-3-ff")])
    def test_non_utf8_input(self, tmp_path, capsys, name, code, ending):
        """The line named is the one the file's own parser counts: lines
        end at "\r" and "\r\n" too, and the matrix's also at "\f"."""
        cfg = write_fixture(tmp_path / "fx")
        path = tmp_path / "fx" / name
        data = path.read_bytes()
        if ending == "\n":
            cut = data.find(b"\n") + 1 or 1      # start of line 2, else line 1
            line = 2 if b"\n" in data[:cut] else 1
        elif ending == "\f":
            # the bad byte after a form feed at the start of line 2
            cut = data.find(b"\n") + 1
            data = data[:cut] + b"\f" + data[cut:]
            cut, line = cut + 1, 3
        else:
            if name.endswith(".json"):
                data = json.dumps(json.loads(data), indent=1).encode()
            rows = data.decode().splitlines()
            data = "".join(row + ending for row in rows).encode()
            cut = len("".join(row + ending for row in rows[:2]).encode())
            line = 3                              # start of line 3
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        assert cli.main(["validate", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        where = str(path) if code == 2 else f"{path}:{line}:"
        assert where in err and "UTF-8" in err, err
        if ending == "\f":
            # a bad field in the same spot names the same line
            path.write_bytes(data[:cut] + b"x" + data[cut:])
            assert cli.main(["validate", "--config", str(cfg)]) == code
            assert f"{path}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["validate", "coherence"])
    def test_empty_reference_corpus_is_input_error(self, tmp_path, capsys,
                                                   stage):
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["label", "--config", str(cfg)]) == 0
        path = tmp_path / "fx" / "reference.txt"
        path.write_text(" \n\t\n\n")
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"reference corpus {path} has no documents" in err, err

    def test_failed_run_leaves_no_partial_reports(self, tmp_path):
        cfg = write_fixture(tmp_path / "fx")
        # valid inputs, but a stats stage without metrics.csv is an error
        rc = cli.main(["stats", "--config", str(cfg),
                       "--out", str(tmp_path / "empty_out")])
        assert rc == 2
        leftover = [p for p in (tmp_path / "empty_out").rglob("*")
                    if p.is_file()]
        assert leftover == []


class TestConfigHandling:

    def test_cli_overrides_config(self, tmp_path):
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["p_cap"] = 3
        cfg_path.write_text(json.dumps(blob))
        cfg = cli.load_config(cfg_path, {"p_cap": 7})
        assert cfg.p_cap == 7
        cfg2 = cli.load_config(cfg_path, {"p_cap": None})
        assert cfg2.p_cap == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["coffee"] = True
        cfg_path.write_text(json.dumps(blob))
        with pytest.raises(cli.ConfigError, match="coffee"):
            cli.load_config(cfg_path, {})

    def test_bad_oc_aggregate_rejected(self, tmp_path):
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["oc_aggregate"] = "median"
        cfg_path.write_text(json.dumps(blob))
        assert cli.main(["all", "--config", str(cfg_path)]) == 2

    def test_df_filter_roundtrip(self, tmp_path):
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["df_filter"] = {"low": 0.0, "high": 1.0}
        cfg_path.write_text(json.dumps(blob))
        assert cli.main(["all", "--config", str(cfg_path)]) == 0


class TestConfigTypes:

    @pytest.mark.parametrize("key,value", [
        ("p_cap", "3"), ("threads", "2"), ("alpha", "0.05"),
        ("methods", "RLUM"), ("npmi_epsilon", -3), ("p_cap", True),
        ("big_threshold", 2.5), ("oc_aggregate", 1), ("matrix", 7),
        ("df_filter", {"low": "0.1", "high": 0.5}),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob[key] = value
        cfg_path.write_text(json.dumps(blob))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and key in err, err

    def test_methods_string_not_split_into_letters(self, tmp_path):
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["methods"] = "RLUM"
        cfg_path.write_text(json.dumps(blob))
        with pytest.raises(cli.ConfigError, match="list of method names"):
            cli.load_config(cfg_path, {})


class TestSingleLoad:

    def _count_loads(self, monkeypatch):
        calls = []
        real = cli.load_inputs

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)
        monkeypatch.setattr(cli, "load_inputs", counting)
        return calls

    def test_all_loads_inputs_once(self, tmp_path, monkeypatch):
        cfg = write_fixture(tmp_path / "fx")
        calls = self._count_loads(monkeypatch)
        assert cli.main(["all", "--config", str(cfg)]) == 0
        assert len(calls) == 1

    def test_each_stage_loads_inputs_once(self, tmp_path, monkeypatch):
        cfg = write_fixture(tmp_path / "fx")
        calls = self._count_loads(monkeypatch)
        for stage in ("label", "evaluate", "stats", "coherence"):
            calls.clear()
            assert cli.main([stage, "--config", str(cfg)]) == 0
            assert len(calls) == 1, stage

    def test_reference_corpus_parsed_only_where_used(self, tmp_path,
                                                     monkeypatch):
        cfg = write_fixture(tmp_path / "fx")
        calls = []
        real = coh.load_reference_corpus

        def counting(path):
            calls.append(path)
            return real(path)
        monkeypatch.setattr(coh, "load_reference_corpus", counting)
        for stage, parses in (("validate", 1), ("label", 0), ("evaluate", 0),
                              ("stats", 0), ("coherence", 1), ("all", 1)):
            calls.clear()
            assert cli.main([stage, "--config", str(cfg)]) == 0
            assert len(calls) == parses, stage

    def test_all_equals_stagewise_with_df_filter(self, tmp_path):
        # the in-memory labels and a run that re-reads labels.csv write
        # the same reports
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["df_filter"] = {"low": 0.1, "high": 0.45}
        cfg_path.write_text(json.dumps(blob))
        cfg = cli.load_config(cfg_path, {})
        bundle = cli.load_inputs(cfg)
        assert bundle.matrix.n_terms == bundle.kept.size == 9
        assert 0 < np.count_nonzero(bundle.kept) < 9
        assert cli.main(["all", "--config", str(cfg_path),
                         "--out", str(tmp_path / "oa")]) == 0
        for stage in ("label", "evaluate", "stats", "coherence"):
            assert cli.main([stage, "--config", str(cfg_path),
                             "--out", str(tmp_path / "ob")]) == 0
        for rel in EXPECTED_FILES:
            if rel == "run_manifest.json":
                continue
            assert (tmp_path / "oa" / rel).read_bytes() == \
                (tmp_path / "ob" / rel).read_bytes(), rel


    def test_all_equals_stagewise_with_quoted_surfaces(self, tmp_path):
        # surfaces with commas and quotes make labels.csv quoted, which the
        # staged runs read back through csv.reader
        cfg_path = write_fixture(tmp_path / "fx")
        for name in ("vocab.tsv", "reference.txt"):
            path = tmp_path / "fx" / name
            path.write_text(path.read_text().replace("term", 'te,r"m'))
        assert cli.main(["all", "--config", str(cfg_path),
                         "--out", str(tmp_path / "oa")]) == 0
        labels = tmp_path / "oa" / "labels.csv"
        assert b'"te,r""m' in labels.read_bytes()
        assert cli._split_columns(labels, ("method",)) is None
        for stage in ("label", "evaluate", "stats", "coherence"):
            assert cli.main([stage, "--config", str(cfg_path),
                             "--out", str(tmp_path / "ob")]) == 0
        for rel in EXPECTED_FILES:
            if rel == "run_manifest.json":
                continue
            assert (tmp_path / "oa" / rel).read_bytes() == \
                (tmp_path / "ob" / rel).read_bytes(), rel


class TestTracedBenchmark:

    def test_traced_stages_complete(self, tmp_path):
        """pipebench/traced.py runs the label, evaluate and coherence
        stages and ``all`` on the program as it is, and its counters agree
        with the label records and the queries derived from them."""
        cfg = write_fixture(tmp_path / "fx")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        spans = {}
        for stage in ("label", "evaluate", "coherence", "all"):
            path = tmp_path / f"{stage}.json"
            done = subprocess.run(
                [sys.executable, str(root / "pipebench" / "traced.py"),
                 str(path), stage, "--config", str(cfg)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (stage, done.stderr)
            spans[stage] = json.loads(path.read_text())
        bundle = cli.load_inputs(cli.load_config(cfg, {}))
        records = lab.label_all(
            hierlabel.build_node_stats(bundle.matrix, bundle.hierarchy))
        empty = sum(int((np.diff(a.indptr) == 0).sum())
                    for a in records.values())
        for stage in ("label", "all"):
            names = {span[0] for span in spans[stage]["spans"]}
            assert {f"labeling.{m}" for m in lab.METHODS} <= names, stage
            assert spans[stage]["counts"]["labeling.empty_label_nodes"] \
                == empty, stage
        for stage in ("evaluate", "coherence"):
            names = {span[0] for span in spans[stage]["spans"]}
            assert "cli.read_labels_csv" in names, stage
        unretrievable = sum(
            1 for a in records.values()
            for q in qe.derive_specific_queries(bundle.hierarchy, a).values()
            if q is None)
        for stage in ("evaluate", "all"):
            names = {span[0] for span in spans[stage]["spans"]}
            assert "queryeval.derive_specific_queries" in names, stage
            assert spans[stage]["counts"]["queryeval.unretrievable_nodes"] \
                == unretrievable, stage
            assert spans[stage]["agg"]["queryeval.query_to_prefix"][0] >= 1, \
                stage


class TestAtomicReports:

    def test_failure_mid_write_leaves_no_torn_report(self, tmp_path,
                                                     monkeypatch):
        cfg_path = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg_path)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        seen = []
        real = cli.qe.query_to_prefix

        def failing_renderer(query):
            if len(seen) == 5:
                # what a reader of queries.txt finds mid-write
                seen.append((out / "queries.txt").read_bytes())
                raise OSError("device full")
            seen.append(None)
            return real(query)
        monkeypatch.setattr(cli.qe, "query_to_prefix", failing_renderer)
        cfg = cli.load_config(cfg_path, {})
        with pytest.raises(OSError, match="device full"):
            cli.run_stage("evaluate", cfg)
        assert seen[-1] == before[out / "queries.txt"]
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert not [p for p in after if p.name.endswith(".tmp")]
        assert all(before[p] == b for p, b in after.items())


class TestMutationFuzz:
    """Damaged inputs end in a documented exit code, never a traceback."""

    INPUTS = ("matrix.txt", "vocab.tsv", "hier.json", "reference.txt",
              "config.json")
    TOKENS = (b"-1", b"x", b"0", b"1e9", b"99999999999999999999", b"null",
              b"{", b"]", b",", b'"', b"\t", b" ", b"\n", b"\xff", b"true",
              b"[]", b"NaN", b"3.5")

    @classmethod
    def mutate(cls, rng, data: bytes) -> bytes:
        """One byte replaced, a truncation, an inserted token or a
        duplicated line."""
        kind = int(rng.integers(4))
        if kind == 0 and data:
            i = int(rng.integers(len(data)))
            return data[:i] + bytes([int(rng.integers(256))]) + data[i + 1:]
        if kind == 1:
            return data[:int(rng.integers(len(data) + 1))]
        if kind == 2:
            i = int(rng.integers(len(data) + 1))
            return data[:i] + cls.TOKENS[int(rng.integers(len(cls.TOKENS)))] \
                + data[i:]
        lines = data.split(b"\n")
        i = int(rng.integers(len(lines)))
        return b"\n".join(lines[:i + 1] + lines[i:])

    def test_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base"
        write_fixture(base)
        originals = {n: (base / n).read_bytes() for n in self.INPUTS}
        rng = np.random.default_rng(2024)
        escaped, codes = [], set()
        for case in range(150):
            name = self.INPUTS[case % len(self.INPUTS)]
            stage = ("validate", "label", "all")[case % 3]
            damaged = self.mutate(rng, originals[name])
            (base / name).write_bytes(damaged)
            try:
                rc = cli.main([stage, "--config", str(base / "config.json")])
            except Exception as e:
                escaped.append((case, name, stage, damaged, repr(e)))
            else:
                codes.add(rc)
                if rc not in (0, 2, 3, 4):
                    escaped.append((case, name, stage, damaged, rc))
            finally:
                (base / name).write_bytes(originals[name])
            capsys.readouterr()
        assert not escaped, escaped[:3]
        assert {0, 2, 3} <= codes


class TestReportReaders:

    def test_quoted_cells_round_trip(self, tmp_path):
        surfaces = ["plain", "comma, inside", 'a "quote"', "two\nlines",
                    "crlf\r\nbreak", '",\n"']
        path = tmp_path / "labels.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "node_id", "rank", "term_id",
                        "term_surface", "score"])
            for k, surface in enumerate(surfaces):
                w.writerow(["RLUM", k % 2, k // 2 + 1, 10 + k, surface,
                            f"{0.5 / (k + 1):.6g}"])
                if k == 2:
                    fh.write("\r\n")              # a blank row is skipped
        vocab = (*(f"t{i}" for i in range(10)), *surfaces)
        got = oracles.label_dict(cli.read_labels_csv(path, vocab)[0])
        assert got == {"RLUM": {
            0: [(10, 0.5), (12, float("0.166667")), (14, 0.1)],
            1: [(11, 0.25), (13, 0.125), (15, float("0.0833333"))],
        }}
        # a bad row after the multi-line cells names its physical line
        lines = path.read_bytes().count(b"\n")
        with open(path, "a", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(["RLUM", "x", 1, 1, "s", "0.1"])
        with pytest.raises(cli.ParseError, match=f":{lines + 1}: "):
            cli.read_labels_csv(path, vocab)


HEADER = b"method,node_id,rank,term_id,term_surface,score"
ROW_A = b"RLUM,0,1,10,alpha,0.5"
ROW_B = b"RLUM,1,1,11,beta,0.25"


class TestSplitPath:
    """A quote-free report CSV is split in one pass; every file gives the
    columns, lines and first fault that csv.reader gives."""

    @pytest.mark.parametrize("data,split", [
        (HEADER + b"\n" + ROW_A + b"\n" + ROW_B + b"\n", True),
        (HEADER + b"\r\n" + ROW_A + b"\r\n" + ROW_B + b"\r\n", True),
        (HEADER + b"\n" + ROW_A + b"\n" + ROW_B, True),
        (HEADER + b"\n", True),
        (HEADER, True),
        (HEADER + b"\n" + ROW_A + b"\r" + ROW_B + b"\n", False),
        (HEADER + b"\n" + ROW_A + b"\n\n" + ROW_B + b"\n", False),
        (HEADER + b"\r\n" + ROW_A + b"\r\n\r\n" + ROW_B + b"\r\n", False),
        (HEADER + b"\n" + ROW_A + b"\n" + ROW_B + b"\n\n", False),
        (HEADER + b"\n" + ROW_A.rsplit(b",", 1)[0] + b"\n" + ROW_B + b"\n",
         False),
        (HEADER + b"\n" + ROW_A + b",x\n" + ROW_B + b"\n", False),
        (HEADER + b"\n" + ROW_A + b"\n" + ROW_B.replace(b"beta", b"b\xffta")
         + b"\n", False),
    ], ids=["lf", "crlf", "no-final-newline", "header-only",
            "header-only-no-newline", "bare-cr", "blank-mid", "blank-mid-crlf",
            "blank-end", "short-row", "long-row", "non-utf8"])
    def test_split_equals_reader(self, tmp_path, data, split):
        path = tmp_path / "labels.csv"
        path.write_bytes(data)
        columns = ("method", "node_id", "rank", "term_id", "score")
        assert (cli._split_columns(path, columns) is not None) == split

        def read(reader):
            try:
                lines, cells, fault = reader(path, columns)
            except cli.ParseError as e:
                return str(e)
            return (lines.tolist(), [list(c) for c in cells],
                    None if fault is None else str(fault))

        assert read(cli._report_columns) == read(cli._reader_columns)

    @pytest.mark.parametrize("n_rows", [1, 1000], ids=["near", "far"])
    def test_undecodable_byte_names_its_line(self, tmp_path, n_rows):
        """The fault names the line of the first byte that is not UTF-8,
        and every row before that line is kept, however far into the file
        the byte lies."""
        path = tmp_path / "labels.csv"
        rows = [b"RLUM,%d,1,10,alpha,0.5" % k for k in range(n_rows)]
        path.write_bytes(b"\n".join(
            [HEADER, *rows, ROW_B.replace(b"beta", b"b\xffta")]) + b"\n")
        columns = ("method", "node_id", "rank", "term_id", "score")
        for reader in (cli._report_columns, cli._reader_columns):
            lines, cells, fault = reader(path, columns)
            assert lines.tolist() == list(range(2, n_rows + 2))
            assert list(cells[1]) == [str(k) for k in range(n_rows)]
            assert str(fault).startswith(f"{path}:{n_rows + 2}: not UTF-8")


class TestReportMutationFuzz:
    """Damaged labels.csv and metrics.csv files end in exit 0 or 3, never
    in a traceback."""

    STAGES = {"labels.csv": ("evaluate", "coherence"),
              "metrics.csv": ("stats",)}

    @classmethod
    def mutations(cls, originals):
        """(case, file name, damaged bytes) of the 120 mutations."""
        rng = np.random.default_rng(4049)
        for case in range(120):
            name = ("labels.csv", "metrics.csv")[case % 2]
            yield case, name, TestMutationFuzz.mutate(rng, originals[name])

    def test_exit_codes(self, tmp_path, capsys):
        # without a df filter and with one, whose mask check then meets
        # the damaged term ids
        escaped = []
        for df_filter in (None, {"low": 0.1, "high": 0.45}):
            cfg = write_fixture(tmp_path / str(bool(df_filter)))
            blob = json.loads(cfg.read_text())
            blob["df_filter"] = df_filter
            cfg.write_text(json.dumps(blob))
            out = cfg.parent / "out"
            assert cli.main(["all", "--config", str(cfg)]) == 0
            originals = {n: (out / n).read_bytes() for n in self.STAGES}
            codes = []
            for case, name, damaged in self.mutations(originals):
                stages = self.STAGES[name]
                stage = stages[(case // 2) % len(stages)]
                (out / name).write_bytes(damaged)
                try:
                    rc = cli.main([stage, "--config", str(cfg)])
                except Exception as e:
                    escaped.append((df_filter, case, name, stage, damaged,
                                    repr(e)))
                else:
                    codes.append(rc)
                    if rc not in (0, 3):
                        escaped.append((df_filter, case, name, stage,
                                        damaged, rc))
                finally:
                    for n, data in originals.items():
                        (out / n).write_bytes(data)
                capsys.readouterr()
            assert {0, 3} <= set(codes), df_filter
        assert not escaped, escaped[:3]

    @staticmethod
    def content(name, got):
        """A reader's result with floats as their bits, comparable across
        the row oracles and the columnar readers."""
        if name == "labels.csv":
            return sorted((m, nid, [(t, s.hex()) for t, s in entries])
                          for m, per in got.items()
                          for nid, entries in per.items())
        return [(r.method, r.node_id, r.level, r.kind, r.precision.hex(),
                 r.recall.hex(), r.f.hex()) for r in got]

    @staticmethod
    def labels_row(path, line):
        """(the cells of the labels.csv row on physical ``line`` by column
        name, the number of rows of its method and node)."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [(reader.line_num, dict(zip(header, row)))
                    for row in reader if row]
        [row] = [r for n, r in rows if n == line]
        key = (row["method"], int(row["node_id"]))
        return row, sum(1 for _, r in rows
                        if (r["method"], int(r["node_id"])) == key)

    def test_columnar_readers_match_the_row_oracles(self, tmp_path):
        """On every mutation the columnar reader accepts what the row-wise
        oracle accepts, with equal content, and rejects what it rejects at
        the same line.  Beyond the oracle, it rejects a metrics.csv kind
        other than specific/generic, an integer beyond 64 bits, and a
        labels.csv method that is not a labeling method, score that is not
        positive and finite, rank outside 1..k, k the rows of its method
        and node, or term_surface other than the vocabulary's surface of
        its term_id."""
        cfg = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg)]) == 0
        originals = {n: (out / n).read_bytes() for n in self.STAGES}
        surfaces = tuple(f"term{i}" for i in range(9))
        readers = {
            "labels.csv": (oracles.read_labels_csv,
                           lambda p: oracles.label_dict(
                               cli.read_labels_csv(p, surfaces)[0])),
            "metrics.csv": (lambda p: oracles.read_metrics_csv(p).rows,
                            lambda p: oracles.observation_rows(
                                cli.read_metrics_csv(p)[0])),
        }
        outcomes = set()
        for case, name, damaged in self.mutations(originals):
            path = tmp_path / f"{case}-{name}"
            path.write_bytes(damaged)
            got = {}
            for side, read in zip(("oracle", "columns"), readers[name]):
                try:
                    got[side] = self.content(name, read(path))
                except cli.ParseError as e:
                    got[side] = e
            want, have = got["oracle"], got["columns"]
            where = (case, name, damaged)
            if isinstance(want, Exception):
                outcomes.add("rejected")
                assert isinstance(have, Exception), where
                line = rf"^{re.escape(str(path))}:(\d+): "
                assert re.match(line, str(have)).group(1) == \
                    re.match(line, str(want)).group(1), (where, have, want)
            elif isinstance(have, Exception):
                # the checks the columnar reader adds
                outcomes.add("rejected beyond the oracle")
                line = int(re.match(rf"^{re.escape(str(path))}:(\d+): ",
                                    str(have)).group(1))
                if "does not fit in 64 bits" in str(have):
                    assert re.search(rb"[0-9]{19}", damaged), (where, have)
                elif name == "labels.csv" and "(term_surface " in str(have):
                    row, _ = self.labels_row(path, line)
                    assert row["term_surface"] != \
                        surfaces[int(row["term_id"])], (where, have)
                elif name == "labels.csv" and "labeling method" in str(have):
                    row, _ = self.labels_row(path, line)
                    assert row["method"] not in lab.METHODS, (where, have)
                elif name == "labels.csv" and "score" in str(have):
                    row, _ = self.labels_row(path, line)
                    assert not 0 < float(row["score"]) < float("inf"), \
                        (where, have)
                elif name == "labels.csv" and "rank" in str(have):
                    row, k = self.labels_row(path, line)
                    assert not 1 <= int(row["rank"]) <= k, (where, have)
                else:
                    assert name == "metrics.csv" and "kind" in str(have), \
                        (where, have)
                    assert {row[3] for row in want} - set(cli.KINDS), where
            else:
                outcomes.add("accepted")
                assert have == want, where
        assert {"accepted", "rejected"} <= outcomes


class TestImports:

    @staticmethod
    def loaded(code):
        """The last stdout line of ``code`` run in a fresh interpreter."""
        src = str(Path(hierlabel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip().splitlines()[-1]

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, hierlabel.cli; print('scipy.stats' in sys.modules)"
        assert self.loaded(code) == "False"

    def test_no_stage_loads_scipy(self, tmp_path):
        """Every subcommand uses numpy alone: the chi-square methods, the
        studentized range of stats, and all of them in one `all` run.  The
        run also reaches both special functions, so a lazy scipy import in
        either would show."""
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg)]) == 0
        runs = [["validate"],
                ["label", "--methods", "PopesculUngar,RLUM", "--out",
                 str(tmp_path / "chi2")],
                ["label", "--methods", "MTWL_raw", "--out",
                 str(tmp_path / "mtwl")],
                ["evaluate"], ["stats"], ["coherence"],
                ["all", "--out", str(tmp_path / "all")]]
        code = ("import sys\nfrom hierlabel import cli, labeling, stats\n"
                f"for argv in {runs!r}:\n"
                f"    assert cli.main(argv[:1] + ['--config', {str(cfg)!r}]"
                " + argv[1:]) == 0, argv\n"
                "assert labeling._chi2_critical.cache_info().currsize\n"
                "assert stats._srq_cached.cache_info().currsize\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert self.loaded(code) == "[]"
