"""End-to-end CLI runs on a small fixture: file outputs, determinism,
stage independence, overrides, and exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierlabel
from hierlabel import cli
from hierlabel import coherence as coh
from hierlabel import labeling as lab


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

    def test_manifest_checksums(self, tmp_path):
        import hashlib
        cfg = write_fixture(tmp_path / "fx")
        cli.main(["all", "--config", str(cfg)])
        manifest = json.loads(
            (tmp_path / "fx" / "out" / "run_manifest.json").read_text())
        for name in ("matrix", "vocabulary", "hierarchy"):
            entry = manifest["inputs"][name]
            digest = hashlib.sha256(
                open(entry["path"], "rb").read()).hexdigest()
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
        elif damage == "long":
            rows[1] += ",x"
        elif damage == "short":
            rows[1] = rows[1].rsplit(",", 1)[0]
        elif damage == "repeat":
            rows.insert(2, rows[1])
        else:
            rows = (out / "metrics.csv").read_text().splitlines()
        path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:{line}:" in err, err

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
        assert f"{path}: term 1 " in err, err

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

    @pytest.mark.parametrize("name,code", [
        ("matrix.txt", 3), ("vocab.tsv", 3), ("hier.json", 3),
        ("reference.txt", 3), ("config.json", 2),
    ])
    def test_non_utf8_input(self, tmp_path, capsys, name, code):
        cfg = write_fixture(tmp_path / "fx")
        path = tmp_path / "fx" / name
        data = path.read_bytes()
        cut = data.find(b"\n") + 1 or 1      # start of line 2, else line 1
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        assert cli.main(["validate", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        line = 2 if b"\n" in data[:cut] else 1
        where = str(path) if code == 2 else f"{path}:{line}:"
        assert where in err and "UTF-8" in err, err

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
        # in-memory labels carry working term ids; the reports must show
        # the same original ids as a run that re-reads labels.csv
        cfg_path = write_fixture(tmp_path / "fx")
        blob = json.loads(cfg_path.read_text())
        blob["df_filter"] = {"low": 0.1, "high": 0.45}
        cfg_path.write_text(json.dumps(blob))
        cfg = cli.load_config(cfg_path, {})
        assert 0 < cli.load_inputs(cfg).matrix.n_terms < 9
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


class TestAtomicReports:

    def test_failure_mid_write_leaves_no_torn_report(self, tmp_path,
                                                     monkeypatch):
        cfg_path = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg_path)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        seen = []
        real = cli.qe.prefix_renderer

        def failing_renderer():
            render = real()

            def wrapped(query):
                if len(seen) == 5:
                    # what a reader of queries.txt finds mid-write
                    seen.append((out / "queries.txt").read_bytes())
                    raise OSError("device full")
                seen.append(None)
                return render(query)
            return wrapped
        monkeypatch.setattr(cli.qe, "prefix_renderer", failing_renderer)
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
        got = cli.read_labels_csv(path)
        assert got == {"RLUM": {
            0: [(10, 0.5), (12, float("0.166667")), (14, 0.1)],
            1: [(11, 0.25), (13, 0.125), (15, float("0.0833333"))],
        }}
        # a bad row after the multi-line cells names its physical line
        lines = path.read_bytes().count(b"\n")
        with open(path, "a", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(["RLUM", "x", 1, 1, "s", "0.1"])
        with pytest.raises(cli.ParseError, match=f":{lines + 1}: "):
            cli.read_labels_csv(path)


class TestReportMutationFuzz:
    """Damaged labels.csv and metrics.csv files end in exit 0 or 3, never
    in a traceback."""

    STAGES = {"labels.csv": ("evaluate", "coherence"),
              "metrics.csv": ("stats",)}

    def test_exit_codes(self, tmp_path, capsys):
        cfg = write_fixture(tmp_path / "fx")
        out = tmp_path / "fx" / "out"
        assert cli.main(["all", "--config", str(cfg)]) == 0
        originals = {n: (out / n).read_bytes() for n in self.STAGES}
        rng = np.random.default_rng(4049)
        escaped, codes = [], []
        for case in range(120):
            name = ("labels.csv", "metrics.csv")[case % 2]
            stages = self.STAGES[name]
            stage = stages[(case // 2) % len(stages)]
            damaged = TestMutationFuzz.mutate(rng, originals[name])
            (out / name).write_bytes(damaged)
            try:
                rc = cli.main([stage, "--config", str(cfg)])
            except Exception as e:
                escaped.append((case, name, stage, damaged, repr(e)))
            else:
                codes.append(rc)
                if rc not in (0, 3):
                    escaped.append((case, name, stage, damaged, rc))
            finally:
                for n, data in originals.items():
                    (out / n).write_bytes(data)
            capsys.readouterr()
        assert not escaped, escaped[:3]
        assert {0, 3} <= set(codes)


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

    def test_stages_without_special_functions_load_no_scipy(self, tmp_path):
        """validate, evaluate, coherence and a label run without the
        chi-square methods use numpy alone; no run loads scipy.sparse."""
        cfg = write_fixture(tmp_path / "fx")
        assert cli.main(["all", "--config", str(cfg)]) == 0
        runs = [["validate"], ["evaluate"], ["coherence"],
                ["label", "--methods", "MTWL_raw", "--out",
                 str(tmp_path / "mtwl")]]
        code = ("import sys\nfrom hierlabel import cli\n"
                f"for argv in {runs!r}:\n"
                f"    assert cli.main(argv[:1] + ['--config', {str(cfg)!r}]"
                " + argv[1:]) == 0, argv\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert self.loaded(code) == "[]"
        code = ("import sys\nfrom hierlabel import cli\n"
                f"assert cli.main(['all', '--config', {str(cfg)!r}, '--out',"
                f" {str(tmp_path / 'all')!r}]) == 0\n"
                "print('scipy.sparse' in sys.modules)")
        assert self.loaded(code) == "False"
