"""Seeded input generators for the pipeline benchmark.

Each workload writes ``matrix.txt``, ``vocab.tsv``, ``hier.json``, an
optional ``reference.txt`` and ``config.json`` into a directory and returns
the input descriptors (sizes taken from the generator, not the program):
``n_docs``, ``n_terms``, ``nnz``, ``n_nodes``, ``depth``, ``max_fanout``,
``sum_descendants`` (descendant nodes summed over all nodes), and the
reference corpus's ``ref_docs`` and ``ref_tokens``.

Both workloads use the generator style of the acceptance fixture: every
leaf owns a block of topic terms, each document draws 25 tokens from its
leaf's block and 12 from a shared tail of the vocabulary.  ``gen_smoke``
writes that fixture itself; it is not a workload, but the self-test checks
its bytes, which pins the generator code the workloads share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

N_DOCS, N_TERMS = 5000, 10000
TOPIC_DRAWS, TAIL_DRAWS = 25, 12

# the acceptance fixture's generator seed
SMOKE_RNG_SEED = 99

# sha256 of the files tests/test_acceptance.py::build_smoke_fixture writes
SMOKE_FIXTURE_SHA256 = {
    "config.json": "67bc3888cd70b17a7a13c3990ba806756d09653307c829374ca8890a4dd37eb7",
    "hier.json": "da1389f4ff219401c656ffee55f63c937a40421c030f49c908499b482704bd97",
    "matrix.txt": "de4a9ee41b552d9012ea88f6ebf5bc7933615e77e9eb0b78aed88eab70749177",
    "reference.txt": "88697c7b59fa89a6a4eb79b1b949f934af4d71eba741bf79f8f1a73a07212b12",
    "vocab.tsv": "8816f3bdc6d89c3aa62ff49228e0a68c61b4e62453e40a8c6501f497cabdd35b",
}


def _balanced_binary(n_nodes):
    nodes = []
    first_leaf = n_nodes // 2
    for i in range(n_nodes):
        parent = None if i == 0 else (i - 1) // 2
        children = [2 * i + 1, 2 * i + 2] if i < first_leaf else []
        nodes.append({"id": i, "parent": parent, "children": children})
    return nodes


def _comb(n_spine):
    """Spine nodes 0..n_spine-1, each with one leaf child and the next spine
    node; the last spine node has two leaf children."""
    nodes = []
    next_id = n_spine
    for s in range(n_spine):
        kids = [next_id]
        next_id += 1
        kids.append(s + 1 if s + 1 < n_spine else next_id)
        if s + 1 == n_spine:
            next_id += 1
        nodes.append({"id": s, "parent": None if s == 0 else s - 1,
                      "children": kids})
    for s in range(n_spine):
        for c in nodes[s]["children"]:
            if c >= n_spine:
                nodes.append({"id": c, "parent": s, "children": []})
    nodes.sort(key=lambda n: n["id"])
    return nodes


def _wide(fanout):
    """Root -> ``fanout`` internal nodes -> ``fanout`` leaves each."""
    nodes = [{"id": 0, "parent": None,
              "children": list(range(1, fanout + 1))}]
    next_id = fanout + 1
    for k in range(1, fanout + 1):
        kids = list(range(next_id, next_id + fanout))
        next_id += fanout
        nodes.append({"id": k, "parent": 0, "children": kids})
    for k in range(1, fanout + 1):
        for c in nodes[k]["children"]:
            nodes.append({"id": c, "parent": k, "children": []})
    return nodes


def _attach_docs(nodes):
    leaves = [n for n in nodes if not n["children"]]
    leaf_docs = np.array_split(np.arange(N_DOCS), len(leaves))
    for n in nodes:
        n["docs"] = []
    for n, docs in zip(leaves, leaf_docs):
        n["docs"] = [int(d) for d in docs]
    return leaf_docs


def _topic_matrix(rng, leaf_docs, block):
    leaf_of_doc = np.empty(N_DOCS, np.int64)
    for li, docs in enumerate(leaf_docs):
        leaf_of_doc[docs] = li
    topic = (leaf_of_doc[:, None] * block
             + rng.integers(0, block, (N_DOCS, TOPIC_DRAWS))).ravel()
    tail_start = len(leaf_docs) * block
    shared = rng.integers(tail_start, N_TERMS, (N_DOCS, TAIL_DRAWS)).ravel()
    rows = np.concatenate([np.repeat(np.arange(N_DOCS), TOPIC_DRAWS),
                           np.repeat(np.arange(N_DOCS), TAIL_DRAWS)])
    cols = np.concatenate([topic, shared])
    csr = sp.csr_matrix((np.ones(cols.size, np.int64), (rows, cols)),
                        shape=(N_DOCS, N_TERMS))
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _write_matrix(path, csr):
    coo = csr.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{N_DOCS} {N_TERMS}"]
    lines.extend(f"{coo.row[i]} {coo.col[i]} {coo.data[i]}" for i in order)
    path.write_text("\n".join(lines) + "\n")


def _doc_terms(csr, d):
    return csr.indices[csr.indptr[d]:csr.indptr[d + 1]]


def _write_reference(path, docs):
    path.write_text("\n".join(" ".join(f"term{t}" for t in terms)
                              for terms in docs) + "\n")


def _descriptors(nodes, csr, ref_docs):
    depth, n_desc = {}, {}
    for n in nodes:                         # parents precede children by id
        depth[n["id"]] = 0 if n["parent"] is None else depth[n["parent"]] + 1
    for n in sorted(nodes, key=lambda n: -depth[n["id"]]):
        n_desc[n["id"]] = sum(1 + n_desc[c] for c in n["children"])
    return {
        "n_docs": N_DOCS, "n_terms": N_TERMS, "nnz": int(csr.nnz),
        "n_nodes": len(nodes), "depth": max(depth.values()),
        "max_fanout": max(len(n["children"]) for n in nodes),
        "sum_descendants": sum(n_desc.values()),
        "ref_docs": len(ref_docs) if ref_docs is not None else 0,
        "ref_tokens": (sum(len(d) for d in ref_docs)
                       if ref_docs is not None else 0),
    }


def _write_inputs(root, nodes, csr, ref_docs):
    root.mkdir(parents=True, exist_ok=True)
    (root / "hier.json").write_text(json.dumps({"nodes": nodes}))
    _write_matrix(root / "matrix.txt", csr)
    (root / "vocab.tsv").write_text(
        "".join(f"{i}\tterm{i}\n" for i in range(N_TERMS)))
    # key order of the acceptance fixture's config
    cfg = {"matrix": "matrix.txt", "vocabulary": "vocab.tsv",
           "hierarchy": "hier.json"}
    if ref_docs is not None:
        _write_reference(root / "reference.txt", ref_docs)
        cfg["reference_corpus"] = "reference.txt"
    cfg["out_dir"] = "out"
    (root / "config.json").write_text(json.dumps(cfg))
    return _descriptors(nodes, csr, ref_docs)


def gen_smoke(root: Path) -> dict:
    """The acceptance fixture, byte for byte: 1,023-node balanced binary
    tree, reference corpus = the collection itself."""
    rng = np.random.default_rng(SMOKE_RNG_SEED)
    nodes = _balanced_binary(1023)
    leaf_docs = _attach_docs(nodes)
    csr = _topic_matrix(rng, leaf_docs, 18)
    ref = [_doc_terms(csr, d) for d in range(N_DOCS)]
    return _write_inputs(root, nodes, csr, ref)


def gen_deep_comb(root: Path, variant: int) -> dict:
    """Comb of 80 spine nodes (161 nodes, depth 80), no reference corpus."""
    rng = np.random.default_rng([variant, 1])
    nodes = _comb(80)
    leaf_docs = _attach_docs(nodes)
    csr = _topic_matrix(rng, leaf_docs, 18)
    return _write_inputs(root, nodes, csr, None)


def gen_wide_staged(root: Path, variant: int) -> dict:
    """Root -> 24 -> 24 leaves (601 nodes, depth 2), 16-term topic blocks;
    the reference corpus has 20,000 docs, each the union of two collection
    docs' terms."""
    rng = np.random.default_rng([variant, 2])
    nodes = _wide(24)
    leaf_docs = _attach_docs(nodes)
    csr = _topic_matrix(rng, leaf_docs, 16)
    pairs = rng.integers(0, N_DOCS, (4 * N_DOCS, 2))
    ref = [np.union1d(_doc_terms(csr, a), _doc_terms(csr, b))
           for a, b in pairs]
    return _write_inputs(root, nodes, csr, ref)


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, int], dict]
    commands: tuple          # CLI argument lists, run in order
    variants: int            # distinct inputs; --seed picks seed % variants


STAGES = ("validate", "label", "evaluate", "stats", "coherence")

WORKLOADS = {
    "deep-comb": Workload(gen_deep_comb, (("all", "--threads", "1"),), 8),
    "wide-staged": Workload(gen_wide_staged, tuple((s,) for s in STAGES), 8),
}


def variant(name: str, seed: int) -> int:
    return seed % WORKLOADS[name].variants
