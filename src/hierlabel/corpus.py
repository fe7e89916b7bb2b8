"""Document-term matrix, cluster hierarchy, and per-node term statistics.

File formats:
  matrix      plain text, first line "n_docs n_terms", then one
              "doc term count" triplet per line in any order
  vocabulary  one "term_id<TAB>surface" line per term
  hierarchy   JSON {"nodes": [{"id", "parent", "children", "docs"}]}

All ids are 0-based.  Documents may be attached to leaves only; node
levels are always recomputed from the parent links, never read from the
file.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Vocabulary:
    """Ordered term id -> surface mapping with contiguous ids 0..m-1."""

    surfaces: tuple

    def __post_init__(self):
        seen = set()
        for i, s in enumerate(self.surfaces):
            if not s:
                raise ValidationError(f"vocabulary: empty surface at term {i}")
            if s in seen:
                raise ValidationError(f"vocabulary: duplicate surface {s!r}")
            seen.add(s)

    def __len__(self):
        return len(self.surfaces)


@dataclass(frozen=True)
class CSR:
    """Compressed sparse rows: row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, and their values at the
    same positions of ``data``.  Only the node statistics' tables that
    share freq's pattern store zeros (``NodeTermStats``)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def from_sorted(cls, rows, cols, vals, shape) -> "CSR":
        """The record of cells given in (row, column) order, each once."""
        indptr = np.zeros(shape[0] + 1, np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols, vals, shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_ids(self) -> np.ndarray:
        """The row of every stored cell."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def row(self, i: int):
        """Row i's columns and values (views)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def dense_row(self, i: int) -> np.ndarray:
        out = np.zeros(self.shape[1], self.data.dtype)
        idx, vals = self.row(i)
        out[idx] = vals
        return out


class CellError(ValidationError):
    """A matrix cell that breaks an invariant; ``row`` is its position
    among the cells as given."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = int(row)


class DocTermMatrix:
    """Sparse nonnegative term counts per document (CSR, int64).

    Retrieval only cares about presence (count > 0); stored cells are
    therefore required to be strictly positive.
    """

    def __init__(self, n_docs: int, n_terms: int, csr: CSR):
        if csr.shape != (n_docs, n_terms):
            raise ValidationError("matrix shape mismatch")
        self.n_docs = n_docs
        self.n_terms = n_terms
        self.csr = csr
        self._presence_csc = None

    @classmethod
    def from_cells(cls, n_docs, n_terms, docs, terms, counts) -> "DocTermMatrix":
        """The matrix of the given cells.  Each check in turn raises a
        ``CellError`` at the first cell that fails it; of two equal
        (doc, term) cells, the later one fails."""
        docs = np.asarray(docs, np.int64)
        terms = np.asarray(terms, np.int64)
        counts = np.asarray(counts, np.int64)
        if docs.size:
            if docs.min() < 0 or docs.max() >= n_docs:
                row = np.argmax((docs < 0) | (docs >= n_docs))
                raise CellError(f"doc-id out of range: {docs[row]}", row)
            if terms.min() < 0 or terms.max() >= n_terms:
                row = np.argmax((terms < 0) | (terms >= n_terms))
                raise CellError(f"term-id out of range: {terms[row]}", row)
            if counts.min() <= 0:
                raise CellError("zero or negative count in matrix cell",
                                np.argmax(counts <= 0))
            key = docs * n_terms + terms
            # files written by save_matrix are already in (doc, term) order
            if not (key[1:] > key[:-1]).all():
                order = np.argsort(key, kind="stable")
                key, docs, terms, counts = (key[order], docs[order],
                                            terms[order], counts[order])
                repeat = key[1:] == key[:-1]
                if repeat.any():
                    # the stable sort keeps a repeat after the cell it repeats
                    raise CellError("duplicate (doc, term) cell",
                                    order[1:][repeat].min())
        return cls(n_docs, n_terms,
                   CSR.from_sorted(docs, terms, counts, (n_docs, n_terms)))

    @property
    def presence_csc(self) -> CSR:
        """Presence by term (the transpose's rows), for per-term document
        lists: a stable sort by term keeps each term's documents
        ascending."""
        if self._presence_csc is None:
            c = self.csr
            order = np.argsort(c.indices, kind="stable")
            self._presence_csc = CSR.from_sorted(
                c.indices[order], c.row_ids()[order], np.ones(c.nnz, np.int64),
                (self.n_terms, self.n_docs))
        return self._presence_csc

    def term_doc_freq(self) -> np.ndarray:
        """Document frequency of every term (dense, int64)."""
        return np.bincount(self.csr.indices, minlength=self.n_terms)


_INT64_END = 1 << 63

# The node statistics and the labeling methods hold counts and their sums
# as float64, which are exact only below 2^53; a matrix's whole mass must
# stay below it.
MASS_END = 1 << 53


def _fits_int64(value: int) -> bool:
    return -_INT64_END <= value < _INT64_END


def _mass_reaches(counts, end: int) -> bool:
    """Whether positive int64 counts sum to ``end`` (at most 2^62) or more,
    without overflow: with every count below ``end``, the first prefix sum
    that reaches it is below 2 * end, so it is exact."""
    if counts.size == 0:
        return False
    if counts.max() >= end:
        return True
    return bool((np.cumsum(counts) >= end).any())


def utf8_fault(path, splitlines: bool = False) -> tuple:
    """(the line of the file's first byte that is not UTF-8, the ParseError
    that names it), or (math.inf, a ParseError naming no line) when the
    whole file decodes.  Lines end at "\n", "\r" and "\r\n", as the
    readers with universal newlines and csv.reader end them; with
    ``splitlines`` also at every other break of ``str.splitlines``, as the
    matrix parser ends them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8")
        line = (len((head + ".").splitlines()) if splitlines else
                head.count("\n") + head.count("\r") - head.count("\r\n") + 1)
        return line, ParseError(f"{path}:{line}: not UTF-8 text ({e.reason})")
    return math.inf, ParseError(f"{path}: not UTF-8 text")


# str.splitlines breaks lines at these too, but np.loadtxt reads them as
# blanks inside a line
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


def _bulk_cells(body: str):
    """The (doc, term, count) columns of an ASCII triplet body whose only
    line break is "\n", parsed in one ``np.loadtxt`` call; None when that
    parse fails or the rows are not three fields wide, so that the line
    loop decides."""
    if not body.strip():
        return np.empty((3, 0), np.int64)
    try:
        cells = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None,
                           ndmin=2)
    except ValueError:
        return None
    return cells.T if cells.shape[1] == 3 else None


def load_matrix(path, max_docs: int | None = None) -> DocTermMatrix:
    """Parse the documented triplet format, validating as it goes.

    ``max_docs`` bounds the header's document count (the number of
    document ids the hierarchy lists); it is checked before anything of
    that size is allocated.  The triplets are parsed in bulk when the text
    is ASCII and breaks lines only at "\n" (numpy misreads some non-ASCII
    characters as digits); otherwise, and whenever the bulk parse fails,
    a loop over the lines parses them and names the first bad line.  Either
    way, a cell that ``DocTermMatrix.from_cells`` rejects is named by its
    line.  A matrix whose counts sum to 2^53 or more is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise utf8_fault(path, splitlines=True)[1] from None
    if not text:
        raise ParseError(f"{path}:1: missing header line")
    bulk = text.isascii() and not any(c in text for c in _OTHER_LINE_BREAKS)
    if bulk:
        lines = None
        head, _, body = text.partition("\n")
    else:
        lines = text.splitlines()
        head = lines[0]
    head = head.split()
    if len(head) != 2:
        raise ParseError(f"{path}:1: header must be 'n_docs n_terms'")
    try:
        n_docs, n_terms = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"{path}:1: non-integer header") from None
    if n_docs < 0 or n_terms < 0:
        raise ParseError(f"{path}:1: negative dimension")
    if n_docs * n_terms >= _INT64_END:
        raise ParseError(f"{path}:1: more cells than 64-bit ids can number")
    if max_docs is not None and n_docs > max_docs:
        raise ParseError(f"{path}:1: header declares {n_docs} documents, but "
                         f"the hierarchy lists only {max_docs} document ids")
    cells = _bulk_cells(body) if bulk else None
    if cells is None:
        matrix = _matrix_from_lines(path, lines or text.splitlines(),
                                    n_docs, n_terms)
    else:
        try:
            matrix = DocTermMatrix.from_cells(n_docs, n_terms, *cells)
        except CellError as e:
            # np.loadtxt skips the blank and whitespace-only lines
            at = [ln for ln, line in enumerate(body.split("\n"), start=2)
                  if line.strip()]
            raise ValidationError(f"{path}:{at[e.row]}: {e}") from None
    if _mass_reaches(matrix.csr.data, MASS_END):
        raise ValidationError(f"{path}: the counts sum to 2^53 or more, "
                              f"beyond exact float64 sums")
    return matrix


def _matrix_from_lines(path, lines, n_docs, n_terms) -> DocTermMatrix:
    docs, terms, counts, at = [], [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 'doc term count'")
        try:
            d, t, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{ln}: non-integer field") from None
        docs.append(d)
        terms.append(t)
        counts.append(c)
        at.append(ln)
    try:
        return DocTermMatrix.from_cells(n_docs, n_terms, docs, terms, counts)
    except CellError as e:
        raise ValidationError(f"{path}:{at[e.row]}: {e}") from None
    except OverflowError:
        ln = next(ln for ln, line in enumerate(lines[1:], start=2)
                  if not all(_fits_int64(int(x)) for x in line.split()))
        raise ParseError(f"{path}:{ln}: value does not fit in 64 bits") \
            from None


def save_matrix(matrix: DocTermMatrix, path) -> None:
    """Deterministic writer: cells in (doc, term) order, the record's own."""
    c = matrix.csr
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.n_docs} {matrix.n_terms}\n")
        for d, t, v in zip(c.row_ids().tolist(), c.indices.tolist(),
                           c.data.tolist()):
            fh.write(f"{d} {t} {v}\n")


def load_vocabulary(path) -> Vocabulary:
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError(
                        f"{path}:{ln}: expected 'term_id<TAB>surface'")
                try:
                    tid = int(parts[0])
                except ValueError:
                    raise ParseError(
                        f"{path}:{ln}: non-integer term id") from None
                if tid in entries:
                    raise ValidationError(
                        f"{path}:{ln}: duplicate term id {tid}")
                entries[tid] = parts[1]
    except UnicodeDecodeError:
        raise utf8_fault(path)[1] from None
    if sorted(entries) != list(range(len(entries))):
        raise ValidationError(f"{path}: term ids are not contiguous 0..m-1")
    try:
        return Vocabulary(tuple(entries[i] for i in range(len(entries))))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(vocab.surfaces):
            fh.write(f"{i}\t{s}\n")


@dataclass
class Hierarchy:
    """Validated cluster tree over the documents of one matrix.

    ``ids`` holds the external node ids in deterministic (sorted) order;
    all array fields are indexed by internal position.  ``docsets`` are
    sorted arrays of doc ids, inclusive of all descendant leaves.
    """

    ids: np.ndarray
    parent: np.ndarray            # internal index of parent; root points to itself
    children: list                # list of int arrays (internal indices)
    leaf_docs: list               # list of int arrays, empty for internal nodes
    level: np.ndarray
    root: int
    # node indices in pre-order (a stack seeded with the root, children
    # pushed in declared order), the one order every walk of the tree
    # takes: top-down as it is, bottom-up reversed; node i's subtree is a
    # run of it, i first
    preorder: np.ndarray
    docsets: list

    @property
    def n_nodes(self):
        return len(self.ids)


def _build_hierarchy(records, n_docs) -> Hierarchy:
    ids = sorted(r["id"] for r in records)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate node id in hierarchy")
    pos = {nid: k for k, nid in enumerate(ids)}
    n = len(ids)
    parent = np.full(n, -1, np.int64)
    children = [None] * n
    leaf_docs = [None] * n
    declared_children = [None] * n

    roots = []
    for r in records:
        k = pos[r["id"]]
        p = r.get("parent")
        if p is None:
            roots.append(k)
            parent[k] = k
        else:
            if p not in pos:
                raise ValidationError(
                    f"orphan node {r['id']}: unknown parent {p}"
                )
            if p == r["id"]:
                raise ValidationError(f"cycle: node {r['id']} is its own parent")
            parent[k] = pos[p]
        declared_children[k] = [pos.get(c, -1) for c in r.get("children", [])]
        if any(c < 0 for c in declared_children[k]):
            raise ValidationError(f"node {r['id']} lists unknown child")
        leaf_docs[k] = np.asarray(sorted(r.get("docs", [])), np.int64)

    if len(roots) == 0:
        raise ValidationError("hierarchy has no root")
    if len(roots) > 1:
        raise ValidationError(
            "multiple roots: " + ", ".join(str(ids[r]) for r in roots)
        )
    root = roots[0]

    # parent fields are the source of truth; declared children must agree
    derived = [[] for _ in range(n)]
    for k in range(n):
        if k != root:
            derived[int(parent[k])].append(k)
    for k in range(n):
        if sorted(declared_children[k]) != sorted(derived[k]):
            raise ValidationError(
                f"node {ids[k]}: children list disagrees with parent links"
            )
        children[k] = np.asarray(declared_children[k], np.int64)

    # pre-order walk from the root; levels follow the parent links, and
    # unreached nodes sit on a cycle
    level = np.full(n, -1, np.int64)
    level[root] = 0
    preorder = []
    stack = [root]
    while stack:
        u = stack.pop()
        preorder.append(u)
        for c in children[u]:
            level[c] = level[u] + 1
            stack.append(int(c))
    if (level < 0).any():
        bad = ids[int(np.flatnonzero(level < 0)[0])]
        raise ValidationError(f"cycle: node {bad} is unreachable from the root")
    preorder = np.asarray(preorder, np.int64)

    seen_docs = np.zeros(n_docs, np.int64)
    for k in range(n):
        if not children[k].size:
            if leaf_docs[k].size == 0:
                raise ValidationError(f"empty leaf: node {ids[k]}")
            if leaf_docs[k].min() < 0 or leaf_docs[k].max() >= n_docs:
                raise ValidationError(f"node {ids[k]}: doc-id out of range")
            seen_docs[leaf_docs[k]] += 1
        elif leaf_docs[k].size:
            raise ValidationError(
                f"node {ids[k]}: documents attached to an internal node"
            )
    if (seen_docs > 1).any():
        d = int(np.flatnonzero(seen_docs > 1)[0])
        raise ValidationError(f"doc {d} assigned to two leaves")
    if (seen_docs == 0).any():
        d = int(np.flatnonzero(seen_docs == 0)[0])
        raise ValidationError(f"doc {d} not assigned to any leaf")

    # docsets bottom-up: union of descendant leaf docs
    docsets = list(leaf_docs)
    for k in preorder[::-1].tolist():
        if children[k].size:
            docsets[k] = np.sort(np.concatenate(
                [docsets[c] for c in children[k]]))
    return Hierarchy(
        ids=np.asarray(ids, np.int64), parent=parent, children=children,
        leaf_docs=leaf_docs, level=level, root=root, preorder=preorder,
        docsets=docsets,
    )


def load_hierarchy(path, matrix: DocTermMatrix, records=None) -> Hierarchy:
    """The validated tree of a hierarchy file over ``matrix``'s documents.
    ``records`` are the file's node records when the caller has read them
    already (``read_hierarchy``)."""
    if records is None:
        records = read_hierarchy(path)
    try:
        return _build_hierarchy(records, matrix.n_docs)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def read_hierarchy(path) -> list:
    """The node records of a hierarchy file, each one type-checked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from None
        except UnicodeDecodeError:
            raise utf8_fault(path)[1] from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply to parse") \
                from None
    if not isinstance(blob, dict) or not isinstance(blob.get("nodes"), list):
        raise ParseError(f"{path}: expected an object with a 'nodes' list")
    for k, record in enumerate(blob["nodes"]):
        problem = _record_problem(record)
        if problem:
            raise ParseError(f"{path}: nodes[{k}]: {problem}")
    return blob["nodes"]


def listed_docs(records) -> int:
    """How many document ids the node records list, repeats included: a
    bound on the document count of any matrix they can cover."""
    return sum(len(r.get("docs", [])) for r in records)


def _is_int(value) -> bool:
    """A JSON integer that the hierarchy's int64 arrays can hold."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and _fits_int64(value))


def _record_problem(record) -> str | None:
    """What is wrong with the types of one hierarchy node record, if
    anything: ``id`` an integer, ``parent`` an integer or null,
    ``children`` and ``docs`` lists of integers when present; every integer
    fits in 64 bits."""
    if not isinstance(record, dict):
        return f"expected a node object, got {record!r}"
    if "id" not in record:
        return "missing 'id'"
    if not _is_int(record["id"]):
        return f"'id' must be a 64-bit integer, got {record['id']!r}"
    parent = record.get("parent")
    if parent is not None and not _is_int(parent):
        return f"'parent' must be a 64-bit integer or null, got {parent!r}"
    for key in ("children", "docs"):
        value = record.get(key, [])
        if not isinstance(value, list):
            return f"'{key}' must be a list of 64-bit integers, got {value!r}"
        bad = [v for v in value if not _is_int(v)]
        if bad:
            return f"'{key}' must hold 64-bit integers only, got {bad[0]!r}"
    return None


def save_hierarchy(hierarchy: Hierarchy, path) -> None:
    """Deterministic writer: nodes sorted by id, canonical key order."""
    nodes = []
    for k in range(hierarchy.n_nodes):
        pid = (None if k == hierarchy.root
               else int(hierarchy.ids[int(hierarchy.parent[k])]))
        nodes.append({
            "id": int(hierarchy.ids[k]),
            "parent": pid,
            "children": sorted(int(hierarchy.ids[int(c)]) for c in hierarchy.children[k]),
            "docs": [int(d) for d in hierarchy.leaf_docs[k]],
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"nodes": nodes}, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def salton_df_filter(matrix: DocTermMatrix, low: float, high: float):
    """Drop terms whose document frequency falls outside the Salton band.

    Bounds are the fractions rounded to the nearest document count (half
    away from zero), inclusive on both ends; e.g. 328 docs with
    (0.01, 0.10) keeps terms with 3 <= df <= 33.  Returns the reduced
    matrix and an old-id -> new-id array (-1 for dropped terms).
    """
    if not (0 <= low < high <= 1):
        raise ValidationError("df filter requires 0 <= low < high <= 1")
    df = matrix.term_doc_freq()
    lo = math.floor(low * matrix.n_docs + 0.5)
    hi = math.floor(high * matrix.n_docs + 0.5)
    keep = np.flatnonzero((df >= lo) & (df <= hi))
    if keep.size == 0:
        raise ValidationError("empty vocabulary after filter")
    remap = np.full(matrix.n_terms, -1, np.int64)
    remap[keep] = np.arange(keep.size)
    c = matrix.csr
    kept = remap[c.indices] >= 0
    # remap is increasing on the kept terms, so every row stays sorted
    sub = CSR.from_sorted(c.row_ids()[kept], remap[c.indices[kept]],
                          c.data[kept], (matrix.n_docs, keep.size))
    return DocTermMatrix(matrix.n_docs, keep.size, sub), remap


class NodeTermStats:
    """Everything the labeling methods consume, precomputed in one pass.

    freq[i, k]       cumulated count of term k in node i's subtree
    docfreq[i, k]    docs in node i's subtree containing term k
    child_support[i, k]  direct children of i whose subtree contains k
    node_total[i]    sum of freq row i
    node_size[i]     number of docs in node i's subtree

    The tables are CSR records on one pattern: they share ``indptr`` and
    ``indices`` (freq's cells, term ids as int32), and each holds only its
    own ``data``.  child_support and ``hier_base()`` store 0 on the leaves'
    cells.  Documents sit on leaves only, so the leaves' rows come from one
    sort of the matrix cells by (leaf, term).  The build makes two passes
    bottom-up: the first unites the children's terms into each internal
    row's pattern, the second adds the children's rows into one dense row
    per table and gathers it into the table's data on the parent's row.
    The sums are of integers, so their order does not matter.

    ``hier_base()`` sums floats, so it keeps the sparse products' order:
    one more bottom-up pass adds each node's children in ascending index
    order, depth by depth, and its depth rows d = 1, 2, ... in turn.  It
    holds the dense depth rows of the nodes waiting for their parent,
    not a dense row per internal node.
    """

    def __init__(self, matrix: DocTermMatrix, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        n, m = hierarchy.n_nodes, matrix.n_terms
        self.n_docs = matrix.n_docs
        self.n_terms = m
        self.n_nodes = n
        self.node_size = np.asarray(
            [len(hierarchy.docsets[i]) for i in range(n)], np.int64
        )
        self.child_count = np.asarray(
            [len(hierarchy.children[i]) for i in range(n)], np.int64
        )

        # leaf rows: the cells grouped by (leaf, term)
        leaf_of = np.empty(matrix.n_docs, np.int64)
        leaf_of[np.concatenate(hierarchy.leaf_docs)] = np.repeat(
            np.arange(n), [d.size for d in hierarchy.leaf_docs])
        c = matrix.csr
        key = leaf_of[c.row_ids()] * m + c.indices
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.flatnonzero(np.diff(key, prepend=-1))
        leaf_node, leaf_term = np.divmod(key[start], max(m, 1))
        leaf_freq = (np.add.reduceat(c.data[order], start) if start.size
                     else np.empty(0, np.int64))
        leaf_df = np.diff(np.append(start, key.size))
        ptr = np.searchsorted(leaf_node, np.arange(n + 1))
        running = np.concatenate([[0], np.cumsum(leaf_freq)])
        self.node_total = running[ptr[1:]] - running[ptr[:-1]]
        ptr = ptr.tolist()
        # term ids as int32, unless the vocabulary outgrows them
        leaf_term = leaf_term.astype(
            np.int32 if m <= np.iinfo(np.int32).max else np.int64)
        del key, order, start, leaf_node, running

        # the pattern: a leaf's row holds its cells' terms, an internal
        # node's the union of its children's, children before parents
        rows = [leaf_term[ptr[i]:ptr[i + 1]] for i in range(n)]
        mark = np.zeros(m, bool)
        for i in hierarchy.preorder[::-1]:
            if hierarchy.children[i].size:
                for ch in hierarchy.children[i]:
                    mark[rows[ch]] = True
                rows[i] = np.flatnonzero(mark).astype(leaf_term.dtype)
                mark[rows[i]] = False
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        indices = np.concatenate(rows)
        del rows, leaf_term

        # the data, filled in place: the leaves' cells come in node and
        # term order, and each internal row adds its children's rows into
        # dense rows, children before parents; a child adds 1 to the
        # support of each of its terms, so a leaf's support stays 0
        leaf_cells = np.repeat(self.child_count == 0, np.diff(indptr))
        freq, docfreq, support = (np.zeros(indices.size, np.int64)
                                  for _ in range(3))
        freq[leaf_cells], docfreq[leaf_cells] = leaf_freq, leaf_df
        del leaf_cells, leaf_freq, leaf_df
        bounds = indptr.tolist()
        f_acc, df_acc, support_acc = (np.zeros(m, np.int64) for _ in range(3))
        for i in hierarchy.preorder[::-1]:
            if not hierarchy.children[i].size:
                continue
            for ch in hierarchy.children[i]:
                lo, hi = bounds[ch], bounds[ch + 1]
                idx = indices[lo:hi].astype(np.intp)
                f_acc[idx] += freq[lo:hi]
                df_acc[idx] += docfreq[lo:hi]
                support_acc[idx] += 1
            lo, hi = bounds[i], bounds[i + 1]
            idx = indices[lo:hi].astype(np.intp)
            freq[lo:hi], docfreq[lo:hi] = f_acc[idx], df_acc[idx]
            support[lo:hi] = support_acc[idx]
            f_acc[idx] = df_acc[idx] = support_acc[idx] = 0
            self.node_total[i] = self.node_total[hierarchy.children[i]].sum()
        self.freq = CSR(indptr, indices, freq, (n, m))
        self.docfreq = CSR(indptr, indices, docfreq, (n, m))
        self.child_support = CSR(indptr, indices, support, (n, m))

        self.global_freq = self.freq.dense_row(hierarchy.root)
        self.global_df = self.docfreq.dense_row(hierarchy.root)
        self._level_freq = {}
        self._hier_base = None
        # (node, alpha, chi2_shape) -> the labeling's per-term verdict that
        # the node's children are independent, filled on first use
        self.independence = {}

    def level_freq(self, lvl: int) -> np.ndarray:
        """Summed term counts over every node at a given level (dense)."""
        if lvl not in self._level_freq:
            cells = np.repeat(self.hierarchy.level == lvl,
                              np.diff(self.freq.indptr))
            out = np.zeros(self.n_terms, np.int64)
            np.add.at(out, self.freq.indices[cells], self.freq.data[cells])
            self._level_freq[lvl] = out
        return self._level_freq[lvl]

    def hier_base(self) -> CSR:
        """The path-discounted descendant sums that the four Hier frequency
        methods share, built on first use: with U[g] = sibling_cf(g) *
        freq[g], row i holds S[i] = sum_d (C^d U)[i] / d, C the child
        incidence.  The root counts as its own parent.

        One pass bottom-up gives each internal node i its dense depth rows
        (C^1 U)[i], (C^2 U)[i], ..., in the order the sparse matrix
        products add them: depth 1 adds i's children's U rows, depth d > 1
        their depth d - 1 rows, each in ascending child index order into
        a zero row; a depth with one such child takes that child's row
        itself (0.0 + row is the row, so a comb shares one row per depth
        along its spine).  S[i] adds row_d * (1 / d) for d ascending into
        a zero row.  The cells a sparse sum leaves out add +0.0 to values
        >= 0, so every stored value is the sparse sum, bit for bit.  A
        node's rows are dropped once its parent has read them, so the pass
        holds the depth rows of the nodes waiting for their parent, never
        an (internal nodes x terms) array.  The record holds S on freq's
        pattern, 0 on the leaves' rows."""
        if self._hier_base is None:
            h = self.hierarchy
            m = self.n_terms
            indptr, indices = self.freq.indptr.tolist(), self.freq.indices
            data = np.zeros(self.freq.nnz)
            depth_rows = {}     # i -> [(C^d U)[i] for d = 1, 2, ...]
            scaled = np.empty(m)
            for i in h.preorder[::-1].tolist():
                kids = np.sort(h.children[i]).tolist()
                if not kids:
                    continue
                cf = (self.child_support.dense_row(i).astype(np.float64)
                      / len(kids))
                rows = [np.zeros(m)]
                for idx, f in map(self.freq.row, kids):
                    rows[0][idx] += cf[idx] * f.astype(np.float64)
                below = [depth_rows.pop(g) for g in kids if g in depth_rows]
                for d in range(max(map(len, below), default=0)):
                    parts = [b[d] for b in below if len(b) > d]
                    if len(parts) == 1:
                        rows.append(parts[0])
                        continue
                    row = parts[0] + parts[1]   # 0.0 + parts[0] is parts[0]
                    for part in parts[2:]:
                        row += part
                    rows.append(row)
                total = rows[0].copy()          # 0.0 + row * 1.0 is the row
                for d, row in enumerate(rows[1:], 2):
                    total += np.multiply(row, 1 / d, out=scaled)
                lo, hi = indptr[i], indptr[i + 1]
                data[lo:hi] = total[indices[lo:hi]]
                depth_rows[i] = rows
            self._hier_base = CSR(self.freq.indptr, self.freq.indices, data,
                                  self.freq.shape)
        return self._hier_base


def build_node_stats(matrix: DocTermMatrix, hierarchy: Hierarchy) -> NodeTermStats:
    return NodeTermStats(matrix, hierarchy)
