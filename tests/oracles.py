"""Reference implementations that the tests compare the library against.

The query derivation here is the direct structural one: queries are built
as Term/Or/And objects from the start, ORs are canonicalised by a linear
membership scan, and generic conjuncts are deduplicated by structural
equality.  The library derives the same queries from term-id tuples.

Observed coherence here is the scalar pair loop over ``coherence.npmi``;
the library scores every pair of a method in one vectorised pass.
"""

from hierlabel.coherence import npmi
from hierlabel.queryeval import And, Or, Term


def _or_of(parts):
    """Canonical OR: nested ORs flattened, structural duplicates dropped,
    a single remaining operand returned bare."""
    flat = []
    for p in parts:
        for q in (p.children if isinstance(p, Or) else (p,)):
            if q not in flat:
                flat.append(q)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def specific_queries(hierarchy, labels) -> dict:
    """Node index -> specific query (None for unretrievable nodes)."""
    n = hierarchy.n_nodes
    own = {}
    for i in range(n):
        terms = labels.terms(i)
        own[i] = _or_of(Term(t) for t in terms) if terms else None

    down = dict(own)
    for i in hierarchy.order_bottom_up():
        i = int(i)
        if down[i] is not None or hierarchy.is_leaf(i):
            continue
        down[i] = _or_of(down[int(c)] for c in hierarchy.children[i]
                         if down[int(c)] is not None)

    out = {}
    nearest = {hierarchy.root: None}
    for i in hierarchy.order_top_down():
        i = int(i)
        inherited = nearest.pop(i)
        if own[i] is not None:
            out[i] = own[i]
        elif inherited is not None:
            out[i] = inherited
        else:
            out[i] = down[i]
        for c in hierarchy.children[i]:
            nearest[int(c)] = own[i] if own[i] is not None else inherited
    return out


def generic_queries(hierarchy, specific: dict) -> dict:
    """AND of each node's specific query onto its ancestors' conjuncts,
    structurally duplicate conjuncts skipped."""
    conjuncts = {}
    out = {}
    for i in hierarchy.order_top_down():
        i = int(i)
        base = ([] if i == hierarchy.root
                else list(conjuncts[int(hierarchy.parent[i])]))
        q = specific.get(i)
        if q is not None and q not in base:
            base.append(q)
        conjuncts[i] = base
        if not base:
            out[i] = None
        elif len(base) == 1:
            out[i] = base[0]
        else:
            out[i] = And(tuple(base))
    return out


def oc_npmi(counts, label_terms, p_cap, epsilon=0.0, aggregate="sum"):
    """NPMI summed (or averaged) over the pairs i > j of the top-P label
    terms, added in that loop order; fewer than two terms score 0."""
    terms = list(label_terms)[:p_cap]
    if len(terms) < 2:
        return 0.0
    total = 0.0
    n_pairs = 0
    for i in range(1, len(terms)):
        for j in range(i):
            total += npmi(counts, terms[i], terms[j], epsilon)
            n_pairs += 1
    if aggregate == "mean":
        return total / n_pairs
    return total
