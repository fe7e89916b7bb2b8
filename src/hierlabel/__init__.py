"""hierlabel: benchmark for label selection on hierarchical document clusters."""

from .corpus import (
    DocTermMatrix, Hierarchy, NodeTermStats, Vocabulary,
    build_node_stats, load_hierarchy, load_matrix, load_vocabulary,
    salton_df_filter, save_hierarchy, save_matrix, save_vocabulary,
)
from .labeling import (
    METHODS, LabelAssignment, LabelConfig, label_all, label_hierarchy,
    select_cf_average, select_cf_leave_one_out, select_flat_or_hier,
    select_popescul_ungar, select_rlum,
)
from .queryeval import (
    And, ObservationRow, ObservationTable, Or, Term,
    derive_generic_queries, derive_specific_queries, evaluate_all,
    query_to_prefix,
)
from .stats import (
    GlmFit, SnkGrouping, fit_additive_model, fit_level_model, snk_compare,
    studentized_range_quantile,
)
from .coherence import (
    CoherenceReport, CooccurrenceCounts, count_cooccurrence, oc_npmi,
    score_labels, summarize_coherence,
)

__version__ = "0.1.0"
