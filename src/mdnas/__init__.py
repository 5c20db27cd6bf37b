"""Multinomial distribution learning for cell-based neural architecture
search, with a Kendall-tau analyzer for the early-ranking consistency
hypothesis."""

from .search_space import (
    OP_NAMES,
    CellTemplate,
    Genotype,
    build_cell_template,
    derive_genotype,
    search_space_size,
)
from .distribution import (
    sample_gate,
    record_feedback,
    update_probs,
)
from .evaluator import (
    TabularOracle,
    SurrogateCurveEvaluator,
    best_genotype,
    measure_consistency,
)
from .ranking import RankStats, kendall_tau, tau_trace, mean_tau
from .engine import SearchConfig, Searcher

__all__ = [
    "OP_NAMES",
    "CellTemplate",
    "Genotype",
    "build_cell_template",
    "derive_genotype",
    "search_space_size",
    "sample_gate",
    "record_feedback",
    "update_probs",
    "TabularOracle",
    "SurrogateCurveEvaluator",
    "best_genotype",
    "measure_consistency",
    "RankStats",
    "kendall_tau",
    "tau_trace",
    "mean_tau",
    "SearchConfig",
    "Searcher",
]
