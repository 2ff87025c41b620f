"""Counterfactual explanations for sequential recommenders.

Given a black-box next-item scorer and a user's interaction sequence, this
package searches for minimal edits to the sequence that flip the scorer's
recommendation, evaluates the results (fidelity, Hamming and edit
distances), provides exhaustive ground-truth search on small instances,
and ships an executable vertex-cover reduction showing why the problem is
hard in general.
"""

from .baselines import SettingNotApplicableError, baseline_educated, baseline_random
from .core import Catalog, CategoryMap, UserSequence, derive_stream
from .dataset import (
    InteractionLog,
    SplitDataset,
    k_core_filter,
    leave_one_out_split,
    load_categories,
    load_interactions,
    load_split,
    save_split,
    synthesize_corpus,
)
from .search import (
    GaConfig,
    Population,
    crossover,
    explain,
    fitness,
    genetic,
    mutate_add,
    mutate_delete,
    mutate_replace,
)
from .metrics import (
    aggregate_report,
    fidelity_at_k,
    hamming,
    levenshtein,
    mean_hamming,
    mean_levenshtein,
)
from .models import (
    BlackBoxScorer,
    MarkovScorer,
    ModelFormatError,
    PopularityScorer,
    ScoreVector,
    load_model,
    save_model,
    top_k,
    train_markov,
    train_popularity,
)
from .objective import SettingSpec, is_valid, objective_loss, verify_eps_vcs
from .oracle import EnumerationBudgetError, count_search_space, oracle_optimal
from .records import ExplanationRecord, read_records, write_records
from .vcreduce import Graph, VcModel, brute_force_vc, check_equivalence, reduce

__version__ = "0.1.0"

__all__ = [
    "BlackBoxScorer",
    "Catalog",
    "CategoryMap",
    "EnumerationBudgetError",
    "ExplanationRecord",
    "GaConfig",
    "Graph",
    "InteractionLog",
    "MarkovScorer",
    "ModelFormatError",
    "Population",
    "PopularityScorer",
    "ScoreVector",
    "SettingNotApplicableError",
    "SettingSpec",
    "SplitDataset",
    "UserSequence",
    "VcModel",
    "aggregate_report",
    "baseline_educated",
    "baseline_random",
    "brute_force_vc",
    "check_equivalence",
    "count_search_space",
    "crossover",
    "derive_stream",
    "explain",
    "fidelity_at_k",
    "fitness",
    "genetic",
    "hamming",
    "is_valid",
    "k_core_filter",
    "leave_one_out_split",
    "levenshtein",
    "load_categories",
    "load_interactions",
    "load_model",
    "load_split",
    "mean_hamming",
    "mean_levenshtein",
    "mutate_add",
    "mutate_delete",
    "mutate_replace",
    "objective_loss",
    "oracle_optimal",
    "read_records",
    "reduce",
    "save_model",
    "save_split",
    "synthesize_corpus",
    "top_k",
    "train_markov",
    "train_popularity",
    "verify_eps_vcs",
    "write_records",
]
