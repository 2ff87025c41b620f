"""Counterfactual explanations for sequential recommenders.

Given a black-box next-item scorer and a user's interaction sequence, this
package searches for minimal edits to the sequence that flip the scorer's
recommendation, evaluates the results (fidelity, Hamming and edit
distances), provides exhaustive ground-truth search on small instances,
and ships an executable vertex-cover reduction showing why the problem is
hard in general.

The public names below are imported from their module on first use, so
`import seqcf` (and the command line, which imports only what a subcommand
needs) pays for no module it does not touch.
"""

from importlib import import_module

_MODULE_NAMES = {  # module -> the public names it defines
    "baselines": ("SettingNotApplicableError", "baseline_educated", "baseline_random"),
    "core": ("Catalog", "CategoryMap", "UserSequence", "derive_stream"),
    "dataset": (
        "InteractionLog", "SplitDataset", "k_core_filter", "leave_one_out_split", "load_categories",
        "load_interactions", "load_split", "save_split", "synthesize_corpus",
    ),
    "search": ("GaConfig", "Population", "explain", "genetic"),
    "metrics": ("aggregate_report", "fidelity_at_k", "hamming", "levenshtein", "mean_hamming", "mean_levenshtein"),
    "models": (
        "BlackBoxScorer", "MarkovScorer", "ModelFormatError", "PopularityScorer", "ScoreVector", "load_model",
        "save_model", "top_k", "train_markov", "train_popularity",
    ),
    "objective": ("SettingSpec", "is_valid", "objective_loss", "verify_eps_vcs"),
    "oracle": ("EnumerationBudgetError", "count_search_space", "oracle_optimal"),
    "records": ("ExplanationRecord", "read_records", "write_records"),
    "vcreduce": ("Graph", "VcModel", "brute_force_vc", "check_equivalence", "reduce"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module on first use (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
