# # End-to-end walkthrough
#
# Build a synthetic interaction corpus, preprocess it, fit the reference
# next-item scorer, and search for minimal counterfactual edits: sequence
# changes that flip what the scorer recommends.

import numpy as np

from seqcf import (
    GaConfig,
    SettingSpec,
    baseline_random,
    explain,
    k_core_filter,
    leave_one_out_split,
    synthesize_corpus,
    top_k,
    train_markov,
)

# ## Data
#
# Users walk a hidden chain over the catalog, so the item-to-item
# transition statistics have sharp modes the scorer can learn.

log, categories = synthesize_corpus(num_users=120, num_items=60, seed=11)
split = leave_one_out_split(k_core_filter(log, 5))
print(f"{len(split.train)} users, {split.catalog.num_items} items")

# ## Reference scorer
#
# A first-order transition model blended with a popularity prior. It is
# used strictly as a black box from here on.

model = train_markov(split.train, split.catalog.num_items)

user = split.users[0]
source = split.train[user]
scores = model.score(source)
suggestion = top_k(scores, 1)[0]
print(f"user {user} history: {list(source.items)}")
print(f"suggested next item: {suggestion} "
      f"(normalized score {scores.normalized[suggestion]:.3f})")

# ## Genetic counterfactual search
#
# Find the smallest edit to the history that makes the suggestion change
# while the new top item clears the validity threshold.

setting = SettingSpec.from_name("un_un")  # untargeted, item-level
# 512 x 20 is large enough for the radius-1 pre-pass (a ball of at most a
# quarter of the 10k rows the search scores) at this 60-item catalog
config = GaConfig(generations=20, population_size=512, max_len=split.max_len)

record = explain(source, setting, model, k=1, config=config, seed=0)
print(f"counterfactual: {list(record.counterfactual)}")
# generation 0 means the radius-1 pre-pass found it before the genetic search ran
print(f"edit distance: {record.levenshtein}, found in generation {record.generation_found}")

flipped = top_k(model.score(record.counterfactual), 1)[0]
print(f"suggestion after the edit: {suggestion} -> {flipped}")

# ## Comparison against the random-substitution baseline

found_ga, found_rand, edits = 0, 0, []
for u in split.users[:40]:
    rec = explain(split.train[u], setting, model, 1, config, seed=0)
    if rec.counterfactual is not None:
        found_ga += 1
        edits.append(rec.levenshtein)
    rec = baseline_random(split.train[u], setting, model, 1, budget=10, seed=0)
    found_rand += rec.counterfactual is not None

print(f"genetic search: {found_ga}/40 users, mean edit distance {np.mean(edits):.2f}")
print(f"random baseline: {found_rand}/40 users")
