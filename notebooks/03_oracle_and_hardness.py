# # Ground truth and why the problem is hard
#
# Two sanity anchors for the genetic search. First, on small instances an
# exhaustive oracle can certify the true minimal edit distance. Second, an
# executable reduction from vertex cover shows that bounded-distance
# counterfactual search embeds an NP-complete decision problem, which is
# why anything beyond toy scales needs heuristics.

from seqcf import (
    GaConfig,
    Graph,
    SettingSpec,
    UserSequence,
    brute_force_vc,
    check_equivalence,
    count_search_space,
    explain,
    leave_one_out_split,
    oracle_optimal,
    synthesize_corpus,
    train_markov,
    verify_eps_vcs,
)
from seqcf.vcreduce import reduce as build_reduction

# ## The search space grows like a falling factorial

for n, length in [(10, 5), (100, 20), (3416, 50)]:
    size = count_search_space(n, length)
    print(f"n={n:5d} L={length:2d}: {size:.3e} candidate sequences")

# ## Exhaustive oracle vs genetic search on a desk-size instance

log, _ = synthesize_corpus(num_users=30, num_items=8, seed=42, walk_min=5, walk_max=6)
split = leave_one_out_split(log)
model = train_markov(split.train, split.catalog.num_items)

setting = SettingSpec.from_name("un_un")
user = split.users[0]
source = UserSequence(user, split.train[user].items[:3], 3)

optimal = oracle_optimal(source, setting, model, k=1, max_distance=3)
print(f"oracle optimum: {optimal}")

config = GaConfig(
    generations=50, population_size=256, mutation_weights=(1.0, 0.0, 0.0),
    crossover_prob=0.0, max_len=3,
)
# explain scores the whole radius-1 ball before the genetic search (it is
# far below a quarter of the search's rows here), so a one-edit flip is
# answered there (generation 0)
record = explain(source, setting, model, 1, config, seed=0)
print(f"explain: {list(record.counterfactual)} at distance {record.levenshtein}, "
      f"generation {record.generation_found}")
assert record.levenshtein >= optimal[1]

# ## The vertex-cover reduction, executably
#
# A graph becomes a scorer over positive/negative vertex literals whose
# output flips exactly when the positive literals cover every edge. Covers
# of size k correspond one-to-one to counterfactuals within distance k of
# the all-negative sequence.

triangle = Graph(3, ((0, 1), (1, 2), (0, 2)))
vc_model, all_negative = build_reduction(triangle)
print(f"start sequence {all_negative} maps to item {vc_model.output(all_negative)} (reject)")

# vertices {0, 1} cover the triangle; encode them positively
cover_encoding = (0, 1, 5)
print(f"cover encoding {cover_encoding} verifies within distance 2:",
      verify_eps_vcs(vc_model, all_negative, cover_encoding, eps=2))

for k in range(4):
    print(
        f"k={k}: cover exists {brute_force_vc(triangle, k)}, "
        f"equivalence holds {check_equivalence(triangle, k)}"
    )
