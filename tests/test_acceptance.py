"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
from itertools import combinations

import numpy as np
import pytest

from seqcf import (
    GaConfig,
    Graph,
    SettingNotApplicableError,
    UserSequence,
    baseline_educated,
    baseline_random,
    check_equivalence,
    count_search_space,
    explain,
    fidelity_at_k,
    genetic,
    hamming,
    k_core_filter,
    leave_one_out_split,
    levenshtein,
    load_categories,
    oracle_optimal,
    synthesize_corpus,
    train_markov,
    verify_eps_vcs,
)
from seqcf.cli import main
from seqcf.core import TAG_SAMPLE, TAG_TARGET, derive_stream
from seqcf.dataset import InteractionLog, sample_target_item, sample_users, write_categories
from seqcf.models import ScoreVector
from seqcf.objective import SettingSpec, is_valid
from seqcf.records import read_records
from seqcf.search import _BALL_SHARE, _harvest, _RowEvaluator, radius1_ball, radius1_size

from conftest import EchoScorer
from reference import substitutions
from test_metrics import brute_levenshtein


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def ga_distance(source, setting, model, k, cfg, seed, categories=None):
    """Edit distance of the genetic search's own answer, without the radius-1 pre-pass; None if none is valid."""
    found = _harvest(genetic(source, setting, model, k, cfg, seed=seed, categories=categories))
    return None if found is None else levenshtein(source.items, found[0])


@pytest.fixture(scope="module")
def reference_split(tmp_path_factory):
    """The 200-user / 100-item synthetic corpus with block categories."""
    logdata, cats_raw = synthesize_corpus(num_users=200, num_items=100, seed=0)
    split = leave_one_out_split(k_core_filter(logdata, 5))
    path = tmp_path_factory.mktemp("ref") / "cats.tsv"
    write_categories(cats_raw, path)
    return split.with_categories(load_categories(path, split.catalog))


@pytest.fixture(scope="module")
def reference_model(reference_split):
    return train_markov(reference_split.train, reference_split.catalog.num_items)


def test_c01_fidelity_formula_exactness():
    exact = [fidelity_at_k([0.7, 0.6, 0.4], k, 0.5) for k in (1, 2, 3)]
    ok = exact[0] == 1.0 and exact[1] == 1.0 and exact[2] == pytest.approx(2 / 3)
    rng = np.random.default_rng(0)
    monotone = True
    for _ in range(1000):
        sv = ScoreVector(rng.normal(size=12))
        values = [fidelity_at_k(sv, k, 0.05) for k in range(1, 13)]
        monotone &= all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    report(1, ok and monotone, f"fidelity@1..3 = {exact}, monotone over 1000 vectors: {monotone}")


@pytest.mark.slow
def test_c02_reduction_equivalence_sweep():
    slots = list(combinations(range(5), 2))
    checked = failures = 0
    for mask in range(1 << len(slots)):
        graph = Graph(5, tuple(e for bit, e in enumerate(slots) if mask >> bit & 1))
        for k in range(6):
            checked += 1
            if not check_equivalence(graph, k):
                failures += 1
    report(2, failures == 0, f"{checked} (graph, k) pairs on 5 vertices, {failures} mismatches")


def test_c03_oracle_equivalence_for_genetic_search():
    setting = SettingSpec.from_name("un_un")
    # substitution-only regime mirrors the oracle's fixed-length search space
    cfg = GaConfig(
        generations=50,
        population_size=256,
        mutation_weights=(1.0, 0.0, 0.0),
        crossover_prob=0.0,
        max_len=3,
    )
    matches = beats = comparable = 0
    for inst in range(50):
        logdata, _ = synthesize_corpus(num_users=30, num_items=8, seed=1000 + inst, walk_min=5, walk_max=6)
        split = leave_one_out_split(logdata)
        model = train_markov(split.train, split.catalog.num_items)
        user = split.users[inst % len(split.users)]
        source = UserSequence(user, split.train[user].items[:3], 3)
        optimal = oracle_optimal(source, setting, model, 1, max_distance=3)
        # the paper's GA, not the radius-1 pre-pass (c12)
        distance = ga_distance(source, setting, model, 1, cfg, seed=inst)
        if optimal is None and distance is None:
            matches += 1
            continue
        comparable += 1
        if distance is not None and optimal is not None:
            if distance == optimal[1]:
                matches += 1
            elif distance < optimal[1]:
                beats += 1
    ok = matches >= 45 and beats == 0
    report(3, ok, f"distance match {matches}/50, beats-oracle {beats} (must be 0)")


@pytest.mark.slow
def test_c04_untargeted_easy_reproduction(reference_split, reference_model):
    setting = SettingSpec.from_name("un_un")
    cfg = GaConfig(generations=30, population_size=1024, max_len=reference_split.max_len)
    found = 0
    distances = []
    for user in reference_split.users:
        distance = ga_distance(reference_split.train[user], setting, reference_model, 1, cfg, seed=0)
        if distance is not None:
            found += 1
            distances.append(distance)
    fraction = found / len(reference_split.users)
    mean_lev = float(np.mean(distances)) if distances else math.inf
    ok = fraction >= 0.95 and mean_lev <= 1.5
    report(4, ok, f"valid fraction {fraction:.3f} (>=0.95), mean edit distance {mean_lev:.3f} (<=1.5)")


@pytest.mark.slow
def test_c05_targeted_categorized_dominance(reference_split, reference_model):
    cats = reference_split.categories
    cfg = GaConfig(generations=20, population_size=512, max_len=reference_split.max_len)
    margins = []
    lines = []
    for seed in (0, 1, 2):
        category = int(derive_stream(seed, [TAG_TARGET]).integers(cats.num_categories))
        setting = SettingSpec.from_name("targ_cat", target_category=category)
        users = sample_users(reference_split, 40, derive_stream(seed, [TAG_SAMPLE]))
        ga = rnd = 0
        for user in users:
            source = reference_split.train[user]
            ga += ga_distance(source, setting, reference_model, 1, cfg, seed, cats) is not None
            rnd += (
                baseline_random(
                    source, setting, reference_model, 1, budget=10, seed=seed, categories=cats
                ).counterfactual
                is not None
            )
        ga_rate, rnd_rate = ga / len(users), rnd / len(users)
        margins.append(ga_rate - rnd_rate)
        lines.append(f"seed {seed} (cat {category}): gece {ga_rate:.3f} random {rnd_rate:.3f}")
    print("\n".join("    " + line for line in lines))
    mean_margin = float(np.mean(margins))
    report(5, mean_margin >= 0.15, f"validity margin over random {mean_margin:.3f} (>=0.15), per-seed above")


def test_c06_educated_baseline_na_semantics():
    model = EchoScorer(10)
    source = UserSequence(1, (0, 1, 2), 50)
    outcomes = []
    for name in ("un_un", "un_cat"):
        try:
            baseline_educated(source, SettingSpec.from_name(name), model, 1)
            outcomes.append(False)
        except SettingNotApplicableError:
            outcomes.append(True)
    report(6, all(outcomes), f"educated rejected on un_un/un_cat: {outcomes}")


def test_c07_cmd_explain_byte_determinism(tmp_path):
    logp, splitp, modelp = tmp_path / "log.tsv", tmp_path / "split.json", tmp_path / "model.json"
    assert main(["synth", "--users", "40", "--items", "30", "--seed", "3", "--out", str(logp)]) == 0
    assert main(["preprocess", "--input", str(logp), "--out", str(splitp)]) == 0
    assert main(["train", "--split", str(splitp), "--out", str(modelp)]) == 0
    blobs = []
    for name, threads in [("t1a", "1"), ("t1b", "1"), ("t4", "4"), ("t8", "8")]:
        out = tmp_path / f"{name}.jsonl"
        rc = main(
            ["explain", "--model", str(modelp), "--split", str(splitp), "--method", "gece",
             "--setting", "un_un", "--k", "1", "--seed", "5", "--sample-users", "6",
             "--generations", "6", "--population", "64", "--threads", threads, "--out", str(out)]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    identical = all(b == blobs[0] for b in blobs)
    report(7, identical, f"4 runs (threads 1,1,4,8) byte-identical: {identical}")


@pytest.mark.slow
def test_c08_verifier_soundness_fuzz():
    rng = np.random.default_rng(99)
    corpora = []
    for seed in (7, 8):
        logdata, _ = synthesize_corpus(num_users=40, num_items=12, seed=seed, walk_min=6, walk_max=9)
        split = leave_one_out_split(logdata)
        corpora.append(train_markov(split.train, split.catalog.num_items))
    echo = EchoScorer(12)
    from seqcf.core import CategoryMap

    cats = CategoryMap(categories_of=tuple(frozenset({i % 3}) for i in range(12)), num_categories=3)

    def random_source(user):
        length = int(rng.integers(3, 7))
        return UserSequence(user, tuple(rng.permutation(12)[:length].tolist()), 11)

    total = found = violations = 0

    def check(model, record):
        nonlocal total, found, violations
        total += 1
        if record.counterfactual is None:
            return
        found += 1
        if not verify_eps_vcs(model, record.source, record.counterfactual, record.levenshtein):
            violations += 1

    for i in range(6700):
        model = corpora[i % 2]
        if i % 3 == 0:
            setting = SettingSpec.from_name("un_un")
        elif i % 3 == 1:
            setting = SettingSpec.from_name("targ_un", target_item=int(rng.integers(12)), threshold=0.2)
        else:
            setting = SettingSpec.from_name("targ_cat", target_category=int(rng.integers(3)), threshold=0.2)
        rec = baseline_random(random_source(i + 1), setting, model, 2, budget=6, seed=i, categories=cats)
        check(model, rec)
    for i in range(2000):
        source = random_source(i + 1)
        if i % 2 == 0:
            target = int(rng.integers(12))
            setting = SettingSpec.from_name("targ_un", target_item=target)
        else:
            setting = SettingSpec.from_name("targ_cat", target_category=int(rng.integers(3)), threshold=0.2)
        rec = baseline_educated(source, setting, echo, 1, budget=8, seed=i, categories=cats)
        check(echo, rec)
    cfg = GaConfig(generations=3, population_size=16, max_len=8)
    for i in range(1000):
        model = corpora[i % 2]
        setting = SettingSpec.from_name("un_un")
        rec = explain(random_source(i + 1), setting, model, 1, cfg, seed=i)
        check(model, rec)
    oracle_setting = SettingSpec.from_name("un_un")
    for i in range(300):
        model = corpora[i % 2]
        source = UserSequence(i + 1, tuple(rng.permutation(12)[:3].tolist()), 11)
        result = oracle_optimal(source, oracle_setting, model, 1, max_distance=2)
        total += 1
        if result is not None:
            found += 1
            if not verify_eps_vcs(model, source.items, result[0], result[1]):
                violations += 1
    ok = total == 10_000 and violations == 0 and found >= 2000
    report(8, ok, f"{total} records fuzzed, {found} counterfactuals, {violations} verifier violations")


def test_c09_metric_properties():
    rng = np.random.default_rng(31)
    lev_ok = ham_ok = bound_ok = True
    for _ in range(1000):
        a = tuple(rng.integers(0, 6, size=rng.integers(0, 9)).tolist())
        b = tuple(rng.integers(0, 6, size=rng.integers(0, 9)).tolist())
        lev_ok &= levenshtein(a, b) == brute_levenshtein(a, b)
        if len(a) == len(b):
            bound_ok &= levenshtein(a, b) <= hamming(a, b)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        x, y, z = (tuple(rng.integers(0, 5, size=n).tolist()) for _ in range(3))
        ham_ok &= hamming(x, x) == 0
        ham_ok &= hamming(x, y) == hamming(y, x)
        ham_ok &= hamming(x, z) <= hamming(x, y) + hamming(y, z)
    report(9, lev_ok and ham_ok and bound_ok,
           f"levenshtein==DP oracle: {lev_ok}, hamming axioms: {ham_ok}, lev<=hamming: {bound_ok}")


def test_c10_search_space_formula():
    exact = count_search_space(5, 3) == 60 and count_search_space(4, 4) == 24
    rng = np.random.default_rng(77)
    random_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 60))
        length = int(rng.integers(1, n + 1))
        random_ok &= count_search_space(n, length) == math.factorial(n) // math.factorial(n - length)
    report(10, exact and random_ok, f"(5,3)=60,(4,4)=24: {exact}; 20 random (n,L) vs factorials: {random_ok}")


def test_c11_preprocessing_invariants():
    rng = np.random.default_rng(13)
    logdata, _ = synthesize_corpus(num_users=30, num_items=25, seed=4, walk_min=6, walk_max=10)
    reference = set(k_core_filter(logdata, 5).rows)
    shuffle_ok = True
    for _ in range(100):
        shuffled = list(logdata.rows)
        rng.shuffle(shuffled)
        once = k_core_filter(InteractionLog(rows=shuffled), 5)
        twice = k_core_filter(once, 5)
        shuffle_ok &= once.rows == twice.rows  # idempotent
        shuffle_ok &= set(once.rows) == reference  # order-independent

    filtered = k_core_filter(logdata, 5)
    split = leave_one_out_split(filtered)
    chronological = {}
    for u, i, t in filtered.rows:
        chronological.setdefault(u, []).append(i)
    label = split.catalog.item_labels
    reconstruction_ok = True
    for user, seq in split.train.items():
        rebuilt = [label[x] for x in seq.items]
        rebuilt += [label[split.validation[user]], label[split.test[user]]]
        reconstruction_ok &= rebuilt == chronological[user]
    report(11, shuffle_ok and reconstruction_ok,
           f"k-core idempotent+order-independent over 100 shuffles: {shuffle_ok}; "
           f"leave-one-out reconstruction for all {len(split.train)} users: {reconstruction_ok}")


@pytest.mark.slow
def test_c12_radius1_prepass_exactness(reference_split, reference_model):
    # at the window's length the ball holds replacements and deletions: its valid
    # members are exactly the oracle's valid level-1 substitutions and valid deletions
    setting = SettingSpec.from_name("un_un")
    equal_sets = nonempty = 0
    for inst in range(50):  # c03's instances
        logdata, _ = synthesize_corpus(num_users=30, num_items=8, seed=1000 + inst, walk_min=5, walk_max=6)
        split = leave_one_out_split(logdata)
        model = train_markov(split.train, split.catalog.num_items)
        user = split.users[inst % len(split.users)]
        source = split.train[user].items[:3]
        src_scores = model.score(source)
        deletions = [source[:p] + source[p + 1 :] for p in range(len(source))]
        oracle_set = {
            c
            for c in (*substitutions(source, model.num_items, 1), *deletions)
            if is_valid(setting, src_scores, model.score(c), 1)
        }
        evaluate = _RowEvaluator(model, setting, source, 1, None, 3)
        rows, lengths = radius1_ball(source, model.num_items, 3)
        hit = np.flatnonzero(evaluate.valid(rows, lengths))
        ball_set = {tuple(int(x) for x in rows[i, : lengths[i]]) for i in hit}
        equal_sets += ball_set == oracle_set
        nonempty += bool(oracle_set)

    # reference corpus: the ball's result is never further than the GA's
    cats = reference_split.categories
    settings = [
        SettingSpec.from_name("un_un"),
        SettingSpec.from_name(
            "targ_un", target_item=sample_target_item(reference_split, "popular", derive_stream(0, [TAG_TARGET]))
        ),
        SettingSpec.from_name("un_cat"),
        SettingSpec.from_name("targ_cat", target_category=int(derive_stream(0, [TAG_TARGET]).integers(6))),
    ]
    cfg = GaConfig(generations=20, population_size=512, max_len=reference_split.max_len)
    worse, lines = 0, []
    for setting in settings:
        users = sample_users(reference_split, 30, derive_stream(0, [TAG_SAMPLE]))
        hits = closer = 0
        for user in users:
            source = reference_split.train[user]
            # the search is large enough for every reference ball to be scored first
            ball_rows = radius1_size(source.items, reference_model.num_items, cfg.max_len)
            assert ball_rows <= _BALL_SHARE * cfg.population_size * cfg.generations
            ga = ga_distance(source, setting, reference_model, 1, cfg, seed=0, categories=cats)
            rec = explain(source, setting, reference_model, 1, cfg, seed=0, categories=cats)
            hits += rec.generation_found == 0
            if ga is not None:
                worse += rec.counterfactual is None or rec.levenshtein > ga
            closer += rec.counterfactual is not None and (ga is None or rec.levenshtein < ga)
        lines.append(f"{setting.name}: ball valid for {hits}/{len(users)}, closer than the GA for {closer}")
    print("\n".join("    " + line for line in lines))
    report(
        12,
        equal_sets == 50 and worse == 0,
        f"ball valid set = oracle level-1 substitutions and deletions on {equal_sets}/50 instances "
        f"({nonempty} non-empty); "
        f"explain worse than the GA on {worse} of {30 * len(settings)} reference users (must be 0)",
    )
