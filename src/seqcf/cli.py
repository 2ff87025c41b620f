"""Command-line orchestration for the full experiment pipeline.

Subcommands: synth, preprocess, train, explain, evaluate, oracle,
reduce-vc, report. Every command exits 0 on success and nonzero with a
single-line error on stderr otherwise. The resolved run configuration is
embedded in each output file header; the worker-count flag and output
destination are execution details and deliberately stay out of the header
so reruns compare byte for byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import baselines, dataset, metrics, models, oracle, records, search, vcreduce
from .core import TAG_SAMPLE, TAG_TARGET, derive_stream
from .objective import RANK_RULES, SETTING_NAMES, SettingSpec

log = logging.getLogger(__name__)

GA_DEFAULTS = {
    "generations": 30,
    "population": 8192,
    "mutation_prob": 0.5,
    "crossover_prob": 0.7,
    "edit_weight": 0.5,
    "elitism": 1.0,
    "threshold": 0.5,
    "k": 1,
    "k_eval": "1,5,10",
    "budget": 10,
    "sample_users": 0,
    "seed": 0,
    "untargeted_rank_rule": "topk_absence",
    "mutation_weights": "1,1,1",
}


def _int_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(x) for x in value]
    return [int(x) for x in str(value).split(",") if x.strip()]


def _float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(x) for x in value]
    return [float(x) for x in str(value).split(",") if x.strip()]


def cmd_synth(args) -> int:
    logdata, cats = dataset.synthesize_corpus(
        num_users=args.users,
        num_items=args.items,
        seed=args.seed,
        chain_prob=args.chain_prob,
        zipf_exponent=args.zipf_exponent,
        num_categories=args.num_categories,
    )
    dataset.write_interactions(logdata, args.out)
    if args.categories_out:
        dataset.write_categories(cats, args.categories_out)
    print(f"wrote {len(logdata)} interactions for {args.users} users to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    logdata = dataset.load_interactions(args.input)
    filtered = dataset.k_core_filter(logdata, k=args.k_core)
    split = dataset.leave_one_out_split(filtered, max_len=args.max_len)
    if args.categories:
        split = split.with_categories(dataset.load_categories(args.categories, split.catalog))
    dataset.save_split(split, args.out)
    print(
        f"split: {len(split.train)} users, {split.catalog.num_items} items "
        f"({len(logdata)} rows in, {len(filtered)} after {args.k_core}-core) -> {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    split = dataset.load_split(args.split)
    mask_seen = not args.no_mask_seen
    if args.scorer == "markov":
        model = models.train_markov(
            split.train, split.catalog.num_items, alpha=args.alpha, beta=args.beta, mask_seen=mask_seen
        )
    elif args.scorer == "popularity":
        model = models.train_popularity(
            split.train, split.catalog.num_items, alpha=args.alpha, mask_seen=mask_seen
        )
    else:
        raise ValueError(f"unknown scorer {args.scorer!r}")
    models.save_model(model, args.out)
    print(f"trained {args.scorer} scorer on {len(split.train)} users -> {args.out}")
    return 0


def _resolve(args, key, cast=None):
    """Flag value if given, else config-file value, else built-in default."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    cfg = getattr(args, "_config_file", {})
    if key in cfg:
        return cast(cfg[key]) if cast else cfg[key]
    return GA_DEFAULTS[key]


def _build_setting(args, split) -> SettingSpec:
    name = args.setting
    threshold = float(_resolve(args, "threshold"))
    k_eval = tuple(_int_list(_resolve(args, "k_eval")))
    rule = _resolve(args, "untargeted_rank_rule")
    target_item = None
    target_category = None
    if name == "targ_un":
        if args.target_item is not None:
            target_item = args.target_item
        elif args.target_stratum is not None:
            stream = derive_stream(int(_resolve(args, "seed")), [TAG_TARGET])
            target_item = dataset.sample_target_item(split, args.target_stratum, stream)
        else:
            raise ValueError("targ_un needs --target-item or --target-stratum")
    elif name == "targ_cat":
        if args.target_category is None:
            raise ValueError("targ_cat needs --target-category")
        if split.categories is None:
            raise ValueError("split has no categories; preprocess with --categories")
        target_category = split.categories.category_id(args.target_category)
    return SettingSpec.from_name(
        name,
        target_item=target_item,
        target_category=target_category,
        threshold=threshold,
        k_eval=k_eval,
        untargeted_rank_rule=rule,
    )


def cmd_explain(args) -> int:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            args._config_file = json.load(fh)
    else:
        args._config_file = {}
    split = dataset.load_split(args.split)
    model = models.load_model(args.model)
    setting = _build_setting(args, split)
    seed = int(_resolve(args, "seed"))
    k = int(_resolve(args, "k"))
    budget = int(_resolve(args, "budget"))
    sample = int(_resolve(args, "sample_users"))
    config = search.GaConfig(
        generations=int(_resolve(args, "generations")),
        population_size=int(_resolve(args, "population")),
        mutation_prob=float(_resolve(args, "mutation_prob")),
        crossover_prob=float(_resolve(args, "crossover_prob")),
        edit_weight=float(_resolve(args, "edit_weight")),
        max_len=split.max_len,
        elitism_fraction=float(_resolve(args, "elitism")),
        mutation_weights=tuple(_float_list(_resolve(args, "mutation_weights"))),
    )
    users = dataset.sample_users(split, sample, derive_stream(seed, [TAG_SAMPLE]))

    out: list[records.ExplanationRecord] = []
    for user in users:
        source = split.train[user]
        if args.method == "gece":
            rec = search.explain(source, setting, model, k, config, seed, categories=split.categories)
        elif args.method == "random":
            rec = baselines.baseline_random(
                source, setting, model, k, budget=budget, seed=seed, categories=split.categories
            )
        elif args.method == "educated":
            rec = baselines.baseline_educated(
                source, setting, model, k, budget=budget, seed=seed, categories=split.categories
            )
        else:
            raise ValueError(f"unknown method {args.method!r}")
        out.append(rec)

    header = {
        "command": "explain",
        "method": args.method,
        "setting": setting.to_dict(),
        "model": str(args.model),
        "split": str(args.split),
        "k": k,
        "seed": seed,
        "budget": budget,
        "sample_users": sample,
        "ga": {
            "generations": config.generations,
            "population_size": config.population_size,
            "mutation_prob": config.mutation_prob,
            "crossover_prob": config.crossover_prob,
            "edit_weight": config.edit_weight,
            "max_len": config.max_len,
            "elitism_fraction": config.elitism_fraction,
            "mutation_weights": list(config.mutation_weights),
        },
    }
    records.write_records(args.out, out, config=header)
    found = sum(1 for r in out if r.counterfactual is not None)
    print(f"{args.method}: {found}/{len(out)} counterfactuals -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    header, recs = records.read_records(args.records)
    if not recs:
        raise ValueError(f"no explanation records in {args.records}")
    model = models.load_model(args.model)
    categories = None
    if args.split:
        categories = dataset.load_split(args.split).categories
    cfg = header.get("config", {})
    threshold = args.threshold if args.threshold is not None else recs[0].setting.threshold
    k_list = _int_list(args.k_list) if args.k_list else list(recs[0].setting.k_eval)
    k_list = [k for k in k_list if k <= model.num_items]
    meta = {
        "dataset": Path(cfg.get("split") or args.split or "").stem,
        "model": Path(cfg.get("model") or str(args.model)).stem,
        "seed": cfg.get("seed", recs[0].seed),
    }
    rows = metrics.aggregate_report(recs, model, k_list, threshold, categories, meta)
    out_config = {"command": "evaluate", "records": str(args.records), "threshold": threshold, "k_list": k_list}
    if args.format == "json":
        metrics.write_report_json(args.out, rows, out_config)
    else:
        metrics.write_report_csv(args.out, rows, out_config)
    print(f"evaluated {len(recs)} records -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    split = dataset.load_split(args.split)
    model = models.load_model(args.model)
    setting = _build_setting(args, split)
    seed = int(_resolve(args, "seed"))
    k = int(_resolve(args, "k"))
    users = dataset.sample_users(split, int(_resolve(args, "sample_users")), derive_stream(seed, [TAG_SAMPLE]))
    out = []
    for user in users:
        source = split.train[user]
        result = oracle.oracle_optimal(
            source, setting, model, k, args.max_distance, categories=split.categories
        )
        if result is None:
            cand, ham, lev = None, None, None
        else:
            cand, dist = result
            ham, lev = dist, metrics.levenshtein(source.items, cand)
        src_scores = model.score(source.items)
        ks = [kk for kk in setting.k_eval if kk <= model.num_items]
        from .objective import is_valid  # local import keeps module deps one-way

        valid_at_k = {
            kk: (cand is not None and is_valid(setting, src_scores, model.score(cand), kk, split.categories))
            for kk in ks
        }
        out.append(
            records.ExplanationRecord(
                user=user,
                method="oracle",
                setting=setting,
                source=source.items,
                counterfactual=cand,
                valid_at_k=valid_at_k,
                hamming=ham,
                levenshtein=lev,
                generation_found=None,
                seed=seed,
            )
        )
    header = {
        "command": "oracle",
        "setting": setting.to_dict(),
        "model": str(args.model),
        "split": str(args.split),
        "k": k,
        "seed": seed,
        "max_distance": args.max_distance,
    }
    records.write_records(args.out, out, config=header)
    found = sum(1 for r in out if r.counterfactual is not None)
    print(f"oracle: {found}/{len(out)} counterfactuals -> {args.out}")
    return 0


def cmd_reduce_vc(args) -> int:
    graph = vcreduce.Graph.parse(Path(args.graph).read_text(encoding="utf-8"))
    ks = _int_list(args.k) if args.k else list(range(graph.num_vertices + 1))
    for k in ks:
        has_cover = vcreduce.brute_force_vc(graph, k)
        equivalent = vcreduce.check_equivalence(graph, k)
        print(f"k={k} vertex_cover={str(has_cover).lower()} equivalent={str(equivalent).lower()}")
    return 0


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        _, rows = metrics.read_report_csv(path)
        reports.append(rows)
    merged = metrics.merge_seed_reports(reports)
    config = {"command": "report", "inputs": [str(p) for p in args.inputs]}
    if args.format == "json":
        metrics.write_report_json(args.out, merged, config)
    else:
        metrics.write_report_csv(args.out, merged, config)
    print(f"merged {len(args.inputs)} reports ({len(merged)} rows) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcf",
        description="Counterfactual explanations for sequential recommenders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction corpus")
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chain-prob", type=float, default=0.9)
    p.add_argument("--zipf-exponent", type=float, default=0.8)
    p.add_argument("--num-categories", type=int, default=6)
    p.add_argument("--out", required=True)
    p.add_argument("--categories-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter, deduplicate, and split a log")
    p.add_argument("--input", required=True)
    p.add_argument("--categories")
    p.add_argument("--k-core", type=int, default=5)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fit a reference scorer on a split")
    p.add_argument("--split", required=True)
    p.add_argument("--scorer", choices=("markov", "popularity"), default="markov")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--no-mask-seen", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="search counterfactuals for sampled users")
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--method", choices=("gece", "random", "educated"), default="gece")
    p.add_argument("--setting", choices=SETTING_NAMES, required=True)
    p.add_argument("--target-item", type=int)
    p.add_argument("--target-stratum", choices=dataset.TARGET_STRATA)
    p.add_argument("--target-category")
    p.add_argument("--config", help="JSON file supplying defaults for the knobs below")
    for key, flag, cast in (
        ("k", "--k", int),
        ("seed", "--seed", int),
        ("sample_users", "--sample-users", int),
        ("generations", "--generations", int),
        ("population", "--population", int),
        ("budget", "--budget", int),
    ):
        p.add_argument(flag, dest=key, type=cast)
    for key, flag in (
        ("mutation_prob", "--mutation-prob"),
        ("crossover_prob", "--crossover-prob"),
        ("edit_weight", "--edit-weight"),
        ("threshold", "--threshold"),
        ("elitism", "--elitism"),
    ):
        p.add_argument(flag, dest=key, type=float)
    p.add_argument("--k-eval", dest="k_eval")
    p.add_argument("--mutation-weights", dest="mutation_weights")
    p.add_argument("--untargeted-rank-rule", dest="untargeted_rank_rule", choices=RANK_RULES)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; the search is single-threaded until "
        "process-level parallelism over users lands, and output never depends on it",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="aggregate explanation records into a report")
    p.add_argument("--records", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", help="needed for categorized settings")
    p.add_argument("--k-list", dest="k_list")
    p.add_argument("--threshold", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle", help="exhaustive optimal counterfactuals (small instances)")
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--setting", choices=SETTING_NAMES, required=True)
    p.add_argument("--target-item", type=int)
    p.add_argument("--target-stratum", choices=dataset.TARGET_STRATA)
    p.add_argument("--target-category")
    p.add_argument("--max-distance", type=int, default=2)
    p.add_argument("--k", dest="k", type=int)
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--sample-users", dest="sample_users", type=int)
    p.add_argument("--threshold", dest="threshold", type=float)
    p.add_argument("--k-eval", dest="k_eval")
    p.add_argument("--untargeted-rank-rule", dest="untargeted_rank_rule", choices=RANK_RULES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce-vc", help="vertex-cover reduction equivalence verdicts")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", help="comma-separated k values (default 0..n)")
    p.set_defaults(func=cmd_reduce_vc)

    p = sub.add_parser("report", help="merge per-seed reports into mean columns")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "_config_file"):
        args._config_file = {}
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-parsable failure
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
