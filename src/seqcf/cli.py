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
from dataclasses import asdict, fields
from pathlib import Path

from . import baselines, dataset, metrics, models, oracle, records, search, vcreduce
from .core import TAG_SAMPLE, TAG_TARGET, derive_stream
from .objective import RANK_RULES, SETTING_NAMES, SettingSpec

log = logging.getLogger(__name__)

# explain flags of the GaConfig fields whose flag is not the field name
GA_FLAG_NAMES = {"population_size": "population", "elitism_fraction": "elitism"}


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


def _build_setting(args, split) -> SettingSpec:
    name = args.setting
    target_item = None
    target_category = None
    if name == "targ_un":
        if args.target_item is not None:
            target_item = args.target_item
            m = split.catalog.num_items
            if not 0 <= target_item < m:
                raise ValueError(f"target item {target_item} outside the catalog of {m} items")
        elif args.target_stratum is not None:
            stream = derive_stream(args.seed, [TAG_TARGET])
            target_item = dataset.sample_target_item(split, args.target_stratum, stream)
        else:
            raise ValueError("targ_un needs --target-item or --target-stratum")
    elif name == "targ_cat":
        if args.target_category is None:
            raise ValueError("targ_cat needs --target-category")
        if split.categories is None:
            raise ValueError("split has no categories; preprocess with --categories")
        target_category = split.categories.category_id(args.target_category)
    # an unset flag leaves the field at its SettingSpec default
    given = {"threshold": args.threshold, "untargeted_rank_rule": args.untargeted_rank_rule}
    if args.k_eval is not None:
        given["k_eval"] = _int_list(args.k_eval)
    return SettingSpec.from_name(
        name,
        target_item=target_item,
        target_category=target_category,
        **{key: value for key, value in given.items() if value is not None},
    )


def _ga_config(args, max_len: int) -> search.GaConfig:
    """The explain GA flags as a GaConfig; an unset flag leaves its field at the default."""
    given = {}
    for f in fields(search.GaConfig):
        value = getattr(args, GA_FLAG_NAMES.get(f.name, f.name), None)
        if value is not None:
            given[f.name] = tuple(_float_list(value)) if isinstance(f.default, tuple) else value
    return search.GaConfig(max_len=max_len, **given)


def cmd_explain(args) -> int:
    split = dataset.load_split(args.split)
    model = models.load_model(args.model)
    setting = _build_setting(args, split)
    seed, k, budget, sample = args.seed, args.k, args.budget, args.sample_users
    config = _ga_config(args, split.max_len)
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
        "ga": asdict(config),
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
    seed, k = args.seed, args.k
    users = dataset.sample_users(split, args.sample_users, derive_stream(seed, [TAG_SAMPLE]))
    out = []
    for user in users:
        source = split.train[user]
        result = oracle.oracle_optimal(
            source, setting, model, k, args.max_distance, categories=split.categories
        )
        cand = None if result is None else result[0]
        out.append(records.explanation_record(source, "oracle", setting, model, cand, None, seed, split.categories))
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


def _add_run_flags(p) -> list[argparse.Action]:
    """The setting and sampling flags of explain and oracle.

    Returns the flags a config file may also set.
    """
    p.add_argument("--setting", choices=SETTING_NAMES, required=True)
    p.add_argument("--target-item", type=int)
    p.add_argument("--target-stratum", choices=dataset.TARGET_STRATA)
    p.add_argument("--target-category")
    return [
        p.add_argument("--k", type=int, default=1),
        p.add_argument("--seed", type=int, default=0),
        p.add_argument("--sample-users", type=int, default=0),
        p.add_argument("--threshold", type=float),
        p.add_argument("--k-eval"),
        p.add_argument("--untargeted-rank-rule", choices=RANK_RULES),
    ]


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The seqcf parser; `config` (a --config file's content) supplies explain defaults."""
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
    p.add_argument("--config", help="JSON file supplying defaults for the knobs below")
    knobs = _add_run_flags(p)
    knobs.append(p.add_argument("--budget", type=int, default=10))
    for f in fields(search.GaConfig):
        if f.name == "max_len":  # the split fixes it
            continue
        dest = GA_FLAG_NAMES.get(f.name, f.name)
        # a tuple field's comma list is parsed by _ga_config; unset flags keep the GaConfig default
        cast = None if isinstance(f.default, tuple) else type(f.default)
        knobs.append(p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast))
    if config:
        # flag > config file > default: the file's values, cast as their flags cast, become the defaults
        p.set_defaults(
            **{a.dest: a.type(config[a.dest]) if a.type else config[a.dest] for a in knobs if a.dest in config}
        )
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
    _add_run_flags(p)
    p.add_argument("--max-distance", type=int, default=2)
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
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                args = build_parser(json.load(fh)).parse_args(argv)
        return args.func(args)
    except Exception as exc:  # single-line machine-parsable failure
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
