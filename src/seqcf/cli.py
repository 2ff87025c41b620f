"""Command-line orchestration for the full experiment pipeline.

Subcommands: synth, preprocess, train, explain, evaluate, reduce-vc,
report. Every command exits 0 on success and nonzero with a single-line
error on stderr otherwise. The resolved run configuration is embedded in
each output file header; the worker-count flag and output destination are
execution details and deliberately stay out of the header so reruns
compare byte for byte.

`explain --method {gece,random,educated,oracle}` hands the sampled users
to one function per method: the baselines judge the whole sample in one
batch, while gece and the oracle explain one user at a time. Its header
records only the chosen method's own parameter (`ga`, `budget` or
`max_distance`), and other methods' flags are ignored.

Arguments can also come from a file: `seqcf explain @run.args --out x.jsonl`
reads one argument per line (`--population=1024`), checked and cast exactly
as on the command line, and a flag given after `@run.args` overrides it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import dataset, metrics, models, records, search
from .core import TAG_SAMPLE, TAG_TARGET, checked_items, derive_stream, read_text, user_of
from .objective import RANK_RULES, SETTING_NAMES, SettingSpec

# explain flags of the GaConfig fields whose flag is not the field name
GA_FLAG_NAMES = {"population_size": "population"}


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(x) for x in value.split(",") if x.strip())


def _float_list(value: str) -> tuple[float, ...]:
    return tuple(float(x) for x in value.split(",") if x.strip())


def cmd_synth(args) -> int:
    logdata, cats = dataset.synthesize_corpus(num_users=args.users, num_items=args.items, seed=args.seed)
    dataset.write_interactions(logdata, args.out)
    if args.categories_out:
        dataset.write_categories(cats, args.categories_out)
    print(f"wrote {len(logdata)} interactions for {args.users} users to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    logdata = dataset.load_interactions(args.input)
    if logdata.malformed:
        print(f"WARNING skipped {logdata.malformed} malformed rows in {args.input}", file=sys.stderr)
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
    train = {"markov": models.train_markov, "popularity": models.train_popularity}[args.scorer]
    model = train(split.train, split.catalog.num_items)
    models.save_model(model, args.out)
    print(f"trained {args.scorer} scorer on {len(split.train)} users -> {args.out}")
    return 0


def _check_one_catalog(args, model, split) -> None:
    """The model of `--model` must score the items of the split of `--split`."""
    if model.num_items != split.catalog.num_items:
        raise ValueError(
            f"model {args.model} scores {model.num_items} items but split {args.split} "
            f"holds {split.catalog.num_items}; train the model on that split"
        )


def _model_identity(path, model) -> dict:
    """The header entries that tie records to the model file they were explained with."""
    return {"model_num_items": model.num_items, "model_sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def _build_setting(args, split) -> SettingSpec:
    """The setting flags as a SettingSpec, which rejects a target the setting does not take."""
    name = args.setting
    if name == "targ_un" and args.target_item is None and args.target_stratum is None:
        raise ValueError("targ_un needs --target-item or --target-stratum")
    if name == "targ_cat" and args.target_category is None:
        raise ValueError("targ_cat needs --target-category")
    if args.target_item is not None and args.target_stratum is not None:
        raise ValueError("give --target-item or --target-stratum, not both")
    target_item = args.target_item  # the objective rejects one outside the catalog
    if args.target_stratum is not None:
        stream = derive_stream(args.seed, [TAG_TARGET])
        target_item = dataset.sample_target_item(split, args.target_stratum, stream)
    target_category = None
    if args.target_category is not None:
        if split.categories is None:
            raise ValueError("split has no categories; preprocess with --categories")
        target_category = split.categories.category_id(args.target_category)
    # an unset flag leaves the field at its SettingSpec default
    given = {"threshold": args.threshold, "k_eval": args.k_eval, "untargeted_rank_rule": args.untargeted_rank_rule}
    return SettingSpec.from_name(
        name,
        target_item=target_item,
        target_category=target_category,
        **{key: value for key, value in given.items() if value is not None},
    )


def _ga_config(args, max_len: int) -> search.GaConfig:
    """The explain GA flags as a GaConfig; an unset flag leaves its field at the default."""
    given = {f.name: getattr(args, GA_FLAG_NAMES.get(f.name, f.name), None) for f in fields(search.GaConfig)}
    return search.GaConfig(max_len=max_len, **{key: value for key, value in given.items() if value is not None})


def _oracle_records(sources, setting, model, k, *, max_distance, seed, categories=None):
    """Each user's exhaustive optimum within `max_distance`, or its absence; none searched until all fit the budget."""
    from . import oracle

    budget, m = oracle.ENUMERATION_BUDGET, model.num_items
    over = [user_of(s) for s in sources
            if sum(oracle._level_size(len(s), m, d) for d in range(1, min(max_distance, len(s)) + 1)) > budget]
    if over:
        named = ", ".join(map(str, over[:5])) + (", ..." if len(over) > 5 else "")
        raise oracle.EnumerationBudgetError(f"enumeration through level {max_distance} would exceed {budget} "
                                            f"candidates for {len(over)} of {len(sources)} users: {named}")
    optima = (oracle.oracle_optimal(s, setting, model, k, max_distance, categories=categories) for s in sources)
    # each optimum is (candidate, distance), or None
    return [records.explanation_record(s, "oracle", setting, o and o[0], None, seed) for s, o in zip(sources, optima)]


def _one_user_at_a_time(explain_user):
    """A per-user function `f(source, ...)` as one over a list of sources."""
    return lambda sources, *args, **kwargs: [explain_user(source, *args, **kwargs) for source in sources]


def _method(args, max_len: int):
    """`f(sources, setting, model, k, seed=..., categories=...)` for the method, and its parameter's header entry."""
    if args.method == "gece":
        config = _ga_config(args, max_len)
        return _one_user_at_a_time(partial(search.explain, config=config)), {"ga": asdict(config)}
    if args.method == "oracle":
        return partial(_oracle_records, max_distance=args.max_distance), {"max_distance": args.max_distance}
    from . import baselines

    # the baselines judge the whole sample in one batch
    return partial(baselines.baseline_records, args.method, budget=args.budget), {"budget": args.budget}


def cmd_explain(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    split = dataset.load_split(args.split)
    model = models.load_model(args.model)
    _check_one_catalog(args, model, split)
    setting = _build_setting(args, split)
    seed, k = args.seed, args.k
    explain_users, method_param = _method(args, split.max_len)
    users = dataset.sample_users(split, args.sample_users, derive_stream(seed, [TAG_SAMPLE]))
    out = explain_users([split.train[u] for u in users], setting, model, k, seed=seed, categories=split.categories)
    header = {
        "command": "explain",
        "method": args.method,
        "setting": setting.to_dict(),
        "model": str(args.model),
        **_model_identity(args.model, model),
        "split": str(args.split),
        "k": k,
        "seed": seed,
        "sample_users": args.sample_users,
        **method_param,
    }
    records.write_records(args.out, out, config=header)
    found = sum(1 for r in out if r.counterfactual is not None)
    print(f"{args.method}: {found}/{len(out)} counterfactuals -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    header, recs = records.read_records(args.records)
    if recs[0].setting.categorized and not args.split:  # aggregate_report takes one setting per file
        raise ValueError(f"{args.records}: setting {recs[0].setting.name} is judged by categories; "
                         "evaluate with --split, the split the records were explained with")
    model = models.load_model(args.model)
    categories = None
    if args.split:
        split = dataset.load_split(args.split)
        _check_one_catalog(args, model, split)
        categories = split.categories
    cfg = header.get("config", {})
    own = _model_identity(args.model, model)
    if any(key in cfg and cfg[key] != value for key, value in own.items()):  # files written before these keys skip this
        raise ValueError(
            f"{args.records} was explained with a model of {cfg.get('model_num_items')} items, sha256 "
            f"{cfg.get('model_sha256')}, but {args.model} has {own['model_num_items']} items, sha256 "
            f"{own['model_sha256']}; evaluate with the model the records were explained with"
        )
    m = model.num_items
    try:  # records of another catalog would be scored, or skipped, as if they were of this one
        for rec in recs:
            for name, items in (("source", rec.source), ("counterfactual", rec.counterfactual)):
                if items is not None:  # the model masks a sequence's items, so it scores at most m - 1 of them
                    checked_items(items, f"user {rec.user} {name}", m, m - 1)
    except ValueError as exc:
        raise ValueError(f"{args.records}: {exc} of model {args.model}; "
                         "evaluate with the model the records were explained with") from None
    threshold = recs[0].setting.threshold
    k_list = [k for k in recs[0].setting.k_eval if k <= m]
    meta = {  # the files that scored this report; the header names those the records were explained with
        "dataset": Path(args.split or cfg.get("split") or "").stem,
        "model": Path(args.model).stem,
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


def cmd_reduce_vc(args) -> int:
    from . import vcreduce

    text = read_text(args.graph)
    try:
        graph = vcreduce.Graph.parse(text)
    except ValueError as exc:
        raise ValueError(f"{args.graph}: {exc}") from None
    ks = args.k or range(graph.num_vertices + 1)
    for k in ks:
        has_cover = vcreduce.brute_force_vc(graph, k)
        equivalent = vcreduce.check_equivalence(graph, k)
        print(f"k={k} vertex_cover={str(has_cover).lower()} equivalent={str(equivalent).lower()}")
    return 0


def cmd_report(args) -> int:
    reports = [metrics.read_report_csv(path, metrics.REPORT_COLUMNS)[1] for path in args.inputs]
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
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction corpus")
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="search counterfactuals for sampled users")
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--method", choices=("gece", "random", "educated", "oracle"), default="gece")
    p.add_argument("--setting", choices=SETTING_NAMES, required=True)
    p.add_argument("--target-item", type=int)
    p.add_argument("--target-stratum", choices=dataset.TARGET_STRATA)
    p.add_argument("--target-category")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-users", type=int, default=0)
    p.add_argument("--threshold", type=float)
    p.add_argument("--k-eval", type=_int_list)
    p.add_argument("--untargeted-rank-rule", choices=RANK_RULES)
    # each method reads its own: random and educated --budget, oracle --max-distance, gece the GA flags
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--max-distance", type=int, default=2)
    for f in fields(search.GaConfig):
        if f.name == "max_len":  # the split fixes it
            continue
        dest = GA_FLAG_NAMES.get(f.name, f.name)
        # unset flags keep the GaConfig default
        cast = _float_list if isinstance(f.default, tuple) else type(f.default)
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="at least 1; accepted for compatibility: the search is single-threaded until "
        "process-level parallelism over users lands, and output never depends on it",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="aggregate explanation records into a report")
    p.add_argument("--records", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", help="needed for categorized settings")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reduce-vc", help="vertex-cover reduction equivalence verdicts")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_int_list, help="comma-separated k values (default 0..n)")
    p.set_defaults(func=cmd_reduce_vc)

    p = sub.add_parser("report", help="merge per-seed reports into mean columns")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameter numbers
_MMAP_THRESHOLD_BYTES = 32 << 20  # the highest threshold glibc raises itself to on 64-bit


def _keep_large_blocks_on_the_heap() -> None:
    """Let glibc serve the search's score blocks from the heap and reuse them.

    By default glibc maps each block of 128 KiB or more afresh and unmaps it
    when freed, so every 512 KiB evaluation block (the scorer's output and
    the softmax buffer) faults its pages in again, unless an earlier large
    free happened to raise the threshold. A no-op where the C library has
    no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)  # what glibc pairs with a raised threshold


def main(argv=None) -> int:
    _keep_large_blocks_on_the_heap()
    args = build_parser().parse_args(argv)
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
