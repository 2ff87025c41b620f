import argparse
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import pytest

import seqcf
from seqcf.cli import build_parser, main
from seqcf.core import TAG_SAMPLE, derive_stream
from seqcf.dataset import load_split, sample_users
from seqcf.metrics import hamming, levenshtein, read_report_csv
from seqcf.models import load_model
from seqcf.objective import SettingSpec
from seqcf.oracle import _level_size, oracle_optimal
from seqcf.records import explanation_record, read_records
from seqcf.search import GaConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> preprocess -> train once; hand out the file paths."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "log": root / "log.tsv",
        "cats": root / "cats.tsv",
        "split": root / "split.json",
        "model": root / "model.json",
        "root": root,
    }
    assert main(["synth", "--users", "60", "--items", "40", "--seed", "3",
                 "--out", str(paths["log"]), "--categories-out", str(paths["cats"])]) == 0
    assert main(["preprocess", "--input", str(paths["log"]), "--categories", str(paths["cats"]),
                 "--k-core", "5", "--max-len", "50", "--out", str(paths["split"])]) == 0
    assert main(["train", "--split", str(paths["split"]), "--scorer", "markov",
                 "--out", str(paths["model"])]) == 0
    return paths


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A split and a model of a 25-item corpus, a smaller catalog than `pipeline`'s."""
    root = tmp_path_factory.mktemp("small")
    paths = {"log": root / "log.tsv", "split": root / "split.json", "model": root / "model.json"}
    assert main(["synth", "--users", "40", "--items", "25", "--seed", "3", "--out", str(paths["log"])]) == 0
    assert main(["preprocess", "--input", str(paths["log"]), "--out", str(paths["split"])]) == 0
    assert main(["train", "--split", str(paths["split"]), "--out", str(paths["model"])]) == 0
    return paths


def explain_args(paths, out, method="gece", setting="un_un", **extra):
    args = ["explain", "--model", str(paths["model"]), "--split", str(paths["split"]),
            "--method", method, "--setting", setting, "--k", "1", "--seed", "1",
            "--sample-users", "6", "--generations", "6", "--population", "48",
            "--out", str(out)]
    for flag, value in extra.items():
        args += [flag, str(value)]
    return args


class TestPipeline:
    def test_explain_writes_records_with_provenance(self, pipeline):
        out = pipeline["root"] / "gece.jsonl"
        assert main(explain_args(pipeline, out)) == 0
        header, recs = read_records(out)
        assert header["config"]["method"] == "gece"
        assert header["normalization"] == "softmax"
        assert "threads" not in header["config"]
        assert len(recs) == 6
        assert all(r.method == "gece" for r in recs)

    def test_evaluate_produces_report(self, pipeline):
        out = pipeline["root"] / "g2.jsonl"
        report = pipeline["root"] / "report.csv"
        assert main(explain_args(pipeline, out)) == 0
        assert main(["evaluate", "--records", str(out), "--model", str(pipeline["model"]),
                     "--split", str(pipeline["split"]), "--out", str(report)]) == 0
        config, rows = read_report_csv(report)
        assert config["command"] == "evaluate"
        assert {r["k"] for r in rows} == {"1", "5", "10"}
        assert all(r["method"] == "gece" for r in rows)

    def test_evaluate_json_rows_equal_the_csv_rows(self, pipeline):
        out = pipeline["root"] / "g3.jsonl"
        assert main(explain_args(pipeline, out)) == 0
        reports = {fmt: pipeline["root"] / f"report3.{fmt}" for fmt in ("csv", "json")}
        for fmt, report in reports.items():
            assert main(["evaluate", "--records", str(out), "--model", str(pipeline["model"]),
                         "--split", str(pipeline["split"]), "--format", fmt, "--out", str(report)]) == 0
        config, rows = read_report_csv(reports["csv"])
        doc = json.loads(reports["json"].read_text())
        assert rows and doc["config"] == config
        # csv writes each value with str(), and None as an empty cell
        as_text = [{key: "" if v is None else str(v) for key, v in row.items()} for row in doc["rows"]]
        assert as_text == rows

    def test_evaluate_reads_k_and_threshold_from_the_records(self, pipeline):
        out = pipeline["root"] / "k5-1.jsonl"
        report = pipeline["root"] / "k5-1.csv"
        assert main(explain_args(pipeline, out, **{"--k-eval": "5,1", "--threshold": 0.3})) == 0
        assert main(["evaluate", "--records", str(out), "--model", str(pipeline["model"]),
                     "--split", str(pipeline["split"]), "--out", str(report)]) == 0
        config, rows = read_report_csv(report)
        assert (config["k_list"], config["threshold"]) == ([5, 1], 0.3)
        assert [r["k"] for r in rows] == ["5", "1"]

    def test_evaluate_names_the_model_and_split_it_was_given(self, pipeline):
        out = pipeline["root"] / "named.jsonl"
        assert main(explain_args(pipeline, out)) == 0
        model, split = pipeline["root"] / "other_model.json", pipeline["root"] / "other_split.json"
        shutil.copyfile(pipeline["model"], model)
        shutil.copyfile(pipeline["split"], split)
        report = pipeline["root"] / "named.csv"
        assert main(["evaluate", "--records", str(out), "--model", str(model), "--out", str(report)]) == 0
        _, rows = read_report_csv(report)
        # no --split: the dataset is the one the records header names
        assert rows and all((r["model"], r["dataset"]) == ("other_model", "split") for r in rows)
        assert main(["evaluate", "--records", str(out), "--model", str(model), "--split", str(split),
                     "--out", str(report)]) == 0
        _, rows = read_report_csv(report)
        assert rows and all((r["model"], r["dataset"]) == ("other_model", "other_split") for r in rows)

    def test_report_merges_seeds(self, pipeline):
        csvs = []
        for seed in (1, 2):
            rec = pipeline["root"] / f"s{seed}.jsonl"
            rep = pipeline["root"] / f"s{seed}.csv"
            assert main(explain_args(pipeline, rec, method="random") [:-2]
                        + ["--seed", str(seed), "--out", str(rec)]) == 0
            assert main(["evaluate", "--records", str(rec), "--model", str(pipeline["model"]),
                         "--split", str(pipeline["split"]), "--out", str(rep)]) == 0
            csvs.append(str(rep))
        merged = pipeline["root"] / "merged.csv"
        assert main(["report", "--inputs", *csvs, "--out", str(merged)]) == 0
        _, rows = read_report_csv(merged)
        assert rows
        assert "fidelity_seed1" in rows[0] and "fidelity_seed2" in rows[0]
        assert "fidelity_mean" in rows[0]

    def test_explain_deterministic_across_runs_and_threads(self, pipeline):
        outs = []
        for name, threads in [("a.jsonl", "1"), ("b.jsonl", "1"), ("c.jsonl", "4")]:
            out = pipeline["root"] / name
            assert main(explain_args(pipeline, out, **{"--threads": threads})) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_targeted_category_run(self, pipeline):
        out = pipeline["root"] / "tc.jsonl"
        args = explain_args(pipeline, out, setting="targ_cat", **{"--target-category": "cat1"})
        assert main(args) == 0
        _, recs = read_records(out)
        assert all(r.setting.name == "targ_cat" for r in recs)

    @staticmethod
    def args_file_run(pipeline, *flags, name="argsrun.jsonl"):
        """explain with `flags`, which may name an args file setting a GA, a setting and a run flag."""
        args_file = pipeline["root"] / "run.args"
        # both line forms: `--flag=value`, and flag and value on lines of their own
        args_file.write_text("--generations=2\n--population=16\n--threshold\n0.3\n--sample-users=2\n")
        out = pipeline["root"] / name
        args = ["explain", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                "--method", "gece", "--setting", "un_un", "--k", "1", "--seed", "0",
                *[f"@{args_file}" if flag == "@FILE" else flag for flag in flags], "--out", str(out)]
        assert main(args) == 0
        return out

    def test_args_file_supplies_flags(self, pipeline):
        out = self.args_file_run(pipeline, "@FILE")
        header, recs = read_records(out)
        assert header["config"]["ga"]["generations"] == 2
        assert header["config"]["ga"]["population_size"] == 16
        assert header["config"]["setting"]["threshold"] == 0.3
        assert header["config"]["sample_users"] == len(recs) == 2
        spelled_out = self.args_file_run(pipeline, "--generations", "2", "--population", "16",
                                         "--threshold", "0.3", "--sample-users", "2", name="spelled.jsonl")
        assert out.read_bytes() == spelled_out.read_bytes()

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_later_flags_win_over_the_args_file(self, pipeline, position):
        flags = ["--population", "24", "--threshold", "0.7", "--sample-users", "3"]
        order = flags + ["@FILE"] if position == "before" else ["@FILE"] + flags
        header, recs = read_records(self.args_file_run(pipeline, *order))
        population, threshold, sample = (16, 0.3, 2) if position == "before" else (24, 0.7, 3)
        assert header["config"]["ga"]["generations"] == 2
        assert header["config"]["ga"]["population_size"] == population
        assert header["config"]["setting"]["threshold"] == threshold
        assert header["config"]["sample_users"] == len(recs) == sample

    def test_unset_flags_take_the_dataclass_defaults(self, pipeline, monkeypatch):
        # a search at the reference size is slow: record the config it is handed instead
        handed = []

        def search_explain(source, setting, model, k, config, seed, categories=None):
            handed.append(config)
            return explanation_record(source, "gece", setting, None, None, seed)

        monkeypatch.setattr(seqcf.search, "explain", search_explain)
        out = pipeline["root"] / "defaults.jsonl"
        args = ["explain", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                "--setting", "un_un", "--sample-users", "1", "--out", str(out)]
        assert main(args) == 0
        header, _ = read_records(out)
        expected = GaConfig(max_len=load_split(pipeline["split"]).max_len)
        assert handed == [expected]
        ga = header["config"]["ga"]
        assert set(ga) == {f.name for f in fields(GaConfig)}
        assert ga == json.loads(json.dumps(vars(expected)))
        assert header["config"]["setting"] == SettingSpec.from_name("un_un").to_dict()

    def test_oracle_command(self, pipeline):
        out = pipeline["root"] / "oracle.jsonl"
        assert main(["explain", "--method", "oracle", "--model", str(pipeline["model"]),
                     "--split", str(pipeline["split"]), "--setting", "un_un", "--k", "1", "--max-distance", "1",
                     "--sample-users", "3", "--out", str(out)]) == 0
        _, recs = read_records(out)
        assert len(recs) == 3
        assert all(r.method == "oracle" for r in recs)

    @pytest.mark.parametrize("setting, flags", [("un_un", {}), ("targ_cat", {"--target-category": "cat1"})])
    def test_oracle_records_equal_the_direct_oracle(self, pipeline, setting, flags):
        out = pipeline["root"] / f"oracle-{setting}.jsonl"
        args = explain_args(pipeline, out, method="oracle", setting=setting, **{"--max-distance": 1, **flags})
        assert main(args) == 0
        split, model = load_split(pipeline["split"]), load_model(pipeline["model"])
        header, recs = read_records(out)
        spec = SettingSpec.from_dict(header["config"]["setting"])
        users = sample_users(split, 6, derive_stream(1, [TAG_SAMPLE]))
        expected = []
        for user in users:
            source = split.train[user]
            result = oracle_optimal(source, spec, model, 1, 1, categories=split.categories)
            cand = None if result is None else result[0]
            expected.append(explanation_record(source, "oracle", spec, cand, None, 1))
        lines = out.read_text().splitlines()[1:]
        assert lines == [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for r in expected]
        assert any(r.counterfactual is not None for r in recs)

    @pytest.mark.parametrize(
        "method, own, value",
        [("gece", "ga", 48), ("random", "budget", 3), ("educated", "budget", 3), ("oracle", "max_distance", 1)],
    )
    def test_header_holds_the_method_parameter_only(self, pipeline, method, own, value):
        out = pipeline["root"] / f"header-{method}.jsonl"
        # every method's flags are given; each method records its own only
        args = explain_args(pipeline, out, method=method, setting="targ_cat",
                            **{"--target-category": "cat1", "--budget": 3, "--max-distance": 1})
        assert main(args) == 0
        header, _ = read_records(out)
        config = header["config"]
        assert set(config) == {"command", "method", "setting", "model", "model_num_items", "model_sha256", "split",
                               "split_sha256", "k", "seed", "sample_users", own}
        assert (config["command"], config["method"]) == ("explain", method)
        assert (config[own]["population_size"] if own == "ga" else config[own]) == value


class TestFailureModes:
    def test_missing_input_is_single_line_error(self, tmp_path, capsys):
        rc = main(["preprocess", "--input", str(tmp_path / "no.tsv"), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_preprocess_warns_of_skipped_rows_on_stderr(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        rows = [f"{u}\t{i}\t{u * 10 + i}" for u in range(1, 4) for i in range(3)]
        log.write_text("\n".join(rows + ["4\tx", "nope\ty\t1"]) + "\n")
        out = tmp_path / "split.json"
        assert main(["preprocess", "--input", str(log), "--k-core", "1", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"WARNING skipped 2 malformed rows in {log}\n"
        assert captured.out.startswith("split: 3 users, 3 items (9 rows in")

    def test_preprocess_max_len_zero_names_the_limit(self, pipeline, tmp_path, capsys):
        out = tmp_path / "split.json"
        assert main(["preprocess", "--input", str(pipeline["log"]), "--max-len", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: max_len must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, pipeline, tmp_path, capsys, threads):
        out = tmp_path / "out.jsonl"
        assert main(explain_args(pipeline, out, **{"--threads": threads})) == 1
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
        assert not out.exists()

    def test_split_given_as_model_names_the_file(self, pipeline, tmp_path, capsys):
        args = explain_args(pipeline, tmp_path / "out.jsonl")
        args[args.index("--model") + 1] = str(pipeline["split"])
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {pipeline['split']}: missing or wrong magic header\n"

    def test_unwritable_destination_is_named(self, pipeline, tmp_path, capsys):
        out = tmp_path / "missing" / "m.json"
        assert main(["train", "--split", str(pipeline["split"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("at", [0, -1])
    def test_baseline_batch_with_a_repeating_source_writes_no_records(self, pipeline, tmp_path, capsys, monkeypatch, at):
        # a library caller's split may hold a bare tuple; the loader only makes duplicate-free UserSequences
        load_split = seqcf.dataset.load_split

        def with_a_repeat(path):
            split = load_split(path)
            user = split.users[at]
            return replace(split, train={**split.train, user: (3, 5, 3)})

        monkeypatch.setattr(seqcf.dataset, "load_split", with_a_repeat)
        out = tmp_path / "random.jsonl"
        assert main(explain_args(pipeline, out, method="random", **{"--sample-users": 0})) == 1
        assert capsys.readouterr().err == "error: source repeats an item\n"
        assert not out.exists()

    @staticmethod
    def _oracle_counts(pipeline, max_distance):
        """The candidates each of the 6 sampled users enumerates through `max_distance`, counted as the oracle does."""
        split = load_split(pipeline["split"])
        lengths = {u: len(split.train[u]) for u in sample_users(split, 6, derive_stream(1, [TAG_SAMPLE]))}
        m = split.catalog.num_items
        return {u: sum(_level_size(n, m, d) for d in range(1, min(max_distance, n) + 1)) for u, n in lengths.items()}

    def test_oracle_over_budget_names_the_user(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(seqcf.oracle, "ENUMERATION_BUDGET", 100)
        monkeypatch.setattr(seqcf.oracle, "oracle_optimal", lambda *args, **kwargs: pytest.fail("a user was searched"))
        out = tmp_path / "oracle.jsonl"
        assert main(explain_args(pipeline, out, method="oracle", **{"--max-distance": 2})) == 1
        users = list(self._oracle_counts(pipeline, 2))
        assert capsys.readouterr().err == ("error: enumeration through level 2 would exceed 100 candidates for 6 of 6 "
                                           f"users: {', '.join(map(str, users[:5]))}, ...\n")
        assert not out.exists()

    def test_oracle_budget_is_checked_for_every_user_before_any_search(self, pipeline, tmp_path, capsys, monkeypatch):
        counts = self._oracle_counts(pipeline, 2)
        budget = sorted(counts.values())[3]  # a user at the budget is within it
        over = [u for u, n in counts.items() if n > budget]
        assert 0 < len(over) < 3
        searched = []
        monkeypatch.setattr(seqcf.oracle, "ENUMERATION_BUDGET", budget)
        monkeypatch.setattr(seqcf.oracle, "oracle_optimal", lambda source, *args, **kwargs: searched.append(source))
        out = tmp_path / "oracle.jsonl"
        assert main(explain_args(pipeline, out, method="oracle", **{"--max-distance": 2})) == 1
        assert capsys.readouterr().err == (f"error: enumeration through level 2 would exceed {budget} candidates "
                                           f"for {len(over)} of 6 users: {', '.join(map(str, over))}\n")
        assert searched == [] and not out.exists()
        monkeypatch.setattr(seqcf.oracle, "ENUMERATION_BUDGET", max(counts.values()))
        assert main(explain_args(pipeline, out, method="oracle", **{"--max-distance": 2})) == 0
        assert [source.user for source in searched] == list(counts)

    def test_oracle_subcommand_is_gone(self, pipeline, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                  "--setting", "un_un", "--out", str(pipeline["root"] / "gone.jsonl")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: seqcf ")
        assert "error: argument command: invalid choice: 'oracle'" in err
        assert not (pipeline["root"] / "gone.jsonl").exists()

    def test_educated_untargeted_refused(self, pipeline, capsys):
        out = pipeline["root"] / "na.jsonl"
        rc = main(explain_args(pipeline, out, method="educated"))
        assert rc == 1
        assert "does not apply" in capsys.readouterr().err

    def test_unknown_scorer_is_usage_error(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--split", str(pipeline["split"]), "--scorer", "fancy",
                  "--out", str(pipeline["root"] / "m2.json")])
        assert exc.value.code != 0

    @pytest.mark.parametrize("method", ["gece", "random", "oracle"])
    @pytest.mark.parametrize("target", [-1, "m", 99999])
    def test_out_of_catalog_target_item_rejected(self, pipeline, capsys, method, target):
        m = load_split(pipeline["split"]).catalog.num_items
        target = m if target == "m" else target
        out = pipeline["root"] / "bad_target.jsonl"
        rc = main(explain_args(pipeline, out, method=method, setting="targ_un", **{"--target-item": target}))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"target item {target}" in err and str(m) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, status, message",
        [
            ("--population=16.9", 2, "seqcf explain: error: argument --population: invalid int value: '16.9'"),
            ("--k-eval=1,1", 1, "error: k_eval repeats an entry: [1, 1]"),
            ("--mutation-weights=nan,1,1", 1, "error: mutation_weights are 3 finite non-negative reals"),
            # a records header's `ga` name is not a flag
            ("--population-size=16", 2, "seqcf: error: unrecognized arguments: --population-size=16"),
        ],
        ids=["float-for-int", "repeated-k-eval", "nan-weight", "unknown-flag"],
    )
    def test_args_file_fails_as_the_command_line(self, pipeline, tmp_path, capsys, line, status, message):
        args_file = tmp_path / "run.args"
        args_file.write_text(line + "\n")
        out = tmp_path / "out.jsonl"
        results = []
        for arg in (line, f"@{args_file}"):
            capsys.readouterr()
            try:
                rc = main(explain_args(pipeline, out) + [arg])
            except SystemExit as exc:
                rc = exc.code
            errors = [text for text in capsys.readouterr().err.splitlines() if "error:" in text]
            results.append((rc, errors))
            assert not out.exists()
        assert results[0] == results[1] == (status, [message])

    @pytest.mark.parametrize("command", [["explain"], ["explain", "--method", "oracle"]], ids=["explain", "oracle"])
    def test_negative_sample_users_rejected(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out.jsonl"
        rc = main([*command, "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                   "--setting", "un_un", "--sample-users", "-3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot sample -3 users; give a count >= 0 (0 means every user)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("explain", ["--elitism", "0.5"]),
            ("explain", ["--config", "run.json"]),
            ("synth", ["--chain-prob", "0.5"]),
            ("synth", ["--zipf-exponent", "1.0"]),
            ("synth", ["--num-categories", "4"]),
            ("train", ["--alpha", "0.2"]),
            ("train", ["--beta", "0.5"]),
            ("train", ["--no-mask-seen"]),
            ("evaluate", ["--k-list", "1,5"]),
            ("evaluate", ["--threshold", "0.3"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_removed_flags_rejected(self, pipeline, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        records = pipeline["root"] / "removed-flags.jsonl"
        if command == "evaluate" and not records.exists():
            assert main(explain_args(pipeline, records, method="random")) == 0
        args = {
            "explain": explain_args(pipeline, out),
            "synth": ["synth", "--out", str(out)],
            "train": ["train", "--split", str(pipeline["split"]), "--out", str(out)],
            "evaluate": ["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                         "--out", str(out)],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(args + flag)
        assert exc.value.code != 0
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"seqcf: error: unrecognized arguments: {' '.join(flag)}"]
        assert not out.exists()

    def test_repeated_k_eval_rejected(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(explain_args(pipeline, out, **{"--k-eval": "1,5,1"})) == 1
        assert capsys.readouterr().err == "error: k_eval repeats an entry: [1, 5, 1]\n"
        assert not out.exists()

    def test_version_1_model_file_rejected(self, pipeline, tmp_path, capsys):
        doc = json.loads(pipeline["model"].read_text())
        doc["version"] = 1
        doc["params"]["mask_seen"] = True
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        out = tmp_path / "out.jsonl"
        args = explain_args(pipeline, out)
        args[args.index("--model") + 1] = str(old)
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {old}: unsupported model version 1\n"
        assert not out.exists()

    def test_tampered_model_file_rejected(self, pipeline, tmp_path, capsys):
        doc = json.loads(pipeline["model"].read_text())
        doc["transition"]["counts"][0] = 0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        out = tmp_path / "out.jsonl"
        args = explain_args(pipeline, out)
        args[args.index("--model") + 1] = str(tampered)
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {tampered}: invalid markov model: transition.counts holds a count below 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["explain"], ["explain", "--method", "oracle"]], ids=["explain", "oracle"])
    @pytest.mark.parametrize(
        "setting, flags, message",
        [
            ("un_un", {"--target-item": 3}, "untargeted settings take no target"),
            ("un_un", {"--target-item": 3, "--target-category": "cat1"}, "untargeted settings take no target"),
            ("un_cat", {"--target-stratum": "popular"}, "untargeted settings take no target"),
            ("targ_un", {"--target-item": 3, "--target-stratum": "popular"}, "or --target-stratum, not both"),
            ("targ_un", {"--target-item": 3, "--target-category": "cat1"}, "takes no target_category"),
            ("targ_cat", {"--target-category": "cat1", "--target-item": 3}, "takes no target_item"),
        ],
        ids=["un-item", "un-item-category", "un-stratum", "item-and-stratum", "item-category", "category-item"],
    )
    def test_target_flags_the_setting_does_not_take_rejected(
        self, pipeline, tmp_path, capsys, command, setting, flags, message
    ):
        out = tmp_path / "out.jsonl"
        args = [*command, "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                "--setting", setting, "--sample-users", "1", "--out", str(out)]
        for flag, value in flags.items():
            args += [flag, str(value)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def _records_with(self, pipeline, tmp_path, edit):
        """A gece records file whose second record line is replaced by `edit(line)`."""
        good = pipeline["root"] / "malformed-base.jsonl"
        if not good.exists():
            assert main(explain_args(pipeline, good)) == 0
        lines = good.read_text().splitlines()
        lines[2] = edit(lines[2])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def _error_line(self, capsys, args) -> str:
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_records_line_not_json_names_file_and_line(self, pipeline, tmp_path, capsys):
        bad = self._records_with(pipeline, tmp_path, lambda line: "{" + line[2:])
        err = self._error_line(capsys, ["evaluate", "--records", str(bad), "--model", str(pipeline["model"]),
                                        "--out", str(tmp_path / "r.csv")])
        assert err.startswith(f"error: {bad}:3: Expecting property name")

    def test_record_missing_field_names_file_and_line(self, pipeline, tmp_path, capsys):
        def drop_user(line):
            doc = json.loads(line)
            del doc["user"]
            return json.dumps(doc)

        bad = self._records_with(pipeline, tmp_path, drop_user)
        err = self._error_line(capsys, ["evaluate", "--records", str(bad), "--model", str(pipeline["model"]),
                                        "--out", str(tmp_path / "r.csv")])
        assert err == f"error: {bad}:3: record lacks field 'user'\n"

    def test_report_metric_cell_not_a_number_names_file_line_and_column(self, pipeline, tmp_path, capsys):
        records = pipeline["root"] / "report-input.jsonl"
        if not records.exists():
            assert main(explain_args(pipeline, records, method="random")) == 0
        report = tmp_path / "r.csv"
        assert main(["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                     "--out", str(report)]) == 0
        lines = report.read_text().splitlines()  # the config comment, the column names, then rows
        columns, cells = lines[1].split(","), lines[3].split(",")
        width, lev, n_users = len(columns), columns.index("mean_levenshtein"), columns.index("n_users")
        cases = [  # (config comment, cells of the first row, the error after the path)
            (lines[0], cells[:lev] + ["abc"] + cells[lev + 1 :], ":4: column 'mean_levenshtein' holds 'abc', not a number"),
            ("# config: {", cells, ":1: config comment is not JSON: "),
            ("# config: []", cells, ":1: config comment is not a JSON object"),
            (lines[0], cells[:n_users] + cells[n_users + 1 :], f":4: {width - 1} cells, but the header names {width} columns"),
            (lines[0], cells + ["7"], f":4: {width + 1} cells, but the header names {width} columns"),
        ]
        for i, (config, row, want) in enumerate(cases):
            bad = tmp_path / f"r{i}.csv"
            bad.write_text("\n".join([config, *lines[1:3], ",".join(row), *lines[4:]]) + "\n")
            err = self._error_line(capsys, ["report", "--inputs", str(bad), "--out", str(tmp_path / "m.csv")])
            assert err.startswith(f"error: {bad}{want}")
            assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv-without-columns"])
    def test_report_input_that_is_not_a_seed_report_names_the_column(self, pipeline, tmp_path, capsys, fmt):
        records = pipeline["root"] / "report-input.jsonl"
        if not records.exists():
            assert main(explain_args(pipeline, records, method="random")) == 0
        report = tmp_path / "r.json"
        if fmt == "json":
            assert main(["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                         "--format", "json", "--out", str(report)]) == 0
        else:
            report.write_text("user,item\n1,2\n")
        err = self._error_line(capsys, ["report", "--inputs", str(report), "--out", str(tmp_path / "m.csv")])
        assert err.startswith(f"error: {report}: no column 'method'")
        assert not (tmp_path / "m.csv").exists()

    def test_report_refuses_two_reports_of_one_seed(self, pipeline, tmp_path, capsys):
        # the same seed for 3 and for 5 users: merging them would mix one row's numbers across both
        csvs = []
        for users in (3, 5):
            rec, rep = tmp_path / f"u{users}.jsonl", tmp_path / f"u{users}.csv"
            assert main(explain_args(pipeline, rec, method="random", **{"--sample-users": users})) == 0
            assert main(["evaluate", "--records", str(rec), "--model", str(pipeline["model"]),
                         "--split", str(pipeline["split"]), "--out", str(rep)]) == 0
            csvs.append(str(rep))
        err = self._error_line(capsys, ["report", "--inputs", *csvs, "--out", str(tmp_path / "m.csv")])
        want = "error: seed 1 given twice for row (method, setting, dataset, model, k) = ('random', 'un_un',"
        assert err.startswith(want)
        assert not (tmp_path / "m.csv").exists()

    def test_report_refuses_seeds_of_unequal_samples(self, pipeline, tmp_path, capsys):
        # seed 1 on 3 users and seed 2 on 5: a mean over both would weigh them alike
        csvs = []
        for seed, users in ((1, 3), (2, 5)):
            rec, rep = tmp_path / f"s{seed}.jsonl", tmp_path / f"s{seed}.csv"
            argv = explain_args(pipeline, rec, method="random", **{"--sample-users": users, "--seed": seed})
            assert main(argv) == 0
            assert main(["evaluate", "--records", str(rec), "--model", str(pipeline["model"]),
                         "--split", str(pipeline["split"]), "--out", str(rep)]) == 0
            csvs.append(str(rep))
        err = self._error_line(capsys, ["report", "--inputs", *csvs, "--out", str(tmp_path / "m.csv")])
        assert err.startswith("error: seed 1 has 3 users but seed 2 has 5 for row (method, setting, dataset, model, k)")
        assert not (tmp_path / "m.csv").exists()

    def test_graph_line_with_three_numbers_names_file_and_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("3\n1 2\n\n1 2 3\n")
        err = self._error_line(capsys, ["reduce-vc", "--graph", str(graph)])
        assert err == f"error: {graph}: line 4: expected one edge `u v`, got '1 2 3'\n"

    @pytest.mark.parametrize("command", ["explain", "evaluate"])
    @pytest.mark.parametrize("other", ["model", "split"], ids=["other-model", "other-split"])
    def test_model_and_split_of_other_catalogs_rejected(self, pipeline, small_pipeline, tmp_path, capsys,
                                                        command, other):
        paths = {**pipeline, other: small_pipeline[other]}
        out = tmp_path / "out"
        if command == "explain":
            args = explain_args(paths, out, method="random")
        else:
            args = ["evaluate", "--records", str(self._records_with(pipeline, tmp_path, lambda line: line)),
                    "--model", str(paths["model"]), "--split", str(paths["split"]), "--out", str(out)]
        m_model, m_split = load_model(paths["model"]).num_items, load_split(paths["split"]).catalog.num_items
        assert m_model != m_split
        err = self._error_line(capsys, args)
        assert err == (f"error: model {paths['model']} scores {m_model} items but split {paths['split']} "
                       f"holds {m_split}; train the model on that split\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("explain", "--split"), ("evaluate", "--records"), ("preprocess", "--input"),
         ("preprocess", "--categories"), ("report", "--inputs"), ("reduce-vc", "--graph")],
    )
    def test_file_that_is_not_utf8_names_its_path(self, pipeline, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe{}")
        out = str(tmp_path / "out")
        args = {
            "explain": explain_args(pipeline, out),
            "evaluate": ["evaluate", "--records", "", "--model", str(pipeline["model"]), "--out", out],
            "preprocess": ["preprocess", "--input", str(pipeline["log"]), "--categories", str(pipeline["cats"]),
                           "--out", out],
            "report": ["report", "--inputs", "", "--out", out],
            "reduce-vc": ["reduce-vc", "--graph", ""],
        }[command]
        args[args.index(flag) + 1] = str(bad)
        err = self._error_line(capsys, args)
        assert err == (f"error: {bad}: not UTF-8 text: "
                       "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("other", ["popularity", "smaller-catalog"])
    def test_evaluate_refuses_a_model_other_than_the_headers(self, pipeline, small_pipeline, tmp_path, capsys, other):
        records = self._records_with(pipeline, tmp_path, lambda line: line)
        model = tmp_path / "other.json"
        if other == "popularity":  # the same catalog, other bytes
            assert main(["train", "--split", str(pipeline["split"]), "--scorer", "popularity",
                         "--out", str(model)]) == 0
        else:
            shutil.copy(small_pipeline["model"], model)
        config = read_records(records)[0]["config"]
        m_ours, m_theirs = config["model_num_items"], load_model(model).num_items
        theirs = hashlib.sha256(model.read_bytes()).hexdigest()
        assert config["model_sha256"] == hashlib.sha256(pipeline["model"].read_bytes()).hexdigest() != theirs
        out = tmp_path / "r.csv"
        err = self._error_line(capsys, ["evaluate", "--records", str(records), "--model", str(model),
                                        "--out", str(out)])
        assert err == (f"error: {records} was explained with a model of {m_ours} items, sha256 "
                       f"{config['model_sha256']}, but {model} has {m_theirs} items, sha256 {theirs}; evaluate with "
                       "the model the records were explained with\n")
        assert not out.exists()

    def test_evaluate_reads_a_header_without_the_model_keys_as_before(self, pipeline, tmp_path):
        records = self._records_with(pipeline, tmp_path, lambda line: line)
        header, *lines = records.read_text().splitlines()
        doc = json.loads(header)
        for key in ("model_num_items", "model_sha256"):
            del doc["config"][key]
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([json.dumps(doc), *lines]) + "\n")
        copy = tmp_path / "copy" / "model.json"  # the same bytes at another path are the same model
        copy.parent.mkdir()
        shutil.copy(pipeline["model"], copy)
        reports = []
        for path, model in ((records, copy), (old, pipeline["model"])):
            report = tmp_path / f"{path.stem}.json"
            assert main(["evaluate", "--records", str(path), "--model", str(model), "--format", "json",
                         "--out", str(report)]) == 0
            reports.append(json.loads(report.read_text())["rows"])
        assert reports[0] == reports[1]

    @staticmethod
    def _uncat_and_other_split(pipeline, tmp_path):
        """un_cat records of `pipeline`'s split, and a split of the same log with each item's categories moved."""
        records = tmp_path / "uncat.jsonl"
        assert main(explain_args(pipeline, records, method="random", setting="un_cat")) == 0
        lines = pipeline["cats"].read_text().splitlines()
        cats = tmp_path / "other-cats.tsv"
        cats.write_text("".join(f"{line.split(chr(9))[0]}\t{lines[(i + 7) % len(lines)].split(chr(9))[1]}\n"
                                for i, line in enumerate(lines)))
        other = tmp_path / "other.json"
        assert main(["preprocess", "--input", str(pipeline["log"]), "--categories", str(cats),
                     "--k-core", "5", "--max-len", "50", "--out", str(other)]) == 0
        assert load_split(other).catalog.num_items == load_split(pipeline["split"]).catalog.num_items
        return records, other

    def test_evaluate_refuses_a_split_other_than_the_headers(self, pipeline, tmp_path, capsys):
        records, other = self._uncat_and_other_split(pipeline, tmp_path)
        ours = read_records(records)[0]["config"]["split_sha256"]
        theirs = hashlib.sha256(other.read_bytes()).hexdigest()
        assert ours == hashlib.sha256(pipeline["split"].read_bytes()).hexdigest() != theirs
        out = tmp_path / "r.csv"
        err = self._error_line(capsys, ["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                                        "--split", str(other), "--out", str(out)])
        assert err == (f"error: {records} was explained with a split of sha256 {ours}, but {other} has sha256 "
                       f"{theirs}; evaluate with the split the records were explained with\n")
        assert not out.exists()

    def test_evaluate_takes_the_same_split_bytes_at_another_path(self, pipeline, tmp_path):
        records, _ = self._uncat_and_other_split(pipeline, tmp_path)
        copy = tmp_path / "copy" / "split.json"
        copy.parent.mkdir()
        shutil.copy(pipeline["split"], copy)
        reports = []
        for split in (pipeline["split"], copy):
            report = tmp_path / f"{len(reports)}.json"
            assert main(["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                         "--split", str(split), "--format", "json", "--out", str(report)]) == 0
            reports.append(json.loads(report.read_text())["rows"])
        assert reports[0] == reports[1]

    def test_evaluate_reads_a_header_without_the_split_key_as_before(self, pipeline, tmp_path):
        # an older file names no split digest, so any split of the model's catalog evaluates it
        records, other = self._uncat_and_other_split(pipeline, tmp_path)
        header, *lines = records.read_text().splitlines()
        doc = json.loads(header)
        del doc["config"]["split_sha256"]
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([json.dumps(doc), *lines]) + "\n")
        assert main(["evaluate", "--records", str(old), "--model", str(pipeline["model"]),
                     "--split", str(other), "--out", str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("field", ["source", "counterfactual"])
    def test_evaluate_refuses_an_item_outside_the_models_catalog(self, pipeline, tmp_path, capsys, field):
        # without --split nothing else ties the records to the model: a record
        # without a counterfactual would count as a miss and one with it fail unnamed
        m = load_model(pipeline["model"]).num_items
        users = []

        def edit(line):
            doc = {**json.loads(line), field: [1, m]}
            if (cf := doc["counterfactual"]) is not None:  # the record's own distances
                doc.update(hamming=hamming(doc["source"], cf), levenshtein=levenshtein(doc["source"], cf))
            users.append(doc["user"])
            return json.dumps(doc)

        records = self._records_with(pipeline, tmp_path, edit)
        out = tmp_path / "r.csv"
        err = self._error_line(capsys, ["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                                        "--out", str(out)])
        assert err == (f"error: {records}: user {users[0]} {field} holds item {m}, not an integer id in the catalog "
                       f"[0, {m}) of model {pipeline['model']}; evaluate with the model the records were explained "
                       "with\n")
        assert not out.exists()

    @pytest.mark.parametrize("counterfactual", [True, False], ids=["wrong-distances", "no-counterfactual"])
    def test_evaluate_refuses_distances_its_record_does_not_hold(self, pipeline, tmp_path, capsys, counterfactual):
        # the report's distance columns are the stored ones, so a stored distance must be the record's own
        m = load_model(pipeline["model"]).num_items
        users = []

        def edit(line):
            doc = json.loads(line)
            spare = next(z for z in range(m) if z not in doc["source"])
            doc.update(counterfactual=[*doc["source"][:-1], spare] if counterfactual else None, hamming=2, levenshtein=2)
            users.append(doc["user"])
            return json.dumps(doc)

        records = self._records_with(pipeline, tmp_path, edit)
        out = tmp_path / "r.csv"
        err = self._error_line(capsys, ["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                                        "--out", str(out)])
        held = "a counterfactual at 1 and 1" if counterfactual else "no counterfactual"
        assert err == f"error: {records}:3: user {users[0]} stores hamming 2 and levenshtein 2 for {held}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "items, message",
        [
            (lambda src, spare: ([], [spare]), "source is empty"),
            (lambda src, spare: ([src[0]] * 3, None), "source repeats an item"),
            (lambda src, spare: ([src[0]] * 3, [src[0], spare]), "source repeats an item"),
            (lambda src, spare: (src, [*src, src[0]]), "counterfactual repeats an item"),
            (lambda src, spare: (src, []), "counterfactual is empty"),
        ],
        ids=["empty-source", "equal-items-source", "equal-items-source-found", "repeated-counterfactual",
             "empty-counterfactual"],
    )
    def test_evaluate_refuses_empty_or_repeated_items(self, pipeline, tmp_path, capsys, items, message):
        # no explainer writes such a row; the line stores the distances its items would have
        m = load_model(pipeline["model"]).num_items

        def edit(line):
            doc = json.loads(line)
            spare = next(z for z in range(m) if z not in doc["source"])
            source, cf = items(doc["source"], spare)
            ham, lev = (None, None) if cf is None else (hamming(source, cf), levenshtein(source, cf))
            doc.update(source=source, counterfactual=cf, hamming=ham, levenshtein=lev)
            return json.dumps(doc)

        records = self._records_with(pipeline, tmp_path, edit)
        out = tmp_path / "r.csv"
        err = self._error_line(capsys, ["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                                        "--out", str(out)])
        assert err == f"error: {records}:3: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("found", [True, False], ids=["as-explained", "no-counterfactual"])
    def test_evaluate_categorized_records_need_the_split(self, pipeline, tmp_path, capsys, found):
        records = tmp_path / "uncat.jsonl"
        assert main(explain_args(pipeline, records, method="random", setting="un_cat")) == 0
        header, *lines = records.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert any(doc["counterfactual"] for doc in docs)
        if not found:
            for doc in docs:
                doc.update(counterfactual=None, hamming=None, levenshtein=None, generation_found=None)
            records.write_text("\n".join([header, *map(json.dumps, docs)]) + "\n")
        out = tmp_path / "r.csv"
        err = self._error_line(capsys, ["evaluate", "--records", str(records), "--model", str(pipeline["model"]),
                                        "--out", str(out)])
        assert err == (f"error: {records}: setting un_cat is judged by categories; "
                       "evaluate with --split, the split the records were explained with\n")
        assert not out.exists()

    def test_evaluate_empty_records_rejected(self, pipeline, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(
            '{"record_type":"header","format":"seqcf-explanations.v1","normalization":"softmax","config":{}}\n'
        )
        rc = main(["evaluate", "--records", str(empty), "--model", str(pipeline["model"]),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1


# every subcommand's flags; a flag added or removed is a deliberate edit here
PARSER_FLAGS = {
    "synth": ["--users", "--items", "--seed", "--out", "--categories-out"],
    "preprocess": ["--input", "--categories", "--k-core", "--max-len", "--out"],
    "train": ["--split", "--scorer", "--out"],
    "explain": ["--model", "--split", "--method", "--setting", "--target-item", "--target-stratum",
                "--target-category", "--k", "--seed", "--sample-users", "--threshold", "--k-eval",
                "--untargeted-rank-rule", "--budget", "--max-distance", "--generations", "--population",
                "--mutation-prob", "--crossover-prob", "--edit-weight", "--mutation-weights", "--threads", "--out"],
    "evaluate": ["--records", "--model", "--split", "--format", "--out"],
    "reduce-vc": ["--graph", "--k"],
    "report": ["--inputs", "--format", "--out"],
}


def _fresh_python(code: str, *argv: str) -> str:
    """The stdout of `code` run by a new interpreter on this package, which must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(seqcf.__file__).parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStartUp:
    """Start-up pays only for the modules a command uses."""

    LAZY = ("numpy.ma", "seqcf.oracle", "seqcf.vcreduce", "seqcf.baselines", "logging")
    LOADED = f"import sys; print(sorted(m for m in {LAZY} if m in sys.modules))"

    def test_importing_the_cli_loads_neither_subcommand_modules_nor_numpy_ma(self):
        assert _fresh_python("import seqcf.cli; " + self.LOADED) == "[]\n"

    def test_explain_through_the_radius1_ball_loads_no_numpy_ma(self, pipeline, tmp_path):
        out = tmp_path / "ball.jsonl"
        # at 1024 x 30 every ball of this 40-item catalog is scored before the GA
        args = explain_args(pipeline, out, **{"--population": 1024, "--generations": 30, "--sample-users": 2})
        loaded = _fresh_python("import sys; from seqcf.cli import main; main(sys.argv[1:]); " + self.LOADED, *args)
        assert loaded.splitlines()[-1] == "[]"  # after the command's own line
        _, recs = read_records(out)
        assert len(recs) == 2 and all(r.generation_found == 0 for r in recs)  # each answered by the ball

    def test_explain_through_the_genetic_search_loads_no_numpy_ma(self, pipeline, tmp_path):
        out = tmp_path / "ga.jsonl"
        # at 8 x 2 no ball of this 40-item catalog is scored first, so selection's distinct pass runs
        args = explain_args(pipeline, out, **{"--population": 8, "--generations": 2, "--sample-users": 2})
        loaded = _fresh_python("import sys; from seqcf.cli import main; main(sys.argv[1:]); " + self.LOADED, *args)
        assert loaded.splitlines()[-1] == "[]"  # after the command's own line
        _, recs = read_records(out)
        assert len(recs) == 2 and all(r.generation_found != 0 for r in recs)

    def test_random_baseline_explain_loads_no_numpy_ma(self, pipeline, tmp_path):
        out = tmp_path / "random.jsonl"
        args = explain_args(pipeline, out, method="random", setting="un_cat", **{"--sample-users": 0})
        loaded = _fresh_python("import sys; from seqcf.cli import main; main(sys.argv[1:]); " + self.LOADED, *args)
        assert loaded.splitlines()[-1] == "['seqcf.baselines']"  # after the command's own line
        _, recs = read_records(out)
        assert len(recs) == len(load_split(pipeline["split"]).train)

    def test_every_public_name_resolves(self):
        code = "import seqcf; print(len(seqcf.__all__), all(getattr(seqcf, n) is not None for n in seqcf.__all__))"
        assert _fresh_python(code) == "51 True\n"
        assert _fresh_python("from seqcf import *; print(callable(explain), callable(reduce))") == "True True\n"


def test_parser_flags_snapshot():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [a.option_strings[0] for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }
    assert flags == PARSER_FLAGS
    assert sum(map(len, flags.values())) == 46


# keyword defaults of the public API: a settable value added or removed is a deliberate edit here
PUBLIC_KEYWORD_DEFAULTS = {
    "Catalog": 1, "CategoryMap": 1, "GaConfig": 7, "InteractionLog": 1, "MarkovScorer": 2, "PopularityScorer": 1, "SettingSpec": 5,
    "SplitDataset": 2, "UserSequence": 1, "aggregate_report": 2, "baseline_educated": 3, "baseline_random": 3,
    "explain": 3, "genetic": 3, "is_valid": 1, "k_core_filter": 1, "leave_one_out_split": 1, "objective_loss": 1,
    "oracle_optimal": 1, "synthesize_corpus": 3,
    "train_markov": 2, "train_popularity": 1, "write_records": 1,
}


def _keyword_defaults(obj) -> int:
    """Dataclass fields with a default, or a callable's parameters with one; exceptions hold none."""
    if is_dataclass(obj):
        return sum(f.default is not MISSING or f.default_factory is not MISSING for f in fields(obj))
    if isinstance(obj, type) and issubclass(obj, Exception):
        return 0
    return sum(p.default is not p.empty for p in inspect.signature(obj).parameters.values())


def test_public_keyword_defaults_snapshot():
    counts = {name: _keyword_defaults(getattr(seqcf, name)) for name in seqcf.__all__}
    assert {name: n for name, n in counts.items() if n} == PUBLIC_KEYWORD_DEFAULTS
    assert sum(counts.values()) == 47


class TestReduceVc:
    def test_triangle_verdicts(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text("3\n1 2\n2 3\n1 3\n")
        assert main(["reduce-vc", "--graph", str(graph), "--k", "1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k=1 vertex_cover=false equivalent=true"
        assert out[1] == "k=2 vertex_cover=true equivalent=true"
