import argparse
import json
from dataclasses import fields

import pytest

from seqcf.cli import build_parser, main
from seqcf.dataset import load_split
from seqcf.metrics import read_report_csv
from seqcf.objective import SettingSpec
from seqcf.records import read_records
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

    def test_evaluate_reads_k_and_threshold_from_the_records(self, pipeline):
        out = pipeline["root"] / "k5-1.jsonl"
        report = pipeline["root"] / "k5-1.csv"
        assert main(explain_args(pipeline, out, **{"--k-eval": "5,1", "--threshold": 0.3})) == 0
        assert main(["evaluate", "--records", str(out), "--model", str(pipeline["model"]),
                     "--split", str(pipeline["split"]), "--out", str(report)]) == 0
        config, rows = read_report_csv(report)
        assert (config["k_list"], config["threshold"]) == ([5, 1], 0.3)
        assert [r["k"] for r in rows] == ["5", "1"]

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
    def config_run(pipeline, *flags):
        """explain with a config file setting a GA, a setting and a run field, plus `flags`."""
        cfg = pipeline["root"] / "cfg.json"
        cfg.write_text(json.dumps({"generations": 2, "population": 16, "threshold": 0.3, "sample_users": 2}))
        out = pipeline["root"] / "cfgrun.jsonl"
        args = ["explain", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                "--method", "gece", "--setting", "un_un", "--k", "1", "--seed", "0",
                "--config", str(cfg), *flags, "--out", str(out)]
        assert main(args) == 0
        return read_records(out)

    def test_config_file_supplies_defaults(self, pipeline):
        header, recs = self.config_run(pipeline)
        assert header["config"]["ga"]["generations"] == 2
        assert header["config"]["ga"]["population_size"] == 16
        assert header["config"]["setting"]["threshold"] == 0.3
        assert header["config"]["sample_users"] == len(recs) == 2

    def test_flags_beat_the_config_file(self, pipeline):
        header, recs = self.config_run(pipeline, "--population", "24", "--threshold", "0.7", "--sample-users", "3")
        assert header["config"]["ga"]["generations"] == 2
        assert header["config"]["ga"]["population_size"] == 24
        assert header["config"]["setting"]["threshold"] == 0.7
        assert header["config"]["sample_users"] == len(recs) == 3

    def test_unset_flags_take_the_dataclass_defaults(self, pipeline):
        out = pipeline["root"] / "defaults.jsonl"
        args = ["explain", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                "--method", "random", "--setting", "un_un", "--sample-users", "1", "--out", str(out)]
        assert main(args) == 0
        header, _ = read_records(out)
        ga = header["config"]["ga"]
        assert set(ga) == {f.name for f in fields(GaConfig)}
        expected = GaConfig(max_len=load_split(pipeline["split"]).max_len)
        assert ga == json.loads(json.dumps(vars(expected)))
        assert header["config"]["setting"] == SettingSpec.from_name("un_un").to_dict()

    def test_oracle_command(self, pipeline):
        out = pipeline["root"] / "oracle.jsonl"
        assert main(["oracle", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                     "--setting", "un_un", "--k", "1", "--max-distance", "1",
                     "--sample-users", "3", "--out", str(out)]) == 0
        _, recs = read_records(out)
        assert len(recs) == 3
        assert all(r.method == "oracle" for r in recs)


class TestFailureModes:
    def test_missing_input_is_single_line_error(self, tmp_path, capsys):
        rc = main(["preprocess", "--input", str(tmp_path / "no.tsv"), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("method", ["gece", "random"])
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
        "content, message",
        [
            # the header's own `ga` names are not config keys
            ({"population_size": 16, "max_len": 8}, "unknown config keys max_len, population_size;"),
            ({"populaton": 16, "generations": 2}, "unknown config keys populaton;"),
            ([["population", 16]], "one JSON object"),
            ({"elitism": 0.5}, "unknown config keys elitism;"),
        ],
        ids=["header-ga-names", "typo", "not-an-object", "removed-elitism"],
    )
    def test_unknown_config_keys_rejected(self, pipeline, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out.jsonl"
        rc = main(explain_args(pipeline, out, **{"--config": cfg}))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"population": 16.9}, "config key population takes an integer, got 16.9"),
            ({"generations": True}, "config key generations takes an integer, got True"),
            ({"mutation_prob": True}, "config key mutation_prob takes a number, got True"),
            ({"edit_weight": False}, "config key edit_weight takes a number, got False"),
            ({"mutation_weights": [True, False, True]}, "config key mutation_weights takes numbers, got True"),
            ({"k_eval": [1.5, True]}, "config key k_eval takes integers, got 1.5"),
            ({"k_eval": [1, True]}, "config key k_eval takes integers, got True"),
        ],
        ids=["float-for-int", "bool-for-int", "true-for-float", "false-for-float",
             "bools-in-weights", "fraction-in-k-eval", "bool-in-k-eval"],
    )
    def test_config_values_are_not_coerced(self, pipeline, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out.jsonl"
        rc = main(explain_args(pipeline, out, **{"--config": cfg}))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("explain", ["--elitism", "0.5"]),
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

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_repeated_k_eval_rejected(self, pipeline, tmp_path, capsys, via):
        out = tmp_path / "out.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_eval": [1, 5, 1]}))
        extra = {"--k-eval": "1,5,1"} if via == "flag" else {"--config": cfg}
        assert main(explain_args(pipeline, out, **extra)) == 1
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
        assert capsys.readouterr().err == "error: unsupported model version 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["explain", "oracle"])
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
        args = [command, "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                "--setting", setting, "--sample-users", "1", "--out", str(out)]
        for flag, value in flags.items():
            args += [flag, str(value)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_integral_float_config_value_is_accepted(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": 16.0, "generations": 2}))
        out = tmp_path / "out.jsonl"
        assert main(["explain", "--model", str(pipeline["model"]), "--split", str(pipeline["split"]),
                     "--setting", "un_un", "--sample-users", "1", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_records(out)[0]["config"]["ga"]["population_size"] == 16

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
    "explain": ["--model", "--split", "--method", "--config", "--setting", "--target-item", "--target-stratum",
                "--target-category", "--k", "--seed", "--sample-users", "--threshold", "--k-eval",
                "--untargeted-rank-rule", "--budget", "--generations", "--population", "--mutation-prob",
                "--crossover-prob", "--edit-weight", "--mutation-weights", "--threads", "--out"],
    "evaluate": ["--records", "--model", "--split", "--format", "--out"],
    "oracle": ["--model", "--split", "--setting", "--target-item", "--target-stratum", "--target-category", "--k",
               "--seed", "--sample-users", "--threshold", "--k-eval", "--untargeted-rank-rule", "--max-distance",
               "--out"],
    "reduce-vc": ["--graph", "--k"],
    "report": ["--inputs", "--format", "--out"],
}


def test_parser_flags_snapshot():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [a.option_strings[0] for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }
    assert flags == PARSER_FLAGS
    assert sum(map(len, flags.values())) == 60


class TestReduceVc:
    def test_triangle_verdicts(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text("3\n1 2\n2 3\n1 3\n")
        assert main(["reduce-vc", "--graph", str(graph), "--k", "1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k=1 vertex_cover=false equivalent=true"
        assert out[1] == "k=2 vertex_cover=true equivalent=true"
