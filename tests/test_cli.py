"""End-to-end command line runs on a small synthetic bundle."""

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from stubserver import StubScorerServer, answer_first_label

import gicl
from gicl import training
from gicl.cli import CONFIG_KEYS, SCORER_KEYS, UNRECORDED, build_parser, main, resolve_inputs
from gicl.encoder import EmbeddingTable
from gicl.graphstore import bundle_hash, load_bundle, sample_label_fraction
from gicl.nncore import ParamSet
from gicl.pipeline import RunManifest, read_report
from gicl.prompts import DEFAULT_TEMPLATE
from gicl.scoring import ScorerSpec
from gicl.training import TrainConfig


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "bundle"
    code = main([
        "synth", "--n", "150", "--classes", "3", "--pin", "0.2", "--pout", "0.01",
        "--dim", "8", "--noise", "0.3", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


TRAIN_FLAGS = ["--scorer-kind", "oracle", "--fraction", "0.3", "--seed", "2",
               "--epochs", "20", "--hidden-dim", "16", "--n-layers", "2",
               "--k-feedback", "4", "--single-thread"]


@pytest.fixture(scope="module")
def model_dir(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "m"
    code = main(["train", "--bundle", str(bundle), "--out", str(out), *TRAIN_FLAGS])
    assert code == 0
    return out


class TestSynthPrepare:
    def test_prepare_reports_stats(self, bundle, capsys):
        stats = run(["prepare", str(bundle)], capsys)
        assert stats["nodes"] == 150
        assert stats["classes"] == 3
        assert stats["labeled"] == 150

    def test_prepare_rejects_broken_bundle(self, tmp_path, capsys):
        (tmp_path / "junk").mkdir()
        assert main(["prepare", str(tmp_path / "junk")]) == 1
        assert "missing" in capsys.readouterr().err

    def test_synth_is_deterministic(self, bundle, tmp_path, capsys):
        again = tmp_path / "again"
        run(["synth", "--n", "150", "--classes", "3", "--pin", "0.2", "--pout", "0.01",
             "--dim", "8", "--noise", "0.3", "--seed", "5", "--out", str(again)], capsys)
        for name in ("nodes.jsonl", "edges.tsv", "features.bin", "labels.json"):
            assert (again / name).read_bytes() == (bundle / name).read_bytes()

    def test_synth_bundle_hash_is_pinned(self, bundle):
        assert bundle_hash(bundle) == "9f8e6a34641135c2"

    @pytest.mark.parametrize("flags, name", [
        (["--n", "0", "--classes", "0"], "n_classes"),
        (["--n", "3", "--classes", "0"], "n_classes"),
        (["--n", "3", "--classes", "-1"], "n_classes"),
        (["--n", "3", "--classes", "1", "--noise", "nan"], "noise"),
        (["--n", "3", "--classes", "1", "--noise", "inf"], "noise"),
        (["--n", "3", "--classes", "1", "--noise", "-1"], "noise"),
    ])
    def test_synth_refuses_bad_inputs(self, flags, name, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["synth", *flags, "--pin", "0.5", "--pout", "0.1", "--out", str(out)])
        assert code == 1
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestTrainArtifacts:
    def test_model_directory_contents(self, model_dir):
        for name in ("params.bin", "manifest.json", "train_log.csv", "embeddings.bin", "embeddings.json"):
            assert (model_dir / name).is_file(), name

    def test_training_log_columns(self, model_dir):
        header = (model_dir / "train_log.csv").read_text().splitlines()[0]
        assert header == "epoch,round,loss_total,loss_feedback,loss_clf,lr"

    def test_bad_learning_rate_is_refused_before_training(self, bundle, tmp_path, capsys):
        out = tmp_path / "m"
        code = main(["train", "--bundle", str(bundle), "--out", str(out), *TRAIN_FLAGS,
                     "--lr", "-1"])
        assert code == 1
        assert "lr must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_retrain_that_fails_midway_leaves_no_usable_model(self, bundle, tmp_path, capsys,
                                                              monkeypatch):
        mdir, reports = tmp_path / "m", tmp_path / "reports"
        train = ["train", "--bundle", str(bundle), "--out", str(mdir), *TRAIN_FLAGS]
        run(train, capsys)

        def disk_full(table, path_prefix):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(EmbeddingTable, "save", disk_full)
            assert main([*train, "--epochs", "5"]) == 1
        assert "No space left" in capsys.readouterr().err
        code = main(["infer", "--bundle", str(bundle), "--model", str(mdir), "--k-icl", "4",
                     "--out", str(reports), "--scorer-kind", "oracle", "--single-thread"])
        assert code == 1
        assert "did not finish" in capsys.readouterr().err
        assert not reports.exists()

    def test_manifest_carries_config(self, model_dir):
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 20
        assert manifest["config"]["fraction"] == 0.3
        assert "manifest_hash" in manifest


class TestInferAndBaselines:
    def test_infer_writes_report(self, bundle, model_dir, tmp_path, capsys):
        out = tmp_path / "reports"
        summary = run(["infer", "--bundle", str(bundle), "--model", str(model_dir),
                       "--k-icl", "4", "--out", str(out), "--scorer-kind", "oracle",
                       "--single-thread"], capsys)
        assert summary["strategy"] == "askgnn"
        assert summary["n"] == 30  # default 20% test carve of 150 nodes
        csvs = list(out.glob("report-askgnn-*.csv"))
        assert len(csvs) == 1
        assert summary["accuracy"] >= 0.8

    def test_eval_recomputes_summary(self, bundle, model_dir, tmp_path, capsys):
        out = tmp_path / "reports"
        summary = run(["infer", "--bundle", str(bundle), "--model", str(model_dir),
                       "--k-icl", "4", "--out", str(out), "--scorer-kind", "oracle",
                       "--single-thread"], capsys)
        csv_path = next(out.glob("report-askgnn-*.csv"))
        evald = run(["eval", "--report", str(csv_path)], capsys)
        assert evald["accuracy"] == summary["accuracy"]
        assert evald["n"] == summary["n"]

    @pytest.mark.parametrize("strategy", ["zero_shot", "few_rand", "few_knn", "mv_knn", "npl"])
    def test_unlearned_baselines(self, bundle, tmp_path, capsys, strategy):
        out = tmp_path / "reports"
        summary = run(["baseline", "--bundle", str(bundle), "--strategy", strategy,
                       "--k-icl", "3", "--out", str(out), "--scorer-kind", "oracle",
                       "--fraction", "0.3", "--seed", "2", "--single-thread"], capsys)
        assert summary["strategy"] == strategy
        assert summary["n"] == 30  # default 20% test carve of 150 nodes

    def test_splits_file_names_the_test_set(self, bundle, tmp_path, capsys):
        preset = tmp_path / "bundle"
        shutil.copytree(bundle, preset)
        argv = ["baseline", "--bundle", str(preset), "--strategy", "few_knn", "--k-icl", "3",
                "--out", str(tmp_path / "reports"), "--scorer-kind", "oracle", "--single-thread"]
        (preset / "splits.json").write_text(json.dumps({"test": [4, 77]}))
        assert run(argv, capsys)["n"] == 2
        (preset / "splits.json").write_text(json.dumps({"test": [-1, 5]}))
        assert main(argv) == 1
        assert "test id -1 is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("splits",
                             [{"test": []}, {"labeled": [1, 2]}, {"test": [1.5]}, [1, 2]])
    def test_splits_file_without_test_ids_is_refused(self, bundle, tmp_path, capsys, splits):
        preset = tmp_path / "bundle"
        shutil.copytree(bundle, preset)
        (preset / "splits.json").write_text(json.dumps(splits))
        out = tmp_path / "reports"
        assert main(["baseline", "--bundle", str(preset), "--strategy", "few_knn", "--k-icl", "3",
                     "--out", str(out), "--scorer-kind", "oracle", "--single-thread"]) == 1
        assert "splits.json: 'test' must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_purify_budget_below_one_is_refused(self, bundle, model_dir, tmp_path, capsys,
                                                budget):
        out = tmp_path / "reports"
        assert main(["infer", "--bundle", str(bundle), "--model", str(model_dir),
                     "--k-icl", "4", "--out", str(out), "--scorer-kind", "oracle",
                     "--purify", "llm_select", "--purify-budget", budget,
                     "--single-thread"]) == 1
        assert f"purify budget must be at least 1, got {budget}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("purify", [[], ["--purify", "minority"]])
    def test_purify_budget_without_llm_select_is_refused(self, bundle, model_dir, tmp_path,
                                                         capsys, purify):
        out = tmp_path / "reports"
        assert main(["infer", "--bundle", str(bundle), "--model", str(model_dir),
                     "--k-icl", "4", "--out", str(out), "--scorer-kind", "oracle",
                     *purify, "--purify-budget", "3", "--single-thread"]) == 1
        assert "purify budget needs purify 'llm_select'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["mv_askgnn", "npg"])
    def test_model_baselines(self, bundle, model_dir, tmp_path, capsys, strategy):
        out = tmp_path / "reports"
        summary = run(["baseline", "--bundle", str(bundle), "--strategy", strategy,
                       "--model", str(model_dir), "--k-icl", "3", "--out", str(out),
                       "--scorer-kind", "oracle", "--single-thread"], capsys)
        assert summary["n"] == 30  # default 20% test carve of 150 nodes

    @pytest.mark.parametrize("strategy, model", [("mv_knn", False), ("mv_askgnn", True)])
    def test_vote_at_k_icl_zero_has_nothing_to_vote_on(self, bundle, model_dir, tmp_path, capsys,
                                                       strategy, model):
        out = tmp_path / "reports"
        summary = run(["baseline", "--bundle", str(bundle), "--strategy", strategy,
                       *(["--model", str(model_dir)] if model else []), "--k-icl", "0",
                       "--out", str(out), "--scorer-kind", "oracle", "--single-thread"], capsys)
        assert summary["n"] == summary["unparsed"] == 30
        rows = read_report(next(out.glob(f"report-{strategy}-*.csv")))
        assert len(rows) == 30
        assert {(r.predicted, r.n_icl, r.parsed, r.note) for r in rows} == {
            (None, 0, False, "no examples to vote on")}

    def test_model_directory_with_the_removed_loss_keys_still_loads(self, bundle, model_dir,
                                                                    tmp_path, capsys):
        # manifests written before the one-positive loss recorded its two options, and
        # before the coverage floor was fixed, that floor and a top-level copy of the seed
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)
        manifest = json.loads((legacy / "manifest.json").read_text())
        manifest["config"].update({"feedback_mode": "top_m", "top_m": 1, "coverage_floor": 0.5})
        manifest["seed"] = manifest["config"]["seed"]
        (legacy / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
        common = ["--bundle", str(bundle), "--scorer-kind", "oracle", "--single-thread"]
        reports = []
        for mdir in (legacy, model_dir):
            out = tmp_path / f"reports-{mdir.name}"
            run(["infer", *common, "--model", str(mdir), "--k-icl", "4", "--out", str(out)], capsys)
            (csv_path,) = out.glob("report-askgnn-*.csv")
            reports.append((csv_path.name, csv_path.read_bytes()))
        assert reports[0] == reports[1]
        summary = run(["baseline", *common, "--strategy", "mv_askgnn", "--model", str(legacy),
                       "--k-icl", "3", "--out", str(tmp_path / "mv")], capsys)
        assert summary["n"] == 30 and summary["unparsed"] == 0
        summary = run(["feedback", *common, "--model", str(legacy)], capsys)
        assert summary["coverage"] == 1.0 and summary["queries"] > 0

    def test_model_baseline_without_model_errors(self, bundle, tmp_path, capsys):
        code = main(["baseline", "--bundle", str(bundle), "--strategy", "npg",
                     "--out", str(tmp_path / "r"), "--scorer-kind", "oracle"])
        assert code == 1
        assert "--model" in capsys.readouterr().err

    def test_model_on_another_bundle_is_refused(self, bundle, model_dir, tmp_path, capsys):
        other = tmp_path / "other"
        run(["synth", "--n", "150", "--classes", "3", "--pin", "0.2", "--pout", "0.01",
             "--dim", "8", "--noise", "0.3", "--seed", "6", "--out", str(other)], capsys)
        trained = json.loads((model_dir / "manifest.json").read_text())["bundle_hash"]
        out = tmp_path / "reports"
        for argv in (["infer"], ["infer", "--force"], ["baseline", "--strategy", "mv_askgnn"]):
            code = main([*argv, "--bundle", str(other), "--model", str(model_dir),
                         "--out", str(out), "--scorer-kind", "oracle", "--single-thread"])
            err = capsys.readouterr().err
            assert code == 1
            assert trained in err and bundle_hash(other) in err
        assert not out.exists() or not any(out.iterdir())

    def test_feedback_command_writes_set(self, bundle, model_dir, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        out = tmp_path / "feedback.json"
        summary = run(["feedback", "--bundle", str(bundle), "--model", str(model_dir),
                       "--cache", str(cache), "--out", str(out),
                       "--scorer-kind", "oracle", "--single-thread"], capsys)
        assert summary["coverage"] == 1.0
        assert cache.is_file()
        payload = json.loads(out.read_text())
        assert set(payload) == {"coverage", "queries"} and payload["queries"]

    def test_feedback_without_model_scores_a_fresh_encoder_once(self, bundle, tmp_path, capsys):
        cache, out = tmp_path / "cache.jsonl", tmp_path / "feedback.json"
        argv = ["feedback", "--bundle", str(bundle), "--cache", str(cache), "--out", str(out),
                "--scorer-kind", "oracle", "--fraction", "0.3", "--seed", "2",
                "--k-feedback", "4", "--single-thread"]
        summary = run(argv, capsys)
        split = sample_label_fraction(load_bundle(bundle), 0.3, 2)
        assert summary["coverage"] == 1.0
        assert summary["queries"] == len(split.labeled_ids)
        payload = out.read_text()
        queries = json.loads(payload)["queries"]
        assert sorted(map(int, queries)) == split.labeled_ids.tolist()
        pairs = sum(len(q["examples"]) for q in queries.values())
        assert pairs == 4 * len(split.labeled_ids)
        lines = cache.read_bytes()
        assert lines.count(b"\n") == pairs * 3  # one perplexity per pair and class
        out.unlink()
        assert run(argv, capsys) == summary
        assert cache.read_bytes() == lines
        assert out.read_text() == payload

    def test_feedback_with_model_collects_over_the_models_split(self, bundle, model_dir,
                                                                capsys):
        summary = run(["feedback", "--bundle", str(bundle), "--model", str(model_dir),
                       "--scorer-kind", "oracle", "--single-thread"], capsys)
        split = sample_label_fraction(load_bundle(bundle), 0.3, 2)  # TRAIN_FLAGS
        assert summary["queries"] == len(split.query_train_ids)

    def test_feedback_reads_a_model_trained_on_another_bundle(self, model_dir, tmp_path,
                                                              capsys):
        other = tmp_path / "other"
        run(["synth", "--n", "150", "--classes", "3", "--pin", "0.2", "--pout", "0.01",
             "--dim", "8", "--noise", "0.3", "--seed", "6", "--out", str(other)], capsys)
        summary = run(["feedback", "--bundle", str(other), "--model", str(model_dir),
                       "--scorer-kind", "oracle", "--single-thread"], capsys)
        assert summary["queries"] > 0

    def test_sweep_emits_csv(self, bundle, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        summary = run(["sweep", "--bundle", str(bundle), "--axis", "k_icl",
                       "--values", "2,4", "--out", str(out), "--scorer-kind", "oracle",
                       "--fraction", "0.3", "--seed", "2", "--epochs", "10",
                       "--hidden-dim", "8", "--n-layers", "1", "--single-thread"], capsys)
        assert summary["rows"] == 2
        lines = out.read_text().splitlines()
        assert lines[0] == "value,accuracy,error"
        assert len(lines) == 3


def write_legacy_model_dir(bundle, out):
    """A model directory as gicl 0.1.0 wrote it for TRAIN_FLAGS: two GraphSAGE layers
    (``w_self``, ``w_neigh`` and ``b`` each) and the head in params.bin, the embeddings,
    a training log and a version-0.1.0 manifest. The values are seeded draws, so the
    directory does not depend on how this version trains."""
    rng = np.random.default_rng(21)
    arrays = {}
    for i, d_in in enumerate((8, 16)):
        arrays[f"layer{i}.w_self"] = rng.uniform(-0.4, 0.4, (d_in, 16))
        arrays[f"layer{i}.w_neigh"] = rng.uniform(-0.4, 0.4, (d_in, 16))
        arrays[f"layer{i}.b"] = np.zeros((1, 16))
    arrays["head.w"] = rng.uniform(-0.5, 0.5, (16, 3))
    arrays["head.b"] = np.zeros((1, 3))
    params = ParamSet(arrays)
    vectors = rng.standard_normal((150, 16))
    out.mkdir()
    params.save(out / "params.bin")
    EmbeddingTable(vectors=vectors / np.linalg.norm(vectors, axis=1, keepdims=True)).save(
        out / "embeddings")
    (out / "train_log.csv").write_text("epoch,round,loss_total,loss_feedback,loss_clf,lr\n"
                                       "0,0,1.25,1.5,1.0,0.01\n")
    config = {"beta": 0.2, "dropout": 0.5, "epochs": 20, "fraction": 0.3, "hidden_dim": 16,
              "k_feedback": 4, "k_icl": 30, "lr": 0.01, "n_layers": 2, "rounds": 1, "seed": 2,
              "tau": 1.0}
    RunManifest(config=config, bundle_hash=bundle_hash(bundle),
                template_hash=DEFAULT_TEMPLATE.template_hash,
                scorer_id=ScorerSpec(kind="oracle").scorer_id, version="0.1.0",
                created_at=0.0).save(out / "manifest.json")
    return out


class TestLegacyModelDirectory:
    """A GraphSAGE model directory from gicl 0.1.0: the commands that read its stored
    embeddings and head still run; the one that re-encodes the graph refuses it."""

    COMMON = ["--scorer-kind", "oracle", "--single-thread"]
    # sha256 prefixes of the report CSVs for write_legacy_model_dir. askgnn and mv_askgnn
    # are the bytes gicl 0.1.0 writes. npg is not: the oracle now answers from the head's
    # pseudo-labels its prompts show, where 0.1.0's read the neighbours' true labels
    # (a657e34c0a55fa20)
    REPORTS_0_1_0 = {
        "askgnn": "8abf29c5e19207f9",
        "mv_askgnn": "9c8e9aea301981b4",
        "npg": "de6ad621b2dfaac3",
    }

    def test_infer_and_model_baselines_write_the_reports_of_0_1_0(self, bundle, tmp_path, capsys):
        legacy = write_legacy_model_dir(bundle, tmp_path / "legacy")
        digests = {}
        for strategy, argv in (("askgnn", ["infer", "--k-icl", "4"]),
                               ("mv_askgnn", ["baseline", "--strategy", "mv_askgnn", "--k-icl", "3"]),
                               ("npg", ["baseline", "--strategy", "npg"])):
            out = tmp_path / strategy
            run([*argv, "--bundle", str(bundle), *self.COMMON, "--model", str(legacy),
                 "--out", str(out)], capsys)
            (csv_path,) = out.glob(f"report-{strategy}-*.csv")
            digests[strategy] = hashlib.sha256(csv_path.read_bytes()).hexdigest()[:16]
        assert digests == self.REPORTS_0_1_0

    def test_feedback_is_refused_by_name_before_any_scorer_call(self, bundle, tmp_path, capsys,
                                                                 monkeypatch):
        legacy = write_legacy_model_dir(bundle, tmp_path / "legacy")
        calls = []
        monkeypatch.setattr(training, "rank_candidates", lambda *a, **kw: calls.append(a))
        code = main(["feedback", "--bundle", str(bundle), *self.COMMON, "--model", str(legacy)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no mlp.w1" in err and "GraphSAGE" in err and "retrain" in err
        assert calls == []


class TestConfigFile:
    def test_config_file_with_flag_override(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "epochs": 8, "hidden_dim": 8, "n_layers": 1, "k_feedback": 3,
            "seed": 4, "fraction": 0.3, "scorer": {"kind": "oracle"},
        }))
        out = tmp_path / "model"
        summary = run(["train", "--bundle", str(bundle), "--config", str(cfg),
                       "--out", str(out), "--epochs", "5", "--single-thread"], capsys)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 5  # flag wins
        assert manifest["config"]["hidden_dim"] == 8  # file value kept

    def test_flag_then_model_then_file(self, bundle, model_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fraction": 0.5, "seed": 9, "k_icl": 2, "tau": 0.5}))
        args = build_parser().parse_args([
            "infer", "--bundle", str(bundle), "--model", str(model_dir), "--config", str(cfg),
            "--out", str(tmp_path), "--k-icl", "4"])
        inputs = resolve_inputs(args)
        assert inputs.config.k_icl == 4  # flag
        assert inputs.config.fraction == 0.3 and inputs.config.seed == 2  # model, not file
        assert inputs.config.tau == 1.0  # the model's value, not the file's

    def test_bad_scorer_block_fails_before_any_request(self, bundle, tmp_path, capsys):
        with StubScorerServer() as server:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"epochs": 2, "scorer": {
                "kind": "http", "endpoint": server.endpoint, "retries": -1}}))
            code = main(["train", "--bundle", str(bundle), "--config", str(cfg),
                         "--out", str(tmp_path / "model")])
            assert server.requests == [] and server.connections == 0
        assert code == 1
        assert "retries must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()


    @pytest.mark.parametrize("cfg, key", [
        ({"bta": 0.9, "epochs": 1}, "bta"),
        ({"epochs": 1, "scorer": {"kind": "oracle", "max_paralel": 4}}, "scorer.max_paralel"),
        ({"scorer": {"oracle_alpha": 3.0}}, "scorer.oracle_alpha"),
        ({"feedback_mode": "top_m", "epochs": 1}, "feedback_mode"),  # options of the old loss
        ({"top_m": 1}, "top_m"),
        ({"coverage_floor": 0.5}, "coverage_floor"),  # now the fixed training.COVERAGE_FLOOR
    ])
    def test_unknown_key_is_refused_before_the_bundle_loads(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["train", "--bundle", str(tmp_path / "no-bundle"), "--config", str(path),
                     "--out", str(tmp_path / "model")])
        assert code == 1
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"k_icl": 2.5}, "k_icl must be an integer, got 2.5"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"beta": "0.2"}, "beta must be a number, got '0.2'"),
    ])
    def test_value_of_the_wrong_type_is_refused_before_any_scorer_call(self, bundle, tmp_path,
                                                                       capsys, cfg, message):
        path, cache, out = tmp_path / "config.json", tmp_path / "cache.jsonl", tmp_path / "model"
        path.write_text(json.dumps({**cfg, "scorer": {"kind": "oracle"}}))
        for bundle_dir in (bundle, tmp_path / "no-bundle"):  # refused before the bundle loads
            code = main(["train", "--bundle", str(bundle_dir), "--config", str(path),
                         "--cache", str(cache), "--out", str(out), "--single-thread"])
            assert code == 1
            assert message in capsys.readouterr().err
        assert not cache.exists()
        assert not out.exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"fraction": True}, "fraction must be a number, got True"),
        ({"fraction": "0.3"}, "fraction must be a number, got '0.3'"),
        ({"fraction": 0}, "fraction must be in (0, 1]"),
        ({"scorer": {"retries": 2.5}}, "retries must be an integer, got 2.5"),
        ({"scorer": {"max_parallel": True}}, "max_parallel must be an integer, got True"),
        ({"scorer": {"timeout": "30"}}, "timeout must be a number, got '30'"),
        ({"template": 5}, "template must be a string, got 5"),
    ])
    def test_unusable_setting_is_refused_by_name_before_the_bundle_loads(self, tmp_path, capsys,
                                                                         cfg, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["train", "--bundle", str(tmp_path / "no-bundle"), "--config", str(path),
                     "--out", str(tmp_path / "model")])
        assert code == 1
        assert message in capsys.readouterr().err  # not the missing bundle
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("key", ["beta", "fraction"])
    def test_one_and_one_point_zero_give_one_manifest_hash(self, bundle, tmp_path, key):
        hashes = set()
        for text in (f'{{"{key}": 1}}', f'{{"{key}": 1.0}}'):
            path = tmp_path / "config.json"
            path.write_text(text)
            args = build_parser().parse_args([
                "baseline", "--bundle", str(bundle), "--strategy", "few_knn",
                "--config", str(path), "--out", str(tmp_path)])
            hashes.add(resolve_inputs(args).manifest.manifest_hash)
        assert len(hashes) == 1

    def test_readme_example_config_is_valid(self):
        cfg = readme_config()
        assert set(cfg) <= CONFIG_KEYS
        assert set(cfg["scorer"]) <= SCORER_KEYS
        TrainConfig(**{k: v for k, v in cfg.items() if k in TrainConfig.__dataclass_fields__})
        ScorerSpec(**cfg["scorer"])

    def test_oracle_run_ignores_the_http_settings_of_a_shared_config(self, bundle, tmp_path,
                                                                      capsys):
        path, cache = tmp_path / "config.json", tmp_path / "cache.jsonl"
        path.write_text(json.dumps(readme_config()))
        train = ["train", "--bundle", str(bundle), "--cache", str(cache), *TRAIN_FLAGS]
        plain = run([*train, "--out", str(tmp_path / "plain")], capsys)
        lines = len(cache.read_text().splitlines())
        shared = run([*train, "--config", str(path), "--out", str(tmp_path / "shared")], capsys)
        assert lines > 0 and len(cache.read_text().splitlines()) == lines
        assert shared["manifest_hash"] == plain["manifest_hash"]

    @pytest.mark.parametrize("text", ["[1, 2]", '{"scorer": "oracle"}'])
    def test_config_that_is_not_an_object_is_refused(self, bundle, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["train", "--bundle", str(bundle), "--config", str(path),
                     "--out", str(tmp_path / "model")])
        assert code == 1
        assert "must be JSON objects" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()


def readme_config() -> dict:
    """The example JSON of README's "Config files" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_every_readme_command_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gicl"]:
                commands.append(words[1:])
    assert len(commands) >= 9 and any("http" in argv for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gicl {shlex.join(argv)}")


ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports gicl from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)


class TestWithoutScipy:
    def test_importing_the_cli_loads_no_scipy(self, tmp_path):
        done = run_python("import sys, gicl.cli; print('scipy' in sys.modules)", tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_synth_train_infer_runs_with_scipy_blocked(self, tmp_path):
        commands = [
            ["synth", "--n", "150", "--classes", "3", "--pin", "0.2", "--pout", "0.01",
             "--dim", "8", "--noise", "0.3", "--seed", "5", "--out", "bundle"],
            ["train", "--bundle", "bundle", "--out", "model", *TRAIN_FLAGS],
            ["infer", "--bundle", "bundle", "--model", "model", "--out", "reports",
             "--scorer-kind", "oracle", "--single-thread"],
        ]
        code = ("import sys\n"
                "sys.modules['scipy'] = None  # an import of scipy now raises ImportError\n"
                "from gicl.cli import main\n"
                f"sys.exit(max(main(argv) for argv in {commands!r}))\n")
        done = run_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert len(list((tmp_path / "reports").glob("report-askgnn-*.csv"))) == 1


def test_the_package_version_is_single_sourced():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^dynamic = \["version"\]$', text, re.M)
    assert re.search(r'^version = \{attr = "gicl.__version__"\}$', text, re.M)
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)["project"]
    assert project["version"] == gicl.__version__


class TestDeterminism:
    def test_train_and_infer_reports_are_byte_identical(self, bundle, tmp_path, capsys):
        reports = []
        for tag in ("one", "two"):
            mdir = tmp_path / f"model-{tag}"
            rdir = tmp_path / f"reports-{tag}"
            run(["train", "--bundle", str(bundle), "--out", str(mdir), *TRAIN_FLAGS], capsys)
            run(["infer", "--bundle", str(bundle), "--model", str(mdir), "--out", str(rdir),
                 "--scorer-kind", "oracle", "--single-thread"], capsys)
            csv_path = next(rdir.glob("report-askgnn-*.csv"))
            json_path = Path(str(csv_path).replace(".csv", ".json"))
            reports.append((csv_path.name, csv_path.read_bytes(), json_path.read_bytes()))
        assert reports[0] == reports[1]


def _two_values(action: argparse.Action) -> tuple[list[str], list[str]] | None:
    """Two different settings of an option, or None when it takes a single value."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return [], [flag]
    if action.choices is not None:
        choices = list(action.choices)
        return ([flag, choices[0]], [flag, choices[1]]) if len(choices) > 1 else None
    a, b = {int: ("3", "5"), float: ("0.3", "0.6")}.get(action.type, ("a", "b"))
    return [flag, a], [flag, b]


class TestManifestCoverage:
    @pytest.mark.parametrize("command", ["train", "infer", "baseline"])
    def test_every_option_changes_the_hash_or_is_declared_unrecorded(self, bundle, model_dir,
                                                                     tmp_path, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        base = {
            "train": ["train"],
            "infer": ["infer", "--model", str(model_dir)],
            "baseline": ["baseline", "--model", str(model_dir), "--strategy", "few_knn"],
        }[command] + ["--bundle", str(bundle), "--out", str(tmp_path), "--scorer-kind", "oracle"]

        def manifest_hash(extra: list[str]) -> str:
            return resolve_inputs(parser.parse_args(base + extra)).manifest.manifest_hash

        recorded = []
        for action in sub.choices[command]._actions:
            if isinstance(action, argparse._HelpAction) or action.dest in UNRECORDED:
                continue
            values = _two_values(action)
            if values is None:
                continue
            a, b = values
            assert manifest_hash(a) != manifest_hash(b), (
                f"{command} {action.option_strings[0]} changes no manifest hash; "
                f"record it or declare it in cli.UNRECORDED")
            recorded.append(action.dest)
        assert {"fraction", "seed", "k_icl"} <= set(recorded)

    @pytest.mark.parametrize("argv, first, second", [
        (["baseline", "--strategy", "few_knn"], ["--fraction", "0.1"], ["--fraction", "0.5"]),
        (["infer", "--model", "MODEL", "--purify", "llm_select"],
         ["--purify-budget", "2"], ["--purify-budget", "4"]),
        (["infer", "--model", "MODEL"], [], ["--seed", "7"]),
        (["infer", "--model", "MODEL"], [], ["--fraction", "0.6"]),
    ])
    def test_runs_that_differ_in_one_input_get_two_reports(self, bundle, model_dir, tmp_path,
                                                           capsys, argv, first, second):
        argv = [str(model_dir) if a == "MODEL" else a for a in argv]
        common = ["--bundle", str(bundle), "--out", str(tmp_path), "--scorer-kind", "oracle",
                  "--single-thread"]
        one = run([*argv, *common, *first], capsys)
        two = run([*argv, *common, *second], capsys)
        assert one["manifest_hash"] != two["manifest_hash"]
        assert len(list(tmp_path.glob("report-*.csv"))) == 2


class TestThreadCount:
    def test_thread_count_changes_no_result(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        run(["synth", "--n", "80", "--classes", "3", "--pin", "0.2", "--pout", "0.02",
             "--dim", "8", "--noise", "0.3", "--seed", "3", "--out", str(bundle)], capsys)
        outputs = []
        with StubScorerServer(respond=answer_first_label) as server:
            for threads in ([], ["--single-thread"]):  # max_parallel 8, then 1
                mdir, rdir = tmp_path / f"model{len(threads)}", tmp_path / f"reports{len(threads)}"
                common = ["--bundle", str(bundle), "--scorer-kind", "http", "--endpoint",
                          server.endpoint, "--model-name", "stub", *threads]
                run(["train", *common, "--out", str(mdir), "--fraction", "0.3", "--epochs", "3",
                     "--hidden-dim", "8", "--n-layers", "1", "--k-feedback", "3"], capsys)
                summary = run(["infer", *common, "--model", str(mdir), "--out", str(rdir),
                               "--k-icl", "3"], capsys)
                report = rdir / f"report-askgnn-{summary['manifest_hash']}.csv"
                outputs.append(((mdir / "embeddings.bin").read_bytes(), report.read_bytes(),
                                summary["manifest_hash"]))
        assert summary["unparsed"] == 0
        assert outputs[0] == outputs[1]
