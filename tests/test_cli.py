"""End-to-end command line runs on a small synthetic bundle."""

import json
from pathlib import Path

import pytest

from gicl.cli import main
from gicl.graphstore import bundle_hash


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


class TestTrainArtifacts:
    def test_model_directory_contents(self, model_dir):
        for name in ("params.bin", "manifest.json", "train_log.csv", "embeddings.bin", "embeddings.json"):
            assert (model_dir / name).is_file(), name

    def test_training_log_columns(self, model_dir):
        header = (model_dir / "train_log.csv").read_text().splitlines()[0]
        assert header == "epoch,round,loss_total,loss_feedback,loss_clf,lr"

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

    @pytest.mark.parametrize("strategy", ["mv_askgnn", "npg"])
    def test_model_baselines(self, bundle, model_dir, tmp_path, capsys, strategy):
        out = tmp_path / "reports"
        summary = run(["baseline", "--bundle", str(bundle), "--strategy", strategy,
                       "--model", str(model_dir), "--k-icl", "3", "--out", str(out),
                       "--scorer-kind", "oracle", "--single-thread"], capsys)
        assert summary["n"] == 30  # default 20% test carve of 150 nodes

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
        assert payload["queries"]

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
