import json
import re

import numpy as np
import pytest

from gicl.graphstore import neighbors, sample_label_fraction, synth_sbm
from gicl.pipeline import (
    EvalRow,
    RunManifest,
    evaluate_accuracy,
    read_report,
    run_strategy,
    sweep,
    write_report,
)
from gicl.prompts import DEFAULT_TEMPLATE
from gicl.scoring import OracleClient, ScorerSpec, make_client
from gicl.training import TrainConfig, train

ORACLE = ScorerSpec(kind="oracle")


@pytest.fixture(scope="module")
def trained_clean():
    g = synth_sbm(n_nodes=60, n_classes=3, p_in=0.5, p_out=0.03, d=6, noise=0.0, seed=21)
    split = sample_label_fraction(g, 0.5, seed=1)
    cfg = TrainConfig(epochs=25, hidden_dim=12, n_layers=2, k_feedback=4, k_icl=5, seed=1)
    model = train(g, split, ORACLE, DEFAULT_TEMPLATE, cfg)
    return g, split, cfg, model


class TestEvaluateAccuracy:
    def rows(self):
        return [
            EvalRow(0, 1, 1, "s", 3, True),
            EvalRow(1, 0, 0, "s", 3, True),
            EvalRow(2, 2, None, "s", 3, False, note="timeout"),
        ]

    def test_all_correct(self):
        rows = [EvalRow(i, 0, 0, "s", 1, True) for i in range(4)]
        assert evaluate_accuracy(rows)["accuracy"] == 1.0

    def test_unparsed_counts_as_incorrect(self):
        summary = evaluate_accuracy(self.rows())
        assert summary["accuracy"] == pytest.approx(2 / 3)
        assert summary["unparsed"] == 1
        assert summary["n"] == 3

    def test_permutation_invariant(self):
        rows = self.rows()
        a = evaluate_accuracy(rows)
        b = evaluate_accuracy(list(reversed(rows)))
        assert a == b

    def test_confusion_counts(self):
        summary = evaluate_accuracy(self.rows())
        assert summary["confusion"] == {"1->1": 1, "0->0": 1, "2->unparsed": 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_accuracy([])


class TestReports:
    def test_write_read_roundtrip(self, tmp_path):
        rows = [EvalRow(3, 1, 2, "few_knn", 4, True), EvalRow(5, 0, None, "few_knn", 4, False, "err")]
        summary = {"accuracy": 0.0, "n": 2, "unparsed": 1, "manifest_hash": "x", "strategy": "few_knn"}
        write_report(rows, summary, tmp_path / "r.csv", tmp_path / "r.json")
        back = read_report(tmp_path / "r.csv")
        assert back == rows
        assert json.loads((tmp_path / "r.json").read_text())["n"] == 2

    def test_reports_are_append_only(self, tmp_path):
        rows = [EvalRow(0, 0, 0, "s", 1, True)]
        summary = {"accuracy": 1.0}
        write_report(rows, summary, tmp_path / "r.csv", tmp_path / "r.json")
        with pytest.raises(FileExistsError):
            write_report(rows, summary, tmp_path / "r.csv", tmp_path / "r.json")

    def test_report_refused_when_only_its_summary_exists(self, tmp_path):
        (tmp_path / "r.json").write_text("{}")
        with pytest.raises(FileExistsError, match="r.json"):
            write_report([EvalRow(0, 0, 0, "s", 1, True)], {}, tmp_path / "r.csv",
                         tmp_path / "r.json")
        assert not (tmp_path / "r.csv").exists()
        assert (tmp_path / "r.json").read_text() == "{}"

    def test_writer_that_dies_part_way_leaves_no_report(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("writer died")

        rows = [EvalRow(i, 0, 0, "s", 1, True) for i in range(500)]
        with pytest.raises(RuntimeError, match="writer died"):
            write_report([*rows, EvalRow(9, 0, 0, "s", 1, True, Unprintable())], {},
                         tmp_path / "r.csv", tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []
        write_report(rows, {"n": 500}, tmp_path / "r.csv", tmp_path / "r.json")
        assert read_report(tmp_path / "r.csv") == rows

    def test_manifest_hash_ignores_timestamp(self):
        kw = dict(config={"beta": 0.2}, bundle_hash="b", template_hash="t", scorer_id="s")
        a = RunManifest(**kw, created_at=1.0)
        b = RunManifest(**kw, created_at=999.0)
        assert a.manifest_hash == b.manifest_hash

    def test_manifest_save_load(self, tmp_path):
        m = RunManifest(config={"k": 1}, bundle_hash="b", template_hash="t", scorer_id="s")
        m.save(tmp_path / "m.json")
        back = RunManifest.load(tmp_path / "m.json")
        assert back.manifest_hash == m.manifest_hash

    def test_manifest_without_version_or_time_loads(self, tmp_path):
        old = {"config": {"k": 1}, "bundle_hash": "b", "template_hash": "t", "scorer_id": "s"}
        # manifests once repeated the config's seed at the top level; it is not read
        (tmp_path / "m.json").write_text(json.dumps({**old, "seed": 3}))
        back = RunManifest.load(tmp_path / "m.json")
        assert back.created_at == 0.0
        assert back.manifest_hash == RunManifest(**old).manifest_hash


class TestStrategies:
    def test_row_count_matches_test_set(self, trained_clean):
        g, split, cfg, model = trained_clean
        rows = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            k_icl=cfg.k_icl, seed=cfg.seed, single_thread=True)
        assert len(rows) == len(split.test_ids)
        assert [r.query_id for r in rows] == [int(q) for q in split.test_ids]

    def test_askgnn_perfect_on_clean_data(self, trained_clean):
        g, split, cfg, model = trained_clean
        rows = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            k_icl=cfg.k_icl, seed=cfg.seed, single_thread=True)
        assert evaluate_accuracy(rows)["accuracy"] == 1.0

    def test_zero_shot_needs_no_examples(self, trained_clean):
        g, split, cfg, model = trained_clean
        rows = run_strategy("zero_shot", g, split, ORACLE, DEFAULT_TEMPLATE,
                            seed=cfg.seed, single_thread=True)
        assert all(r.n_icl == 0 for r in rows)

    def test_majority_vote_issues_no_scorer_calls(self, trained_clean):
        g, split, cfg, model = trained_clean
        client = make_client(ORACLE, g)
        rows = run_strategy("mv_askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            k_icl=cfg.k_icl, seed=cfg.seed, client=client, single_thread=True)
        assert client.calls == 0
        assert all(r.parsed for r in rows)
        rows_knn = run_strategy("mv_knn", g, split, ORACLE, DEFAULT_TEMPLATE,
                                k_icl=cfg.k_icl, seed=cfg.seed, client=client, single_thread=True)
        assert client.calls == 0
        assert len(rows_knn) == len(split.test_ids)

    @pytest.mark.parametrize("strategy", ["mv_knn", "mv_askgnn"])
    def test_a_vote_predicts_the_majority_class_index(self, trained_clean, strategy):
        g, split, cfg, model = trained_clean
        from gicl.retrieval import build_index, retrieve_topk

        k = 2 * cfg.k_icl
        rows = run_strategy(strategy, g, split, ORACLE, DEFAULT_TEMPLATE, model=model, k_icl=k,
                            seed=cfg.seed, single_thread=True)
        vectors = model.embeddings.vectors if strategy == "mv_askgnn" else g.features
        index = build_index(vectors, split.labeled_ids)
        queries = [row.query_id for row in rows]
        split_votes = 0
        for row, hits in zip(rows, retrieve_topk(index, vectors[queries], k, query_ids=queries)):
            classes = g.labels[hits]
            counts = np.bincount(classes)
            expected = next(int(c) for c in classes if counts[c] == counts.max())  # ties: best rank
            assert type(row.predicted) is int and row.predicted == expected
            split_votes += int(np.count_nonzero(counts) > 1)
        assert split_votes > 0

    def test_mv_bounded_by_any_same_label_oracle(self, trained_clean):
        # an oracle that answers correctly whenever any retrieved example
        # shares the gold label upper-bounds majority voting
        g, split, cfg, model = trained_clean
        from gicl.retrieval import build_index, retrieve_topk

        index = build_index(g.features, split.labeled_ids)
        mv_rows = run_strategy("mv_knn", g, split, ORACLE, DEFAULT_TEMPLATE,
                               k_icl=cfg.k_icl, seed=cfg.seed, single_thread=True)
        mv_acc = evaluate_accuracy(mv_rows)["accuracy"]
        hits = 0
        retrieved = retrieve_topk(index, g.features[split.test_ids], cfg.k_icl,
                                  query_ids=split.test_ids)
        for q, ids in zip(split.test_ids.tolist(), retrieved):
            if any(g.labels[e] == g.labels[q] for e in ids):
                hits += 1
        assert mv_acc <= hits / len(split.test_ids)

    def test_npg_uses_head_pseudo_labels(self, trained_clean):
        g, split, cfg, model = trained_clean
        rows = run_strategy("npg", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            seed=cfg.seed, single_thread=True)
        by_query = {r.query_id: r for r in rows}
        for q in split.test_ids:
            assert by_query[int(q)].n_icl == len(neighbors(g, int(q)))
        # with a converged head on zero-noise data the pseudo-labels are exact
        from gicl.encoder import classify_logits

        pseudo = np.argmax(classify_logits(model.embeddings, model.params), axis=1)
        assert np.array_equal(pseudo, g.labels)

    def test_k_icl_zero_is_zero_shot(self, trained_clean):
        g, split, cfg, model = trained_clean
        client = make_client(ORACLE, g)
        rows = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            k_icl=0, seed=cfg.seed, client=client, single_thread=True)
        assert all(r.n_icl == 0 for r in rows)
        zero = run_strategy("zero_shot", g, split, ORACLE, DEFAULT_TEMPLATE,
                            seed=cfg.seed, client=client, single_thread=True)
        assert [(r.query_id, r.predicted) for r in rows] == [
            (r.query_id, r.predicted) for r in zero
        ]

    def test_npl_stub_always_first_class(self, trained_clean):
        g, split, cfg, model = trained_clean
        answer_prompts = []

        class FirstClassClient(OracleClient):
            def complete(self, prompt, meta=None):
                self.calls += 1
                if meta and meta.get("examples"):
                    answer_prompts.append(prompt)
                    return super().complete(prompt, meta=meta)
                return g.label_vocab[0]  # zero-shot pseudo-label requests

        client = FirstClassClient(g)
        rows = run_strategy("npl", g, split, ORACLE, DEFAULT_TEMPLATE,
                            seed=cfg.seed, client=client, single_thread=True)
        assert len(rows) == len(split.test_ids)
        assert all(r.n_icl == len(neighbors(g, r.query_id)) for r in rows)
        # every example the answer prompts carry is pseudo-labeled class 0
        for prompt, row in zip(answer_prompts, [r for r in rows if r.n_icl]):
            example_block = prompt.split("help you:")[1]
            assert f"Category: {g.label_vocab[0]}" in example_block
            for other in g.label_vocab[1:]:
                assert f"Category: {other}" not in example_block

    def test_npl_under_the_oracle_answers_the_first_class(self, trained_clean):
        # the oracle's zero-shot answers are all class 0, so every neighbour is shown as
        # class 0 and helps only a query of class 0: every answer is class 0
        g, split, cfg, model = trained_clean
        rows = run_strategy("npl", g, split, ORACLE, DEFAULT_TEMPLATE, seed=cfg.seed,
                            single_thread=True)
        assert {r.predicted for r in rows} == {0}
        assert {r.gold for r in rows} == {0, 1, 2}

    @pytest.mark.parametrize("strategy", ["askgnn", "few_knn", "npg", "npl"])
    def test_answer_requests_name_the_labels_their_prompts_show(self, trained_clean, strategy):
        g, split, cfg, model = trained_clean
        requests = []

        class Recording(OracleClient):
            def complete(self, prompt, meta=None):
                requests.append((prompt, meta))
                return super().complete(prompt, meta=meta)

        run_strategy(strategy, g, split, ORACLE, DEFAULT_TEMPLATE, model=model, k_icl=cfg.k_icl,
                     seed=cfg.seed, client=Recording(g), single_thread=True)
        assert any(meta["examples"] for _, meta in requests)
        for prompt, meta in requests:  # npl's zero-shot requests show no example
            shown = re.findall(r"^Document: (.*)\nCategory: (.*)$", prompt.split("help you:")[1],
                               re.MULTILINE)
            assert [(g.texts[e], g.label_vocab[c]) for e, c in meta["examples"]] == shown
            assert len({e for e, _ in meta["examples"]}) == len(shown)  # texts name their nodes

    def test_npl_memoizes_neighbor_predictions(self, trained_clean):
        g, split, cfg, model = trained_clean
        client = make_client(ORACLE, g)
        run_strategy("npl", g, split, ORACLE, DEFAULT_TEMPLATE, seed=cfg.seed,
                     client=client, single_thread=True)
        distinct_neighbors = {int(v) for q in split.test_ids for v in neighbors(g, int(q))}
        # one zero-shot call per distinct neighbor plus one answer per query
        assert client.calls == len(distinct_neighbors) + len(split.test_ids)

    def test_purify_minority_filters_examples(self, trained_clean):
        g, split, cfg, model = trained_clean
        plain = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                             k_icl=cfg.k_icl, seed=cfg.seed, single_thread=True)
        purified = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                                k_icl=cfg.k_icl, seed=cfg.seed, purify="minority",
                                single_thread=True)
        assert all(p.n_icl <= o.n_icl for p, o in zip(purified, plain))

    def test_purify_llm_select_falls_back_with_oracle(self, trained_clean):
        # the metadata-driven oracle cannot answer free-form selection
        # prompts, so selection must fall back to rank order and flag it
        g, split, cfg, model = trained_clean
        rows = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            k_icl=cfg.k_icl, seed=cfg.seed, purify="llm_select",
                            purify_budget=2, single_thread=True)
        assert all(r.n_icl == 2 for r in rows)
        assert all(r.note == "purify fallback" for r in rows)

    @pytest.mark.parametrize("budget", [0, -2])
    def test_purify_budget_below_one_rejected(self, trained_clean, budget):
        g, split, cfg, model = trained_clean
        with pytest.raises(ValueError, match="at least 1"):
            run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                         k_icl=cfg.k_icl, purify="llm_select", purify_budget=budget)

    @pytest.mark.parametrize("strategy, model", [("few_knn", False), ("mv_askgnn", True)])
    def test_purify_on_a_strategy_without_it_is_refused(self, trained_clean, strategy, model):
        g, split, cfg, trained = trained_clean
        client = make_client(ORACLE, g)
        with pytest.raises(ValueError, match="takes no purify mode"):
            run_strategy(strategy, g, split, ORACLE, DEFAULT_TEMPLATE,
                         model=trained if model else None, k_icl=cfg.k_icl, purify="minority",
                         client=client)
        assert client.calls == 0

    @pytest.mark.parametrize("purify", [None, "minority"])
    def test_purify_budget_without_llm_select_is_refused(self, trained_clean, purify):
        g, split, cfg, model = trained_clean
        client = make_client(ORACLE, g)
        with pytest.raises(ValueError, match="purify budget needs purify 'llm_select'"):
            run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                         k_icl=cfg.k_icl, purify=purify, purify_budget=3, client=client)
        assert client.calls == 0

    def test_unknown_purify_mode_is_refused(self, trained_clean):
        g, split, cfg, model = trained_clean
        with pytest.raises(ValueError, match="purify mode must be one of"):
            run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                         k_icl=cfg.k_icl, purify="majority")

    def test_transport_failures_become_unparsed_rows(self, trained_clean):
        from gicl.scoring import ScorerError

        g, split, cfg, model = trained_clean

        class DownClient(OracleClient):
            def complete(self, prompt, meta=None):
                raise ScorerError("endpoint unreachable")

        rows = run_strategy("askgnn", g, split, ORACLE, DEFAULT_TEMPLATE, model=model,
                            k_icl=3, seed=cfg.seed, client=DownClient(g),
                            single_thread=True)
        assert len(rows) == len(split.test_ids)  # the sweep never aborts
        assert all(not r.parsed and r.predicted is None for r in rows)
        assert all("unreachable" in r.note for r in rows)

    def test_unknown_strategy_rejected(self, trained_clean):
        g, split, cfg, model = trained_clean
        with pytest.raises(ValueError):
            run_strategy("bogus", g, split, ORACLE, DEFAULT_TEMPLATE)

    def test_model_required_for_trained_strategies(self, trained_clean):
        g, split, cfg, _ = trained_clean
        for strategy in ("askgnn", "mv_askgnn", "npg"):
            with pytest.raises(ValueError, match="model"):
                run_strategy(strategy, g, split, ORACLE, DEFAULT_TEMPLATE, model=None)


class TestSweep:
    def test_beta_sweep_shares_cache_and_reports(self, trained_clean):
        g, split, cfg, _ = trained_clean
        from gicl.scoring import FeedbackCache

        cache = FeedbackCache()
        base = TrainConfig(epochs=10, hidden_dim=8, n_layers=1, k_feedback=3, k_icl=4, seed=2)
        results = sweep("beta", [0.0, 0.5], g, split, ORACLE, DEFAULT_TEMPLATE, base, cache=cache)
        assert [r["value"] for r in results] == [0.0, 0.5]
        assert all(r["error"] == "" for r in results)
        assert all(0 <= r["accuracy"] <= 1 for r in results)

    def test_k_icl_sweep_trains_once(self, trained_clean, monkeypatch):
        g, split, cfg, _ = trained_clean
        import gicl.pipeline as pipeline_mod

        calls = {"train": 0}
        original = pipeline_mod.train

        def counting_train(*args, **kw):
            calls["train"] += 1
            return original(*args, **kw)

        monkeypatch.setattr(pipeline_mod, "train", counting_train)
        base = TrainConfig(epochs=8, hidden_dim=8, n_layers=1, k_feedback=3, seed=2)
        results = sweep("k_icl", [2, 4, 6], g, split, ORACLE, DEFAULT_TEMPLATE, base)
        assert calls["train"] == 1
        assert len(results) == 3

    def test_per_value_failures_recorded_not_raised(self, trained_clean):
        g, split, cfg, _ = trained_clean
        base = TrainConfig(epochs=5, hidden_dim=8, n_layers=1, k_feedback=3, seed=2)
        results = sweep("k_icl", [3, -1, 2.5], g, split, ORACLE, DEFAULT_TEMPLATE, base)
        assert results[0]["error"] == ""
        assert results[1]["error"] != ""
        assert np.isnan(results[1]["accuracy"])
        assert "2.5" in results[2]["error"]
        assert np.isnan(results[2]["accuracy"])

    def test_axis_validation(self, trained_clean):
        g, split, cfg, _ = trained_clean
        base = TrainConfig(epochs=5)
        with pytest.raises(ValueError):
            sweep("gamma", [1], g, split, ORACLE, DEFAULT_TEMPLATE, base)
        with pytest.raises(ValueError):
            sweep("beta", [], g, split, ORACLE, DEFAULT_TEMPLATE, base)

    def test_beta_endpoints_reduce_to_component_losses(self, trained_clean):
        g, split, cfg, _ = trained_clean
        base = dict(epochs=10, hidden_dim=8, n_layers=1, k_feedback=3, seed=7)
        clf_only = train(g, split, ORACLE, DEFAULT_TEMPLATE, TrainConfig(beta=0.0, **base))
        fb_only = train(g, split, ORACLE, DEFAULT_TEMPLATE, TrainConfig(beta=1.0, **base))
        assert all(r["loss_total"] == r["loss_clf"] for r in clf_only.log)
        assert all(r["loss_total"] == r["loss_feedback"] for r in fb_only.log)
