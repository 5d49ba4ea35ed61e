import gc
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import finite_difference_grads, gradcheck_errors

from gicl import nncore
from gicl import prompts as prompts_mod
from gicl import scoring as scoring_mod
from gicl.encoder import encode_all, encode_on_tape, init_params, propagate
from gicl.graphstore import SplitSpec, TagGraph, _build_csr, sample_label_fraction, synth_sbm
from gicl.nncore import Tape, Tensor2, adam_step, backward
from gicl.prompts import DEFAULT_TEMPLATE, render
from gicl.scoring import (
    FeedbackCache,
    FeedbackSet,
    OracleClient,
    RankedSet,
    ScorerError,
    ScorerSpec,
    key_prefix,
    make_client,
    pair_keys,
)
from gicl.training import (
    ScorerCoverageError,
    TrainConfig,
    clf_loss,
    collect_feedback_round,
    combined_loss,
    epoch_loss,
    feedback_lists,
    feedback_loss,
    train,
)

ORACLE = ScorerSpec(kind="oracle")


def unit_rows(*rows):
    arr = np.array(rows, dtype=np.float64)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def fb(query_to_ranked):
    return FeedbackSet(by_query=query_to_ranked, n_unscored=0)


def lists(feedback, config):
    """feedback_loss's last two arguments for ``feedback`` under ``config``,
    with every node id its own embedding row."""
    return feedback_lists(feedback, np.arange(100)), config.tau


@st.composite
def ranked_rounds(draw):
    """Sorted labeled ids and a round of ranked lists on them (some empty)."""
    labeled = np.array(sorted(draw(st.sets(st.integers(0, 200), min_size=2, max_size=12))))
    by_query = {}
    for q in draw(st.lists(st.sampled_from(labeled.tolist()), unique=True, max_size=8)):
        others = [int(e) for e in labeled if e != q]
        examples = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
        by_query[int(q)] = RankedSet(example_ids=tuple(examples),
                                     utilities=tuple(1.0 / (i + 1) for i in range(len(examples))))
    return labeled, by_query


class TestFeedbackLists:
    def test_first_candidate_of_each_list_is_the_positive(self):
        ranked = {
            7: RankedSet(example_ids=(5, 6, 8), utilities=(0.9, 0.5, 0.1)),
            2: RankedSet(example_ids=(3,), utilities=(0.4,)),
            4: RankedSet(example_ids=(), utilities=()),
            9: RankedSet(example_ids=(1, 0), utilities=(0.8, 0.2)),
        }
        # node 4's list is empty, so it needs no row; the rest map to their rows
        got = feedback_lists(fb(ranked), np.array([0, 1, 2, 3, 5, 6, 7, 8, 9]))
        assert got.queries.tolist() == [2, 6, 6, 6, 8, 8]
        assert got.candidates.tolist() == [3, 4, 5, 7, 1, 0]
        assert got.sizes.tolist() == [1, 3, 2]
        assert got.weights.dtype == np.float64
        assert got.weights.tolist() == [1.0, 1.0, 0.0, 0.0, 1.0, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(round_=ranked_rounds(), stray=st.integers(201, 400), in_query=st.booleans())
    def test_rows_map_back_to_the_ranked_node_ids(self, round_, stray, in_query):
        labeled, by_query = round_
        got = feedback_lists(fb(by_query), labeled)
        ranked = [(q, r) for q, r in sorted(by_query.items()) if len(r) > 0]
        assert labeled[got.queries].tolist() == [q for q, r in ranked for _ in r.example_ids]
        assert labeled[got.candidates].tolist() == [e for _, r in ranked for e in r.example_ids]
        assert got.sizes.tolist() == [len(r) for _, r in ranked]
        assert int(got.sizes.sum()) == got.queries.size == got.weights.size
        firsts = set((np.cumsum(got.sizes) - got.sizes).tolist())
        assert got.weights.tolist() == [float(j in firsts) for j in range(got.weights.size)]

        # a node outside the labeled set, as a query or as a candidate, is refused by name
        q = int(labeled[0])
        owner, stray_list = ((stray, RankedSet(example_ids=(q,), utilities=(1.0,))) if in_query
                             else (q, RankedSet(example_ids=(stray,), utilities=(1.0,))))
        with pytest.raises(ValueError, match=f"node {stray}, which is not labeled"):
            feedback_lists(fb({**by_query, owner: stray_list}), labeled)


class TestFeedbackLoss:
    def config(self, **kw):
        base = dict(k_feedback=5, epochs=1, hidden_dim=4, n_layers=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_singleton_candidate_loss_is_zero(self):
        tape = Tape()
        emb = Tensor2(unit_rows([1, 0], [0, 1]))
        ranked = {0: RankedSet(example_ids=(1,), utilities=(0.5,))}
        loss = feedback_loss(tape, emb, *lists(fb(ranked), self.config()))
        assert loss.item() == 0.0

    def test_two_candidate_hand_value(self):
        # sims: query row 0 against candidates 1 (cos 1) and 2 (cos 0)
        emb = Tensor2(unit_rows([1, 0], [1, 0], [0, 1]))
        ranked = {0: RankedSet(example_ids=(1, 2), utilities=(0.9, 0.1))}
        loss = feedback_loss(Tape(), emb, *lists(fb(ranked), self.config()))
        assert math.isclose(loss.item(), math.log(1 + math.exp(-1)), rel_tol=1e-12)

    def test_temperature_scales_scores(self):
        emb = Tensor2(unit_rows([1, 0], [1, 0], [0, 1]))
        ranked = {0: RankedSet(example_ids=(1, 2), utilities=(0.9, 0.1))}
        loss_tau_half = feedback_loss(Tape(), emb, *lists(fb(ranked), self.config(tau=0.5)))
        assert math.isclose(loss_tau_half.item(), math.log(1 + math.exp(-2)), rel_tol=1e-10)

    def test_nonnegative_and_zero_only_at_full_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            emb = Tensor2(rng.standard_normal((6, 3)))
            tape = Tape()
            normed = nncore.l2_normalize_rows(tape, emb)
            ranked = {0: RankedSet(example_ids=(1, 2, 3), utilities=(3, 2, 1))}
            loss = feedback_loss(tape, normed, *lists(fb(ranked), self.config()))
            assert loss.item() >= 0

    def test_empty_feedback_rejected(self):
        emb = Tensor2(np.eye(3))
        with pytest.raises(ValueError):
            feedback_loss(Tape(), emb, *lists(fb({}), self.config()))

    def test_dropping_unscored_pairs_preserves_scored_contribution(self):
        # with the positive scored, removing an unscored
        # candidate from one query leaves other queries' terms unchanged
        emb = Tensor2(unit_rows([1, 0], [1, 0], [0, 1], [0.6, 0.8], [0, 1]))
        both = {
            0: RankedSet(example_ids=(1, 2), utilities=(0.9, 0.1)),
            3: RankedSet(example_ids=(2, 4), utilities=(0.8, 0.2)),
        }
        cfg = self.config()
        full = feedback_loss(Tape(), emb, *lists(fb(both), cfg)).item()
        # per-query contributions, each computed alone
        alone0 = feedback_loss(Tape(), emb, *lists(fb({0: both[0]}), cfg)).item()
        alone3 = feedback_loss(Tape(), emb, *lists(fb({3: both[3]}), cfg)).item()
        assert math.isclose(full, (alone0 + alone3) / 2, rel_tol=1e-12)


class TestClfLoss:
    def test_uniform_logits_give_log_c(self, clean_sbm):
        cfg = TrainConfig(hidden_dim=6, n_layers=1, epochs=1, k_feedback=2)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        params["head.w"].data[:] = 0
        params["head.b"].data[:] = 0
        tape = Tape()
        emb = Tensor2(np.random.default_rng(0).standard_normal((30, 6)).astype(np.float32))
        loss = clf_loss(tape, emb, params, clean_sbm.labels)
        assert math.isclose(loss.item(), math.log(3), rel_tol=1e-6)

    def test_perfect_logits_vanish(self, clean_sbm):
        cfg = TrainConfig(hidden_dim=3, n_layers=1, epochs=1, k_feedback=2)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        params["head.w"].data[:] = np.eye(3) * 20
        params["head.b"].data[:] = 0
        emb = np.eye(3, dtype=np.float64)[clean_sbm.labels]
        loss = clf_loss(Tape(), Tensor2(emb), params, clean_sbm.labels)
        assert loss.item() < 1e-8

    def test_equals_softmax_xent_on_labeled_rows(self, clean_sbm):
        cfg = TrainConfig(hidden_dim=5, n_layers=1, epochs=1, k_feedback=2)
        params = init_params(cfg.encoder_config(clean_sbm), seed=3)
        rng = np.random.default_rng(1)
        emb_values = rng.standard_normal((30, 5))
        labeled = np.array([0, 3, 7, 20])
        loss = clf_loss(Tape(), Tensor2(emb_values[labeled]), params, clean_sbm.labels[labeled])
        tape = Tape()
        logits = nncore.linear(
            tape, Tensor2(emb_values[labeled]), params["head.w"], params["head.b"]
        )
        direct = nncore.softmax_xent(tape, logits, clean_sbm.labels[labeled])
        assert math.isclose(loss.item(), direct.item(), rel_tol=1e-6)

    def test_empty_labeled_set_rejected(self, clean_sbm):
        cfg = TrainConfig(hidden_dim=5, n_layers=1, epochs=1, k_feedback=2)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        with pytest.raises(ValueError):
            clf_loss(Tape(), Tensor2(np.eye(5, dtype=np.float32)), params, np.array([], dtype=np.int64))


class TestCombinedLoss:
    def scalars(self, lf, lc):
        tape = Tape()
        a = Tensor2(np.array([[lf]]))
        b = Tensor2(np.array([[lc]]))
        return tape, a, b

    def test_beta_one_is_feedback_only(self):
        tape, a, b = self.scalars(2.5, 4.0)
        assert combined_loss(tape, a, b, 1.0).item() == 2.5

    def test_beta_zero_is_clf_only(self):
        tape, a, b = self.scalars(2.5, 4.0)
        assert combined_loss(tape, a, b, 0.0).item() == 4.0

    def test_midpoint(self):
        tape, a, b = self.scalars(2.0, 4.0)
        assert combined_loss(tape, a, b, 0.5).item() == 3.0

    def test_linear_in_beta(self):
        lf, lc = 1.37, 0.82
        for beta in np.linspace(0, 1, 11):
            tape, a, b = self.scalars(lf, lc)
            got = combined_loss(tape, a, b, float(beta)).item()
            assert math.isclose(got, lc + beta * (lf - lc), rel_tol=0, abs_tol=1e-15)


class TestCollectFeedbackRound:
    def test_zero_noise_top_candidate_shares_label(self, clean_sbm, clean_split):
        cfg = TrainConfig(hidden_dim=8, n_layers=2, epochs=1, k_feedback=4)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        feedback = collect_feedback_round(
            clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, FeedbackCache()
        )
        assert feedback.coverage == 1.0
        for q, ranked in feedback.by_query.items():
            top = ranked.example_ids[0]
            assert clean_sbm.labels[top] == clean_sbm.labels[q]

    def test_warm_cache_issues_zero_calls(self, clean_sbm, clean_split):
        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=3)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        cache = FeedbackCache()
        client = make_client(ORACLE, clean_sbm)
        collect_feedback_round(clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, cache, client=client)
        before = client.calls
        again = collect_feedback_round(clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, cache, client=client)
        assert client.calls == before
        assert again.coverage == 1.0

    def test_k_beyond_pool_truncates(self, clean_sbm, clean_split):
        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=500)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        feedback = collect_feedback_round(
            clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, FeedbackCache()
        )
        pool = len(clean_split.labeled_ids)
        for ranked in feedback.by_query.values():
            assert len(ranked) == pool - 1

    def test_candidates_come_from_retrieved_topk(self, clean_sbm, clean_split):
        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=4)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        feedback = collect_feedback_round(
            clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, FeedbackCache()
        )
        labeled = set(clean_split.labeled_ids.tolist())
        for q, ranked in feedback.by_query.items():
            assert len(ranked) <= 4
            assert q not in ranked.example_ids
            assert set(ranked.example_ids) <= labeled

    def test_low_coverage_aborts(self, clean_sbm, clean_split):
        class Dead:
            calls = 0

            def token_logprobs(self, prompt, continuation, meta=None):
                raise ScorerError("down")

        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=3)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        with pytest.raises(ScorerCoverageError, match="floor"):
            collect_feedback_round(
                clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE,
                FeedbackCache(), client=Dead(),
            )


class TestOnePassRound:
    """A round renders each missed (query, example) pair once and caches as it goes."""

    def test_one_render_per_pair_with_a_miss(self, clean_sbm, clean_split, monkeypatch):
        renders = []

        def counting_render(*args, **kwargs):
            renders.append(args)
            return render(*args, **kwargs)

        monkeypatch.setattr(prompts_mod, "render", counting_render)
        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=3)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        cache = FeedbackCache()
        cold = collect_feedback_round(clean_sbm, clean_split, params, cfg, ORACLE,
                                      DEFAULT_TEMPLATE, cache)
        pairs = cold.n_scored + cold.n_unscored
        assert pairs == 3 * len(clean_split.query_train_ids)
        assert len(renders) == pairs
        collect_feedback_round(clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, cache)
        assert len(renders) == pairs  # a warm round renders nothing

    def test_crash_keeps_the_values_scored_before_it(self, clean_sbm, clean_split, tmp_path):
        class CrashOnSeventh(OracleClient):
            def token_logprobs(self, prompt, continuation, meta=None):
                if self.calls == 6:
                    raise RuntimeError("process killed")
                return super().token_logprobs(prompt, continuation, meta=meta)

        cfg = TrainConfig(hidden_dim=8, n_layers=1, epochs=1, k_feedback=3)
        params = init_params(cfg.encoder_config(clean_sbm), seed=0)
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        with pytest.raises(RuntimeError, match="killed"):
            collect_feedback_round(clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE,
                                   cache, client=CrashOnSeventh(clean_sbm))
        cache.close()
        assert len(FeedbackCache(path)) == 6
        full = FeedbackCache()
        collect_feedback_round(clean_sbm, clean_split, params, cfg, ORACLE, DEFAULT_TEMPLATE, full)
        prefix = key_prefix(ORACLE.scorer_id, DEFAULT_TEMPLATE.template_hash, clean_sbm.content_hash)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            key = pair_keys(prefix, record["q"], record["e"], clean_sbm.n_classes)[record["c"]]
            assert full.get(key) == record["ppl"]


class TestTapeGradients:
    CFG = TrainConfig(beta=0.5, hidden_dim=8, n_layers=2, epochs=1, k_feedback=3, seed=5)

    def epoch_loss(self, tape, graph, split, params, features, feedback):
        enc = self.CFG.encoder_config(graph)
        # the labeled nodes' propagated rows gathered on this tape, so a gradient could reach them
        ids = split.labeled_ids
        loss, _, _ = epoch_loss(tape, nncore.gather_rows(tape, features, ids), graph.labels[ids],
                                feedback_lists(feedback, ids), params, enc, self.CFG,
                                rng=np.random.default_rng(0))
        return loss

    def propagated(self, graph, dtype):
        return Tensor2(propagate(graph, self.CFG.n_layers).astype(dtype))

    def params_and_feedback(self, graph, split, dtype=np.float32):
        params = init_params(self.CFG.encoder_config(graph), self.CFG.seed, dtype=dtype)
        feedback = collect_feedback_round(
            graph, split, params, self.CFG, ORACLE, DEFAULT_TEMPLATE, FeedbackCache()
        )
        return params, feedback

    def test_finished_tape_leaves_no_reference_cycle(self, clean_sbm, clean_split):
        params, feedback = self.params_and_feedback(clean_sbm, clean_split)
        features = self.propagated(clean_sbm, params.dtype)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            tape = Tape()
            loss = self.epoch_loss(tape, clean_sbm, clean_split, params, features, feedback)
            backward(tape, loss, params)
            del tape, loss
            gc.collect()
            stranded = [obj for obj in gc.garbage if isinstance(obj, Tensor2)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert stranded == []

    RING_CFG = TrainConfig(beta=0.5, hidden_dim=6, n_layers=3, epochs=1, k_feedback=3, seed=1)

    def ring_round(self):
        """Float64 parameters and one round's inputs, labels and lists on a
        40-node ring whose six labeled nodes sit side by side."""
        n = 40
        offsets, targets = _build_csr(n, np.array([(i, (i + 1) % n) for i in range(n)]),
                                      symmetrize=True)
        graph = TagGraph(
            n_nodes=n, csr_offsets=offsets, csr_targets=targets,
            features=np.random.default_rng(3).standard_normal((n, 5)).astype(np.float32),
            texts=tuple(f"doc {i}" for i in range(n)), labels=np.arange(n) % 3,
            label_vocab=("a", "b", "c"),
        )
        split = SplitSpec(labeled_ids=np.arange(6), test_ids=np.arange(20, 26))
        params = init_params(self.RING_CFG.encoder_config(graph), seed=2, dtype=np.float64)
        # biases off zero: a row whose hidden units dropout zeroes entirely then keeps a
        # direction, where a zero output row would make the loss jump at b2 = 0
        for name in ("mlp.b1", "mlp.b2"):
            params[name].data[:] = np.random.default_rng(5).uniform(-0.3, 0.3, params[name].shape)
        feedback = collect_feedback_round(graph, split, params, self.RING_CFG, ORACLE,
                                          DEFAULT_TEMPLATE, FeedbackCache())
        inputs = Tensor2(propagate(graph, self.RING_CFG.n_layers)[split.labeled_ids])
        labels = graph.labels[split.labeled_ids]
        return graph, params, inputs, labels, feedback_lists(feedback, split.labeled_ids)

    def test_training_epoch_matches_finite_differences(self):
        graph, params, inputs, labels, round_lists = self.ring_round()
        assert inputs.shape == (6, 5)
        enc = self.RING_CFG.encoder_config(graph)

        def build_loss(tape, training=True):
            # the same dropout masks at every evaluation
            return epoch_loss(tape, inputs, labels, round_lists, params, enc, self.RING_CFG,
                              training=training, rng=np.random.default_rng(7))[0]

        assert build_loss(Tape()).item() != build_loss(Tape(), training=False).item()
        tape = Tape()
        analytic = backward(tape, build_loss(tape), params)
        numeric = finite_difference_grads(lambda: build_loss(Tape()).item(), params, step=1e-4)
        assert gradcheck_errors(analytic, numeric) <= 1e-4

    def test_inputs_that_miss_a_labeled_row_are_refused(self):
        graph, params, inputs, labels, _ = self.ring_round()
        enc = self.RING_CFG.encoder_config(graph)
        first_rows = feedback_lists(fb({0: RankedSet(example_ids=(1, 2), utilities=(0.9, 0.1))}),
                                    np.arange(6))
        with pytest.raises(ValueError, match="expected 5 targets"):
            epoch_loss(Tape(), Tensor2(inputs.data[:5]), labels, first_rows, params, enc,
                       self.RING_CFG, training=False)

    @pytest.mark.parametrize("n", [300, 3000])
    def test_epoch_rows_and_dropout_draws_do_not_depend_on_graph_size(self, n, monkeypatch):
        # 30 labeled nodes on either graph: an epoch reads their 30 propagated rows
        # and draws one float64 dropout mask of 30 x hidden, however many nodes there are
        import gicl.training as training_mod

        graph = synth_sbm(n_nodes=n, n_classes=3, p_in=30 / n, p_out=3 / n, d=6, noise=0.5, seed=4)
        split = SplitSpec(labeled_ids=np.arange(0, n, n // 30), test_ids=np.arange(1, n, n // 30))
        cfg = TrainConfig(epochs=2, hidden_dim=8, k_feedback=3, seed=4)
        inputs, draws = [], []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape):
                out = self.rng.random(shape)
                draws.append((shape, out.dtype))
                return out

        def encode_spy(tape, rows, *args, **kwargs):
            inputs.append((rows.shape, rows.data.dtype, kwargs["training"]))
            return encode_on_tape(tape, rows, *args, **kwargs)

        dropout = nncore.dropout
        monkeypatch.setattr(nncore, "dropout", lambda tape, x, rate, rng: dropout(tape, x, rate, Recording(rng)))
        monkeypatch.setattr(training_mod, "encode_on_tape", encode_spy)
        train(graph, split, ORACLE, DEFAULT_TEMPLATE, cfg)
        assert inputs == [((30, 6), np.float32, True)] * cfg.epochs
        assert draws == [((30, cfg.hidden_dim), np.float64)] * cfg.epochs


class TestTrain:
    def small_cfg(self, **kw):
        base = dict(epochs=12, hidden_dim=8, n_layers=2, k_feedback=3, seed=5)
        base.update(kw)
        return TrainConfig(**base)

    def test_beta_zero_matches_pure_clf_loop_bitwise(self, clean_sbm, clean_split):
        cfg = self.small_cfg(beta=0.0)
        model = train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, cfg)

        # independent classification-only loop with the same seed streams, over
        # the labeled nodes' propagated rows (queries and candidates are labeled)
        enc = cfg.encoder_config(clean_sbm)
        params = init_params(enc, cfg.seed)
        rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, 0xD0])
        ids = clean_split.labeled_ids
        inputs = Tensor2(propagate(clean_sbm, enc.n_layers)[ids].astype(params.dtype))
        for _ in range(cfg.epochs):
            tape = Tape()
            emb = encode_on_tape(tape, inputs, params, enc, training=True, rng=rng)
            loss = clf_loss(tape, emb, params, clean_sbm.labels[ids])
            grads = backward(tape, loss, params)
            adam_step(params, grads, lr=cfg.lr)
        for name in params.names():
            assert np.array_equal(model.params[name].data, params[name].data), name

    def test_non_finite_loss_is_refused_with_its_round_and_epoch(self, clean_sbm, clean_split):
        # the first step throws the weights past float32's range; the next forward pass overflows
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="non-finite loss at round 0 epoch 1: op produced"):
            train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, self.small_cfg(lr=1e38, epochs=5))

    def test_training_log_schema_and_loss_decreases(self, clean_sbm, clean_split):
        cfg = self.small_cfg(epochs=40)
        model = train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, cfg)
        assert len(model.log) == 40
        row = model.log[0]
        assert set(row) == {"epoch", "round", "loss_total", "loss_feedback", "loss_clf", "lr"}
        assert model.log[-1]["loss_total"] < model.log[0]["loss_total"]

    def test_two_rounds_recollect_on_new_embeddings(self, clean_sbm, clean_split, monkeypatch):
        seen_vectors = []
        import gicl.training as training_mod

        original = training_mod.encode_all

        def spy(graph, params, config):
            table = original(graph, params, config)
            seen_vectors.append(table.vectors.copy())
            return table

        monkeypatch.setattr(training_mod, "encode_all", spy)
        cfg = self.small_cfg(rounds=2, epochs=6)
        train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, cfg)
        # rounds collect on round-start embeddings: round 2's differ from round 1's
        assert len(seen_vectors) >= 2
        assert not np.array_equal(seen_vectors[0], seen_vectors[1])

    def test_three_rounds_propagate_once(self, noisy_sbm):
        # test_one_aggregator_per_graph_and_hop_count counts the propagations
        split = sample_label_fraction(noisy_sbm, 0.5, seed=2)
        cfg = TrainConfig(rounds=3, epochs=5, hidden_dim=16, k_feedback=5, seed=3)
        model = train(noisy_sbm, split, ORACLE, DEFAULT_TEMPLATE, cfg)
        vectors = model.embeddings.vectors
        enc = cfg.encoder_config(noisy_sbm)
        assert np.array_equal(vectors, encode_all(noisy_sbm, model.params, enc).vectors)
        # as trained when each round and the final table propagated again
        assert hashlib.sha256(vectors.tobytes()).hexdigest() == (
            "393cdcf6fd4cc1171577d9f7c541261b82fc8ddd2ff644316af684fe9ae1bf4a")

    def test_one_aggregator_per_graph_and_hop_count(self, noisy_sbm, monkeypatch):
        import gicl.encoder as encoder_mod

        builds = []
        real = encoder_mod.RowAggregator
        monkeypatch.setattr(encoder_mod, "RowAggregator", lambda *a: builds.append(a) or real(*a))
        split = sample_label_fraction(noisy_sbm, 0.5, seed=2)
        cfg = TrainConfig(rounds=3, epochs=2, hidden_dim=16, k_feedback=5, seed=3)
        model = train(noisy_sbm, split, ORACLE, DEFAULT_TEMPLATE, cfg)
        collect_feedback_round(noisy_sbm, split, model.params, cfg, ORACLE, DEFAULT_TEMPLATE,
                               FeedbackCache())
        encode_all(noisy_sbm, model.params, cfg.encoder_config(noisy_sbm))
        assert len(builds) == 1
        propagate(noisy_sbm, cfg.n_layers + 1)
        assert len(builds) == 2

    def test_a_coverage_abort_names_its_round(self, clean_sbm, clean_split, monkeypatch):
        import gicl.training as training_mod

        rounds = []

        def second_round_unscored(graph, candidates, *args, **kwargs):
            rounds.append(candidates)
            if len(rounds) == 1:
                return scoring_mod.rank_candidates(graph, candidates, *args, **kwargs)
            return FeedbackSet({}, sum(len(ids) for ids in candidates.values()))

        monkeypatch.setattr(training_mod, "rank_candidates", second_round_unscored)
        with pytest.raises(ScorerCoverageError, match=r"^round 1: only 0/\d+ candidate pairs scored"):
            train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, self.small_cfg(rounds=2, epochs=2))
        assert len(rounds) == 2

    def test_deterministic_given_seed(self, clean_sbm, clean_split):
        cfg = self.small_cfg()
        a = train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, cfg)
        b = train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, cfg)
        for name in a.params.names():
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert a.log == b.log

    def test_mean_retrieved_utility_improves_on_separable_data(self):
        # mild noise, tiny pool: training must lift the retrieved-set utility
        g = synth_sbm(n_nodes=120, n_classes=3, p_in=0.25, p_out=0.03, d=6, noise=0.8, seed=3)
        split = sample_label_fraction(g, 0.3, seed=3)
        cfg = TrainConfig(epochs=60, hidden_dim=16, n_layers=2, k_feedback=5, seed=3, beta=0.5)
        client = make_client(ORACLE, g)
        cache = FeedbackCache()
        before = collect_feedback_round(
            g, split, init_params(cfg.encoder_config(g), cfg.seed), cfg, ORACLE,
            DEFAULT_TEMPLATE, cache, client=client,
        )
        model = train(g, split, ORACLE, DEFAULT_TEMPLATE, cfg, cache=cache, client=client)
        after = collect_feedback_round(
            g, split, model.params, cfg, ORACLE, DEFAULT_TEMPLATE, cache, client=client
        )

        def mean_utility(feedback):
            vals = [u for r in feedback.by_query.values() for u in r.utilities]
            return float(np.mean(vals))

        assert mean_utility(after) > mean_utility(before)

    def test_tau_rescaling_keeps_top1_class_on_separable_data(self, clean_sbm, clean_split):
        # temperature rescales scores but must not change what kind of
        # candidate wins after training; exact id agreement is not well
        # defined here because same-class candidates are utility ties
        from gicl.retrieval import build_index, retrieve_topk

        for tau in (0.5, 1.0, 2.0):
            cfg = self.small_cfg(epochs=50, tau=tau, beta=0.5)
            model = train(clean_sbm, clean_split, ORACLE, DEFAULT_TEMPLATE, cfg)
            index = build_index(model.embeddings.vectors, clean_split.labeled_ids)
            queries = clean_split.query_train_ids
            tops = retrieve_topk(index, model.embeddings.vectors[queries], 1, query_ids=queries)
            for q, (top,) in zip(queries.tolist(), tops):
                assert clean_sbm.labels[top] == clean_sbm.labels[q], (tau, q)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=1.5)
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0)

    BAD_VALUES = [
        {"k_feedback": 0}, {"k_icl": -1}, {"rounds": 0}, {"epochs": -1},
        {"n_layers": 0}, {"hidden_dim": 0}, {"hidden_dim": -3},
        {"lr": -1.0}, {"lr": 0.0}, {"lr": math.inf}, {"lr": math.nan},
        {"tau": math.inf}, {"tau": math.nan},
        {"dropout": 1.0}, {"dropout": 1.5}, {"dropout": -0.1},
        {"fraction": 0}, {"fraction": -0.1}, {"fraction": 1.5}, {"fraction": math.nan},
    ]

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_value_fails_before_any_scorer_call(self, bad):
        g = synth_sbm(n_nodes=200, n_classes=3, p_in=0.1, p_out=0.01, d=6, noise=0.5, seed=2)
        split = sample_label_fraction(g, 0.2, seed=2)
        client = make_client(ORACLE, g)
        with pytest.raises(ValueError, match=next(iter(bad))):
            train(g, split, ORACLE, DEFAULT_TEMPLATE, TrainConfig(**{"epochs": 1, **bad}), client=client)
        assert client.calls == 0

    def test_edge_values_are_accepted(self):
        TrainConfig(k_feedback=1, k_icl=0, rounds=1, epochs=0, lr=1e-9,
                    dropout=0.0, n_layers=1, hidden_dim=1)
        TrainConfig(dropout=0.99, fraction=1.0)

    WRONG_TYPES = [
        {"k_icl": 2.5}, {"epochs": 2.5}, {"hidden_dim": 16.0}, {"n_layers": "2"},
        {"seed": True}, {"rounds": False}, {"k_feedback": None},
        {"beta": True}, {"lr": "0.01"}, {"tau": None}, {"dropout": [0.5]},
        {"fraction": True}, {"fraction": "0.3"},
    ]

    @pytest.mark.parametrize("bad", WRONG_TYPES, ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_value_of_the_wrong_type_is_refused_by_name(self, bad):
        name = next(iter(bad))
        with pytest.raises(TypeError, match=f"^{name} must be an? (integer|number), got "):
            TrainConfig(**bad)

    def test_numpy_scalars_and_whole_floats_are_accepted(self):
        cfg = TrainConfig(k_icl=np.int64(3), seed=np.uint8(2), beta=1, tau=np.float32(0.5), lr=1)
        assert (cfg.k_icl, cfg.seed, cfg.beta, cfg.tau, cfg.lr) == (3, 2, 1.0, 0.5, 1.0)
        # stored as plain Python numbers, so 1 and 1.0 are one setting
        assert [type(v) for v in (cfg.k_icl, cfg.seed, cfg.beta, cfg.tau, cfg.lr)] == [
            int, int, float, float, float]
        assert cfg == TrainConfig(k_icl=3, seed=2, beta=1.0, tau=0.5, lr=1.0)
