import numpy as np
import pytest

from gicl import nncore
from gicl.encoder import (
    EmbeddingTable,
    EncoderConfig,
    classify_logits,
    encode_all,
    encode_on_tape,
    encode_plan,
    init_params,
    logits_on_tape,
)
from gicl.graphstore import BundleError, TagGraph, _build_csr
from gicl.nncore import Tape, Tensor2, backward


def encode(tape, graph, params, cfg, nodes=None, training=False, rng=None):
    """Embeddings of ``nodes`` (every node when None) through one plan."""
    plan = encode_plan(graph, cfg.n_layers, nodes)
    inputs = Tensor2(graph.features.astype(params.dtype)[plan.rows[0]])
    return encode_on_tape(tape, inputs, plan, params, cfg, training=training, rng=rng)


def graph_from_edges(n, edges, features, labels=None, n_classes=2):
    offsets, targets = _build_csr(n, np.array(edges).reshape(-1, 2), symmetrize=True)
    return TagGraph(
        n_nodes=n,
        csr_offsets=offsets,
        csr_targets=targets,
        features=np.asarray(features, np.float32),
        texts=tuple(f"n{i}" for i in range(n)),
        labels=np.zeros(n, np.int64) if labels is None else np.asarray(labels, np.int64),
        label_vocab=tuple(f"c{i}" for i in range(n_classes)),
    )


class TestInitParams:
    def test_deterministic(self):
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=3, hidden_dim=256, dropout=0.5)
        a, b = init_params(cfg, seed=4), init_params(cfg, seed=4)
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_shapes_follow_config(self):
        cfg = EncoderConfig(input_dim=128, n_classes=7, n_layers=3, hidden_dim=256, dropout=0.5)
        params = init_params(cfg, seed=0)
        assert params["layer0.w_self"].shape == (128, 256)
        assert params["layer0.w_neigh"].shape == (128, 256)
        assert params["layer1.w_self"].shape == (256, 256)
        assert params["layer2.w_neigh"].shape == (256, 256)
        assert params["head.w"].shape == (256, 7)
        assert params["head.b"].shape == (1, 7)

    def test_entries_within_glorot_bound(self):
        cfg = EncoderConfig(input_dim=16, n_classes=2, n_layers=2, hidden_dim=32, dropout=0.5)
        params = init_params(cfg, seed=1)
        a0 = np.sqrt(6.0 / (16 + 32))
        assert np.all(np.abs(params["layer0.w_self"].data) < a0)
        a1 = np.sqrt(6.0 / (32 + 32))
        assert np.all(np.abs(params["layer1.w_neigh"].data) < a1)
        assert np.all(params["layer0.b"].data == 0)


class TestEncodeAll:
    def test_zero_params_give_zero_embeddings(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)], np.eye(3, 4))
        cfg = EncoderConfig(input_dim=4, n_classes=2, n_layers=2, hidden_dim=5, dropout=0.5)
        params = init_params(cfg, seed=0)
        for name in params.names():
            params[name].data[:] = 0
        table = encode_all(g, params, cfg)
        assert np.all(table.vectors == 0)

    def test_two_node_hand_aggregation(self):
        # 0 <-> 1, one layer, identity weights: both rows become e1 + e2
        g = graph_from_edges(2, [(0, 1)], np.eye(2, 2))
        cfg = EncoderConfig(input_dim=2, n_classes=2, n_layers=1, hidden_dim=2, dropout=0.0)
        params = init_params(cfg, seed=0)
        params["layer0.w_self"].data[:] = np.eye(2)
        params["layer0.w_neigh"].data[:] = np.eye(2)
        params["layer0.b"].data[:] = 0
        table = encode_all(g, params, cfg)
        expected = np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(table.vectors, expected, atol=1e-6)

    def test_isolated_node_sees_only_itself(self):
        feats = np.eye(4, 4)
        g1 = graph_from_edges(4, [(0, 1)], feats)
        feats2 = feats.copy()
        feats2[1] = 7.0  # neighbor of 0 changes; 3 is isolated
        g2 = graph_from_edges(4, [(0, 1)], feats2)
        cfg = EncoderConfig(input_dim=4, n_classes=2, n_layers=2, hidden_dim=6, dropout=0.0)
        params = init_params(cfg, seed=3)
        t1, t2 = encode_all(g1, params, cfg), encode_all(g2, params, cfg)
        assert np.array_equal(t1.vectors[3], t2.vectors[3])
        assert not np.array_equal(t1.vectors[0], t2.vectors[0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        n = 12
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        feats = rng.standard_normal((n, 5))
        g = graph_from_edges(n, edges, feats)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        pedges = [(int(inv[a]), int(inv[b])) for a, b in edges]
        pg = graph_from_edges(n, pedges, feats[perm])
        cfg = EncoderConfig(input_dim=5, n_classes=2, n_layers=2, hidden_dim=8, dropout=0.0)
        params = init_params(cfg, seed=5)
        base = encode_all(g, params, cfg).vectors
        permuted = encode_all(pg, params, cfg).vectors
        np.testing.assert_allclose(permuted, base[perm], atol=1e-5)

    def test_locality_bound_by_layer_count(self, path_graph):
        cfg = EncoderConfig(input_dim=4, n_classes=2, n_layers=2, hidden_dim=6, dropout=0.0)
        params = init_params(cfg, seed=2)
        base = encode_all(path_graph, params, cfg).vectors
        feats = path_graph.features.copy()
        feats[5] += 3.0  # node 5 is 5 hops from node 0
        moved = TagGraph(
            n_nodes=path_graph.n_nodes, csr_offsets=path_graph.csr_offsets,
            csr_targets=path_graph.csr_targets, features=feats, texts=path_graph.texts,
            labels=path_graph.labels, label_vocab=path_graph.label_vocab,
        )
        other = encode_all(moved, params, cfg).vectors
        assert np.array_equal(base[0], other[0])
        assert not np.array_equal(base[4], other[4])

    def test_eval_mode_bitwise_repeatable(self, noisy_sbm):
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=3, hidden_dim=16, dropout=0.5)
        params = init_params(cfg, seed=6)
        a = encode_all(noisy_sbm, params, cfg).vectors
        b = encode_all(noisy_sbm, params, cfg).vectors
        assert a.tobytes() == b.tobytes()

    def test_training_mode_needs_rng_and_differs(self, noisy_sbm):
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=2, hidden_dim=16, dropout=0.5)
        params = init_params(cfg, seed=6)
        with pytest.raises(ValueError, match="rng"):
            encode(Tape(), noisy_sbm, params, cfg, training=True)
        a = encode(Tape(), noisy_sbm, params, cfg, training=True, rng=np.random.default_rng(1))
        b = encode(Tape(), noisy_sbm, params, cfg, training=False)
        assert not np.array_equal(a.data, b.data)
        assert np.array_equal(b.data, encode_all(noisy_sbm, params, cfg).vectors)

    def test_last_layer_is_linear(self):
        # negative entries survive in the final embedding (no terminal ReLU)
        g = graph_from_edges(3, [(0, 1), (1, 2)], -np.eye(3, 3))
        cfg = EncoderConfig(input_dim=3, n_classes=2, n_layers=1, hidden_dim=3, dropout=0.0)
        params = init_params(cfg, seed=0)
        params["layer0.w_self"].data[:] = np.eye(3)
        params["layer0.w_neigh"].data[:] = 0
        table = encode_all(g, params, cfg)
        assert table.vectors.min() < 0

    def test_feature_dim_mismatch(self, noisy_sbm):
        cfg = EncoderConfig(input_dim=99, n_classes=3, n_layers=3, hidden_dim=256, dropout=0.5)
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="dim"):
            encode_all(noisy_sbm, params, cfg)


class TestEncodePlan:
    """Training encodes only the receptive field of the loss nodes; in eval
    mode each row it computes must be the row the whole graph gives."""

    @staticmethod
    def sparse_graph():
        # 40 nodes, about 2 neighbours each; nodes 36-39 have no edge at all
        rng = np.random.default_rng(21)
        n = 40
        edges = [(i, j) for i in range(36) for j in range(i + 1, 36) if rng.random() < 0.06]
        return graph_from_edges(n, edges, rng.standard_normal((n, 5)),
                                labels=rng.integers(0, 3, n), n_classes=3)

    LOSS_NODES = np.array([30, 3, 37, 11, 3, 24])  # unsorted, repeated, one isolated

    def loss_and_grads(self, graph, params, cfg, nodes):
        tape = Tape()
        emb = encode(tape, graph, params, cfg, nodes)
        out = np.arange(graph.n_nodes) if nodes is None else np.unique(nodes)
        rows = nncore.gather_rows(tape, emb, np.searchsorted(out, self.LOSS_NODES))
        loss = nncore.softmax_xent(tape, logits_on_tape(tape, rows, params),
                                   graph.labels[self.LOSS_NODES])
        return emb.data, loss.item(), backward(tape, loss, params)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_rows_equal_full_graph_and_gradients_agree(self, dtype, tol):
        graph = self.sparse_graph()
        cfg = EncoderConfig(input_dim=5, n_classes=3, n_layers=3, hidden_dim=12, dropout=0.5)
        params = init_params(cfg, seed=4, dtype=dtype)
        full_emb, full_loss, full_grads = self.loss_and_grads(graph, params, cfg, None)
        emb, loss, grads = self.loss_and_grads(graph, params, cfg, self.LOSS_NODES)
        plan = encode_plan(graph, cfg.n_layers, self.LOSS_NODES)
        assert plan.rows[0].size < graph.n_nodes  # the plan does skip rows
        assert emb.dtype == dtype
        assert emb.tobytes() == full_emb[np.unique(self.LOSS_NODES)].tobytes()
        assert loss == full_loss
        for name, g in full_grads.items():
            assert np.abs(grads[name] - g).max() <= tol * np.abs(g).max(), name

    def test_training_encode_draws_one_mask_per_hidden_layer_in_order(self):
        graph = self.sparse_graph()
        cfg = EncoderConfig(input_dim=5, n_classes=3, n_layers=3, hidden_dim=12, dropout=0.5)
        params = init_params(cfg, seed=4)
        plan = encode_plan(graph, cfg.n_layers, self.LOSS_NODES)
        used, expected = np.random.default_rng(8), np.random.default_rng(8)
        encode(Tape(), graph, params, cfg, self.LOSS_NODES, training=True, rng=used)
        for rows in plan.rows[1:-1]:  # what layers 0 .. L-2 write
            expected.random((rows.size, cfg.hidden_dim))
        assert [rows.size for rows in plan.rows[1:-1]] != [graph.n_nodes] * 2
        assert used.bit_generator.state == expected.bit_generator.state

    def test_plan_rows_are_the_receptive_field(self, path_graph):
        # path 0-1-2-3-4-5 plus isolated 6: layer l reads 3 - l hops around {1, 6}
        plan = encode_plan(path_graph, 3, [6, 1])
        assert [r.tolist() for r in plan.rows] == [
            [0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 6], [0, 1, 2, 6], [1, 6]]
        assert plan.own[2].tolist() == [1, 3]

    def test_all_loss_nodes_record_no_gather(self, noisy_sbm, monkeypatch):
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=3, hidden_dim=16, dropout=0.5)
        params = init_params(cfg, seed=6)
        calls = []
        original = nncore.gather_rows
        monkeypatch.setattr(nncore, "gather_rows", lambda *a: calls.append(a) or original(*a))
        every = np.arange(noisy_sbm.n_nodes)[::-1]
        emb = encode(Tape(), noisy_sbm, params, cfg, every, training=True,
                     rng=np.random.default_rng(0))
        assert calls == []
        assert all(pos is None for pos in encode_plan(noisy_sbm, 3, every).own)
        assert emb.rows == noisy_sbm.n_nodes

    @pytest.mark.parametrize("bad", [[-1], [0, 90], [2**40]])
    def test_node_outside_the_graph_is_refused(self, noisy_sbm, bad):
        assert noisy_sbm.n_nodes == 90
        with pytest.raises(ValueError, match="node ids must lie in"):
            encode_plan(noisy_sbm, 2, bad)


class TestClassifyLogits:
    def test_zero_head_gives_uniform_softmax(self):
        cfg = EncoderConfig(input_dim=4, n_classes=5, n_layers=1, hidden_dim=4, dropout=0.5)
        params = init_params(cfg, seed=0)
        params["head.w"].data[:] = 0
        params["head.b"].data[:] = 0
        table = EmbeddingTable(vectors=np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32))
        logits = classify_logits(table, params)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    def test_one_hot_identity_head_argmax(self):
        cfg = EncoderConfig(input_dim=3, n_classes=3, n_layers=1, hidden_dim=3, dropout=0.5)
        params = init_params(cfg, seed=0)
        params["head.w"].data[:] = np.eye(3)
        params["head.b"].data[:] = 0
        table = EmbeddingTable(vectors=np.eye(3, dtype=np.float32))
        assert np.argmax(classify_logits(table, params), axis=1).tolist() == [0, 1, 2]

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((10, 8)).astype(np.float32)
        cfg = EncoderConfig(input_dim=8, n_classes=5, n_layers=1, hidden_dim=8, dropout=0.5)
        params = init_params(cfg, seed=1)
        expected = np.zeros((10, 5), np.float64)
        for i in range(10):
            for j in range(5):
                expected[i, j] = params["head.b"].data[0, j] + sum(
                    float(emb[i, k]) * float(params["head.w"].data[k, j]) for k in range(8)
                )
        got = classify_logits(EmbeddingTable(vectors=emb), params)
        np.testing.assert_allclose(got, expected, rtol=1e-5)

    def test_non_finite_embeddings_are_refused(self):
        cfg = EncoderConfig(input_dim=4, n_classes=3, n_layers=1, hidden_dim=4, dropout=0.5)
        params = init_params(cfg, seed=0)
        emb = np.ones((2, 4), np.float32)
        emb[1, 2] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            classify_logits(EmbeddingTable(vectors=emb), params)

    def test_missing_head(self):
        from gicl.nncore import ParamSet

        with pytest.raises(ValueError, match="head"):
            classify_logits(EmbeddingTable(vectors=np.zeros((2, 2), np.float32)), ParamSet())


def test_embedding_table_export_roundtrip(tmp_path, noisy_sbm):
    cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=2, hidden_dim=12, dropout=0.5)
    params = init_params(cfg, seed=0)
    table = encode_all(noisy_sbm, params, cfg)
    table.save(tmp_path / "emb")
    back = EmbeddingTable.load(tmp_path / "emb")
    assert np.array_equal(back.vectors, table.vectors)


def test_embedding_table_load_rejects_truncated_payload(tmp_path):
    EmbeddingTable(vectors=np.ones((4, 3), np.float32)).save(tmp_path / "emb")
    payload = (tmp_path / "emb.bin").read_bytes()
    (tmp_path / "emb.bin").write_bytes(payload[:-8])  # two float32 values short
    with pytest.raises(BundleError, match=r"emb\.bin holds 10 values, expected 4x3=12"):
        EmbeddingTable.load(tmp_path / "emb")
