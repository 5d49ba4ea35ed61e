import numpy as np
import pytest

from gicl.encoder import (
    EmbeddingTable,
    EncoderConfig,
    classify_logits,
    encode_all,
    encode_on_tape,
    init_params,
    neighbor_aggregator,
)
from gicl.graphstore import BundleError, TagGraph, _build_csr
from gicl.nncore import Tape, Tensor2


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
        cfg = EncoderConfig(input_dim=8, n_classes=3)
        a, b = init_params(cfg, seed=4), init_params(cfg, seed=4)
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_shapes_follow_config(self):
        cfg = EncoderConfig(input_dim=128, n_classes=7, n_layers=3, hidden_dim=256)
        params = init_params(cfg, seed=0)
        assert params["layer0.w_self"].shape == (128, 256)
        assert params["layer0.w_neigh"].shape == (128, 256)
        assert params["layer1.w_self"].shape == (256, 256)
        assert params["layer2.w_neigh"].shape == (256, 256)
        assert params["head.w"].shape == (256, 7)
        assert params["head.b"].shape == (1, 7)

    def test_entries_within_glorot_bound(self):
        cfg = EncoderConfig(input_dim=16, n_classes=2, n_layers=2, hidden_dim=32)
        params = init_params(cfg, seed=1)
        a0 = np.sqrt(6.0 / (16 + 32))
        assert np.all(np.abs(params["layer0.w_self"].data) < a0)
        a1 = np.sqrt(6.0 / (32 + 32))
        assert np.all(np.abs(params["layer1.w_neigh"].data) < a1)
        assert np.all(params["layer0.b"].data == 0)


class TestEncodeAll:
    def test_zero_params_give_zero_embeddings(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)], np.eye(3, 4))
        cfg = EncoderConfig(input_dim=4, n_classes=2, n_layers=2, hidden_dim=5)
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
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=3, hidden_dim=16)
        params = init_params(cfg, seed=6)
        a = encode_all(noisy_sbm, params, cfg).vectors
        b = encode_all(noisy_sbm, params, cfg).vectors
        assert a.tobytes() == b.tobytes()

    def test_training_mode_needs_rng_and_differs(self, noisy_sbm):
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=2, hidden_dim=16, dropout=0.5)
        params = init_params(cfg, seed=6)
        feats, agg = Tensor2(noisy_sbm.features), neighbor_aggregator(noisy_sbm)
        with pytest.raises(ValueError, match="rng"):
            encode_on_tape(Tape(), feats, agg, params, cfg, training=True)
        a = encode_on_tape(Tape(), feats, agg, params, cfg, training=True,
                           rng=np.random.default_rng(1))
        b = encode_on_tape(Tape(), feats, agg, params, cfg, training=False)
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
        cfg = EncoderConfig(input_dim=99, n_classes=3)
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="dim"):
            encode_all(noisy_sbm, params, cfg)


class TestClassifyLogits:
    def test_zero_head_gives_uniform_softmax(self):
        cfg = EncoderConfig(input_dim=4, n_classes=5, n_layers=1, hidden_dim=4)
        params = init_params(cfg, seed=0)
        params["head.w"].data[:] = 0
        params["head.b"].data[:] = 0
        table = EmbeddingTable(vectors=np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32))
        logits = classify_logits(table, params)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    def test_one_hot_identity_head_argmax(self):
        cfg = EncoderConfig(input_dim=3, n_classes=3, n_layers=1, hidden_dim=3)
        params = init_params(cfg, seed=0)
        params["head.w"].data[:] = np.eye(3)
        params["head.b"].data[:] = 0
        table = EmbeddingTable(vectors=np.eye(3, dtype=np.float32))
        assert np.argmax(classify_logits(table, params), axis=1).tolist() == [0, 1, 2]

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((10, 8)).astype(np.float32)
        cfg = EncoderConfig(input_dim=8, n_classes=5, n_layers=1, hidden_dim=8)
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
        params = init_params(EncoderConfig(input_dim=4, n_classes=3, n_layers=1, hidden_dim=4), seed=0)
        emb = np.ones((2, 4), np.float32)
        emb[1, 2] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            classify_logits(EmbeddingTable(vectors=emb), params)

    def test_missing_head(self):
        from gicl.nncore import ParamSet

        with pytest.raises(ValueError, match="head"):
            classify_logits(EmbeddingTable(vectors=np.zeros((2, 2), np.float32)), ParamSet())


def test_embedding_table_export_roundtrip(tmp_path, noisy_sbm):
    cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=2, hidden_dim=12)
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
