import hashlib

import numpy as np
import pytest
from conftest import finite_difference_grads, gradcheck_errors

from gicl import nncore
from gicl.encoder import (
    EmbeddingTable,
    EncoderConfig,
    classify_logits,
    encode_all,
    encode_on_tape,
    init_params,
    propagate,
)
from gicl.graphstore import BundleError, TagGraph, _build_csr, load_bundle, synth_sbm, write_bundle
from gicl.nncore import ParamSet, Tape, Tensor2, backward


def encode(tape, graph, params, cfg, training=False, rng=None):
    """Every node's embedding, from its propagated row."""
    inputs = Tensor2(propagate(graph, cfg.n_layers).astype(params.dtype))
    return encode_on_tape(tape, inputs, params, cfg, training=training, rng=rng)


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
        assert params.names() == ["mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2", "head.w", "head.b"]
        assert params["mlp.w1"].shape == (128, 256)
        assert params["mlp.b1"].shape == (1, 256)
        assert params["mlp.w2"].shape == (256, 256)
        assert params["head.w"].shape == (256, 7)
        assert params["head.b"].shape == (1, 7)

    def test_entries_within_glorot_bound(self):
        cfg = EncoderConfig(input_dim=16, n_classes=2, n_layers=2, hidden_dim=32, dropout=0.5)
        params = init_params(cfg, seed=1)
        a0 = np.sqrt(6.0 / (16 + 32))
        assert np.all(np.abs(params["mlp.w1"].data) < a0)
        a1 = np.sqrt(6.0 / (32 + 32))
        assert np.all(np.abs(params["mlp.w2"].data) < a1)
        assert np.all(params["mlp.b1"].data == 0)


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
        # 0 <-> 1, one hop, identity weights: both rows become (e1 + e2) / 2
        g = graph_from_edges(2, [(0, 1)], np.eye(2, 2))
        cfg = EncoderConfig(input_dim=2, n_classes=2, n_layers=1, hidden_dim=2, dropout=0.0)
        params = init_params(cfg, seed=0)
        for i in (1, 2):
            params[f"mlp.w{i}"].data[:] = np.eye(2)
            params[f"mlp.b{i}"].data[:] = 0
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
        g = graph_from_edges(3, [(0, 1), (1, 2)], np.eye(3, 3))
        cfg = EncoderConfig(input_dim=3, n_classes=2, n_layers=1, hidden_dim=3, dropout=0.0)
        params = init_params(cfg, seed=0)
        params["mlp.w1"].data[:] = np.eye(3)
        params["mlp.w2"].data[:] = -np.eye(3)
        table = encode_all(g, params, cfg)
        assert table.vectors.min() < 0

    def test_feature_dim_mismatch(self, noisy_sbm):
        cfg = EncoderConfig(input_dim=99, n_classes=3, n_layers=3, hidden_dim=256, dropout=0.5)
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="dim"):
            encode_all(noisy_sbm, params, cfg)

    def test_graphsage_parameters_are_refused_by_name(self, noisy_sbm):
        # a model directory written by gicl 0.1 holds per-layer GraphSAGE weights
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=2, hidden_dim=4, dropout=0.5)
        legacy = ParamSet()
        for name, shape in (("layer0.w_self", (8, 4)), ("layer0.b", (1, 4)), ("head.w", (4, 3)),
                            ("head.b", (1, 3))):
            legacy.add(name, np.ones(shape))
        with pytest.raises(ValueError, match="no mlp.w1, mlp.b1, mlp.w2, mlp.b2.*GraphSAGE"):
            encode_all(noisy_sbm, legacy, cfg)


def dense_propagation(graph, hops):
    """(D^-1 (A + I))^hops X from a dense adjacency with A[v, u] = 1 for every
    stored edge v -> u."""
    n = graph.n_nodes
    a = np.eye(n)
    for v in range(n):
        a[v, graph.csr_targets[graph.csr_offsets[v]:graph.csr_offsets[v + 1]]] = 1.0
    p = a / a.sum(axis=1, keepdims=True)
    return np.linalg.matrix_power(p, hops) @ graph.features.astype(np.float64)


class TestPropagate:
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_path_graph_matches_dense_operator(self, path_graph, hops):
        got = propagate(path_graph, hops)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, dense_propagation(path_graph, hops), rtol=0, atol=1e-14)
        # node 6 has no edge: every hop keeps its own row
        assert np.array_equal(got[6], path_graph.features[6].astype(np.float64))

    def test_directed_bundle_follows_stored_edges(self, tmp_path):
        write_bundle(synth_sbm(n_nodes=40, n_classes=3, p_in=0.2, p_out=0.02, d=5, noise=0.3,
                               seed=7), tmp_path / "b")
        directed = load_bundle(tmp_path / "b", symmetrize=False)
        undirected = load_bundle(tmp_path / "b")
        assert directed.n_edges * 2 == undirected.n_edges  # each edge stored one way only
        for graph in (directed, undirected):
            np.testing.assert_allclose(propagate(graph, 3), dense_propagation(graph, 3),
                                       rtol=0, atol=1e-13)
        assert not np.allclose(propagate(directed, 3), propagate(undirected, 3))

    def test_encode_all_reads_the_propagated_rows(self, noisy_sbm):
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=2, hidden_dim=16, dropout=0.5)
        params = init_params(cfg, seed=6)
        rows = Tensor2(propagate(noisy_sbm, 2).astype(np.float32))
        assert np.array_equal(encode_on_tape(Tape(), rows, params, cfg).data,
                              encode_all(noisy_sbm, params, cfg).vectors)


    # SHA-256 of propagate's float64 bytes, as the earlier scipy CSR-product
    # implementation computed them: each row sums its (1/size) * x[j] terms in
    # group order from zero, so any other summation order changes a digest
    @pytest.mark.parametrize("hops, digest", [
        (0, "08e8e9eef92e8fb3f5146b061ac7b49c55f11d8709fcf3532ee01fcece739435"),
        (1, "90e1c2448c1269bad73a803ddf72e4fd5206850cb8566e285a766e2e6195a4b9"),
        (3, "113339b204cfb86e2239c24ddcf5fb25d12764b848243cff6f214c6b880b609b"),
    ])
    def test_path_graph_digest_is_pinned(self, path_graph, hops, digest):
        assert hashlib.sha256(propagate(path_graph, hops).tobytes()).hexdigest() == digest

    def test_directed_bundle_digest_is_pinned(self, tmp_path):
        write_bundle(synth_sbm(n_nodes=40, n_classes=3, p_in=0.2, p_out=0.02, d=5, noise=0.3,
                               seed=7), tmp_path / "b")
        rows = propagate(load_bundle(tmp_path / "b", symmetrize=False), 3)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "df5f1fd7e13389b8ed77ec7e5d292ac6b8c25e01c6ef39e3f40204bee9d6c8f2")

    def test_c5_graph_digest_is_pinned(self):
        graph = synth_sbm(n_nodes=1000, n_classes=5, p_in=0.05, p_out=0.005, d=16, noise=0.6, seed=1)
        assert hashlib.sha256(propagate(graph, 3).tobytes()).hexdigest() == (
            "ddbb2666db2ef36047cb8d84c2973bfe343b2b6b5443c585704ec6a4db15b47c")

    @pytest.mark.parametrize("hops", [-1, -3])
    def test_negative_hops_are_refused(self, path_graph, hops):
        with pytest.raises(ValueError, match=f"hops must be >= 0, got {hops}"):
            propagate(path_graph, hops)
        assert path_graph.propagated == {}

    def test_each_hop_count_is_computed_once_and_read_only(self, noisy_sbm):
        first = propagate(noisy_sbm, 2)
        assert propagate(noisy_sbm, 2) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0
        assert not np.shares_memory(propagate(noisy_sbm, 1), first)
        # an equal graph is another graph: it computes and keeps its own array
        twin = synth_sbm(n_nodes=90, n_classes=3, p_in=0.3, p_out=0.03, d=8, noise=0.4, seed=4)
        other = propagate(twin, 2)
        assert np.array_equal(other, first) and not np.shares_memory(other, first)


class TestEncodeOnTape:
    """The MLP against a numpy transcription of the formula, and the row
    independence that lets an epoch encode only the rows its losses read."""

    CFG = EncoderConfig(input_dim=4, n_classes=3, n_layers=2, hidden_dim=5, dropout=0.5)

    @staticmethod
    def layout(name):
        rng = np.random.default_rng(len(name))
        rows = {"one_row": 1, "many_rows": 7, "dead_row": 4}[name]
        x = rng.standard_normal((rows, 4))
        if name == "dead_row":
            x[2] = -5.0  # every hidden unit of row 2 is negative before the ReLU
        return x

    def mlp_params(self, dtype):
        params = init_params(self.CFG, seed=3, dtype=dtype)
        rng = np.random.default_rng(30)
        # positive first-layer weights, so a row of -5 has no live hidden unit;
        # biases off zero, so such a row still keeps a direction after the MLP
        params["mlp.w1"].data[:] = np.abs(params["mlp.w1"].data) + 0.1
        for name in ("mlp.b1", "mlp.b2"):
            params[name].data[:] = rng.uniform(-0.3, 0.3, params[name].shape)
        return params

    def reference(self, x, params, rate):
        """e = normalize(dropout(ReLU(x W1 + b1)) W2 + b2) in float64, drawing the
        mask as nncore.dropout does, from a generator seeded like the one used."""
        p = {name: params[name].data.astype(np.float64) for name in params.names()}
        h = np.maximum(x @ p["mlp.w1"] + p["mlp.b1"], 0)
        if rate > 0:
            h = h * (np.random.default_rng(8).random(h.shape) >= rate) / (1 - rate)
        y = h @ p["mlp.w2"] + p["mlp.b2"]
        return y / np.linalg.norm(y, axis=1, keepdims=True)

    @pytest.mark.parametrize("training, rate", [(False, 0.5), (True, 0.0), (True, 0.3), (True, 0.5)])
    @pytest.mark.parametrize("name", ["dead_row", "many_rows", "one_row"])
    def test_output_and_gradients_match_the_formula(self, name, training, rate):
        x = self.layout(name)
        cfg = EncoderConfig(input_dim=4, n_classes=3, n_layers=2, hidden_dim=5, dropout=rate)
        params = self.mlp_params(np.float64)
        readout = Tensor2(np.random.default_rng(31).standard_normal((x.shape[0], 5)))

        def build(tape):
            emb = encode_on_tape(tape, Tensor2(x), params, cfg, training=training,
                                 rng=np.random.default_rng(8))
            return emb, nncore.sum_all(tape, nncore.rowwise_dot(tape, emb, readout))

        tape = Tape()
        emb, loss = build(tape)
        want = self.reference(x, params, rate if training else 0.0)
        np.testing.assert_allclose(emb.data, want, rtol=0, atol=1e-12)
        analytic = backward(tape, loss, params)
        numeric = finite_difference_grads(lambda: build(Tape())[1].item(), params)
        assert gradcheck_errors(analytic, numeric) <= 1e-4
        if name == "dead_row":
            # row 2 is b2 normalized, dropout or not: no hidden unit of it is live
            np.testing.assert_allclose(
                emb.data[2], params["mlp.b2"].data[0] / np.linalg.norm(params["mlp.b2"].data),
                atol=1e-12)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_subset_rows_equal_full_graph_and_gradients_agree(self, noisy_sbm, dtype, tol):
        # the loss reads rows 30, 3, 11 and 24 (3 twice): encoding those rows
        # alone gives the same embeddings, loss and gradients as encoding all 90
        cfg = EncoderConfig(input_dim=8, n_classes=3, n_layers=3, hidden_dim=12, dropout=0.5)
        params = init_params(cfg, seed=4, dtype=dtype)
        rows = propagate(noisy_sbm, cfg.n_layers).astype(dtype)
        loss_nodes = np.array([30, 3, 11, 3, 24])
        subset = np.unique(loss_nodes)

        def loss_and_grads(inputs, positions):
            tape = Tape()
            emb = encode_on_tape(tape, Tensor2(inputs), params, cfg)
            picked = nncore.gather_rows(tape, emb, positions)
            loss = nncore.softmax_xent(tape, nncore.linear(tape, picked, params["head.w"],
                                                           params["head.b"]),
                                       noisy_sbm.labels[loss_nodes])
            return emb.data, loss.item(), backward(tape, loss, params)

        full_emb, full_loss, full_grads = loss_and_grads(rows, loss_nodes)
        emb, loss, grads = loss_and_grads(rows[subset], np.searchsorted(subset, loss_nodes))
        assert emb.dtype == dtype
        assert emb.tobytes() == full_emb[subset].tobytes()
        assert loss == full_loss
        for name, g in full_grads.items():
            assert np.abs(grads[name] - g).max() <= tol * np.abs(g).max(), name

    @pytest.mark.parametrize("training, rate, n_draws", [(False, 0.5, 0), (True, 0.0, 0), (True, 0.5, 1)])
    def test_training_with_dropout_draws_one_mask_of_rows_by_hidden(self, training, rate, n_draws):
        cfg = EncoderConfig(input_dim=4, n_classes=3, n_layers=2, hidden_dim=5, dropout=rate)
        x = Tensor2(self.layout("many_rows").astype(np.float32))
        used, expected = np.random.default_rng(8), np.random.default_rng(8)
        encode_on_tape(Tape(), x, self.mlp_params(np.float32), cfg, training=training, rng=used)
        for _ in range(n_draws):
            expected.random((7, cfg.hidden_dim))
        assert used.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("cols, training, match", [
        (3, False, "feature rows have dim 3, input_dim is 4"),
        (4, True, "dropout needs an rng"),
    ])
    def test_unusable_inputs_are_refused(self, cols, training, match):
        x = Tensor2(np.ones((2, cols), np.float32))
        with pytest.raises(ValueError, match=match):
            encode_on_tape(Tape(), x, self.mlp_params(np.float32), self.CFG, training=training)


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
