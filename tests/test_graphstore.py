import hashlib
import json
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gicl import graphstore
from gicl.graphstore import (
    UNLABELED,
    BundleError,
    SplitSpec,
    TagGraph,
    bundle_hash,
    load_bundle,
    load_split_file,
    neighbors,
    sample_label_fraction,
    synth_sbm,
    write_bundle,
)


def write_raw_bundle(root, nodes, edges, features, vocab, splits=None):
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "nodes.jsonl", "w") as fh:
        for obj in nodes:
            fh.write(json.dumps(obj) + "\n")
    with open(root / "edges.tsv", "w") as fh:
        for s, t in edges:
            fh.write(f"{s}\t{t}\n")
    features = np.asarray(features, dtype="<f4")
    features.tofile(root / "features.bin")
    with open(root / "features.json", "w") as fh:
        json.dump({"rows": features.shape[0], "cols": features.shape[1],
                   "dtype": "f32le", "layout": "row-major"}, fh)
    with open(root / "labels.json", "w") as fh:
        json.dump(vocab, fh)
    if splits is not None:
        with open(root / "splits.json", "w") as fh:
            json.dump(splits, fh)


@pytest.fixture
def tiny_bundle(tmp_path):
    nodes = [
        {"id": 10, "text": "first", "label": "a"},
        {"id": 11, "text": "second", "label": "b"},
        {"id": 12, "text": "third", "label": None},
    ]
    write_raw_bundle(tmp_path / "b", nodes, [(10, 11), (11, 12)],
                     np.arange(6).reshape(3, 2), ["a", "b"])
    return tmp_path / "b"


class TestLoadBundle:
    def test_directed_csr_layout(self, tiny_bundle):
        g = load_bundle(tiny_bundle, symmetrize=False)
        assert g.n_nodes == 3
        assert g.csr_offsets.tolist() == [0, 1, 2, 2]
        assert g.csr_targets.tolist() == [1, 2]
        assert g.directed

    def test_symmetrized_by_default(self, tiny_bundle):
        g = load_bundle(tiny_bundle)
        assert neighbors(g, 1).tolist() == [0, 2]
        assert not g.directed

    def test_ids_reindexed_in_file_order(self, tiny_bundle):
        g = load_bundle(tiny_bundle)
        assert g.texts == ("first", "second", "third")
        assert g.labels.tolist() == [0, 1, UNLABELED]

    def test_duplicate_edges_collapse(self, tmp_path):
        nodes = [{"id": i, "text": "t", "label": "a"} for i in range(2)]
        write_raw_bundle(tmp_path / "b", nodes, [(0, 1), (0, 1)], np.zeros((2, 2)), ["a"])
        g = load_bundle(tmp_path / "b", symmetrize=False)
        assert g.n_edges == 1

    def test_self_loops_dropped(self, tmp_path):
        nodes = [{"id": i, "text": "t", "label": "a"} for i in range(2)]
        write_raw_bundle(tmp_path / "b", nodes, [(0, 0), (0, 1)], np.zeros((2, 2)), ["a"])
        g = load_bundle(tmp_path / "b", symmetrize=False)
        assert g.csr_targets.tolist() == [1]

    def test_row_count_mismatch_names_files(self, tmp_path):
        nodes = [{"id": i, "text": "t", "label": "a"} for i in range(4)]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((4, 2)), ["a"])
        with open(tmp_path / "b" / "features.json", "w") as fh:
            json.dump({"rows": 5, "cols": 2, "dtype": "f32le", "layout": "row-major"}, fh)
        with pytest.raises(BundleError, match="rows=5.*4 lines"):
            load_bundle(tmp_path / "b")

    def test_unknown_label_names_line(self, tmp_path):
        nodes = [{"id": 0, "text": "t", "label": "a"}, {"id": 1, "text": "t", "label": "zzz"}]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((2, 2)), ["a"])
        with pytest.raises(BundleError, match="line 2.*zzz"):
            load_bundle(tmp_path / "b")

    def test_class_listed_twice_is_refused_by_name(self, tmp_path):
        # loaded, the second "topic-0" would take every topic-0 node and leave class 0 empty
        vocab = ["topic-0", "topic-1", "topic-2", "topic-0"]
        nodes = [{"id": i, "text": "t", "label": vocab[i % 3]} for i in range(6)]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((6, 2)), vocab)
        with pytest.raises(BundleError, match=r"labels\.json: class 'topic-0' is listed twice"):
            load_bundle(tmp_path / "b")

    def test_missing_file(self, tmp_path):
        (tmp_path / "b").mkdir()
        with pytest.raises(BundleError, match="missing"):
            load_bundle(tmp_path / "b")

    def test_non_finite_feature_names_row(self, tmp_path):
        nodes = [{"id": 0, "text": "t", "label": "a"}, {"id": 1, "text": "t", "label": "a"}]
        feats = np.zeros((2, 2))
        feats[1, 0] = np.nan
        write_raw_bundle(tmp_path / "b", nodes, [], feats, ["a"])
        with pytest.raises(BundleError, match="row 1"):
            load_bundle(tmp_path / "b")

    def test_unknown_edge_endpoint_names_line(self, tmp_path):
        nodes = [{"id": 0, "text": "t", "label": "a"}]
        write_raw_bundle(tmp_path / "b", nodes, [(0, 7)], np.zeros((1, 2)), ["a"])
        with pytest.raises(BundleError, match="edges.tsv line 1"):
            load_bundle(tmp_path / "b")

    GOOD_NODE = '{"id": 0, "text": "t", "label": "a"}'

    @pytest.mark.parametrize("lines, message", [
        ([GOOD_NODE, "", "{not json"], "nodes.jsonl line 3: invalid JSON"),
        ([GOOD_NODE, '{"id": 1, "text": "t"} {"id": 2, "text": "u"}'],
         "nodes.jsonl line 2: invalid JSON"),
        # each line is malformed alone, though joined they would be one object
        ([GOOD_NODE, '{"id": 1, "text": "t", "x": [0', '1]}'], "nodes.jsonl line 2: invalid JSON"),
        ([GOOD_NODE, '{"id": 1}'], "nodes.jsonl line 2: object needs 'id' and 'text'"),
        ([GOOD_NODE, '{"text": "t"}'], "nodes.jsonl line 2: object needs 'id' and 'text'"),
        ([GOOD_NODE, "", '{"id": 0, "text": "u"}'], "nodes.jsonl line 3: duplicate node id 0"),
        ([GOOD_NODE, '{"id": 1, "text": "t", "label": "zzz"}'],
         "nodes.jsonl line 2: unknown label 'zzz'"),
    ])
    def test_node_line_errors_name_their_line(self, tmp_path, lines, message):
        write_raw_bundle(tmp_path / "b", [], [], np.zeros((1, 2)), ["a"])
        (tmp_path / "b" / "nodes.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleError, match="^" + re.escape(message)):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("line", [
        '{"id": 1.7, "text": "t"}', '{"id": true, "text": "t"}', '{"id": null, "text": "t"}',
        '{"id": "x", "text": "t"}', '{"id": "1.0", "text": "t"}', '{"id": NaN, "text": "t"}',
        '{"id": 1e400, "text": "t"}',
        '{"id": [1], "text": "t"}', '{"id": 1, "text": null}', '{"id": 1, "text": 5}',
        '{"id": 1, "text": "t", "label": ["a"]}', '{"id": 1, "text": "t", "label": 0}',
        "5", "[1, 2]", '"text"',
    ])
    def test_every_malformed_node_line_is_refused_by_number(self, tmp_path, line):
        write_raw_bundle(tmp_path / "b", [], [], np.zeros((2, 2)), ["a"])
        (tmp_path / "b" / "nodes.jsonl").write_text(self.GOOD_NODE + "\n" + line + "\n")
        with pytest.raises(BundleError, match="^nodes.jsonl line 2: "):
            load_bundle(tmp_path / "b")

    def test_integer_valued_ids_are_accepted(self, tmp_path):
        big = 2**70
        nodes = [{"id": 3, "text": "a"}, {"id": 4.0, "text": "b"}, {"id": "5", "text": "c"},
                 {"id": big, "text": "d"}]
        write_raw_bundle(tmp_path / "b", nodes, [(3, 4), (4, 5), (5, big)], np.zeros((4, 2)), ["a"])
        g = load_bundle(tmp_path / "b", symmetrize=False)
        assert g.csr_offsets.tolist() == [0, 1, 2, 3, 3]
        assert g.csr_targets.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("edges, message", [
        ("0\t1\n\n1\t2\t0\n", "edges.tsv line 3: expected two tab-separated ids"),
        ("0\t1\n0 1\n", "edges.tsv line 2: expected two tab-separated ids"),
        ("0\t1\n0\tx\n", "edges.tsv line 2: non-integer node id"),
        ("0\t1\n1\t1.5\n", "edges.tsv line 2: non-integer node id"),
        ("0\t1\n\n0\t7\n", "edges.tsv line 3: unknown node id 7"),
        ("5\t1\n", "edges.tsv line 1: unknown node id 5"),
        ("0\t99999999999999999999\n", "edges.tsv line 1: unknown node id 99999999999999999999"),
        # the first bad line wins, whatever is wrong with the later ones
        ("0\t9\n0\tx\n", "edges.tsv line 1: unknown node id 9"),
        ("0\tx\n0\t9\n", "edges.tsv line 1: non-integer node id"),
        ("0\t1\t2\n0\t9\n", "edges.tsv line 1: expected two tab-separated ids"),
    ])
    def test_edge_line_errors_name_their_line(self, tmp_path, edges, message):
        nodes = [{"id": i, "text": "t", "label": "a"} for i in range(3)]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((3, 2)), ["a"])
        (tmp_path / "b" / "edges.tsv").write_text(edges)
        with pytest.raises(BundleError, match="^" + re.escape(message)):
            load_bundle(tmp_path / "b")

    def test_blank_lines_crlf_and_unicode_line_breaks_in_text(self, tmp_path):
        # lines end only at "\n", and stripping each line loads CRLF; U+2028,
        # U+0085 and form feed inside a JSON string are not line breaks
        texts = ["a\u2028b", "c\x85d", "e\x0cf"]
        nodes = [json.dumps({"id": 10 + i, "text": t, "label": "a"}, ensure_ascii=False)
                 for i, t in enumerate(texts)]
        write_raw_bundle(tmp_path / "b", [], [], np.zeros((3, 2)), ["a"])
        (tmp_path / "b" / "nodes.jsonl").write_bytes(
            ("\r\n".join([nodes[0], "", "  ", nodes[1], nodes[2]]) + "\r\n").encode("utf-8"))
        (tmp_path / "b" / "edges.tsv").write_bytes(b"10\t11\r\n\r\n \t \n 11\t12 \r\n12\t10")
        g = load_bundle(tmp_path / "b", symmetrize=False)
        assert g.texts == tuple(texts)
        assert g.labels.tolist() == [0, 0, 0]
        assert g.csr_offsets.tolist() == [0, 1, 2, 3]
        assert g.csr_targets.tolist() == [1, 2, 0]

    def test_a_lone_carriage_return_does_not_end_a_line(self, tmp_path):
        # "\r" is JSON whitespace between tokens; between two edges it leaves one bad line
        write_raw_bundle(tmp_path / "b", [], [], np.zeros((2, 2)), ["x"])
        (tmp_path / "b" / "nodes.jsonl").write_bytes(
            b'{"id": 0, "text": "a", "label": "x"}\n{"id": 1,\r"text": "b", "label": "x"}\n')
        (tmp_path / "b" / "edges.tsv").write_bytes(b"0\t1\n")
        assert load_bundle(tmp_path / "b").texts == ("a", "b")
        (tmp_path / "b" / "edges.tsv").write_bytes(b"0\t1\n1\t0\r0\t1\n")
        with pytest.raises(BundleError, match="^edges.tsv line 2: expected two tab-separated ids"):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("blank", ["", " ", "\t\u3000"])
    def test_a_blank_class_name_is_refused(self, tmp_path, blank):
        # every completion contains the empty name at position 0: "The answer is b." would
        # parse as the blank class
        nodes = [{"id": 0, "text": "t", "label": "b"}]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((1, 2)), ["b", blank])
        with pytest.raises(BundleError, match=r"labels\.json: class 1 has a blank name"):
            load_bundle(tmp_path / "b")

    def test_memory_per_edge_line(self, tmp_path):
        # a one-pass parse measured 104 bytes per line (Python 3.11, x86-64); one
        # that first split every cell into its own string took 224
        rng = np.random.default_rng(0)
        nodes = [{"id": i, "text": f"t{i}", "label": "a"} for i in range(5000)]
        write_raw_bundle(tmp_path / "b", nodes, rng.integers(0, 5000, (100_000, 2)).tolist(),
                         np.zeros((5000, 2)), ["a"])
        tracemalloc.start()
        try:
            load_bundle(tmp_path / "b")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 100_000 <= 150


@st.composite
def small_graphs(draw):
    """Tiny graphs with unlabeled and isolated nodes, maybe no edges, any Unicode text."""
    n = draw(st.integers(1, 8))
    directed = draw(st.booleans())
    vocab = draw(st.lists(st.text(min_size=1, max_size=4).filter(str.strip), min_size=1,
                          max_size=3, unique=True))  # load_bundle refuses a blank class name
    labels = draw(st.lists(st.integers(UNLABELED, len(vocab) - 1), min_size=n, max_size=n))
    texts = draw(st.lists(st.text(max_size=12), min_size=n, max_size=n))
    d = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=n * d, max_size=n * d))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    adjacency = [set() for _ in range(n)]
    for src, dst in pairs:
        if src != dst:
            adjacency[src].add(dst)
            if not directed:
                adjacency[dst].add(src)
    return TagGraph(
        n_nodes=n, csr_offsets=np.cumsum([0] + [len(a) for a in adjacency]),
        csr_targets=np.array([t for a in adjacency for t in sorted(a)], dtype=np.int64),
        features=np.array(values, dtype=np.float32).reshape(n, d), texts=tuple(texts),
        labels=np.array(labels), label_vocab=tuple(vocab), directed=directed,
    )


@pytest.mark.parametrize("dims, bad", [
    ({"rows": 2.5, "cols": 2}, "rows must be a non-negative integer, got 2.5"),
    ({"rows": "2", "cols": 2}, "rows must be a non-negative integer, got '2'"),
    ({"rows": True, "cols": 4}, "rows must be a non-negative integer, got True"),
    ({"rows": -1, "cols": -16}, "rows must be a non-negative integer, got -1"),
    ({"rows": 4, "cols": -1}, "cols must be a non-negative integer, got -1"),
    ({"cols": 2}, "rows must be a non-negative integer, got None"),
])
def test_matrix_header_dims_must_be_non_negative_integers(tmp_path, dims, bad):
    np.ones(4, "<f4").tofile(tmp_path / "m.bin")
    (tmp_path / "m.json").write_text(json.dumps({**dims, "dtype": "f32le", "layout": "row-major"}))
    with pytest.raises(BundleError, match=re.escape(f"{tmp_path / 'm.json'}: {bad}")):
        graphstore.read_matrix(tmp_path / "m")


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(graph=small_graphs())
    def test_random_graphs_survive_write_then_load(self, graph):
        with tempfile.TemporaryDirectory() as tmp:
            write_bundle(graph, tmp)
            back = load_bundle(tmp, symmetrize=not graph.directed)
        assert np.array_equal(back.csr_offsets, graph.csr_offsets)
        assert np.array_equal(back.csr_targets, graph.csr_targets)
        assert back.features.tobytes() == graph.features.tobytes()
        assert back.texts == graph.texts
        assert np.array_equal(back.labels, graph.labels)
        assert back.label_vocab == graph.label_vocab
        assert back.directed == graph.directed
        assert back.content_hash == graph.content_hash

    def test_write_then_load_is_identity(self, tmp_path, noisy_sbm):
        write_bundle(noisy_sbm, tmp_path / "out")
        back = load_bundle(tmp_path / "out")
        assert back.n_nodes == noisy_sbm.n_nodes
        assert np.array_equal(back.csr_offsets, noisy_sbm.csr_offsets)
        assert np.array_equal(back.csr_targets, noisy_sbm.csr_targets)
        assert back.features.tobytes() == noisy_sbm.features.tobytes()
        assert back.texts == noisy_sbm.texts
        assert np.array_equal(back.labels, noisy_sbm.labels)
        assert back.label_vocab == noisy_sbm.label_vocab

    @pytest.mark.parametrize("cut_at", ["edges.tsv", "labels.json", "features.bin", "features.json"])
    def test_a_rewrite_cut_short_is_refused_not_loaded_as_a_mix(self, cut_at, tmp_path, monkeypatch):
        old, new = (synth_sbm(n_nodes=200, n_classes=4, p_in=0.05, p_out=0.005, d=8, noise=0.5,
                              seed=seed) for seed in (1, 2))
        write_bundle(old, tmp_path)
        atomic_write = graphstore.atomic_write

        def cut(path, *args, **kwargs):
            if path.name == cut_at:
                raise RuntimeError("cut short")
            return atomic_write(path, *args, **kwargs)

        monkeypatch.setattr(graphstore, "atomic_write", cut)
        with pytest.raises(RuntimeError, match="cut short"):
            write_bundle(new, tmp_path)
        monkeypatch.undo()
        with pytest.raises(BundleError, match=r"features\.json: required bundle file is missing"):
            load_bundle(tmp_path)
        write_bundle(new, tmp_path)  # the rerun
        assert load_bundle(tmp_path).content_hash == new.content_hash

    def test_directed_round_trip(self, tmp_path, tiny_bundle):
        g = load_bundle(tiny_bundle, symmetrize=False)
        write_bundle(g, tmp_path / "out")
        back = load_bundle(tmp_path / "out", symmetrize=False)
        assert np.array_equal(back.csr_offsets, g.csr_offsets)
        assert np.array_equal(back.csr_targets, g.csr_targets)
        assert back.directed

    def test_bundle_hash_tracks_content(self, tmp_path, clean_sbm, noisy_sbm):
        write_bundle(clean_sbm, tmp_path / "one")
        write_bundle(clean_sbm, tmp_path / "two")
        write_bundle(noisy_sbm, tmp_path / "three")
        assert bundle_hash(tmp_path / "one") == bundle_hash(tmp_path / "two")
        assert bundle_hash(tmp_path / "one") != bundle_hash(tmp_path / "three")

    def test_written_synth_bundle_is_pinned(self, tmp_path):
        write_bundle(synth_sbm(300, 3, 0.1, 0.01, 8, 0.5, 7), tmp_path / "b")
        assert bundle_hash(tmp_path / "b") == "4f0c4e83b5c649bf"

    def test_content_hash_survives_round_trip_and_tracks_content(self, tmp_path, noisy_sbm):
        write_bundle(noisy_sbm, tmp_path / "out")
        assert load_bundle(tmp_path / "out").content_hash == noisy_sbm.content_hash
        texts = ("changed",) + noisy_sbm.texts[1:]
        edited = TagGraph(
            n_nodes=noisy_sbm.n_nodes, csr_offsets=noisy_sbm.csr_offsets,
            csr_targets=noisy_sbm.csr_targets, features=noisy_sbm.features, texts=texts,
            labels=noisy_sbm.labels, label_vocab=noisy_sbm.label_vocab,
        )
        assert edited.content_hash != noisy_sbm.content_hash

    def test_split_file_roundtrip(self, tmp_path):
        nodes = [{"id": i, "text": "t", "label": "a"} for i in range(4)]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((4, 2)), ["a"],
                         splits={"labeled": [0, 1], "test": [2, 3]})
        got = load_split_file(tmp_path / "b")
        assert got.dtype == np.int64 and got.tolist() == [2, 3]
        assert load_split_file(tmp_path) is None

    def test_rewrite_drops_the_old_graphs_split_file(self, tmp_path):
        bundle = tmp_path / "b"
        write_bundle(synth_sbm(60, 3, 0.1, 0.01, 4, 0.5, 1), bundle)
        (bundle / "splits.json").write_text(json.dumps({"test": [0, 1, 2]}))
        assert load_split_file(bundle).tolist() == [0, 1, 2]
        write_bundle(synth_sbm(40, 3, 0.1, 0.01, 4, 0.5, 2), bundle)
        assert load_split_file(bundle) is None
        assert load_bundle(bundle).n_nodes == 40

    def test_split_file_without_test_ids_is_refused(self, tmp_path):
        nodes = [{"id": i, "text": "t", "label": "a"} for i in range(4)]
        write_raw_bundle(tmp_path / "b", nodes, [], np.zeros((4, 2)), ["a"], splits={"test": []})
        with pytest.raises(BundleError, match="splits.json: 'test' must be a non-empty list"):
            load_split_file(tmp_path / "b")


class TestNeighbors:
    def test_path_interior(self, path_graph):
        assert neighbors(path_graph, 1).tolist() == [0, 2]

    def test_isolated_node_empty(self, path_graph):
        assert neighbors(path_graph, 6).tolist() == []

    def test_star_center_lists_leaves_in_id_order(self):
        # center 2, leaves 0,1,3,4
        edges = np.array([[2, 0], [2, 1], [2, 3], [2, 4]])
        from gicl.graphstore import _build_csr

        offsets, targets = _build_csr(5, edges, symmetrize=True)
        g = TagGraph(
            n_nodes=5, csr_offsets=offsets, csr_targets=targets,
            features=np.zeros((5, 2), np.float32), texts=("t",) * 5,
            labels=np.zeros(5, np.int64), label_vocab=("a",),
        )
        assert neighbors(g, 2).tolist() == [0, 1, 3, 4]

    def test_out_of_range(self, path_graph):
        with pytest.raises(IndexError):
            neighbors(path_graph, 99)

    def test_no_duplicates_and_in_range(self, noisy_sbm):
        for v in range(noisy_sbm.n_nodes):
            ns = neighbors(noisy_sbm, v).tolist()
            assert len(ns) == len(set(ns))
            assert all(0 <= u < noisy_sbm.n_nodes for u in ns)
            assert v not in ns


class TestSampleLabelFraction:
    def test_full_fraction_keeps_every_pool_node(self, noisy_sbm):
        split = sample_label_fraction(noisy_sbm, 1.0, seed=0)
        pool = np.setdiff1d(noisy_sbm.labeled_node_ids(), split.test_ids)
        assert np.array_equal(split.labeled_ids, pool)

    def test_balanced_hundred_nodes_two_per_class(self):
        g = synth_sbm(n_nodes=100, n_classes=5, p_in=0.2, p_out=0.02, d=8, noise=0.1, seed=9)
        split = sample_label_fraction(g, 0.1, seed=3, test_ids=np.array([], dtype=np.int64))
        assert len(split.labeled_ids) == 10
        counts = np.bincount(g.labels[split.labeled_ids], minlength=5)
        assert counts.tolist() == [2, 2, 2, 2, 2]

    def test_deterministic(self, noisy_sbm):
        a = sample_label_fraction(noisy_sbm, 0.3, seed=5)
        b = sample_label_fraction(noisy_sbm, 0.3, seed=5)
        assert np.array_equal(a.labeled_ids, b.labeled_ids)
        assert np.array_equal(a.test_ids, b.test_ids)

    def test_size_within_class_count_of_target(self, noisy_sbm):
        for fraction in (0.1, 0.25, 0.6):
            split = sample_label_fraction(noisy_sbm, fraction, seed=1)
            pool = np.setdiff1d(noisy_sbm.labeled_node_ids(), split.test_ids)
            target = fraction * pool.size
            assert abs(len(split.labeled_ids) - target) <= noisy_sbm.n_classes
            counts = np.bincount(noisy_sbm.labels[split.labeled_ids],
                                 minlength=noisy_sbm.n_classes)
            assert counts.min() >= 1

    def test_disjoint_from_test(self, noisy_sbm):
        split = sample_label_fraction(noisy_sbm, 0.2, seed=7)
        assert np.intersect1d(split.labeled_ids, split.test_ids).size == 0
        assert np.all(np.isin(split.query_train_ids, split.labeled_ids))

    def test_fraction_out_of_range(self, noisy_sbm):
        with pytest.raises(ValueError):
            sample_label_fraction(noisy_sbm, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_label_fraction(noisy_sbm, 1.5, seed=0)

    def test_class_with_no_labels_rejected(self):
        g = synth_sbm(n_nodes=12, n_classes=3, p_in=0.5, p_out=0.1, d=4, noise=0.0, seed=0)
        labels = g.labels.copy()
        labels[labels == 2] = UNLABELED
        bare = TagGraph(
            n_nodes=g.n_nodes, csr_offsets=g.csr_offsets, csr_targets=g.csr_targets,
            features=g.features, texts=g.texts, labels=labels, label_vocab=g.label_vocab,
        )
        with pytest.raises(ValueError, match="zero labeled"):
            sample_label_fraction(bare, 0.5, seed=0)


class TestPresetTestIds:
    """Test ids come from a bundle's splits.json; each must name a distinct labeled node."""

    def test_negative_id_rejected(self, noisy_sbm):
        with pytest.raises(ValueError, match="test id -1 is out of range"):
            sample_label_fraction(noisy_sbm, 0.5, seed=0, test_ids=[-1, 5])

    def test_id_past_the_last_node_rejected(self, noisy_sbm):
        with pytest.raises(ValueError, match="test id 100000 is out of range"):
            sample_label_fraction(noisy_sbm, 0.5, seed=0, test_ids=[100000])

    def test_duplicate_id_rejected(self, noisy_sbm):
        with pytest.raises(ValueError, match="test id 3 is listed more than once"):
            sample_label_fraction(noisy_sbm, 0.5, seed=0, test_ids=[7, 3, 3])

    def test_unlabeled_id_rejected(self, noisy_sbm):
        labels = noisy_sbm.labels.copy()
        labels[4] = UNLABELED
        g = TagGraph(
            n_nodes=noisy_sbm.n_nodes, csr_offsets=noisy_sbm.csr_offsets,
            csr_targets=noisy_sbm.csr_targets, features=noisy_sbm.features,
            texts=noisy_sbm.texts, labels=labels, label_vocab=noisy_sbm.label_vocab,
        )
        with pytest.raises(ValueError, match="test id 4 has no label"):
            sample_label_fraction(g, 0.5, seed=0, test_ids=[2, 4])

    def test_valid_ids_are_the_test_set(self, noisy_sbm):
        split = sample_label_fraction(noisy_sbm, 0.5, seed=0, test_ids=[9, 0, 40])
        assert split.test_ids.tolist() == [0, 9, 40]

    @pytest.mark.parametrize("ids", [[], [12, 70], [1, 2, 3, 4, 50]])
    def test_any_number_of_ids_is_the_test_set(self, noisy_sbm, ids):
        split = sample_label_fraction(noisy_sbm, 0.5, seed=0, test_ids=ids)
        assert split.test_ids.tolist() == sorted(ids)
        assert not set(split.labeled_ids.tolist()) & set(ids)


class TestSynthSbm:
    def test_zero_noise_features_are_centroids(self, clean_sbm):
        centroids = np.eye(clean_sbm.n_classes, clean_sbm.feature_dim, dtype=np.float32)
        assert np.array_equal(clean_sbm.features, centroids[clean_sbm.labels])

    def test_degenerate_densities_make_cliques(self):
        g = synth_sbm(n_nodes=6, n_classes=2, p_in=1.0, p_out=0.0, d=4, noise=0.0, seed=1)
        for v in range(6):
            expected = sorted(u for u in range(6) if u != v and g.labels[u] == g.labels[v])
            assert neighbors(g, v).tolist() == expected

    def test_empirical_densities(self):
        g = synth_sbm(n_nodes=1000, n_classes=5, p_in=0.05, p_out=0.005, d=16, noise=0.6, seed=0)
        same = cross = same_pairs = cross_pairs = 0
        offsets, targets, labels = g.csr_offsets, g.csr_targets, g.labels
        for v in range(g.n_nodes):
            for u in targets[offsets[v]:offsets[v + 1]]:
                if u > v:
                    if labels[u] == labels[v]:
                        same += 1
                    else:
                        cross += 1
        counts = np.bincount(labels)
        same_pairs = int(sum(c * (c - 1) // 2 for c in counts))
        total_pairs = g.n_nodes * (g.n_nodes - 1) // 2
        cross_pairs = total_pairs - same_pairs
        assert abs(same / same_pairs - 0.05) < 0.02
        assert abs(cross / cross_pairs - 0.005) < 0.02

    def test_deterministic(self):
        a = synth_sbm(50, 2, 0.3, 0.05, 4, 0.2, seed=12)
        b = synth_sbm(50, 2, 0.3, 0.05, 4, 0.2, seed=12)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.csr_targets, b.csr_targets)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_sbm(10, 5, 0.5, 0.1, d=3, noise=0.0, seed=0)  # C > d
        with pytest.raises(ValueError):
            synth_sbm(10, 2, 0.1, 0.5, d=4, noise=0.0, seed=0)  # p_out > p_in

    @pytest.mark.parametrize("n_nodes, n_classes, noise, name", [
        (0, 0, 0.0, "n_classes"),
        (3, 0, 0.0, "n_classes"),
        (3, -1, 0.0, "n_classes"),
        (3, 1, float("nan"), "noise"),
        (3, 1, float("inf"), "noise"),
        (3, 1, -1.0, "noise"),
    ])
    def test_bad_inputs_are_named_before_any_draw(self, n_nodes, n_classes, noise, name,
                                                   monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew edges before checking the inputs")

        monkeypatch.setattr(graphstore, "_sbm_edges", no_draws)
        with pytest.raises(ValueError, match=name):
            synth_sbm(n_nodes, n_classes, 0.5, 0.1, d=4, noise=noise, seed=0)

    # (n, classes, p_in, p_out, d): n = 1 and 2, cliques (p_in 1, p_out 0),
    # p_in == p_out, and the densities of the c5 and cli graphs
    SAMPLER_CASES = [
        (1, 1, 0.5, 0.1, 4),
        (2, 1, 0.5, 0.5, 4),
        (2, 2, 1.0, 0.0, 4),
        (5, 2, 1.0, 0.0, 4),
        (37, 3, 0.3, 0.05, 8),
        (300, 4, 0.2, 0.2, 8),
        (300, 5, 0.01, 0.001, 16),
        (1000, 5, 0.05, 0.005, 16),
    ]

    @pytest.mark.parametrize("block", [1, 7, 1000, None])
    @pytest.mark.parametrize("n, classes, p_in, p_out, d", SAMPLER_CASES)
    def test_row_blocks_reproduce_the_dense_draw(self, n, classes, p_in, p_out, d, block,
                                                  monkeypatch):
        if block is not None:
            monkeypatch.setattr(graphstore, "SBM_BLOCK_DRAWS", block)
        g = synth_sbm(n, classes, p_in, p_out, d, noise=0.5, seed=n)

        # the dense generator: one uniform per upper-triangle pair, row-major
        rng = np.random.default_rng(n)
        labels = (np.arange(n, dtype=np.int64) * classes) // n
        iu, ju = np.triu_indices(n, k=1)
        probs = np.where(labels[iu] == labels[ju], p_in, p_out)
        keep = rng.random(iu.size) < probs
        features = np.eye(classes, d)[labels] + 0.5 * rng.standard_normal((n, d))

        src = np.repeat(np.arange(n), np.diff(g.csr_offsets))
        upper = src < g.csr_targets
        assert np.array_equal(src[upper], iu[keep])
        assert np.array_equal(g.csr_targets[upper], ju[keep])
        assert g.features.tobytes() == features.astype(np.float32).tobytes()

    @pytest.mark.parametrize("args, expected", [
        ((1000, 5, 0.05, 0.005, 16, 0.6, 1), "a28bfd5f610b06c7"),
        ((1000, 5, 0.05, 0.005, 16, 0.6, 2), "525ee5bb663fec17"),
        ((1000, 5, 0.05, 0.005, 16, 0.6, 3), "03ab1b5ce669f753"),
        ((4000, 5, 0.01, 0.001, 16, 0.6, 1), "017e6e8dad9090fc"),
    ])
    def test_graphs_are_pinned(self, args, expected):
        g = synth_sbm(*args)
        h = hashlib.sha256()
        for array in (g.csr_offsets, g.csr_targets, g.features):
            h.update(array.tobytes())
        assert h.hexdigest()[:16] == expected

    def test_memory_is_not_quadratic(self):
        # the dense draw peaked at 566 MB here: two int64 index arrays, a
        # float64 probability and a uniform per each of the 18M pairs
        tracemalloc.start()
        try:
            synth_sbm(6000, 5, 0.01, 0.001, 16, 0.6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_all_nodes_labeled_with_class_texts(self, clean_sbm):
        assert np.all(clean_sbm.labels != UNLABELED)
        for i in range(clean_sbm.n_nodes):
            assert clean_sbm.label_vocab[clean_sbm.labels[i]] in clean_sbm.texts[i]


def graph_fields(**changes) -> dict:
    """A valid 3-node path graph's TagGraph fields, with ``changes`` applied."""
    fields = dict(n_nodes=3, csr_offsets=[0, 1, 3, 4], csr_targets=[1, 0, 2, 1],
                  features=np.zeros((3, 2)), texts=("a", "b", "c"), labels=[0, 1, UNLABELED],
                  label_vocab=("x", "y"))
    fields.update(changes)
    return fields


@pytest.mark.parametrize("changes, message", [
    ({"csr_offsets": [0, 1, 3]}, "csr_offsets must have length n_nodes+1"),
    ({"csr_offsets": [1, 1, 3, 4]}, "nondecreasing and start at 0"),
    ({"csr_offsets": [0, 2, 1, 4]}, "nondecreasing and start at 0"),
    ({"csr_offsets": [0, 1, 3, 3]}, "last csr offset must equal number of stored edges"),
    ({"csr_targets": [1, 0, 3, 1]}, "edge target index out of range"),
    ({"csr_targets": [1, -1, 2, 1]}, "edge target index out of range"),
    ({"features": np.zeros((2, 2))}, "features has 2 rows for 3 nodes"),
    ({"features": np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]])}, "non-finite"),
    ({"texts": ("a", "b")}, "expected 3 texts, got 2"),
    ({"labels": [0, 1]}, "labels must have one entry per node"),
    ({"labels": [0, 2, UNLABELED]}, "label index exceeds label vocabulary size"),
])
def test_inconsistent_graph_is_refused(changes, message):
    TagGraph(**graph_fields())  # the unchanged fields are a valid graph
    with pytest.raises(ValueError, match=re.escape(message)):
        TagGraph(**graph_fields(**changes))


def test_split_with_a_node_in_both_sets_is_refused():
    with pytest.raises(ValueError, match="labeled_ids and test_ids must be disjoint"):
        SplitSpec(labeled_ids=np.array([0, 1, 2]), test_ids=np.array([5, 2]))


def test_graph_arrays_are_read_only(clean_sbm):
    with pytest.raises(ValueError):
        clean_sbm.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        clean_sbm.csr_targets[0] = 0


class TestAtomicWrites:
    """A writer that fails midway leaves the previous artefact byte for byte
    and no temporary file beside it."""

    @staticmethod
    def writers():
        from gicl.encoder import EmbeddingTable
        from gicl.nncore import ParamSet
        from gicl.pipeline import RunManifest, write_sweep_csv
        from gicl.training import TrainedModel

        def params(value):
            return ParamSet({"w": np.full((3, 4), value)})

        def model(value):
            log = [{"epoch": e, "round": 0, "loss_total": value, "loss_feedback": value,
                    "loss_clf": value, "lr": 0.01} for e in range(50)]
            return TrainedModel(params(value), EmbeddingTable(np.zeros((1, 1))), log)

        def manifest(value):
            return RunManifest({"beta": value, "notes": "x" * 500}, 1, "b", "t", "s", created_at=0.0)

        graphs = {v: synth_sbm(n_nodes=40, n_classes=2, p_in=0.3, p_out=0.05, d=3, noise=v, seed=1)
                  for v in (0.1, 0.2)}
        return {
            "write_matrix": (["emb.bin", "emb.json"],
                             lambda root, v: EmbeddingTable(np.full((20, 8), v)).save(root / "emb")),
            "ParamSet.save": (["params.bin"], lambda root, v: params(v).save(root / "params.bin")),
            "RunManifest.save": (["m.json"], lambda root, v: manifest(v).save(root / "m.json")),
            "TrainedModel.write_log": (["log.csv"],
                                       lambda root, v: model(v).write_log(root / "log.csv")),
            "write_sweep_csv": (["sweep.csv"], lambda root, v: write_sweep_csv(
                [{"value": v, "accuracy": v, "error": ""}] * 50, root / "sweep.csv")),
            "write_bundle": (["nodes.jsonl", "edges.tsv", "features.bin", "features.json",
                              "labels.json"], lambda root, v: write_bundle(graphs[v], root)),
        }

    @pytest.mark.parametrize("name", ["write_matrix", "ParamSet.save", "RunManifest.save",
                                      "TrainedModel.write_log", "write_sweep_csv", "write_bundle"])
    def test_failed_rewrite_keeps_the_old_artefact(self, name, tmp_path, monkeypatch):
        import gicl.graphstore as graphstore

        files, write = self.writers()[name]
        write(tmp_path, 0.1)
        before = {f: (tmp_path / f).read_bytes() for f in files}

        class DiskFull:
            """The first write stores half its data, then the disk is full."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(graphstore, "open", lambda *a, **kw: DiskFull(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write(tmp_path, 0.2)
        monkeypatch.undo()
        assert {f: (tmp_path / f).read_bytes() for f in files} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
