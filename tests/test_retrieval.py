from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gicl.retrieval import build_index, random_examples, retrieve_topk


def sort_oracle(ids, vectors, query, k):
    """Full sort by (cosine desc, id asc) — the brute-force reference."""
    scored = list(zip(ids, cosines(vectors, ids, query)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def cosines(vectors, ids, query):
    """Cosine of each listed row with the query, in the order listed."""
    qu = query / (np.linalg.norm(query) or 1.0)
    out = []
    for i in ids:
        v = vectors[i].astype(np.float64)
        out.append(float(v / (np.linalg.norm(v) or 1.0) @ qu))
    return out


def non_increasing(scores, atol=1e-12):
    """Descending up to the 12-decimal rounding that retrieval ties at."""
    return all(scores[i] >= scores[i + 1] - atol for i in range(len(scores) - 1))


def exact_cosine_oracle(ids, rows, query, k):
    """Top-k ids by (cosine desc, id asc) for integer vectors, with no rounding:
    sign(s) * s^2 / (|v|^2 |q|^2) orders like the cosine s / (|v| |q|)."""
    qq = sum(x * x for x in query)

    def signed_square(i):
        s = sum(a * b for a, b in zip(rows[i], query))
        vv = sum(a * a for a in rows[i])
        return Fraction(s * abs(s), vv * qq) if vv and qq else Fraction(0)

    return sorted(ids, key=lambda i: (-signed_square(i), i))[:k]


class TestBuildIndex:
    def test_empty_labeled_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index(np.ones((3, 2)), [])

    def test_out_of_range_id(self):
        with pytest.raises(IndexError):
            build_index(np.ones((3, 2)), [5])

    def test_rebuild_answers_identically(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((20, 6))
        a = build_index(vecs, range(10))
        b = build_index(vecs, range(10))
        q = rng.standard_normal(6)
        assert retrieve_topk(a, q, 4) == retrieve_topk(b, q, 4)


class TestRetrieveTopk:
    def test_single_labeled_node_always_wins(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        index = build_index(vecs, [1])
        assert retrieve_topk(index, np.array([9.0, -3.0]), 5) == [1]

    def test_identical_embedding_ranks_first(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((10, 4))
        index = build_index(vecs, range(10))
        q = vecs[6].copy()
        ids = retrieve_topk(index, q, 3)
        assert ids[0] == 6
        assert cosines(vecs, ids, q)[0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_sort_oracle_on_random_unit_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            vecs = rng.standard_normal((50, 8))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            index = build_index(vecs, range(50))
            q = rng.standard_normal(8)
            got = retrieve_topk(index, q, 7)
            want = sort_oracle(range(50), vecs, q, 7)
            assert got == [i for i, _ in want]
            np.testing.assert_allclose(cosines(vecs, got, q), [s for _, s in want], atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1,
                      max_size=12),
        query=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        query_id=st.integers(-1, 11),
        k=st.integers(1, 13),
    )
    def test_matches_exact_oracle_on_integer_vectors(self, rows, query, query_id, k):
        # small integers repeat rows, give zero rows and orthogonal rows, so many
        # cosines tie exactly; the oracle ranks them in exact rational arithmetic
        vecs = np.array(rows, dtype=np.float64)
        q = np.array(query, dtype=np.float64)
        got = retrieve_topk(build_index(vecs, range(len(rows))), q, k, query_id=query_id)
        want = exact_cosine_oracle([i for i in range(len(rows)) if i != query_id], rows, query, k)
        assert got == want
        assert non_increasing(cosines(vecs, got, q))

    def test_tie_broken_by_ascending_id(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        index = build_index(vecs, range(4))
        assert retrieve_topk(index, np.array([2.0, 0.0]), 4) == [0, 1, 3, 2]

    def test_query_and_exclusions_never_returned(self):
        vecs = np.tile(np.array([[1.0, 0.0]]), (6, 1))
        index = build_index(vecs, range(6))
        assert retrieve_topk(index, np.array([1.0, 0.0]), 10, query_id=2) == [0, 1, 3, 4, 5]

    def test_k_must_be_positive(self):
        index = build_index(np.ones((2, 2)), [0, 1])
        with pytest.raises(ValueError):
            retrieve_topk(index, np.ones(2), 0)

    def test_order_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((30, 5))
        q = rng.standard_normal(5)
        base = retrieve_topk(build_index(vecs, range(30)), q, 30)
        for scale in (0.001, 7.0, 1e6):
            scaled = retrieve_topk(build_index(vecs * scale, range(30)), q, 30)
            assert scaled == base

    def test_full_k_is_total_order_consistent_with_pairwise_cosine(self):
        rng = np.random.default_rng(4)
        vecs = rng.standard_normal((15, 4))
        q = rng.standard_normal(4)
        ids = retrieve_topk(build_index(vecs, range(15)), q, 15)
        scores = cosines(vecs, ids, q)
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
        assert sorted(ids) == list(range(15))

    def test_returns_a_fresh_list_of_python_ints(self):
        vecs = np.eye(3)
        index = build_index(vecs, range(3))
        ids = retrieve_topk(index, vecs[0], 2)
        assert all(type(i) is int for i in ids)
        ids.clear()
        assert retrieve_topk(index, vecs[0], 2) == [0, 1]


class TestKnnRawFeatures:
    """k-NN over raw bundle features, the path few_knn and mv_knn run."""

    def test_zero_noise_neighbors_share_class(self, clean_sbm):
        index = build_index(clean_sbm.features, clean_sbm.labeled_node_ids())
        for q in range(0, clean_sbm.n_nodes, 7):
            for e in retrieve_topk(index, clean_sbm.features[q], 4, query_id=q):
                assert clean_sbm.labels[e] == clean_sbm.labels[q]

    def test_k_beyond_pool_returns_everything_sorted(self, clean_sbm):
        labeled = [0, 1, 2]
        index = build_index(clean_sbm.features, labeled)
        q = clean_sbm.features[5]
        ids = retrieve_topk(index, q, 50, query_id=5)
        assert sorted(ids) == labeled
        assert non_increasing(cosines(clean_sbm.features, ids, q))


class TestRandomExamples:
    def test_full_k_is_permutation(self):
        ids = random_examples(range(10), 10, seed=3, query_id=99)
        assert sorted(ids) == list(range(10))
        assert all(type(i) is int for i in ids)

    def test_deterministic_per_seed_and_query(self):
        a = random_examples(range(20), 5, seed=8, query_id=3)
        b = random_examples(range(20), 5, seed=8, query_id=3)
        c = random_examples(range(20), 5, seed=8, query_id=4)
        assert a == b
        assert a != c

    def test_never_returns_query(self):
        for q in range(10):
            ids = random_examples(range(10), 9, seed=0, query_id=q)
            assert q not in ids
            assert len(ids) == 9

    def test_single_draw_frequencies_near_uniform(self):
        counts = np.zeros(10)
        for i in range(10_000):
            counts[random_examples(range(10), 1, seed=17, query_id=10_000 + i)[0]] += 1
        expected = 1000.0
        sigma = np.sqrt(10_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)
