import dataclasses
import hashlib
import json
import math
import re
from contextlib import closing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gicl.graphstore import UNLABELED, TagGraph, synth_sbm
from gicl.prompts import DEFAULT_TEMPLATE
from gicl.scoring import (
    FeedbackCache,
    OracleClient,
    FeedbackSet,
    RankedSet,
    ScorerError,
    ScorerSpec,
    key_prefix,
    make_client,
    oracle_help,
    pair_keys,
    ppl,
    rank_candidates,
    synthetic_oracle_ppl,
    token_logprobs,
    utility,
)
from gicl.retrieval import _normalize_rows


def key_of(sid, th, graph_hash, q, e, c):
    return pair_keys(key_prefix(sid, th, graph_hash), q, e, c + 1)[c]


def put(cache, sid, th, graph_hash, q, e, ppl_by_class):
    """Cache one pair's perplexities by class, under their content keys."""
    cache.put(sid, th, q, e, [(key_of(sid, th, graph_hash, q, e, c), c, value)
                              for c, value in ppl_by_class.items()])


def get(cache, sid, th, graph_hash, q, e, c):
    return cache.get(key_of(sid, th, graph_hash, q, e, c))


class TestPpl:
    def test_single_zero_logprob_is_one(self):
        assert ppl([0.0]) == 1.0

    def test_ln2_ln8_gives_four(self):
        assert abs(ppl([-math.log(2), -math.log(8)]) - 4.0) < 1e-12

    def test_uniform_vocab_logprob(self):
        for v in (7, 100, 3):
            assert abs(ppl([-math.log(v)] * 5) - v) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ppl([])

    def test_past_float_range_is_infinite(self):
        assert ppl([-709.0]) == math.exp(709.0)
        assert ppl([-710.0]) == ppl([-1e6, -2e6]) == ppl([-math.inf, -1.0]) == math.inf


class TestUtility:
    def test_equal_ppls_give_one_over_c(self):
        for c in (2, 5, 11):
            assert abs(utility([3.7] * c, 0) - 1.0 / c) < 1e-12

    def test_two_class_hand_value(self):
        assert abs(utility([2.0, 4.0], 0) - 2.0 / 3.0) < 1e-12

    def test_infinite_gold_ppl_gives_zero(self):
        assert utility([float("inf"), 2.0], 0) == 0.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            utility([1.0, 0.0], 0)
        with pytest.raises(ValueError):
            utility([1.0, -2.0], 1)

    def test_gold_index_validated(self):
        with pytest.raises(ValueError):
            utility([1.0, 1.0], 5)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=12))
    def test_normalized_over_gold_choices(self, ppls):
        total = sum(utility(ppls, c) for c in range(len(ppls)))
        assert abs(total - 1.0) < 1e-9

    def test_invariant_under_doubling_all_ppls(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ppls = rng.uniform(0.1, 50.0, size=6)
            base = [utility(ppls, c) for c in range(6)]
            doubled = [utility(ppls * 2.0, c) for c in range(6)]
            assert base == doubled  # power-of-two scaling is exact

    @pytest.mark.parametrize("c", range(1, 41))
    def test_a_matrix_is_each_row_bit_for_bit(self, c):
        rng = np.random.default_rng(c)
        for rows in (1, 2, 7, 20, 33):
            ppls = np.exp(rng.uniform(0.0, 6.0, size=(rows, c)))
            ppls[rng.random((rows, c)) < 0.2] = np.inf
            ppls[:, rng.integers(c)] = rng.uniform(1.0, 9.0, size=rows)  # one finite per row
            for gold in {0, c // 2, c - 1}:
                got = utility(ppls, gold)
                assert got.shape == (rows,)
                assert got.tobytes() == np.array([utility(row, gold) for row in ppls]).tobytes()
                assert utility(ppls[0].tolist(), gold) == got[0]

    def test_a_matrix_with_a_bad_row_is_refused(self):
        with pytest.raises(ValueError, match="positive"):
            utility(np.array([[1.0, 2.0], [1.0, 0.0]]), 0)
        with pytest.raises(ValueError, match="infinite"):
            utility(np.array([[1.0, 2.0], [np.inf, np.inf]]), 0)
        with pytest.raises(ValueError, match="gold_class"):
            utility(np.ones((3, 2)), 2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 12), classes=st.integers(1, 7))
    def test_a_gold_array_is_each_rows_scalar_call_bit_for_bit(self, data, rows, classes):
        value = st.one_of(st.floats(1e-3, 1e6), st.just(math.inf))
        ppls = np.array(data.draw(st.lists(st.lists(value, min_size=classes, max_size=classes),
                                           min_size=rows, max_size=rows)), dtype=float)
        ppls = ppls.reshape(rows, classes)
        ppls[:, 0] = np.where(np.isinf(ppls).all(axis=1), 2.0, ppls[:, 0])  # one finite per row
        gold = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=rows,
                                           max_size=rows)), dtype=np.int64)
        got = utility(ppls, gold)
        assert got.shape == (rows,)
        assert got.tobytes() == np.array([utility(row, int(g)) for row, g in zip(ppls, gold)]).tobytes()

    def test_a_gold_array_keeps_the_checks(self):
        with pytest.raises(ValueError, match="gold_class 2 out of range"):
            utility(np.ones((3, 2)), np.array([0, 2, 1]))
        with pytest.raises(ValueError, match="gold_class -1 out of range"):
            utility(np.ones((2, 2)), np.array([-1, 0]))
        with pytest.raises(ValueError, match="2 gold classes"):
            utility(np.ones((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError, match="positive"):
            utility(np.array([[1.0, 2.0], [1.0, 0.0]]), np.array([0, 1]))
        with pytest.raises(ValueError, match="infinite"):
            utility(np.array([[1.0, 2.0], [np.inf, np.inf]]), np.array([1, 0]))

    def test_order_invariant_under_any_positive_scaling(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ppls = rng.uniform(0.1, 50.0, size=6)
            order = np.argsort([utility(ppls, c) for c in range(6)])
            scaled = np.argsort([utility(ppls * 3.0, c) for c in range(6)])
            assert np.array_equal(order, scaled)


class TestSyntheticOracle:
    def test_wrong_class_ppl_is_flat(self):
        f = np.array([1.0, 0.0])
        for example_class, cos in ((0, 1.0), (1, 1.0), (0, 0.0)):
            fe = np.array([cos, math.sqrt(1 - cos**2)])
            got = synthetic_oracle_ppl(f, 0, fe, example_class, class_index=1)
            assert abs(got - math.exp(0.1 + 2.0)) < 1e-12

    def test_fully_helpful_example_floors_gold_ppl(self):
        f = np.array([1.0, 0.0])
        got = synthetic_oracle_ppl(f, 0, f, 0, class_index=0)
        assert abs(got - math.exp(0.1)) < 1e-12

    def test_unhelpful_example_leaves_gold_at_ceiling(self):
        f = np.array([1.0, 0.0])
        fe = np.array([0.0, 1.0])
        got = synthetic_oracle_ppl(f, 0, fe, 1, class_index=0)
        assert abs(got - math.exp(0.1 + 2.0)) < 1e-12

    def test_negative_cosine_clipped_to_no_help(self):
        f = np.array([1.0, 0.0])
        got = synthetic_oracle_ppl(f, 0, -f, 0, class_index=0)
        assert abs(got - math.exp(0.1 + 2.0)) < 1e-12

    def test_gold_utility_monotone_in_help(self):
        f = np.array([1.0, 0.0])
        utilities = []
        for cos in np.linspace(0, 1, 9):
            fe = np.array([cos, math.sqrt(max(0.0, 1 - cos**2))])
            ppls = [synthetic_oracle_ppl(f, 0, fe, 0, class_index=c) for c in range(4)]
            utilities.append(utility(ppls, 0))
        assert all(b >= a for a, b in zip(utilities, utilities[1:]))
        assert utilities[-1] > utilities[0]

    def test_helpful_example_makes_gold_class_most_likely(self):
        f = np.array([0.8, 0.6])
        ppls = [synthetic_oracle_ppl(f, 1, f, 1, class_index=c) for c in range(3)]
        assert int(np.argmin(ppls)) == 1


class TestFeedbackCache:
    def test_put_get_roundtrip(self):
        cache = FeedbackCache()
        put(cache, "sid", "th", "g", 1, 2, {3: 4.5})
        assert get(cache, "sid", "th", "g", 1, 2, 3) == 4.5
        assert get(cache, "sid", "th", "g", 1, 2, 4) is None

    def test_keys_are_content_addressed(self):
        assert key_of("s", "t", "g", 1, 2, 3) == key_of("s", "t", "g", 1, 2, 3)
        assert key_of("s", "t", "g", 1, 2, 3) != key_of("s2", "t", "g", 1, 2, 3)
        assert key_of("s", "t", "g", 1, 2, 3) != key_of("s", "t2", "g", 1, 2, 3)
        assert key_of("s", "t", "g", 1, 2, 3) != key_of("s", "t", "g2", 1, 2, 3)

    @given(st.text(max_size=20), st.text(max_size=20), st.text(max_size=20),
           st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 999))
    def test_a_prefixed_key_is_the_digest_of_the_whole_key(self, s, t, g, q, e, c):
        whole = [hashlib.sha256(f"{s}|{t}|{g}|{q}|{e}|{i}".encode("utf-8")).hexdigest()[:24]
                 for i in range(c + 1)]
        prefix = key_prefix(s, t, g)
        assert pair_keys(prefix, q, e, c + 1) == whole
        assert pair_keys(prefix, q, e, c + 1) == whole  # hashing keys leaves the prefix as it was

    def test_keys_of_existing_caches_are_unchanged(self):
        prefix = key_prefix("b64369079ceb46c0", DEFAULT_TEMPLATE.template_hash, "0123456789abcdef")
        keys = pair_keys(prefix, 12, 345, 5)
        assert keys[4] == "a9ca7deefb3d04bb356fb755"
        whole = f"b64369079ceb46c0|{DEFAULT_TEMPLATE.template_hash}|0123456789abcdef|12|345|4"
        assert keys[4] == hashlib.sha256(whole.encode("utf-8")).hexdigest()[:24]

    def test_persists_floats_exactly(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        value = math.exp(0.1 + 2.0 * (1 - 0.12345678901234))
        put(cache, "sid", "th", "g", 7, 8, {0: value})
        reloaded = FeedbackCache(path)
        assert get(reloaded, "sid", "th", "g", 7, 8, 0) == value

    def test_appends_not_rewrites(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        put(cache, "s", "t", "g", 0, 0, {0: 1.0})
        first = path.read_text()
        put(cache, "s", "t", "g", 0, 0, {1: 2.0})
        assert path.read_text().startswith(first)
        assert len(path.read_text().splitlines()) == 2

    def test_duplicate_put_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        put(cache, "s", "t", "g", 0, 0, {0: 1.0})
        put(cache, "s", "t", "g", 0, 0, {0: 99.0})
        assert get(cache, "s", "t", "g", 0, 0, 0) == 1.0
        assert len(path.read_text().splitlines()) == 1

    def test_record_schema(self, tmp_path):
        import json

        path = tmp_path / "cache.jsonl"
        put(FeedbackCache(path), "sid", "th", "g", 3, 9, {1: 2.5})
        record = json.loads(path.read_text())
        assert set(record) == {"k", "q", "e", "c", "ppl", "sid", "th"}
        assert record["q"] == 3 and record["e"] == 9 and record["c"] == 1
        assert record["ppl"] == 2.5 and record["sid"] == "sid" and record["th"] == "th"

    def test_torn_last_line_is_skipped_and_next_put_starts_a_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        put(FeedbackCache(path), "s", "t", "g", 0, 0, {0: 1.0})
        whole = path.read_text()
        path.write_text(whole + whole[:len(whole) // 2])  # a writer died mid-append
        cache = FeedbackCache(path)
        assert len(cache) == 1
        put(cache, "s", "t", "g", 0, 0, {1: 2.0})
        assert path.read_text().startswith(whole)
        assert len(path.read_text().splitlines()) == 2
        reloaded = FeedbackCache(path)
        assert get(reloaded, "s", "t", "g", 0, 0, 0) == 1.0
        assert get(reloaded, "s", "t", "g", 0, 0, 1) == 2.0

    @pytest.mark.parametrize("line", ['{"ppl": 2.0}', '{"k": "abc"}', '["abc", 2.0]', '7',
                                      '{"k": "abc", "ppl": "two"}', '{"k": "abc", "ppl": null}',
                                      '{"k": ["abc"], "ppl": 2.0}'])
    def test_a_line_that_is_no_cache_record_is_refused_naming_the_file(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        put(FeedbackCache(path), "s", "t", "g", 0, 0, {0: 1.0})
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f'{path}: a line is not a record '
                                                             'with "k" and a numeric "ppl"')):
            FeedbackCache(path)

    def test_one_handle_serves_every_append_until_close(self, tmp_path, monkeypatch):
        import gicl.scoring as scoring_mod

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        monkeypatch.setattr(scoring_mod, "open", counting_open, raising=False)
        for c in range(5):
            put(cache, "s", "t", "g", 0, 0, {c: 1.0 + c})
            assert len(path.read_text().splitlines()) == c + 1  # flushed before put returns
        assert len(opened) == 1
        cache.close()
        put(cache, "s", "t", "g", 0, 1, {0: 9.0})
        cache.close()
        assert len(opened) == 2
        assert len(FeedbackCache(path)) == 6

    @pytest.mark.parametrize("value", [2.5, math.exp(0.1 + 2.0 * 0.87654321098766), 1.7e308,
                                       math.inf])
    def test_lines_are_json_dumps_of_their_records(self, tmp_path, value):
        path = tmp_path / "cache.jsonl"
        sid, th = 'http|m\u00e9|"quoted"', "t\\h"
        put(FeedbackCache(path), sid, th, "g", 3, 9, {0: value, 2: 1.0})
        expected = "".join(
            json.dumps({"k": key_of(sid, th, "g", 3, 9, c), "q": 3, "e": 9, "c": c, "ppl": v,
                        "sid": sid, "th": th}) + "\n"
            for c, v in ((0, value), (2, 1.0)))
        assert path.read_bytes() == expected.encode("utf-8")
        assert get(FeedbackCache(path), sid, th, "g", 3, 9, 0) == value

    def test_a_pair_is_appended_in_one_write(self, tmp_path, monkeypatch):
        import gicl.scoring as scoring_mod

        writes = []

        class CountingFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(text)
                return self.fh.write(text)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(scoring_mod, "open",
                            lambda *a, **kw: CountingFile(open(*a, **kw)), raising=False)
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        put(cache, "s", "t", "g", 0, 0, {0: 1.0, 1: 2.0, 2: 3.0})
        put(cache, "s", "t", "g", 0, 0, {1: 9.0, 3: 4.0})  # class 1 is already cached
        put(cache, "s", "t", "g", 0, 0, {2: 9.0})  # nothing new: no write
        cache.close()
        monkeypatch.undo()
        assert len(writes) == 2
        assert [json.loads(line)["c"] for line in path.read_text().splitlines()] == [0, 1, 2, 3]
        assert get(FeedbackCache(path), "s", "t", "g", 0, 0, 1) == 2.0

    def test_a_file_of_many_blocks_loads_as_a_per_line_parse(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        values = [math.inf, 1.0, 2.5, math.exp(0.1 + 2.0 * 0.87654321098766)]
        for q in range(800):  # about 600 KB: several read blocks
            put(cache, "sid", "th", "g", q, q + 1, {c: values[(q + c) % 4] for c in range(5)})
            put(cache, "sid", "th", "g", q, q + 1, {0: 9.0})  # a duplicate: no line
        cache.close()
        lines = path.read_text().split("\n")[:-1]
        lines[100:100] = ["", "   "]
        lines[2500:2500] = [""]
        text = "\n".join(lines) + "\n"
        path.write_text(text + lines[7][:30])  # a torn last line
        expected = {}
        for line in text.split("\n"):
            if line.strip():
                record = json.loads(line)
                expected[record["k"]] = float(record["ppl"])
        loaded = FeedbackCache(path)
        assert len(loaded) == len(expected) == 4000
        for q in range(800):
            for c in range(5):
                got = get(loaded, "sid", "th", "g", q, q + 1, c)
                assert got == expected[key_of("sid", "th", "g", q, q + 1, c)]
                assert got == values[(q + c) % 4]
        put(loaded, "sid", "th", "g", 0, 0, {0: 1.0})  # cuts the torn line off
        loaded.close()
        assert path.read_text().startswith(text)
        assert len(FeedbackCache(path)) == 4001

    @pytest.mark.parametrize("bad", ["{not json", '{"k": "a", "ppl": 1.0}, {"k": "b", "ppl": 2.0}',
                                     '{"k": "a", "ppl": [1', '2]}'])
    def test_a_malformed_middle_line_raises(self, tmp_path, bad):
        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        for q in range(500):
            put(cache, "s", "t", "g", q, 0, {c: 1.0 + c for c in range(5)})
        cache.close()
        lines = path.read_text().split("\n")
        lines[1200:1200] = [bad]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError):
            FeedbackCache(path)

    def test_malformed_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        put(FeedbackCache(path), "s", "t", "g", 0, 0, {0: 1.0})
        path.write_text("{not json\n" + path.read_text())
        with pytest.raises(json.JSONDecodeError):
            FeedbackCache(path)


class TestOracleClient:
    def test_token_logprobs_matches_closed_form(self, clean_sbm):
        spec = ScorerSpec(kind="oracle")
        client = make_client(spec, clean_sbm)
        q = 0
        e = next(i for i in range(clean_sbm.n_nodes) if i != q and clean_sbm.labels[i] == clean_sbm.labels[q])
        meta = {"query_id": q, "examples": [(e, int(clean_sbm.labels[e]))],
                "class_index": int(clean_sbm.labels[q])}
        lps = client.token_logprobs("prompt", " label", meta=meta)
        assert len(lps) == 1
        # zero noise: features are unit centroids, same-class cosine is 1
        assert abs(ppl(lps) - math.exp(0.1)) < 1e-9

        # noisy features, every class, and example lists of 0, 1 and 30 ids
        g = synth_sbm(n_nodes=60, n_classes=4, p_in=0.2, p_out=0.02, d=6, noise=1.5, seed=7)
        client = make_client(spec, g)
        unit = _normalize_rows(g.features)
        rng = np.random.default_rng(0)
        kinds = set()  # which kinds of example the lists held
        for q in range(0, 60, 3):
            gold = int(g.labels[q])
            others = np.delete(np.arange(60), q)
            wrong = next(int(e) for e in others if g.labels[e] != gold)
            same = [int(e) for e in others if g.labels[e] == gold]
            negative = [e for e in same if np.dot(unit[q], unit[e]) < 0]
            lists = [[], [wrong], [same[0]], negative[:1], rng.choice(others, 30, replace=False).tolist()]
            for examples in lists:
                for e in examples:
                    if g.labels[e] != gold:
                        kinds.add("wrong label")
                    else:
                        kinds.add("helps" if np.dot(unit[q], unit[e]) > 0 else "negative cosine")
                # the best single example decides: min over examples of the one-example closed form
                reference = [
                    min((synthetic_oracle_ppl(unit[q], gold, unit[e], int(g.labels[e]), c)
                         for e in examples),
                        default=math.exp(ScorerSpec.oracle_base + ScorerSpec.oracle_alpha))
                    for c in range(g.n_classes)
                ]
                shown = {"query_id": q, "examples": [(e, int(g.labels[e])) for e in examples]}
                for c in range(g.n_classes):
                    assert ppl(client.token_logprobs("p", " c", meta={**shown, "class_index": c})) \
                        == reference[c]
                answer = client.complete("p", meta=shown)
                assert answer == g.label_vocab[int(np.argmin(reference))]
        assert kinds == {"wrong label", "negative cosine", "helps"}

    # six nodes with features in {-1, 0, 1}^2: zero rows give zero cosines and
    # opposite rows negative ones; -1 is UNLABELED
    @settings(max_examples=300, deadline=None)
    @given(labels=st.lists(st.integers(-1, 2), min_size=6, max_size=6),
           features=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=6, max_size=6),
           q=st.integers(0, 5), examples=st.lists(st.integers(0, 5), max_size=6))
    @example(labels=[0, 0, 1, 1, 2, 2], features=[(1, 0)] * 6, q=0, examples=[])  # empty list
    @example(labels=[0, 0, 1, 1, 2, 2], features=[(1, 0)] * 6, q=0, examples=[2, 1])  # gold class 0
    @example(labels=[1, 0, 0, 2, 2, 0], features=[(1, 1)] * 6, q=0, examples=[1, 3, 1])  # wrong labels
    @example(labels=[2, 2, 2, 0, 0, 0], features=[(1, 0), (0, 0), (0, 1), (-1, 0), (1, 0), (1, 0)],
             q=0, examples=[1, 2])  # zero cosines
    @example(labels=[2, 2, 2, 0, 0, 0], features=[(1, 0), (-1, 0), (-1, 1), (1, 0), (1, 0), (1, 0)],
             q=0, examples=[1, 2, 2])  # negative cosines, a repeated id
    @example(labels=[1, 1, 1, 0, 0, 0], features=[(1, 0), (1, 1), (1, 0), (1, 0), (1, 0), (1, 0)],
             q=0, examples=[3, 1, 1, 2])  # repeated ids that help
    def test_every_answer_and_perplexity_is_the_closed_forms(self, labels, features, q, examples):
        n = len(labels)
        g = TagGraph(n, np.zeros(n + 1, np.int64), np.zeros(0, np.int64),
                     np.array(features, np.float32), tuple(f"node {i}" for i in range(n)),
                     np.array(labels), ("a", "b", "c"))
        unit = _normalize_rows(g.features)
        client = OracleClient(g)
        ppls = []
        shown = {"query_id": q, "examples": [(e, labels[e]) for e in examples]}
        for c in range(g.n_classes):
            got = ppl(client.token_logprobs("p", " c", meta={**shown, "class_index": c}))
            reference = min((synthetic_oracle_ppl(unit[q], labels[q], unit[e], labels[e], c)
                             for e in examples),
                            default=math.exp(ScorerSpec.oracle_base + ScorerSpec.oracle_alpha))
            assert got == reference
            ppls.append(got)
        answer = client.complete("p", meta=shown)
        assert answer == g.label_vocab[int(np.argmin(ppls))]
        assert client.calls == g.n_classes + 1

    def test_a_cold_round_computes_each_pairs_help_once(self, noisy_sbm, monkeypatch):
        import gicl.scoring as scoring_mod

        helps = []
        monkeypatch.setattr(scoring_mod, "oracle_help", lambda *a: helps.append(a) or oracle_help(*a))
        spec = ScorerSpec(kind="oracle")
        client = make_client(spec, noisy_sbm)
        rank_candidates(noisy_sbm, {0: [1, 2, 3], 5: [2, 7]}, spec, DEFAULT_TEMPLATE, FeedbackCache(),
                        client=client)
        assert client.calls == 5 * noisy_sbm.n_classes  # every class is still requested
        assert len(helps) == 5  # only the gold class reads the help

    def test_an_example_helps_through_the_label_its_prompt_shows(self, clean_sbm):
        client = make_client(ScorerSpec(kind="oracle"), clean_sbm)
        labels = clean_sbm.labels
        q = next(i for i in range(clean_sbm.n_nodes) if labels[i] != 0)
        gold, wrong = int(labels[q]), 0
        same = next(i for i in range(clean_sbm.n_nodes) if i != q and labels[i] == gold)
        other = next(i for i in range(clean_sbm.n_nodes) if labels[i] != gold)
        unit = _normalize_rows(clean_sbm.features)

        def gold_ppl(e, shown):
            meta = {"query_id": q, "examples": [(e, shown)], "class_index": gold}
            return ppl(client.token_logprobs("p", " c", meta=meta))

        def answer(e, shown):
            return client.complete("p", meta={"query_id": q, "examples": [(e, shown)]})

        # a same-class example shown under another label helps no more than no example
        assert gold_ppl(same, wrong) == math.exp(ScorerSpec.oracle_base + ScorerSpec.oracle_alpha)
        assert answer(same, wrong) == clean_sbm.label_vocab[0]
        assert gold_ppl(same, gold) == math.exp(ScorerSpec.oracle_base)  # zero noise: cosine 1
        assert answer(same, gold) == clean_sbm.label_vocab[gold]
        # an example of another class shown under the gold label helps by its cosine
        assert gold_ppl(other, gold) == synthetic_oracle_ppl(unit[q], gold, unit[other], gold, gold)

    # no examples; the ids-and-labels shape of earlier versions; no query
    @pytest.mark.parametrize("meta", [{"query_id": 0},
                                      {"query_id": 0, "example_ids": [1], "example_labels": [0]},
                                      {"examples": [(1, 0)]}])
    def test_needs_one_shown_label_per_example(self, clean_sbm, meta):
        client = make_client(ScorerSpec(kind="oracle"), clean_sbm)
        with pytest.raises(ScorerError, match="metadata"):
            client.complete("p", meta=meta)
        with pytest.raises(ScorerError, match="metadata"):
            client.token_logprobs("p", " c", meta={**meta, "class_index": 0})
        assert client.calls == 0

    def test_requires_metadata(self, clean_sbm):
        client = make_client(ScorerSpec(kind="oracle"), clean_sbm)
        with pytest.raises(ScorerError, match="metadata"):
            client.token_logprobs("p", " c", meta=None)

    def test_complete_answers_true_class_when_helped(self, clean_sbm):
        client = make_client(ScorerSpec(kind="oracle"), clean_sbm)
        q = 4
        e = next(i for i in range(clean_sbm.n_nodes) if i != q and clean_sbm.labels[i] == clean_sbm.labels[q])
        answer = client.complete("p", meta={"query_id": q, "examples": [(e, int(clean_sbm.labels[e]))]})
        assert answer == clean_sbm.label_vocab[clean_sbm.labels[q]]

    def test_complete_without_help_ties_to_first_class(self, clean_sbm):
        client = make_client(ScorerSpec(kind="oracle"), clean_sbm)
        answer = client.complete("p", meta={"query_id": 4, "examples": []})
        assert answer == clean_sbm.label_vocab[0]

    def test_scorer_id_depends_on_identity_fields(self):
        a = ScorerSpec(kind="http", endpoint="http://127.0.0.1:8000", model="m")
        b = ScorerSpec(kind="http", endpoint="http://127.0.0.1:8000", model="m", retries=0)
        c = ScorerSpec(kind="http", endpoint="http://127.0.0.1:8000", model="n")
        assert a.scorer_id == b.scorer_id != c.scorer_id

    def test_scorer_id_keeps_the_keys_of_existing_caches(self):
        assert ScorerSpec(kind="oracle").scorer_id == "b64369079ceb46c0"
        http = ScorerSpec(kind="http", endpoint="http://127.0.0.1:8000", model="m")
        assert http.scorer_id == "da5924ce998f392a"

    def test_oracle_keeps_no_endpoint_or_model(self):
        # a shared config's http settings must not split the oracle's cache or manifest
        spec = ScorerSpec(kind="oracle", endpoint="http://x", model="m")
        assert spec.endpoint == spec.model == ""
        assert spec.scorer_id == "b64369079ceb46c0"

    def test_free_function_builds_client(self, clean_sbm):
        spec = ScorerSpec(kind="oracle")
        meta = {"query_id": 0, "examples": [], "class_index": 0}
        lps = token_logprobs(spec, "p", " c", meta=meta, graph=clean_sbm)
        assert len(lps) == 1


def per_query_reference(graph, candidates, ppls):
    """Each query ranked alone from its pairs' perplexity vectors (None: not scored)."""
    by_query, n_unscored = {}, 0
    for q, ids in candidates.items():
        matrix = np.array([[math.nan if v is None else v for v in ppls[(q, e)]] for e in ids])
        rankable = (matrix > 0).all(axis=1) & (matrix < np.inf).any(axis=1)
        kept = [e for e, ok in zip(ids, rankable.tolist()) if ok]
        n_unscored += len(ids) - len(kept)
        if kept:
            u = utility(matrix[rankable], int(graph.labels[q]))
            scored = sorted(zip((-u).tolist(), kept))
            by_query[q] = RankedSet(tuple(e for _, e in scored), tuple(-u for u, _ in scored))
    return FeedbackSet(by_query, n_unscored)


def bits(by_query):
    return {q: (r.example_ids, tuple(float.hex(u) for u in r.utilities)) for q, r in by_query.items()}


class TestRankCandidates:
    GRAPH = synth_sbm(40, 4, 0.3, 0.05, 6, 0.5, seed=3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_the_whole_round_equals_each_query_ranked_alone(self, data):
        # perplexities come from the cache, or stay unscored when the client fails;
        # NaN, 0, inf and all-inf rows leave pairs unscored
        g = self.GRAPH
        spec = ScorerSpec(kind="oracle")
        queries = data.draw(st.lists(st.integers(0, g.n_nodes - 1), min_size=1, max_size=6,
                                     unique=True))
        candidates = {q: data.draw(st.lists(st.integers(0, g.n_nodes - 1), min_size=1,
                                            max_size=8, unique=True)) for q in queries}
        value = st.one_of(st.floats(1.0, 1e6), st.sampled_from([math.nan, 0.0, math.inf, None]))
        row = st.one_of(st.lists(value, min_size=g.n_classes, max_size=g.n_classes),
                        st.just([math.inf] * g.n_classes), st.just([2.0] * g.n_classes))
        ppls = {(q, e): data.draw(row) for q, ids in candidates.items() for e in ids}
        cache = FeedbackCache()
        for (q, e), vector in ppls.items():
            put(cache, spec.scorer_id, DEFAULT_TEMPLATE.template_hash, g.content_hash, q, e,
                {c: v for c, v in enumerate(vector) if v is not None})

        class Fails(OracleClient):
            def token_logprobs(self, prompt, continuation, meta=None):
                super().token_logprobs(prompt, continuation, meta=meta)
                raise ScorerError("injected")

        client = Fails(g)
        got = rank_candidates(g, candidates, spec, DEFAULT_TEMPLATE, cache, client=client)
        want = per_query_reference(g, candidates, ppls)
        assert got.n_unscored == want.n_unscored
        assert list(got.by_query) == list(want.by_query)
        assert bits(got.by_query) == bits(want.by_query)
        assert client.calls == sum(v is None for vector in ppls.values() for v in vector)

    def test_single_candidate_ranks_alone(self, clean_sbm):
        cache = FeedbackCache()
        spec = ScorerSpec(kind="oracle")
        feedback = rank_candidates(clean_sbm, {0: [1]}, spec, DEFAULT_TEMPLATE, cache)
        assert len(feedback.by_query[0]) == 1
        assert feedback.by_query[0].example_ids == (1,)
        assert feedback.n_unscored == 0

    def test_a_cold_round_hashes_each_key_once(self, noisy_sbm, tmp_path, monkeypatch):
        import gicl.scoring as scoring_mod

        calls = []
        monkeypatch.setattr(scoring_mod, "pair_keys",
                            lambda *a: calls.append(a) or pair_keys(*a))
        candidates = {0: [1, 2, 3], 5: [2, 7]}
        cache = FeedbackCache(tmp_path / "cache.jsonl")
        rank_candidates(noisy_sbm, candidates, ScorerSpec(kind="oracle"), DEFAULT_TEMPLATE, cache)
        cache.close()
        assert len(calls) == 5  # one per pair, for all its classes; none again in put
        assert len(FeedbackCache(tmp_path / "cache.jsonl")) == 5 * noisy_sbm.n_classes

    def test_same_label_candidates_outrank_different(self, clean_sbm):
        # zero noise: same-label examples strictly lower the gold-class ppl,
        # so every same-label candidate must come first
        cache = FeedbackCache()
        spec = ScorerSpec(kind="oracle")
        q = 2
        same = [i for i in range(clean_sbm.n_nodes) if i != q and clean_sbm.labels[i] == clean_sbm.labels[q]][:4]
        diff = [i for i in range(clean_sbm.n_nodes) if clean_sbm.labels[i] != clean_sbm.labels[q]][:4]
        ranked = rank_candidates(clean_sbm, {q: same + diff}, spec, DEFAULT_TEMPLATE, cache).by_query[q]
        got_same = [e in same for e in ranked.example_ids]
        assert got_same == [True] * 4 + [False] * 4
        # expected utilities from the closed form, computed independently
        c = clean_sbm.n_classes
        u_same = 1.0 / (1.0 + (c - 1) * math.exp(-2.0))
        for e, u in zip(ranked.example_ids, ranked.utilities):
            expected = u_same if e in same else 1.0 / c
            assert abs(u - expected) < 1e-9

    def test_warm_cache_issues_zero_calls(self, clean_sbm):
        cache = FeedbackCache()
        spec = ScorerSpec(kind="oracle")
        client = make_client(spec, clean_sbm)
        rank_candidates(clean_sbm, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, cache, client=client)
        before = client.calls
        again = rank_candidates(clean_sbm, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, cache,
                                client=client)
        assert client.calls == before
        assert len(again.by_query[0]) == 3

    def test_cache_shared_across_graphs_keeps_each_graphs_utilities(self):
        spec = ScorerSpec(kind="oracle")
        graph_a, graph_b = (synth_sbm(200, 4, 0.1, 0.01, 8, 0.6, seed=s) for s in (1, 2))
        shared = FeedbackCache()
        rank_candidates(graph_a, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, shared)
        through_shared = rank_candidates(graph_b, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, shared)
        fresh = rank_candidates(graph_b, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, FeedbackCache())
        assert through_shared == fresh
        assert len(shared) == 2 * 3 * graph_a.n_classes

    def test_ranked_utilities_are_the_per_pair_utilities(self, noisy_sbm):
        spec = ScorerSpec(kind="oracle")
        cache = FeedbackCache()
        candidates = {q: [e for e in range(0, noisy_sbm.n_nodes, 7) if e != q][:25]
                      for q in (0, 5, 13)}
        by_query = rank_candidates(noisy_sbm, candidates, spec, DEFAULT_TEMPLATE, cache).by_query
        scope = (spec.scorer_id, DEFAULT_TEMPLATE.template_hash, noisy_sbm.content_hash)
        for q, ids in candidates.items():
            gold = int(noisy_sbm.labels[q])
            pairs = sorted((-utility([cache.get(key_of(*scope, q, e, c))
                                      for c in range(noisy_sbm.n_classes)], gold), e) for e in ids)
            assert by_query[q].example_ids == tuple(e for _, e in pairs)
            assert by_query[q].utilities == tuple(-u for u, _ in pairs)
            assert all(type(u) is float for u in by_query[q].utilities)

    def test_ties_break_by_example_id(self, clean_sbm):
        cache = FeedbackCache()
        spec = ScorerSpec(kind="oracle")
        q = 0
        diff = [i for i in range(clean_sbm.n_nodes) if clean_sbm.labels[i] != clean_sbm.labels[q]][:5]
        ranked = rank_candidates(clean_sbm, {q: list(reversed(diff))}, spec, DEFAULT_TEMPLATE,
                                 cache).by_query[q]
        assert list(ranked.example_ids) == sorted(diff)

    def test_unlabeled_query_rejected(self, path_graph):
        labels = path_graph.labels.copy()
        from gicl.graphstore import UNLABELED, TagGraph

        labels[0] = UNLABELED
        g = TagGraph(
            n_nodes=path_graph.n_nodes, csr_offsets=path_graph.csr_offsets,
            csr_targets=path_graph.csr_targets, features=path_graph.features,
            texts=path_graph.texts, labels=labels, label_vocab=path_graph.label_vocab,
        )
        with pytest.raises(ValueError, match="gold"):
            rank_candidates(g, {0: [1]}, ScorerSpec(kind="oracle"), DEFAULT_TEMPLATE, FeedbackCache(), client=make_client(ScorerSpec(kind="oracle"), g))

    def test_unlabeled_candidate_is_refused_before_any_call(self, clean_sbm, tmp_path):
        labels = clean_sbm.labels.copy()
        labels[5] = UNLABELED
        g = dataclasses.replace(clean_sbm, labels=labels)
        spec = ScorerSpec(kind="oracle")
        client = make_client(spec, g)
        path = tmp_path / "cache.jsonl"
        with closing(FeedbackCache(path)) as cache:
            with pytest.raises(ValueError, match="^node 5 has no label"):
                rank_candidates(g, {0: [1, 5], 2: [3]}, spec, DEFAULT_TEMPLATE, cache,
                                client=client)
        assert client.calls == 0
        assert not path.exists()

    @pytest.mark.parametrize("candidates, message", [
        ({-1: [3, -2]}, "^query node -1 is out of range for 50 nodes"),
        ({50: [3]}, "^query node 50 is out of range for 50 nodes"),
        ({0: [3, -2]}, "^node -2 is out of range for 50 nodes"),
        ({0: [3], 1: [50]}, "^node 50 is out of range for 50 nodes"),
    ])
    def test_ids_outside_the_graph_are_refused_before_any_call(self, candidates, message,
                                                               tmp_path):
        # a negative id would count back from the last node and be cached under its own key
        g = synth_sbm(n_nodes=50, n_classes=2, p_in=0.2, p_out=0.02, d=4, noise=0.5, seed=3)
        spec = ScorerSpec(kind="oracle")
        client = make_client(spec, g)
        path = tmp_path / "cache.jsonl"
        with closing(FeedbackCache(path)) as cache:
            with pytest.raises(ValueError, match=message):
                rank_candidates(g, candidates, spec, DEFAULT_TEMPLATE, cache, client=client)
        assert client.calls == 0
        assert not path.exists()

    def test_empty_candidates_rejected(self, clean_sbm):
        with pytest.raises(ValueError, match="non-empty"):
            rank_candidates(clean_sbm, {0: []}, ScorerSpec(kind="oracle"), DEFAULT_TEMPLATE, FeedbackCache())

    def test_partially_failing_client_reports_pairs(self, clean_sbm):
        spec = ScorerSpec(kind="oracle")

        class Flaky(OracleClient):
            def token_logprobs(self, prompt, continuation, meta=None):
                if meta and meta["examples"] == [(3, int(clean_sbm.labels[3]))]:
                    raise ScorerError("injected")
                return super().token_logprobs(prompt, continuation, meta=meta)

        client = Flaky(clean_sbm)
        feedback = rank_candidates(clean_sbm, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE,
                                   FeedbackCache(), client=client)
        assert feedback.n_unscored == 1  # candidate 3
        assert set(feedback.by_query[0].example_ids) == {1, 2}

    def test_pairs_without_a_utility_are_unscored_cold_and_warm(self, clean_sbm, tmp_path):
        # example 3's log-probs are past float range in every class, so each perplexity is
        # infinite; example 2 holds a NaN in a cache file an older version wrote
        spec = ScorerSpec(kind="oracle")

        class Overflows(OracleClient):
            def token_logprobs(self, prompt, continuation, meta=None):
                lps = super().token_logprobs(prompt, continuation, meta=meta)
                return [-1000.0] if meta["examples"][0][0] == 3 else lps

        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        put(cache, spec.scorer_id, DEFAULT_TEMPLATE.template_hash, clean_sbm.content_hash, 0, 2,
            {c: math.nan if c == 0 else 2.0 for c in range(clean_sbm.n_classes)})
        cold = rank_candidates(clean_sbm, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, cache,
                               client=Overflows(clean_sbm))
        cache.close()
        assert cold.n_unscored == 2 and cold.by_query[0].example_ids == (1,)
        assert [get(FeedbackCache(path), spec.scorer_id, DEFAULT_TEMPLATE.template_hash,
                    clean_sbm.content_hash, 0, 3, c) for c in range(clean_sbm.n_classes)] == (
            [math.inf] * clean_sbm.n_classes)
        # a warm round reads the same values and leaves the same pairs out, with no request
        warm_client = Overflows(clean_sbm)
        with closing(FeedbackCache(path)) as warm_cache:
            assert rank_candidates(clean_sbm, {0: [1, 2, 3]}, spec, DEFAULT_TEMPLATE, warm_cache,
                                   client=warm_client) == cold
        assert warm_client.calls == 0

    def test_a_failed_class_leaves_its_pairs_scored_classes_cached(self, clean_sbm, tmp_path):
        spec = ScorerSpec(kind="oracle")

        class FailsClassOne(OracleClient):
            def token_logprobs(self, prompt, continuation, meta=None):
                if meta["examples"][0][0] == 3 and meta["class_index"] == 1:
                    raise ScorerError("injected")
                return super().token_logprobs(prompt, continuation, meta=meta)

        path = tmp_path / "cache.jsonl"
        cache = FeedbackCache(path)
        feedback = rank_candidates(clean_sbm, {0: [1, 3]}, spec, DEFAULT_TEMPLATE, cache,
                                   client=FailsClassOne(clean_sbm))
        cache.close()
        assert feedback.n_unscored == 1
        records = [json.loads(line) for line in path.read_text().splitlines()]
        classes = range(clean_sbm.n_classes)
        assert sorted((r["e"], r["c"]) for r in records) == sorted(
            [(1, c) for c in classes] + [(3, c) for c in classes if c != 1])
