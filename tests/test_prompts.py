import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gicl.graphstore import UNLABELED, TagGraph
from gicl.prompts import (
    DEFAULT_TEMPLATE,
    MAX_CHARS_PER_DOC,
    PromptTemplate,
    examples_from_ids,
    icl_request,
    load_template,
    majority_vote,
    parse_answer,
    purify_llm_select,
    purify_minority,
    render,
    truncate_at_whitespace,
)

ARXIV_VOCAB = ["cs.AI", "cs.SY", "cs.LG", "cs.CL"]


class TestTemplate:
    def test_hash_is_stable_and_sensitive(self):
        t1 = PromptTemplate(main="a {examples} b {query}", example="{text}:{label}", answer_cue="A:")
        t2 = PromptTemplate(main="a {examples} b {query}", example="{text}:{label}", answer_cue="A:")
        t3 = PromptTemplate(main="a {examples} b {query}", example="{text}:{label}", answer_cue="B:")
        assert t1.template_hash == t2.template_hash
        assert t1.template_hash != t3.template_hash

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ValueError, match="examples"):
            PromptTemplate(main="no slots {query}", example="{text} {label}", answer_cue="")
        with pytest.raises(ValueError, match="query"):
            PromptTemplate(main="{examples} {query}{query}", example="{text} {label}", answer_cue="")
        with pytest.raises(ValueError, match="label"):
            PromptTemplate(main="{examples} {query}", example="{text} only", answer_cue="")

    def test_bundled_templates_load_and_render(self):
        for name in ("default", "arxiv", "products"):
            t = load_template(name)
            out = render(t, [("an example text", "LabelX")], "the query body")
            assert "the query body" in out
            assert "an example text" in out and "LabelX" in out
            assert out.rstrip().endswith("Answer:")

    @pytest.mark.parametrize("name", ["default", "arxiv", "products"])
    def test_bundled_template_breaks_lines_between_blocks_and_before_cue(self, name):
        out = render(load_template(name), [("first text", "LabelA"), ("second text", "LabelB")],
                     "the query body")
        assert "LabelA\n" in out and "LabelB\n" in out
        assert out.split("\n")[-1] == "Answer:"

    def test_default_template_is_the_bundled_file(self):
        assert DEFAULT_TEMPLATE == load_template("default")

    def test_default_template_ignores_a_file_named_default(self, tmp_path):
        (tmp_path / "default").write_text("Other {examples} {query}\n---\n{text} {label}\n---\nA:")
        code = "from gicl.prompts import DEFAULT_TEMPLATE as t; print(t.template_hash)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == DEFAULT_TEMPLATE.template_hash

    def test_default_template_hash_is_pinned(self):
        # cache entries are keyed on this hash: a change makes every cache miss
        assert DEFAULT_TEMPLATE.template_hash == "7c6b3c704779a555"

    def test_sections_keep_their_exact_text(self, tmp_path):
        path = tmp_path / "exact.tmpl"
        path.write_text("Main\n{examples}\n{query}\n\n---  \n\n{text}: {label}\n\n---\n\nA:\n\n")
        t = load_template(path)
        assert t.main == "Main\n{examples}\n{query}\n"
        assert t.example == "\n{text}: {label}\n"
        assert t.answer_cue == "\nA:\n"

    def test_separator_ending_the_file_leaves_an_empty_cue(self, tmp_path):
        path = tmp_path / "nocue.tmpl"
        for tail in ("---", "---\n"):
            path.write_text("Main {examples} {query}\n---\n{text} -> {label}\n" + tail)
            t = load_template(path)
            assert (t.example, t.answer_cue) == ("{text} -> {label}", "")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "custom.tmpl"
        path.write_text("Main {examples} {query}\n---\n{text} -> {label}\n---\nAnswer:")
        t = load_template(path)
        assert t.main == "Main {examples} {query}"
        assert t.answer_cue == "Answer:"
        assert t.example == "{text} -> {label}"

    def test_unknown_bundled_name(self):
        with pytest.raises(FileNotFoundError):
            load_template("nonexistent-template")


class TestRender:
    def test_zero_examples_is_zero_shot(self):
        out = render(DEFAULT_TEMPLATE, [], "the query text")
        assert "the query text" in out
        assert "Category:" not in out.split("Answer:")[0].split("help you:")[1]
        assert out.endswith("Answer:")

    def test_single_example_substitution(self):
        t = PromptTemplate(main="{examples}Q: {query}\n", example="Text: {text} -> {label}\n", answer_cue="A:")
        out = render(t, [("t", "A")], "q")
        assert out == "Text: t -> A\nQ: q\nA:"
        assert out.count("Text: t -> A") == 1

    def test_examples_render_in_given_order(self):
        t = PromptTemplate(main="{examples}|{query}", example="[{text}={label}]", answer_cue="")
        out = render(t, [("x", "B"), ("y", "A"), ("z", "C")], "q")
        assert out.startswith("[x=B][y=A][z=C]")

    def test_long_document_truncated_at_whitespace(self):
        words = ("word " * 800).strip()  # 4000 chars
        t = PromptTemplate(main="{examples}{query}", example="{text} {label}", answer_cue="")
        out = render(t, [(words, "A")], "q")
        rendered_doc = out[: out.index(" A")]
        assert len(rendered_doc) <= 1200
        assert not rendered_doc[-1].isspace()
        assert words.startswith(rendered_doc)

    def test_deterministic(self):
        args = (DEFAULT_TEMPLATE, [("text one", "A"), ("text two", "B")], "query body")
        assert render(*args) == render(*args)

    def test_braces_in_documents_survive(self):
        out = render(DEFAULT_TEMPLATE, [("JSON {x} doc", "A")], "query {y}")
        assert "JSON {x} doc" in out and "query {y}" in out

    @pytest.mark.parametrize("name", ["default", "arxiv", "products"])
    def test_placeholders_in_documents_render_literally(self, name):
        template = load_template(name)
        texts = ["cites {query} and {label}", "a {text} of {examples}"]
        query = "asks {examples} of {text}, {label} and {query}"
        out = render(template, [(texts[0], "topic-a"), (texts[1], "topic-b")], query)
        # the same prompt with brace-free stand-ins, which then give way to the documents
        expected = render(template, [("@DOC0@", "topic-a"), ("@DOC1@", "topic-b")], "@QUERY@")
        for marker, text in (("@DOC0@", texts[0]), ("@DOC1@", texts[1]), ("@QUERY@", query)):
            expected = expected.replace(marker, text)
        assert out == expected
        assert out.count(query) == 1 and out.count("topic-a") == 1

    @given(texts=st.lists(st.text(st.characters(blacklist_characters="{}"), max_size=1300), max_size=4),
           labels=st.lists(st.text(st.characters(blacklist_characters="{}"), max_size=8), min_size=4,
                           max_size=4),
           query=st.text(st.characters(blacklist_characters="{}"), max_size=1300),
           name=st.sampled_from(["default", "arxiv", "products"]))
    def test_brace_free_prompts_match_chained_replacement(self, texts, labels, query, name):
        # the chained str.replace calls that filled templates before the one-pass fill
        template = load_template(name)
        blocks = [template.example.replace("{text}", truncate_at_whitespace(t, MAX_CHARS_PER_DOC))
                  .replace("{label}", label) for t, label in zip(texts, labels)]
        chained = template.main.replace("{examples}", "".join(blocks)).replace(
            "{query}", truncate_at_whitespace(query, MAX_CHARS_PER_DOC)) + template.answer_cue
        assert render(template, list(zip(texts, labels)), query) == chained


def tiny_graph(texts, labels, vocab) -> TagGraph:
    n = len(texts)
    return TagGraph(n, np.zeros(n + 1, np.int64), np.zeros(0, np.int64), np.eye(n, 2, dtype=np.float32),
                    tuple(texts), np.array(labels), tuple(vocab))


class TestIclRequest:
    TEXTS = ["a {label} query", "cites {query}", "x " * 700, "plain", "unlabeled"]
    GRAPH_ARGS = (TEXTS, [1, 0, 2, 0, UNLABELED], ["topic-0", "topic-1", "topic-2"])

    @pytest.mark.parametrize("name", ["default", "arxiv", "products"])
    @pytest.mark.parametrize("examples", [[], [(1, 0)], [(2, 2), (1, 0), (3, 0)], [(3, 1), (4, 2)]],
                             ids=["none", "one", "true-classes", "pseudo-labels"])
    def test_prompt_is_render_of_the_looked_up_pairs(self, name, examples):
        g = tiny_graph(*self.GRAPH_ARGS)
        template = load_template(name)
        prompt, meta = icl_request(template, g, 0, examples)
        shown = [(g.texts[e], g.label_vocab[c]) for e, c in examples]
        assert prompt == render(template, shown, g.texts[0])
        assert meta == {"query_id": 0, "examples": examples}

    def test_examples_from_ids_pairs_each_node_with_its_true_class(self):
        g = tiny_graph(*self.GRAPH_ARGS)
        assert examples_from_ids(g, [3, 2, 1]) == [(3, 0), (2, 2), (1, 0)]
        assert examples_from_ids(g, []) == []
        with pytest.raises(ValueError, match="^node 4 has no label"):
            examples_from_ids(g, [1, 4])

    @pytest.mark.parametrize("outside", [-1, 5])
    def test_examples_from_ids_refuses_an_id_outside_the_graph(self, outside):
        # a negative id would count back from the last node, and n would be numpy's IndexError
        g = tiny_graph(*self.GRAPH_ARGS)
        with pytest.raises(ValueError, match=f"^node {outside} is out of range for 5 nodes"):
            examples_from_ids(g, [1, outside])


class TestTruncate:
    def test_short_text_unchanged(self):
        assert truncate_at_whitespace("hello world", 50) == "hello world"

    def test_cut_lands_on_word_boundary(self):
        text = "alpha beta gamma delta"
        out = truncate_at_whitespace(text, 13)
        assert out == "alpha beta"

    def test_unbreakable_text_hard_cut(self):
        assert truncate_at_whitespace("x" * 100, 10) == "x" * 10

    @given(st.text(min_size=1, max_size=300), st.integers(min_value=1, max_value=80))
    def test_never_exceeds_limit(self, text, limit):
        assert len(truncate_at_whitespace(text, limit)) <= limit


class TestParseAnswer:
    def test_exact_category_key(self):
        assert parse_answer("cs.AI", ARXIV_VOCAB) == 0

    def test_label_inside_sentence_with_quotes(self):
        vocab = ["Movies & TV", "Toys & Games", "Books"]
        assert parse_answer("The answer is 'Toys & Games'.", vocab) == 1

    def test_unmatched_text_is_unparsed(self):
        assert parse_answer("banana", ARXIV_VOCAB) is None

    def test_case_insensitive(self):
        assert parse_answer("CS.LG seems right", ARXIV_VOCAB) == 2

    def test_earliest_match_wins(self):
        assert parse_answer("cs.CL not cs.AI", ARXIV_VOCAB) == 3

    def test_longest_label_wins_at_same_position(self):
        vocab = ["topic-1", "topic-10"]
        assert parse_answer("topic-10", vocab) == 1

    def test_every_vocab_label_round_trips(self):
        for vocab in (ARXIV_VOCAB, ["Movies & TV", "Toys & Games"], [f"topic-{i}" for i in range(12)]):
            for i, label in enumerate(vocab):
                assert parse_answer(label, vocab) == i


class TestMajorityVote:
    def test_unanimous(self):
        assert majority_vote([("t", "A"), ("t", "A")]) == "A"

    def test_plurality(self):
        assert majority_vote([("t", "A"), ("t", "A"), ("t", "B")]) == "A"

    def test_tie_goes_to_higher_rank(self):
        assert majority_vote([("t", "A"), ("t", "B")]) == "A"
        assert majority_vote([("t", "B"), ("t", "A")]) == "B"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    @given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=30))
    def test_winner_has_maximal_count(self, labels):
        examples = [("t", lab) for lab in labels]
        winner = majority_vote(examples)
        counts = {lab: labels.count(lab) for lab in set(labels)}
        assert counts[winner] == max(counts.values())


class TestPurify:
    def test_minority_removed(self):
        assert purify_minority([("t", "A"), ("u", "A"), ("v", "B")]) == [0, 1]

    def test_all_distinct_guard_returns_input(self):
        assert purify_minority([("t", "A"), ("u", "B"), ("v", "C")]) == [0, 1, 2]

    def test_llm_select_full_budget_is_identity(self):
        examples = [("a", "A"), ("b", "B")]
        out, fallback = purify_llm_select(examples, lambda p: "never called", 2)
        assert out == [0, 1] and not fallback

    def test_llm_select_parses_pick_order(self):
        examples = [("a", "A"), ("b", "B"), ("c", "C")]
        out, fallback = purify_llm_select(examples, lambda p: "2,1", 2)
        assert out == [1, 0]
        assert not fallback

    def test_llm_select_garbage_falls_back_to_rank(self):
        examples = [("a", "A"), ("b", "B"), ("c", "C")]
        out, fallback = purify_llm_select(examples, lambda p: "no numbers here", 2)
        assert out == [0, 1]
        assert fallback

    def test_llm_select_scorer_failure_falls_back(self):
        def boom(prompt):
            raise RuntimeError("down")

        examples = [("a", "A"), ("b", "B")]
        out, fallback = purify_llm_select(examples, boom, 1)
        assert out == [0]
        assert fallback

    def test_llm_select_budget_validation(self):
        with pytest.raises(ValueError):
            purify_llm_select([("a", "A")], lambda p: "", 2)
