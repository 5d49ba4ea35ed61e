"""Prompt templates, answer parsing, and ICL-set post-processing.

A template file is UTF-8 text with three sections separated by lines
containing only ``---``: the main template (placeholders ``{examples}``
and ``{query}``, each exactly once), the per-example sub-template
(``{text}`` and ``{label}``), and the answer cue appended to every prompt.
Each section keeps its exact text but for the newline before each separator
and the file's last newline; a ``---`` line that ends the file leaves an empty
answer cue. The built-in default is ``templates/default.tmpl``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Hashable, Sequence

from .graphstore import UNLABELED, TagGraph


def examples_from_ids(graph: TagGraph, ids: Sequence[int]) -> list[tuple[int, int]]:
    """The labeled nodes ``ids`` as ICL examples, (node id, class shown) pairs in order,
    each shown with its true class; an unlabeled one is refused."""
    labels = graph.labels[list(ids)].tolist()
    if UNLABELED in labels:
        raise ValueError(f"node {ids[labels.index(UNLABELED)]} has no label to use as an ICL example")
    return list(zip(ids, labels))


@dataclass(frozen=True)
class PromptTemplate:
    main: str
    example: str
    answer_cue: str

    def __post_init__(self) -> None:
        for ph in ("{examples}", "{query}"):
            if self.main.count(ph) != 1:
                raise ValueError(f"main template must contain {ph} exactly once")
        for ph in ("{text}", "{label}"):
            if ph not in self.example:
                raise ValueError(f"example sub-template must contain {ph}")

    @property
    def template_hash(self) -> str:
        payload = "\x00".join((self.main, self.example, self.answer_cue))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_BUNDLED = resources.files("gicl") / "templates"


def load_template(name_or_path: str | Path) -> PromptTemplate:
    """Load a template by bundled name (e.g. 'arxiv') or filesystem path."""
    path = Path(name_or_path)
    ref = path if path.is_file() else _BUNDLED / f"{name_or_path}.tmpl"
    if not ref.is_file():
        raise FileNotFoundError(f"no template file or bundled template named {name_or_path!r}")
    parts = re.split(r"\n---[ \t]*(?:\n|\Z)", ref.read_text(encoding="utf-8").removesuffix("\n"))
    if len(parts) != 3:
        raise ValueError(f"template {name_or_path!r} must have 3 sections separated by '---' lines")
    main, example, cue = parts
    return PromptTemplate(main=main, example=example, answer_cue=cue)


# by path, so that a file named "default" in the working directory cannot stand in for it
DEFAULT_TEMPLATE = load_template(_BUNDLED / "default.tmpl")


MAX_CHARS_PER_DOC = 1200  # every document in a prompt is cut to this many characters


def truncate_at_whitespace(text: str, limit: int) -> str:
    """Clip to at most ``limit`` chars, cutting at a whitespace boundary."""
    if limit <= 0 or len(text) <= limit:
        return text
    head = text[:limit]
    if not text[limit].isspace():
        cut = max(head.rfind(ch) for ch in (" ", "\t", "\n"))
        if cut > 0:
            head = head[:cut]
    return head.rstrip()


def render(
    template: PromptTemplate,
    examples: Sequence[tuple[str, str]],
    query_text: str,
) -> str:
    """Fill the template: examples in given (rank) order, then the answer cue.

    Each document is truncated to ``MAX_CHARS_PER_DOC`` at a whitespace
    boundary. Each template is split at one placeholder before any value goes
    in, so no inserted text is scanned for a placeholder: a document's
    ``{query}`` or ``{label}`` stays literal text.
    """
    text_parts = template.example.split("{text}")
    label_parts = {}  # text_parts with {label} filled, once per distinct label
    blocks = []
    for text, label in examples:
        if label not in label_parts:
            label_parts[label] = [part.replace("{label}", str(label)) for part in text_parts]
        blocks.append(truncate_at_whitespace(str(text), MAX_CHARS_PER_DOC).join(label_parts[label]))
    query = truncate_at_whitespace(query_text, MAX_CHARS_PER_DOC)
    main_parts = template.main.split("{examples}")
    body = "".join(blocks).join([part.replace("{query}", query) for part in main_parts])
    return body + template.answer_cue


def icl_request(template: PromptTemplate, graph: TagGraph, query_id: int,
                examples: Sequence[tuple[int, int]]) -> tuple[str, dict]:
    """The prompt for ``query_id`` showing ``examples``, (node id, class shown) pairs in rank
    order, each node's text under its class's label; and the oracle's metadata, naming both."""
    shown = [(graph.texts[e], graph.label_vocab[c]) for e, c in examples]
    prompt = render(template, shown, graph.texts[query_id])
    return prompt, {"query_id": query_id, "examples": examples}


def parse_answer(completion_text: str, label_vocab: Sequence[str]) -> int | None:
    """Earliest case-insensitive vocabulary match; longest label wins ties.

    Returns the class index, or None when no label occurs in the text.
    """
    haystack = completion_text.lower()
    best: tuple[int, int, int] | None = None  # (position, -len, class index)
    for idx, label in enumerate(label_vocab):
        pos = haystack.find(label.lower())
        if pos < 0:
            continue
        key = (pos, -len(label), idx)
        if best is None or key < best:
            best = key
    return best[2] if best is not None else None


def majority_vote(examples: Sequence[tuple[object, Hashable]]) -> Hashable:
    """Most frequent label (each item's second element); ties go to the highest-ranked tied example."""
    if not examples:
        raise ValueError("majority_vote needs at least one example")
    counts: dict[Hashable, int] = {}
    first_rank: dict[Hashable, int] = {}
    for rank, (_, label) in enumerate(examples):
        counts[label] = counts.get(label, 0) + 1
        first_rank.setdefault(label, rank)
    return max(counts, key=lambda lab: (counts[lab], -first_rank[lab]))


def purify_minority(examples: Sequence[tuple[object, Hashable]]) -> list[int]:
    """Positions of the examples whose label appears at least twice.

    If that would remove everything, every position is kept.
    """
    counts: dict[Hashable, int] = {}
    for _, label in examples:
        counts[label] = counts.get(label, 0) + 1
    kept = [i for i, (_, label) in enumerate(examples) if counts[label] >= 2]
    return kept if kept else list(range(len(examples)))


SELECTION_PROMPT = (
    "You are selecting the most informative examples for a classification "
    "task. Below is a numbered list of candidate examples. Pick the {budget} "
    "most relevant and diverse ones.\n{candidates}\n"
    "Respond only with the numbers of your picks, comma-separated "
    "(e.g., 2,5,1), without any additional text.\nAnswer:"
)


def purify_llm_select(
    examples: Sequence[tuple[str, str]],
    complete_fn,
    budget: int,
) -> tuple[list[int], bool]:
    """Ask the model to pick ``budget`` examples; fall back to original rank.

    ``complete_fn(prompt) -> str`` issues the selection request. Returns the
    positions of the selected examples, in the order picked, and a flag set
    when the fallback (the first ``budget`` positions) was used: an
    unparseable reply or a scorer failure.
    """
    if budget > len(examples):
        raise ValueError("budget cannot exceed the number of examples")
    if budget == len(examples):
        return list(range(budget)), False
    lines = "\n".join(
        f"{i + 1}. {truncate_at_whitespace(str(text), 200)} -> {label}"
        for i, (text, label) in enumerate(examples)
    )
    prompt = SELECTION_PROMPT.format(budget=budget, candidates=lines)
    try:
        reply = complete_fn(prompt)
    except Exception:
        return list(range(budget)), True
    picks: list[int] = []
    for token in re.findall(r"\d+", reply):
        i = int(token) - 1
        if 0 <= i < len(examples) and i not in picks:
            picks.append(i)
        if len(picks) == budget:
            break
    if not picks:
        return list(range(budget)), True
    return picks, False
