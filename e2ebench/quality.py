"""Output checks and quality scores, computed from the parse output itself.

Every :class:`~repro.pipeline.ParsedResume` the benchmark receives goes
through :func:`violations`; a non-empty list fails the run.  Quality is
micro-averaged over a fixed set of documents per seed:

* ``block_f1`` — sentence level: each sentence's predicted block tag (the
  tag of the returned block holding it, if any) against its gold tag.
* ``entity_f1`` — entity level (paper Eq. 16–18): a returned entity counts
  when its document-level word span and tag equal a gold entity's.

A document the parser failed on contributes its gold and nothing else.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.docmodel import BLOCK_ENTITIES, ENTITY_SCHEME, iob_to_spans
from repro.eval import PrfScore


def violations(document, parsed) -> List[str]:
    """Broken output invariants of one parse (empty when the output is sound)."""
    problems: List[str] = []
    if parsed.doc_id != document.doc_id:
        problems.append(f"doc_id {parsed.doc_id!r} != {document.doc_id!r}")
    next_free = 0
    for block in parsed.blocks:
        indices = block.sentence_indices
        if not indices or indices != list(range(indices[0], indices[0] + len(indices))):
            problems.append(f"{block.tag} block is not a contiguous sentence run")
            continue
        if indices[0] < next_free or indices[-1] >= document.num_sentences:
            problems.append(f"{block.tag} block {indices[0]}..{indices[-1]} overlaps, "
                            "is out of order or out of range")
            continue
        next_free = indices[-1] + 1
        words = [w for i in indices for w in document.sentences[i].words]
        if block.text != " ".join(document.sentences[i].text for i in indices):
            problems.append(f"{block.tag} block text differs from its sentences")
        allowed = BLOCK_ENTITIES.get(block.tag, ())
        for entity in block.entities:
            if entity.tag not in allowed:
                problems.append(f"{entity.tag} entity in a {block.tag} block")
            if not 0 <= entity.start < entity.stop <= len(words):
                problems.append(f"{entity.tag} span {entity.start}:{entity.stop} "
                                f"outside its {len(words)}-word block")
            elif entity.text != " ".join(words[entity.start:entity.stop]):
                problems.append(f"{entity.tag} text differs from its span")
    return problems


def gold_sentence_tags(document) -> List[Optional[str]]:
    return [sentence.majority_block()[0] for sentence in document.sentences]


def predicted_sentence_tags(document, parsed) -> List[Optional[str]]:
    tags: List[Optional[str]] = [None] * document.num_sentences
    for block in parsed.blocks:
        for index in block.sentence_indices:
            tags[index] = block.tag
    return tags


def gold_entities(document) -> Set[Tuple[int, int, str]]:
    ids = [
        ENTITY_SCHEME.label_id(label) if label in ENTITY_SCHEME.labels
        else ENTITY_SCHEME.outside_id
        for label in (token.entity_label for token in document.tokens())
    ]
    return set(iob_to_spans(ids, ENTITY_SCHEME))


def predicted_entities(document, parsed) -> Set[Tuple[int, int, str]]:
    offsets = [0]
    for sentence in document.sentences:
        offsets.append(offsets[-1] + len(sentence.tokens))
    spans = set()
    for block in parsed.blocks:
        base = offsets[block.sentence_indices[0]]
        for entity in block.entities:
            spans.add((base + entity.start, base + entity.stop, entity.tag))
    return spans


@dataclass
class Scores:
    """Micro-averaged block and entity counts over a set of documents."""

    block_tp: int = 0
    block_pred: int = 0
    block_gold: int = 0
    entity_tp: int = 0
    entity_pred: int = 0
    entity_gold: int = 0

    def add(self, document, parsed) -> None:
        """Score one document; ``parsed`` is None when the parser failed on it."""
        gold = gold_sentence_tags(document)
        self.block_gold += sum(tag is not None for tag in gold)
        entities = gold_entities(document)
        self.entity_gold += len(entities)
        if parsed is None:
            return
        predicted = predicted_sentence_tags(document, parsed)
        self.block_pred += sum(tag is not None for tag in predicted)
        self.block_tp += sum(p is not None and p == g for p, g in zip(predicted, gold))
        found = predicted_entities(document, parsed)
        self.entity_pred += len(found)
        self.entity_tp += len(found & entities)

    @property
    def block_f1(self) -> float:
        return PrfScore.from_counts(self.block_tp, self.block_pred, self.block_gold).f1

    @property
    def entity_f1(self) -> float:
        return PrfScore.from_counts(
            self.entity_tp, self.entity_pred, self.entity_gold
        ).f1


class Traffic:
    """Input properties the parser's cost depends on, accumulated per document."""

    def __init__(self, tokenizer, config):
        self.tokenizer = tokenizer
        self.config = config
        self.lengths: List[int] = []
        self.blocks = self.entity_blocks = 0
        self.over_tokens = self.over_sentences = 0

    def add(self, document) -> None:
        self.lengths.append(document.num_sentences)
        previous = None
        for sentence in document.sentences:
            tag, block_id = sentence.majority_block()
            if block_id is not None and block_id != previous:
                self.blocks += 1
                self.entity_blocks += tag in BLOCK_ENTITIES
            previous = block_id
        self.over_sentences += (
            document.num_sentences > self.config.max_document_sentences
        )
        self.over_tokens += any(
            1 + sum(len(self.tokenizer.tokenize_word(t.word.lower())) for t in s.tokens)
            > self.config.max_sentence_tokens
            for s in document.sentences
        )

    def summary(self) -> dict:
        n = len(self.lengths)
        if not n:
            return {"documents": 0}
        lengths = sorted(self.lengths)
        return {
            "documents": n,
            "sentences_mean": round(statistics.fmean(lengths), 2),
            "sentences_p90": lengths[min(n - 1, int(0.9 * n))],
            "blank_share": sum(length == 0 for length in lengths) / n,
            "entity_block_share": (
                round(self.entity_blocks / self.blocks, 4) if self.blocks else 0.0
            ),
            "over_sentence_token_cap_share": self.over_tokens / n,
            "over_document_sentence_cap_share": self.over_sentences / n,
        }
