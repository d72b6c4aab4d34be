"""End-to-end resume parsing: block classification + intra-block NER.

``ResumeParser`` is the deployment-shaped API (the paper ships this
pipeline on Baidu Cloud): a document goes through the sentence-level block
classifier, contiguous same-tag sentences form block instances, and each
entity-bearing block runs through the NER tagger, yielding the hierarchical
structure — e.g. every work experience with its company, position, and
dates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import obs
from .corpus.datasets import NerExample
from .core.block_classifier import BlockClassifier
from .docmodel.document import ResumeDocument
from .docmodel.labels import BLOCK_ENTITIES, iob_to_spans
from .ner.model import NerTagger

__all__ = [
    "ParsedEntity",
    "ParsedBlock",
    "ParsedResume",
    "ResumeParser",
    "segment_to_ner_examples",
]


@dataclass
class ParsedEntity:
    """One extracted entity mention."""

    tag: str
    text: str
    start: int  # word offsets within the block
    stop: int


@dataclass
class ParsedBlock:
    """One semantic block with its text and extracted entities."""

    tag: str
    sentence_indices: List[int]
    text: str
    entities: List[ParsedEntity] = field(default_factory=list)


@dataclass
class ParsedResume:
    """The hierarchical structure extracted from one resume."""

    doc_id: str
    blocks: List[ParsedBlock]

    def blocks_by_tag(self, tag: str) -> List[ParsedBlock]:
        return [b for b in self.blocks if b.tag == tag]

    def to_dict(self) -> Dict:
        """JSON-ready nested structure."""
        return {
            "doc_id": self.doc_id,
            "blocks": [
                {
                    "tag": block.tag,
                    "text": block.text,
                    "entities": [
                        {"tag": e.tag, "text": e.text, "span": [e.start, e.stop]}
                        for e in block.entities
                    ],
                }
                for block in self.blocks
            ],
        }


class ResumeParser:
    """The full two-stage pipeline of the paper.

    :meth:`parse_batch` is the only parse path: one block-classifier pass
    over every document of the call, then one NER pass over every
    entity-bearing block of every document.  :meth:`parse` is a batch of
    one.  A document's result does not depend on its batch-mates.
    """

    def __init__(
        self,
        block_classifier: BlockClassifier,
        ner_tagger: Optional[NerTagger] = None,
    ):
        self.block_classifier = block_classifier
        self.ner_tagger = ner_tagger

    # ------------------------------------------------------------------
    def segment(
        self, documents: Sequence[ResumeDocument]
    ) -> List[List[ParsedBlock]]:
        """Stage 1: sentence-level block segmentation, one list per document."""
        with obs.trace("pipeline.segment", documents=len(documents)):
            predictions = self.block_classifier.predict_batch(documents)
            scheme = self.block_classifier.scheme
            segmented: List[List[ParsedBlock]] = []
            for document, labels in zip(documents, predictions):
                ids = [
                    scheme.label_id(label) if label in scheme.labels
                    else scheme.outside_id
                    for label in labels
                ]
                blocks = []
                for start, stop, tag in iob_to_spans(ids, scheme):
                    indices = list(range(start, stop))
                    text = " ".join(document.sentences[i].text for i in indices)
                    blocks.append(
                        ParsedBlock(tag=tag, sentence_indices=indices, text=text)
                    )
                segmented.append(blocks)
        telemetry = obs.get_telemetry()
        if telemetry is not None:
            counter = telemetry.metrics.counter("pipeline.blocks")
            for blocks in segmented:
                for block in blocks:
                    counter.inc(tag=block.tag)
        return segmented

    def extract_entities(
        self,
        documents: Sequence[ResumeDocument],
        segmented: Sequence[Sequence[ParsedBlock]],
    ) -> None:
        """Stage 2: NER inside every entity-bearing block (in place).

        The blocks of all documents go through one ``NerTagger.predict``
        call, which length-sorts them internally.
        """
        if self.ner_tagger is None:
            return
        targets = [
            (document, block)
            for document, blocks in zip(documents, segmented)
            for block in blocks
            if block.tag in BLOCK_ENTITIES
        ]
        if not targets:
            return
        with obs.trace("pipeline.extract_entities", blocks=len(targets)):
            examples = [_block_example(d, b) for d, b in targets]
            predictions = self.ner_tagger.predict(examples)
            scheme = self.ner_tagger.scheme
            telemetry = obs.get_telemetry()
            for (_, block), example, labels in zip(targets, examples, predictions):
                ids = [
                    scheme.label_id(l) if l in scheme.labels else scheme.outside_id
                    for l in labels
                ]
                allowed = set(BLOCK_ENTITIES[block.tag])
                for start, stop, tag in iob_to_spans(ids, scheme):
                    if tag not in allowed:
                        continue  # Table IV evaluates per-block entity types
                    block.entities.append(
                        ParsedEntity(
                            tag=tag,
                            text=" ".join(example.words[start:stop]),
                            start=start,
                            stop=stop,
                        )
                    )
                    if telemetry is not None:
                        # Tags come from the fixed BLOCK_ENTITIES taxonomy
                        # (Table IV), already filtered through `allowed`.
                        # repro-lint: disable=RN012
                        telemetry.metrics.counter("pipeline.entities").inc(tag=tag)

    def parse_batch(
        self, documents: Sequence[ResumeDocument]
    ) -> List[ParsedResume]:
        """Run both stages over many documents; results in input order.

        A blank document (no sentences) parses to a resume with no blocks.
        """
        documents = list(documents)
        with obs.trace("pipeline.parse", documents=len(documents)):
            segmented = self.segment(documents)
            self.extract_entities(documents, segmented)
        telemetry = obs.get_telemetry()
        if telemetry is not None:
            telemetry.metrics.counter("pipeline.documents").inc(len(documents))
        return [
            ParsedResume(doc_id=document.doc_id, blocks=blocks)
            for document, blocks in zip(documents, segmented)
        ]

    def parse(self, document: ResumeDocument) -> ParsedResume:
        """Run both stages on one document: a batch of one."""
        return self.parse_batch([document])[0]


def _block_example(document: ResumeDocument, block: ParsedBlock) -> NerExample:
    """The block's words as an unlabelled NER instance."""
    words: List[str] = []
    for index in block.sentence_indices:
        words.extend(document.sentences[index].words)
    return NerExample(words, ["O"] * len(words), block.tag, document.doc_id)


def segment_to_ner_examples(
    classifier: BlockClassifier,
    documents,
) -> List[NerExample]:
    """Slice documents into NER instances using *predicted* blocks.

    This is the paper's actual data flow for task 2 (Section V-B1): the
    trained block classifier segments each training document, and the text
    of each entity-bearing predicted block becomes one training instance
    for the distant annotator.  (``repro.corpus.extract_block_examples``
    is the gold-segmentation variant used for controlled evaluation.)
    All documents are segmented in one batched call.
    """
    documents = list(documents)
    segmented = ResumeParser(classifier, ner_tagger=None).segment(documents)
    examples = [
        _block_example(document, block)
        for document, blocks in zip(documents, segmented)
        for block in blocks
        if block.tag in BLOCK_ENTITIES
    ]
    return [example for example in examples if example.words]
