"""Talent screening: batch-parse resumes and filter candidates.

The downstream scenario the paper's introduction motivates (person-job
matching, talent identification): parse a pile of resumes into structured
records, then run a screening query over the structure — e.g. "candidates
with at least two work experiences and a master's degree or higher".
Stage-1 uses a trained block classifier; stage-2 extracts entities with
the distant-supervision dictionary annotator (the deployable fallback when
no NER model is trained).
"""

import numpy as np

import repro  # noqa: F401
from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    ResuFormerConfig,
)
from repro.corpus import ContentConfig, ResumeGenerator
from repro.docmodel import BLOCK_ENTITIES
from repro.ner import DistantAnnotator, build_dictionaries
from repro.pipeline import ResumeParser
from repro.text import WordPieceTokenizer


class DictionaryTagger:
    """Minimal NerTagger-compatible adapter over the distant annotator."""

    def __init__(self, annotator):
        self.annotator = annotator
        from repro.docmodel import ENTITY_SCHEME

        self.scheme = ENTITY_SCHEME

    def predict(self, examples):
        return [self.annotator.annotate(e.words).labels for e in examples]


def screen(parsed, min_work_experiences=2, degrees=("master", "phd", "mba")):
    """Screening rule over the parsed structure."""
    work = parsed.blocks_by_tag("WorkExp")
    if len(work) < min_work_experiences:
        return False, "too few work experiences"
    for block in parsed.blocks_by_tag("EduExp"):
        for entity in block.entities:
            if entity.tag == "Degree" and entity.text in degrees:
                return True, f"{len(work)} work experiences, {entity.text} degree"
    return False, "no qualifying degree found"


def main():
    generator = ResumeGenerator(seed=23, content_config=ContentConfig.tiny())
    documents = generator.batch(26)
    labeled, pool = documents[:6], documents[6:]

    tokenizer = WordPieceTokenizer.train(
        (s.text for d in documents for s in d.sentences),
        vocab_size=800, min_frequency=1,
    )
    config = ResuFormerConfig(vocab_size=len(tokenizer.vocab))
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(0))
    classifier = BlockClassifier(encoder, featurizer, rng=np.random.default_rng(1))
    BlockTrainer(classifier, seed=0).fit(
        [LabeledDocument.from_gold(d) for d in labeled[:5]],
        validation=[LabeledDocument.from_gold(labeled[5])],
        epochs=8, patience=4,
    )

    annotator = DistantAnnotator(build_dictionaries(coverage=0.9, seed=0))
    parser = ResumeParser(classifier, DictionaryTagger(annotator))

    accepted = 0
    for document, parsed in zip(pool, parser.parse_batch(pool)):
        ok, reason = screen(parsed)
        accepted += ok
        verdict = "ACCEPT" if ok else "reject"
        name = next(
            (e.text for b in parsed.blocks_by_tag("PInfo")
             for e in b.entities if e.tag == "Name"),
            "(name not found)",
        )
        print(f"{verdict}  {document.doc_id}  {name:<22} {reason}")
    print(f"\n{accepted}/{len(pool)} candidates pass the screen")


if __name__ == "__main__":
    main()
