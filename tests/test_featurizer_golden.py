"""Golden digests of the block and NER featurizer outputs.

Both featurizers feed every model in the repository, so their arrays must
stay bit-identical across any rewrite: the same dtype, the same shape and
the same bytes.  Each case hashes every array of a ``DocumentFeatures`` or
``NerFeatures`` bundle with sha256 and compares it to a pinned digest.
The hand-built cases cover the edges a vectorised rewrite is most likely
to get wrong, and also assert the expected values directly.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import Featurizer, ResuFormerConfig
from repro.corpus import ContentConfig, ResumeGenerator, extract_block_examples
from repro.corpus.datasets import NerExample
from repro.docmodel import BBox, Page, ResumeDocument, Sentence, Token
from repro.ner.encoding import NerFeaturizer
from repro.text import WordPieceTokenizer


def digest(features) -> str:
    """sha256 over every array's name, dtype, shape and bytes, in field order."""
    h = hashlib.sha256()
    for field in dataclasses.fields(features):
        array = np.ascontiguousarray(getattr(features, field.name))
        h.update(field.name.encode())
        h.update(array.dtype.str.encode())
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def documents():
    tiny = ResumeGenerator(seed=101, content_config=ContentConfig.tiny()).batch(3)
    paper = ResumeGenerator(seed=102, content_config=ContentConfig.paper()).batch(2)
    return tiny + paper


@pytest.fixture(scope="module")
def tokenizer(documents):
    texts = [s.text for d in documents for s in d.sentences]
    return WordPieceTokenizer.train(texts, vocab_size=400, min_frequency=1)


def _config(tokenizer, **overrides):
    return ResuFormerConfig(
        vocab_size=len(tokenizer.vocab), hidden_dim=32, sentence_layers=1,
        sentence_heads=2, document_layers=1, document_heads=2,
        visual_proj_dim=8, dropout=0.0, **overrides,
    )


def _token(word, box, page=0):
    return Token(word=word, bbox=BBox(*box), page=page)


def _document(doc_id, rows, pages=1, width=1000.0, height=1000.0):
    """``rows`` is a list of ``(page, [(word, box), ...])``; pages are square."""
    sentences = [
        Sentence([_token(w, box, page) for w, box in tokens], page=page)
        for page, tokens in rows
    ]
    return ResumeDocument(
        doc_id, [Page(n, width, height) for n in range(pages)], sentences
    )


#: Pinned digests of the generated documents (tiny seed 101, paper seed 102).
DOCUMENT_GOLDEN = [
    "7a6047df792eb14a2dad55443b4c2430fa1a25abe6458a4abafb92807e378ffe",
    "8b91cd98a0896a642dae5c589c08297dba2ae71046356ae3f2bd3dc125ff5d03",
    "4cce913b963e129f19d1af621b42029c504bffc35de40613394a778a96d53b65",
    "d013e48912889c383cf6c56a2de1a33456bb424b1811493172d21597f3a6790a",
    "1676756ee6b25142822e5e949508544d7e7af901a3331963ecd3502550e3418c",
]

#: Pinned digests of NER batches over the gold blocks of the same documents.
NER_GOLDEN = [
    "d742c1d7053be80589ae150a851b846a26c5205a63d3c4a947b17fbb5ad0ed4a",
    "033f1248c5de414aab1e59fcce443d37e4a7fafefbe49fe7eebaa9eddc2cdb14",
    "cb8a5cd81e3f999ca3379b8ed99251827082381b3162b512f9aa4c87976b9eca",
]

EDGE_GOLDEN = {
    "coordinate_1000": "8d7f4c8a868b715dca603787e0fd9d41f8d5636dff201701f14298bc7482574b",
    "page_16": "c1f707fdc683fab5f143adc13854d2c1954a79db7969d89e97224e184854986b",
    "sentence_cut": "f9ecdda53e14f124a0c89f63a601a2e1226c1dc7ca715d7e49772c1f440d1779",
    "zero_width": "7835746cbff19ed3bb517fc0270cd75f8c47d69d5b1fbd767a864a8480acf6eb",
    "ner_max_pieces": "1c21a2fb710cdc9456e18b24169b39792c87d7bbbc1ad4cdaafa39c2e9509035",
    "ner_max_words": "1e77888e4a8485ac0e8ea7ea4e4ce5f25071e08dc5671d0dee6a7e5918d05071",
    "ner_shapes": "ccec40da1042ac11ed259abcc1d93f0b26f591595b5da59e475425d87742afdc",
}


class TestDocumentFeaturesGolden:
    def test_generated_documents(self, documents, tokenizer):
        featurizer = Featurizer(tokenizer, _config(tokenizer), cache_size=0)
        got = [digest(featurizer.featurize(d)) for d in documents]
        assert got == DOCUMENT_GOLDEN

    def test_coordinate_at_1000_clamps_to_last_bucket(self, tokenizer):
        # 100 buckets of width 10: x1 = y1 = 1000 would index bucket 100.
        config = _config(tokenizer, layout_buckets=100)
        doc = _document("edge-coord", [
            (0, [("python", (0, 0, 1000, 1000)), ("java", (990, 995, 1000, 1000))]),
        ])
        features = Featurizer(tokenizer, config, cache_size=0).featurize(doc)
        spatial = features.token_layout[0, : int(features.token_mask[0].sum()), :6]
        assert spatial.max() == 99
        np.testing.assert_array_equal(features.sentence_layout[0, :6],
                                      [0, 0, 99, 99, 99, 99])
        assert digest(features) == EDGE_GOLDEN["coordinate_1000"]

    def test_page_index_past_sixteen_clamps(self, tokenizer):
        rows = [(page, [("python", (10, 10 + page, 200, 40 + page))])
                for page in (0, 15, 16, 20)]
        doc = _document("edge-page", rows, pages=21)
        features = Featurizer(tokenizer, _config(tokenizer), cache_size=0).featurize(doc)
        np.testing.assert_array_equal(features.sentence_layout[:, 6], [0, 15, 15, 15])
        np.testing.assert_array_equal(features.token_layout[:, :2, 6],
                                      [[0, 0], [15, 15], [15, 15], [15, 15]])
        assert digest(features) == EDGE_GOLDEN["page_16"]

    def test_sentence_cut_at_max_sentence_tokens(self, tokenizer):
        config = _config(tokenizer, max_sentence_tokens=6)
        words = ["python", "java", "engineer", "university", "manager",
                 "data", "systems", "beijing"]
        row = [(w, (20 * i, 100, 20 * i + 18, 112)) for i, w in enumerate(words)]
        doc = _document("edge-cut", [(0, row), (0, row[:2])])
        features = Featurizer(tokenizer, config, cache_size=0).featurize(doc)
        assert features.max_tokens == 6
        assert features.token_mask[0].sum() == 6
        assert digest(features) == EDGE_GOLDEN["sentence_cut"]

    def test_zero_width_box(self, tokenizer):
        doc = _document("edge-zero", [
            (0, [("python", (300, 300, 300, 300)), ("java", (300, 300, 300, 320))]),
            (0, [("data", (0, 0, 0, 0))]),
        ])
        features = Featurizer(tokenizer, _config(tokenizer), cache_size=0).featurize(doc)
        np.testing.assert_array_equal(features.sentence_layout[1, :6], [0] * 6)
        assert features.token_layout[0, 1, 4] == 0  # width bucket of 'python'
        assert digest(features) == EDGE_GOLDEN["zero_width"]


class TestNerFeaturesGolden:
    def test_generated_blocks(self, documents, tokenizer):
        examples = extract_block_examples(documents)
        featurizer = NerFeaturizer(tokenizer)
        got = [
            digest(featurizer.featurize(examples[start : start + 10]))
            for start in range(0, 30, 10)
        ]
        assert got == NER_GOLDEN

    def test_block_cut_at_max_pieces(self, tokenizer):
        featurizer = NerFeaturizer(tokenizer, max_words=96, max_pieces=10)
        words = ["engineer", "zzqx@mail.com", "university", "2019-2021",
                 "beijing", "python", "manager", "java"]
        example = NerExample(words, ["O"] * len(words), "WorkExp")
        short = NerExample(["java"], ["O"], "SkillDes")
        features = featurizer.featurize([example, short])
        assert features.piece_mask[0].sum() <= 10
        assert features.word_mask[0].sum() < len(words)
        assert digest(features) == EDGE_GOLDEN["ner_max_pieces"]

    def test_block_cut_at_max_words(self, tokenizer):
        featurizer = NerFeaturizer(tokenizer, max_words=4, max_pieces=192)
        words = ["john", "smith", "python", "java", "data", "systems"]
        example = NerExample(words, ["B-Name", "I-Name"] + ["O"] * 4, "PInfo")
        features = featurizer.featurize([example])
        assert features.word_mask.shape == (1, 4)
        assert features.word_mask.sum() == 4
        assert digest(features) == EDGE_GOLDEN["ner_max_words"]

    def test_surface_shapes(self, tokenizer):
        # Digits, '@', punctuation, a long OOV word and an empty word.
        words = ["13800138000", "a@b.cn", "2019-2021", "x" * 40, "", "Python", "3a"]
        example = NerExample(words, ["O"] * len(words), "PInfo")
        features = NerFeaturizer(tokenizer).featurize([example])
        assert features.piece_shape[0, 0].sum() == 0  # [CLS] has no shape
        assert digest(features) == EDGE_GOLDEN["ner_shapes"]
