"""Tests for layout templates, the resume generator and rendering."""

import numpy as np
import pytest

from repro.corpus import (
    ALL_TEMPLATES,
    ClassicTemplate,
    CompactTemplate,
    ContentConfig,
    ResumeGenerator,
    TwoColumnTemplate,
    VISUAL_DIM,
    ascii_page,
    render_page,
    sentence_visual_features,
)
from repro.corpus.content import plan_resume
from repro.corpus.templates import PAGE_HEIGHT, PAGE_WIDTH, word_width
from repro.docmodel import BLOCK_SCHEME, iob_to_spans


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTemplates:
    def test_word_width_monotonic(self):
        assert word_width("abcdef", 10) > word_width("ab", 10)
        assert word_width("abc", 14) > word_width("abc", 9)

    @pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
    def test_tokens_inside_page(self, template):
        lines = plan_resume(rng(1))
        tokens, pages = template.layout(lines, rng(2))
        assert tokens
        for token in tokens:
            assert 0 <= token.bbox.x0
            assert token.bbox.x1 <= PAGE_WIDTH + 1e-6
            assert 0 <= token.bbox.y0
            assert token.bbox.y1 <= PAGE_HEIGHT + 1e-6
            assert 1 <= token.page <= len(pages)

    def test_headers_bold_and_larger(self):
        lines = plan_resume(rng(3))
        tokens, _ = ClassicTemplate().layout(lines, rng(4))
        header_tokens = [t for t in tokens if t.block_tag == "Title"]
        body_tokens = [t for t in tokens if t.block_tag == "WorkExp"]
        assert all(t.bold for t in header_tokens)
        assert min(t.font_size for t in header_tokens) > max(
            t.font_size for t in body_tokens
        )

    def test_two_column_routes_sidebar(self):
        template = TwoColumnTemplate()
        lines = plan_resume(rng(5))
        tokens, _ = template.layout(lines, rng(6))
        split = template._columns()[1].x0
        pinfo_x = [t.bbox.x0 for t in tokens if t.block_tag == "PInfo"]
        work_x = [t.bbox.x0 for t in tokens if t.block_tag == "WorkExp"]
        assert max(pinfo_x) < split
        assert min(work_x) >= split

    def test_compact_uses_smaller_fonts(self):
        lines = plan_resume(rng(7))
        compact_tokens, _ = CompactTemplate().layout(lines, rng(8))
        classic_tokens, _ = ClassicTemplate().layout(lines, rng(8))
        assert max(t.font_size for t in compact_tokens) < max(
            t.font_size for t in classic_tokens
        )

    def test_long_content_paginated(self):
        lines = plan_resume(rng(9), ContentConfig.paper())
        _, pages = ClassicTemplate().layout(lines, rng(10))
        assert len(pages) >= 2


class TestResumeGenerator:
    def test_deterministic(self):
        a = ResumeGenerator(seed=42).batch(2)
        b = ResumeGenerator(seed=42).batch(2)
        assert [d.num_tokens for d in a] == [d.num_tokens for d in b]
        assert a[0].sentences[0].text == b[0].sentences[0].text

    def test_different_seeds_differ(self):
        a = ResumeGenerator(seed=1).batch(1)[0]
        b = ResumeGenerator(seed=2).batch(1)[0]
        assert a.sentences[0].text != b.sentences[0].text

    def test_gold_block_labels_valid_iob(self):
        doc = ResumeGenerator(seed=3).batch(1)[0]
        labels = doc.block_iob_labels(BLOCK_SCHEME)
        spans = iob_to_spans(labels, BLOCK_SCHEME)
        assert spans
        # Spans tile the labeled region without overlap by construction.
        for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_every_sentence_has_visual_features(self):
        doc = ResumeGenerator(seed=4).batch(1)[0]
        for sentence in doc.sentences:
            assert sentence.visual is not None
            assert len(sentence.visual) == VISUAL_DIM

    def test_entity_labels_well_formed(self):
        doc = ResumeGenerator(seed=5).batch(1)[0]
        for token in doc.tokens():
            label = token.entity_label
            assert label == "O" or label[:2] in ("B-", "I-")

    def test_stream_matches_batch(self):
        gen = ResumeGenerator(seed=6)
        streamed = [d.doc_id for d in gen.stream(3)]
        batched = [d.doc_id for d in gen.batch(3)]
        assert streamed == batched

    def test_name_is_first_sentence_with_big_font(self):
        doc = ResumeGenerator(seed=7).batch(1)[0]
        first = doc.sentences[0]
        assert first.mean_font_size >= 15.0
        tag, _ = first.majority_block()
        assert tag == "PInfo"


def _doc_fingerprint(document):
    return (
        document.doc_id,
        document.num_sentences,
        [s.text for s in document.sentences],
    )


class TestGenerateAt:
    def test_deterministic_in_seed_and_index(self):
        generator = ResumeGenerator(seed=3, content_config=ContentConfig.tiny())
        a = generator.generate_at(5)
        b = generator.generate_at(5)
        assert _doc_fingerprint(a) == _doc_fingerprint(b)

    def test_indices_draw_distinct_documents(self):
        generator = ResumeGenerator(seed=3, content_config=ContentConfig.tiny())
        a, b = generator.generate_at(0), generator.generate_at(1)
        assert a.doc_id != b.doc_id
        assert _doc_fingerprint(a) != _doc_fingerprint(b)

    def test_doc_id_uses_prefix_and_index(self):
        generator = ResumeGenerator(seed=3, content_config=ContentConfig.tiny())
        assert generator.generate_at(7, prefix="cv").doc_id == "cv-00007"


class TestRender:
    @pytest.fixture(scope="class")
    def doc(self):
        return ResumeGenerator(seed=8).batch(1)[0]

    def test_render_page_shape_and_ink(self, doc):
        grid = render_page(doc, 1, rows=50, cols=40)
        assert grid.shape == (50, 40)
        assert grid.sum() > 0
        assert grid.max() <= 4.0

    def test_bold_regions_darker(self, doc):
        grid = render_page(doc, 1)
        # The name banner (bold, large) should be among the darkest rows.
        name_box = doc.sentences[0].bbox
        page = doc.page(1)
        row = int(name_box.y0 / page.height * grid.shape[0])
        assert grid[row : row + 3].max() >= grid.mean()

    def test_visual_features_in_unit_range(self, doc):
        page = doc.page(1)
        for sentence in doc.sentences:
            feats = sentence_visual_features(sentence, page.width, page.height)
            assert feats.shape == (VISUAL_DIM,)
            assert np.all(feats >= 0.0) and np.all(feats <= 1.0 + 1e-9)

    def test_header_features_distinctive(self, doc):
        header = next(
            s for s in doc.sentences if s.majority_block()[0] == "Title"
        )
        body = next(
            s for s in doc.sentences if s.majority_block()[0] == "WorkExp"
        )
        page = doc.page(1)
        hf = sentence_visual_features(header, page.width, page.height)
        bf = sentence_visual_features(body, page.width, page.height)
        assert hf[0] > bf[0]  # font size
        assert hf[1] > bf[1]  # boldness

    def test_ascii_page_contains_tags(self, doc):
        art = ascii_page(doc, 1)
        assert "page 1" in art
        assert "PInfo" in art

    def test_ascii_page_with_predictions(self, doc):
        labels = ["X"] * doc.num_sentences
        art = ascii_page(doc, 1, labels=labels)
        assert "[       X]" in art
