"""Tests for normalisation, vocabulary and WordPiece tokenisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    CLS,
    MASK,
    PAD,
    SEP,
    UNK,
    Vocab,
    WordPieceTokenizer,
    normalize_text,
    pretokenize,
    train_wordpiece,
)


class TestNormalize:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_text("  Hello\t WORLD \n") == "hello world"

    def test_nfkc(self):
        assert normalize_text("ｆｕｌｌｗｉｄｔｈ") == "fullwidth"

    def test_pretokenize_splits_punctuation(self):
        assert pretokenize("alice@example.com") == [
            "alice", "@", "example", ".", "com",
        ]

    def test_pretokenize_empty(self):
        assert pretokenize("   ") == []

    def test_pretokenize_dates(self):
        assert pretokenize("2019.07-2021.06") == [
            "2019", ".", "07", "-", "2021", ".", "06",
        ]


class TestVocab:
    def test_special_tokens_first(self):
        vocab = Vocab(["apple", "pear"])
        assert vocab.pad_id == 0
        assert vocab.id_to_token(0) == PAD
        assert {UNK, CLS, SEP, MASK} <= set(vocab.tokens())

    def test_unknown_maps_to_unk(self):
        vocab = Vocab(["apple"])
        assert vocab.token_to_id("zebra") == vocab.unk_id

    def test_duplicates_ignored(self):
        vocab = Vocab(["a", "a", "b"])
        assert len(vocab) == 5 + 2

    def test_encode_decode_roundtrip(self):
        vocab = Vocab(["x", "y"])
        ids = vocab.encode(["x", "y", "x"])
        assert vocab.decode(ids) == ["x", "y", "x"]

    def test_save_load(self, tmp_path):
        vocab = Vocab(["alpha", "beta"])
        path = str(tmp_path / "vocab.json")
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.tokens() == vocab.tokens()

    def test_load_rejects_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["a", "b"]')
        with pytest.raises(ValueError):
            Vocab.load(str(path))


CORPUS = [
    "software engineer at acme corporation",
    "senior software engineer",
    "engineering college of software",
    "software development engineer in test",
    "the engineer wrote software for engineering teams",
]


class TestTrainWordpiece:
    def test_learns_frequent_merges(self):
        vocab = train_wordpiece(CORPUS, vocab_size=200, min_frequency=2)
        tokenizer = WordPieceTokenizer(vocab)
        # 'software' appears 5 times: should become few pieces.
        assert len(tokenizer.tokenize_word("software")) <= 3

    def test_vocab_size_respected(self):
        vocab = train_wordpiece(CORPUS, vocab_size=50, min_frequency=1)
        assert len(vocab) <= 50 + 5  # +5 specials

    def test_alphabet_always_included(self):
        vocab = train_wordpiece(["abc"], vocab_size=10, min_frequency=100)
        assert "a" in vocab
        assert "##b" in vocab
        assert "##c" in vocab


class TestWordPieceTokenizer:
    @pytest.fixture(scope="class")
    def tokenizer(self):
        return WordPieceTokenizer.train(CORPUS, vocab_size=300, min_frequency=1)

    def test_known_words_never_unk(self, tokenizer):
        for word in "software engineer acme".split():
            assert UNK not in tokenizer.tokenize_word(word)

    def test_unknown_char_gives_unk(self, tokenizer):
        assert tokenizer.tokenize_word("日本語") == [UNK]

    def test_continuation_markers(self, tokenizer):
        pieces = tokenizer.tokenize_word("engineering")
        assert all(p.startswith("##") for p in pieces[1:])
        assert not pieces[0].startswith("##")

    def test_roundtrip_join(self, tokenizer):
        pieces = tokenizer.tokenize_word("software")
        joined = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert joined == "software"

    def test_encode_returns_ids(self, tokenizer):
        ids = tokenizer.encode("software engineer")
        assert all(isinstance(i, int) for i in ids)
        assert tokenizer.vocab.unk_id not in ids

    def test_decode_inverse(self, tokenizer):
        ids = tokenizer.encode("software engineer")
        assert tokenizer.decode(ids) == "software engineer"

    def test_overlong_word_is_unk(self, tokenizer):
        assert tokenizer.tokenize_word("x" * 100) == [UNK]

    def test_punctuated_word_falls_back_to_chunks(self):
        tok = WordPieceTokenizer.train(
            ["call 892 384 2824 in 2019 07 now"], vocab_size=100, min_frequency=1
        )
        pieces = tok.tokenize_word("2019.07")
        assert UNK not in pieces or pieces.count(UNK) < len(pieces)
        assert "2019" in pieces
        assert "07" in pieces

    def test_email_splits_into_chunks(self):
        tok = WordPieceTokenizer.train(
            ["jane doe example com now and then"], vocab_size=200, min_frequency=1
        )
        pieces = tok.tokenize_word("jane.doe@example.com")
        assert "jane" in pieces
        assert "example" in pieces

    def test_tokenize_word_cached(self, tokenizer):
        first = tokenizer.tokenize_word("software")
        second = tokenizer.tokenize_word("software")
        assert first == second
        assert first is not second  # caller-safe copies

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll",)), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_pieces_reconstruct_word(self, tokenizer, word):
        pieces = tokenizer.tokenize_word(word)
        if pieces == [UNK] or not word:
            return
        joined = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert joined == word


class TestWordIds:
    @pytest.fixture(scope="class")
    def tokenizer(self):
        return WordPieceTokenizer.train(
            CORPUS + ["jane doe example com call 892 384 2824 in 2019 07"],
            vocab_size=300, min_frequency=1,
        )

    @staticmethod
    def _reference(tokenizer, word):
        return tuple(tokenizer.vocab.encode(tokenizer.tokenize_word(word.lower())))

    @pytest.mark.parametrize(
        "word",
        [
            "",
            "x" * 65,
            "Software" * 9,
            "jane.doe@example.com",
            "+1 (892) 384-2824",
            "892-384-2824",
            "2019.07",
            "SoftWare",
            "ENGINEER",
            "日本語",
        ],
    )
    def test_matches_encode_of_lowercased_pieces(self, tokenizer, word):
        ids = tokenizer.word_ids(word)
        assert ids == self._reference(tokenizer, word)
        assert tokenizer.word_ids(word) is ids  # served from the memo

    def test_over_max_word_chars_is_unk(self, tokenizer):
        word = "a" * (tokenizer.max_word_chars + 1)
        assert tokenizer.word_ids(word) == (tokenizer.vocab.unk_id,)

    def test_case_variants_share_pieces(self, tokenizer):
        assert tokenizer.word_ids("Acme") == tokenizer.word_ids("acme")

    def test_returns_tuple_so_memo_cannot_be_corrupted(self, tokenizer):
        ids = tokenizer.word_ids("engineer")
        assert isinstance(ids, tuple)
        with pytest.raises((TypeError, AttributeError)):
            ids.append(0)
        assert tokenizer.word_ids("engineer") == self._reference(
            tokenizer, "engineer"
        )

    def test_memos_stay_within_cap_and_refill_correctly(self, monkeypatch):
        from repro.text import wordpiece

        monkeypatch.setattr(wordpiece, "MEMO_CAP", 4)
        tokenizer = WordPieceTokenizer.train(CORPUS, vocab_size=300, min_frequency=1)
        words = [f"Word{i}" for i in range(11)] + ["software", "Word3"]
        for word in words:
            ids = tokenizer.word_ids(word)
            tokenizer.tokenize_word(word.lower())
            assert len(tokenizer._ids) <= 4
            assert len(tokenizer._cache) <= 4
            assert ids == self._reference(tokenizer, word)
        # The memos were cleared at least once and still serve hits.
        assert tokenizer.word_ids("Word3") is tokenizer.word_ids("Word3")

    @given(st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_reference(self, tokenizer, word):
        ids = tokenizer.word_ids(word)
        assert isinstance(ids, tuple)
        assert ids == self._reference(tokenizer, word)
