import numpy as np
import pytest

from difftts import textfront as tf


def test_build_vocab_sorted_assignment():
    vocab = tf.build_vocab(["ab", "ba"])
    assert vocab.symbols == ["a", "b"]


def test_build_vocab_dedupes():
    vocab = tf.build_vocab(["aaa", "aa"])
    assert vocab.symbols == ["a"]


def test_build_vocab_deterministic():
    corpus = ["hello", "world"]
    assert tf.build_vocab(corpus).symbols == tf.build_vocab(corpus).symbols


def test_build_vocab_empty_corpus():
    with pytest.raises(tf.VocabularyError):
        tf.build_vocab([])


def test_encode_basic():
    vocab = tf.Vocabulary(["a", "b"])
    seq = tf.encode_text("ab", vocab)
    np.testing.assert_array_equal(seq.ids, [2, 3])


def test_encode_refuses_each_unknown_symbol_by_position():
    vocab = tf.Vocabulary([" ", "a", "b"])
    with pytest.raises(tf.VocabularyError) as info:
        tf.encode_text("abz q", vocab)
    assert str(info.value) == ("symbol 'z' is not in the model's vocabulary (token 3 of 5); "
                               "symbol 'q' is not in the model's vocabulary (token 5 of 5)")
    with pytest.raises(tf.VocabularyError, match=r"^symbol 'x' .* \(token 2 of 3\)$"):
        tf.encode_text("k x t", tf.Vocabulary(["k", "t"]), mode="phonemes")


def test_encode_prephonemized():
    vocab = tf.Vocabulary(["a", "k", "t"])
    seq = tf.encode_text("k a t", vocab, mode="phonemes")
    assert len(seq) == 3
    np.testing.assert_array_equal(seq.ids, [3, 2, 4])


def test_encode_empty_after_normalization():
    vocab = tf.Vocabulary(["a"])
    with pytest.raises(tf.EmptyTextError):
        tf.encode_text("   ", vocab)


def test_encode_decode_round_trip():
    corpus = ["monotonic", "alignment"]
    vocab = tf.build_vocab(corpus)
    for text in corpus:
        seq = tf.encode_text(text, vocab)
        assert "".join(vocab.symbols[i - 2] for i in seq.ids) == text


def test_sequence_invariants():
    with pytest.raises(ValueError):
        tf.PhonemeSequence(np.array([2, tf.PAD_ID]))
    with pytest.raises(ValueError):
        tf.PhonemeSequence(np.array([], dtype=np.int64))
