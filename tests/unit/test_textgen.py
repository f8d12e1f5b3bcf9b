"""Unit tests for the synthetic corpus generator."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.testbed import textgen
from repro.testbed.textgen import COMMON_WORDS, build_vocabulary, generate_corpus


class TestVocabulary:
    def test_size_and_uniqueness(self):
        vocab = build_vocabulary(500, seed=1)
        assert len(vocab) == 500
        assert len(set(vocab)) == 500

    def test_common_core_first(self):
        vocab = build_vocabulary(200, seed=1)
        assert vocab[: len(COMMON_WORDS)] == list(COMMON_WORDS)

    def test_small_sizes(self):
        assert build_vocabulary(3, seed=1) == list(COMMON_WORDS[:3])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            build_vocabulary(0, seed=1)

    def test_deterministic(self):
        assert build_vocabulary(300, seed=7) == build_vocabulary(300, seed=7)


class TestCorpus:
    def test_size_approximate(self):
        corpus = generate_corpus(50_000, seed=1)
        assert len(corpus) <= 50_000
        assert len(corpus) > 45_000

    def test_ascii_lines(self):
        corpus = generate_corpus(10_000, seed=2)
        text = corpus.decode("ascii")
        lines = text.splitlines()
        assert len(lines) > 100
        for line in lines[:50]:
            assert 1 <= len(line.split()) <= 12

    def test_deterministic(self):
        assert generate_corpus(20_000, seed=3) == generate_corpus(20_000, seed=3)

    def test_seeds_differ(self):
        assert generate_corpus(20_000, seed=3) != generate_corpus(20_000, seed=4)

    def test_zipf_skew(self):
        """The most common word should dwarf the median word."""
        corpus = generate_corpus(100_000, seed=5)
        counts = Counter(corpus.decode().split())
        frequencies = sorted(counts.values(), reverse=True)
        assert frequencies[0] > 10 * frequencies[len(frequencies) // 2]

    def test_repeated_lines_present(self):
        corpus = generate_corpus(100_000, seed=6)
        lines = Counter(corpus.decode().splitlines())
        assert lines.most_common(1)[0][1] > 5

    def test_repetition_fraction_zero(self, monkeypatch):
        monkeypatch.setattr(textgen, "REPEATED_LINE_FRACTION", 0.0)
        corpus = generate_corpus(30_000, seed=7)
        lines = Counter(corpus.decode().splitlines())
        # Nearly all lines unique.
        assert lines.most_common(1)[0][1] <= 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_corpus(0)
