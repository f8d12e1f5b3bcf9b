"""Seeded generator of Gutenberg-like plain text.

The paper's testbed processes 15 GB of Project Gutenberg plain text.  With
no network access we substitute a synthetic corpus whose statistics match
what the three jobs care about:

* a Zipf-distributed vocabulary (WordCount's combiner effectiveness and
  shuffle volume depend on word-frequency skew),
* line lengths of a few words to a dozen (Grep emits whole lines),
* a heavy-tailed line distribution with many repeated lines (LineCount
  shuffles more data than Grep because popular lines repeat).

Everything is driven by a named seed, so corpora are reproducible.
"""

from __future__ import annotations

import random

#: Letters used to synthesise word shapes.
_VOWELS = "aeiou"
_CONSONANTS = "bcdfghjklmnprstvwz"

#: A core of real common words keeps the text looking like prose and gives
#: Grep plausible targets.
COMMON_WORDS = (
    "the of and to a in that it was he for on are as with his they at be this "
    "from have or by one had not but what all were when we there can an your "
    "which their said if do will each about how up out them then she many some "
    "so these would other into has more her two like him see time could no make "
    "than first been its who now people my made over did down only way find use "
    "may water long little very after words called just where most know"
).split()


def _synthesise_word(rng: random.Random) -> str:
    """Make a pronounceable pseudo-word of 2-4 syllables."""
    syllables = rng.randint(2, 4)
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_CONSONANTS))
        parts.append(rng.choice(_VOWELS))
        if rng.random() < 0.3:
            parts.append(rng.choice(_CONSONANTS))
    return "".join(parts)


def build_vocabulary(size: int, seed: int) -> list[str]:
    """A vocabulary of ``size`` words: the common core plus synthetic words."""
    if size <= 0:
        raise ValueError(f"vocabulary size must be positive, got {size}")
    rng = random.Random(seed)
    vocabulary = list(COMMON_WORDS[: min(size, len(COMMON_WORDS))])
    seen = set(vocabulary)
    while len(vocabulary) < size:
        word = _synthesise_word(rng)
        if word not in seen:
            seen.add(word)
            vocabulary.append(word)
    return vocabulary


#: Exponent of the vocabulary's Zipf law.
ZIPF_EXPONENT = 1.1

#: Share of lines drawn from the stock pool, and the pool's size.  85%
#: repetition keeps LineCount's combined map output a few times
#: WordCount's -- the paper's relative shuffle ordering (Grep < WordCount <
#: LineCount) -- instead of shuffling nearly the whole input, which fully
#: unique lines would cause.
REPEATED_LINE_FRACTION = 0.85
STOCK_LINE_COUNT = 400


def _zipf_weights(size: int) -> list[float]:
    """Zipf-law sampling weights for ranks ``1..size``."""
    return [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, size + 1)]


def generate_corpus(num_bytes: int, seed: int = 0, vocabulary_size: int = 4000) -> bytes:
    """Generate approximately ``num_bytes`` of newline-separated prose.

    :data:`REPEATED_LINE_FRACTION` of lines are drawn from a pool of
    :data:`STOCK_LINE_COUNT` stock lines, giving LineCount a skewed
    line-frequency distribution.
    """
    if num_bytes <= 0:
        raise ValueError(f"corpus size must be positive, got {num_bytes}")
    rng = random.Random(seed)
    vocabulary = build_vocabulary(vocabulary_size, seed)
    weights = _zipf_weights(len(vocabulary))
    cumulative = list(_accumulate(weights))

    word_buffer: list[str] = []

    def next_words(count: int) -> list[str]:
        # Drawing words in large batches amortises random.choices' setup
        # cost, which dominates when lines are drawn one by one.
        while len(word_buffer) < count:
            word_buffer.extend(
                rng.choices(vocabulary, cum_weights=cumulative, k=max(4096, count))
            )
        taken = word_buffer[:count]
        del word_buffer[:count]
        return taken

    def fresh_line() -> str:
        return " ".join(next_words(rng.randint(4, 12)))

    stock_lines = [fresh_line() for _ in range(STOCK_LINE_COUNT)]
    chunks: list[str] = []
    total = 0
    while total < num_bytes:
        if rng.random() < REPEATED_LINE_FRACTION:
            line = rng.choice(stock_lines)
        else:
            line = fresh_line()
        chunks.append(line)
        total += len(line) + 1
    text = "\n".join(chunks) + "\n"
    return text.encode("ascii")[:num_bytes]


def _accumulate(values: list[float]) -> list[float]:
    """Running sums of ``values``."""
    sums: list[float] = []
    total = 0.0
    for value in values:
        total += value
        sums.append(total)
    return sums
