"""Deterministic synthetic corpora for demos and desk-scale experiments.

Two styles share a lexicon: "mono" is a broad general-domain stream used for
pretraining, "news" is a smaller reportive register used for fine-tuning.
Sentences are drawn from template grammars, so the text has enough structure
to be learnable at tiny model sizes while staying fully reproducible.
"""

from __future__ import annotations

import numpy as np

from . import artifacts
from .errors import ConfigError

NOUNS = [
    "farmer", "river", "market", "teacher", "child", "song", "harvest",
    "village", "road", "story", "rain", "cattle", "letter", "garden",
    "school", "fire", "mountain", "doctor", "bridge", "meeting",
]

VERBS = [
    "watches", "crosses", "remembers", "praises", "follows", "visits",
    "repairs", "gathers", "teaches", "carries", "describes", "protects",
]

ADJS = [
    "old", "quiet", "green", "distant", "busy", "careful", "bright",
    "heavy", "early", "patient",
]

PLACES = [
    "near the river", "in the village", "by the old road", "at the market",
    "behind the school", "under the mountain", "across the bridge",
]

TIMES = ["today", "every morning", "after the rain", "before sunset",
         "during the harvest", "at the meeting"]

# reportive register: shares the noun/verb stock, adds its own frame words
NEWS_SOURCES = ["officials", "reporters", "elders", "residents", "farmers"]
NEWS_VERBS = ["announced", "confirmed", "reported", "warned", "said"]
NEWS_EVENTS = [
    "the new bridge will open", "the harvest exceeded expectations",
    "the school will be repaired", "the road remains closed",
    "the market prices have fallen", "rain is expected this week",
]

_STYLE_TAG = {"mono": 0x40, "news": 0x41}


# each style's templates: the word lists a sentence draws from, in draw
# order, and the format the drawn words fill
_TEMPLATES = {
    "mono": [
        ((ADJS, NOUNS, VERBS, NOUNS, PLACES), "the {} {} {} the {} {}."),
        ((NOUNS, VERBS, ADJS, NOUNS, TIMES), "the {} {} the {} {} {}."),
        ((TIMES, NOUNS, NOUNS, VERBS, NOUNS), "{} the {} and the {} {} the {}."),
        ((NOUNS, PLACES, ADJS, ADJS), "the {} {} is {} and {}."),
    ],
    "news": [
        ((NEWS_SOURCES, NEWS_VERBS, NEWS_EVENTS), "{} {} that {}."),
        ((NEWS_SOURCES, PLACES, NEWS_VERBS, ADJS, NOUNS, VERBS, NOUNS),
         "{} {} {} that the {} {} {} the {}."),
        ((TIMES, NEWS_SOURCES, NEWS_VERBS, NEWS_EVENTS), "{} {} {} that {}."),
    ],
}


def make_sentences(n, seed=0, style="mono"):
    """n template sentences in the given style, reproducible per (seed, style);
    n is an integer >= 1 and seed an integer >= 0."""
    if style not in _STYLE_TAG:
        raise ConfigError(f"unknown demo style {style!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigError(f"demo n must be an integer >= 1, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"demo seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STYLE_TAG[style]]))
    # one bounded draw picks the template and one vector draw all its words:
    # the same 32-bit draws, in the same order, as one scalar draw per word
    templates = [(lists, np.array([len(words) for words in lists]), fmt)
                 for lists, fmt in _TEMPLATES[style]]
    sentences = []
    for _ in range(n):
        lists, sizes, fmt = templates[rng.integers(0, len(templates))]
        picks = rng.integers(0, sizes).tolist()
        sentences.append(fmt.format(*map(list.__getitem__, lists, picks)))
    return sentences


def write_corpus(path, n, seed=0, style="mono"):
    lines = make_sentences(n, seed=seed, style=style)
    artifacts.write_text(path, "\n".join(lines) + "\n")
    return lines
