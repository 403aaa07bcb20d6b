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


def _pick(rng, seq):
    # the bounded-integer draw Generator.choice makes for a 1-D population,
    # without choice's conversion of the whole list to an array on every call
    return seq[rng.integers(0, len(seq))]


def _mono_sentence(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return (f"the {_pick(rng, ADJS)} {_pick(rng, NOUNS)} "
                f"{_pick(rng, VERBS)} the {_pick(rng, NOUNS)} "
                f"{_pick(rng, PLACES)}.")
    if kind == 1:
        return (f"the {_pick(rng, NOUNS)} {_pick(rng, VERBS)} "
                f"the {_pick(rng, ADJS)} {_pick(rng, NOUNS)} "
                f"{_pick(rng, TIMES)}.")
    if kind == 2:
        return (f"{_pick(rng, TIMES)} the {_pick(rng, NOUNS)} and the "
                f"{_pick(rng, NOUNS)} {_pick(rng, VERBS)} the "
                f"{_pick(rng, NOUNS)}.")
    return (f"the {_pick(rng, NOUNS)} {_pick(rng, PLACES)} is "
            f"{_pick(rng, ADJS)} and {_pick(rng, ADJS)}.")


def _news_sentence(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return (f"{_pick(rng, NEWS_SOURCES)} {_pick(rng, NEWS_VERBS)} that "
                f"{_pick(rng, NEWS_EVENTS)}.")
    if kind == 1:
        return (f"{_pick(rng, NEWS_SOURCES)} {_pick(rng, PLACES)} "
                f"{_pick(rng, NEWS_VERBS)} that the {_pick(rng, ADJS)} "
                f"{_pick(rng, NOUNS)} {_pick(rng, VERBS)} the "
                f"{_pick(rng, NOUNS)}.")
    return (f"{_pick(rng, TIMES)} {_pick(rng, NEWS_SOURCES)} "
            f"{_pick(rng, NEWS_VERBS)} that {_pick(rng, NEWS_EVENTS)}.")


def make_sentences(n, seed=0, style="mono"):
    """n template sentences in the given style, reproducible per (seed, style);
    seed is an integer >= 0."""
    if style not in _STYLE_TAG:
        raise ConfigError(f"unknown demo style {style!r}")
    if n < 1:
        raise ConfigError(f"need at least one sentence, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"demo seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STYLE_TAG[style]]))
    make = _mono_sentence if style == "mono" else _news_sentence
    return [make(rng) for _ in range(n)]


def write_corpus(path, n, seed=0, style="mono"):
    lines = make_sentences(n, seed=seed, style=style)
    artifacts.write_text(path, "\n".join(lines) + "\n")
    return lines
