"""Demo corpus tests: the sentence stream is pinned to the rng.choice builders."""

import hashlib

import numpy as np
import pytest

from occlm import demo
from occlm.demo import (ADJS, NEWS_EVENTS, NEWS_SOURCES, NEWS_VERBS, NOUNS,
                        PLACES, TIMES, VERBS)
from occlm.errors import ConfigError


# reference builders: one Generator.choice draw per slot
def _oracle_mono(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return (f"the {rng.choice(ADJS)} {rng.choice(NOUNS)} "
                f"{rng.choice(VERBS)} the {rng.choice(NOUNS)} "
                f"{rng.choice(PLACES)}.")
    if kind == 1:
        return (f"the {rng.choice(NOUNS)} {rng.choice(VERBS)} "
                f"the {rng.choice(ADJS)} {rng.choice(NOUNS)} "
                f"{rng.choice(TIMES)}.")
    if kind == 2:
        return (f"{rng.choice(TIMES)} the {rng.choice(NOUNS)} and the "
                f"{rng.choice(NOUNS)} {rng.choice(VERBS)} the "
                f"{rng.choice(NOUNS)}.")
    return (f"the {rng.choice(NOUNS)} {rng.choice(PLACES)} is "
            f"{rng.choice(ADJS)} and {rng.choice(ADJS)}.")


def _oracle_news(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return (f"{rng.choice(NEWS_SOURCES)} {rng.choice(NEWS_VERBS)} that "
                f"{rng.choice(NEWS_EVENTS)}.")
    if kind == 1:
        return (f"{rng.choice(NEWS_SOURCES)} {rng.choice(PLACES)} "
                f"{rng.choice(NEWS_VERBS)} that the {rng.choice(ADJS)} "
                f"{rng.choice(NOUNS)} {rng.choice(VERBS)} the "
                f"{rng.choice(NOUNS)}.")
    return (f"{rng.choice(TIMES)} {rng.choice(NEWS_SOURCES)} "
            f"{rng.choice(NEWS_VERBS)} that {rng.choice(NEWS_EVENTS)}.")


def _oracle_sentences(n, seed, style):
    tag = {"mono": 0x40, "news": 0x41}[style]
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    make = _oracle_mono if style == "mono" else _oracle_news
    return [make(rng) for _ in range(n)]


@pytest.mark.parametrize("style", ["mono", "news"])
def test_sentences_equal_the_choice_oracle(style):
    for seed in range(50):
        for n in (1, 2, 17, 120):
            assert demo.make_sentences(n, seed=seed, style=style) == \
                _oracle_sentences(n, seed, style), (seed, n)


# sha256 of quickstart's two raw corpora, as write_corpus lays them out
@pytest.mark.parametrize("n,style,digest", [
    (4800, "mono",
     "92143eaaff6e81ab702e82ad86c21f99a5725845ee36e215c50639de7036bc94"),
    (800, "news",
     "8a075b8a8031bf3b257d141e4d8eb621c9091558b4b8865fa1e5814ff2b93c74"),
])
def test_quickstart_corpora_are_pinned(n, style, digest):
    text = "\n".join(demo.make_sentences(n, seed=0, style=style)) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_malformed_seed_is_a_config_error(tmp_path, seed):
    with pytest.raises(ConfigError, match="seed"):
        demo.make_sentences(3, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        demo.write_corpus(tmp_path / "raw.txt", 3, seed=seed)
    assert not (tmp_path / "raw.txt").exists()


def test_numpy_integer_seed_matches_int():
    assert demo.make_sentences(5, seed=np.int64(7)) == demo.make_sentences(5, seed=7)


@pytest.mark.parametrize("n", [0, -1, 2.5, True, "3", None])
def test_malformed_n_is_a_config_error(tmp_path, n):
    with pytest.raises(ConfigError, match="demo n "):
        demo.make_sentences(n)
    with pytest.raises(ConfigError, match="demo n "):
        demo.write_corpus(tmp_path / "raw.txt", n)
    assert not (tmp_path / "raw.txt").exists()


def test_numpy_integer_n_matches_int():
    assert demo.make_sentences(np.int64(5), seed=7) == demo.make_sentences(5, seed=7)
