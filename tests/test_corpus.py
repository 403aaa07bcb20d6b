"""Corpus pipeline tests: cleaning rules, splits, stats, packing."""

import collections
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlm import bpe, corpus
from occlm.errors import ConfigError, DataError, EncodingError

DATA = pathlib.Path(__file__).parent / "data"


def test_collapsed_stop_then_split():
    assert list(corpus.clean(["a...b"])) == ["a.", "b"]


def test_slashes_removed():
    assert list(corpus.clean(["x / y \\ z"])) == ["x y z"]


def test_special_chars_stripped_keeps_allowed():
    out = list(corpus.clean(["Ke* a, 'tseba' - yes_no (ok)!"]))
    assert out == ["ke a, 'tseba' - yesno ok"]


def test_empty_lines_dropped():
    assert list(corpus.clean(["", "   ", "..."])) == ["."]
    assert list(corpus.clean(["", "   "])) == []


def test_golden_file():
    got = list(corpus.clean(corpus.read_lines(DATA / "raw_fixture.txt")))
    expected = (DATA / "clean_fixture.txt").read_text().splitlines()
    assert got == expected


def test_clean_idempotent_on_golden():
    once = (DATA / "clean_fixture.txt").read_text().splitlines()
    assert list(corpus.clean(once)) == once


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
def test_clean_idempotent_property(s):
    once = list(corpus.clean([s]))
    assert list(corpus.clean(once)) == once


def test_read_lines_reports_bad_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"fine line\n\xff\xfe broken\n")
    with pytest.raises(EncodingError) as exc:
        list(corpus.read_lines(p))
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


# ------------------------------------------------------------------ split


def test_split_sizes_10_lines():
    lines = [f"l{i}" for i in range(10)]
    train, valid, test = corpus.split(lines, corpus.SplitSpec(seed=1))
    assert (len(train), len(valid), len(test)) == (8, 1, 1)


def test_split_deterministic():
    lines = [f"l{i}" for i in range(23)]
    a = corpus.split(lines, corpus.SplitSpec(seed=5))
    b = corpus.split(lines, corpus.SplitSpec(seed=5))
    assert a == b
    c = corpus.split(lines, corpus.SplitSpec(seed=6))
    assert a != c


def test_split_too_few_lines():
    with pytest.raises(DataError):
        corpus.split(["a", "b"], corpus.SplitSpec())


def test_split_rejects_bad_fractions():
    with pytest.raises(ConfigError, match="train_frac \\+ valid_frac"):
        corpus.split(["a"] * 5, corpus.SplitSpec(0.8, 0.3))
    with pytest.raises(ConfigError):
        corpus.split(["a"] * 5, corpus.SplitSpec(1.2, -0.1))


def test_split_test_takes_the_rest():
    lines = [f"l{i}" for i in range(10)]
    train, valid, test = corpus.split(lines, corpus.SplitSpec(0.5, 0.2))
    assert (len(train), len(valid), len(test)) == (5, 2, 3)
    assert corpus.split(lines, corpus.SplitSpec(0.6, 0.4))[2] == []


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 60))
def test_split_union_is_input_multiset(seed, n):
    rng = np.random.default_rng(seed)
    lines = [f"s{int(i)}" for i in rng.integers(0, 10, size=n)]
    train, valid, test = corpus.split(lines, corpus.SplitSpec(seed=seed))
    assert collections.Counter(train + valid + test) == collections.Counter(lines)
    assert len(train) + len(valid) + len(test) == n


# ------------------------------------------------------------------ stats


def test_stats_empty_split():
    cs = corpus.stats({"train": []})
    assert cs.per_split["train"].sentences == 0
    assert cs.per_split["train"].tokens == 0
    assert cs.per_split["train"].unique_tokens == 0


def test_stats_whitespace_baseline():
    cs = corpus.stats({"train": ["ke a tseba"]})
    s = cs.per_split["train"]
    assert (s.sentences, s.tokens, s.unique_tokens) == (1, 3, 3)


def test_stats_totals_are_sums():
    cs = corpus.stats({"a": ["x y", "x"], "b": ["y z z"]})
    assert cs.sentences == 3
    assert cs.tokens == cs.per_split["a"].tokens + cs.per_split["b"].tokens
    assert cs.unique_tokens == 3  # union of {x,y} and {y,z}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stats_union_unique_dominates_each_split(seed):
    rng = np.random.default_rng(seed)
    mk = lambda: [
        " ".join(f"w{int(x)}" for x in rng.integers(0, 20, size=rng.integers(1, 8)))
        for _ in range(int(rng.integers(1, 10)))
    ]
    cs = corpus.stats({"train": mk(), "valid": mk()})
    assert cs.unique_tokens >= max(
        cs.per_split["train"].unique_tokens, cs.per_split["valid"].unique_tokens
    )
    assert cs.unique_tokens <= cs.tokens or cs.tokens == 0


def test_stats_json_and_table_render():
    cs = corpus.stats({"train": ["ke a", "a b"], "test": ["c"]})
    table = corpus.render_stats_table(cs)
    assert "#Unique tokens" in table and "train" in table and "total" in table
    js = corpus.stats_to_json(cs)
    assert '"unique_tokens"' in js


# ------------------------------------------------------------------- pack


@pytest.fixture(scope="module")
def vocab():
    lines = ["ke a tseba gore o tla re hwetsa mo lefelong"] * 30
    return bpe.train_bpe(lines, target_size=280)


def test_pack_exact_window_no_padding(vocab):
    line = "ke a tseba"
    n_ids = len(bpe.encode(vocab, line).ids)
    block = n_ids  # ids + eot == block+1
    ds = corpus.pack([line], vocab, block)
    assert len(ds) == 1
    assert not (ds.windows == vocab.specials.pad_id).any()
    assert ds.windows[0, -1] == vocab.specials.eot_id


def test_pack_empty_corpus(vocab):
    ds = corpus.pack([], vocab, 8)
    assert len(ds) == 0 and ds.n_stream_tokens == 0


def test_pack_rejects_small_block(vocab):
    with pytest.raises(ConfigError):
        corpus.pack(["ke"], vocab, 1)


def _unpack(ds):
    """Inverse of pack: drop pads and return the concatenated id stream."""
    return [int(i) for i in ds.windows.reshape(-1) if i != ds.pad_id]


def test_pack_unpack_inverse(vocab):
    lines = ["ke a tseba gore", "o tla re hwetsa", "mo lefelong"]
    stream = []
    for ln in lines:
        stream.extend(bpe.encode(vocab, ln).ids)
        stream.append(vocab.specials.eot_id)
    ds = corpus.pack(lines, vocab, 7)
    assert _unpack(ds) == stream
    assert ds.n_stream_tokens == len(stream)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_pack_conserves_tokens(vocab, seed, block):
    rng = np.random.default_rng(seed)
    pool = ["ke", "a", "tseba", "gore", "o", "tla"]
    lines = [
        " ".join(rng.choice(pool, size=int(rng.integers(1, 6))))
        for _ in range(int(rng.integers(1, 8)))
    ]
    ds = corpus.pack(lines, vocab, block)
    n_non_pad = int((ds.windows != ds.pad_id).sum())
    assert n_non_pad == ds.n_stream_tokens
    stream = []
    for ln in lines:
        stream.extend(bpe.encode(vocab, ln).ids)
        stream.append(vocab.specials.eot_id)
    assert _unpack(ds) == stream


def test_pack_batch_shapes_and_mask(vocab):
    ds = corpus.pack(["ke a tseba gore o tla re hwetsa"], vocab, 4)
    x, y, ignore = ds.batch(range(len(ds)))
    assert x.shape == y.shape == ignore.shape == (len(ds), 4)
    np.testing.assert_array_equal(x[:, 1:], y[:, :-1])
    assert ignore.dtype == bool
    # padded tail targets are flagged
    assert ignore.sum() == (ds.windows[:, 1:] == ds.pad_id).sum()
