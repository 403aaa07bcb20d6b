"""Tokenizer tests: reference-trainer oracle, round trips, file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlm import bpe
from occlm.errors import ConfigError, DataError, TokenIndexError

WORDS = [
    "ke", "a", "tseba", "gore", "o", "tla", "re", "hwetsa", "mo", "lefelong",
    "la", "rena", "bana", "ba", "sekolo", "ga", "se", "ithute", "polelo",
    "ya", "sepedi", "le", "dipuku", "tsa", "bona", "monna", "mosadi",
]


def seed_corpus(n_lines=1000, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        k = int(rng.integers(3, 9))
        lines.append(" ".join(rng.choice(WORDS, size=k)))
    return lines


def reference_trainer(lines, n_merges):
    """Independent naive BPE: flat token lists, full recount every round."""
    words = {}
    for line in lines:
        for w in bpe.PRETOKEN_RE.findall(line.lower()):
            syms = tuple(bpe.BYTE_TO_UNICODE[b] for b in w.encode("utf-8"))
            words[syms] = words.get(syms, 0) + 1
    merges = []
    made = set()
    for _ in range(n_merges):
        counts = {}
        for syms, freq in words.items():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + freq
        candidates = [
            (-c, p) for p, c in counts.items() if c >= 2 and p[0] + p[1] not in made
        ]
        if not candidates:
            break
        _, pair = min(candidates)
        merges.append(pair)
        made.add(pair[0] + pair[1])
        new_words = {}
        for syms, freq in words.items():
            out = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == pair:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            key = tuple(out)
            new_words[key] = new_words.get(key, 0) + freq
        words = new_words
    return merges


def test_first_merge_single_dominant_pair():
    v = bpe.train_bpe(["aaaa aaaa"], target_size=260)
    assert v.merges[0] == ("a", "a")


def test_merge_list_matches_reference_trainer():
    lines = seed_corpus()
    v = bpe.train_bpe(lines, target_size=256 + 3 + 60)
    ref = reference_trainer(lines, 60)
    assert v.merges == ref


def test_any_utf8_encodes_without_unknowns():
    v = bpe.train_bpe(["ke a tseba"], target_size=300)
    for text in ["šatše ŠOŠA", "日本語", "emoji 🙂 mix", "tab\tand\nnewline"]:
        enc = bpe.encode(v, text)
        assert all(i in v.id_to_token for i in enc.ids)
        assert bpe.decode(v, enc.ids) == bpe.normalize(text)


def test_empty_corpus_raises():
    with pytest.raises(DataError):
        bpe.train_bpe([], target_size=300)


def test_target_size_too_small_raises():
    with pytest.raises(ConfigError):
        bpe.train_bpe(["abc"], target_size=259)


def test_normalize_lowercases():
    assert bpe.normalize("Moranang KE") == "moranang ke"


def test_normalize_idempotent_fixed_point():
    assert bpe.normalize("already lower") == "already lower"


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=80))
def test_normalize_idempotent_property(s):
    assert bpe.normalize(bpe.normalize(s)) == bpe.normalize(s)


@pytest.fixture(scope="module")
def vocab():
    return bpe.train_bpe(seed_corpus(300, seed=7), target_size=256 + 3 + 80)


def test_encode_empty_string(vocab):
    enc = bpe.encode(vocab, "")
    assert enc.ids == []


def test_encode_single_base_byte(vocab):
    enc = bpe.encode(vocab, "q")
    assert len(enc.ids) == 1
    assert vocab.id_to_token[enc.ids[0]] == "q"


def test_round_trip_corpus_lines(vocab):
    for line in seed_corpus(500, seed=11):
        enc = bpe.encode(vocab, line)
        assert bpe.decode(vocab, enc.ids) == bpe.normalize(line)


def test_decode_empty(vocab):
    assert bpe.decode(vocab, []) == ""


def test_decode_unknown_id_raises(vocab):
    with pytest.raises(TokenIndexError):
        bpe.decode(vocab, [vocab.size + 5])


def test_decode_renders_specials(vocab):
    ids = [vocab.specials.eot_id]
    assert bpe.decode(vocab, ids) == bpe.EOT_TOKEN


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_ids_decode_and_reencode_stably(vocab, seed):
    rng = np.random.default_rng(seed)
    ids = [int(i) for i in rng.integers(3, vocab.size, size=12)]
    text = bpe.decode(vocab, ids)
    again = bpe.encode(vocab, text)
    assert all(i in vocab.id_to_token for i in again.ids)
    # re-encoding the (normalized) decoded text is a fixed point
    norm = bpe.normalize(text)
    assert bpe.decode(vocab, again.ids) == norm
    assert bpe.encode(vocab, norm).ids == again.ids


def test_monotone_coverage():
    lines = seed_corpus(300, seed=3)
    small = bpe.train_bpe(lines, target_size=256 + 3 + 20)
    large = bpe.train_bpe(lines, target_size=256 + 3 + 60)
    assert large.merges[:20] == small.merges
    probe = seed_corpus(50, seed=9)
    n_small = sum(len(bpe.encode(small, ln).ids) for ln in probe)
    n_large = sum(len(bpe.encode(large, ln).ids) for ln in probe)
    assert n_large <= n_small


def test_vocab_file_round_trip_and_determinism(tmp_path, vocab):
    p1 = tmp_path / "a.vocab"
    p2 = tmp_path / "b.vocab"
    bpe.save_vocab(vocab, p1)
    bpe.save_vocab(vocab, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = bpe.load_vocab(p1)
    assert loaded.token_to_id == vocab.token_to_id
    assert loaded.merges == vocab.merges
    assert loaded.specials == vocab.specials
    assert loaded.target_size == vocab.target_size
    line = "ke a tseba gore"
    assert bpe.encode(loaded, line).ids == bpe.encode(vocab, line).ids


def test_retrain_is_deterministic(tmp_path):
    lines = seed_corpus(200, seed=5)
    a = bpe.train_bpe(lines, target_size=300)
    b = bpe.train_bpe(list(lines), target_size=300)
    pa, pb = tmp_path / "a", tmp_path / "b"
    bpe.save_vocab(a, pa)
    bpe.save_vocab(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.vocab"
    p.write_text("not a vocab\n")
    with pytest.raises(DataError):
        bpe.load_vocab(p)


@pytest.mark.parametrize("section, bad", [
    ("[specials]", "pad\tzero\t<pad>"),
    ("[target_size]", "big"),
    ("[tokens]", "abc"),
    ("[tokens]", "abc\t7x"),
    ("[merges]", "a\tb\tc"),
])
def test_load_malformed_line_names_path_and_line(tmp_path, vocab, section, bad):
    good = tmp_path / "good.vocab"
    bpe.save_vocab(vocab, good)
    lines = good.read_text(encoding="utf-8").splitlines()
    at = lines.index(section) + 1
    lines.insert(at, bad)
    p = tmp_path / "bad.vocab"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"line {at + 1}\b") as exc:
        bpe.load_vocab(p)
    assert str(p) in str(exc.value)


def test_specials_never_produced_by_merges(vocab):
    for a, b in vocab.merges:
        assert (a + b) not in bpe.DEFAULT_SPECIALS
    assert vocab.specials.as_tuple() == (0, 1, 2)
    assert [vocab.id_to_token[i] for i in range(3)] == list(bpe.DEFAULT_SPECIALS)
