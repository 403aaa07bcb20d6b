"""Byte-level BPE tokenizer with lowercase normalization.

The base alphabet is all 256 byte values (mapped to printable unicode
symbols so vocab files stay readable), so any UTF-8 input is encodable
with zero unknown tokens. Merges are learned greedily by pair frequency,
ties broken by the lexicographically smaller pair. Whitespace is carried
as a word-initial space marker folded into tokens, which keeps
detokenization exact.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from . import artifacts
from .errors import ConfigError, DataError, EncodingError, TokenIndexError

# each word grabs the single space before it; other whitespace runs stand alone
PRETOKEN_RE = re.compile(r" ?\S+|\s+(?!\S)|\s+")

PAD_TOKEN = "<|pad|>"
OCC_TOKEN = "<|occ|>"
EOT_TOKEN = "<|endoftext|>"
DEFAULT_SPECIALS = (PAD_TOKEN, OCC_TOKEN, EOT_TOKEN)
# every vocabulary holds the specials at these ids, in DEFAULT_SPECIALS order
PAD_ID, OCC_ID, EOT_ID = SPECIAL_IDS = (0, 1, 2)
# the exact (name, id, token) rows of every vocab file's [specials] section
_SPECIAL_ROWS = tuple(zip(("pad", "occ", "eot"), SPECIAL_IDS, DEFAULT_SPECIALS))

_VOCAB_MAGIC = "#occlm-vocab v1"


def bytes_to_unicode():
    """Map every byte to a printable, non-space unicode character.

    Printable ASCII and two latin-1 ranges map to themselves; everything
    else is shifted up past 255. Standard byte-level BPE alphabet.
    """
    bs = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return dict(zip(bs, (chr(c) for c in cs)))


BYTE_TO_UNICODE = bytes_to_unicode()
UNICODE_TO_BYTE = {c: b for b, c in BYTE_TO_UNICODE.items()}


@dataclass
class Vocabulary:
    tokens: list          # index is the id: specials, bytes, merge results
    merges: list          # ordered (left, right) pairs; index is the rank
    target_size: int
    # derived from the fields above, so equality ignores them
    token_to_id: dict = field(init=False, repr=False, compare=False)
    _ranks: dict = field(init=False, repr=False, compare=False)
    _word_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}

    @property
    def size(self):
        return len(self.tokens)

    def check(self):
        """Validate the structural invariants; raises DataError on breach."""
        if len(self.token_to_id) != len(self.tokens):
            # token_to_id keeps a repeated token's last id
            i, tok = next((i, t) for i, t in enumerate(self.tokens)
                          if self.token_to_id[t] != i)
            raise DataError(f"token {tok!r} is listed twice, at ids {i} "
                            f"and {self.token_to_id[tok]}")
        if len(self.tokens) > self.target_size:
            raise DataError("vocabulary exceeds its target size")
        if len(set(self.merges)) != len(self.merges):
            raise DataError("duplicate merge rule")
        # encode looks up every byte symbol and every merge result by token
        for tok in [*BYTE_TO_UNICODE.values(),
                    *(t for a, b in self.merges for t in (a, b, a + b))]:
            if tok not in self.token_to_id:
                raise DataError(f"a byte or merge names {tok!r}, not a token")
        # the byte symbols are tokens, so ids 0..2 exist
        for i in SPECIAL_IDS:
            if self.tokens[i] != DEFAULT_SPECIALS[i]:
                raise DataError(f"token {i} is {self.tokens[i]!r}, "
                                f"not the special {DEFAULT_SPECIALS[i]!r}")
        return self


@dataclass
class EncodedText:
    ids: list


def normalize(text):
    """Unicode-aware lowercase; cleaning lives in the corpus pipeline."""
    return text.lower()


def _word_symbols(word):
    return tuple(BYTE_TO_UNICODE[b] for b in word.encode("utf-8"))


def _merge_word(symbols, pair, merged):
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def train_bpe(corpus, target_size):
    """Learn a byte-level BPE vocabulary from an iterable of text lines.

    DEFAULT_SPECIALS take ids 0, 1 and 2 and the 256 byte symbols follow.
    Merging is greedy by pair frequency (ties: lexicographically smaller
    pair), skips a pair whose merged string is already a token, and stops at
    target_size or when no pair occurs twice.

    The pairs are counted incrementally (Sennrich et al. 2016): each distinct
    word is split into byte symbols once, and the pair counts and a map from
    each pair to the words that may hold it persist across merges. A merge
    re-merges and recounts only those words, and a lazy heap of
    (-count, pair) entries yields the next pair, skipping entries whose count
    is stale. The merges are exactly those of recounting every pair of every
    word before each merge.
    """
    base = len(DEFAULT_SPECIALS) + 256
    if target_size <= base:
        raise ConfigError(
            f"target_size {target_size} must exceed specials+bytes ({base})"
        )

    word_counts = Counter(itertools.chain.from_iterable(
        map(PRETOKEN_RE.findall, map(normalize, corpus))))
    if not word_counts:
        raise DataError("tokenizer training corpus is empty")

    token_to_id = {}
    for tok in DEFAULT_SPECIALS:
        token_to_id[tok] = len(token_to_id)
    for b in range(256):
        token_to_id[BYTE_TO_UNICODE[b]] = len(token_to_id)

    words = [_word_symbols(w) for w in word_counts]
    freqs = list(word_counts.values())
    counts = Counter()
    holders = defaultdict(set)  # pair -> indices of the words that may hold it
    for i, (symbols, freq) in enumerate(zip(words, freqs)):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
            holders[pair].add(i)
    # only pairs that occur at least twice are ever pushed
    heap = [(-c, pair) for pair, c in counts.items() if c >= 2]
    heapq.heapify(heap)

    merges = []
    while heap and len(token_to_id) < target_size:
        # highest frequency wins; ties go to the lexicographically smaller pair
        neg_count, pair = heapq.heappop(heap)
        merged = pair[0] + pair[1]
        if -neg_count != counts[pair] or merged in token_to_id:
            continue
        merges.append(pair)
        token_to_id[merged] = len(token_to_id)
        delta = Counter()
        for i in holders.pop(pair):
            symbols = words[i]
            new = _merge_word(symbols, pair, merged)
            if new == symbols:
                continue
            freq = freqs[i]
            for p in zip(symbols, symbols[1:]):
                delta[p] -= freq
            for p in zip(new, new[1:]):
                delta[p] += freq
                holders[p].add(i)
            words[i] = new
        for p, d in delta.items():
            if d:
                counts[p] += d
                if counts[p] >= 2:
                    heapq.heappush(heap, (-counts[p], p))

    return Vocabulary(tokens=list(token_to_id), merges=merges,
                      target_size=target_size).check()


def _apply_merges(v, symbols):
    ranks = v._ranks
    word = list(symbols)
    while len(word) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(word) - 1):
            r = ranks.get((word[i], word[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        pair = (word[best_i], word[best_i + 1])
        merged = pair[0] + pair[1]
        word = list(_merge_word(tuple(word), pair, merged))
    return tuple(word)


def encode(v, text):
    """Tokenize text (normalizing first) into an EncodedText.

    Each distinct word's ids are cached on the vocabulary; the returned ids
    are a fresh list, so a caller may change them.
    """
    norm = normalize(text)
    ids = []
    cache = v._word_cache
    for word in PRETOKEN_RE.findall(norm):
        word_ids = cache.get(word)
        if word_ids is None:
            word_ids = [v.token_to_id[t]
                        for t in _apply_merges(v, _word_symbols(word))]
            if len(cache) > 65536:
                cache.clear()
            cache[word] = word_ids
        ids += word_ids
    return EncodedText(ids=ids)


def decode(v, ids):
    """Invert encode. Specials render as their literal sentinel strings."""
    parts = []
    buf = []

    def flush():
        if buf:
            raw = bytes(UNICODE_TO_BYTE[c] for c in "".join(buf))
            parts.append(raw.decode("utf-8", errors="replace"))
            buf.clear()

    tokens = v.tokens
    for i in ids:
        i = int(i)
        if not 0 <= i < len(tokens):
            raise TokenIndexError(f"id {i} is not in the vocabulary")
        tok = tokens[i]
        if i in SPECIAL_IDS:
            flush()
            parts.append(tok)
        else:
            buf.append(tok)
    flush()
    return "".join(parts)


def save_vocab(v, path, run_id=None):
    """Write the three-section vocab file; byte-exact reproducible."""
    lines = [_VOCAB_MAGIC]
    if run_id is not None:
        lines.append(f"#run_id {run_id}")
    lines.append("[specials]")
    lines += [f"{name}\t{i}\t{tok}" for name, i, tok in _SPECIAL_ROWS]
    lines.append("[target_size]")
    lines.append(str(v.target_size))
    lines.append("[tokens]")
    lines += [f"{tok}\t{i}" for i, tok in enumerate(v.tokens)]
    lines.append("[merges]")
    for a, b in v.merges:
        lines.append(f"{a}\t{b}")
    artifacts.write_text(path, "\n".join(lines) + "\n")


def load_vocab(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"vocab file is not UTF-8: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != _VOCAB_MAGIC:
        raise DataError(f"not a vocab file: {path}")

    section = None
    specials = []
    tokens = []
    bad_id = None  # the first [tokens] line whose id is not its index
    merges = []
    target_size = None
    known = ("[specials]", "[target_size]", "[tokens]", "[merges]")
    for line_no, line in enumerate(lines[1:], start=2):
        # '#' starts a comment only in the preamble; '#' is a real token later
        if not line or (section is None and line.startswith("#")):
            continue
        # data lines always carry a tab; headers never do
        if line.startswith("[") and "\t" not in line:
            if line not in known:
                raise DataError(f"unknown vocab section {line!r}")
            section = line
            continue
        try:
            if section == "[specials]":
                name, sid, tok = line.split("\t")
                specials.append((name, int(sid), tok))
            elif section == "[target_size]":
                target_size = int(line)
            elif section == "[tokens]":
                tok, sid = line.rsplit("\t", 1)
                if int(sid) != len(tokens) and bad_id is None:
                    bad_id = (f"{path} line {line_no}: [tokens] id {int(sid)} "
                              f"is out of order; ids run 0..n-1, expected "
                              f"{len(tokens)}")
                tokens.append(tok)
            elif section == "[merges]":
                a, b = line.split("\t")
                merges.append((a, b))
            else:
                raise DataError(f"vocab line outside any section: {line!r}")
        except ValueError as exc:  # wrong field count or a non-integer id
            raise DataError(
                f"{path} line {line_no}: malformed {section} entry {line!r}"
            ) from exc
    if target_size is None:
        raise DataError(f"vocab file {path} is missing sections")
    if tuple(specials) != _SPECIAL_ROWS:
        raise DataError(f"{path}: [specials] must list exactly "
                        f"{_SPECIAL_ROWS}, got {tuple(specials)}")

    v = Vocabulary(tokens=tokens, merges=merges,
                   target_size=target_size).check()
    # raised after check(), so a missing byte or merge token is named first
    if bad_id is not None:
        raise DataError(bad_id)
    return v
