"""Byte-level BPE tokenizer with lowercase normalization.

The base alphabet is all 256 byte values (mapped to printable unicode
symbols so vocab files stay readable), so any UTF-8 input is encodable
with zero unknown tokens. Merges are learned greedily by pair frequency,
ties broken by the lexicographically smaller pair. Whitespace is carried
as a word-initial space marker folded into tokens, which keeps
detokenization exact.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from . import artifacts
from .errors import ConfigError, DataError, EncodingError, TokenIndexError

# each word grabs the single space before it; other whitespace runs stand alone
PRETOKEN_RE = re.compile(r" ?\S+|\s+(?!\S)|\s+")

PAD_TOKEN = "<|pad|>"
OCC_TOKEN = "<|occ|>"
EOT_TOKEN = "<|endoftext|>"
DEFAULT_SPECIALS = (PAD_TOKEN, OCC_TOKEN, EOT_TOKEN)

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


@dataclass(frozen=True)
class Specials:
    pad_id: int
    occ_id: int
    eot_id: int

    def as_tuple(self):
        return (self.pad_id, self.occ_id, self.eot_id)


@dataclass
class Vocabulary:
    token_to_id: dict
    id_to_token: dict
    merges: list          # ordered (left, right) pairs; index is the rank
    specials: Specials
    target_size: int
    _ranks: dict = field(default_factory=dict, repr=False)
    _word_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._ranks:
            self._ranks = {pair: i for i, pair in enumerate(self.merges)}

    @property
    def size(self):
        return len(self.token_to_id)

    def is_special(self, token_id):
        return token_id in self.specials.as_tuple()

    def check(self):
        """Validate the structural invariants; raises DataError on breach."""
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary maps are not the same size")
        for tok, i in self.token_to_id.items():
            if self.id_to_token.get(i) != tok:
                raise DataError(f"vocabulary maps disagree at id {i}")
        if len(set(self.specials.as_tuple())) != 3:
            raise DataError("special ids are not distinct")
        if len(self.token_to_id) > self.target_size:
            raise DataError("vocabulary exceeds its target size")
        if len(set(self.merges)) != len(self.merges):
            raise DataError("duplicate merge rule")
        # encode looks up every byte symbol and every merge result by token
        for tok in [*BYTE_TO_UNICODE.values(),
                    *(t for a, b in self.merges for t in (a, b, a + b))]:
            if tok not in self.token_to_id:
                raise DataError(f"a byte or merge names {tok!r}, not a token")
        if not set(self.specials.as_tuple()) <= self.id_to_token.keys():
            raise DataError(f"special ids {self.specials.as_tuple()} are not "
                            "all token ids")
        return self


@dataclass
class EncodedText:
    ids: list


def normalize(text):
    """Unicode-aware lowercase; cleaning lives in the corpus pipeline."""
    return text.lower()


def _word_symbols(word):
    return tuple(BYTE_TO_UNICODE[b] for b in word.encode("utf-8"))


def _count_pairs(word_freqs):
    counts = Counter()
    for symbols, freq in word_freqs.items():
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
    return counts


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
    pair) and stops at target_size or when no pair occurs twice.
    """
    base = len(DEFAULT_SPECIALS) + 256
    if target_size <= base:
        raise ConfigError(
            f"target_size {target_size} must exceed specials+bytes ({base})"
        )

    word_freqs = Counter()
    for line in corpus:
        for word in PRETOKEN_RE.findall(normalize(line)):
            word_freqs[_word_symbols(word)] += 1
    if not word_freqs:
        raise DataError("tokenizer training corpus is empty")

    token_to_id = {}
    for tok in DEFAULT_SPECIALS:
        token_to_id[tok] = len(token_to_id)
    for b in range(256):
        token_to_id[BYTE_TO_UNICODE[b]] = len(token_to_id)

    merges = []
    while len(token_to_id) < target_size:
        counts = _count_pairs(word_freqs)
        eligible = [
            pair
            for pair, freq in counts.items()
            if freq >= 2 and (pair[0] + pair[1]) not in token_to_id
        ]
        if not eligible:
            break
        # highest frequency wins; ties go to the lexicographically smaller pair
        pair = min(eligible, key=lambda p: (-counts[p], p))
        merged = pair[0] + pair[1]
        merges.append(pair)
        token_to_id[merged] = len(token_to_id)
        word_freqs = Counter(
            {
                (_merge_word(w, pair, merged) if pair[0] in w else w): f
                for w, f in word_freqs.items()
            }
        )

    id_to_token = {i: t for t, i in token_to_id.items()}
    return Vocabulary(
        token_to_id=token_to_id,
        id_to_token=id_to_token,
        merges=merges,
        specials=Specials(pad_id=0, occ_id=1, eot_id=2),
        target_size=target_size,
    ).check()


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
    """Tokenize text (normalizing first) into an EncodedText."""
    norm = normalize(text)
    ids = []
    cache = v._word_cache
    for word in PRETOKEN_RE.findall(norm):
        toks = cache.get(word)
        if toks is None:
            toks = _apply_merges(v, _word_symbols(word))
            if len(cache) > 65536:
                cache.clear()
            cache[word] = toks
        for tok in toks:
            ids.append(v.token_to_id[tok])
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

    for i in ids:
        tok = v.id_to_token.get(int(i))
        if tok is None:
            raise TokenIndexError(f"id {int(i)} is not in the vocabulary")
        if v.is_special(int(i)):
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
    names = ("pad", "occ", "eot")
    for name, sid in zip(names, v.specials.as_tuple()):
        lines.append(f"{name}\t{sid}\t{v.id_to_token[sid]}")
    lines.append("[target_size]")
    lines.append(str(v.target_size))
    lines.append("[tokens]")
    for i in sorted(v.id_to_token):
        lines.append(f"{v.id_to_token[i]}\t{i}")
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
    specials = {}
    token_to_id = {}
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
                specials[name] = (int(sid), tok)
            elif section == "[target_size]":
                target_size = int(line)
            elif section == "[tokens]":
                tok, sid = line.rsplit("\t", 1)
                token_to_id[tok] = int(sid)
            elif section == "[merges]":
                a, b = line.split("\t")
                merges.append((a, b))
            else:
                raise DataError(f"vocab line outside any section: {line!r}")
        except ValueError as exc:  # wrong field count or a non-integer id
            raise DataError(
                f"{path} line {line_no}: malformed {section} entry {line!r}"
            ) from exc
    if target_size is None or set(specials) != {"pad", "occ", "eot"}:
        raise DataError(f"vocab file {path} is missing sections")

    id_to_token = {i: t for t, i in token_to_id.items()}
    v = Vocabulary(
        token_to_id=token_to_id,
        id_to_token=id_to_token,
        merges=merges,
        specials=Specials(
            pad_id=specials["pad"][0],
            occ_id=specials["occ"][0],
            eot_id=specials["eot"][0],
        ),
        target_size=target_size,
    ).check()
    for name, (sid, tok) in specials.items():
        if v.id_to_token[sid] != tok:
            raise DataError(f"{path}: [specials] names {tok!r} for {name}, "
                            f"but token {sid} is {v.id_to_token[sid]!r}")
    return v
