"""Corpus cleaning, splitting, statistics, and packing into training windows."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import bpe
from .errors import ConfigError, DataError, EncodingError

# strip everything outside letters, digits, whitespace, . , ' -
# (\w covers letters and digits; underscore is excluded explicitly)
_SPECIAL_CHARS = re.compile(r"[^\w\s.,'\-]|_")
_REPEATED_STOPS = re.compile(r"\.{2,}")
_SPACES = re.compile(r"\s+")
_AFTER_STOP = re.compile(r"(?<=\.)")


@dataclass
class SplitSpec:
    """Train and validation fractions; the test split takes the rest."""

    train_frac: float = 0.8
    valid_frac: float = 0.1
    seed: int = 0

    def check(self):
        for name in ("train_frac", "valid_frac"):
            f = getattr(self, name)
            if not 0 <= f <= 1:
                raise ConfigError(f"{name} must lie in [0, 1], got {f}")
        if self.train_frac + self.valid_frac > 1:
            raise ConfigError(
                "train_frac + valid_frac must be <= 1, got "
                f"{self.train_frac + self.valid_frac}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def read_lines(path):
    """Yield decoded lines; invalid UTF-8 fails loudly with the line number."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield raw.decode("utf-8").rstrip("\n").rstrip("\r")
            except UnicodeDecodeError as exc:
                raise EncodingError(
                    f"invalid UTF-8 on line {line_no}: {exc}", line_no=line_no
                ) from exc


def clean(lines):
    """Apply the cleaning rules in fixed order, yielding cleaned sentences.

    Order: slashes -> special chars -> repeated full stops -> sentence split
    -> lowercase. Empty results are dropped.
    """
    for line in lines:
        line = line.replace("/", " ").replace("\\", " ")
        line = _SPECIAL_CHARS.sub("", line)
        line = _REPEATED_STOPS.sub(".", line)
        line = _SPACES.sub(" ", line).strip()
        for piece in _AFTER_STOP.split(line):
            piece = piece.strip().lower()
            if piece:
                yield piece


def split(lines, spec=None):
    """Seeded shuffle then contiguous partition into train/valid/test lists."""
    spec = (spec or SplitSpec()).check()
    lines = list(lines)
    n = len(lines)
    if n < 3:
        raise DataError(f"need at least 3 lines to split, got {n}")
    order = np.random.default_rng(spec.seed).permutation(n)
    shuffled = [lines[i] for i in order]
    n_train = int(n * spec.train_frac)
    n_valid = int(n * spec.valid_frac)
    train = shuffled[:n_train]
    valid = shuffled[n_train : n_train + n_valid]
    test = shuffled[n_train + n_valid :]
    return train, valid, test


@dataclass
class SplitStats:
    sentences: int
    tokens: int
    unique_tokens: int


@dataclass
class CorpusStats:
    per_split: dict
    sentences: int
    tokens: int
    unique_tokens: int


def stats(splits, vocab=None):
    """Tokenized counts per split plus totals.

    splits maps split name to its list of sentences. With a vocabulary the
    counts use BPE ids; otherwise a whitespace-token baseline. Total
    unique_tokens is the size of the union across splits.
    """
    per_split = {}
    all_unique = set()
    total_sentences = 0
    total_tokens = 0
    for name, lines in splits.items():
        uniq = set()
        n_tokens = 0
        for line in lines:
            toks = bpe.encode(vocab, line).ids if vocab else line.split()
            n_tokens += len(toks)
            uniq.update(toks)
        per_split[name] = SplitStats(
            sentences=len(lines), tokens=n_tokens, unique_tokens=len(uniq)
        )
        all_unique.update(uniq)
        total_sentences += len(lines)
        total_tokens += n_tokens
    return CorpusStats(
        per_split=per_split,
        sentences=total_sentences,
        tokens=total_tokens,
        unique_tokens=len(all_unique),
    )


def stats_to_json(cs):
    payload = {
        "per_split": {
            name: {
                "sentences": s.sentences,
                "tokens": s.tokens,
                "unique_tokens": s.unique_tokens,
            }
            for name, s in cs.per_split.items()
        },
        "total": {
            "sentences": cs.sentences,
            "tokens": cs.tokens,
            "unique_tokens": cs.unique_tokens,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_stats_table(cs):
    rows = [("split", "#Sentences", "#Tokens", "#Unique tokens")]
    for name, s in cs.per_split.items():
        rows.append((name, f"{s.sentences:,}", f"{s.tokens:,}", f"{s.unique_tokens:,}"))
    rows.append(("total", f"{cs.sentences:,}", f"{cs.tokens:,}", f"{cs.unique_tokens:,}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    out = []
    for r in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out)


@dataclass
class Batch:
    """One training minibatch with the special-id context occlusion needs."""

    inputs: np.ndarray
    targets: np.ndarray
    ignore: np.ndarray
    occ_id: int
    special_ids: tuple


@dataclass
class TokenDataset:
    """Packed (block_size+1)-wide windows of the concatenated id stream.

    windows[:, :-1] are inputs, windows[:, 1:] the shifted targets; the final
    partial window is padded with pad_id, and padded target positions are
    excluded from the loss via the ignore mask batch() returns.
    """

    windows: np.ndarray
    block_size: int
    pad_id: int
    eot_id: int
    occ_id: int
    n_stream_tokens: int
    vocab_size: int
    special_ids: tuple

    def __len__(self):
        return self.windows.shape[0]

    def batch(self, indices):
        w = self.windows[np.asarray(indices)]
        return w[:, :-1], w[:, 1:], w[:, 1:] == self.pad_id

    def minibatch(self, indices):
        x, y, ignore = self.batch(indices)
        return Batch(
            inputs=x,
            targets=y,
            ignore=ignore,
            occ_id=self.occ_id,
            special_ids=self.special_ids,
        )


def pack_ids(stream, block_size, pad_id, eot_id, occ_id, vocab_size,
             special_ids):
    """Chunk a pre-encoded id stream into (block_size + 1)-wide windows."""
    if block_size < 2:
        raise ConfigError(f"block_size must be at least 2, got {block_size}")
    width = block_size + 1
    n = len(stream)
    n_windows = (n + width - 1) // width
    ids = np.full((n_windows, width), pad_id, dtype=np.int64)
    if n:
        flat = np.asarray(stream, dtype=np.int64)
        full = n // width
        ids[:full] = flat[: full * width].reshape(full, width)
        rest = n - full * width
        if rest:
            ids[full, :rest] = flat[full * width :]
    return TokenDataset(
        windows=ids,
        block_size=block_size,
        pad_id=pad_id,
        eot_id=eot_id,
        occ_id=occ_id,
        n_stream_tokens=n,
        vocab_size=vocab_size,
        special_ids=tuple(special_ids),
    )


def pack(lines, vocab, block_size):
    """Encode lines, join with eot_id, and chunk into training windows."""
    stream = []
    for line in lines:
        stream.extend(bpe.encode(vocab, line).ids)
        stream.append(vocab.specials.eot_id)
    return pack_ids(
        stream,
        block_size,
        pad_id=vocab.specials.pad_id,
        eot_id=vocab.specials.eot_id,
        occ_id=vocab.specials.occ_id,
        vocab_size=vocab.size,
        special_ids=vocab.specials.as_tuple(),
    )
