"""Corpus cleaning, splitting, statistics, and packing into training windows."""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

import numpy as np

from . import bpe
from .errors import ConfigError, DataError, EncodingError

# strip everything outside letters, digits, whitespace, . , ' -
# (\w covers letters and digits; underscore is excluded explicitly)
_SPECIAL_CHARS = re.compile(r"[^\w\s.,'\-]|_")
_REPEATED_STOPS = re.compile(r"\.{2,}")


class _CleanTable(dict):
    """str.translate table of cleaning rules 1 and 2: a slash becomes a space
    and a character _SPECIAL_CHARS matches is deleted. Each code point is
    decided on first sight, and the table is cleared when it holds 65536, so
    a sweep over all of Unicode does not keep 1.1M entries."""

    def __missing__(self, code):
        ch = chr(code)
        out = " " if ch in "/\\" else "" if _SPECIAL_CHARS.match(ch) else ch
        if len(self) >= 65536:
            self.clear()
        self[code] = out
        return out


_CLEAN_TABLE = _CleanTable()


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
    """Yield decoded lines; invalid UTF-8 fails loudly with the line number.

    Lines end at "\n" alone (not at the other breaks splitlines knows), and
    trailing "\r"s are stripped. The file is decoded whole; a file that is
    not UTF-8 is walked again line by line to name its first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # no UTF-8 sequence holds a "\n" byte, so some line fails here too
        for line_no, raw in enumerate(io.BytesIO(data), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(
                    f"invalid UTF-8 on line {line_no}: {exc}", line_no=line_no
                ) from exc
    lines = text.split("\n")
    if not lines[-1]:  # the text after a final "\n" is no line
        lines.pop()
    for line in lines:
        yield line.rstrip("\r")


def clean(lines):
    """Apply the cleaning rules in fixed order, yielding cleaned sentences.

    Order: slashes -> special chars -> repeated full stops -> sentence split
    -> lowercase. Empty results are dropped.
    """
    for line in lines:
        line = line.translate(_CLEAN_TABLE)
        if ".." in line:
            line = _REPEATED_STOPS.sub(".", line)
        line = " ".join(line.split())  # str.split and re's \s: the same spaces
        # lowercase only after the split: a final sigma depends on what follows
        *stops, tail = line.split(".")
        for piece in [s + "." for s in stops] + [tail]:
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


def stats(splits, vocab=None):
    """stats.json's dict: tokenized counts per split plus totals.

    splits maps split name to its list of sentences. With a vocabulary the
    counts use BPE ids; otherwise a whitespace-token baseline. Total
    unique_tokens is the size of the union across splits.
    """
    per_split = {}
    all_unique = set()
    for name, lines in splits.items():
        uniq = set()
        n_tokens = 0
        for line in lines:
            toks = bpe.encode(vocab, line).ids if vocab else line.split()
            n_tokens += len(toks)
            uniq.update(toks)
        per_split[name] = {"sentences": len(lines), "tokens": n_tokens,
                           "unique_tokens": len(uniq)}
        all_unique.update(uniq)
    total = {key: sum(s[key] for s in per_split.values())
             for key in ("sentences", "tokens")}
    total["unique_tokens"] = len(all_unique)
    return {"per_split": per_split, "total": total}


def render_stats_table(cs):
    rows = [("split", "#Sentences", "#Tokens", "#Unique tokens")]
    for name, s in [*cs["per_split"].items(), ("total", cs["total"])]:
        rows.append((name, *(f"{s[key]:,}" for key in
                             ("sentences", "tokens", "unique_tokens"))))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    out = []
    for r in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out)


@dataclass
class Batch:
    """One training minibatch: inputs, shifted targets and the padding mask."""

    inputs: np.ndarray
    targets: np.ndarray
    ignore: np.ndarray


@dataclass
class TokenDataset:
    """Packed (block_size+1)-wide windows of the concatenated id stream.

    windows[:, :-1] are inputs, windows[:, 1:] the shifted targets; the final
    partial window is padded with pad_id, and padded target positions are
    excluded from the loss via the ignore mask minibatch() returns.
    """

    windows: np.ndarray
    n_stream_tokens: int
    pad_id = bpe.PAD_ID  # class constant, not a field; the benchmark reads it

    def __len__(self):
        return self.windows.shape[0]

    def minibatch(self, indices):
        w = self.windows[np.asarray(indices)]
        return Batch(inputs=w[:, :-1], targets=w[:, 1:],
                     ignore=w[:, 1:] == bpe.PAD_ID)


def pack_ids(stream, block_size):
    """Chunk a pre-encoded id stream into (block_size + 1)-wide windows."""
    if block_size < 2:
        raise ConfigError(f"block_size must be at least 2, got {block_size}")
    width = block_size + 1
    n = len(stream)
    n_windows = (n + width - 1) // width
    ids = np.full((n_windows, width), bpe.PAD_ID, dtype=np.int64)
    if n:
        flat = np.asarray(stream, dtype=np.int64)
        full = n // width
        ids[:full] = flat[: full * width].reshape(full, width)
        rest = n - full * width
        if rest:
            ids[full, :rest] = flat[full * width :]
    return TokenDataset(windows=ids, n_stream_tokens=n)


def pack(lines, vocab, block_size):
    """Encode lines, join with end-of-text, and chunk into training windows."""
    stream = []
    for line in lines:
        stream.extend(bpe.encode(vocab, line).ids)
        stream.append(bpe.EOT_ID)
    return pack_ids(stream, block_size)
