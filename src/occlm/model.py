"""Decoder-only transformer: embeddings, pre-LN masked-attention blocks,
tied output head, plus parameter-set bookkeeping and checkpoint I/O."""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import artifacts
from . import tensor as T
from .errors import CheckpointError, ConfigError, LengthError, ShapeError

CKPT_MAGIC = b"OCCLMCKPT1\n"
CKPT_VERSION = 1


@dataclass
class ModelConfig:
    vocab_size: int
    block_size: int = 128
    d_model: int = 256
    n_layers: int = 6
    n_heads: int = 4
    dropout: float = 0.3
    ffn_mult: int = 4

    def check(self):
        for name in ("d_model", "n_heads", "n_layers", "ffn_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} {getattr(self, name)} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not (0 <= self.dropout < 1):
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.block_size < 2:
            raise ConfigError(f"block_size {self.block_size} must be >= 2")
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size {self.vocab_size} must be >= 1")
        return self


# field type string -> the JSON values it takes (an int is a float, a bool
# is not an int)
_ACCEPTS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "str": lambda v: type(v) is str,
    "tuple": lambda v: (type(v) in (list, tuple)
                        and all(type(x) in (int, float) for x in v)),
}


def field_types(cls, *skip):
    """A config dataclass's {field name: type string}, less ``skip``."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


def check_fields(where, given, types):
    """Return a config dict read from outside the program, unconverted,
    after checking it against ``types`` ({field: dataclass type string, or a
    nested dict for a section}). A non-object, an unknown field or a wrong
    value type is a ConfigError naming ``where`` and the field."""
    if not isinstance(given, dict):
        raise ConfigError(
            f"{where} must be a JSON object, got {type(given).__name__}"
        )
    for key, val in given.items():
        kind = types.get(key)
        if kind is None:
            raise ConfigError(f"{where}: unknown field {key!r}")
        if isinstance(kind, dict):
            check_fields(f"{where} section {key!r}", val, kind)
        elif not _ACCEPTS[kind](val):
            want = "a list of numbers" if kind == "tuple" else kind
            raise ConfigError(f"{where}: {key} must be {want}, got {json.dumps(val)}")
    return given


class ParameterSet:
    """Ordered name -> Tensor map; shapes are a pure function of the config."""

    def __init__(self, config, tensors):
        self.config = config
        self._tensors = dict(tensors)

    def __getitem__(self, name):
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def copy(self):
        return ParameterSet(self.config, {
            name: T.Tensor(t.data.copy()) for name, t in self._tensors.items()
        })

    @staticmethod
    def group(name):
        """Map a tensor name to its freeze group: embeddings, block{i}, head."""
        if name in ("tok_emb", "pos_emb"):
            return "embeddings"
        if name.startswith("block"):
            return name.split(".")[0]
        return "head"


def param_shapes(config):
    """The full named-shape table; insertion order is the init draw order."""
    c = config
    d, f = c.d_model, c.ffn_mult * c.d_model
    shapes = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.block_size, d)}
    for i in range(c.n_layers):
        p = f"block{i}"
        shapes[f"{p}.ln1.g"] = (d,)
        shapes[f"{p}.ln1.b"] = (d,)
        shapes[f"{p}.attn.wq"] = (d, d)
        shapes[f"{p}.attn.wk"] = (d, d)
        shapes[f"{p}.attn.wv"] = (d, d)
        shapes[f"{p}.attn.wo"] = (d, d)
        shapes[f"{p}.ln2.g"] = (d,)
        shapes[f"{p}.ln2.b"] = (d,)
        shapes[f"{p}.ffn.w1"] = (d, f)
        shapes[f"{p}.ffn.b1"] = (f,)
        shapes[f"{p}.ffn.w2"] = (f, d)
        shapes[f"{p}.ffn.b2"] = (d,)
    shapes["ln_f.g"] = (d,)
    shapes["ln_f.b"] = (d,)
    return shapes


def param_count(config):
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


def init(config, seed):
    """Normal(0, 0.02) weights, zero biases, unit layer-norm scales."""
    config.check()
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in param_shapes(config).items():
        leaf = name.split(".")[-1]
        if leaf in ("b", "b1", "b2"):
            data = np.zeros(shape, dtype=T.DTYPE)
        elif leaf == "g":
            data = np.ones(shape, dtype=T.DTYPE)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(T.DTYPE)
        tensors[name] = T.Tensor(data)
    return ParameterSet(config, tensors)


def _block(params, config, i, x, train, rng):
    p = f"block{i}"
    x = T.add(x, T.attention(
        x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"], params[f"{p}.attn.wq"],
        params[f"{p}.attn.wk"], params[f"{p}.attn.wv"], params[f"{p}.attn.wo"],
        config.n_heads, config.dropout, train, rng,
    ))
    return T.add(x, T.ffn(
        x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"], params[f"{p}.ffn.w1"],
        params[f"{p}.ffn.b1"], params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"],
        config.dropout, train, rng,
    ))


def forward(params, config, ids, train=False, rng=None):
    """Run the decoder; returns logits of shape B x T x V.

    Position t logits depend only on ids[..t] (causal mask). The output
    head is tied: it reuses tok_emb storage. An id outside tok_emb's rows
    raises TokenIndexError, and a parameter whose shape config does not
    imply raises ShapeError.

    With a tape open on this thread the forward runs through the kernels,
    which record it. With none, nothing would be recorded, so it runs the
    kernels' array forwards directly (_forward_arrays): the same arithmetic
    and rng draws, the same finite checks under the same op names, and no
    Tensor, shape check or backward closure per op.
    """
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise LengthError(f"ids must be 1-D or 2-D, got shape {ids.shape}")
    B, S = ids.shape
    if S < 1:
        raise LengthError("forward needs at least one token")
    if S > config.block_size:
        raise LengthError(f"sequence length {S} exceeds block_size {config.block_size}")
    _check_shapes(params, config)

    with np.errstate(all="ignore"):  # the kernels' finite guard is the loud path
        if T.active_tape() is None:
            return _forward_arrays(params, config, ids, train, rng)
        tok = T.embedding_lookup(params["tok_emb"], ids)
        pos = T.embedding_lookup(params["pos_emb"], np.arange(S))
        x = T.dropout(T.add(tok, pos), config.dropout, train, rng)
        for i in range(config.n_layers):
            x = _block(params, config, i, x, train, rng)
        x = T.layer_norm(x, params["ln_f.g"], params["ln_f.b"])
        return T.matmul(x, T.transpose(params["tok_emb"], (1, 0)))


def _check_shapes(params, config):
    """ShapeError unless every parameter has the shape config implies and
    d_model splits into n_heads heads: what the kernels' shape checks catch,
    once per forward."""
    c = config
    for name, shape in _shape_items(c.vocab_size, c.block_size, c.d_model,
                                    c.n_layers, c.ffn_mult):
        got = params[name].data.shape
        if got != shape:
            raise ShapeError(f"parameter {name} has shape {got}, "
                             f"config implies {shape}")
    if config.d_model % config.n_heads:
        raise ShapeError(f"d_model {config.d_model} does not split into "
                         f"{config.n_heads} heads")


@functools.lru_cache(maxsize=64)
def _shape_items(vocab_size, block_size, d_model, n_layers, ffn_mult):
    """param_shapes' items for these config fields, built once: the table
    costs more than the check that reads it at every generated token."""
    return tuple(param_shapes(ModelConfig(
        vocab_size, block_size, d_model, n_layers, ffn_mult=ffn_mult)).items())


def _forward_arrays(params, config, ids, train, rng):
    """forward with no tape open, on arrays: the ops of the kernel path in
    its order, each output checked as its kernel's _result checks it.
    Bit-identical to the kernel path, rng state included."""
    check, p = T._check_finite, config.dropout
    w = {name: t.data for name, t in params.items()}
    table = w["tok_emb"]
    T._check_ids(ids, table.shape[0])
    x = table[ids]
    check(x, "embedding_lookup")
    pos = w["pos_emb"][: ids.shape[1]]
    check(pos, "embedding_lookup")
    x += pos
    check(x, "add")
    keep = T._dropout_keep(x.shape, p, train, rng)
    if keep is not None:
        T._dropped(x, keep, p, out=x)
        check(x, "dropout")
    for i in range(config.n_layers):
        b = f"block{i}"
        out = T._attention_fwd(
            x, w[f"{b}.ln1.g"], w[f"{b}.ln1.b"], w[f"{b}.attn.wq"],
            w[f"{b}.attn.wk"], w[f"{b}.attn.wv"], w[f"{b}.attn.wo"],
            config.n_heads, p, train, rng)[0]
        check(out, "attention")
        out += x  # x + out: float addition commutes, bit for bit
        check(out, "add")
        x = T._ffn_fwd(
            out, w[f"{b}.ln2.g"], w[f"{b}.ln2.b"], w[f"{b}.ffn.w1"],
            w[f"{b}.ffn.b1"], w[f"{b}.ffn.w2"], w[f"{b}.ffn.b2"],
            p, train, rng)[0]
        check(x, "ffn")
        x += out
        check(x, "add")
    x = T._layer_norm_fwd(x, w["ln_f.g"], w["ln_f.b"])[0]
    check(x, "layer_norm")
    head = table.T
    check(head, "transpose")
    # the head's matmul kernel: row-major operands; _result checks the
    # logits and wraps them (it records nothing with no tape open)
    return T._result(np.matmul(T._row_major(x), T._row_major(head)),
                     "matmul", (), None)


def sequence_logprob(params, config, ids):
    """log P(ids) under the model: sum of per-step next-token log-probs."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or ids.shape[0] < 2:
        raise LengthError(f"need a 1-D sequence of length >= 2, got {ids.shape}")
    logits = forward(params, config, ids[:-1], train=False).data[0]
    return float(token_logprobs(logits, ids[1:]).sum())


def token_logprobs(logits, targets):
    """float64 log-softmax of logits (... x V) at targets (...), the same
    z[t] - log(sum exp z) per target, with the max and exp taken in place."""
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    np.exp(z, out=z)
    picked -= np.log(z.sum(axis=-1))
    return picked


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params, vocab_hash, metadata=None, extras=None):
    """Header (version, config, vocab hash, metadata) + named float32 blobs.

    extras: optional name -> float32/float64/int64 arrays (optimizer moments
    and similar training state), stored after the parameter blobs.
    """
    names = params.names()
    extras = extras or {}
    header = {
        "format_version": CKPT_VERSION,
        "config": asdict(params.config),
        "vocab_hash": vocab_hash,
        "metadata": metadata or {},
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "extras": [
            {"name": n, "shape": list(np.asarray(a).shape), "dtype": np.asarray(a).dtype.str}
            for n, a in extras.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [CKPT_MAGIC, len(blob).to_bytes(8, "little"), blob]
    for n in names:
        parts.append(np.ascontiguousarray(params[n].data, dtype="<f4").tobytes())
    for n, a in extras.items():
        a = np.asarray(a)
        parts.append(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    artifacts.write_bytes(path, b"".join(parts))


def _read_checkpoint(path, payload=True):
    """Shared reader: magic, header size, JSON header, format version and
    config, then (with payload) the tensor and extra blobs in header order.

    Returns (header, config, tensors, extras); any malformed or truncated
    part raises CheckpointError (a malformed config, ConfigError), as does
    a header that is not an object or lacks an object metadata or a string
    vocab_hash.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
                raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
            size = int.from_bytes(fh.read(8), "little")
            end = os.fstat(fh.fileno()).st_size
            left = end - fh.tell()
            if size > left:
                raise CheckpointError(
                    f"{path} header length {size} exceeds the {left} bytes "
                    "after it")
            header = json.loads(fh.read(size).decode("utf-8"))
            if not isinstance(header, dict):
                raise CheckpointError(f"{path} header is not a JSON object")
            if header.get("format_version") != CKPT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {header.get('format_version')}"
                )
            for key, kind, what in (("metadata", dict, "an object"),
                                    ("vocab_hash", str, "a string")):
                if not isinstance(header.get(key), kind):
                    raise CheckpointError(f"{path} header needs {key} as {what}")
            given = header["config"]
            # older headers store the head's tying: a tied one loads, with
            # the key dropped from the header it returns
            if isinstance(given, dict) and given.pop("tie_embeddings", True) is not True:
                raise CheckpointError(
                    f"{path} has an untied output head, which occlm no longer "
                    "supports"
                )
            config = ModelConfig(**check_fields(
                f"{path} config", given, field_types(ModelConfig)
            )).check()
            tensors, extras = {}, {}
            if not payload:
                return header, config, tensors, extras

            def read_blob(n_bytes, what):
                # a header's shape is checked against the file before a read
                # sized by it, so a huge shape is an error, not a MemoryError
                left = end - fh.tell()
                raw = fh.read(n_bytes) if 0 <= n_bytes <= left else b""
                if len(raw) != n_bytes:
                    raise CheckpointError(
                        f"{path} truncated at {what}: {n_bytes} bytes needed, "
                        f"{left} left")
                return raw

            for entry in header["tensors"]:
                shape = tuple(entry["shape"])
                n_bytes = int(np.prod(shape)) * 4 if shape else 4
                raw = read_blob(n_bytes, f"tensor {entry['name']}")
                data = np.frombuffer(raw, dtype="<f4").reshape(shape)
                tensors[entry["name"]] = T.Tensor(data.copy())
            for entry in header["extras"]:
                shape = tuple(entry["shape"])
                dt = np.dtype(entry["dtype"])
                n_bytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
                raw = read_blob(n_bytes, f"extra {entry['name']}")
                extras[entry["name"]] = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return header, config, tensors, extras


def read_checkpoint_header(path):
    """Parse just the JSON header; no tensor payloads are read."""
    return _read_checkpoint(path, payload=False)[0]


def load_checkpoint(path, expect_config=None, expect_vocab_hash=None):
    """Read a checkpoint; fails loudly on corruption or config/hash mismatch.

    Returns (params, header_dict, extras_dict).
    """
    header, config, tensors, extras = _read_checkpoint(path)

    expected_names = list(param_shapes(config))
    if list(tensors) != expected_names:
        raise CheckpointError(f"{path} tensor names do not match its config")
    for name, shape in param_shapes(config).items():
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"{path} tensor {name} has shape {tensors[name].shape}, "
                f"config implies {shape}"
            )
    if expect_config is not None and asdict(expect_config) != asdict(config):
        diff = [
            f.name
            for f in fields(ModelConfig)
            if getattr(expect_config, f.name) != getattr(config, f.name)
        ]
        raise CheckpointError(f"checkpoint config mismatch in fields: {diff}")
    if expect_vocab_hash is not None and header["vocab_hash"] != expect_vocab_hash:
        raise CheckpointError(
            f"checkpoint was trained with vocab {header['vocab_hash'][:12]}, "
            f"current vocab is {expect_vocab_hash[:12]}"
        )
    return ParameterSet(config, tensors), header, extras
