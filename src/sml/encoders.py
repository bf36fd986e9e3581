"""Session and item encoders over a shared unit-sphere embedding space.

Both encoders end in a tanh feed-forward stack followed by L2 normalisation,
so a session representation and an item representation can be compared with
cosine distance.  Items are always encoded in batches, as the rows of one
matrix (:func:`encode_items`).  Four session encoder kinds are supported:

* ``MaxPool`` / ``AvgPool`` -- order-insensitive pooling over the embedded
  prefix.
* ``GRU`` -- final hidden state of a gated recurrent layer (hidden size equals
  the embedding size).
* ``TextCNN`` -- the prefix is embedded, right-padded with zero rows to a
  fixed length, convolved with one filter bank per filter size, max-pooled
  over time (padded positions masked out) and concatenated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

ENCODER_KINDS = ("MaxPool", "AvgPool", "GRU", "TextCNN")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embedding_dim: int = 400
    encoder_kind: str = "MaxPool"
    common_embedding: bool = True
    normalize_outputs: bool = True
    max_session_length: int = 15
    conv_filter_sizes: tuple[int, ...] = (1, 3, 5)
    session_ff_depth: int = 1

    def __post_init__(self):
        object.__setattr__(self, "conv_filter_sizes", tuple(self.conv_filter_sizes))
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder_kind {self.encoder_kind!r}")
        if self.max_session_length < 1:
            raise ValueError("max_session_length must be positive")
        if self.session_ff_depth < 1:
            raise ValueError("session_ff_depth must be positive")
        if self.encoder_kind == "TextCNN":
            if not self.conv_filter_sizes:
                raise ValueError("TextCNN needs at least one filter size")
            for k in self.conv_filter_sizes:
                if not 1 <= k <= self.max_session_length:
                    raise ValueError(
                        f"filter size {k} must lie in [1, max_session_length]")

    @property
    def conv_channels(self) -> int:
        """Per-filter output channels, rounded up so the concat covers dim."""
        return -(-self.embedding_dim // len(self.conv_filter_sizes))


class Model:
    """Trainable parameters for one encoder configuration."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = ad.ParamSet()
        self.item_embedding: ad.Tensor | None = None
        self.session_embedding: ad.Tensor | None = None
        self.item_ff: tuple[ad.Tensor, ad.Tensor] | None = None
        self.session_ff: list[tuple[ad.Tensor, ad.Tensor]] = []
        self.gru: ad.GRUParams | None = None
        self.convs: dict[int, tuple[ad.Tensor, ad.Tensor]] = {}

    @property
    def session_table(self) -> ad.Tensor:
        return self.item_embedding if self.config.common_embedding else self.session_embedding


def _session_core_width(config: ModelConfig) -> int:
    if config.encoder_kind == "TextCNN":
        return config.conv_channels * len(config.conv_filter_sizes)
    return config.embedding_dim


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Names and shapes of every trainable tensor, in registration order."""
    d = config.embedding_dim
    shapes: dict[str, tuple[int, ...]] = {"item_embedding": (config.vocab_size, d)}
    if not config.common_embedding:
        shapes["session_embedding"] = (config.vocab_size, d)
    shapes["item_ff.w"] = (d, d)
    shapes["item_ff.b"] = (d,)
    if config.encoder_kind == "GRU":
        for gate in ("update", "reset", "cand"):
            shapes[f"gru.w_{gate}"] = (d, d)
            shapes[f"gru.u_{gate}"] = (d, d)
            shapes[f"gru.b_{gate}"] = (d,)
    elif config.encoder_kind == "TextCNN":
        c = config.conv_channels
        for k in config.conv_filter_sizes:
            shapes[f"conv{k}.filters"] = (k, d, c)
            shapes[f"conv{k}.bias"] = (c,)
    width = _session_core_width(config)
    for layer in range(config.session_ff_depth):
        shapes[f"session_ff.{layer}.w"] = (width if layer == 0 else d, d)
        shapes[f"session_ff.{layer}.b"] = (d,)
    return shapes


def model_from_tensors(config: ModelConfig, tensors: dict[str, ad.Tensor]) -> Model:
    """Wire named tensors into a Model, validating names and shapes."""
    # two tensors per feed-forward layer: a corrupt model file's depth must
    # fail here, before parameter_shapes lists that many names
    if 2 * config.session_ff_depth > len(tensors):
        raise ValueError(f"session_ff_depth {config.session_ff_depth} needs more "
                         f"than the {len(tensors)} tensors given")
    shapes = parameter_shapes(config)
    missing = sorted(set(shapes) - set(tensors))
    extra = sorted(set(tensors) - set(shapes))
    if missing or extra:
        raise ValueError(f"parameter names do not match config: "
                         f"missing={missing}, unexpected={extra}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise ValueError(f"parameter {name!r} has shape {tensors[name].shape}, "
                             f"expected {shape}")

    model = Model(config)
    for name in shapes:
        model.params.register(name, tensors[name])
    model.item_embedding = tensors["item_embedding"]
    if not config.common_embedding:
        model.session_embedding = tensors["session_embedding"]
    model.item_ff = (tensors["item_ff.w"], tensors["item_ff.b"])
    if config.encoder_kind == "GRU":
        model.gru = ad.GRUParams(**{
            f"{kind}_{gate}": tensors[f"gru.{kind}_{gate}"]
            for gate in ("update", "reset", "cand") for kind in ("w", "u", "b")})
    elif config.encoder_kind == "TextCNN":
        for k in config.conv_filter_sizes:
            model.convs[k] = (tensors[f"conv{k}.filters"], tensors[f"conv{k}.bias"])
    for layer in range(config.session_ff_depth):
        model.session_ff.append(
            (tensors[f"session_ff.{layer}.w"], tensors[f"session_ff.{layer}.b"]))
    return model


def init_arrays(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Fresh float32 weights: uniform(-1/sqrt(d), 1/sqrt(d)), biases zero."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(config.embedding_dim)
    arrays = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".b") or name.startswith("gru.b") or name.endswith(".bias"):
            arrays[name] = np.zeros(shape, dtype=np.float32)
        else:
            arrays[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return arrays


def build_model(config: ModelConfig, seed: int) -> Model:
    arrays = init_arrays(config, seed)
    return model_from_tensors(
        config, {name: ad.parameter(arr) for name, arr in arrays.items()})


def encode_items(model: Model, items, tape: ad.Tape | None = None) -> ad.Tensor:
    """Embedding rows -> tanh feed-forward -> unit sphere, one row per item.

    The only item encoder: training calls it once per example on the
    example's candidates, :func:`item_embedding_matrix` on the vocabulary.
    """
    rows = ad.embedding_lookup(tape, model.item_embedding, list(items))
    w, b = model.item_ff
    vecs = ad.dense(tape, rows, w, b, activation="tanh")
    if model.config.normalize_outputs:
        vecs = ad.l2_normalize(tape, vecs)
    return vecs


def encode_session(model: Model, prefix, tape: ad.Tape | None = None) -> ad.Tensor:
    """Encode an item-index prefix into the shared embedding space.

    The encoder sees the last ``max_session_length`` items of the prefix,
    in training and in serving alike.
    """
    config = model.config
    prefix = list(prefix)[-config.max_session_length:]
    if not prefix:
        raise ValueError("prefix is empty")
    length = len(prefix)

    x = ad.embedding_lookup(tape, model.session_table, prefix)
    kind = config.encoder_kind
    if kind == "MaxPool":
        core = ad.seq_pool(tape, x, "max", length)
    elif kind == "AvgPool":
        core = ad.seq_pool(tape, x, "mean", length)
    elif kind == "GRU":
        h0 = ad.constant(np.zeros(config.embedding_dim, dtype=x.dtype))
        core = ad.gru_sequence(tape, x, model.gru, h0)
    else:  # TextCNN
        total = config.max_session_length
        padded = ad.pad_rows(tape, x, total)
        pooled = []
        for k in config.conv_filter_sizes:
            filters, bias = model.convs[k]
            conv = ad.conv1d(tape, padded, filters, bias)
            # windows that contain no real row would pool pure padding
            valid = min(length, total - k + 1)
            pooled.append(ad.seq_pool(tape, conv, "max", valid))
        core = ad.concat(tape, pooled)

    for w, b in model.session_ff:
        core = ad.dense(tape, core, w, b, activation="tanh")
    if config.normalize_outputs:
        core = ad.l2_normalize(tape, core)
    return core


def item_embedding_matrix(model: Model) -> np.ndarray:
    """All item encodings, one unit row per vocabulary index.

    Built by one :func:`encode_items` call over the vocabulary.  Its rows
    equal training-time encodings bit for bit: training always encodes at
    least two candidates (a positive and a distinct negative), so both go
    through the same matrix-matrix product, whose rows do not depend on how
    many other rows it computes.  A one-row product would go to numpy's
    vector kernel, which may round differently.
    """
    matrix = encode_items(model, range(model.config.vocab_size)).values
    return matrix.astype(np.float32, copy=False)
