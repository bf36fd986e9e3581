"""Exact retrieval over encoded items, plus model save/load.

The index is the matrix of item encodings built by
:func:`encoders.item_embedding_matrix`, whose rows equal the encodings
training compares sessions with.  A query is scored against every row with
one matrix-vector product: under the shared-space scoring rule, similarity
= 1 - cosine distance = dot product of the encoded vectors, so retrieval is
exact, not approximate.  Ranking ties break on ascending item index via a
stable sort.

Models are persisted in a small versioned binary container: a magic tag,
a JSON header carrying the encoder configuration and the item vocabulary,
then the named parameter tensors as raw little-endian float32.  Loading is
bit-exact, so a saved model scores identically after a round trip and
re-saving a loaded model reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from .data import DataError, ItemVocab
from .encoders import Model, ModelConfig

MAGIC = b"SMLM"
FORMAT_VERSION = 1


class ModelFormatError(DataError):
    """Raised when a model file is truncated, corrupt, or the wrong kind."""


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

@dataclass
class ItemIndex:
    vectors: np.ndarray  # (items, dim) float32, row i = encoding of item i

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise ValueError("index expects a 2-d matrix of item vectors")
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)

    @classmethod
    def from_model(cls, model: Model) -> "ItemIndex":
        return cls(encoders.item_embedding_matrix(model))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def scores(self, query: np.ndarray) -> np.ndarray:
        """Similarity of the query to every item, one matvec."""
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self.vectors.shape[1],):
            raise ValueError(
                f"query shape {query.shape} does not match index "
                f"dimension {self.vectors.shape[1]}")
        return self.vectors @ query

    def topn(self, query: np.ndarray, n: int) -> list[tuple[int, float]]:
        """The n best (item, score) pairs, ties broken by ascending index."""
        if n < 1:
            raise ValueError("n must be positive")
        scores = self.scores(query)
        order = np.argsort(-scores, kind="stable")  # stable => index-ascending ties
        return [(int(i), float(scores[i])) for i in order[:n]]


@dataclass
class SmlRecommender:
    """Adapts a trained model to the evaluation protocol."""

    model: Model
    index: ItemIndex

    @classmethod
    def from_model(cls, model: Model) -> "SmlRecommender":
        return cls(model, ItemIndex.from_model(model))

    def recommend_scored(self, prefix, n: int) -> list[tuple[int, float]]:
        session_vec = encoders.encode_session(self.model, prefix)
        return self.index.topn(session_vec.values, n)

    def recommend(self, prefix, n: int) -> list[int]:
        return [item for item, _ in self.recommend_scored(prefix, n)]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _write_tensor(handle, name: str, values: np.ndarray) -> None:
    raw = name.encode("utf-8")
    handle.write(struct.pack("<H", len(raw)))
    handle.write(raw)
    handle.write(struct.pack("<B", values.ndim))
    for dim in values.shape:
        handle.write(struct.pack("<I", dim))
    handle.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def model_to_bytes(model: Model, vocab: ItemVocab) -> bytes:
    if len(vocab) != model.config.vocab_size:
        raise ValueError(
            f"vocabulary size {len(vocab)} does not match model "
            f"vocab_size {model.config.vocab_size}")
    header = json.dumps({
        "config": dataclasses.asdict(model.config),
        "vocab": {"ids": vocab.ids, "counts": vocab.counts},
    }, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    buf.write(struct.pack("<Q", len(header)))
    buf.write(header)
    tensors = list(model.params.items())
    buf.write(struct.pack("<I", len(tensors)))
    for name, tensor in tensors:
        _write_tensor(buf, name, tensor.values)
    return buf.getvalue()


def _read_exact(handle, count: int) -> bytes:
    # a corrupt size field can exceed what any read can request
    data = handle.read(count) if count <= sys.maxsize else b""
    if len(data) != count:
        raise ModelFormatError("model file is truncated")
    return data


def _read_tensor(handle) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(handle, 2))
    try:
        name = _read_exact(handle, name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"bad tensor name: {exc}") from exc
    (ndim,) = struct.unpack("<B", _read_exact(handle, 1))
    shape = tuple(struct.unpack("<I", _read_exact(handle, 4))[0]
                  for _ in range(ndim))
    raw = _read_exact(handle, 4 * math.prod(shape))
    try:  # numpy cannot make every shape a header can claim, e.g. 65 axes
        values = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    except ValueError as exc:
        raise ModelFormatError(f"bad shape for tensor {name!r}: {exc}") from exc
    if not np.isfinite(values).all():
        raise ModelFormatError(f"tensor {name!r} holds non-finite values")
    return name, values


def _config_from_header(fields) -> ModelConfig:
    """The encoder configuration, each field of the type the saver writes."""
    reference = {**dataclasses.asdict(ModelConfig(vocab_size=1)),
                 "conv_filter_sizes": []}  # a tuple, written as a JSON list
    if not (isinstance(fields, dict) and fields.keys() == reference.keys()
            and all(type(fields[k]) is type(v) for k, v in reference.items())
            and all(type(k) is int for k in fields["conv_filter_sizes"])):
        raise ModelFormatError("bad model header: config fields or their types "
                               "do not match the format")
    return ModelConfig(**{**fields,
                          "conv_filter_sizes": tuple(fields["conv_filter_sizes"])})


def model_from_bytes(data: bytes) -> tuple[Model, ItemVocab]:
    """Parse a model file, rejecting anything :func:`model_to_bytes` cannot write."""
    handle = io.BytesIO(data)
    if handle.read(4) != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(handle, 4))
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    (header_len,) = struct.unpack("<Q", _read_exact(handle, 8))
    try:
        header = json.loads(_read_exact(handle, header_len))
        config = _config_from_header(header["config"])
        ids = header["vocab"]["ids"]
        counts = header["vocab"]["counts"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelFormatError(f"bad model header: {exc}") from exc
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)
            and isinstance(counts, list)
            and all(type(c) is int and c >= 0 for c in counts)):
        raise ModelFormatError("vocabulary ids must be strings, counts "
                               "non-negative integers")

    (n_tensors,) = struct.unpack("<I", _read_exact(handle, 4))
    tensors = {}
    for _ in range(n_tensors):
        name, values = _read_tensor(handle)
        tensors[name] = ad.parameter(values)
    if handle.read(1):
        raise ModelFormatError("trailing bytes after the last tensor")

    try:
        model = encoders.model_from_tensors(config, tensors)
    except ValueError as exc:
        raise ModelFormatError(f"bad model tensors: {exc}") from exc
    vocab = ItemVocab()
    for item_id in ids:
        vocab.add(item_id)
    if len(vocab) != len(ids):
        raise ModelFormatError("duplicate ids in model vocabulary")
    if len(ids) != config.vocab_size:
        raise ModelFormatError(f"vocabulary has {len(ids)} ids, the model "
                               f"{config.vocab_size} items")
    if len(counts) != len(ids):
        raise ModelFormatError("vocabulary counts do not match ids")
    vocab.counts = list(counts)
    return model, vocab


def save_model(model: Model, vocab: ItemVocab, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(model_to_bytes(model, vocab))


def load_model(path: str) -> tuple[Model, ItemVocab]:
    with open(path, "rb") as handle:
        return model_from_bytes(handle.read())
