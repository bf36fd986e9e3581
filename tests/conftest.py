import numpy as np
import pytest

from sml import autodiff as ad
from sml import encoders, sampling


def make_model(kind="MaxPool", vocab=12, dim=8, seed=0, **overrides):
    cfg = encoders.ModelConfig(
        vocab_size=vocab, embedding_dim=dim, encoder_kind=kind,
        max_session_length=overrides.pop("max_session_length", 6),
        **overrides)
    return encoders.build_model(cfg, seed=seed)


@pytest.fixture
def tiny_model():
    return make_model()


def encoder_loss_builder(config, loss_fn, seed=3):
    """(params, build) pair for grad-checking a loss through a full encoder.

    ``loss_fn(tape, model)`` must produce the scalar loss; the returned build
    function rewires the supplied tensors into a fresh model on every call so
    finite differences see the perturbed values.
    """
    params = encoders.init_arrays(config, seed=seed)
    params = {k: v.astype(np.float64) for k, v in params.items()}

    def build(tape, tensors):
        model = encoders.model_from_tensors(config, dict(tensors))
        return loss_fn(tape, model)

    return params, build


def numpy_item_vectors(model, items):
    """Item encodings recomputed in float64 straight from the parameters:
    embedding row -> tanh dense -> unit length."""
    table = model.item_embedding.values.astype(np.float64)
    w, b = (t.values.astype(np.float64) for t in model.item_ff)
    vecs = np.tanh(table[list(items)] @ w + b)
    if model.config.normalize_outputs:
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def padded(rows) -> np.ndarray:
    """Index lists as one matrix, right-padded with -1."""
    out = np.full((len(rows), max([1, *map(len, rows)])), -1)
    for row, items in zip(out, rows):
        row[:len(items)] = items
    return out


def make_examples(rows) -> sampling.Examples:
    """An examples block from (prefix, positives, negatives) lists."""
    prefixes, positives, negatives = zip(*rows)
    return sampling.Examples(padded(prefixes), np.array([len(p) for p in prefixes]),
                             padded(positives), padded(negatives))


def example_rows(examples: sampling.Examples):
    """The (prefix, positives, negatives) lists of an examples block."""
    def unpad(row):
        return [int(i) for i in row if i >= 0]
    return [(unpad(examples.prefixes[i, :examples.lengths[i]]),
             unpad(examples.positives[i]), unpad(examples.negatives[i]))
            for i in range(len(examples))]
